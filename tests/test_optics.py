import math

import numpy as np
import pytest

from cghzsim import (
    BeamSplitter,
    Circuit,
    CsState,
    GateBasisError,
    Hadamard,
    ModeShapeError,
    Prep,
    SelectionMode,
    SelectVacuum,
    ZeroProbabilityError,
    csstate_to_fock,
    fock_fidelity,
    normalize,
    run_fock,
    state_inner,
    state_norm,
)
from cghzsim.coherent import cat_norm, ghz_norm, merge_terms
from cghzsim.fock import coherent_fock, hadamard_fock_matrix
from cghzsim.optics import (
    add_mode,
    apply_bs,
    apply_hadamard,
    hadamard_norm,
    select_vacuum,
    split_mode,
)
from conftest import random_complex, random_state

SQRT2 = math.sqrt(2.0)


def hadamard_pair(alpha):
    """(|a>+|-a>)(|a>+|-a>) after both Hadamards, normalized: the state
    entering the first beam splitter of every build."""
    s = CsState.single([alpha, alpha])
    s = apply_hadamard(s, 0, alpha)
    s = apply_hadamard(s, 1, alpha)
    return normalize(s)


# ----------------------------------------------------------- beam splitter

def test_bs_merges_identical_amplitudes():
    out = apply_bs(CsState.single([2.0, 2.0]), 0, 1)
    np.testing.assert_allclose(out.amps, [[2 * SQRT2, 0.0]], atol=1e-15)


def test_bs_antisymmetric_input():
    out = apply_bs(CsState.single([2.0, -2.0]), 0, 1)
    np.testing.assert_allclose(out.amps, [[0.0, 2 * SQRT2]], atol=1e-15)


def test_bs_involution(rng):
    for _ in range(100):
        s = random_state(rng, max_terms=16, modes=3, max_amp=4.0)
        back = apply_bs(apply_bs(s, 0, 2), 0, 2)
        assert np.max(np.abs(back.amps - s.amps)) <= 1e-12
        np.testing.assert_allclose(back.coeffs, s.coeffs, atol=1e-15)


def test_bs_preserves_norm(rng):
    for _ in range(100):
        s = random_state(rng, max_terms=32, modes=2, max_amp=4.0)
        assert abs(state_norm(apply_bs(s, 0, 1)) - state_norm(s)) <= 1e-10


def test_bs_index_errors():
    s = CsState.single([1.0, 1.0])
    with pytest.raises(ModeShapeError):
        apply_bs(s, 0, 2)
    with pytest.raises(ModeShapeError):
        apply_bs(s, 1, 1)


# --------------------------------------------------------------- add_mode

def test_add_mode_appends_label_and_keeps_coefficients(rng):
    s = random_state(rng, max_terms=8, modes=2, max_amp=2.0)
    out = add_mode(s, 0.5 - 1j)
    assert np.array_equal(out.coeffs, s.coeffs)
    assert np.array_equal(out.amps[:, :2], s.amps)
    assert np.all(out.amps[:, 2] == 0.5 - 1j)
    assert state_norm(out) == pytest.approx(state_norm(s), abs=1e-12)


def test_add_mode_on_zero_mode_state():
    empty = CsState(np.ones(1), np.zeros((1, 0)))
    assert np.array_equal(add_mode(empty, 2.0).amps, [[2.0]])


# -------------------------------------------------------------------- split

def test_split_is_vacuum_prep_then_beam_splitter(rng):
    for _ in range(20):
        s = random_state(rng, max_terms=8, modes=3, max_amp=2.0)
        i = int(rng.integers(0, 3))
        ref = apply_bs(add_mode(s, 0), i, 3)
        out = split_mode(s, i)
        assert np.array_equal(out.coeffs, ref.coeffs)
        assert np.array_equal(out.amps, ref.amps)


def test_split_halves_doubled_amplitude():
    out = split_mode(CsState.single([SQRT2]), 0)
    np.testing.assert_allclose(out.amps, [[1.0, 1.0]], atol=1e-15)


def test_split_cat_gives_two_mode_entangled_shape():
    s = CsState([1, 1], [[SQRT2], [-SQRT2]])
    out = split_mode(s, 0)
    np.testing.assert_allclose(out.amps, [[1.0, 1.0], [-1.0, -1.0]],
                               atol=1e-15)


def test_split_vacuum_stays_vacuum():
    out = split_mode(CsState.single([0.0]), 0)
    np.testing.assert_allclose(out.amps, [[0.0, 0.0]], atol=1e-15)


# ----------------------------------------------------------------- hadamard

def test_hadamard_on_plus_alpha():
    out = apply_hadamard(CsState.single([1.0]), 0, 1.0)
    n0 = cat_norm(1.0, 1)
    assert out.term_count == 2
    np.testing.assert_allclose(sorted(out.amps[:, 0].real), [-1.0, 1.0])
    np.testing.assert_allclose(out.coeffs.real,
                               [n0 / SQRT2, n0 / SQRT2], atol=1e-14)
    assert state_norm(out) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_hadamard_on_minus_alpha():
    out = apply_hadamard(CsState.single([-1.0]), 0, 1.0)
    n0p = cat_norm(1.0, -1)
    coeff = {round(a.real, 6): c for a, c in zip(out.amps[:, 0], out.coeffs)}
    assert coeff[1.0] == pytest.approx(n0p / SQRT2, abs=1e-14)
    assert coeff[-1.0] == pytest.approx(-n0p / SQRT2, abs=1e-14)
    assert state_norm(out) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_hadamard_twice_is_identity_up_to_overlap_tail():
    alpha = 3.0
    s = CsState.single([alpha])
    out = normalize(apply_hadamard(apply_hadamard(s, 0, alpha), 0, alpha))
    f = abs(state_inner(s, out)) ** 2
    assert f >= 1 - 1e-6


def test_hadamard_norm_is_norm_of_gate_image(rng):
    for alpha in (0.7, 1.3, 2.0):
        assert hadamard_norm(alpha, alpha) == pytest.approx(1.0, abs=1e-14)
        assert hadamard_norm(-alpha, alpha) == pytest.approx(1.0, abs=1e-14)
        for beta in random_complex(rng, 20, 2.5):
            image = apply_hadamard(CsState.single([beta]), 0, alpha,
                                   off_basis="project")
            assert hadamard_norm(beta, alpha) == pytest.approx(
                state_norm(image), abs=1e-13)


def test_hadamard_rejects_off_basis_label():
    s = CsState.single([SQRT2 * 2.0])
    with pytest.raises(GateBasisError):
        apply_hadamard(s, 0, 2.0)


def test_hadamard_accepts_round_off_drift():
    drift = 1.0 + 3e-10
    out = apply_hadamard(CsState.single([drift]), 0, 1.0)
    # labels are canonicalized onto the exact qubit basis
    assert set(np.round(out.amps[:, 0].real, 12)) == {1.0, -1.0}


def test_hadamard_projection_mode_matches_number_basis_matrix(rng):
    # the off-basis rule is the same rank-2 operator the oracle applies
    mat = hadamard_fock_matrix(1.2, 60)
    for _ in range(25):
        beta = complex(*rng.uniform(-1.4, 1.4, 2))
        s = CsState.single([beta])
        out = apply_hadamard(s, 0, 1.2, off_basis="project")
        expect = mat @ coherent_fock(beta, 60)
        got = np.zeros(61, dtype=complex)
        for c, row in zip(out.coeffs, out.amps):
            got += c * coherent_fock(row[0], 60)
        assert np.max(np.abs(got - expect)) <= 1e-9


# ------------------------------------------------------------ select_vacuum

def test_select_exact_on_vacuum_mode():
    out, rec = select_vacuum(CsState.single([0.0]), 0, SelectionMode.exact())
    assert rec.kept_prob == pytest.approx(1.0, abs=1e-14)
    assert rec.false_vacuum_prob == 0.0
    assert out.mode_count == 0


def post_first_splitter_state(alpha):
    """Four-branch state after the first beam splitter of a build."""
    return apply_bs(hadamard_pair(alpha), 0, 1)


def test_select_branch_keeps_antisymmetric_branches():
    alpha = 2.0
    s = post_first_splitter_state(alpha)
    out, rec = select_vacuum(s, 0, SelectionMode.branch(1e-9))
    out = normalize(out)
    # survivors form the +-sqrt2*alpha superposition with the two-mode
    # entangled normalization constant
    n1 = ghz_norm(2, alpha, 1)
    got = {round(a.real, 9): c for a, c in zip(out.amps[:, 0], out.coeffs)}
    assert got[round(SQRT2 * alpha, 9)] == pytest.approx(n1, abs=1e-12)
    assert got[round(-SQRT2 * alpha, 9)] == pytest.approx(n1, abs=1e-12)
    assert rec.discarded_weight > 0


def test_select_branch_kept_prob_approaches_half():
    probs = []
    for alpha in (1.0, 2.0, 3.0, 4.0):
        _, rec = select_vacuum(post_first_splitter_state(alpha), 0,
                               SelectionMode.branch(1e-9))
        probs.append(rec.kept_prob)
    assert abs(probs[-1] - 0.5) < 1e-10
    assert all(abs(p - 0.5) <= abs(q - 0.5) for p, q in zip(probs[1:], probs))


def test_select_exact_agrees_with_number_basis_at_alpha_one():
    s = post_first_splitter_state(1.0)
    out, rec = select_vacuum(s, 0, SelectionMode.exact())
    # the same step run through the number-basis oracle
    oracle = run_fock(Circuit(1.0, (
        Prep("a", 1.0), Prep("b", 1.0), Hadamard("a"), Hadamard("b"),
        BeamSplitter("a", "b"), SelectVacuum("a"))), n_max=60)
    projected, prob = oracle.final, oracle.probabilities[0]
    assert rec.kept_prob == pytest.approx(prob, abs=1e-8)
    assert rec.kept_prob == pytest.approx(0.7099871708070133, abs=1e-12)
    assert fock_fidelity(csstate_to_fock(out, 60), projected) == (
        pytest.approx(1.0, abs=1e-8))


def test_select_exact_keeps_false_vacuum_amplitudes():
    s = post_first_splitter_state(1.0)
    out, rec = select_vacuum(s, 0, SelectionMode.exact())
    # the two suppressed branches survive as a merged vacuum label
    merged = merge_terms(out)
    assert merged.term_count == 3
    assert rec.false_vacuum_prob > 0
    labels = sorted(round(abs(a), 6) for a in merged.amps[:, 0])
    assert labels[0] == 0.0


def test_split_then_select_round_trips_vacuum_mode():
    s = normalize(
        CsState([0.6, 0.8], [[0.0, 1.0], [0.0, -1.0]]))
    grown = split_mode(s, 0)
    out, rec = select_vacuum(grown, 2, SelectionMode.exact())
    assert rec.kept_prob == pytest.approx(1.0, abs=1e-12)
    assert abs(state_inner(s, out)) == pytest.approx(1.0, abs=1e-12)


def test_select_exact_kept_prob_in_unit_interval(rng):
    for _ in range(50):
        s = random_state(rng, max_terms=16, modes=2, max_amp=2.0,
                         normalized=True)
        try:
            _, rec = select_vacuum(s, 0, SelectionMode.exact())
        except ZeroProbabilityError:
            continue
        assert -1e-12 <= rec.kept_prob <= 1 + 1e-12


@pytest.mark.parametrize("sel", [SelectionMode.branch(1e-9),
                                 SelectionMode.exact()],
                         ids=["branch", "exact"])
def test_select_returns_unit_norm_state(sel, rng):
    for _ in range(50):
        s = random_state(rng, max_terms=16, modes=3, max_amp=2.0)
        amps = s.amps.copy()
        amps[rng.uniform(size=s.term_count) < 0.5, 0] = 0.0
        amps[0, 0] = 0.0                    # at least one vacuum branch
        s = normalize(CsState(s.coeffs, amps))
        out, _ = select_vacuum(s, 0, sel)
        assert abs(state_norm(out) - 1.0) <= 1e-12


@pytest.mark.parametrize("sel", [SelectionMode.branch(1e-9),
                                 SelectionMode.exact()],
                         ids=["branch", "exact"])
def test_select_output_is_merged_when_input_is(sel, rng):
    # labels on a coarse lattice: dropping a mode makes rows coincide
    lattice = np.array([-1.0, 0.0, 1.0, 1j])
    for _ in range(30):
        t = int(rng.integers(2, 24))
        amps = rng.choice(lattice, size=(t, 3))
        amps[0, 0] = 0.0                    # at least one vacuum branch
        s = CsState(rng.uniform(0.2, 1.0, t), amps)
        s = normalize(merge_terms(s))
        out, rec = select_vacuum(s, 0, sel)
        assert merge_terms(out).term_count == out.term_count
        assert abs(state_norm(out) - 1.0) <= 1e-12
        # the same state as the unmerged kept portion
        labels = s.amps[:, 0]
        if sel.kind == "exact":
            vac = np.exp(-0.5 * np.abs(labels) ** 2)
            ref = CsState(s.coeffs * vac, s.amps[:, 1:])
        else:
            keep = np.abs(labels) <= sel.tol
            ref = CsState(s.coeffs[keep], s.amps[keep, 1:])
        assert abs(state_inner(normalize(ref), out)) == pytest.approx(
            1.0, abs=1e-12)


def test_select_exact_merges_rows_the_dropped_mode_told_apart():
    s = normalize(CsState([0.5, 0.5, 0.7],
                          [[0.5, 1.0], [-0.5, 1.0], [0.5, -1.0]]))
    out, _ = select_vacuum(s, 0, SelectionMode.exact())
    assert out.term_count == 2
    assert sorted(out.amps[:, 0].real) == [-1.0, 1.0]


def test_select_branch_zero_survivors():
    s = CsState.single([2.0, 2.0])
    with pytest.raises(ZeroProbabilityError):
        select_vacuum(s, 0, SelectionMode.branch(1e-9))


def test_selection_mode_validation():
    from cghzsim import DomainError

    with pytest.raises(DomainError):
        SelectionMode("bogus")
    with pytest.raises(DomainError):
        SelectionMode("branch", -1.0)
