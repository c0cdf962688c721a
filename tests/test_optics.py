import math

import numpy as np
import pytest

from cghzsim import (
    BeamSplitter,
    Circuit,
    CsState,
    DomainError,
    GateBasisError,
    Hadamard,
    ModeShapeError,
    Prep,
    SelectionMode,
    SelectVacuum,
    ZeroProbabilityError,
    ZeroStateError,
    csstate_to_fock,
    fock_fidelity,
    normalize,
    run_fock,
    state_inner,
    state_norm,
)
from cghzsim.coherent import cat_norm, ghz_norm, merge_terms
from cghzsim.fock import coherent_fock
from cghzsim.optics import (
    VACUUM_LABEL_TOL,
    SelectionRecord,
    add_mode,
    apply_bs,
    apply_hadamard,
    select_vacuum,
    split_mode,
)
from conftest import (
    coherent_product,
    complex_twin,
    hadamard_image,
    hadamard_matrix,
    hadamard_reference,
    random_complex,
    random_state,
)

SQRT2 = math.sqrt(2.0)


def hadamard_pair(alpha):
    """(|a>+|-a>)(|a>+|-a>) after both Hadamards, normalized: the state
    entering the first beam splitter of every build."""
    s = coherent_product([alpha, alpha])
    s = apply_hadamard(s, 0, alpha)
    s = apply_hadamard(s, 1, alpha)
    return normalize(s)


# ----------------------------------------------------------- beam splitter

def test_bs_merges_identical_amplitudes():
    out = apply_bs(coherent_product([2.0, 2.0]), 0, 1)
    np.testing.assert_allclose(out.amps, [[2 * SQRT2, 0.0]], atol=1e-15)


def test_bs_antisymmetric_input():
    out = apply_bs(coherent_product([2.0, -2.0]), 0, 1)
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
    s = coherent_product([1.0, 1.0])
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
    # signed zeros too: the vacuum port's +0 turns a -0.0 component of
    # the split mode into +0.0
    zeros = np.array([complex(-0.0, -0.0), complex(-0.0, 0.5),
                      complex(0.5, -0.0), 0.0])
    for _ in range(40):
        s = random_state(rng, max_terms=8, modes=3, max_amp=2.0)
        amps = s.amps.copy()
        hit = rng.uniform(size=amps.shape) < 0.3
        amps[hit] = rng.choice(zeros, size=hit.sum())
        s = CsState(s.coeffs, amps)
        for i in range(3):
            ref = apply_bs(add_mode(s, 0), i, 3)
            out = split_mode(s, i)
            assert out.coeffs.tobytes() == ref.coeffs.tobytes()
            assert out.amps.tobytes() == ref.amps.tobytes()


def test_split_halves_doubled_amplitude():
    out = split_mode(coherent_product([SQRT2]), 0)
    np.testing.assert_allclose(out.amps, [[1.0, 1.0]], atol=1e-15)


def test_split_cat_gives_two_mode_entangled_shape():
    s = CsState([1, 1], [[SQRT2], [-SQRT2]])
    out = split_mode(s, 0)
    np.testing.assert_allclose(out.amps, [[1.0, 1.0], [-1.0, -1.0]],
                               atol=1e-15)


def test_split_vacuum_stays_vacuum():
    out = split_mode(coherent_product([0.0]), 0)
    np.testing.assert_allclose(out.amps, [[0.0, 0.0]], atol=1e-15)


# ----------------------------------------------------------------- hadamard

def test_hadamard_on_plus_alpha():
    out = apply_hadamard(coherent_product([1.0]), 0, 1.0)
    n0 = cat_norm(1.0, 1)
    assert out.term_count == 2
    np.testing.assert_allclose(sorted(out.amps[:, 0].real), [-1.0, 1.0])
    np.testing.assert_allclose(out.coeffs.real,
                               [n0 / SQRT2, n0 / SQRT2], atol=1e-14)
    assert state_norm(out) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_hadamard_on_minus_alpha():
    out = apply_hadamard(coherent_product([-1.0]), 0, 1.0)
    n0p = cat_norm(1.0, -1)
    coeff = {round(a.real, 6): c for a, c in zip(out.amps[:, 0], out.coeffs)}
    assert coeff[1.0] == pytest.approx(n0p / SQRT2, abs=1e-14)
    assert coeff[-1.0] == pytest.approx(-n0p / SQRT2, abs=1e-14)
    assert state_norm(out) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_hadamard_twice_is_identity_up_to_overlap_tail():
    alpha = 3.0
    s = coherent_product([alpha])
    out = normalize(apply_hadamard(apply_hadamard(s, 0, alpha), 0, alpha))
    f = abs(state_inner(s, out)) ** 2
    assert f >= 1 - 1e-6


@pytest.mark.parametrize("off_basis,column", [
    ("raise", "constant"), ("raise", "varying"),
    ("project", "constant"), ("project", "varying")],
    ids=["raise-constant", "raise-varying", "project-constant",
         "project-varying"])
def test_hadamard_returns_the_normalized_merged_image(off_basis, column,
                                                      rng):
    # a constant column makes the input s' (x) |b>, which the kernel
    # renormalizes by the closed-form norm of H|b> without a merge; a
    # varying one gives rows that differ only in mode i, which merge
    for alpha in np.repeat([0.7, 1.3, 2.0], 15):
        if off_basis == "raise":
            labels = alpha * np.array([1.0, -1.0])
        else:
            labels = random_complex(rng, 3, 2.0)
        if column == "constant":
            labels = labels[rng.integers(0, labels.size)][None]
        rest = random_complex(rng, 3 * int(rng.integers(1, 5)), 2.0)
        rest = rest.reshape(-1, 3)
        i = int(rng.integers(0, 4))
        amps = [np.insert(r, i, b) for r in rest for b in labels]
        coeffs = random_complex(rng, len(amps), 1.0)
        s = normalize(merge_terms(CsState(coeffs, amps)))
        out = apply_hadamard(s, i, alpha, off_basis=off_basis)
        ref = hadamard_reference(s, i, alpha)
        assert abs(state_norm(out) - 1.0) <= 1e-13
        assert merge_terms(out).term_count == out.term_count
        assert np.array_equal(out.amps, ref.amps)
        assert np.max(np.abs(out.coeffs - ref.coeffs)) <= 1e-13


def test_hadamard_norm_is_norm_of_gate_image(rng):
    # a single-mode input has a constant column, so the kernel divides the
    # image by the closed-form norm of H|b>; that divisor must be the Gram
    # norm of the image, which is 1 on the qubit basis
    for alpha in (0.7, 1.3, 2.0):
        for beta in (alpha, -alpha):
            image = hadamard_image(coherent_product([beta]), 0, alpha)
            assert state_norm(image) == pytest.approx(1.0, abs=1e-14)
        for beta in random_complex(rng, 20, 2.5):
            s = coherent_product([beta])
            image = hadamard_image(s, 0, alpha)
            out = apply_hadamard(s, 0, alpha, off_basis="project")
            assert np.array_equal(out.amps, image.amps)
            assert np.max(np.abs(out.coeffs * state_norm(image)
                                 - image.coeffs)) <= 1e-13
    # the image of a zero-term state vanishes: no norm to divide by, as
    # in normalize
    with pytest.raises(ZeroStateError):
        apply_hadamard(CsState(np.zeros(0), np.zeros((0, 1))), 0, 1.0)


def test_hadamard_rejects_off_basis_label():
    s = coherent_product([SQRT2 * 2.0])
    with pytest.raises(GateBasisError):
        apply_hadamard(s, 0, 2.0)
    with pytest.raises(DomainError, match="unknown off-basis policy"):
        apply_hadamard(s, 0, 2.0, off_basis="clip")


def test_hadamard_accepts_round_off_drift():
    drift = 1.0 + 3e-10
    out = apply_hadamard(coherent_product([drift]), 0, 1.0)
    # labels are canonicalized onto the exact qubit basis
    assert set(np.round(out.amps[:, 0].real, 12)) == {1.0, -1.0}


def test_hadamard_projection_mode_matches_number_basis_matrix(rng):
    # the off-basis rule is the same rank-2 operator the oracle applies
    mat = hadamard_matrix(1.2, 60)
    for _ in range(25):
        beta = complex(*rng.uniform(-1.4, 1.4, 2))
        s = coherent_product([beta])
        out = apply_hadamard(s, 0, 1.2, off_basis="project")
        expect = mat @ coherent_fock(beta, 60)
        got = np.zeros(61, dtype=complex)
        for c, row in zip(out.coeffs, out.amps):
            got += c * coherent_fock(row[0], 60)
        # the kernel renormalizes its image, the matrix does not
        expect /= np.linalg.norm(expect)
        got /= np.linalg.norm(got)
        assert np.max(np.abs(got - expect)) <= 1e-9


# ------------------------------------------------------------ select_vacuum

def test_select_exact_on_vacuum_mode():
    out, rec = select_vacuum(coherent_product([0.0]), 0, SelectionMode.exact())
    assert rec.kept_prob == pytest.approx(1.0, abs=1e-14)
    assert rec.false_vacuum_prob == 0.0
    assert out.mode_count == 0


def post_first_splitter_state(alpha):
    """Four-branch state after the first beam splitter of a build."""
    return apply_bs(hadamard_pair(alpha), 0, 1)


def test_select_branch_keeps_antisymmetric_branches():
    alpha = 2.0
    s = post_first_splitter_state(alpha)
    out, rec = select_vacuum(s, 0, SelectionMode.branch())
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
                               SelectionMode.branch())
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


@pytest.mark.parametrize("sel", [SelectionMode.branch(),
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


@pytest.mark.parametrize("sel", [SelectionMode.branch(),
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
            keep = np.abs(labels) <= VACUUM_LABEL_TOL
            ref = CsState(s.coeffs[keep], s.amps[keep, 1:])
        assert abs(state_inner(normalize(ref), out)) == pytest.approx(
            1.0, abs=1e-12)


def _vacuum_carrying_state(rng):
    """Random normalized 3-mode state whose mode-0 labels are vacuum
    (exactly, or within VACUUM_LABEL_TOL) on a random subset of rows,
    always including row 0."""
    s = random_state(rng, max_terms=16, modes=3, max_amp=2.0)
    amps = s.amps.copy()
    vac = rng.uniform(size=s.term_count) < 0.5
    vac[0] = True
    amps[vac, 0] = np.where(rng.uniform(size=vac.sum()) < 0.5, 0.0,
                            random_complex(rng, vac.sum(), 1e-10))
    return normalize(CsState(s.coeffs, amps)), vac


def _gram_norm_sq(coeffs, amps):
    """<s|s> summed pair by pair from the coherent overlap formula."""
    a, b = amps[:, None, :], amps[None, :, :]
    ov = np.exp(-0.5 * (np.abs(a) ** 2 + np.abs(b) ** 2)
                + np.conj(a) * b).prod(axis=2)
    return float(np.real(np.conj(coeffs) @ ov @ coeffs))


def test_select_modes_differ_only_in_the_dropped_terms(rng):
    for _ in range(50):
        s, vac = _vacuum_carrying_state(rng)
        out_b, rec_b = select_vacuum(s, 0, SelectionMode.branch())
        _, rec_e = select_vacuum(s, 0, SelectionMode.exact())
        in_sq = _gram_norm_sq(s.coeffs, s.amps)
        dropped_sq = _gram_norm_sq(s.coeffs[~vac], s.amps[~vac])
        assert abs(rec_b.discarded_weight - dropped_sq / in_sq) <= 1e-12
        assert rec_e.discarded_weight == 0.0
        assert rec_b.false_vacuum_prob == rec_e.false_vacuum_prob
        # branch selection is exact selection of the vacuum-labelled part
        sub = normalize(CsState(s.coeffs[vac], s.amps[vac]))
        ref, _ = select_vacuum(sub, 0, SelectionMode.exact())
        assert np.array_equal(out_b.amps, ref.amps)
        assert np.max(np.abs(out_b.coeffs - ref.coeffs)) <= 1e-12


def test_select_exact_merges_rows_the_dropped_mode_told_apart():
    s = normalize(CsState([0.5, 0.5, 0.7],
                          [[0.5, 1.0], [-0.5, 1.0], [0.5, -1.0]]))
    out, _ = select_vacuum(s, 0, SelectionMode.exact())
    assert out.term_count == 2
    assert sorted(out.amps[:, 0].real) == [-1.0, 1.0]


def test_select_branch_zero_survivors():
    s = coherent_product([2.0, 2.0])
    with pytest.raises(ZeroProbabilityError):
        select_vacuum(s, 0, SelectionMode.branch())


def test_selection_mode_validation():
    with pytest.raises(DomainError):
        SelectionMode("bogus")


# ------------------------------------------------------ deferred weight

def _weights_apart_state(dropped_coeff):
    """A kept term |0>|1> and a dropped one |40>|1>: the dropped label is
    so far from vacuum that its false-vacuum weight is exactly 0, so two
    of these differ only in the weight of the dropped term."""
    return CsState([0.6, dropped_coeff], [[0.0, 1.0], [40.0, 1.0]])


def test_records_compare_without_summing_the_discarded_weight():
    sel = SelectionMode.branch()
    _, rec = select_vacuum(_weights_apart_state(0.8), 0, sel)
    _, other = select_vacuum(_weights_apart_state(0.5), 0, sel)
    # equality, hashing and repr read the fields a record stores and
    # leave the dropped terms' Gram sum untaken
    assert rec == other and hash(rec) == hash(other)
    assert "discarded_weight" not in repr(rec)
    assert "discarded_weight" not in vars(rec)
    assert rec.discarded_weight == pytest.approx(0.64, abs=1e-15)
    assert other.discarded_weight == pytest.approx(0.25, abs=1e-15)


def test_record_takes_the_mode_name_it_is_given():
    _, rec = select_vacuum(_weights_apart_state(0.8), 0,
                           SelectionMode.exact(), mode_name="herald")
    assert rec.mode_name == "herald"
    assert rec.discarded_weight == 0.0


# ------------------------------------------------------- owned outputs

def _kernel_outputs(s):
    """Every optics kernel applied to s, a 4-mode state whose mode 0 is
    vacuum on some rows, mode 1 varies, mode 2 is 1.5 on every row and
    mode 3 is +-1.5 (``_kernel_input``)."""
    branch, exact = SelectionMode.branch(), SelectionMode.exact()
    return {
        "add_mode": add_mode(s, 0.5),
        "apply_bs": apply_bs(s, 0, 1),
        "split_mode": split_mode(s, 1),
        "apply_hadamard uniform": apply_hadamard(s, 2, 1.5),
        "apply_hadamard uniform, project": apply_hadamard(
            s, 2, 1.5, off_basis="project"),
        "apply_hadamard mixed": apply_hadamard(s, 3, 1.5),
        "apply_hadamard merging": apply_hadamard(s, 1, 1.5,
                                                 off_basis="project"),
        "select_vacuum exact": select_vacuum(s, 0, exact)[0],
        "select_vacuum branch": select_vacuum(s, 0, branch)[0],
        "merge_terms": merge_terms(s),
        "normalize": normalize(s),
    }


def _kernel_input(rng, real):
    """Arrays (coeffs, amps) of a state that ``_kernel_outputs`` takes,
    with real or complex coefficients and mode-1 labels."""
    t = int(rng.integers(2, 9))
    if real:
        coeffs = rng.uniform(-1.0, 1.0, t)
        amps = rng.uniform(-2.0, 2.0, (t, 4))
    else:
        coeffs = random_complex(rng, t, 1.0)
        amps = random_complex(rng, 4 * t, 2.0).reshape(t, 4)
    amps[rng.uniform(size=t) < 0.5, 0] = 0.0
    amps[0, 0] = 0.0                        # at least one vacuum branch
    amps[:, 2] = 1.5
    amps[:, 3] = rng.choice([-1.5, 1.5], t)
    return coeffs, amps


def test_kernel_outputs_are_read_only_and_share_no_caller_array(rng):
    for _ in range(20):
        coeffs, amps = _kernel_input(rng, real=False)
        s = CsState(coeffs, amps)
        before = (s.coeffs.tobytes(), s.amps.tobytes())
        for name, out in _kernel_outputs(s).items():
            for x in (out.coeffs, out.amps):
                assert x.dtype == np.complex128, name
                assert not x.flags.writeable, name
                assert not np.shares_memory(x, coeffs), name
                assert not np.shares_memory(x, amps), name
        # the kernels are pure, and the caller's arrays stay their own
        assert (s.coeffs.tobytes(), s.amps.tobytes()) == before
        assert coeffs.flags.writeable and amps.flags.writeable


def test_kernel_arithmetic_that_overflows_raises_domain_error():
    s = CsState([1.0], [[1.5e308, -1.5e308]])
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            DomainError):
        apply_bs(s, 0, 1)
    with pytest.raises(DomainError):
        add_mode(s, complex(math.inf, 0.0))


# ---------------------------------------------------------- dtype contract
#
# NumPy's ComplexWarning is a RuntimeWarning, which the suite turns into an
# error (pyproject.toml), so a kernel that casts complex data into a real
# array fails these tests rather than dropping imaginary parts.

def test_the_suite_refuses_a_complex_to_real_cast():
    with pytest.raises(RuntimeWarning, match="imaginary"):
        np.zeros(1)[:] = np.array([1j])


def test_kernels_keep_a_real_state_float64_as_its_complex_twin(rng):
    for _ in range(20):
        coeffs, amps = _kernel_input(rng, real=True)
        s = normalize(CsState(coeffs, amps))
        assert s.coeffs.dtype == s.amps.dtype == np.float64
        want = _kernel_outputs(complex_twin(s))
        for name, out in _kernel_outputs(s).items():
            assert out.coeffs.dtype == out.amps.dtype == np.float64, name
            assert out.amps.shape == want[name].amps.shape, name
            np.testing.assert_allclose(out.coeffs, want[name].coeffs,
                                       rtol=0, atol=1e-13, err_msg=name)
            np.testing.assert_allclose(out.amps, want[name].amps,
                                       rtol=0, atol=1e-13, err_msg=name)


def test_a_complex_amplitude_or_label_promotes_a_real_state():
    s = CsState([0.6, 0.8], [[1.5, 0.0], [-1.5, 1.0]])
    assert add_mode(s, 2 + 0j).amps.dtype == np.float64
    cplx = add_mode(s, 0.3 + 0.4j)
    assert (cplx.coeffs.dtype, cplx.amps.dtype) == (np.float64,
                                                    np.complex128)
    # the Hadamard image of a complex label has complex coefficients
    h = apply_hadamard(cplx, 2, 1.5, off_basis="project")
    assert h.coeffs.dtype == h.amps.dtype == np.complex128
    # once complex, a state stays complex, even when a selection removes
    # its last complex label
    kept, _ = select_vacuum(cplx, 2, SelectionMode.exact())
    assert np.all(kept.amps.imag == 0)
    assert kept.amps.dtype == np.complex128
    # complex coefficients leave real labels real
    phased = apply_bs(CsState([0.6j, 0.8], s.amps), 0, 1)
    assert (phased.coeffs.dtype, phased.amps.dtype) == (np.complex128,
                                                        np.float64)


@pytest.mark.parametrize("index", [True, False, np.True_, 1.0,
                                   np.float64(0.0), "1"])
@pytest.mark.parametrize("kernel", [
    lambda s, i: apply_bs(s, i, 2),
    lambda s, i: apply_bs(s, 2, i),
    lambda s, i: split_mode(s, i),
    lambda s, i: apply_hadamard(s, i, 1.5),
    lambda s, i: select_vacuum(s, i, SelectionMode.exact())[0],
], ids=["bs first", "bs second", "split", "hadamard", "select"])
def test_a_mode_index_must_be_an_integer_and_not_a_bool(kernel, index):
    s = coherent_product([1.5, 1.5, 1.5])
    with pytest.raises(ModeShapeError, match="not an integer"):
        kernel(s, index)
    # a NumPy integer is an integer
    kernel(s, np.int64(1))
