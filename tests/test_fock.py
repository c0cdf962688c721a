import math

import numpy as np
import pytest

from cghzsim import (
    Circuit,
    CircuitValidationError,
    CsState,
    DomainError,
    FockTruncationError,
    Hadamard,
    ModeShapeError,
    ProtocolParams,
    SelectionMode,
    ZeroProbabilityError,
    build_cghz_circuit,
    csstate_to_fock,
    fock_fidelity,
    ideal_cghz_state,
    normalize,
    run,
    run_fock,
    validate,
)
from cghzsim import engine, fock
from cghzsim.fock import (
    FockTensor,
    bs_fock,
    coherent_fock,
    fock_inner,
    hadamard_fock,
    split_fock,
    vacuum_project_fock,
)
from cghzsim.coherent import cat_norm
from cghzsim.optics import apply_bs, apply_hadamard, select_vacuum

SQRT2 = math.sqrt(2.0)


def tensor_from_vectors(*vecs):
    acc = vecs[0]
    for v in vecs[1:]:
        acc = np.multiply.outer(acc, v)
    return acc


# ----------------------------------------------------------- coherent_fock

def test_coherent_fock_vacuum():
    v = coherent_fock(0.0, 10)
    assert v[0] == 1.0
    assert np.all(v[1:] == 0)


def test_coherent_fock_norm_at_unit_amplitude():
    v = coherent_fock(1.0, 40)
    assert np.sum(np.abs(v) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_coherent_fock_norm_loss_small_through_amp_two():
    for a in (0.5, 1.0, 2.0):
        lost = 1 - np.sum(np.abs(coherent_fock(a, 40)) ** 2)
        assert lost <= 1e-10


def test_coherent_fock_overlap_reproduces_displacement_identity():
    ov = np.vdot(coherent_fock(1.0, 60), coherent_fock(-1.0, 60))
    assert complex(ov) == pytest.approx(math.exp(-2.0), abs=1e-10)


def test_coherent_fock_truncation_error():
    with pytest.raises(FockTruncationError):
        coherent_fock(4.0, 8)
    with pytest.raises(DomainError):
        coherent_fock(float("nan"), 10)


# ---------------------------------------------------------------- bs_fock

def test_bs_fock_vacuum_fixed_point():
    d = 21
    amps = np.zeros((d, d), dtype=complex)
    amps[0, 0] = 1.0
    out = bs_fock(FockTensor(20, amps), 0, 1)
    assert out.amps[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert out.squared_norm() == pytest.approx(1.0, abs=1e-12)


def test_bs_fock_matches_coherent_label_rule():
    n_max = 40
    t = FockTensor(n_max, tensor_from_vectors(coherent_fock(1.0, n_max),
                                              coherent_fock(1.0, n_max)))
    out = bs_fock(t, 0, 1)
    expect = tensor_from_vectors(coherent_fock(SQRT2, n_max),
                                 coherent_fock(0.0, n_max))
    assert np.max(np.abs(out.amps - expect)) <= 1e-8


def test_bs_fock_single_photon_balanced_split():
    d = 6
    amps = np.zeros((d, d), dtype=complex)
    amps[1, 0] = 1.0
    out = bs_fock(FockTensor(5, amps), 0, 1)
    assert out.amps[1, 0] == pytest.approx(1 / SQRT2, abs=1e-12)
    assert out.amps[0, 1] == pytest.approx(1 / SQRT2, abs=1e-12)


def test_bs_fock_norm_loss_negligible_below_cutoff():
    n_max = 40
    t = FockTensor(n_max, tensor_from_vectors(coherent_fock(1.5, n_max),
                                              coherent_fock(-1.5, n_max)))
    out = bs_fock(t, 0, 1)
    assert abs(out.squared_norm() - t.squared_norm()) <= 1e-8


def test_bs_fock_index_validation():
    t = FockTensor(5, np.zeros((6, 6), dtype=complex))
    with pytest.raises(DomainError):
        FockTensor(5, np.full((6, 6), 1.0, dtype=complex))
    with pytest.raises(ModeShapeError):
        bs_fock(t, 0, 0)


# ----------------------------------------------------- vacuum projection

def test_vacuum_project_trivial():
    d = 11
    amps = np.zeros((d, d), dtype=complex)
    amps[0, 3] = 1.0
    out, prob = vacuum_project_fock(FockTensor(10, amps), 0)
    assert prob == pytest.approx(1.0, abs=1e-14)
    assert out.amps[3] == pytest.approx(1.0)


def test_vacuum_project_coherent_mode():
    n_max = 40
    t = FockTensor(n_max, tensor_from_vectors(coherent_fock(1.0, n_max),
                                              coherent_fock(0.5, n_max)))
    _, prob = vacuum_project_fock(t, 0)
    assert prob == pytest.approx(math.exp(-1.0), abs=1e-10)


def test_vacuum_project_zero_branch():
    d = 6
    amps = np.zeros((d, d), dtype=complex)
    amps[1, 1] = 1.0
    with pytest.raises(ZeroProbabilityError):
        vacuum_project_fock(FockTensor(5, amps), 0)


# -------------------------------------------------------- state conversion

def test_csstate_to_fock_single_term():
    v = csstate_to_fock(CsState.single([1.0]), 40)
    np.testing.assert_allclose(v.amps, coherent_fock(1.0, 40), atol=1e-14)


def test_csstate_to_fock_cat_norm():
    cat = normalize(CsState([1, 1], [[1.0], [-1.0]]))
    t = csstate_to_fock(cat, 40)
    assert t.squared_norm() == pytest.approx(1.0, abs=1e-8)


def test_csstate_to_fock_full_target_norm():
    s = ideal_cghz_state(ProtocolParams(2, 2, 1.0))
    t = csstate_to_fock(s, 40)
    assert t.mode_count == 4
    assert t.squared_norm() == pytest.approx(1.0, abs=1e-8)


def test_csstate_to_fock_mode_cap():
    s = CsState.single([0.1] * 5)
    with pytest.raises(ModeShapeError):
        csstate_to_fock(s, 10)


def test_inner_matches_gram_inner():
    from cghzsim import state_inner

    s1 = normalize(CsState([1, 0.5j], [[1.0, -0.5], [-1.0, 0.5]]))
    s2 = normalize(CsState([1, -0.25], [[0.5, 0.5], [1.0, -1.0]]))
    lhs = state_inner(s1, s2)
    rhs = fock_inner(csstate_to_fock(s1, 50), csstate_to_fock(s2, 50))
    assert lhs == pytest.approx(rhs, abs=1e-8)


# ------------------------------------------------------- hadamard operator

def test_hadamard_fock_reproduces_defining_map():
    n_max = 50
    alpha = 1.0
    t = FockTensor(n_max, coherent_fock(alpha, n_max))
    out = hadamard_fock(t, 0, alpha)
    n0 = cat_norm(alpha, 1)
    expect = (n0 / SQRT2) * (coherent_fock(alpha, n_max)
                             + coherent_fock(-alpha, n_max))
    assert np.max(np.abs(out.amps - expect)) <= 1e-9


def test_hadamard_fock_matches_analytic_gate_on_entangled_state():
    n_max = 50
    pair = CsState([0.6, 0.8], [[1.0, 1.0], [-1.0, -1.0]])
    pair = normalize(pair)
    analytic = normalize(apply_hadamard(pair, 0, 1.0))
    numeric = hadamard_fock(csstate_to_fock(pair, n_max), 0, 1.0)
    assert fock_fidelity(csstate_to_fock(analytic, n_max),
                         numeric) == pytest.approx(1.0, abs=1e-10)


# ------------------------------------------------------------ full circuit

def test_split_then_project_round_trip():
    n_max = 30
    t = FockTensor(n_max, coherent_fock(1.0, n_max))
    grown = split_fock(t, 0)
    assert grown.mode_count == 2
    back, prob = vacuum_project_fock(bs_fock(grown, 0, 1), 1)
    assert prob == pytest.approx(1.0, abs=1e-10)
    assert np.max(np.abs(back.amps - t.amps)) <= 1e-8


def test_truncation_convergence_between_cutoffs():
    params = ProtocolParams(2, 2, 1.2)
    circuit = build_cghz_circuit(params)
    target = ideal_cghz_state(params)
    fids = []
    for n_max in (30, 40):
        res = run_fock(circuit, n_max=n_max)
        fids.append(fock_fidelity(csstate_to_fock(target, n_max), res.final))
    assert abs(fids[0] - fids[1]) <= 1e-8


def test_selection_probability_matches_analytic_exact_mode():
    alpha = 1.0
    s = CsState.single([alpha, alpha])
    s = apply_hadamard(s, 0, alpha)
    s = normalize(apply_hadamard(s, 1, alpha))
    s = apply_bs(s, 0, 1)
    _, rec = select_vacuum(s, 0, SelectionMode.exact())
    _, prob = vacuum_project_fock(csstate_to_fock(s, 40), 0)
    assert rec.kept_prob == pytest.approx(prob, abs=1e-8)


# Every build whose live modes stay within the oracle's four.  The
# cutoff keeps the eight points near 2 s; they agree to 1e-13 even here.
NMAX = 30


@pytest.mark.parametrize("alpha", [0.8, 1.0, 1.5])
@pytest.mark.parametrize("n,m", [(2, 2), (3, 1), (4, 1), (1, 4)])
def test_full_pipeline_agreement_on_small_build(n, m, alpha):
    circuit = build_cghz_circuit(ProtocolParams(n, m, alpha))
    analytic = run(circuit, SelectionMode.exact())
    numeric = run_fock(circuit, n_max=NMAX)
    assert numeric.mode_order == analytic.mode_order
    assert abs(numeric.p_success - analytic.p_success) <= 1e-8
    overlap = fock_fidelity(csstate_to_fock(analytic.final_state, NMAX),
                            numeric.final)
    assert overlap == pytest.approx(1.0, abs=1e-8)


def test_run_fock_rejects_wide_circuits():
    circuit = build_cghz_circuit(ProtocolParams(5, 1, 1.0))
    with pytest.raises(ModeShapeError):
        run_fock(circuit, n_max=10)
    # the same static pass rejects an empty circuit
    with pytest.raises(DomainError):
        run_fock(Circuit(alpha=1.0), n_max=10)


def test_run_fock_validates_once_before_the_width_check(monkeypatch):
    calls = []

    def counting(circuit):
        calls.append(circuit)
        return validate(circuit)

    for module in (engine, fock):
        monkeypatch.setattr(module, "validate", counting)
    # too wide for the oracle and invalid: the diagnostics win
    wide = build_cghz_circuit(ProtocolParams(5, 1, 1.0))
    bad = Circuit(wide.alpha, wide.instructions + (Hadamard("nowhere"),))
    with pytest.raises(CircuitValidationError):
        run_fock(bad, n_max=10)
    # an empty circuit with a bad alpha is invalid before it is empty
    with pytest.raises(CircuitValidationError):
        run_fock(Circuit(alpha=-1.0), n_max=10)
    assert len(calls) == 2
    run_fock(build_cghz_circuit(ProtocolParams(2, 1, 1.0)), n_max=20)
    assert len(calls) == 3
