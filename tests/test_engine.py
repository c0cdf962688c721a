import math

import numpy as np
import pytest

from cghzsim import (
    BeamSplitter,
    Circuit,
    CircuitValidationError,
    CsState,
    DomainError,
    Hadamard,
    Prep,
    ProtocolParams,
    RunError,
    SelectVacuum,
    SelectionMode,
    Split,
    build_cghz_circuit,
    fidelity,
    ideal_cghz_state,
    normalize,
    parse,
    run,
    run_fock,
    state_norm,
    validate,
)
from cghzsim.coherent import merge_terms
from cghzsim.engine import _Coherent, _execute
from cghzsim.optics import VACUUM_LABEL_TOL, select_vacuum
from conftest import hadamard_reference, random_complex, random_state

BRANCH = SelectionMode.branch()
EXACT = SelectionMode.exact()


# ---------------------------------------------------------------- validate

def test_validate_empty_circuit():
    assert validate(Circuit(alpha=2.0)) == []


def test_validate_unbound_mode():
    diags = validate(Circuit(2.0, (BeamSplitter("a", "b"),)))
    assert len(diags) == 2
    assert all("unbound" in d.message for d in diags)
    assert diags[0].index == 0


def test_validate_rebinding_and_consumed_use():
    ins = (Prep("a", 2.0), Prep("a", 2.0))
    diags = validate(Circuit(2.0, ins))
    assert any("already used" in d.message for d in diags)

    ins = (Prep("a", 2.0), Prep("b", 2.0), BeamSplitter("a", "b"),
           SelectVacuum("a"), Hadamard("a"))
    diags = validate(Circuit(2.0, ins))
    assert any("consumed" in d.message and d.index == 4 for d in diags)


def test_validate_alpha_and_ref():
    assert any(d.index is None
               for d in validate(Circuit(-1.0, (Prep("a", 1.0),))))
    diags = validate(Circuit(2.0, (Prep("a", 2.0), Hadamard("a", -3.0))))
    assert any("reference" in d.message for d in diags)


@pytest.mark.parametrize("alpha", [np.float32(2.0), np.int64(2),
                                   np.float64(2.0), 2])
def test_numpy_scalar_alpha_runs_like_the_float(alpha):
    built = build_cghz_circuit(ProtocolParams(2, 2, 2.0))
    circuit = Circuit(alpha, built.instructions)
    with_ref = Circuit(2.0, (Prep("a", 2.0), Hadamard("a", alpha)))
    assert validate(circuit) == [] and validate(with_ref) == []
    for sel in (BRANCH, EXACT):
        want, got = run(built, sel), run(circuit, sel)
        assert got.p_success == want.p_success
        assert np.array_equal(got.final_state.coeffs, want.final_state.coeffs)
        assert np.array_equal(got.final_state.amps, want.final_state.amps)
    want = run(Circuit(2.0, (Prep("a", 2.0), Hadamard("a", 2.0))), EXACT)
    assert np.array_equal(run(with_ref, EXACT).final_state.coeffs,
                          want.final_state.coeffs)


@pytest.mark.parametrize("alpha", [True, False, np.bool_(True)])
def test_bool_alpha_is_refused_in_both_checks(alpha):
    # True == 1 to Python, but an amplitude given as a bool is a slip
    diags = validate(Circuit(alpha, (Prep("a", 2.0), Hadamard("a", alpha))))
    assert [d.index for d in diags] == [None, 1]


@pytest.mark.parametrize("ins", [
    (Prep("a", "x"),), (Prep("a", None),),
    (Prep("a", True),), (Prep("a", False),), (Prep("a", np.True_),),
    (Prep("a", 2.0), Hadamard("a", "2"))],
    ids=["amp-str", "amp-none", "amp-true", "amp-false", "amp-np-true",
         "ref-str"])
def test_non_numeric_amplitude_is_a_diagnostic(ins):
    circuit = Circuit(2.0, ins)
    diags = validate(circuit)
    assert [d.index for d in diags] == [len(ins) - 1]
    for execute in (lambda: run(circuit, BRANCH), lambda: run_fock(circuit)):
        with pytest.raises(CircuitValidationError):
            execute()


def test_validate_same_mode_bs_and_bad_name():
    diags = validate(Circuit(2.0, (Prep("a", 2.0), BeamSplitter("a", "a"))))
    assert any("distinct" in d.message for d in diags)
    diags = validate(Circuit(2.0, (Prep("not a name", 2.0),)))
    assert any("not a valid mode name" in d.message for d in diags)


def test_builder_output_validates():
    c = build_cghz_circuit(ProtocolParams(2, 2, 2.0))
    assert validate(c) == []


# --------------------------------------------------------------------- run

def test_run_single_prep():
    r = run(Circuit(1.0, (Prep("a", complex(1.0)),)), BRANCH)
    assert r.p_success == 1.0
    assert r.mode_order == ("a",)
    np.testing.assert_allclose(r.final_state.amps, [[1.0]])
    np.testing.assert_allclose(abs(r.final_state.coeffs[0]), 1.0)


def test_run_rejects_invalid_circuit():
    with pytest.raises(CircuitValidationError):
        run(Circuit(2.0, (Hadamard("nope"),)), BRANCH)


def test_run_refuses_a_selection_mode_given_by_name():
    c = build_cghz_circuit(ProtocolParams(2, 2, 2.0))
    with pytest.raises(DomainError, match="got 'exact'"):
        run(c, "exact")


def test_run_is_deterministic():
    c = build_cghz_circuit(ProtocolParams(2, 2, 1.5))
    r1 = run(c, BRANCH)
    r2 = run(c, BRANCH)
    assert r1.mode_order == r2.mode_order
    assert r1.p_success == r2.p_success
    assert np.array_equal(r1.final_state.coeffs, r2.final_state.coeffs)
    assert np.array_equal(r1.final_state.amps, r2.final_state.amps)
    assert r1.selections == r2.selections


def test_p_success_equals_product_of_kept_probs():
    r = run(build_cghz_circuit(ProtocolParams(2, 3, 1.5)), EXACT)
    prod = 1.0
    for rec in r.selections:
        prod *= rec.kept_prob
    assert r.p_success == pytest.approx(prod, abs=1e-12)
    assert len(r.selections) == 5


def test_no_selection_circuit_has_unit_probability_and_norm():
    ins = (Prep("a", complex(2.0)), Prep("b", complex(2.0)),
           Hadamard("a"), BeamSplitter("a", "b"), Split("b", "c"))
    r = run(Circuit(2.0, ins), BRANCH)
    assert r.p_success == 1.0
    assert r.selections == ()
    assert abs(state_norm(r.final_state) - 1.0) <= 1e-10


@pytest.mark.parametrize("execute", [
    lambda c: run(c, BRANCH),
    lambda c: run_fock(c, n_max=60),
], ids=["run", "run_fock"])
def test_run_aborts_with_instruction_index_on_dead_branch(execute):
    # the difference port carries all photons: vacuum heralds with
    # probability exp(-2 * 5.5^2) = 5e-27, below the 1e-24 both pipelines
    # refuse (at 5.0 it is 1.9e-22, which both compute)
    ins = (Prep("a", complex(5.5)), Prep("b", complex(-5.5)),
           BeamSplitter("a", "b"), SelectVacuum("b"))
    with pytest.raises(RunError) as exc:
        execute(Circuit(5.5, ins))
    assert exc.value.index == 3


def test_run_aborts_on_off_basis_hadamard_in_branch_mode():
    # after the splitter the label is sqrt2*alpha: outside the qubit basis
    ins = (Prep("a", complex(2.0)), Prep("b", complex(2.0)),
           BeamSplitter("a", "b"), Hadamard("a"))
    with pytest.raises(RunError) as exc:
        run(Circuit(2.0, ins), BRANCH)
    assert exc.value.index == 3


def test_full_build_branch_fidelity_at_alpha_two():
    params = ProtocolParams(2, 2, 2.0)
    r = run(build_cghz_circuit(params), BRANCH)
    assert fidelity(r.final_state, ideal_cghz_state(params)) >= 1 - 1e-6


def test_full_build_exact_probability_at_alpha_three():
    r = run(build_cghz_circuit(ProtocolParams(2, 2, 3.0)), EXACT)
    assert abs(r.p_success / 0.125 - 1) < 0.01


def test_branch_and_exact_outputs_converge():
    # heralding idealization error vanishes on the nonorthogonality scale
    from cghzsim import state_inner

    for alpha in (1.0, 2.0, 3.0, 4.0):
        c = build_cghz_circuit(ProtocolParams(2, 2, alpha))
        overlap = abs(state_inner(run(c, EXACT).final_state,
                                  run(c, BRANCH).final_state))
        assert overlap >= 1 - 10 * math.exp(-2 * alpha * alpha)


def test_exact_mode_handles_selection_residue():
    # exact selection leaks vacuum labels into later Hadamard modes; the
    # run must not abort and stays close to the branch-mode output
    c = build_cghz_circuit(ProtocolParams(2, 2, 1.0))
    re_ = run(c, EXACT)
    rb = run(c, BRANCH)
    from cghzsim import state_inner
    ov = abs(state_inner(re_.final_state, rb.final_state))
    assert 0.8 < ov < 1.0
    assert re_.final_state.term_count > rb.final_state.term_count


def test_final_mode_order_tracks_names():
    r = run(build_cghz_circuit(ProtocolParams(2, 2, 2.0)), BRANCH)
    assert r.mode_order == ("q1_1", "q1_2", "q2_1", "q2_2")
    assert all(rec.mode_name for rec in r.selections)


def test_max_term_count_is_recorded():
    r = run(build_cghz_circuit(ProtocolParams(3, 3, 2.0)), BRANCH)
    assert 0 < r.max_term_count <= 2 ** 10


def test_empty_circuit_runs_to_scalar_state():
    r = run(Circuit(alpha=1.0), BRANCH)
    assert r.p_success == 1.0
    assert r.mode_order == ()
    assert r.final_state.mode_count == 0
    assert abs(state_norm(r.final_state) - 1.0) < 1e-12


@pytest.mark.parametrize("sel", [BRANCH, EXACT], ids=["branch", "exact"])
@pytest.mark.parametrize("n,m", [(2, 2), (3, 3), (2, 4), (4, 2)])
def test_run_final_state_has_unit_norm_and_is_merged(n, m, sel):
    # run returns the working state without a final renormalization, and
    # merges after a selection only when the dropped column varies
    final = run(build_cghz_circuit(ProtocolParams(n, m, 2.0)), sel).final_state
    assert abs(state_norm(final) - 1.0) <= 1e-12
    assert merge_terms(final).term_count == final.term_count


class _Checked:
    """The coherent backend, keeping the working state after each call."""

    def __init__(self, sel):
        self.inner = _Coherent(sel)
        self.states = []

    def __getattr__(self, name):
        kernel = getattr(self.inner, name)

        def call(*args):
            kernel(*args)
            self.states.append(self.inner.state)
        return call


@pytest.mark.parametrize("sel", [BRANCH, EXACT], ids=["raise", "project"])
def test_product_mode_hadamard_norm_matches_gram_norm(sel, rng):
    # a constant column makes the state s' (x) |b>; the Hadamard kernel
    # then renormalizes by ||H|b>|| instead of a Gram sum
    alpha = 1.3
    backend = _Coherent(sel)
    for _ in range(50):
        s = random_state(rng, max_terms=16, modes=3, max_amp=2.0)
        if sel is BRANCH:
            b = alpha * rng.choice([-1.0, 1.0])
        else:
            b = random_complex(rng, 1, 2.0)[0]
        i = int(rng.integers(0, 4))
        s = normalize(CsState(s.coeffs, np.insert(s.amps, i, b, axis=1)))
        backend.state = s
        backend.hadamard(i, alpha)
        ref = hadamard_reference(s, i, alpha)
        assert np.array_equal(backend.state.amps, ref.amps)
        assert np.max(np.abs(backend.state.coeffs - ref.coeffs)) <= 1e-13


@pytest.mark.parametrize("sel", [BRANCH, EXACT], ids=["branch", "exact"])
@pytest.mark.parametrize("n,m", [(2, 2), (3, 3), (2, 4), (4, 2)])
def test_every_instruction_leaves_a_unit_norm_merged_state(n, m, sel):
    circuit = build_cghz_circuit(ProtocolParams(n, m, 2.0))
    backend = _Checked(sel)
    _execute(circuit, backend)
    assert len(backend.states) == len(circuit.instructions)
    for idx, state in enumerate(backend.states):
        assert abs(state_norm(state) - 1.0) <= 1e-12, idx
        assert merge_terms(state).term_count == state.term_count, idx


@pytest.mark.parametrize("sel", [BRANCH, EXACT], ids=["branch", "exact"])
@pytest.mark.parametrize("n,m", [(2, 2), (2, 4), (4, 2), (2, 5), (3, 3),
                                 (2, 6)])
def test_run_never_sums_the_norm_of_a_selection_input(n, m, sel,
                                                      monkeypatch):
    # the working state has unit norm, so the backend tells select_vacuum
    # so instead of letting it take a Gram sum of its input
    from cghzsim import engine, optics

    inputs, normed = [], []

    def selecting(s, *args, **kwargs):
        inputs.append(s)
        return select_vacuum(s, *args, **kwargs)

    def norming(s):
        normed.append(s)
        return state_norm(s)

    monkeypatch.setattr(engine, "select_vacuum", selecting)
    monkeypatch.setattr(optics, "state_norm", norming)
    run(build_cghz_circuit(ProtocolParams(n, m, 2.0)), sel)
    assert len(inputs) == n * m - 1
    assert normed
    assert not any(x is s for x in normed for s in inputs)


class _Recorder:
    """Backend that records the kernel calls the executor makes."""

    def __init__(self):
        self.calls = []

    def prep(self, amp):
        self.calls.append(("prep", amp))

    def hadamard(self, i, alpha_ref):
        self.calls.append(("hadamard", i, alpha_ref))

    def bs(self, i, j):
        self.calls.append(("bs", i, j))

    def split(self, i):
        self.calls.append(("split", i))

    def select(self, i, name):
        self.calls.append(("select", i, name))
        return f"outcome {name}"


def test_executor_passes_mode_positions_to_the_backend():
    ins = (Prep("a", 2.0), Prep("b", -2.0), Split("a", "c"),
           SelectVacuum("b"), Hadamard("c", 1.5), Split("c", "d"),
           BeamSplitter("d", "a"), SelectVacuum("a"))
    backend = _Recorder()
    order, outcomes = _execute(Circuit(2.0, ins), backend)
    assert order == ("c", "d")
    # the executor keeps whatever each select returns, in circuit order
    assert outcomes == ("outcome b", "outcome a")
    assert backend.calls == [
        ("prep", 2.0), ("prep", -2.0), ("split", 0),
        ("select", 1, "b"), ("hadamard", 1, 1.5), ("split", 1),
        ("bs", 2, 0), ("select", 0, "a")]


@pytest.mark.parametrize("sel", [BRANCH, SelectionMode.exact()])
def test_coherent_split_is_vacuum_prep_then_beam_splitter(sel, rng):
    s = random_state(rng, 3, 2)
    split, composed = _Coherent(sel), _Coherent(sel)
    split.state = composed.state = s
    split.split(1)
    composed.prep(0)
    composed.bs(1, 2)
    assert np.array_equal(split.state.coeffs, composed.state.coeffs)
    assert np.array_equal(split.state.amps, composed.state.amps)


def test_run_validates_once(monkeypatch):
    from cghzsim import engine

    calls = []

    def counting(circuit):
        calls.append(circuit)
        return validate(circuit)

    monkeypatch.setattr(engine, "validate", counting)
    run(build_cghz_circuit(ProtocolParams(2, 2, 2.0)), BRANCH)
    assert len(calls) == 1
    with pytest.raises(CircuitValidationError):
        run(Circuit(2.0, (Hadamard("a"),)), BRANCH)
    assert len(calls) == 2


# ------------------------------------------------ deferred discarded weight

SMALL_BUILDS = [(n, m) for n in range(1, 9) for m in range(1, 9)
                if 2 <= n * m <= 8]


def _dropped_rows(s, i):
    return np.abs(s.amps[:, i]) > VACUUM_LABEL_TOL


@pytest.mark.parametrize("alpha", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("n,m", SMALL_BUILDS)
def test_discarded_weight_read_late_is_the_eager_sum_bit_for_bit(
        n, m, alpha, monkeypatch):
    # the eager sum: the squared Gram norm of the terms branch selection
    # drops, over the unit norm of the working state, taken at selection
    from cghzsim import engine

    eager = []

    def selecting(s, i, sel, **kwargs):
        drop = _dropped_rows(s, i)
        eager.append(state_norm(CsState(s.coeffs[drop], s.amps[drop])) ** 2
                     / 1.0 if drop.any() else 0.0)
        return select_vacuum(s, i, sel, **kwargs)

    monkeypatch.setattr(engine, "select_vacuum", selecting)
    circuit = build_cghz_circuit(ProtocolParams(n, m, alpha))
    records = run(circuit, BRANCH).selections
    assert [r.discarded_weight.hex() for r in records] == [
        w.hex() for w in eager]
    assert all(r.discarded_weight == 0.0
               for r in run(circuit, EXACT).selections)


def test_branch_run_sums_the_discarded_weight_only_when_read(monkeypatch):
    from cghzsim import coherent, engine, optics

    sums, merging, dropping = [], [], []
    norm_sq = coherent._norm_sq

    def summing(s):
        sums.append(s)
        return norm_sq(s)

    def normalizing(s):
        # optics normalizes only the image of a merging Hadamard
        merging.append(s)
        return normalize(s)

    def selecting(s, i, sel, **kwargs):
        dropping.append(bool(_dropped_rows(s, i).any()))
        return select_vacuum(s, i, sel, **kwargs)

    monkeypatch.setattr(coherent, "_norm_sq", summing)
    monkeypatch.setattr(optics, "normalize", normalizing)
    monkeypatch.setattr(engine, "select_vacuum", selecting)
    records = run(build_cghz_circuit(ProtocolParams(3, 3, 2.0)),
                  BRANCH).selections
    assert merging and any(dropping)
    assert len(sums) == len(records) + len(merging)
    taken = len(sums)
    weights = [r.discarded_weight for r in records]
    assert len(sums) == taken + sum(dropping)
    # read again, and compared: the cached floats, no further sum
    assert [r.discarded_weight for r in records] == weights
    assert all(r == r for r in records)
    assert len(sums) == taken + sum(dropping)


def test_every_selection_of_a_run_gets_a_unit_norm_state(monkeypatch):
    # select_vacuum does not check its unit-norm precondition, which
    # would cost a Gram sum over its input; run must meet it
    from cghzsim import engine

    def selecting(s, i, sel, **kwargs):
        assert abs(state_norm(s) ** 2 - 1.0) <= 1e-12
        return select_vacuum(s, i, sel, **kwargs)

    monkeypatch.setattr(engine, "select_vacuum", selecting)
    for n in range(1, 13):
        for m in range(1, 12 // n + 1):
            for alpha in (1.0, 2.0):
                circuit = build_cghz_circuit(ProtocolParams(n, m, alpha))
                run(circuit, BRANCH)
                run(circuit, EXACT)
    # the oracle smoke circuits of CI: complex preps, a Hadamard on a
    # complex mode and selections of fresh modes
    for text in ("alpha 1.5\nprep a +\nprep b 0.6+0.8i\nh a\nbs a b\n"
                 "prep d +\nh d\nbs b d\nselect0 b\nh a\n",
                 "alpha 1.5\nprep a +\nh a\nprep b 0.6+0.8i\nh b\n"
                 "bs b a\nprep c +\nselect0 c\nprep d +\nh d\nbs a d\n"
                 "select0 a\n"):
        run(parse(text).circuit, EXACT)
