"""Metamorphic tests of the executor's bookkeeping on small protocol builds.

A circuit's mode names only label positions, and a Split is a vacuum prep
followed by a beam splitter; rewriting a circuit either way must leave
every number of ``run`` and ``run_fock`` exactly as it was.  Adjacent
instructions on disjoint modes commute when one of them is a Prep, a
BeamSplitter or a Split (all norm preserving) or both are Hadamards;
swapping them may reorder terms, so it must leave every number of
``run`` unchanged up to round-off.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cghzsim import (
    BeamSplitter,
    Circuit,
    Hadamard,
    Prep,
    ProtocolParams,
    SelectionMode,
    Split,
    build_cghz_circuit,
    fidelity,
    run,
    run_fock,
    validate,
)

# builds of at most four live modes for both pipelines, and two 6-mode
# ones for run only: their tensors at NMAX exceed the oracle's byte budget
FOCK_BUILDS = [(1, 2), (2, 1), (1, 3), (3, 1), (2, 2), (4, 1), (1, 4)]
BUILDS = FOCK_BUILDS + [(2, 3), (3, 2)]
ALPHAS = [1.0, 1.5, 2.0]
# the oracle's cutoff holds these amplitudes to 1e-6 of the norm
FOCK_ALPHAS = [0.8, 1.0]
NMAX = 20
MODES = [SelectionMode.branch(), SelectionMode.exact()]
MODE_FIELDS = ("mode", "mode_a", "mode_b", "new_mode")


def _rename(ins, names):
    fields = [f for f in MODE_FIELDS if hasattr(ins, f)]
    return replace(ins, **{f: names[getattr(ins, f)] for f in fields})


def _unsplit(ins):
    if isinstance(ins, Split):
        return (Prep(ins.new_mode, 0), BeamSplitter(ins.mode, ins.new_mode))
    return (ins,)


def _bound_names(circuit):
    return [ins.mode if isinstance(ins, Prep) else ins.new_mode
            for ins in circuit.instructions
            if isinstance(ins, (Prep, Split))]


def _assert_same_run(r1, r2, names=None):
    assert np.array_equal(r1.final_state.coeffs, r2.final_state.coeffs)
    assert np.array_equal(r1.final_state.amps, r2.final_state.amps)
    assert r1.p_success == r2.p_success
    assert r1.total_false_vacuum == r2.total_false_vacuum
    assert r1.max_term_count == r2.max_term_count
    rename = (lambda name: name) if names is None else names.get
    assert tuple(map(rename, r1.mode_order)) == r2.mode_order
    for a, b in zip(r1.selections, r2.selections, strict=True):
        assert (a.mode, a.kept_prob, a.discarded_weight,
                a.false_vacuum_prob) == (b.mode, b.kept_prob,
                                         b.discarded_weight,
                                         b.false_vacuum_prob)
        assert rename(a.mode_name) == b.mode_name


def _assert_same_fock(f1, f2, names=None):
    assert np.array_equal(f1.final.amps, f2.final.amps)
    assert f1.probabilities == f2.probabilities
    assert f1.p_success == f2.p_success
    rename = (lambda name: name) if names is None else names.get
    assert tuple(map(rename, f1.mode_order)) == f2.mode_order


@st.composite
def renamed_builds(draw, builds):
    n, m = draw(st.sampled_from(builds))
    alphas = FOCK_ALPHAS if builds is FOCK_BUILDS else ALPHAS
    circuit = build_cghz_circuit(
        ProtocolParams(n, m, draw(st.sampled_from(alphas))))
    old = _bound_names(circuit)
    new = draw(st.lists(
        st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,5}", fullmatch=True),
        min_size=len(old), max_size=len(old), unique=True))
    names = dict(zip(old, new))
    renamed = Circuit(circuit.alpha, tuple(_rename(ins, names)
                                           for ins in circuit.instructions))
    return circuit, renamed, names


@given(renamed_builds(BUILDS), st.sampled_from(MODES))
@settings(max_examples=30, deadline=None)
def test_renaming_modes_leaves_run_unchanged(case, sel):
    circuit, renamed, names = case
    _assert_same_run(run(circuit, sel), run(renamed, sel), names)


@given(renamed_builds(FOCK_BUILDS))
@settings(max_examples=15, deadline=None)
def test_renaming_modes_leaves_run_fock_unchanged(case):
    circuit, renamed, names = case
    _assert_same_fock(run_fock(circuit, n_max=NMAX),
                      run_fock(renamed, n_max=NMAX), names)


def _unsplit_build(n, m, alpha):
    circuit = build_cghz_circuit(ProtocolParams(n, m, alpha))
    assert any(isinstance(ins, Split) for ins in circuit.instructions)
    rewritten = Circuit(circuit.alpha, tuple(
        out for ins in circuit.instructions for out in _unsplit(ins)))
    return circuit, rewritten


@given(st.sampled_from(BUILDS), st.sampled_from(ALPHAS),
       st.sampled_from(MODES))
@settings(max_examples=30, deadline=None)
def test_split_equals_vacuum_prep_then_beam_splitter_in_run(nm, alpha, sel):
    circuit, rewritten = _unsplit_build(*nm, alpha)
    _assert_same_run(run(circuit, sel), run(rewritten, sel))


@given(st.sampled_from(FOCK_BUILDS), st.sampled_from(FOCK_ALPHAS))
@settings(max_examples=15, deadline=None)
def test_split_equals_vacuum_prep_then_beam_splitter_in_run_fock(nm, alpha):
    circuit, rewritten = _unsplit_build(*nm, alpha)
    _assert_same_fock(run_fock(circuit, n_max=NMAX),
                      run_fock(rewritten, n_max=NMAX))


def _modes(ins):
    return {getattr(ins, f) for f in MODE_FIELDS if hasattr(ins, f)}


def _commute(a, b):
    if _modes(a) & _modes(b):
        return False
    unitary = (Prep, BeamSplitter, Split)
    return (isinstance(a, unitary) or isinstance(b, unitary)
            or isinstance(a, Hadamard) and isinstance(b, Hadamard))


@st.composite
def swapped_builds(draw):
    n, m = draw(st.sampled_from(BUILDS))
    circuit = build_cghz_circuit(
        ProtocolParams(n, m, draw(st.sampled_from(ALPHAS))))
    ins = circuit.instructions
    i = draw(st.sampled_from([i for i in range(len(ins) - 1)
                              if _commute(ins[i], ins[i + 1])]))
    swapped = ins[:i] + (ins[i + 1], ins[i]) + ins[i + 2:]
    return circuit, Circuit(circuit.alpha, swapped)



@given(swapped_builds(), st.sampled_from(MODES))
@settings(max_examples=40, deadline=None)
def test_swapping_commuting_neighbours_leaves_run_unchanged(case, sel):
    circuit, swapped = case
    assert validate(swapped) == []
    r1, r2 = run(circuit, sel), run(swapped, sel)
    assert r1.mode_order == r2.mode_order
    assert abs(r1.p_success - r2.p_success) <= 1e-12
    assert abs(r1.total_false_vacuum - r2.total_false_vacuum) <= 1e-12
    for a, b in zip(r1.selections, r2.selections, strict=True):
        assert a.mode_name == b.mode_name
        assert abs(a.kept_prob - b.kept_prob) <= 1e-12
    assert 1 - fidelity(r2.final_state, r1.final_state) <= 1e-12
