"""Metamorphic tests of the executor's bookkeeping on small protocol builds.

A circuit's mode names only label positions, and a Split is a vacuum prep
followed by a beam splitter; rewriting a circuit either way must leave
every number of ``run`` and ``run_fock`` exactly as it was.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cghzsim import (
    BeamSplitter,
    Circuit,
    Prep,
    ProtocolParams,
    SelectionMode,
    Split,
    build_cghz_circuit,
    run,
    run_fock,
)

# builds whose live modes fit the oracle, and two wider ones for run
FOCK_BUILDS = [(1, 2), (2, 1), (1, 3), (3, 1), (2, 2), (4, 1), (1, 4)]
BUILDS = FOCK_BUILDS + [(2, 3), (3, 2)]
ALPHAS = [1.0, 1.5, 2.0]
# the oracle's cutoff holds these amplitudes to 1e-6 of the norm
FOCK_ALPHAS = [0.8, 1.0]
NMAX = 20
MODES = [SelectionMode.branch(), SelectionMode.exact()]


def _rename(ins, names):
    fields = [f for f in ("mode", "mode_a", "mode_b", "new_mode")
              if hasattr(ins, f)]
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
