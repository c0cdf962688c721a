import math

import numpy as np
import pytest

from cghzsim import (
    CsState,
    DomainError,
    ModeShapeError,
    ProtocolParams,
    SelectionMode,
    build_cghz_circuit,
    csstate_to_fock,
    evaluate_point,
    fidelity,
    fock_fidelity,
    ideal_cghz_state,
    normalize,
    run,
    sweep,
    theoretical_p,
)
from cghzsim import analysis, protocol
from cghzsim.coherent import cat_norm
from conftest import coherent_product, false_vacuum_weights

BRANCH = SelectionMode.branch()
EXACT = SelectionMode.exact()


# ---------------------------------------------------------------- fidelity

def test_fidelity_self_is_one():
    s = normalize(CsState([1, 1j], [[1.0, 2.0], [-1.0, 0.5]]))
    assert fidelity(s, s) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_symmetry(rng):
    from conftest import random_state

    for _ in range(50):
        a = random_state(rng, max_terms=8, modes=2, max_amp=2.0,
                         normalized=True)
        b = random_state(rng, max_terms=8, modes=2, max_amp=2.0,
                         normalized=True)
        assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-12)


def test_fidelity_vacuum_against_cat_closed_form():
    # |<0|cat>|^2 = 2 N0^2 exp(-a^2) for the even cat at amplitude a
    for alpha in (0.5, 1.0, 2.0):
        cat = normalize(CsState([1, 1], [[alpha], [-alpha]]))
        n0 = cat_norm(alpha, 1)
        expect = 2 * n0 ** 2 * math.exp(-alpha ** 2)
        assert fidelity(coherent_product([0.0]), cat) == pytest.approx(
            expect, abs=1e-12)


def test_fidelity_regression_full_build_alpha_one():
    # frozen after the first oracle-validated run; guards the whole
    # analytic pipeline end to end
    params = ProtocolParams(2, 2, 1.0)
    r = run(build_cghz_circuit(params), BRANCH)
    f = fidelity(r.final_state, ideal_cghz_state(params))
    assert f == pytest.approx(0.9864250780221855, abs=1e-11)


def test_fidelity_mode_mismatch():
    with pytest.raises(ModeShapeError):
        fidelity(coherent_product([1.0]), coherent_product([1.0, 1.0]))


def test_fidelity_of_an_unnormalized_state_above_one_is_refused():
    with pytest.raises(DomainError, match="exceeds 1"):
        fidelity(CsState([2.0], [[0.0]]), CsState([1.0], [[0.0]]))


# ------------------------------------------------------------ theoretical_p

def test_theoretical_p_values():
    assert theoretical_p(2, 2) == 0.125
    assert theoretical_p(2, 3) == 0.03125
    assert theoretical_p(1, 1) == 1.0


def test_theoretical_p_product_identity():
    for n in range(1, 17):
        for m in range(1, 17):
            if n * m > 16:
                continue
            assert theoretical_p(n, m) * 2.0 ** (n * m - 1) == 1.0


def test_theoretical_p_domain():
    with pytest.raises(DomainError):
        theoretical_p(0, 1)
    # 2.5 x 2 used to give 0.0625, and True x True 1.0
    for n, m in ((2.5, 2), (2, 2.0), (True, True), ("2", 2)):
        with pytest.raises(DomainError, match="^n and m must be integers"):
            theoretical_p(n, m)


# ------------------------------------------------------------------- sweep

def test_sweep_exact_point_converges():
    points, diags = sweep([3.0], [(2, 2)], EXACT)
    assert diags == []
    assert len(points) == 1
    assert abs(points[0].p_success_sim / 0.125 - 1) < 0.01
    assert points[0].p_success_theory == 0.125
    assert points[0].selection_mode == "exact"


def test_sweep_fidelity_improves_with_alpha():
    points, _ = sweep([0.5, 3.0], [(2, 2)], BRANCH)
    assert points[0].fidelity < points[1].fidelity


def test_sweep_degenerate_point():
    points, _ = sweep([0.7, 1.3], [(1, 1)], BRANCH)
    for p in points:
        assert p.p_success_sim == 1.0
        assert p.false_vacuum_total == 0.0
        # target and build differ only through the odd/even cat constants
        assert p.fidelity >= 1 - math.exp(-4 * p.alpha ** 2)


def test_sweep_emits_grid_in_order_and_collects_diagnostics():
    points, diags = sweep([1.0, 2.0], [(2, 2), (5, 4)], BRANCH)
    assert [(p.n_logical, p.m_physical, p.alpha) for p in points] == [
        (2, 2, 1.0), (2, 2, 2.0)]
    assert len(diags) == 2  # (5, 4) exceeds the default cap at both alphas
    assert all("cap" in d.message for d in diags)


def test_sweep_turns_non_integer_shapes_into_diagnostics():
    pairs = [(2.5, 2), ("2", 2), (2, True), (2, 2)]
    points, diags = sweep([2.0, True], pairs, BRANCH)
    assert [(p.n_logical, p.m_physical, p.alpha) for p in points] == [
        (2, 2, 2.0)]
    assert len(diags) == 7
    assert [d.message for d in diags[:6:2]] == [
        "n_logical must be an integer, got 2.5",
        "n_logical must be an integer, got '2'",
        "m_physical must be an integer, got True"]
    assert diags[-1].message == (
        "alpha must be a positive finite real, got True")


def test_sweep_turns_a_non_integer_cap_into_diagnostics():
    for cap in ("16", 2.5, True):
        points, diags = sweep([1.0, 2.0], [(2, 2)], BRANCH, cap=cap)
        assert points == []
        assert [d.message for d in diags] == [
            f"cap must be an integer, got {cap!r}"] * 2


def test_sweep_turns_a_selection_mode_given_by_name_into_diagnostics():
    with pytest.raises(DomainError):
        evaluate_point(2, 2, 2.0, "branch")
    points, diags = sweep([1.0, 2.0], [(2, 2)], "branch")
    assert points == []
    assert [d.message for d in diags] == [
        "selection mode must be a SelectionMode, got 'branch'"] * 2


def test_evaluate_point_respects_explicit_cap():
    point = evaluate_point(5, 2, 1.0, BRANCH, cap=10)
    assert point.term_count > 0
    with pytest.raises(DomainError):
        evaluate_point(5, 2, 1.0, BRANCH, cap=9)


@pytest.mark.parametrize("sel", [BRANCH, EXACT], ids=["branch", "exact"])
@pytest.mark.parametrize(
    "n, m", [(n, m) for n in range(1, 13) for m in range(1, 13)
             if n * m <= 12])
def test_evaluate_point_scores_as_the_dense_target_overlap(n, m, sel):
    # the product form against the Gram cross sum with the expanded
    # 2^(n+1)-term target
    for alpha in (1.0, 2.0, 3.0):
        params = ProtocolParams(n, m, alpha)
        dense = fidelity(run(build_cghz_circuit(params), sel).final_state,
                         ideal_cghz_state(params))
        got = evaluate_point(n, m, alpha, sel).fidelity
        assert abs(got - dense) <= 1e-12, alpha


@pytest.mark.parametrize("n, want", [(4, 0.4999608435),
                                     (6, 0.4999228235)])
def test_evaluate_point_agrees_with_the_number_basis_at_small_alpha(n, want):
    # at alpha 0.1 a Gram sum over the target's alternating terms
    # cancels terms up to c-^(2n) in size; the product form has none
    params = ProtocolParams(n, 1, 0.1)
    state = run(build_cghz_circuit(params), EXACT).final_state
    oracle = fock_fidelity(csstate_to_fock(state, 12),
                           csstate_to_fock(ideal_cghz_state(params), 12))
    got = evaluate_point(n, 1, 0.1, EXACT).fidelity
    assert abs(got - oracle) <= 1e-10
    assert got == pytest.approx(want, abs=1e-10)


def test_evaluate_point_never_expands_the_target(monkeypatch):
    def expand(params):
        raise AssertionError("ideal_cghz_state called")

    monkeypatch.setattr(protocol, "ideal_cghz_state", expand)
    monkeypatch.setattr(analysis, "ideal_cghz_state", expand, raising=False)
    for sel in (BRANCH, EXACT):
        assert 0.99 < evaluate_point(3, 2, 3.0, sel).fidelity <= 1.0


def test_sweep_point_dict_schema():
    point = evaluate_point(2, 2, 1.0, BRANCH)
    assert list(point.as_dict().keys()) == [
        "alpha", "n", "m", "mode", "fidelity", "p_success_sim",
        "p_success_theory", "false_vacuum_total", "term_count"]


# -------------------------------------------------------- false vacuum

def test_error_report_empty_run():
    r = run(build_cghz_circuit(ProtocolParams(1, 1, 1.0)), BRANCH)
    assert r.selections == ()
    assert r.total_false_vacuum == 0.0


def test_false_vacuum_weights_match_a_step_by_step_recomputation():
    # independently re-run the build step by step and accumulate the
    # discarded branches' silent-heralding weights
    circuit = build_cghz_circuit(ProtocolParams(2, 2, 2.0))
    result = run(circuit, BRANCH)
    manual = false_vacuum_weights(circuit)

    np.testing.assert_allclose(
        [rec.false_vacuum_prob for rec in result.selections], manual,
        atol=1e-12)
    assert result.total_false_vacuum == pytest.approx(sum(manual),
                                                      abs=1e-12)


def test_error_totals_decrease_with_alpha():
    totals = []
    for alpha in (1.0, 2.0):
        r = run(build_cghz_circuit(ProtocolParams(2, 2, alpha)), BRANCH)
        totals.append(r.total_false_vacuum)
    assert totals[1] < totals[0]
