import hashlib
import math

import numpy as np
import pytest

from cghzsim import (
    CsState,
    DomainError,
    Prep,
    ProtocolParams,
    SelectVacuum,
    SelectionMode,
    build_cghz_circuit,
    fidelity,
    ideal_cghz_state,
    normalize,
    run,
    serialize,
    state_inner,
    state_norm,
    validate,
)
from cghzsim.coherent import coherent_overlap, ghz_norm
from cghzsim.protocol import ideal_ghz_state

BRANCH = SelectionMode.branch()


# ------------------------------------------------------------ ideal states

def test_ideal_ghz_single_mode_is_cat():
    s = ideal_ghz_state(1, 1.0, +1)
    np.testing.assert_allclose(
        s.coeffs.real, [ghz_norm(1, 1.0, 1)] * 2)
    assert state_norm(s) == pytest.approx(1.0, abs=1e-12)


def test_ideal_ghz_two_mode_constant():
    s = ideal_ghz_state(2, 1.0, +1)
    assert s.coeffs[0].real == pytest.approx(
        (2 * (1 + math.exp(-4.0))) ** -0.5, abs=1e-15)
    assert state_norm(s) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_ideal_ghz_minus_three_modes():
    s = ideal_ghz_state(3, 2.0, -1)
    assert state_norm(s) ** 2 == pytest.approx(1.0, abs=1e-12)
    assert s.coeffs[1].real < 0


def test_ideal_ghz_degenerate_minus():
    with pytest.raises(DomainError):
        ideal_ghz_state(1, 1e-9, -1)
    with pytest.raises(DomainError):
        ideal_ghz_state(0, 1.0, +1)
    with pytest.raises(DomainError):
        ideal_ghz_state(2, 1.0, 0)


def test_ideal_cghz_plus_minus_branches_are_orthogonal():
    # the two tensor-power branches cancel exactly in the cross Gram sum,
    # so the computed overall constant coincides with 1/sqrt2
    for n, m, alpha in ((2, 2, 1.0), (2, 3, 0.8), (3, 2, 1.5)):
        plus = ideal_ghz_state(m, alpha, +1)
        cross = state_inner(plus, ideal_ghz_state(m, alpha, -1))
        assert abs(cross) <= 1e-14
        target = ideal_cghz_state(ProtocolParams(n, m, alpha))
        assert state_norm(target) == pytest.approx(1.0, abs=1e-10)


def test_ideal_cghz_2x2_term_layout():
    s = ideal_cghz_state(ProtocolParams(2, 2, 2.0))
    assert s.mode_count == 4
    assert s.term_count == 8  # both branches kept unmerged
    assert state_norm(s) == pytest.approx(1.0, abs=1e-12)


def test_ideal_cghz_1x1_collapses_toward_coherent_state():
    # N0 and N0' differ at finite alpha, so the sum is only asymptotically
    # |alpha>; the residual follows exp(-4 alpha^2)/4
    for alpha in (1.0, 2.0):
        s = ideal_cghz_state(ProtocolParams(1, 1, alpha))
        f = fidelity(CsState.single([alpha]), s)
        assert 1 - f == pytest.approx(math.exp(-4 * alpha ** 2) / 4,
                                      rel=1e-2)
    s = ideal_cghz_state(ProtocolParams(1, 1, 6.0))
    assert fidelity(CsState.single([6.0]), s) == pytest.approx(1.0,
                                                               abs=1e-12)


def test_ideal_cghz_2x3_matches_manual_branch_sum():
    alpha = 2.0
    target = ideal_cghz_state(ProtocolParams(2, 3, alpha))
    coeffs, rows = [], []
    for sign in (1, -1):
        block = ideal_ghz_state(3, alpha, sign)
        for i in range(2):
            for j in range(2):
                c = block.coeffs[i] * block.coeffs[j]
                row = list(block.amps[i]) + list(block.amps[j])
                coeffs.append(c / math.sqrt(2.0))
                rows.append(row)
    manual = CsState(coeffs, rows)
    assert abs(state_inner(manual, target)) == pytest.approx(1.0, abs=1e-10)


# ------------------------------------------------------------------- chain
# An (n, 1) build is stage one alone: the n-mode GHZ-type chain.

CHAIN_ORDER = {
    2: ("s2", "c1"),
    3: ("s2", "s3", "c2"),
    4: ("s2", "s3", "s4", "c3"),
    5: ("s2", "s3", "s4", "s5", "c4"),
}


def test_chain_two_modes():
    c = build_cghz_circuit(ProtocolParams(2, 1, 2.0))
    assert sum(isinstance(i, SelectVacuum) for i in c.instructions) == 1
    r = run(c, BRANCH)
    assert r.mode_order == CHAIN_ORDER[2]
    assert fidelity(r.final_state, ideal_ghz_state(2, 2.0, +1)) >= 1 - 1e-6


@pytest.mark.parametrize("n", [3, 4, 5])
def test_chain_grows_to_n_modes(n):
    c = build_cghz_circuit(ProtocolParams(n, 1, 2.0))
    assert validate(c) == []
    r = run(c, BRANCH)
    assert r.final_state.mode_count == n
    assert fidelity(r.final_state, ideal_ghz_state(n, 2.0, +1)) >= 1 - 1e-6
    assert r.mode_order == CHAIN_ORDER[n]


# --------------------------------------------------------------- expansion

def test_expand_logical_m_one_is_empty():
    # m = 1: no stage two, so no block mode is ever named
    for n in range(1, 6):
        c = build_cghz_circuit(ProtocolParams(n, 1, 2.0))
        names = {name for ins in c.instructions
                 for name in vars(ins).values() if isinstance(name, str)}
        assert not any(name[0] in "qx" for name in names)
        assert sum(isinstance(i, SelectVacuum)
                   for i in c.instructions) == n - 1


def test_expand_logical_gate_budget_for_2x2():
    c = build_cghz_circuit(ProtocolParams(2, 2, 2.0))
    counts = {}
    for ins in c.instructions:
        counts[type(ins).__name__] = counts.get(type(ins).__name__, 0) + 1
    assert counts["Hadamard"] == 6
    assert counts["BeamSplitter"] + counts["Split"] == 6
    assert counts["SelectVacuum"] == 3
    assert counts["Prep"] == 4


def test_expand_single_leader_builds_ghz_block():
    # a (1, m) build is stage two alone, on the single mode s1
    alpha = 2.0
    r = run(build_cghz_circuit(ProtocolParams(1, 3, alpha)), BRANCH)
    assert r.mode_order == ("q1_1", "q1_2", "q1_3")
    assert fidelity(r.final_state, ideal_ghz_state(3, alpha, +1)) >= 1 - 1e-9


# ------------------------------------------------------------- full builds

def test_build_1x1_is_single_prep():
    c = build_cghz_circuit(ProtocolParams(1, 1, 2.0))
    assert len(c.instructions) == 1
    assert isinstance(c.instructions[0], Prep)
    r = run(c, BRANCH)
    assert fidelity(r.final_state, CsState.single([2.0])) == pytest.approx(
        1.0, abs=1e-12)


def test_every_build_validates_and_counts_selections():
    for n in range(1, 13):
        for m in range(1, 13):
            if n * m > 12:
                continue
            for alpha in (1.0, 2.0, 3.0):
                c = build_cghz_circuit(ProtocolParams(n, m, alpha))
                assert validate(c) == []
                sels = sum(isinstance(i, SelectVacuum)
                           for i in c.instructions)
                assert sels == n * m - 1


@pytest.mark.parametrize("n,m", [(2, 2), (2, 3)])
def test_build_converges_at_alpha_three(n, m):
    params = ProtocolParams(n, m, 3.0)
    r = run(build_cghz_circuit(params), BRANCH)
    assert fidelity(r.final_state, ideal_cghz_state(params)) >= 1 - 1e-8


@pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 3)])
def test_fidelity_monotone_in_alpha(n, m):
    alphas = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
    fids = []
    for alpha in alphas:
        params = ProtocolParams(n, m, alpha)
        r = run(build_cghz_circuit(params), BRANCH)
        fids.append(fidelity(r.final_state, ideal_cghz_state(params)))
    assert all(b >= a - 1e-12 for a, b in zip(fids, fids[1:]))


def test_single_block_restriction_is_ghz_like():
    # project the final state onto the + logical basis of block 2; the
    # residual single-block state must be the m-mode GHZ-type state
    n, m, alpha = 2, 2, 3.0
    params = ProtocolParams(n, m, alpha)
    final = run(build_cghz_circuit(params), BRANCH).final_state
    probe = ideal_ghz_state(m, alpha, +1)
    residual_coeffs = []
    residual_amps = []
    for c, row in zip(final.coeffs, final.amps):
        # partial inner product of the probe against block-2 modes
        w_total = 0
        for pc, prow in zip(probe.coeffs, probe.amps):
            w = pc.conjugate()
            for k in range(m):
                w *= coherent_overlap(prow[k], row[m + k])
            w_total += w
        residual_coeffs.append(c * w_total)
        residual_amps.append(row[:m])
    residual = normalize(CsState(np.array(residual_coeffs),
                                 np.array(residual_amps)))
    overlap = abs(state_inner(ideal_ghz_state(m, alpha, +1), residual))
    assert overlap >= 1 - 1e-6


def test_m_one_chain_equals_concatenated_target_only_for_small_n():
    # with one physical qubit per block the two-stage build is the plain
    # chain; it matches the concatenated target exactly for n = 2 but not
    # beyond (the two states live in different logical bases)
    p2 = ProtocolParams(2, 1, 3.0)
    f2 = fidelity(run(build_cghz_circuit(p2), BRANCH).final_state,
                  ideal_cghz_state(p2))
    assert f2 >= 1 - 1e-10
    p3 = ProtocolParams(3, 1, 3.0)
    f3 = fidelity(run(build_cghz_circuit(p3), BRANCH).final_state,
                  ideal_cghz_state(p3))
    assert f3 == pytest.approx(0.125, abs=1e-6)


# --------------------------------------------------- pinned circuit text
# The builder's output is part of its contract: serialized circuits are
# stored and re-run, so a rewrite of the builder must emit the same text.

PINNED_2X3 = """\
alpha 2.0
prep s1 +
prep s2 +
h s1
h s2
bs s1 s2
select0 s1
split s2 c1
h s2
prep q1_1 +
h q1_1
bs s2 q1_1
select0 s2
split q1_1 x1
prep q1_2 +
h q1_2
bs x1 q1_2
select0 x1
split q1_2 q1_3
h c1
prep q2_1 +
h q2_1
bs c1 q2_1
select0 c1
split q2_1 x2
prep q2_2 +
h q2_2
bs x2 q2_2
select0 x2
split q2_2 q2_3
"""

PINNED_3X2 = """\
alpha 2.0
prep s1 +
prep s2 +
h s1
h s2
bs s1 s2
select0 s1
split s2 c1
prep s3 +
h s3
bs c1 s3
select0 c1
split s3 c2
h s2
prep q1_1 +
h q1_1
bs s2 q1_1
select0 s2
split q1_1 q1_2
h s3
prep q2_1 +
h q2_1
bs s3 q2_1
select0 s3
split q2_1 q2_2
h c2
prep q3_1 +
h q3_1
bs c2 q3_1
select0 c2
split q3_1 q3_2
"""


@pytest.mark.parametrize("n,m,text", [(2, 3, PINNED_2X3),
                                      (3, 2, PINNED_3X2)])
def test_build_text_is_pinned(n, m, text):
    assert serialize(build_cghz_circuit(ProtocolParams(n, m, 2.0))) == text


def test_every_build_text_is_pinned_by_digest():
    h = hashlib.sha256()
    for n in range(1, 17):
        for m in range(1, 16 // n + 1):
            h.update(serialize(build_cghz_circuit(
                ProtocolParams(n, m, 2.0))).encode())
    assert h.hexdigest() == (
        "d63d757fe5730f66bfa6b551ff892d9b24c087e0455de6114161aaf7dece9924")


def test_params_validation_and_cap():
    with pytest.raises(DomainError):
        ProtocolParams(0, 2, 1.0)
    with pytest.raises(DomainError):
        ProtocolParams(2, 2, -1.0)
    with pytest.raises(DomainError):
        ProtocolParams(5, 4, 1.0)          # 20 > default cap 16
    ProtocolParams(5, 4, 1.0, cap=20)      # explicit cap admits it
