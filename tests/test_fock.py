import math
from itertools import count

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cghzsim import (
    BeamSplitter,
    Circuit,
    CircuitValidationError,
    CsState,
    DomainError,
    FockTruncationError,
    Hadamard,
    ModeShapeError,
    Prep,
    ProtocolParams,
    ResourceLimitError,
    RunError,
    SelectionMode,
    SelectVacuum,
    Split,
    ZeroProbabilityError,
    ZeroStateError,
    build_cghz_circuit,
    csstate_to_fock,
    fidelity,
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
    _apply_two_mode,
    _bs_blocks,
    _hadamard,
    _hadamard_factors,
    _herald_bs_fresh,
    _memory_order,
    _prep,
    _split,
    _vacuum_project,
    coherent_fock,
)
from cghzsim.coherent import cat_norm
from cghzsim.optics import apply_bs, apply_hadamard, select_vacuum

from conftest import (
    coherent_product,
    fock_expansion_reference,
    hadamard_matrix,
    random_complex,
    random_state,
)

SQRT2 = math.sqrt(2.0)


def tensor_from_vectors(*vecs):
    acc = vecs[0]
    for v in vecs[1:]:
        acc = np.multiply.outer(acc, v)
    return acc


def random_tensor(rng, modes, n_max):
    """Random unit-norm C-ordered tensor."""
    amps = random_complex(rng, (n_max + 1) ** modes, 1.0)
    return (amps / np.linalg.norm(amps)).reshape((n_max + 1,) * modes)


def kernel_layouts(amps, n_max):
    """``amps`` in C order and in the permuted layouts the backend's
    kernels hand each other: a beam splitter's output (its pair leading
    the memory), renormalized, and the reversed axis order that preps
    grow.  Each is the caller's to write."""
    yield amps
    if amps.ndim > 1:
        mixed = _apply_two_mode(amps.copy(), 0, amps.ndim - 1, n_max)
        yield mixed / np.linalg.norm(mixed)
        yield np.asfortranarray(amps)


def run_gates(alpha, *ins, n_max=40):
    """run_fock on a small hand-written circuit."""
    return run_fock(Circuit(alpha, ins), n_max=n_max)


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


# ------------------------------------------------------------ beam splitter
# Gates on coherent inputs run as circuits; number states that no circuit
# prepares go straight to the backend's kernels.

def test_bs_fock_vacuum_fixed_point():
    d = 21
    amps = np.zeros((d, d), dtype=complex)
    amps[0, 0] = 1.0
    out = FockTensor(20, _apply_two_mode(amps, 0, 1, 20))
    assert out.amps[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert out.squared_norm() == pytest.approx(1.0, abs=1e-12)


def test_bs_fock_matches_coherent_label_rule():
    n_max = 40
    res = run_gates(1.0, Prep("a", 1.0), Prep("b", 1.0),
                    BeamSplitter("a", "b"), n_max=n_max)
    expect = tensor_from_vectors(coherent_fock(SQRT2, n_max),
                                 coherent_fock(0.0, n_max))
    assert res.mode_order == ("a", "b")
    assert np.max(np.abs(res.final.amps - expect)) <= 1e-8


def test_bs_fock_single_photon_balanced_split():
    d = 6
    amps = np.zeros((d, d), dtype=complex)
    amps[1, 0] = 1.0
    out = _apply_two_mode(amps, 0, 1, 5)
    assert out[1, 0] == pytest.approx(1 / SQRT2, abs=1e-12)
    assert out[0, 1] == pytest.approx(1 / SQRT2, abs=1e-12)


def test_bs_fock_norm_loss_negligible_below_cutoff():
    n_max = 40
    t = FockTensor(n_max, tensor_from_vectors(coherent_fock(1.5, n_max),
                                              coherent_fock(-1.5, n_max)))
    out = FockTensor(n_max, _apply_two_mode(t.amps.copy(order="K"), 0, 1,
                                            n_max))
    assert abs(out.squared_norm() - t.squared_norm()) <= 1e-8


def bs_matrix_reference(n_max):
    """The truncated two-mode 50:50 unitary as a dense (d^2, d^2) matrix,
    element by element.  The gate maps a^+ -> (a^+ + b^+)/sqrt2 and
    b^+ -> (a^+ - b^+)/sqrt2, so |k, n-k> goes to
    (a^+ + b^+)^k (a^+ - b^+)^(n-k) |0,0> / sqrt(2^n k! (n-k)!); the
    binomial expansion gives the amplitude on each |p, n-p>.  Row and
    column k*d + l hold k and l photons."""
    d = n_max + 1
    mat = np.zeros((d * d, d * d))
    for n in range(2 * n_max + 1):
        for k in range(max(0, n - n_max), min(n, n_max) + 1):
            for p in range(max(0, n - n_max), min(n, n_max) + 1):
                coef = sum(math.comb(k, i) * math.comb(n - k, p - i)
                           * (-1) ** (n - k - (p - i))
                           for i in range(max(0, p - (n - k)), min(k, p) + 1))
                mat[p * d + (n - p), k * d + (n - k)] = coef * math.sqrt(
                    math.factorial(p) * math.factorial(n - p)
                    / (2 ** n * math.factorial(k) * math.factorial(n - k)))
    return mat


@pytest.mark.parametrize("modes", [2, 3, 4])
def test_bs_kernel_matches_dense_reference_on_every_axis_pair(rng, modes):
    n_max = 5
    d = n_max + 1
    mat = bs_matrix_reference(n_max).reshape(d, d, d, d)
    amps = random_complex(rng, d ** modes, 1.0).reshape((d,) * modes)
    for x in kernel_layouts(amps, n_max):
        for i in range(modes):
            for j in range(modes):
                if i == j:
                    continue
                # contract the input pair (i, j), then put the output pair
                # there
                expect = np.moveaxis(
                    np.tensordot(mat, x, axes=([2, 3], [i, j])),
                    (0, 1), (i, j))
                own = x.copy(order="K")
                got = _apply_two_mode(own, i, j, n_max)
                assert np.max(np.abs(got - expect)) <= 1e-13, (i, j)
                # in place exactly when the pair leads the memory
                leads = set(_memory_order(own)[:2]) == {i, j}
                assert np.shares_memory(got, own) == leads, (i, j)


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_fresh_mode_beam_splitter_matches_prep_then_kernel(rng, kind,
                                                          monkeypatch):
    # a split writes its output once, with no product tensor; the result
    # is that of multiplying a vacuum mode in and beam-splitting onto it.
    # A selection on the first mode of a beam splitter onto a fresh mode
    # computes only the slice it keeps, with the input norm from a Gram
    # matrix; the result is that of heralding the same product.  The odd
    # cat's support starts at 1 and, at an even cutoff, ends at n_max - 1;
    # the vacuum's is the one entry 0.  Random tensors leak far past the
    # cutoff, which exercises the truncated blocks' share of the norm, so
    # the leak check is switched off here and tested on circuits below
    monkeypatch.setattr(fock, "_check_leak", lambda sq_norm, n_max: None)
    n_max = 6
    amps = random_tensor(rng, 3, n_max)
    if kind == "real":
        amps = amps.real / np.linalg.norm(amps.real)
    vacuum = coherent_fock(0.0, n_max).real
    vecs = {"coherent": coherent_fock(0.5, n_max).real,
            "complex coherent": coherent_fock(0.3 - 0.4j, n_max),
            "vacuum": vacuum,
            "odd cat": _hadamard_factors(0.5, n_max)[0][:, 1]}
    for x in kernel_layouts(amps, n_max):
        for i in range(3):
            before = x.copy(order="K")
            got = _split(x, i, n_max)
            expect = _apply_two_mode(_prep(x, vacuum), i, 3, n_max)
            assert got.dtype == expect.dtype == x.dtype
            assert np.max(np.abs(got - expect)) <= 1e-13, i
            # the new mode, then mode i, then the others as they were
            rest = tuple(ax for ax in _memory_order(x) if ax != i)
            assert _memory_order(got) == (3, i) + rest, i
            for name, vec in vecs.items():
                kept, prob = _herald_bs_fresh(x, i, vec, n_max)
                expect, want = _vacuum_project(
                    _apply_two_mode(_prep(x, vec), i, 3, n_max), i)
                assert kept.dtype == expect.dtype
                assert np.max(np.abs(kept - expect)) <= 1e-13, (name, i)
                assert prob == pytest.approx(want, rel=1e-12), (name, i)
                assert _memory_order(kept) == _memory_order(expect), (name, i)
            assert x.tobytes(order="A") == before.tobytes(order="A")


def test_bs_blocks_are_real_orthogonal():
    n_max = 12
    for n, (lo, hi, u) in enumerate(_bs_blocks(n_max)):
        assert u.dtype == np.float64
        assert u.shape == (hi - lo + 1, hi - lo + 1)
        assert not u.flags.writeable
        if n <= n_max:
            assert (lo, hi) == (0, n)
            assert np.max(np.abs(u @ u.T - np.eye(n + 1))) <= 1e-12
        else:
            # a corner of an orthogonal block can only shrink vectors
            assert np.linalg.norm(u, 2) <= 1.0 + 1e-12


def test_fock_tensor_holds_zero_modes():
    t = FockTensor(5, np.array(0.6 - 0.8j))
    assert t.mode_count == 0 and t.amps.shape == ()
    assert t.amps.dtype == np.complex128
    assert t.squared_norm() == pytest.approx(1.0, abs=1e-15)
    assert fock_fidelity(t, FockTensor(5, np.array(1.0))) == pytest.approx(
        1.0, abs=1e-15)
    with pytest.raises(DomainError):
        FockTensor(5, np.array(1.1))


def test_fock_tensor_rejects_norm_above_one():
    FockTensor(5, np.zeros((6, 6), dtype=complex))
    with pytest.raises(DomainError):
        FockTensor(5, np.full((6, 6), 1.0, dtype=complex))


def test_fock_tensor_rejects_a_shape_off_its_cutoff():
    with pytest.raises(ModeShapeError, match="does not match n_max=3"):
        FockTensor(3, np.zeros(5))


def test_csstate_to_fock_refuses_an_unnormalized_state():
    with pytest.raises(DomainError, match="convert normalized states only"):
        csstate_to_fock(CsState([2.0], [[0.0]]), 5)


def test_fock_tensor_copies_the_callers_array():
    a = np.zeros((3, 3), dtype=complex)
    t = FockTensor(2, a)
    assert t.amps.flags.f_contiguous and not t.amps.flags.writeable
    a[0, 0] = 0.5
    assert a.flags.writeable
    assert not np.any(t.amps)


def test_fock_tensor_and_run_result_compare_by_identity():
    # an ndarray field has no boolean ==, so both classes compare and
    # hash by identity, like CsState
    a = np.zeros((3, 3), dtype=complex)
    t, u = FockTensor(2, a), FockTensor(2, a)
    assert (t == t) is True and (t == u) is False
    assert len({t, u, t}) == 2
    circuit = Circuit(1.0, (Prep("a", 1.0),))
    r1, r2 = run_fock(circuit, n_max=10), run_fock(circuit, n_max=10)
    assert (r1 == r1) is True and (r1 == r2) is False
    assert len({r1, r2, r1}) == 2


def test_fock_fidelity_is_layout_independent(rng):
    n_max = 5
    a = random_tensor(rng, 3, n_max)
    b = random_tensor(rng, 3, n_max)
    c_only = (abs(np.vdot(a, b)) ** 2
              / (np.vdot(a, a).real * np.vdot(b, b).real))
    got = fock_fidelity(FockTensor(n_max, a),
                        FockTensor(n_max, np.asfortranarray(b)))
    assert got == pytest.approx(c_only, abs=1e-15)


# ----------------------------------------------------- vacuum projection

def test_vacuum_project_trivial():
    d = 11
    amps = np.zeros((d, d), dtype=complex)
    amps[0, 3] = 1.0
    out, prob = _vacuum_project(amps, 0)
    assert prob == pytest.approx(1.0, abs=1e-14)
    assert out[3] == pytest.approx(1.0)


def test_vacuum_project_coherent_mode():
    res = run_gates(1.0, Prep("a", 1.0), Prep("b", 0.5), SelectVacuum("a"))
    assert res.mode_order == ("b",)
    assert res.probabilities[0] == pytest.approx(math.exp(-1.0), abs=1e-10)
    assert np.max(np.abs(res.final.amps - coherent_fock(0.5, 40))) <= 1e-12


@pytest.mark.parametrize("modes", [2, 3, 4])
def test_vacuum_project_views_match_a_normalized_take(rng, modes):
    n_max = 6
    amps = random_tensor(rng, modes, n_max)
    for x in kernel_layouts(amps, n_max):
        total = np.sum(np.abs(x) ** 2)
        for i in range(modes):
            got, prob = _vacuum_project(x, i)
            expect = np.take(x, 0, axis=i)
            kept = np.sum(np.abs(expect) ** 2)
            assert prob == pytest.approx(kept / total, rel=1e-14)
            assert np.max(np.abs(got - expect / math.sqrt(kept))) <= 1e-15


def test_kernels_in_place_match_their_result_on_a_copy(rng):
    # the gates write the tensor they are handed where its memory allows
    # (the Hadamard always); the result is the one they compute on a copy
    # in another layout, and heralding only reads its input
    n_max = 6
    amps = random_tensor(rng, 3, n_max)
    cats, duals = _hadamard_factors(0.5, n_max)
    for x in kernel_layouts(amps, n_max):
        other = np.ascontiguousarray if x.flags.f_contiguous \
            else np.asfortranarray
        for i in range(3):
            for j in range(3):
                if i != j:
                    got = _apply_two_mode(x.copy(order="K"), i, j, n_max)
                    expect = _apply_two_mode(other(x), i, j, n_max)
                    assert np.max(np.abs(got - expect)) <= 1e-15, (i, j)
            own = x.copy(order="K")
            got = _hadamard(own, i, cats, duals)
            assert np.shares_memory(got, own)
            expect = _hadamard(other(x), i, cats, duals)
            assert np.max(np.abs(got - expect)) <= 1e-15, i
            before = x.copy(order="K")
            _vacuum_project(x, i)
            assert x.tobytes(order="A") == before.tobytes(order="A")


def _faint_vacuum_circuit(im):
    """H|b> at b = -1 + i*im is nearly the odd cat, whose vacuum weight
    is about 4.9 im^2 at alpha 1; the herald selects it."""
    return Circuit(1.0, (Prep("a", 1.0), Prep("b", complex(-1.0, im)),
                         Hadamard("b"), SelectVacuum("b")))


@pytest.mark.parametrize("im,dp,gap", [(1e-8, 1e-14, 1e-14),
                                       (1e-10, 1e-10, 1e-12),
                                       (1e-11, 1e-8, 1e-10)])
def test_both_pipelines_herald_a_faint_vacuum_alike(im, dp, gap):
    # down to p = 4.9e-24, just above the 1e-24 that both refuse
    circuit = _faint_vacuum_circuit(im)
    analytic = run(circuit, SelectionMode.exact())
    oracle = run_fock(circuit, n_max=40)
    assert abs(analytic.p_success - oracle.p_success) <= dp * oracle.p_success
    overlap = fock_fidelity(csstate_to_fock(analytic.final_state, 40),
                            oracle.final)
    assert abs(1.0 - overlap) <= gap


@pytest.mark.parametrize("execute", [
    lambda c: run(c, SelectionMode.exact()),
    lambda c: run_fock(c, n_max=40),
], ids=["run", "run_fock"])
def test_both_pipelines_refuse_a_vanishing_vacuum_alike(execute):
    with pytest.raises(RunError) as exc:
        execute(_faint_vacuum_circuit(1e-12))     # p = 4.9e-26
    assert exc.value.index == 3


@pytest.mark.parametrize("execute", [
    lambda c: run(c, SelectionMode.exact()),
    lambda c: run_fock(c, n_max=120),
], ids=["run", "run_fock"])
def test_both_pipelines_refuse_a_vanishing_hadamard_image_alike(execute):
    # |8i> lies almost wholly outside span{|1>, |-1>}: its image has norm
    # 1.25e-14, a vanishing state, not a post-selection branch
    circuit = Circuit(1.0, (Prep("a", 8j), Hadamard("a"), Prep("b", 1.0)))
    with pytest.raises(RunError) as exc:
        execute(circuit)
    assert exc.value.index == 1
    assert type(exc.value.__cause__) is ZeroStateError


def test_vacuum_project_zero_branch():
    d = 6
    amps = np.zeros((d, d), dtype=complex)
    amps[1, 1] = 1.0
    with pytest.raises(ZeroProbabilityError):
        _vacuum_project(amps, 0)


def test_a_selection_of_the_only_live_mode_runs_in_both_pipelines():
    # heralding the one mode of a tensor leaves the zero-mode tensor, a
    # 0-d array, which the next prep grows again
    kept, prob = _vacuum_project(coherent_fock(1.0, 40).real, 0)
    assert kept.shape == () and kept == 1.0
    assert prob == pytest.approx(math.exp(-1.0), rel=1e-14)
    circuit = Circuit(1.0, (Prep("a", 1.0), SelectVacuum("a"),
                            Prep("b", 1.0), Hadamard("b"), Prep("c", -1.0),
                            BeamSplitter("b", "c")))
    analytic = run(circuit, SelectionMode.exact())
    numeric = run_fock(circuit, n_max=40)
    assert numeric.mode_order == analytic.mode_order == ("b", "c")
    assert abs(numeric.p_success - analytic.p_success) <= 1e-14
    overlap = fock_fidelity(csstate_to_fock(analytic.final_state, 40),
                            numeric.final)
    assert abs(1.0 - overlap) <= 1e-14


# -------------------------------------------------------- state conversion

def test_csstate_to_fock_single_term():
    v = csstate_to_fock(coherent_product([1.0]), 40)
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


def test_csstate_to_fock_byte_budget():
    s = coherent_product([0.1] * 6)
    # 21^6 amplitudes and their scratch copy take 2.6 GiB
    with pytest.raises(ResourceLimitError,
                       match="largest n_max that fits 6 modes is 19"):
        csstate_to_fock(s, 20)
    # the mode count alone is no limit
    t = csstate_to_fock(s, 4)
    assert t.mode_count == 6
    assert t.squared_norm() == pytest.approx(1.0, abs=1e-8)


def test_csstate_to_fock_of_a_zero_mode_state_is_the_sum_of_its_terms():
    # a zero-mode term is the empty product, so the state is one number
    s = CsState([0.6, 0.3 + 0.4j], np.zeros((2, 0)))
    t = csstate_to_fock(s, 10)
    assert t.amps.shape == () and t.mode_count == 0
    assert t.amps == pytest.approx(0.9 + 0.4j, abs=1e-15)
    assert t.squared_norm() == pytest.approx(abs(0.9 + 0.4j) ** 2, abs=1e-15)


def test_csstate_to_fock_zero_terms_is_the_zero_tensor():
    for modes in (1, 3):
        s = CsState(np.zeros(0), np.zeros((0, modes)))
        t = csstate_to_fock(s, 10)
        assert t.amps.shape == (11,) * modes
        assert not np.any(t.amps)


CONVERT_NMAX = 20


@pytest.mark.parametrize("modes", [1, 2, 3, 4])
def test_csstate_to_fock_matches_term_by_term_loop(rng, modes):
    states = [coherent_product(random_complex(rng, modes, 1.5)),
              random_state(rng, max_terms=12, modes=modes, max_amp=1.5,
                           normalized=True)]
    # unmerged duplicate rows add up like any other terms
    rows = random_complex(rng, 2 * modes, 1.5).reshape(2, modes)
    states.append(CsState([0.3, 0.2j, 0.3], rows[[0, 1, 0]]))
    for s in states:
        got = csstate_to_fock(s, CONVERT_NMAX).amps
        expect = fock_expansion_reference(s, CONVERT_NMAX)
        assert np.max(np.abs(got - expect)) <= 1e-15


def test_csstate_to_fock_sums_blocks_of_terms(rng, monkeypatch):
    d = CONVERT_NMAX + 1
    s = normalize(CsState(random_complex(rng, 7, 1.0),
                          random_complex(rng, 21, 1.5).reshape(7, 3)))
    expect = fock_expansion_reference(s, CONVERT_NMAX)
    for rows in (1, 2, 5):
        # the 3-mode factors are d and d^2 amplitudes wide
        monkeypatch.setattr(fock, "EXPAND_BLOCK", rows * (d + d * d))
        got = csstate_to_fock(s, CONVERT_NMAX).amps
        assert np.max(np.abs(got - expect)) <= 1e-15


@pytest.mark.parametrize("alpha", [1.0, 2.0])
@pytest.mark.parametrize("n,m", [(2, 2), (3, 1), (4, 1), (1, 4)])
def test_csstate_to_fock_matches_term_by_term_loop_on_builds(n, m, alpha):
    params = ProtocolParams(n, m, alpha)
    final = run(build_cghz_circuit(params), SelectionMode.exact()).final_state
    for s in (final, ideal_cghz_state(params)):
        got = csstate_to_fock(s, CONVERT_NMAX).amps
        expect = fock_expansion_reference(s, CONVERT_NMAX)
        assert np.max(np.abs(got - expect)) <= 1e-15


# Round-off labels such as 1e-16 make coherent vectors, and products of
# their small entries, subnormal; the expansion flushes the factor
# entries below the smallest normal float64 to zero.
@pytest.mark.parametrize("labels", [
    (1e-16,), (1e-160, 1e-16), (1e-16, 1e-160, -1e-16),
    (1e-16, 1e-160, 1.0, -1e-16j),
    # |2.2e-154> has 3.4e-308 on two photons, 1.5 times the smallest normal
    (2.2e-154, 1e-16)])
def test_csstate_to_fock_flushes_only_subnormal_dust(labels):
    s = coherent_product(labels)
    got = csstate_to_fock(s, 40).amps
    expect = fock_expansion_reference(s, 40)
    err = np.abs(got - expect)
    assert np.max(err) <= 1e-15
    # one term: each entry is a product of factors of modulus <= 1, so an
    # entry at or above the smallest normal float64 has normal factors
    # only, and a flush of larger factor entries loses some of them
    normal = np.abs(expect) >= np.finfo(np.float64).tiny
    assert np.all(err[normal] <= 1e-14 * np.abs(expect[normal]))


def test_inner_matches_gram_inner():
    from cghzsim import state_inner

    s1 = normalize(CsState([1, 0.5j], [[1.0, -0.5], [-1.0, 0.5]]))
    s2 = normalize(CsState([1, -0.25], [[0.5, 0.5], [1.0, -1.0]]))
    lhs = state_inner(s1, s2)
    rhs = np.vdot(csstate_to_fock(s1, 50).amps, csstate_to_fock(s2, 50).amps)
    assert lhs == pytest.approx(rhs, abs=1e-8)


# ------------------------------------------------------- hadamard operator

def test_hadamard_fock_reproduces_defining_map():
    n_max = 50
    alpha = 1.0
    res = run_gates(alpha, Prep("a", alpha), Hadamard("a"), n_max=n_max)
    n0 = cat_norm(alpha, 1)
    expect = (n0 / SQRT2) * (coherent_fock(alpha, n_max)
                             + coherent_fock(-alpha, n_max))
    assert np.max(np.abs(res.final.amps - expect)) <= 1e-9


def test_hadamard_matrix_is_the_product_of_its_factors():
    for alpha, n_max in ((0.5, 20), (1.0, 40), (2.0, 40)):
        cats, duals = _hadamard_factors(alpha, n_max)
        assert cats.shape == (n_max + 1, 2)
        assert duals.shape == (2, n_max + 1)
        assert not cats.flags.writeable and not duals.flags.writeable
        # disjoint even/odd photon support, exactly: the coefficient
        # tensor's norm is then the output's norm
        assert not np.any(cats[1::2, 0]) and not np.any(cats[0::2, 1])
        assert np.max(np.abs(cats.conj().T @ cats - np.eye(2))) <= 1e-15
        # the duals are the frame dual to {|a>, |-a>}
        frame = np.stack([coherent_fock(alpha, n_max),
                          coherent_fock(-alpha, n_max)], axis=1)
        assert np.max(np.abs(duals @ frame - np.eye(2))) <= 1e-12


@pytest.mark.parametrize("n_max", [5, 40])
@pytest.mark.parametrize("modes", [1, 2, 3, 4])
def test_rank_two_hadamard_matches_dense_matrix_on_every_axis(rng, modes,
                                                              n_max):
    # alpha 0.5 keeps the n_max 5 truncation loss below 1e-6
    alpha = 0.5 if n_max == 5 else 1.5
    mat = hadamard_matrix(alpha, n_max)
    factors = _hadamard_factors(alpha, n_max)
    amps = random_tensor(rng, modes, n_max)
    for x in kernel_layouts(amps, n_max):
        for i in range(modes):
            expect = np.moveaxis(np.tensordot(mat, x, axes=([1], [i])), 0, i)
            expect /= np.linalg.norm(expect)
            got = _hadamard(x.copy(order="K"), i, *factors)
            assert np.max(np.abs(got - expect)) <= 1e-13, i


def test_hadamard_fock_matches_analytic_gate_on_entangled_state():
    n_max = 50
    pair = CsState([0.6, 0.8], [[1.0, 1.0], [-1.0, -1.0]])
    pair = normalize(pair)
    analytic = normalize(apply_hadamard(pair, 0, 1.0))
    # a circuit cannot prepare this pair's unequal weights
    numeric = FockTensor(n_max, _hadamard(
        csstate_to_fock(pair, n_max).amps.copy(order="K"), 0,
        *_hadamard_factors(1.0, n_max)))
    assert fock_fidelity(csstate_to_fock(analytic, n_max),
                         numeric) == pytest.approx(1.0, abs=1e-10)


# ------------------------------------------------------------ full circuit

def test_split_then_project_round_trip():
    n_max = 30
    grown = run_gates(1.0, Prep("a", 1.0), Split("a", "b"), n_max=n_max)
    assert grown.final.mode_count == 2
    assert grown.mode_order == ("a", "b")
    back = run_gates(1.0, Prep("a", 1.0), Split("a", "b"),
                     BeamSplitter("a", "b"), SelectVacuum("b"), n_max=n_max)
    assert back.probabilities[0] == pytest.approx(1.0, abs=1e-10)
    assert np.max(np.abs(back.final.amps - coherent_fock(1.0, n_max))) <= 1e-8


def test_truncation_convergence_between_cutoffs():
    params = ProtocolParams(2, 2, 1.2)
    circuit = build_cghz_circuit(params)
    target = ideal_cghz_state(params)
    fids = []
    for n_max in (30, 40):
        res = run_fock(circuit, n_max=n_max)
        fids.append(fock_fidelity(csstate_to_fock(target, n_max), res.final))
    assert abs(fids[0] - fids[1]) <= 1e-8


def test_a_leak_past_the_cutoff_after_a_beam_splitter_is_refused():
    # each prep fits n_max 60, but |5 sqrt2> after the splitter does not:
    # 0.072 of the norm is lost by the selection, which would report
    # p_success 7.8 % high
    circuit = Circuit(5.0, (Prep("a", 5.0), Prep("b", -5.0),
                            BeamSplitter("a", "b"), SelectVacuum("b")))
    with pytest.raises(RunError, match="cutoff 60 loses 0.072") as exc:
        run_fock(circuit, n_max=60)
    assert exc.value.index == 3
    assert isinstance(exc.value.__cause__, FockTruncationError)
    analytic = run(circuit, SelectionMode.exact())
    numeric = run_fock(circuit, n_max=100)
    # p_success is about 1.9e-22, so it is compared relatively
    assert abs(numeric.p_success / analytic.p_success - 1.0) <= 1e-6
    overlap = fock_fidelity(csstate_to_fock(analytic.final_state, 100),
                            numeric.final)
    assert abs(1.0 - overlap) <= 1e-6


def test_a_leak_at_the_final_renormalization_is_refused():
    """The end-of-run leak check on the final tensor's norm refuses a
    leak that no selection or Hadamard after it checks: the run ends on
    the beam splitter, and its final tensor is handed over unscaled, with
    the squared norm that check measured."""
    circuit = Circuit(5.0, (Prep("a", 5.0), Prep("b", -5.0),
                            BeamSplitter("a", "b")))
    with pytest.raises(FockTruncationError, match="cutoff 60 loses"):
        run_fock(circuit, n_max=60)


@pytest.mark.parametrize("n_max,lost", [(40, "0.0707"), (60, "3.31e-06")])
def test_a_leak_before_a_hadamard_on_a_tensor_mode_is_refused(n_max, lost):
    # |4 sqrt2> after the first splitter does not fit below 70 photons;
    # the Hadamard on a, already in the tensor, renormalizes, so it
    # checks its input first
    circuit = Circuit(4.0, (Prep("a", 4.0), Prep("b", 4.0),
                            BeamSplitter("a", "b"), BeamSplitter("a", "b"),
                            Hadamard("a")))
    with pytest.raises(RunError, match=f"cutoff {n_max} loses {lost}") as exc:
        run_fock(circuit, n_max=n_max)
    assert exc.value.index == 4
    assert isinstance(exc.value.__cause__, FockTruncationError)
    analytic = run(circuit, SelectionMode.exact())
    overlap = fock_fidelity(csstate_to_fock(analytic.final_state, 70),
                            run_fock(circuit, n_max=70).final)
    assert abs(1.0 - overlap) <= 1e-6


@pytest.mark.parametrize("n_max,lost", [(40, "0.0707"), (60, "3.31e-06")])
def test_a_leak_before_a_herald_after_a_beam_splitter_is_refused(n_max,
                                                                  lost):
    # |4 sqrt2> after the splitter onto the fresh mode b does not fit below
    # 70 photons; the selection on a takes its input norm from the Gram
    # matrix of the tensor it never forms, and refuses the same loss
    circuit = Circuit(4.0, (Prep("a", 4.0), Prep("b", 4.0),
                            BeamSplitter("a", "b"), SelectVacuum("a")))
    with pytest.raises(RunError, match=f"cutoff {n_max} loses {lost}") as exc:
        run_fock(circuit, n_max=n_max)
    assert exc.value.index == 3
    assert isinstance(exc.value.__cause__, FockTruncationError)
    analytic = run(circuit, SelectionMode.exact())
    numeric = run_fock(circuit, n_max=70)
    assert abs(numeric.p_success / analytic.p_success - 1.0) <= 1e-6
    overlap = fock_fidelity(csstate_to_fock(analytic.final_state, 70),
                            numeric.final)
    assert abs(1.0 - overlap) <= 1e-6


# the benchmark's oracle builds at both of its amplitudes, and the 6-mode
# builds at the cutoff that holds them
@pytest.mark.parametrize("n,m,alphas,n_max", [
    pytest.param(n, m, alphas, n_max, id=f"{n}-{m}")
    for n, m, alphas, n_max in [
        (3, 1, (1.0, 2.0), 40), (2, 2, (1.0, 2.0), 40),
        (4, 1, (1.0, 2.0), 40), (1, 4, (1.0, 2.0), 40),
        (2, 3, (1.0,), 14), (3, 2, (1.0,), 14), (1, 6, (1.0,), 14),
        (6, 1, (1.0,), 14)]])
def test_only_splits_write_a_beam_splitter_onto_a_fresh_mode(
        n, m, alphas, n_max, monkeypatch):
    # each split is one kernel, and every beam splitter onto an ancilla is
    # heralded by the selection after it, so on these builds no beam
    # splitter is written onto the tensor and no selection slices it
    calls = []

    def recording(name):
        kernel = getattr(fock, name)

        def wrapper(*args):
            calls.append(name)
            return kernel(*args)
        return wrapper

    for name in ("_split", "_apply_two_mode", "_vacuum_project"):
        monkeypatch.setattr(fock, name, recording(name))
    for alpha in alphas:
        calls.clear()
        run_fock(build_cghz_circuit(ProtocolParams(n, m, alpha)),
                 n_max=n_max)
        assert calls == ["_split"] * (n * m - 1), alpha


def test_selection_probability_matches_analytic_exact_mode():
    alpha = 1.0
    s = coherent_product([alpha, alpha])
    s = apply_hadamard(s, 0, alpha)
    s = normalize(apply_hadamard(s, 1, alpha))
    s = apply_bs(s, 0, 1)
    _, rec = select_vacuum(s, 0, SelectionMode.exact())
    # the same first growth step in the number basis
    res = run_gates(alpha, Prep("a", alpha), Prep("b", alpha), Hadamard("a"),
                    Hadamard("b"), BeamSplitter("a", "b"), SelectVacuum("a"))
    assert rec.kept_prob == pytest.approx(res.probabilities[0], abs=1e-8)


# The builds of up to four modes at three amplitudes, and the 5- and
# 6-mode builds, where both stages are non-trivial, at the cutoffs that
# keep each point within about 2 s and 400 MB.  The small builds agree
# to 1e-13; the 6-mode ones, at n_max 14, to about 1e-8 in overlap.
FULL_PIPELINE_CASES = [
    pytest.param(n, m, alpha, 30, id=f"{n}-{m}-{alpha}")
    for alpha in [0.8, 1.0, 1.5]
    for n, m in [(2, 2), (3, 1), (4, 1), (1, 4)]
] + [
    pytest.param(n, m, 1.0, n_max, id=f"{n}-{m}-1.0")
    for n, m, n_max in [(2, 3, 14), (3, 2, 14), (1, 6, 14), (6, 1, 14),
                        (1, 5, 16), (5, 1, 16)]
]


@pytest.mark.parametrize("n,m,alpha,n_max", FULL_PIPELINE_CASES)
def test_full_pipeline_agreement_on_small_build(n, m, alpha, n_max):
    circuit = build_cghz_circuit(ProtocolParams(n, m, alpha))
    analytic = run(circuit, SelectionMode.exact())
    numeric = run_fock(circuit, n_max=n_max)
    assert numeric.mode_order == analytic.mode_order
    assert abs(numeric.p_success - analytic.p_success) <= 1e-8
    overlap = fock_fidelity(csstate_to_fock(analytic.final_state, n_max),
                            numeric.final)
    assert overlap == pytest.approx(1.0, abs=1e-8)


# The builds whose final state is the C-GHZ target up to nonorthogonality;
# (3, 1), (4, 1) and (1, 4) do not reach it yet (ROADMAP item 1).
@pytest.mark.parametrize("n,m", [(2, 2), (2, 1)])
def test_oracle_build_reaches_the_analytic_target_fidelity(n, m):
    params = ProtocolParams(n, m, 2.0)
    circuit = build_cghz_circuit(params)
    target = ideal_cghz_state(params)
    numeric = fock_fidelity(run_fock(circuit, n_max=40).final,
                            csstate_to_fock(target, 40))
    analytic = fidelity(run(circuit, SelectionMode.exact()).final_state,
                        target)
    assert numeric == pytest.approx(analytic, abs=1e-9)


@pytest.mark.parametrize("n,m", [(2, 2), (1, 4), (2, 3)])
def test_oracle_tensors_are_fortran_order(n, m):
    # n_max 12 is the smallest cutoff that holds these builds to 1e-6
    params = ProtocolParams(n, m, 1.0)
    final = run_fock(build_cghz_circuit(params), n_max=12).final
    converted = csstate_to_fock(ideal_cghz_state(params), 12)
    for t in (final, converted):
        assert t.mode_count == n * m
        assert t.amps.flags.f_contiguous


# every oracle_xcheck build of the benchmark, and the 6-mode builds
@pytest.mark.parametrize("n,m,alpha,n_max", [
    (3, 1, 2.0, 40), (2, 2, 2.0, 40), (4, 1, 2.0, 40), (1, 4, 2.0, 40),
    (2, 3, 1.0, 14), (3, 2, 1.0, 14), (1, 6, 1.0, 14), (6, 1, 1.0, 14)])
def test_backend_hands_over_a_fortran_tensor(n, m, alpha, n_max,
                                             monkeypatch):
    # run_fock's result is Fortran order whatever the backend leaves; on
    # these builds the backend's own tensor already is, so the handover
    # copies nothing
    handed = []

    class Recording(fock._Fock):
        def dense(self):
            amps = super().dense()
            handed.append(amps)
            return amps

    monkeypatch.setattr(fock, "_Fock", Recording)
    circuit = build_cghz_circuit(ProtocolParams(n, m, alpha))
    final = run_fock(circuit, n_max=n_max).final
    assert handed[-1].flags.f_contiguous
    assert np.shares_memory(final.amps, handed[-1])


# the builds of test_backend_hands_over_a_fortran_tensor
@pytest.mark.parametrize("n,m,alpha,n_max", [
    (3, 1, 2.0, 40), (2, 2, 2.0, 40), (4, 1, 2.0, 40), (1, 4, 2.0, 40),
    (2, 3, 1.0, 14), (3, 2, 1.0, 14), (1, 6, 1.0, 14), (6, 1, 1.0, 14)])
def test_backend_hands_over_the_squared_norm_it_measured(n, m, alpha,
                                                          n_max):
    # the final tensor is checked for a leak, not rescaled: its squared
    # norm is what the split that ends each build left, just below 1
    circuit = build_cghz_circuit(ProtocolParams(n, m, alpha))
    final = run_fock(circuit, n_max=n_max).final
    flat = final.amps.ravel(order="K")
    assert abs(final.squared_norm() - np.vdot(flat, flat).real) <= 1e-15
    assert 1.0 - 1e-6 < final.squared_norm() <= 1.0 + 1e-15


@pytest.mark.parametrize("n,m", [(2, 2), (1, 4), (2, 3)])
def test_each_tensor_norm_is_taken_once(n, m, monkeypatch):
    calls = []
    sq_norm = fock._sq_norm

    def counting(x):
        calls.append(x.shape)
        return sq_norm(x)

    monkeypatch.setattr(fock, "_sq_norm", counting)
    params = ProtocolParams(n, m, 1.0)
    csstate_to_fock(ideal_cghz_state(params), 12)
    assert len(calls) == 1
    calls.clear()
    circuit = build_cghz_circuit(params)
    run_fock(circuit, n_max=12)
    kinds = [type(ins) for ins in circuit.instructions]
    # the Hadamards on a mode already in the tensor, not on the last
    # prepared one, which the backend holds as a vector: at (2,2) h s2
    # after its split and h c1
    tensor_hadamards = {(2, 2): 2, (2, 3): 2, (1, 4): 0}[n, m]
    # every selection of a build heralds the first mode of the beam
    # splitter onto the fresh mode just before it, so it takes its input
    # norm from a Gram matrix and a pass only over its kept slice
    assert all(kinds[k - 1] is BeamSplitter
               for k, kind in enumerate(kinds) if kind is SelectVacuum)
    # one per Hadamard's coefficients, the input of each Hadamard on the
    # tensor, the kept slice of each selection, and the final tensor
    assert len(calls) == (1 + kinds.count(Hadamard) + tensor_hadamards
                          + kinds.count(SelectVacuum))
    # a selection with no beam splitter before it takes two, its input
    # and its kept slice, beside the final tensor's
    calls.clear()
    run_gates(1.0, Prep("a", 1.0), Prep("b", 0.5), SelectVacuum("a"))
    assert len(calls) == 3


def test_fock_fidelity_rejects_incomparable_tensors():
    one = csstate_to_fock(coherent_product([1.0]), 20)
    two = csstate_to_fock(coherent_product([1.0, 1.0]), 20)
    assert fock_fidelity(one, one) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ModeShapeError):
        fock_fidelity(one, two)
    with pytest.raises(ModeShapeError):
        fock_fidelity(one, csstate_to_fock(coherent_product([1.0]), 30))
    zero = FockTensor(20, np.zeros(21))
    with pytest.raises(DomainError, match="zero tensor"):
        fock_fidelity(zero, zero)


def test_run_fock_rejects_wide_circuits():
    # six live modes at n_max 20: over the byte budget, never allocated
    circuit = build_cghz_circuit(ProtocolParams(6, 1, 1.0))
    with pytest.raises(ResourceLimitError,
                       match="largest n_max that fits 6 modes is 19"):
        run_fock(circuit, n_max=20)


@pytest.mark.parametrize("n_max", [0, -3])
def test_run_fock_refuses_a_cutoff_below_one(n_max):
    # a bad cutoff is the caller's, not an instruction's: DomainError
    # before the first prep, never RunError; a negative one must not
    # reach the byte check, where (n_max+1)**modes has a non-positive base
    circuit = build_cghz_circuit(ProtocolParams(2, 2, 2.0))
    with pytest.raises(DomainError, match="^n_max must be >= 1$"):
        run_fock(circuit, n_max=n_max)
    with pytest.raises(DomainError, match="^n_max must be >= 1$"):
        fock._check_tensor_size(n_max, 4)
    # every other public entry point refuses it the same way
    for call in (lambda: coherent_fock(1.0, n_max),
                 lambda: FockTensor(n_max, np.zeros(1))):
        with pytest.raises(DomainError, match="^n_max must be >= 1$"):
            call()


@pytest.mark.parametrize("n_max", [2.5, 30.0, True, "30"])
def test_a_non_integer_cutoff_is_refused_typed(n_max):
    params = ProtocolParams(2, 2, 2.0)
    with pytest.raises(DomainError, match="^n_max must be an integer"):
        run_fock(build_cghz_circuit(params), n_max=n_max)
    with pytest.raises(DomainError, match="^n_max must be an integer"):
        csstate_to_fock(ideal_cghz_state(params), n_max)
    # and so does every other public entry point
    for call in (lambda: coherent_fock(1.0, n_max),
                 lambda: FockTensor(n_max, np.zeros((2, 2)))):
        with pytest.raises(DomainError, match="^n_max must be an integer"):
            call()


def test_oversized_tensors_are_refused_before_allocation(monkeypatch):
    params = ProtocolParams(2, 2, 2.0)
    circuit = build_cghz_circuit(params)
    target = ideal_cghz_state(params)

    def no_expansion(*args):
        raise AssertionError("coherent_fock called before the size check")

    monkeypatch.setattr(fock, "coherent_fock", no_expansion)
    # 201^4 amplitudes take 24.3 GiB
    with pytest.raises(ResourceLimitError, match="GiB"):
        run_fock(circuit, n_max=200)
    with pytest.raises(ResourceLimitError, match="GiB"):
        csstate_to_fock(target, 200)


@pytest.mark.parametrize("ins", [
    (), (Prep("a", 1.0), SelectVacuum("a")),
    (Prep("a", 0.6 + 0.8j), Prep("b", 1.0), Hadamard("b"),
     BeamSplitter("a", "b"), SelectVacuum("b"), SelectVacuum("a"))],
    ids=["empty", "select-only-mode", "complex"])
def test_a_circuit_that_ends_with_no_live_mode_runs_in_both_pipelines(ins):
    # both end in the zero-mode state: a 0-d tensor of norm one
    circuit = Circuit(1.0, ins)
    analytic = run(circuit, SelectionMode.exact())
    numeric = run_fock(circuit, n_max=40)
    assert numeric.mode_order == analytic.mode_order == ()
    assert numeric.final.amps.shape == ()
    assert numeric.final.squared_norm() == 1.0
    assert len(numeric.probabilities) == len(analytic.selections)
    assert abs(numeric.p_success - analytic.p_success) <= 1e-14
    overlap = fock_fidelity(csstate_to_fock(analytic.final_state, 40),
                            numeric.final)
    assert abs(1.0 - overlap) <= 1e-14


def test_tensor_size_limit_boundary():
    # a tensor and its scratch copy: 2 * 90^4 * 16 B fits in 2 GiB,
    # 2 * 91^4 * 16 B does not; likewise 36^5 / 37^5 and 20^6 / 21^6
    for modes, largest in ((4, 89), (5, 35), (6, 19)):
        fock._check_tensor_size(largest, modes)
        with pytest.raises(ResourceLimitError,
                           match=f"fits {modes} modes is {largest}$"):
            fock._check_tensor_size(largest + 1, modes)
    fock._check_tensor_size(200, 3)


def test_run_fock_validates_once_before_the_width_check(monkeypatch):
    calls = []

    def counting(circuit):
        calls.append(circuit)
        return validate(circuit)

    for module in (engine, fock):
        monkeypatch.setattr(module, "validate", counting)
    # over the oracle's byte budget and invalid: the diagnostics win
    wide = build_cghz_circuit(ProtocolParams(6, 1, 1.0))
    bad = Circuit(wide.alpha, wide.instructions + (Hadamard("nowhere"),))
    with pytest.raises(CircuitValidationError):
        run_fock(bad, n_max=20)
    # an empty circuit with a bad alpha is invalid
    with pytest.raises(CircuitValidationError):
        run_fock(Circuit(alpha=-1.0), n_max=10)
    assert len(calls) == 2
    run_fock(build_cghz_circuit(ProtocolParams(2, 1, 1.0)), n_max=20)
    assert len(calls) == 3


# ------------------------------------------------------------ tensor dtype
# A tensor is float64 while every amplitude that built it was real, and
# complex128 from the first complex prep on.

def test_real_circuits_run_in_float64_and_complex_ones_in_complex128():
    real = build_cghz_circuit(ProtocolParams(2, 2, 1.0))
    assert run_fock(real, n_max=20).final.amps.dtype == np.float64
    cplx = Circuit(1.0, (Prep("a", 0.6 + 0.8j), Prep("b", 1.0),
                         BeamSplitter("a", "b")))
    assert run_fock(cplx, n_max=20).final.amps.dtype == np.complex128
    assert all(f.dtype == np.float64 for f in _hadamard_factors(1.0, 20))


def test_complex_prep_after_real_gates_promotes_the_tensor_mid_run():
    alpha, n_max = 1.2, 30
    circuit = Circuit(alpha, (
        Prep("a", alpha), Prep("b", alpha), Hadamard("a"),
        BeamSplitter("a", "b"), Prep("c", 0.5 - 0.7j), Hadamard("c", 0.9),
        BeamSplitter("b", "c"), SelectVacuum("b"), Hadamard("a")))
    analytic = run(circuit, SelectionMode.exact())
    numeric = run_fock(circuit, n_max=n_max)
    assert numeric.final.amps.dtype == np.complex128
    assert numeric.mode_order == analytic.mode_order
    assert abs(numeric.p_success - analytic.p_success) <= 1e-12
    overlap = fock_fidelity(csstate_to_fock(analytic.final_state, n_max),
                            numeric.final)
    assert abs(1.0 - overlap) <= 1e-12


def complex_path(monkeypatch):
    """Make the oracle keep every coherent vector and coefficient
    complex, so that its kernels run on real data in complex128."""
    monkeypatch.setattr(fock, "_as_real", lambda x: x)


@pytest.mark.parametrize("n,m", [(2, 2), (1, 4), (4, 1)])
def test_real_expansion_matches_the_complex_one(n, m, monkeypatch):
    params = ProtocolParams(n, m, 1.5)
    final = run(build_cghz_circuit(params), SelectionMode.exact()).final_state
    for s in (final, ideal_cghz_state(params)):
        real = csstate_to_fock(s, CONVERT_NMAX)
        assert real.amps.dtype == np.float64
        with monkeypatch.context() as mp:
            complex_path(mp)
            forced = csstate_to_fock(s, CONVERT_NMAX)
        assert forced.amps.dtype == np.complex128
        assert np.max(np.abs(real.amps - forced.amps)) <= 1e-14


@pytest.mark.parametrize("n,m", [(2, 2), (1, 4), (4, 1)])
def test_real_run_matches_the_complex_one(n, m, monkeypatch):
    circuit = build_cghz_circuit(ProtocolParams(n, m, 1.5))
    real = run_fock(circuit, n_max=CONVERT_NMAX)
    with monkeypatch.context() as mp:
        complex_path(mp)
        forced = run_fock(circuit, n_max=CONVERT_NMAX)
    assert forced.final.amps.dtype == np.complex128
    assert np.max(np.abs(real.final.amps - forced.final.amps)) <= 1e-14
    assert np.allclose(real.probabilities, forced.probabilities,
                       rtol=0, atol=1e-14)


def test_fock_fidelity_across_dtypes(rng):
    n_max = 5
    a = random_tensor(rng, 2, n_max)
    real = FockTensor(n_max, a.real / np.linalg.norm(a.real))
    cplx = FockTensor(n_max, real.amps * (0.6 + 0.8j))
    assert real.amps.dtype == np.float64
    assert cplx.amps.dtype == np.complex128
    other = FockTensor(n_max, a)
    expect = abs(np.vdot(real.amps, a)) ** 2
    for x, y in ((real, other), (other, real), (cplx, other)):
        assert fock_fidelity(x, y) == pytest.approx(expect, abs=1e-15)
    assert fock_fidelity(real, cplx) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("given,kept", [
    (np.float64, np.float64), (np.float32, np.float64),
    (np.int64, np.float64), (np.complex64, np.complex128),
    (np.complex128, np.complex128)])
def test_fock_tensor_keeps_a_real_array_real(given, kept):
    a = np.zeros((3, 3), dtype=given)
    a[0, 0] = 1
    t = FockTensor(2, a)
    assert t.amps.dtype == kept
    assert t.squared_norm() == 1.0
    # a nested list follows the same rule
    assert FockTensor(2, a.tolist()).amps.dtype == kept


# ------------------------------------------------------- random circuits
# Valid circuits of 3 to 9 instructions on at most 4 live modes, with
# complex (or, drawn often, real) prep amplitudes and Hadamard references
# off the circuit alpha: the complex Gram paths and both oracle dtypes,
# which the protocol's real builds leave unexercised.  Any live mode may
# be selected, the only one too, so a circuit may end with none.

REFS = st.floats(0.6, 1.4)
PREP_AMPS = st.builds(complex, st.floats(-1.2, 1.2),
                      st.just(0.0) | st.floats(-1.0, 1.0))
RANDOM_NMAX = 30


@st.composite
def random_circuits(draw):
    alpha = draw(REFS)
    names = (f"m{k}" for k in count())
    live, ins = [], []
    for _ in range(draw(st.integers(3, 9))):
        kinds = ["prep"] if len(live) < 4 else []
        if live:
            kinds += ["h", "select"] + (["split"] if len(live) < 4 else [])
        if len(live) > 1:
            kinds.append("bs")
        kind = draw(st.sampled_from(kinds))
        if kind == "prep":
            live.append(next(names))
            ins.append(Prep(live[-1], draw(PREP_AMPS)))
        elif kind == "h":
            ref = draw(st.none() | REFS.filter(lambda r: r != alpha))
            ins.append(Hadamard(draw(st.sampled_from(live)), ref))
        elif kind == "bs":
            a, b = draw(st.permutations(live))[:2]
            ins.append(BeamSplitter(a, b))
        elif kind == "split":
            mode = draw(st.sampled_from(live))
            live.append(next(names))
            ins.append(Split(mode, live[-1]))
        else:
            mode = draw(st.sampled_from(live))
            live.remove(mode)
            ins.append(SelectVacuum(mode))
    return Circuit(alpha, tuple(ins))


@given(random_circuits())
# a vanishing vacuum, which both pipelines refuse at instruction 3 with
# ZeroProbabilityError, so the refusal branch runs on every call; the
# vanishing Hadamard image needs n_max 120 and keeps its own test above
@example(_faint_vacuum_circuit(1e-12))
@settings(max_examples=100, deadline=None)
def test_random_circuits_agree_with_the_oracle(circuit):
    assert validate(circuit) == []
    try:
        analytic = run(circuit, SelectionMode.exact())
    except RunError as exc:
        with pytest.raises(RunError) as numeric_exc:
            run_fock(circuit, n_max=RANDOM_NMAX)
        assert numeric_exc.value.index == exc.index
        assert type(numeric_exc.value.__cause__) is type(exc.__cause__)
        return
    numeric = run_fock(circuit, n_max=RANDOM_NMAX)
    real = all(ins.amp.imag == 0 for ins in circuit.instructions
               if isinstance(ins, Prep))
    assert numeric.final.amps.dtype == (np.float64 if real
                                        else np.complex128)
    assert numeric.mode_order == analytic.mode_order
    assert abs(numeric.p_success - analytic.p_success) <= 1e-10
    overlap = fock_fidelity(
        csstate_to_fock(analytic.final_state, RANDOM_NMAX), numeric.final)
    assert abs(1.0 - overlap) <= 1e-10
