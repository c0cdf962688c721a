import contextlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cghzsim import (
    CsState,
    DomainError,
    ModeShapeError,
    SelectionMode,
    ZeroStateError,
    normalize,
    state_inner,
    state_norm,
)
from cghzsim import coherent
from cghzsim.coherent import cat_norm, ghz_norm, merge_terms
from cghzsim.fock import coherent_fock
from cghzsim.optics import select_vacuum
from conftest import (
    coherent_overlap,
    coherent_product,
    complex_twin,
    label_groups,
    random_complex,
    random_state,
)

E2 = math.exp(-2.0)

finite_complex = st.complex_numbers(max_magnitude=4.0, allow_nan=False,
                                    allow_infinity=False)


# ---------------------------------------------------------------- overlap

def overlap(a, b):
    """<a|b> from the Gram kernel, as the inner product of two one-term
    single-mode states."""
    return state_inner(coherent_product([a]), coherent_product([b]))


def test_overlap_identity():
    assert overlap(1.0, 1.0) == pytest.approx(1.0)


def test_overlap_opposite_amplitudes():
    # <-a|a> = exp(-2 a^2) for real a
    assert overlap(1.0, -1.0) == pytest.approx(E2, abs=1e-15)
    assert overlap(-1.0, 1.0) == pytest.approx(E2, abs=1e-15)


def test_overlap_complex_pair_against_number_basis_oracle():
    # independent oracle: truncated number-basis expansion at n_max=60
    got = overlap(1 + 1j, 1 - 1j)
    oracle = complex(np.vdot(coherent_fock(1 + 1j, 60),
                             coherent_fock(1 - 1j, 60)))
    frozen = -0.05631934999212784 - 0.12306002480577669j
    assert got == pytest.approx(oracle, abs=1e-10)
    assert got == pytest.approx(frozen, abs=1e-12)


def test_overlap_magnitude_never_exceeds_one(rng):
    a = random_complex(rng, 500, 4.0)
    b = random_complex(rng, 500, 4.0)
    for x, y in zip(a, b):
        assert abs(overlap(x, y)) <= 1.0 + 1e-15


def test_overlap_agrees_with_fock_oracle_on_grid(rng):
    for _ in range(200):
        a, b = random_complex(rng, 2, 2.0)
        oracle = complex(np.vdot(coherent_fock(a, 60), coherent_fock(b, 60)))
        assert overlap(a, b) == pytest.approx(oracle, abs=1e-8)


def test_overlap_rejects_non_finite():
    with pytest.raises(DomainError):
        overlap(float("nan"), 1.0)
    with pytest.raises(DomainError):
        overlap(1.0, complex(float("inf"), 0))


def test_overlap_deep_suppression_flushes_to_zero():
    assert overlap(40.0, -40.0) == 0.0
    # exp(-2 a^2) is about 2e-304 at a = 18.7, a normal double below the
    # 1e-300 flush, and about 5e-298 at a = 18.5, above it
    assert overlap(18.7, -18.7) == 0.0
    assert overlap(18.5, -18.5) == pytest.approx(math.exp(-2 * 18.5 ** 2),
                                                 rel=1e-12)


@given(finite_complex, finite_complex)
@settings(max_examples=200, deadline=None)
def test_overlap_conjugate_symmetry(a, b):
    lhs = overlap(a, b)
    rhs = overlap(b, a)
    assert abs(lhs - rhs.conjugate()) <= 1e-12


# ------------------------------------------------------------ inner / norm

def test_inner_single_normalized_term():
    s = coherent_product([0.3 + 0.7j, -1.2])
    assert state_inner(s, s) == pytest.approx(1.0, abs=1e-14)


def test_inner_unnormalized_cat():
    s = CsState([1, 1], [[1.0], [-1.0]])
    assert state_inner(s, s).real == pytest.approx(2 * (1 + E2), abs=1e-13)


def test_inner_two_mode_even_superposition():
    s = CsState([1, 1], [[1.0, 1.0], [-1.0, -1.0]])
    assert state_inner(s, s).real == pytest.approx(
        2 * (1 + math.exp(-4.0)), abs=1e-13)


def test_inner_mode_mismatch():
    with pytest.raises(ModeShapeError):
        state_inner(coherent_product([1.0]), coherent_product([1.0, 1.0]))


def test_constructor_refuses_labels_for_another_term_count():
    with pytest.raises(ModeShapeError, match="does not match 2 terms"):
        CsState([1.0, 2.0], [[0.0]])


def test_state_norm_clamps_round_off_and_refuses_beyond_it(monkeypatch):
    s = coherent_product([1.0])
    monkeypatch.setattr(coherent, "_norm_sq", lambda _: -1e-13)
    assert state_norm(s) == 0.0
    monkeypatch.setattr(coherent, "_norm_sq", lambda _: -1e-11)
    with pytest.raises(DomainError, match="negative beyond round-off"):
        state_norm(s)


def test_norm_trivial_cases():
    assert state_norm(coherent_product([2.0])) == pytest.approx(1.0)
    assert state_norm(CsState([], np.zeros((0, 3)))) == 0.0
    cat = CsState([1, 1], [[1.0], [-1.0]])
    assert state_norm(cat) == pytest.approx(math.sqrt(2 * (1 + E2)),
                                            abs=1e-13)


def test_cauchy_schwarz_and_gram_positivity(rng):
    for _ in range(300):
        m = int(rng.integers(1, 4))
        s1 = random_state(rng, max_terms=16, modes=m, max_amp=3.0)
        s2 = random_state(rng, max_terms=16, modes=m, max_amp=3.0)
        lhs = abs(state_inner(s1, s2)) ** 2
        rhs = state_inner(s1, s1).real * state_inner(s2, s2).real
        assert lhs <= rhs + 1e-10
        g = state_inner(s1, s1)
        assert g.real >= -1e-12
        assert abs(g.imag) <= 1e-12


def test_normalize_fixed_point_and_zero_state():
    s = normalize(CsState([1, 1], [[1.0], [-1.0]]))
    again = normalize(s)
    assert abs(state_norm(again) - 1.0) < 1e-12
    np.testing.assert_allclose(again.coeffs, s.coeffs, atol=1e-12)
    with pytest.raises(ZeroStateError):
        normalize(CsState([], np.zeros((0, 1))))


def test_normalize_reproduces_cat_constant():
    # (|a> + |-a>)/norm has coefficients N0/sqrt(2)
    s = normalize(CsState([1, 1], [[1.0], [-1.0]]))
    n0 = cat_norm(1.0, 1)
    np.testing.assert_allclose(s.coeffs,
                               [n0 / math.sqrt(2), n0 / math.sqrt(2)],
                               atol=1e-14)


# ------------------------------------------------ factored and chunked sums

def dense_norm(s):
    """The reference: the square root of the dense Gram sum <s|s>."""
    return math.sqrt(max(state_inner(s, s).real, 0.0))


def factored_norm(s):
    """The factored contraction alone, whatever state_norm would pick."""
    groups = label_groups(s.amps)
    sq = coherent._factored_norm_sq(s.amps, s.coeffs, groups)
    return math.sqrt(max(sq, 0.0))


def assert_norm_parity(s):
    want = dense_norm(s)
    for got in (factored_norm(s), state_norm(s)):
        assert abs(got - want) <= 1e-12 * want


@pytest.fixture
def paths(monkeypatch):
    """Counts the calls of the factored and the dense Gram sum."""
    calls = {"factored": 0, "dense": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(coherent, "_factored_norm_sq",
                        counted("factored", coherent._factored_norm_sq))
    monkeypatch.setattr(coherent, "_gram_sum",
                        counted("dense", coherent._gram_sum))
    return calls


def product_state(rng, groups, keep=1.0, repeat=0):
    """A Cartesian product of per-group label rows, with the modes of the
    groups interleaved at random; ``keep`` keeps that share of the rows
    (so the product is zero-padded) and ``repeat`` appends that many
    copies of existing rows (an unmerged state)."""
    blocks = [random_complex(rng, rows * width, 2.0).reshape(rows, width)
              for rows, width in groups]
    grid = np.meshgrid(*[np.arange(len(b)) for b in blocks], indexing="ij")
    amps = np.concatenate([b[g.ravel()] for b, g in zip(blocks, grid)],
                          axis=1)
    amps = amps[:, rng.permutation(amps.shape[1])]
    rows = np.flatnonzero(rng.uniform(size=len(amps)) < keep)
    if rows.size == 0:
        rows = np.array([0])
    rows = np.concatenate([rows, rng.choice(rows, repeat)])
    amps = amps[rng.permutation(rows)]
    return CsState(random_complex(rng, len(amps), 1.0), amps)


@given(st.integers(0, 2**32 - 1),
       st.lists(st.tuples(st.integers(1, 6), st.integers(1, 3)),
                min_size=1, max_size=3),
       st.sampled_from([1.0, 0.7, 0.3]), st.integers(0, 4))
@settings(max_examples=150, deadline=None)
def test_factored_norm_matches_dense_on_product_states(seed, groups, keep,
                                                       repeat):
    rng = np.random.default_rng(seed)
    assert_norm_parity(product_state(rng, groups, keep, repeat))


def test_factored_groups_recover_the_product_blocks(rng):
    s = product_state(rng, [(6, 2), (5, 3), (4, 1)])
    sizes = sorted(size for _, size, _ in label_groups(s.amps))
    assert sizes == [4, 5, 6]


def test_large_product_state_takes_the_factored_path(rng, paths):
    s = product_state(rng, [(12, 3), (12, 3), (12, 2)], keep=0.5)
    assert_norm_parity(s)
    paths.update(factored=0, dense=0)
    state_norm(s)
    assert paths == {"factored": 1, "dense": 0}


def test_unstructured_labels_take_the_dense_path(rng, paths):
    s = CsState(random_complex(rng, 400, 1.0),
                random_complex(rng, 1600, 3.0).reshape(400, 4))
    got = state_norm(s)
    assert paths == {"factored": 0, "dense": 1}
    assert abs(got - dense_norm(s)) <= 1e-12 * got
    assert abs(factored_norm(s) - got) <= 1e-12 * got


def test_a_mode_that_splits_the_terms_as_an_earlier_one_joins_its_group(
        rng):
    # modes 0 and 2 carry different labels that split the terms alike;
    # mode 1 is independent of both
    a, b = np.meshgrid(np.arange(4), np.arange(3), indexing="ij")
    a, b = a.ravel(), b.ravel()
    first = random_complex(rng, 4, 2.0)
    amps = np.stack([first[a], random_complex(rng, 3, 2.0)[b],
                     random_complex(rng, 4, 2.0)[a]], axis=1)
    s = CsState(random_complex(rng, 12, 1.0), amps)
    groups = label_groups(s.amps)
    assert sorted((modes, size) for _, size, modes in groups) == [
        ([0, 2], 4), ([1], 3)]
    assert_norm_parity(s)


def exact_final_state(n, m, alpha=2.0, extra=""):
    """The final state of the exact (n, m) build, run with ``extra``
    circuit lines appended, and its RunResult."""
    from cghzsim import ProtocolParams, SelectionMode, build_cghz_circuit
    from cghzsim import parse, run, serialize
    text = serialize(build_cghz_circuit(ProtocolParams(n, m, alpha)))
    result = run(parse(text + extra).circuit, SelectionMode.exact())
    return result.final_state, result


@pytest.mark.parametrize("n, m, sizes", [(2, 6, [48, 48]),
                                         (4, 4, [12, 12, 12, 12])])
def test_exact_final_states_group_into_their_blocks(paths, n, m, sizes):
    s, _ = exact_final_state(n, m)
    assert sorted(size for _, size, _ in label_groups(s.amps)) \
        == sizes
    paths.update(factored=0, dense=0)
    got = state_norm(s)
    assert paths == {"factored": 1, "dense": 0}
    if (n, m) == (2, 6):
        assert abs(got - dense_norm(s)) <= 1e-12 * got


def row_by_row_norm_sq(coeffs, amps):
    """sum_ij conj(c_i) c_j prod_k <a_ik|a_jk>, one row i at a time."""
    half = 0.5 * (np.abs(amps) ** 2).sum(axis=1)
    total = 0.0
    for i in range(len(coeffs)):
        expo = amps[i].conj() @ amps.T - half[i] - half
        total += coeffs[i].conjugate() * (np.exp(expo) @ coeffs)
    return total.real


def test_complex_labels_past_the_row_block_bound_from_a_circuit(paths):
    # a complex prep mixed into the exact (2,6) build gives its final
    # 2304 terms complex labels; their norms take the factored path
    s, result = exact_final_state(2, 6, extra="prep z 0.3+0.4i\n"
                                  "bs q1_1 z\nselect0 z\n")
    assert s.term_count == 2304 > 1024
    assert np.count_nonzero(s.amps.imag)
    assert paths["factored"] > 0
    before, unselected = exact_final_state(2, 6, extra="prep z 0.3+0.4i\n"
                                           "bs q1_1 z\n")
    assert unselected.mode_order[-1] == "z"
    z = before.amps[:, -1]
    kept = row_by_row_norm_sq(before.coeffs * np.exp(-0.5 * np.abs(z) ** 2),
                              before.amps[:, :-1])
    kept_prob = kept / row_by_row_norm_sq(before.coeffs, before.amps)
    assert abs(result.selections[-1].kept_prob - kept_prob) <= 1e-12
    paths.update(factored=0, dense=0)
    assert abs(state_norm(s) ** 2 - row_by_row_norm_sq(s.coeffs, s.amps)) \
        <= 1e-12
    assert paths == {"factored": 1, "dense": 0}


def test_labels_1e_13_apart_get_distinct_codes():
    near = 1.0 + 1e-13
    s = CsState([1.0, 0.5, 0.25j, 2.0],
                [[1.0, 0.5], [near, 0.5], [1.0, -0.5], [near, -0.5]])
    groups = label_groups(s.amps)
    assert sorted(size for _, size, _ in groups) == [2, 2]
    assert_norm_parity(s)


def test_factored_norm_edge_shapes():
    assert state_norm(CsState([], np.zeros((0, 3)))) == 0.0
    one = CsState([0.6 - 0.8j], [[1.0, -2.0j]])
    assert factored_norm(one) == pytest.approx(1.0, abs=1e-15)
    assert state_norm(one) == pytest.approx(1.0, abs=1e-15)
    no_modes = CsState([1.0, 2.0j, -0.5], np.zeros((3, 0)))
    assert factored_norm(no_modes) == pytest.approx(abs(0.5 + 2j))
    assert state_norm(no_modes) == pytest.approx(abs(0.5 + 2j))


EXACT_LARGE = [(2, 4), (4, 2), (2, 5), (3, 3), (2, 6)]


def test_factored_norm_matches_dense_on_every_exact_large_state(
        monkeypatch, paths):
    import cghzsim.engine as engine
    import cghzsim.optics as optics
    from cghzsim import ProtocolParams, SelectionMode, build_cghz_circuit, run
    seen = []

    def recording(fn):
        def wrapper(s, *args, **kwargs):
            seen.append(s)
            return fn(s, *args, **kwargs)
        return wrapper

    # the kernels' inputs, and every state they or normalize take a norm of
    for module, name in ((engine, "apply_hadamard"),
                         (engine, "select_vacuum"),
                         (optics, "state_norm"), (coherent, "state_norm")):
        monkeypatch.setattr(module, name, recording(getattr(module, name)))
    for n, m in EXACT_LARGE:
        run(build_cghz_circuit(ProtocolParams(n, m, 2.0)),
            SelectionMode.exact())
    assert paths["factored"] > 0
    assert max(s.term_count for s in seen) == 2304
    for s in seen:
        assert_norm_parity(s)


def test_dense_sum_in_row_blocks_matches_one_block(rng, monkeypatch):
    t = 1500
    s = CsState(random_complex(rng, t, 1.0),
                random_complex(rng, 3 * t, 3.0).reshape(t, 3))
    other = CsState(random_complex(rng, 900, 1.0),
                    random_complex(rng, 2700, 3.0).reshape(900, 3))
    # real labels with complex coefficients: a real Gram block meets
    # complex weights
    real_labels = CsState(s.coeffs, s.amps.real)
    assert t > coherent.GRAM_BLOCK // t          # several row blocks

    def sums():
        return [f(x) for x in (s, real_labels)
                for f in (lambda x: state_inner(x, x),
                          lambda x: state_inner(x, other), state_norm)]

    blocked = sums()
    monkeypatch.setattr(coherent, "GRAM_BLOCK", t * t)
    single = sums()
    for got, want in zip(blocked, single):
        assert abs(got - want) <= 1e-13 * abs(want)


def real_product_state(rng, groups, keep=1.0, repeat=0):
    """The real parts of a ``product_state``: real labels and real
    coefficients, as the protocol circuits produce at real alpha."""
    s = product_state(rng, groups, keep, repeat)
    return CsState(s.coeffs.real, s.amps.real)


def overlap_matrix(a, b):
    """_overlap_matrix of label rows a and b with their own row norms."""
    return coherent._overlap_matrix(a, coherent._half_norms(a),
                                    b, coherent._half_norms(b))


def test_overlap_matrix_is_real_exactly_for_real_labels(rng):
    a = random_complex(rng, 12, 2.0).reshape(4, 3)
    b = random_complex(rng, 15, 2.0).reshape(5, 3)
    real = a.real.astype(complex)                # complex dtype, no imag
    assert coherent._as_real(a) is a
    ra, rb = coherent._as_real(real), coherent._as_real(b.real)
    assert ra.dtype == rb.dtype == np.float64
    assert overlap_matrix(ra, ra).dtype == np.float64
    assert overlap_matrix(ra, rb).dtype == np.float64
    assert overlap_matrix(a, b).dtype == np.complex128
    assert overlap_matrix(ra, b).dtype == np.complex128
    assert overlap_matrix(a, ra).dtype == np.complex128
    want = [[np.prod([coherent_overlap(x, y) for x, y in zip(r, q)])
             for q in b.real] for r in real]
    np.testing.assert_allclose(overlap_matrix(ra, rb), want,
                               rtol=1e-13, atol=0)
    np.testing.assert_allclose(overlap_matrix(ra, b),
                               overlap_matrix(real, b),
                               rtol=1e-13, atol=0)


@given(st.integers(0, 2**32 - 1),
       st.lists(st.tuples(st.integers(1, 5), st.integers(1, 3)),
                min_size=1, max_size=3),
       st.sampled_from([1.0, 0.5]), st.integers(0, 3),
       st.floats(0.1, 6.0), st.floats(0.1, 6.0))
@settings(max_examples=100, deadline=None)
def test_common_phase_takes_the_complex_path_to_the_same_sums(
        seed, groups, keep, repeat, theta, phi):
    # conj(a e^{i theta}) (b e^{i theta}) = conj(a) b: a common label phase
    # changes no overlap, but runs the complex arithmetic
    rng = np.random.default_rng(seed)
    s = real_product_state(rng, groups, keep, repeat)
    other = real_product_state(rng, groups)
    turn = np.exp(1j * theta)

    def rotated(x):
        return CsState(x.coeffs, x.amps * turn)

    r, r_other = rotated(s), rotated(other)
    assert s.amps.dtype == np.float64
    assert r.amps.dtype == np.complex128
    want = state_norm(s)
    for got in (state_norm(r), factored_norm(r), factored_norm(s)):
        assert abs(got - want) <= 1e-12 * want
    scale = want * state_norm(other)
    inner = state_inner(s, other)
    assert abs(state_inner(r, r_other) - inner) <= 1e-12 * scale
    # a common coefficient phase: real labels, complex coefficients
    phased = CsState(s.coeffs * np.exp(1j * phi), s.amps)
    for got in (state_norm(phased), factored_norm(phased)):
        assert abs(got - want) <= 1e-12 * want
    assert (abs(state_inner(other, phased) - np.exp(1j * phi) * inner)
            <= 1e-12 * scale)


@pytest.mark.parametrize("real", [True, False])
def test_blocked_self_product_matches_one_block(rng, monkeypatch, real):
    t = 103                                      # not a multiple of 8 rows
    s = CsState(random_complex(rng, t, 1.0),
                random_complex(rng, 3 * t, 2.0).reshape(t, 3))
    # real labels with real coefficients, or with complex ones
    states = ([CsState(s.coeffs.real, s.amps.real),
               CsState(s.coeffs, s.amps.real)] if real else [s])
    single = [state_inner(x, x) for x in states]
    monkeypatch.setattr(coherent, "GRAM_BLOCK", 8 * t)
    for x, want in zip(states, single):
        assert abs(state_inner(x, x) - want) <= 1e-13 * abs(want)
        assert abs(state_norm(x) ** 2 - want.real) <= 1e-12 * abs(want)


@pytest.mark.parametrize("real", [True, False])
def test_blocked_self_product_builds_half_the_overlaps(rng, monkeypatch,
                                                       real):
    t = 1500
    s = CsState(random_complex(rng, t, 1.0),
                random_complex(rng, 3 * t, 3.0).reshape(t, 3))
    if real:
        s = CsState(s.coeffs.real, s.amps.real)
    rows = coherent.GRAM_BLOCK // t
    assert t > rows                              # several row blocks
    built = []
    original = coherent._overlap_matrix

    def counted(a, ha, b, hb):
        k = original(a, ha, b, hb)
        built.append(k.size)
        return k

    monkeypatch.setattr(coherent, "_overlap_matrix", counted)
    blocked = state_inner(s, s)
    assert sum(built) <= (t * t + t * rows) // 2
    monkeypatch.setattr(coherent, "GRAM_BLOCK", t * t)
    single = state_inner(s, s)
    assert abs(blocked - single) <= 1e-13 * abs(single)


def test_multi_block_self_products_of_exact_one_by_thirteen(monkeypatch):
    # the exact (1,13) chain does not factor, so its norms are dense
    # self-products; those above 1024 terms take several row blocks
    import cghzsim.optics as optics
    from cghzsim import ProtocolParams, SelectionMode, build_cghz_circuit, run
    blocked = {}

    def recording(fn):
        def wrapper(s):
            t = s.term_count
            if t * t > coherent.GRAM_BLOCK:
                blocked.setdefault(t, s)
            return fn(s)
        return wrapper

    for module in (optics, coherent):
        monkeypatch.setattr(module, "state_norm",
                            recording(module.state_norm))
    run(build_cghz_circuit(ProtocolParams(1, 13, 2.0)),
        SelectionMode.exact())
    assert sorted(blocked) == [1536, 3072, 6144]
    for s in blocked.values():
        triangle = state_inner(s, s)
        full = state_inner(s, CsState(s.coeffs, s.amps))
        assert abs(triangle - full) <= 1e-13 * abs(full)


# ------------------------------------------------------------------ merge

def test_merge_combines_identical_labels():
    s = CsState([0.5, 0.5], [[1.0, -1.0], [1.0, -1.0]])
    merged = merge_terms(s)
    assert merged.term_count == 1
    assert merged.coeffs[0] == pytest.approx(1.0)


def test_merge_drops_zero_coefficient():
    s = CsState([1.0, 0.0], [[1.0], [2.0]])
    merged = merge_terms(s)
    assert merged.term_count == 1
    assert merged.amps[0, 0] == 1.0


def test_merge_tolerates_label_round_off():
    a = math.sqrt(2.0) * 1.3 / math.sqrt(2.0)  # 1.3 up to one ulp
    s = CsState([0.25, 0.25], [[a], [1.3]])
    assert merge_terms(s).term_count == 1


def test_merge_probe_invariance(rng):
    # |<probe|s> - <probe|merge(s)>| <= 10 * tol * term_count for states
    # with |amps| <= 1.5 on <= 3 modes
    tol = 1e-12
    for _ in range(50):
        m = int(rng.integers(1, 4))
        s = random_state(rng, max_terms=24, modes=m, max_amp=1.5)
        # plant near-duplicates so the merge actually fires
        jitter = s.amps + tol * 0.5 * random_complex(
            rng, s.term_count * m, 1.0).reshape(s.term_count, m)
        doubled = CsState(np.concatenate([s.coeffs, s.coeffs * 0.5]),
                          np.concatenate([s.amps, jitter]))
        probe = random_state(rng, max_terms=4, modes=m, max_amp=1.5)
        before = state_inner(probe, doubled)
        after = state_inner(probe, merge_terms(doubled))
        assert abs(before - after) <= 10 * tol * doubled.term_count


def _greedy_merge(s, tol=1e-12):
    """The O(T^2) greedy merge that merge_terms replaced: the reference
    for its parity tests.  Each unassigned term in order becomes a
    representative and absorbs every later term within tol in max-norm."""
    t = s.term_count
    if t == 0:
        return s
    coeffs, amps = s.coeffs, s.amps
    rep_rows, rep_coeffs = [], []
    assigned = np.zeros(t, dtype=bool)
    for i in range(t):
        if assigned[i]:
            continue
        if i + 1 < t:
            rest = slice(i + 1, t)
            d = np.abs(amps[rest] - amps[i])
            dmax = d.max(axis=1) if d.shape[1] else np.zeros(d.shape[0])
            close = (dmax <= tol) & ~assigned[rest]
        else:
            close = np.zeros(0, bool)
        total = coeffs[i]
        if close.any():
            idx = np.nonzero(close)[0] + i + 1
            total = total + coeffs[idx].sum()
            assigned[idx] = True
        assigned[i] = True
        rep_rows.append(i)
        rep_coeffs.append(total)
    new_coeffs = np.asarray(rep_coeffs, dtype=np.complex128)
    mags = np.abs(new_coeffs)
    keep = mags > tol * (mags.max() if mags.size else 0.0)
    return CsState(new_coeffs[keep], amps[rep_rows][keep])


def _planted_state(seed):
    """Random state whose distinct labels sit on a lattice of spacing
    0.37 (far above the merge tolerance), with some rows repeated under
    a jitter of at most 1e-15 per component."""
    rng = np.random.default_rng(seed)
    t, m = int(rng.integers(1, 40)), int(rng.integers(1, 5))
    amps = 0.37 * (rng.integers(-3, 4, (t, m))
                   + 1j * rng.integers(-1, 2, (t, m)))
    coeffs = random_complex(rng, t, 1.0)
    dup = rng.integers(0, t, int(rng.integers(0, 2 * t)))
    jitter = rng.uniform(-1e-15, 1e-15, (dup.size, m, 2)) @ [1, 1j]
    rows = rng.permutation(t + dup.size)
    return CsState(np.concatenate([coeffs, random_complex(rng, dup.size,
                                                          1.0)])[rows],
                   np.concatenate([amps, amps[dup] + jitter])[rows])


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_merge_matches_greedy_reference(seed):
    s = _planted_state(seed)
    got, ref = merge_terms(s), _greedy_merge(s)
    assert got.term_count == ref.term_count
    assert np.array_equal(got.amps, ref.amps)   # same rows, same order
    assert np.max(np.abs(got.coeffs - ref.coeffs), initial=0.0) <= 1e-14


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_merge_is_idempotent(seed):
    once = merge_terms(_planted_state(seed))
    twice = merge_terms(once)
    assert np.array_equal(twice.amps, once.amps)
    assert np.array_equal(twice.coeffs, once.coeffs)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_merge_commutes_with_row_permutation(seed):
    s = _planted_state(seed)
    perm = np.random.default_rng(seed + 1).permutation(s.term_count)
    a = merge_terms(s)
    b = merge_terms(CsState(s.coeffs[perm], s.amps[perm]))

    def by_label(x):
        key = np.round(x.amps, 6)
        order = np.lexsort(np.concatenate([key.real, key.imag], axis=1).T)
        return x.coeffs[order], x.amps[order]

    (ca, aa), (cb, ab) = by_label(a), by_label(b)
    assert a.term_count == b.term_count
    assert np.max(np.abs(aa - ab), initial=0.0) <= 1e-14
    assert np.max(np.abs(ca - cb), initial=0.0) <= 1e-14


def test_merge_zero_mode_state_sums_to_one_term():
    s = CsState([0.5, 0.25, 0.25j], np.zeros((3, 0)))
    merged = merge_terms(s)
    assert merged.term_count == 1
    assert merged.mode_count == 0
    assert merged.coeffs[0] == pytest.approx(0.75 + 0.25j, abs=1e-15)


def test_merge_drops_single_zero_coefficient_term():
    merged = merge_terms(CsState([0.0], [[1.0, -1.0]]))
    assert merged.term_count == 0
    assert merged.mode_count == 2


def test_merge_tolerance_chains_within_a_component():
    # 0 and 1.6e-12 are farther apart than tol, but 0.8e-12 bridges them
    s = CsState([1.0, 1.0, 1.0], [[0.0], [1.6e-12], [0.8e-12]])
    assert merge_terms(s).term_count == 1
    apart = CsState([1.0, 1.0], [[0.0], [1.6e-12]])
    assert merge_terms(apart).term_count == 2


def above_the_gate(s):
    """Whether state_norm groups the modes of s, so merge_terms labels
    it."""
    return coherent._grouped(s.amps)


def _gapped_state(seed, complex_labels=False):
    """A state above the grouping gate: lattice rows of spacing 0.37,
    with copies shifted by round-off (a 4e-16 label gap, as the exact
    (2,6) build carries) and three planted rows whose labels in mode 0
    chain within the merge tolerance: v, v + 0.8e-12 and v + 1.6e-12.
    The middle row either merges into the first (its other labels equal
    the first's) or carries a zero coefficient, so a merge drops it; the
    last differs from both in mode 1.  So after the merge the clusters
    of mode 0 are taken over the values still present."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 6))
    t = int(rng.integers(400, 700))
    lattice = 0.37 * rng.integers(-3, 4, (t, m)).astype(complex)
    if complex_labels:
        lattice += 0.37j * rng.integers(-1, 2, (t, m))
    gapped = lattice[rng.integers(0, t, int(rng.integers(1, t // 2)))]
    gapped[rng.uniform(size=gapped.shape) < 0.5] += 4e-16
    # off the lattice, so no other row shares the chain's clusters
    chain = np.full((3, m), 2.3, dtype=complex)
    chain[:, 0] = 1.9 + np.array([0.0, 0.8e-12, 1.6e-12])
    chain[2, 1] += 0.37
    coeffs = rng.uniform(-1.0, 1.0, t + len(gapped) + 3)
    if complex_labels:
        coeffs = coeffs + 1j * rng.uniform(-1.0, 1.0, coeffs.size)
    if rng.integers(2):
        chain[1, 1] -= 0.37                  # alone, and dropped
        coeffs[-2] = 0.0
    amps = np.concatenate([lattice, gapped, chain])
    rows = rng.permutation(len(amps))
    return CsState(coeffs[rows],
                   amps[rows] if complex_labels else amps[rows].real)


@contextlib.contextmanager
def below_the_gate():
    """No state is grouped or labelled while this holds."""
    saved = coherent._GROUPING_COST
    coherent._GROUPING_COST = math.inf
    try:
        yield
    finally:
        coherent._GROUPING_COST = saved


def assert_fresh_labels(s):
    """The labelling s carries equals one coded from its labels."""
    fresh = coherent._code_labels(s.amps)
    for got, want in zip(s._labels, fresh):
        assert np.array_equal(got, want)
    assert not s._labels.codes.flags.writeable


@given(st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=40, deadline=None)
def test_labelled_merge_matches_greedy_reference(seed, complex_labels):
    s = _gapped_state(seed, complex_labels)
    assert above_the_gate(s)
    got, ref = merge_terms(s), _greedy_merge(s)
    assert s._labels is not None
    assert got.term_count == ref.term_count < s.term_count
    assert np.array_equal(got.amps, ref.amps)   # same rows, same order
    assert np.max(np.abs(got.coeffs - ref.coeffs), initial=0.0) <= 1e-14
    # an output with other rows than s carries no labelling; a second
    # merge joins and drops nothing, and codes one if the output is above
    # the gate
    assert got._labels is None
    assert merge_terms(got) is got
    if above_the_gate(got):
        assert_fresh_labels(got)


def _wide_state():
    """A state above the gate on 24 modes: 1500 rows on the 0.37
    lattice, some copied with 4e-16 shifts.  Its 24 components have 7
    clusters each, 7^24 > 2^67 cluster rows in all."""
    rng = np.random.default_rng(24)
    lattice = 0.37 * rng.integers(-3, 4, (1500, 24)).astype(float)
    shifted = lattice[rng.integers(0, 1500, 500)]
    shifted[rng.uniform(size=shifted.shape) < 0.5] += 4e-16
    amps = np.concatenate([lattice, shifted])
    return CsState(rng.uniform(-1.0, 1.0, len(amps)), amps)


@given(st.builds(_gapped_state, st.integers(0, 2**32 - 1), st.booleans()))
@settings(max_examples=40, deadline=None)
@example(_wide_state())
# a product state whose norm takes the factored sum, with 200 rows
# repeated, so the merge joins them
@example(real_product_state(np.random.default_rng(7),
                            [(12, 3), (12, 3), (12, 2)], keep=0.5,
                            repeat=200))
def test_labelled_merge_matches_the_float_clusters(s):
    # the same state merged with its labelling and without one, as a
    # state below the gate is
    assert above_the_gate(s)
    labelled = merge_terms(s)
    with below_the_gate():
        plain = merge_terms(CsState(s.coeffs, s.amps))
    assert plain._labels is None
    assert np.array_equal(labelled.amps, plain.amps)
    assert labelled.coeffs.tobytes() == plain.coeffs.tobytes()
    # the merge joins rows and hands its output no labelling; the norm
    # codes the output's own rows
    assert labelled is not s and labelled._labels is None
    a, c = labelled.amps, labelled.coeffs
    want = math.sqrt(coherent._gram_sum(a, c, a, c).real)
    assert abs(state_norm(labelled) - want) <= 1e-14 * want


def test_a_merge_that_joins_nothing_returns_its_input(monkeypatch):
    final, _ = exact_final_state(2, 6)
    s = CsState(final.coeffs, final.amps)
    assert above_the_gate(s)
    assert merge_terms(s) is s
    assert_fresh_labels(s)
    # the norm reads the labelling the merge coded
    monkeypatch.setattr(coherent, "_code_labels", None)
    assert abs(state_norm(s) - 1.0) <= 1e-12


def test_merge_returns_a_state_with_no_terms():
    s = CsState(np.zeros(0), np.zeros((0, 3)))
    assert merge_terms(s) is s


def test_kernels_never_write_a_labelling(rng):
    from cghzsim.optics import (add_mode, apply_bs, apply_hadamard,
                                select_vacuum, split_mode)
    s = normalize(merge_terms(_gapped_state(int(rng.integers(2**32)))))
    assert above_the_gate(s)
    lab = coherent._labels(s)
    before = [x.copy() for x in lab]
    outs = [add_mode(s, 0.5), apply_bs(s, 0, 1), split_mode(s, 0),
            apply_hadamard(s, 0, 1.0, "project"), normalize(s),
            merge_terms(s), select_vacuum(s, 0, SelectionMode.exact())[0],
            select_vacuum(s, 0, SelectionMode.branch())[0]]
    state_norm(s)
    assert s._labels is lab
    for got, want in zip(lab, before):
        assert np.array_equal(got, want) and not got.flags.writeable
    # every output but s itself carries no labelling
    for out in outs:
        assert out is s or out._labels is None


# -------------------------------------------------- normalization constants

@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 5.0, 10.0])
def test_norm_const_self_consistency(alpha):
    q = math.exp(-2 * alpha * alpha)
    assert cat_norm(alpha, 1) ** 2 * (1 + q) == pytest.approx(
        1.0, abs=1e-12)
    if q < 1 - 1e-15:
        assert cat_norm(alpha, -1) ** 2 * (1 - q) == (
            pytest.approx(1.0, abs=1e-12))
    for k in range(1, 9):
        qk = math.exp(-2 * k * alpha * alpha)
        assert ghz_norm(k, alpha, 1) ** 2 * 2 * (
            1 + qk) == pytest.approx(1.0, abs=1e-12)
        assert ghz_norm(k, alpha, -1) ** 2 * 2 * (
            1 - qk) == pytest.approx(1.0, abs=1e-12)


def test_norm_const_reference_points():
    assert cat_norm(1.0, 1) == pytest.approx(
        (1 + E2) ** -0.5, abs=1e-15)
    assert ghz_norm(2, 1.0, 1) == pytest.approx(
        (2 * (1 + math.exp(-4.0))) ** -0.5, abs=1e-15)


def test_norm_const_odd_cat_limit():
    # exp(-200) underflows: the odd constant coincides with 1
    assert cat_norm(10.0, -1) == pytest.approx(
        1.0, abs=1e-15)


def test_norm_const_domain_errors():
    with pytest.raises(DomainError):
        cat_norm(0.0, 1)
    with pytest.raises(DomainError):
        cat_norm(-1.0, 1)
    with pytest.raises(DomainError):
        ghz_norm(1, 1e-9, -1)
    with pytest.raises(DomainError):
        cat_norm(1.0, 0)
    with pytest.raises(DomainError):
        ghz_norm(0, 1.0, 1)


# ------------------------------------------------------------ state checks

def test_state_rejects_non_finite():
    with pytest.raises(DomainError):
        CsState([complex("inf")], [[1.0]])
    with pytest.raises(DomainError):
        CsState([1.0], [[float("nan")]])


@pytest.mark.parametrize("coeffs,amps,want", [
    ([1, -2], [[0, 3], [1, -1]], (np.float64, np.float64)),
    ([0.5, -0.25], [[1.5, 0.0], [-1.5, 2.0]], (np.float64, np.float64)),
    (np.array([1 + 0j, -0.0j]), np.array([[1.5 - 0.0j], [0j]]),
     (np.float64, np.float64)),
    ([1j, 1.0], [[1.5], [-1.5]], (np.complex128, np.float64)),
    ([1.0, 1.0], [[1.5], [0.5 + 1e-300j]], (np.float64, np.complex128)),
    (np.array([1, 2], dtype=np.complex64), [[1.0], [2.0]],
     (np.float64, np.float64)),
    ([], np.zeros((0, 3), dtype=complex), (np.float64, np.float64)),
])
def test_constructor_stores_float64_exactly_when_the_data_is_real(
        coeffs, amps, want):
    s = CsState(coeffs, amps)
    assert (s.coeffs.dtype, s.amps.dtype) == want
    np.testing.assert_array_equal(s.coeffs, np.asarray(coeffs))
    np.testing.assert_array_equal(s.amps, np.asarray(amps))


def random_real_state(rng, max_terms=64, modes=3, max_amp=3.0):
    t = int(rng.integers(1, max_terms + 1))
    return CsState(rng.uniform(-1.0, 1.0, t),
                   rng.uniform(-max_amp, max_amp, (t, modes)))


def test_real_states_sum_as_their_complex_twins(rng):
    for _ in range(50):
        m = int(rng.integers(1, 5))
        s = random_real_state(rng, modes=m)
        other = random_real_state(rng, modes=m)
        # repeated labels, so the factored path has structure to find
        rows = rng.integers(0, 3, (300, m))
        grid = CsState(rng.uniform(-1.0, 1.0, 300),
                       np.array([-1.5, 0.0, 1.5])[rows])
        for x in (s, other, grid):
            assert x.coeffs.dtype == x.amps.dtype == np.float64
            assert abs(state_norm(x) - state_norm(complex_twin(x))) <= (
                1e-13 * state_norm(x))
        scale = state_norm(s) * state_norm(other)
        for a, b in ((s, other), (complex_twin(s), other),
                     (s, complex_twin(other))):
            assert abs(state_inner(a, b) - state_inner(
                complex_twin(s), complex_twin(other))) <= 1e-13 * scale
        assert isinstance(state_inner(s, other), complex)


@pytest.mark.parametrize("call", [
    lambda big: state_norm(big),
    lambda big: normalize(big),
    lambda big: state_inner(big, CsState([2e160], [[0.0]])),
    lambda big: select_vacuum(
        CsState([1e300, 1e300], [[0.0, 0.0], [0.0, 1.0]]), 0,
        SelectionMode.exact()),
], ids=["state_norm", "normalize", "state_inner", "select_vacuum"])
def test_a_gram_sum_that_overflows_raises_domain_error(call):
    # each Gram sum overflows to inf; unchecked, that gives a norm of inf,
    # a state of zero coefficients or a kept_prob of 1
    big = CsState([1e160], [[0.0]])
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            DomainError, match="not finite"):
        call(big)


def test_state_arrays_are_read_only():
    s = coherent_product([1.0])
    with pytest.raises(ValueError):
        s.coeffs[0] = 2.0
    with pytest.raises(ValueError):
        s.amps[0, 0] = 2.0


def test_constructor_copies_and_adopt_wraps_without_copying():
    coeffs = np.array([0.6, 0.8], dtype=np.complex128)
    amps = np.array([[1.0, 2.0], [-1.0, 0.5j]])
    public = CsState(coeffs, amps)
    assert not np.shares_memory(public.coeffs, coeffs)
    assert not np.shares_memory(public.amps, amps)
    assert coeffs.flags.writeable and amps.flags.writeable
    adopted = CsState._adopt(coeffs, amps)
    assert adopted.coeffs is coeffs and adopted.amps is amps
    assert not coeffs.flags.writeable and not amps.flags.writeable
    # a state's own read-only arrays are taken as they are
    shared = CsState._adopt(public.coeffs, public.amps)
    assert shared.coeffs is public.coeffs and shared.amps is public.amps


@pytest.mark.parametrize("bad", ["coeffs", "amps"])
@pytest.mark.parametrize("value", [complex("inf"), complex("nan"),
                                   complex(1.0, float("-inf"))])
def test_adopt_keeps_the_finiteness_checks(bad, value):
    arrays = {"coeffs": np.ones(2, dtype=np.complex128),
              "amps": np.ones((2, 3), dtype=np.complex128)}
    arrays[bad].flat[-1] = value
    with pytest.raises(DomainError):
        CsState._adopt(arrays["coeffs"], arrays["amps"])


def test_merge_and_normalize_outputs_are_read_only(rng):
    for _ in range(20):
        s = random_state(rng, max_terms=16, modes=3, max_amp=2.0)
        for out in (merge_terms(s), normalize(s)):
            assert not out.coeffs.flags.writeable
            assert not out.amps.flags.writeable
