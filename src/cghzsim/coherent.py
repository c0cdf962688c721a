"""Exact algebra of finite superpositions of multimode coherent states.

A state is stored as a list of product terms

    |psi> = sum_i c_i |a_i1>|a_i2>...|a_iM>,

where each |a> is a coherent state labelled by a complex amplitude.
Coherent states are never orthogonal, so every norm and inner product is
evaluated through the exact pairwise Gram sum

    <a|b> = exp(-(|a|^2 + |b|^2)/2 + conj(a) b),

with no orthogonalization or truncation attempted anywhere: exactness
over the nonorthogonal term basis is the whole point of this
representation.  The sum is evaluated in one of two exact ways:

* dense, in blocks of rows of at most GRAM_BLOCK overlaps, so no T1 x T2
  matrix is ever held at once (``state_inner``, and ``state_norm`` on
  states without structure).  Every self-product sums the upper
  triangle: each row block is contracted with the columns from its own
  first row on, and the pairs past the block count twice, as 2 Re, which
  builds about half the overlaps.  One block is the whole matrix;
* factored (``state_norm`` only): when the modes fall into groups whose
  distinct label rows L_g make a small zero-padded product, the
  coefficients are scattered into a tensor over those rows and
  contracted with one L_g x L_g Gram table per group, at a cost of
  prod(L) * sum(L) instead of T^2.  Circuit states have this structure:
  the exact (2,6) state factors into two groups of 48 rows and the
  20736 terms of exact (4,4) into four groups of 12.

``state_norm`` takes whichever a cost estimate from T and the group
sizes says is cheaper.

The grouping and ``merge_terms`` share one private labelling of a
state's labels: exact integer codes (the rank of each label among the
distinct values of its component), the count of those values and the
values themselves, from one sort per component.  One rule says which
states carry it: only a state whose norm groups it (``_grouped``), coded
by ``_labels`` when the merge or the norm first reads it.  A merge that
joins and drops nothing returns its input, and so its labelling: a merge
and the norm after it, in ``select_vacuum`` and ``apply_hadamard``, sort
the labels once.  A merge that changes the rows returns a state with no
labelling.

Both ways compute in real arithmetic what is real.  For real labels
conj(a) b - (|a|^2 + |b|^2)/2 = -|a - b|^2/2, so the overlaps are
positive float64 values, and real coefficients are summed as float64.
Complex coefficients promote the real Gram block or table they meet to
complex.

A state's dtype follows its data, and is decided once, when the state
is made: each of its two arrays is float64 while every entry of it is
real, and complex128 otherwise.  Protocol circuits at real alpha have
only real labels and coefficients, so they run in float64 end to end.
The kernels keep an array's dtype through NumPy promotion: a complex
prep amplitude or a complex Hadamard image promotes a state, and
nothing demotes one, so once complex an array stays complex128, even
after a selection removes its last complex label.  The Gram, merge and
grouping code reads realness from the dtype.

All operations are pure; states are immutable after construction (the
labelling, a cache of what the labels already say, is set once, and its
arrays are read-only too).  The public constructor copies its arguments
into read-only arrays of the dtype their data needs.  Kernels build
their output once, through ``CsState._adopt``, which wraps arrays the
kernel just built, or read-only arrays of its input state, without
copying them; it keeps the constructor's finiteness checks and sets both
arrays read-only.  Only ``_labels`` sets a labelling.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ModeShapeError, ZeroStateError

# Coherent overlaps smaller than this in magnitude are flushed to exactly
# zero: alpha = 10 sweeps produce exp(-200)-scale overlaps whose products
# would otherwise denormalize.
OVERLAP_FLUSH = 1e-300

# Squared norms may round off slightly negative for nearly parallel terms.
NEGATIVE_NORM_TOL = 1e-12

DEFAULT_MERGE_TOL = 1e-12

# A norm at or below this is refused as vanishing, and a probability at
# or below its square (1e-24), by both the analytic and the number-basis
# pipelines.
ZERO_NORM = 1e-12

# Overlaps a dense Gram sum holds at once (16 MiB of complex128, 8 MiB
# of float64); it is evaluated in blocks of rows below this bound.  The
# factored norm uses it too, as the largest zero-padded coefficient
# tensor it builds.
GRAM_BLOCK = 1 << 20

# Cost model of state_norm, in dense Gram elements (one complex
# exponential with its share of the label product, about 30 ns): the
# grouping of the modes, per mode (one sort of its labels, shared with a
# merge before the norm, and about 20 NumPy calls over the codes of
# every group so far; on the grouped states of exact (2,4) to (2,6), 576
# to 2304 terms, the sort measures 10 to 27 us and the grouping 29 to 42
# us a mode, 1300 to 2300 elements together, one BLAS thread; lowering
# the constant to 2000, 1500 or 1000 made a pass of exact_large's runs
# 1 %, 3 % and 6 % slower, so it stays); one group's table and
# contraction step, its fixed part (about 16 calls); one multiply-add of
# the contraction; and one dense element on real labels (a real
# exponential; a T = 256, M = 15 self-product takes 0.77 ms real against
# 5.0 ms complex).
_GROUPING_COST = 3000
_TABLE_COST = 1600
_MAC_COST = 0.05
_REAL_DENSE_COST = 0.15


class CsState:
    """Finite coherent superposition over a fixed number of modes.

    Term data is held in two read-only arrays: ``coeffs`` with shape (T,)
    and ``amps`` with shape (T, M).  Each is float64 when none of its
    entries has an imaginary part, and complex128 otherwise.
    """

    __slots__ = ("coeffs", "amps", "_labels")

    def __init__(self, coeffs, amps):
        coeffs = _as_real(np.array(coeffs, dtype=np.complex128).reshape(-1))
        amps = _as_real(np.array(amps, dtype=np.complex128))
        if amps.size == 0:
            amps = amps.reshape(len(coeffs), 0 if amps.ndim < 2
                                else amps.shape[1])
        if amps.ndim != 2 or amps.shape[0] != coeffs.shape[0]:
            raise ModeShapeError(
                f"amps shape {amps.shape} does not match {len(coeffs)} terms")
        self._freeze(coeffs, amps)

    @classmethod
    def _adopt(cls, coeffs: np.ndarray, amps: np.ndarray) -> "CsState":
        """Wrap float64 or complex128 arrays (T,) and (T, M) without
        copying them.

        For kernels: the arrays are ones the kernel just built, or
        read-only arrays of its input state, of matching shapes, each of
        the dtype NumPy promotion gave it from the kernel's inputs.  They
        pass the constructor's finiteness checks, so arithmetic that
        overflowed still raises DomainError, and are set read-only.
        """
        self = object.__new__(cls)
        self._freeze(coeffs, amps)
        return self

    def _freeze(self, coeffs: np.ndarray, amps: np.ndarray):
        """Check that every entry is finite, set both arrays read-only and
        keep them.  A read-only array is a state's, checked when that
        state was made, and is not checked again."""
        for x, what in ((coeffs, "coefficient"), (amps, "amplitude")):
            if x.flags.writeable:
                # count_nonzero: ndarray.all() costs twice as much on a
                # few dozen entries
                if np.count_nonzero(np.isfinite(x)) < x.size:
                    raise DomainError(f"non-finite {what} in state")
                x.setflags(write=False)
        self.coeffs = coeffs
        self.amps = amps
        self._labels = None

    @property
    def mode_count(self) -> int:
        return self.amps.shape[1]

    @property
    def term_count(self) -> int:
        return self.coeffs.shape[0]

    def __repr__(self):
        return f"CsState(modes={self.mode_count}, terms={self.term_count})"


def _as_real(x: np.ndarray) -> np.ndarray:
    """x, or a contiguous float64 copy of its real part when x is complex
    with no imaginary part; one pass over x decides.  The one realness
    test: the CsState constructor and the oracle's coherent vectors take
    their dtype from it.  The copy is contiguous so that BLAS can take
    label products: NumPy runs products of the strided .real view in its
    own loop, which took 6.0 against 3.2 ms for a 21 x 49150 block at 16
    modes (one thread)."""
    if x.dtype.kind == "c" and not np.count_nonzero(x.imag):
        return np.ascontiguousarray(x.real)
    return x


def _half_norms(x: np.ndarray) -> np.ndarray:
    """|x_i|^2 / 2 of every label row of x (T, M)."""
    return 0.5 * np.einsum("ij,ij->i", x, x.conj()).real


def _overlap_matrix(a: np.ndarray, ha: np.ndarray,
                    b: np.ndarray, hb: np.ndarray) -> np.ndarray:
    """Pairwise products of per-mode overlaps of label rows a (T1, M) and
    b (T2, M), given their halved squared row norms ha and hb
    (_half_norms): K[i, j] = prod_k <a_ik|b_jk>.

    The per-mode log-overlaps are summed first and exponentiated once, so
    deeply suppressed products never underflow partway.  When a and b are
    both real arrays K is float64 (conj(a) b - (|a|^2 + |b|^2)/2 is then
    -|a - b|^2/2, so every overlap is positive); otherwise K is
    complex128.  A state's real labels are float64 arrays already.
    """
    # np.conjugate returns a new array even for real a, so a self-product
    # runs as a gemm: NumPy sends a @ a.T to BLAS syrk, which took 3-5x
    # longer at T = 512-1024 and 13-16 modes
    k = np.conjugate(a) @ b.T
    k -= ha[:, None]
    k -= hb
    np.exp(k, out=k)
    k[(k if k.dtype.kind == "f" else np.abs(k)) < OVERLAP_FLUSH] = 0.0
    return k


def state_inner(s1: CsState, s2: CsState) -> complex:
    """Gram inner product <s1|s2> = sum_ij conj(c_i) d_j prod_k <a_ik|b_jk>.

    Real (float64) labels and coefficients give a Gram block computed and
    summed in float64.  A sum that overflows raises DomainError.
    """
    if s1.mode_count != s2.mode_count:
        raise ModeShapeError(
            f"mode counts differ: {s1.mode_count} vs {s2.mode_count}")
    total = _gram_sum(s1.amps, s1.coeffs, s2.amps, s2.coeffs)
    if not cmath.isfinite(total):
        raise DomainError(f"inner product {total} is not finite")
    return total


def _gram_sum(a: np.ndarray, c: np.ndarray,
              b: np.ndarray, d: np.ndarray) -> complex:
    """sum_ij conj(c_i) d_j K[i, j] over the overlaps K of label rows a
    and b; a self-product passes the same arrays twice.

    The Gram matrix is built and summed in blocks of rows of a holding at
    most GRAM_BLOCK overlaps each, so memory stays bounded at any term
    count.  A self-product sums the upper triangle: each row block is
    contracted with the columns from its own first row on, and the pairs
    past the block count twice, as 2 Re, which builds about half the
    overlaps.  One block is the whole matrix.
    """
    t1, t2 = len(a), len(b)
    if t1 == 0 or t2 == 0:
        return 0.0 + 0.0j
    self_product = b is a
    ha = _half_norms(a)
    hb = ha if self_product else _half_norms(b)
    rows = max(1, GRAM_BLOCK // t2)
    total = 0
    for lo in range(0, t1, rows):
        hi = lo + rows
        if not self_product:
            cols, w = slice(None), d
        else:
            # the block's own columns once, the columns past it twice
            cols = slice(lo, None)
            w = (d[lo:] if hi >= t1
                 else np.concatenate((d[lo:hi], 2 * d[hi:])))
        # unnamed, so each block is freed before the next is built; a
        # block kept alive a step longer made exact (1,14) 12 % slower
        total += c[lo:hi].conj() @ (
            _overlap_matrix(a[lo:hi], ha[lo:hi], b[cols], hb[cols]) @ w)
    return complex(total.real if self_product else total)


def _distinct_pairs(a: np.ndarray, la: int,
                    b: np.ndarray, lb: np.ndarray) -> np.ndarray:
    """Number of distinct code pairs (a[t], b[p, t]) over t, for each row
    p of b (P, T); a (T,) has la codes and row p of b has lb[p]."""
    key = a * lb[:, None] + b
    span = la * lb
    if span.sum() <= key.size:
        # each row's keys land in a bin range of their own
        offsets = np.cumsum(span) - span
        seen = np.bincount((key + offsets[:, None]).ravel(),
                           minlength=int(span.sum())) > 0
        return np.add.reduceat(seen, offsets, dtype=np.intp)
    srt = np.sort(key, axis=1)
    return 1 + np.count_nonzero(srt[:, 1:] != srt[:, :-1], axis=1)


def _recode(key: np.ndarray, span: int) -> tuple[np.ndarray, int]:
    """Codes 0..L-1 of the distinct values of ``key`` (all below span)."""
    if span <= key.size:
        remap = np.cumsum(np.bincount(key, minlength=span) > 0) - 1
        return remap[key], int(remap[-1]) + 1
    values, codes = np.unique(key, return_inverse=True)
    return codes.reshape(-1), values.size


class _Labels(NamedTuple):
    """The exact coding of a state's labels, one row per label component:
    the modes of real labels, or the real and imaginary parts of complex
    ones (the columns of ``amps.view(np.float64)``)."""

    codes: np.ndarray    # (C, T): rank of each label among its row's values
    sizes: np.ndarray    # (C,): distinct values of each component
    values: np.ndarray   # (sum(sizes),): those values, ascending, row by row


def _components(amps: np.ndarray) -> np.ndarray:
    """The label components of label rows amps (T, M), one contiguous
    row each (C, T): the modes of real labels, or the real and imaginary
    parts of complex ones."""
    x = amps if amps.dtype.kind == "f" else (
        np.ascontiguousarray(amps).view(np.float64))
    return np.ascontiguousarray(x.T)


def _code_labels(amps: np.ndarray) -> _Labels:
    """The labelling of label rows amps (T, M): one sort per component.
    Labels that differ at all get different codes, so the codes are
    exact.  Its arrays are set read-only, as a state's are."""
    comps = _components(amps)
    srt = np.sort(comps, axis=1)
    new = np.empty(srt.shape, dtype=bool)
    new[:, :1] = True
    np.not_equal(srt[:, 1:], srt[:, :-1], out=new[:, 1:])
    sizes = np.count_nonzero(new, axis=1)
    values = srt[new]
    # the smallest unsigned dtype that holds every code
    codes = np.empty(comps.shape,
                     dtype=np.min_scalar_type(sizes.max(initial=1) - 1))
    ends = np.cumsum(sizes).tolist()
    for c, (lo, hi) in enumerate(zip([0] + ends, ends)):
        codes[c] = np.searchsorted(values[lo:hi], comps[c])
    for x in (codes, sizes, values):
        x.setflags(write=False)
    return _Labels(codes, sizes, values)


def _labels(s: CsState) -> _Labels:
    """The labelling of s, coded on first use and kept with s."""
    if s._labels is None:
        s._labels = _code_labels(s.amps)
    return s._labels


def _mode_groups(lab: _Labels,
                 complex_labels: bool) -> list[tuple[np.ndarray, int, list]]:
    """Partition the modes into groups whose distinct label rows make a
    cheap zero-padded product, from the labelling lab of their labels.

    Each mode's labels get integer codes; labels that differ at all get
    different codes (complex ones are coded by the pair of their parts'
    codes).  One pass then takes the modes in order.  With
    L_k the number of distinct label rows of group k, S = sum(L) so far
    and l the mode's label count, the mode joins the group whose joint
    row count n gives the lowest ratio n (S - L_k + n) / (L_k l (S + l))
    of the contraction cost prod(L) * sum(L) with and without the mode
    in it, if that ratio is below 1; otherwise it starts a group of its
    own.  So a mode whose codes split the terms as a group's do joins it.
    Returns (codes (T,), L, modes) per group; a mode with one label in
    every term is in no group.
    """
    if complex_labels:
        # (re, im) code pairs, ranked as the complex labels sort
        re, im = lab.codes[0::2], lab.codes[1::2]
        ls_re, ls_im = lab.sizes[0::2].tolist(), lab.sizes[1::2].tolist()
        pairs = [_recode(r.astype(np.intp) * li + i, lr * li)
                 for r, i, lr, li in zip(re, im, ls_re, ls_im)]
        codes = [c for c, _ in pairs]
        sizes = np.array([size for _, size in pairs], dtype=np.intp)
    else:
        codes, sizes = lab.codes, lab.sizes
    groups = []
    for x in np.flatnonzero(sizes > 1).tolist():
        lx = int(sizes[x])
        if groups:
            ls = np.array([size for _, size, _ in groups])
            total = ls.sum()
            joint = _distinct_pairs(
                codes[x], lx, np.array([c for c, _, _ in groups]), ls)
            ratio = joint * (total - ls + joint) / (ls * lx * (total + lx))
            k = int(np.argmin(ratio))
            if ratio[k] < 1.0:
                ck, lk, mk = groups[k]
                groups[k] = (*_recode(ck * lx + codes[x], lk * lx), mk + [x])
                continue
        groups.append((codes[x].astype(np.intp), lx, [x]))
    return groups


def _factored_norm_sq(amps: np.ndarray, coeffs: np.ndarray,
                      groups) -> float:
    """<s|s> from per-group Gram tables, for the labels and coefficients
    of s, float64 or complex128 arrays as s holds them.

    The coefficients are scattered into a zero-padded tensor C over the
    groups' distinct rows; <s|s> = sum_xy conj(C[x]) C[y] prod_g K_g[x_g,
    y_g], applied one group axis at a time.  Zero padding adds nothing,
    so this equals the dense sum up to round-off.
    """
    t = len(coeffs)
    flat = np.zeros(t, dtype=np.intp)
    for codes, size, _ in groups:
        flat = flat * size + codes
    cells = math.prod(size for _, size, _ in groups)
    c = np.bincount(flat, coeffs.real, cells)
    if coeffs.dtype.kind == "c":
        c = c + 1j * np.bincount(flat, coeffs.imag, cells)
    x = c
    for codes, size, modes in groups:
        first = np.empty(size, dtype=np.intp)
        first[codes] = np.arange(t)
        rows = amps[first][:, modes]
        h = _half_norms(rows)
        # contract the leading axis, which comes back last
        x = x.reshape(size, -1).T @ _overlap_matrix(rows, h, rows, h).T
    return float(np.vdot(c, x.reshape(-1)).real)


def _dense_cost(amps: np.ndarray) -> float:
    """The dense self-product's cost in Gram elements: T^2, weighted by
    _REAL_DENSE_COST when the labels are real (float64)."""
    t = len(amps)
    return t * t * (_REAL_DENSE_COST if amps.dtype.kind == "f" else 1.0)


def _grouped(amps: np.ndarray) -> bool:
    """Whether state_norm groups the modes of a state with label rows
    amps (T, M): its dense sum costs more than grouping them.  Only the
    states it holds for carry a labelling."""
    return _dense_cost(amps) > _GROUPING_COST * amps.shape[1]


def _norm_sq(s: CsState) -> float:
    """<s|s> by whichever of the factored and dense sums costs less.

    The dense sum costs T^2 Gram elements, each weighted by
    _REAL_DENSE_COST when the labels are real (float64).  Grouping the
    modes is tried only when it costs less than the dense sum
    (_grouped), and the
    factored sum is taken when its tables (sum L^2 elements), its
    contraction (prod(L) * sum(L) multiply-adds) and its per-group
    overhead cost less too, and its zero-padded tensor (prod(L) entries)
    fits in GRAM_BLOCK.
    """
    a, c = s.amps, s.coeffs
    t = len(c)
    if _grouped(a):
        groups = _mode_groups(_labels(s), a.dtype.kind == "c")
        sizes = [size for _, size, _ in groups]
        cells = math.prod(sizes)
        factored = (sum(size * size + t + _TABLE_COST for size in sizes)
                    + cells * sum(sizes) * _MAC_COST)
        if cells <= GRAM_BLOCK and factored < _dense_cost(a):
            return _factored_norm_sq(a, c, groups)
    return _gram_sum(a, c, a, c).real


def state_norm(s: CsState) -> float:
    """Euclidean norm sqrt(<s|s>); tiny negative round-off is clamped to
    0, and a sum that overflows raises DomainError."""
    sq = _norm_sq(s)
    if not math.isfinite(sq):
        raise DomainError(f"squared norm {sq} is not finite")
    if sq < 0.0:
        if sq < -NEGATIVE_NORM_TOL:
            raise DomainError(
                f"squared norm {sq} is negative beyond round-off")
        sq = 0.0
    return math.sqrt(sq)


def normalize(s: CsState) -> CsState:
    """Scale to unit norm; a vanishing norm signals a dead branch."""
    n = state_norm(s)
    if n <= ZERO_NORM:
        raise ZeroStateError(f"cannot normalize state with norm {n}")
    return CsState._adopt(s.coeffs / n, s.amps)


def merge_terms(s: CsState) -> CsState:
    """Combine terms with coinciding amplitude labels.

    Each real and (for complex labels) imaginary component of the labels
    is cut into clusters wherever two neighbouring values differ by more
    than tol = DEFAULT_MERGE_TOL (1e-12), so the tolerance chains within
    a component.  Terms whose components all fall in the same clusters
    are summed into the earliest of them, and the merged terms keep the
    order of their earliest rows; afterwards terms with |coeff| <= tol *
    max|coeff| are dropped.  Protocol circuits produce exactly coinciding
    labels, so the tolerance is lossless.  A merge that joins and drops
    nothing returns s.

    The clusters come from one sort per component, O(M T log T) for T
    terms on M modes, and the rows are grouped by a lexsort of their
    cluster ids.  A state whose norm is grouped (_grouped) takes them
    from its labelling, sorted once for the merge and, when the merge
    returns s, the norm after it; an output with other rows carries no
    labelling.  Other states cluster the sorted components directly:
    labelling them costs more than the sort it saves.  Labelling every
    state, the 207 merges of a branch_sweep pass (median 8 terms) took
    17.3 ms against 9.4 ms, and the 55 of an exact_large pass 6.9 against
    4.6 ms (one BLAS thread).
    """
    t = s.term_count
    if t == 0:
        return s
    keys = (_label_clusters(_labels(s)) if _grouped(s.amps)
            else _float_clusters(s.amps))
    starts = np.zeros(t, dtype=bool)         # first row of a group in rows
    starts[0] = True
    if len(keys):
        # rows with equal keys are adjacent after a stable lexsort, the
        # earliest row first
        rows = np.lexsort(keys)
        srt = keys[:, rows]
        np.any(srt[:, 1:] != srt[:, :-1], axis=0, out=starts[1:])
    else:
        rows = np.arange(t)                  # one cluster holds every row
    if starts.all():
        coeffs, reps = s.coeffs, np.arange(t)
    else:
        lex_group = np.empty(t, dtype=np.intp)
        lex_group[rows] = np.cumsum(starts) - 1
        first = rows[starts]
        is_rep = np.zeros(t, dtype=bool)
        is_rep[first] = True
        # renumber the groups in order of their earliest rows
        group = (np.cumsum(is_rep) - 1)[first][lex_group]
        g = first.size
        coeffs = np.bincount(group, s.coeffs.real, g)
        if s.coeffs.dtype.kind == "c":
            coeffs = coeffs + 1j * np.bincount(group, s.coeffs.imag, g)
        reps = np.flatnonzero(is_rep)
    mags = np.abs(coeffs)
    keep = mags > DEFAULT_MERGE_TOL * mags.max()
    if len(reps) == t and keep.all():        # joins and drops nothing
        return s
    return CsState._adopt(coeffs[keep], s.amps[reps[keep]])


def _float_clusters(amps: np.ndarray) -> np.ndarray:
    """Cluster ids (C, T) of the label components of amps (T, M): each
    component sorted, and cut where neighbouring values differ by more
    than the merge tolerance."""
    comps = _components(amps)
    order = np.argsort(comps, axis=1)
    # fancy indexing: take_ and put_along_axis cost 15 to 25 us more
    # per call on small states
    row = np.arange(len(comps))[:, None]
    ids = np.zeros(comps.shape, dtype=np.intp)
    np.cumsum(np.diff(comps[row, order], axis=1) > DEFAULT_MERGE_TOL,
              axis=1, out=ids[:, 1:])
    ids[row, order] = ids.copy()
    return ids


def _label_clusters(lab: _Labels) -> np.ndarray:
    """The rows' cluster ids from the labelling lab: each component's
    distinct values cut where neighbours differ by more than the merge
    tolerance.  Returns the ids (K, T) of the K components with more
    than one cluster, in component order."""
    sizes = lab.sizes
    lo = np.cumsum(sizes) - sizes
    cut = np.empty(lab.values.size, dtype=bool)
    np.greater(np.diff(lab.values), DEFAULT_MERGE_TOL, out=cut[1:])
    cut[lo] = True
    ids, counts = lab.codes, sizes
    if not cut.all():
        # values that chain: each one's cluster, counted from 0 in its
        # component
        cluster = np.cumsum(cut) - 1
        counts = cluster[lo + sizes - 1] - cluster[lo] + 1
        chained = np.flatnonzero(counts < sizes)
        ids = ids.copy()
        ids[chained] = (cluster - np.repeat(cluster[lo], sizes))[
            ids[chained] + lo[chained, None]]
    return ids[counts > 1]


# -- closed-form normalization constants -------------------------------

def cat_norm(alpha: float, sign: int) -> float:
    """Even (sign +1) or odd (sign -1) single-mode cat constant
    (1 +- exp(-2 alpha^2))^(-1/2) at real alpha > 0."""
    return _pair_norm(1.0, 1, alpha, sign)


def ghz_norm(k: int, alpha: float, sign: int) -> float:
    """k-mode GHZ-type constant [2(1 +- exp(-2 k alpha^2))]^(-1/2) of
    |a>^k +- |-a>^k at real alpha > 0."""
    if k < 1:
        raise DomainError("mode count k must be >= 1")
    return _pair_norm(2.0, k, alpha, sign)


def _pair_norm(scale: float, k: int, alpha: float, sign: int) -> float:
    if not (math.isfinite(alpha) and alpha > 0):
        raise DomainError(f"alpha must be positive and finite, got {alpha}")
    if sign not in (1, -1):
        raise DomainError("sign must be +1 or -1")
    den = 1.0 + sign * math.exp(-2.0 * k * alpha * alpha)
    if den <= 1e-15:
        raise DomainError("odd constant underflows at this alpha")
    return (scale * den) ** -0.5
