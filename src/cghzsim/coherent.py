"""Exact algebra of finite superpositions of multimode coherent states.

A state is stored as a list of product terms

    |psi> = sum_i c_i |a_i1>|a_i2>...|a_iM>,

where each |a> is a coherent state labelled by a complex amplitude.
Coherent states are never orthogonal, so every norm and inner product is
evaluated through the exact pairwise Gram sum

    <a|b> = exp(-(|a|^2 + |b|^2)/2 + conj(a) b),

with no orthogonalization attempted anywhere: exactness over the
nonorthogonal term basis is the whole point of this representation.

Amplitudes and coefficients are plain Python/NumPy complex numbers.
All operations are pure; states are immutable after construction.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import DomainError, ModeShapeError, ZeroStateError

# Coherent overlaps smaller than this in magnitude are flushed to exactly
# zero: alpha = 10 sweeps produce exp(-200)-scale overlaps whose products
# would otherwise denormalize.
OVERLAP_FLUSH = 1e-300

# Squared norms may round off slightly negative for nearly parallel terms.
NEGATIVE_NORM_TOL = 1e-12

DEFAULT_MERGE_TOL = 1e-12


def _require_finite(z: complex, what: str) -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"{what} must be finite, got {z!r}")
    return z


def coherent_overlap(a: complex, b: complex) -> complex:
    """Overlap <a|b> of two single-mode coherent states.

    Evaluated as exp(-(|a|^2+|b|^2)/2 + conj(a)*b) in a single exponential
    call; |<a|b>| <= 1 always.  Magnitudes below 1e-300 are flushed to 0.
    """
    a = _require_finite(a, "amplitude a")
    b = _require_finite(b, "amplitude b")
    expo = -0.5 * (a.real * a.real + a.imag * a.imag
                   + b.real * b.real + b.imag * b.imag) + a.conjugate() * b
    val = np.exp(complex(expo))
    if abs(val) < OVERLAP_FLUSH:
        return 0.0 + 0.0j
    return complex(val)


class CsState:
    """Finite coherent superposition over a fixed number of modes.

    Term data is held in two read-only arrays: ``coeffs`` with shape (T,)
    and ``amps`` with shape (T, M).
    """

    __slots__ = ("coeffs", "amps")

    def __init__(self, coeffs, amps):
        coeffs = np.array(coeffs, dtype=np.complex128).reshape(-1)
        amps = np.array(amps, dtype=np.complex128)
        if amps.size == 0:
            amps = amps.reshape(len(coeffs), 0 if amps.ndim < 2
                                else amps.shape[1])
        if amps.ndim != 2 or amps.shape[0] != coeffs.shape[0]:
            raise ModeShapeError(
                f"amps shape {amps.shape} does not match {len(coeffs)} terms")
        if not np.isfinite(coeffs).all():
            raise DomainError("non-finite coefficient in state")
        if not np.isfinite(amps).all():
            raise DomainError("non-finite amplitude in state")
        coeffs.setflags(write=False)
        amps.setflags(write=False)
        self.coeffs = coeffs
        self.amps = amps

    @classmethod
    def single(cls, amps: Sequence[complex]) -> "CsState":
        """The product coherent state |a_1>...|a_M> (unit norm)."""
        return cls([1.0 + 0.0j], [list(amps)])

    @property
    def mode_count(self) -> int:
        return self.amps.shape[1]

    @property
    def term_count(self) -> int:
        return self.coeffs.shape[0]

    def __repr__(self):
        return f"CsState(modes={self.mode_count}, terms={self.term_count})"


def _overlap_matrix(s1: CsState, s2: CsState) -> np.ndarray:
    """Pairwise products of per-mode overlaps: K[i, j] = prod_k <a_ik|b_jk>.

    The per-mode log-overlaps are summed first and exponentiated once, so
    deeply suppressed products never underflow partway.
    """
    a, b = s1.amps, s2.amps
    ra = np.sum(a.real**2 + a.imag**2, axis=1)
    rb = np.sum(b.real**2 + b.imag**2, axis=1)
    expo = np.conj(a) @ b.T - 0.5 * (ra[:, None] + rb[None, :])
    k = np.exp(expo)
    if k.size:
        k[np.abs(k) < OVERLAP_FLUSH] = 0.0
    return k


def state_inner(s1: CsState, s2: CsState) -> complex:
    """Gram inner product <s1|s2> = sum_ij conj(c_i) d_j prod_k <a_ik|b_jk>."""
    if s1.mode_count != s2.mode_count:
        raise ModeShapeError(
            f"mode counts differ: {s1.mode_count} vs {s2.mode_count}")
    if s1.term_count == 0 or s2.term_count == 0:
        return 0.0 + 0.0j
    k = _overlap_matrix(s1, s2)
    return complex(np.conj(s1.coeffs) @ k @ s2.coeffs)


def state_norm(s: CsState) -> float:
    """Euclidean norm sqrt(<s|s>); tiny negative round-off is clamped to 0."""
    sq = state_inner(s, s).real
    if sq < 0.0:
        if sq < -NEGATIVE_NORM_TOL:
            raise DomainError(
                f"squared norm {sq} is negative beyond round-off")
        sq = 0.0
    return math.sqrt(sq)


def normalize(s: CsState) -> CsState:
    """Scale to unit norm; a vanishing norm signals a dead branch."""
    n = state_norm(s)
    if n <= 1e-12:
        raise ZeroStateError(f"cannot normalize state with norm {n}")
    return CsState(s.coeffs / n, s.amps)


def merge_terms(s: CsState, tol: float = DEFAULT_MERGE_TOL) -> CsState:
    """Combine terms with coinciding amplitude labels.

    Each real and imaginary component of the labels is sorted on its own
    and cut into clusters wherever two neighbouring values differ by more
    than ``tol``, so the tolerance chains within a component.  Terms whose
    components all fall in the same clusters are summed into the earliest
    of them, and the merged terms keep the order of their earliest rows;
    afterwards terms with |coeff| <= tol * max|coeff| are dropped.
    Protocol circuits produce exactly coinciding labels, so the default
    tolerance is lossless.  Cost: one sort per component, O(M T log T)
    for T terms on M modes.
    """
    if tol < 0:
        raise DomainError("merge tolerance must be >= 0")
    t = s.term_count
    if t == 0:
        return s
    comps = np.ascontiguousarray(s.amps).view(np.float64)  # re, im columns
    starts = np.zeros(t, dtype=bool)         # first row of a group in rows
    starts[0] = True
    if comps.shape[1]:
        # cluster id of every component: sort, cut at gaps above tol
        order = np.argsort(comps, axis=0)
        cols = np.arange(comps.shape[1])
        ids = np.zeros(comps.shape, dtype=np.intp)
        np.cumsum(np.diff(comps[order, cols], axis=0) > tol, axis=0,
                  out=ids[1:])
        ids[order, cols] = ids.copy()
        # rows with equal id vectors are adjacent after a stable lexsort,
        # the earliest row first
        rows = np.lexsort(ids.T)
        srt = ids[rows]
        np.any(srt[1:] != srt[:-1], axis=1, out=starts[1:])
    else:
        rows = np.arange(t)
    lex_group = np.empty(t, dtype=np.intp)
    lex_group[rows] = np.cumsum(starts) - 1
    first = rows[starts]
    is_rep = np.zeros(t, dtype=bool)
    is_rep[first] = True
    # renumber the groups in order of their earliest rows
    group = (np.cumsum(is_rep) - 1)[first][lex_group]
    g = first.size
    coeffs = (np.bincount(group, s.coeffs.real, g)
              + 1j * np.bincount(group, s.coeffs.imag, g))
    mags = np.abs(coeffs)
    keep = mags > tol * mags.max()
    return CsState(coeffs[keep], s.amps[is_rep][keep])


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
