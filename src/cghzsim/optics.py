"""Linear-optics primitives on coherent superpositions.

Four physical operations drive the whole generation protocol:

* coherent-state preparation: s -> s (x) |a> on a new mode
* 50:50 beam splitter:  |a>|b> -> |(a+b)/sqrt2> |(a-b)/sqrt2>
* coherent-qubit Hadamard on the {|a>, |-a>} basis:
      |a>  ->  (N/sqrt2)  (|a> + |-a>),   N  = (1 + exp(-2 a^2))^(-1/2)
      |-a> ->  (N'/sqrt2) (|a> - |-a>),   N' = (1 - exp(-2 a^2))^(-1/2)
  extended linearly to other labels and followed by a renormalization,
  since the map is not an isometry on entangled inputs
* vacuum post-selection on one mode: every kept term is projected onto
  <0|.  The selection mode only sets which terms are dropped first:
  ``exact`` drops none, retaining the false-vacuum amplitudes that a
  real no-click herald cannot distinguish; ``branch`` drops every
  non-vacuum term (the usual idealization).

A mode split, |sqrt2 a> -> |a>|a>, is a vacuum prep plus a beam splitter,
applied as one kernel.

Each kernel builds its output state once, from arrays it owns or
read-only arrays of its input (``CsState._adopt``), of the dtype NumPy
promotion gives: a real (float64) state stays real unless a complex
prep amplitude or a complex Hadamard image promotes it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .coherent import (
    DEFAULT_MERGE_TOL,
    ZERO_NORM,
    CsState,
    cat_norm,
    merge_terms,
    normalize,
    state_norm,
)
from .errors import (
    DomainError,
    GateBasisError,
    ModeShapeError,
    ZeroProbabilityError,
    ZeroStateError,
)

# Amplitude magnitude below which a mode label counts as vacuum: branch
# selection keeps exactly these terms, and both modes count the others as
# false-vacuum contributions.  Labels are produced by exact +-alpha/sqrt2
# arithmetic, so any drift is pure round-off.
VACUUM_LABEL_TOL = 1e-9

# Hadamard qubit-basis check tolerance (same round-off argument).
GATE_BASIS_TOL = 1e-9


@dataclass(frozen=True)
class SelectionMode:
    """How vacuum post-selection treats non-vacuum amplitudes.

    ``exact`` keeps every term, scaled by its true vacuum overlap;
    ``branch`` discards terms whose selected-mode label exceeds
    ``VACUUM_LABEL_TOL``.
    """

    kind: str            # "exact" or "branch"

    def __post_init__(self):
        if self.kind not in ("exact", "branch"):
            raise DomainError(f"unknown selection mode {self.kind!r}")

    @classmethod
    def exact(cls) -> "SelectionMode":
        return cls("exact")

    @classmethod
    def branch(cls) -> "SelectionMode":
        return cls("branch")


@dataclass(frozen=True)
class SelectionRecord:
    """Bookkeeping for one vacuum selection.

    ``kept_prob`` is the heralding probability of the kept branch,
    ``discarded_weight`` the squared norm of the dropped terms (0 under
    exact selection, which drops none), and ``false_vacuum_prob`` the
    false-vacuum weight: |c <0|a>|^2 summed term by term over the
    non-vacuum labels.  All three are relative to the unit-norm input
    state.  The false-vacuum weight leaves out the cross terms of those
    nonorthogonal terms, so it is a weight, not the probability that
    they leave the detector silent, and it can exceed 1 at small alpha.

    Nothing in a run reads ``discarded_weight``, so the record keeps the
    dropped terms, as the input state and the mask of its dropped rows,
    and takes their Gram sum the first time the weight is read; the
    float is cached.  Records compare, hash and print by the fields they
    store, not by the weight, so none of these takes that Gram sum.
    """

    mode: int
    kept_prob: float
    false_vacuum_prob: float = 0.0
    mode_name: str | None = None
    _dropped: tuple[CsState, np.ndarray] | None = field(
        default=None, compare=False, repr=False)

    @cached_property
    def discarded_weight(self) -> float:
        if self._dropped is None:
            return 0.0
        s, rows = self._dropped
        return state_norm(CsState._adopt(s.coeffs[rows], s.amps[rows])) ** 2


def _check_mode_index(s: CsState, i: int):
    """Refuse an index that is not an integer in range; an integer is a
    Python or NumPy one, and not a ``bool`` (the rule of engine._is_int,
    checked without an ABC isinstance, as the kernels run thousands of
    times a sweep)."""
    try:
        ok = not isinstance(i, bool) and 0 <= operator.index(i) < s.mode_count
    except TypeError:
        ok = False
    if not ok:
        raise ModeShapeError(
            f"mode index {i!r} is not an integer in range for "
            f"{s.mode_count} modes")


def add_mode(s: CsState, amp: complex) -> CsState:
    """Append a mode in the coherent state |amp>: s (x) |amp>, same norm.
    An amplitude with no imaginary part is taken as real, so a real
    state stays float64."""
    amp = complex(amp)
    if not amp.imag:
        amp = amp.real
    t, m = s.amps.shape
    amps = np.empty((t, m + 1), dtype=np.result_type(s.amps, amp))
    amps[:, :m] = s.amps
    amps[:, m] = amp
    return CsState._adopt(s.coeffs, amps)


def apply_bs(s: CsState, i: int, j: int) -> CsState:
    """50:50 beam splitter on modes (i, j).

    Labels map as (a_i, a_j) -> ((a_i+a_j)/sqrt2, (a_i-a_j)/sqrt2);
    coefficients are untouched and the norm is preserved exactly (the
    splitter is a passive unitary).  Applying it twice restores the input.
    """
    _check_mode_index(s, i)
    _check_mode_index(s, j)
    if i == j:
        raise ModeShapeError("beam splitter needs two distinct modes")
    amps = s.amps.copy()
    ai, aj = s.amps[:, i], s.amps[:, j]
    inv = 1.0 / math.sqrt(2.0)
    amps[:, i] = (ai + aj) * inv
    amps[:, j] = (ai - aj) * inv
    return CsState._adopt(s.coeffs, amps)


def split_mode(s: CsState, i: int) -> CsState:
    """Split mode i on a beam splitter against a fresh vacuum port,
    appended as the last mode: |sqrt2 a> -> |a>|a>.

    The (T, M+1) labels are written in one step, byte for byte those of
    ``apply_bs(add_mode(s, 0), i, M)``: the vacuum port's label 0 is
    added to mode i (which turns a -0.0 component into +0.0) and
    subtracted from the new mode (which changes nothing).
    """
    _check_mode_index(s, i)
    t, m = s.amps.shape
    a = s.amps[:, i]
    inv = 1.0 / math.sqrt(2.0)
    amps = np.empty((t, m + 1), dtype=s.amps.dtype)
    amps[:, :m] = s.amps
    amps[:, i] = (a + 0.0) * inv
    amps[:, m] = a * inv
    return CsState._adopt(s.coeffs, amps)


def _cat_coords(beta, alpha_ref: float):
    """Biorthogonal coordinates (u, v) of the in-span component of |beta>
    in the frame of {|a>, |-a>}, a = alpha_ref: the Hadamard maps |beta>
    to u |even cat> + v |odd cat>, whose norm is sqrt(|u|^2 + |v|^2)."""
    a2 = alpha_ref * alpha_ref
    q = math.exp(-2.0 * a2)
    babs2 = beta.real**2 + beta.imag**2
    ov_p = np.exp(-0.5 * (a2 + babs2) + alpha_ref * beta)      # <a|b>
    ov_m = np.exp(-0.5 * (a2 + babs2) - alpha_ref * beta)      # <-a|b>
    det = 1.0 - q * q
    return (ov_p - q * ov_m) / det, (ov_m - q * ov_p) / det


def apply_hadamard(s: CsState, i: int, alpha_ref: float,
                   off_basis: str = "raise") -> CsState:
    """Coherent-qubit Hadamard on mode i with qubit basis {|a>, |-a>},
    followed by a renormalization.

    The gate is the rank-2 linear map |a> -> |even cat>, |-a> -> |odd cat>
    (the cats are exactly orthonormal even though |+-a> are not).  For a
    term whose mode-i label is b, the label is decomposed in the
    biorthogonal frame of {|a>, |-a>} as u |a> + v |-a>, and the
    component outside that span is dropped; on-basis labels reproduce the
    defining map exactly.

    The map is not an isometry on entangled inputs, so the image is
    divided by its norm: a unit-norm, merged input gives a unit-norm,
    merged output.  When mode i carries one label b in every term the
    state is s' (x) |b>: u, v and the image norm, that of H|b>,
    sqrt(|u|^2 + |v|^2), are computed once, as scalars, and no merge is
    needed (each output row is an input row with label i set to +-a).
    Otherwise the image is merged and normalized by its Gram sum.  Either
    way the doubled coefficients and labels are written once.  Raises
    ZeroStateError when the image vanishes.

    ``off_basis="raise"`` additionally demands every label be within
    1e-9 of +-alpha_ref and raises GateBasisError otherwise; under branch
    selection a violation always means a protocol-construction bug.
    ``off_basis="project"`` accepts any label (exact selection leaks
    vacuum residue into gate modes, which the linear map handles).
    """
    _check_mode_index(s, i)
    n_even = cat_norm(alpha_ref, 1)
    n_odd = cat_norm(alpha_ref, -1)
    if off_basis not in ("raise", "project"):
        raise DomainError(f"unknown off-basis policy {off_basis!r}")
    t = s.term_count
    if t == 0:
        raise ZeroStateError("cannot normalize the Hadamard image of a "
                             "zero-term state")

    beta = s.amps[:, i]
    uniform = not np.count_nonzero(beta != beta[0])
    # the one label as a NumPy scalar, whose arithmetic rounds as the
    # array kernels do, so both paths give the same bytes
    b = beta[0] if uniform else beta
    if off_basis == "raise":
        dist = np.minimum(abs(b - alpha_ref), abs(b + alpha_ref))
        if np.count_nonzero(dist > GATE_BASIS_TOL):
            k = int(np.argmax(dist > GATE_BASIS_TOL))   # the first bad term
            raise GateBasisError(
                f"mode {i} amplitude {complex(beta[k])} is not "
                f"+-{alpha_ref} (off by {np.ravel(dist)[k]:.3g})")

    u, v = _cat_coords(b, alpha_ref)

    inv = 1.0 / math.sqrt(2.0)
    coeffs = np.empty(2 * t, dtype=np.result_type(s.coeffs, u, v))
    np.multiply(s.coeffs, u * n_even + v * n_odd, out=coeffs[:t])
    np.multiply(s.coeffs, u * n_even - v * n_odd, out=coeffs[t:])
    coeffs *= inv
    amps = np.concatenate((s.amps, s.amps))
    amps[:t, i] = alpha_ref
    amps[t:, i] = -alpha_ref
    if not uniform:
        return normalize(merge_terms(CsState._adopt(coeffs, amps)))
    n = math.sqrt(float(np.abs(u) ** 2 + np.abs(v) ** 2))
    if n <= ZERO_NORM:
        raise ZeroStateError(f"cannot normalize state with norm {n}")
    coeffs /= n
    return CsState._adopt(coeffs, amps)


def select_vacuum(s: CsState, i: int, mode: SelectionMode, *,
                  mode_name: str | None = None
                  ) -> tuple[CsState, SelectionRecord]:
    """Post-select "no photon" on mode i of a unit-norm state and remove
    that mode.

    Both modes apply the same projection: every kept term's coefficient
    is scaled by its vacuum overlap <0|a_i> = exp(-|a_i|^2/2).  The mode
    only decides which terms are dropped first: none under ``exact``,
    which keeps the false-vacuum amplitudes that a real no-click herald
    cannot tell apart; under ``branch`` every term with |a_i| >
    VACUUM_LABEL_TOL, so each kept term has <0|a_i> = 1 exactly.

    kept_prob is the squared norm of the projected kept terms,
    discarded_weight that of the dropped terms (0 when none are), and
    false_vacuum_prob the false-vacuum weight of the non-vacuum terms,
    |c <0|a_i>|^2 summed term by term (a weight, not a probability: see
    SelectionRecord).  The input must have unit norm, as ``run``'s
    working state does, so the first two are probabilities as they
    stand; the input norm is not checked, since that would cost a Gram
    sum over every input term.  The record keeps the dropped terms and
    takes the Gram sum of discarded_weight only when it is first read
    (see SelectionRecord); ``mode_name`` is stored in it as given.

    The returned state is the kept portion divided by its norm.  Kept
    rows are merged first, so the norm is a Gram sum over the merged
    rows, when their mode-i labels differ by more than the merge
    tolerance, the only case in which dropping mode i can make two
    coincide.  A selection that keeps no term, or whose kept terms have
    a vanishing norm, raises ZeroProbabilityError.
    """
    _check_mode_index(s, i)
    labels = s.amps[:, i]
    vac_overlap = np.exp(-0.5 * (labels.real**2 + labels.imag**2))
    silent = np.abs(labels) > VACUUM_LABEL_TOL
    projected = s.coeffs * vac_overlap
    coeffs, amps, dropped = projected, s.amps, None
    if mode.kind == "branch" and np.count_nonzero(silent):
        keep = ~silent
        coeffs, amps, labels = coeffs[keep], amps[keep], labels[keep]
        dropped = (s, silent)
    if not len(coeffs):
        raise ZeroProbabilityError(
            f"vacuum selection on mode {i} keeps no term")

    kept = CsState._adopt(coeffs, np.delete(amps, i, axis=1))
    # the kept mode-i labels' spread is only taken when they differ
    if np.count_nonzero(labels != labels[0]) and max(
            np.ptp(labels.real), np.ptp(labels.imag)) > DEFAULT_MERGE_TOL:
        kept = merge_terms(kept)
    kept_norm = state_norm(kept)
    kept_prob = min(kept_norm ** 2, 1.0)
    false_prob = float((np.abs(projected[silent]) ** 2).sum())
    if kept_norm <= ZERO_NORM:
        raise ZeroProbabilityError(
            f"vacuum selection on mode {i} has vanishing probability")
    out = CsState._adopt(kept.coeffs / kept_norm, kept.amps)
    return out, SelectionRecord(mode=i, kept_prob=kept_prob,
                                false_vacuum_prob=false_prob,
                                mode_name=mode_name, _dropped=dropped)
