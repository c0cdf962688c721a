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

A mode split, |sqrt2 a> -> |a>|a>, is a vacuum prep plus a beam splitter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coherent import (
    DEFAULT_MERGE_TOL,
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
    probability that a non-vacuum branch nevertheless leaves the
    detector silent (weight |c <0|a>|^2 summed over non-vacuum labels).
    """

    mode: int
    kept_prob: float
    discarded_weight: float = 0.0
    false_vacuum_prob: float = 0.0
    mode_name: str | None = None


def _check_mode_index(s: CsState, i: int):
    if not (0 <= i < s.mode_count):
        raise ModeShapeError(
            f"mode index {i} out of range for {s.mode_count} modes")


def add_mode(s: CsState, amp: complex) -> CsState:
    """Append a mode in the coherent state |amp>: s (x) |amp>, same norm."""
    col = np.full((s.term_count, 1), complex(amp))
    return CsState(s.coeffs, np.concatenate([s.amps, col], axis=1))


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
    ai = amps[:, i].copy()
    aj = amps[:, j].copy()
    inv = 1.0 / math.sqrt(2.0)
    amps[:, i] = (ai + aj) * inv
    amps[:, j] = (ai - aj) * inv
    return CsState(s.coeffs, amps)


def split_mode(s: CsState, i: int) -> CsState:
    """Split mode i on a beam splitter against a fresh vacuum port.

    The vacuum mode is appended by ``add_mode``; |sqrt2 a> -> |a>|a>.
    """
    _check_mode_index(s, i)
    return apply_bs(add_mode(s, 0), i, s.mode_count)


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
    state is s' (x) |b>, the image norm is that of H|b>,
    sqrt(|u|^2 + |v|^2), and no merge is needed (each output row is an
    input row with label i set to +-a).  Otherwise the image is merged
    and normalized by its Gram sum.  Raises ZeroStateError when the
    image vanishes.

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
    if s.term_count == 0:
        return s

    beta = s.amps[:, i]
    if off_basis == "raise":
        dist = np.minimum(np.abs(beta - alpha_ref), np.abs(beta + alpha_ref))
        bad = np.nonzero(dist > GATE_BASIS_TOL)[0]
        if bad.size:
            raise GateBasisError(
                f"mode {i} amplitude {complex(beta[bad[0]])} is not "
                f"+-{alpha_ref} (off by {dist[bad[0]]:.3g})")

    u, v = _cat_coords(beta, alpha_ref)

    inv = 1.0 / math.sqrt(2.0)
    c_plus = s.coeffs * (u * n_even + v * n_odd) * inv
    c_minus = s.coeffs * (u * n_even - v * n_odd) * inv

    amps_plus = s.amps.copy()
    amps_plus[:, i] = alpha_ref
    amps_minus = s.amps.copy()
    amps_minus[:, i] = -alpha_ref
    coeffs = np.concatenate([c_plus, c_minus])
    amps = np.concatenate([amps_plus, amps_minus], axis=0)
    if (beta == beta[0]).all():
        n = math.sqrt(float(np.abs(u[0]) ** 2 + np.abs(v[0]) ** 2))
        if n <= 1e-12:
            raise ZeroStateError(f"cannot normalize state with norm {n}")
        return CsState(coeffs / n, amps)
    return normalize(merge_terms(CsState(coeffs, amps)))


def select_vacuum(s: CsState, i: int, mode: SelectionMode, *,
                  norm_sq: float | None = None
                  ) -> tuple[CsState, SelectionRecord]:
    """Post-select "no photon" on mode i and remove that mode.

    Both modes apply the same projection: every kept term's coefficient
    is scaled by its vacuum overlap <0|a_i> = exp(-|a_i|^2/2).  The mode
    only decides which terms are dropped first: none under ``exact``,
    which keeps the false-vacuum amplitudes that a real no-click herald
    cannot tell apart; under ``branch`` every term with |a_i| >
    VACUUM_LABEL_TOL, so each kept term has <0|a_i> = 1 exactly.

    kept_prob is the squared norm of the projected kept terms,
    discarded_weight that of the dropped terms (0 when none are), and
    false_vacuum_prob the probability that the non-vacuum terms herald
    silently anyway (the selection error of a no-click detector).  All
    three are relative to the incoming squared norm, so callers need not
    renormalize between selections.  ``norm_sq`` is that squared norm
    when the caller already knows it (``run`` passes 1.0, since its
    working state has unit norm); left at None it is computed by a Gram
    sum.  A given ``norm_sq`` must be finite and non-negative
    (DomainError), and a zero one raises ZeroProbabilityError.

    The returned state is the kept portion divided by its norm.  Kept
    rows are merged first, so the norm is a Gram sum over the merged
    rows, when their mode-i labels differ by more than the merge
    tolerance, the only case in which dropping mode i can make two
    coincide.  A selection that keeps no term, or whose kept terms have
    a vanishing norm, raises ZeroProbabilityError.
    """
    _check_mode_index(s, i)
    if norm_sq is None:
        in_sq = state_norm(s) ** 2
    else:
        in_sq = float(norm_sq)
        if not (math.isfinite(in_sq) and in_sq >= 0.0):
            raise DomainError(
                f"norm_sq must be finite and non-negative, got {norm_sq!r}")
    if in_sq <= 1e-24:
        raise ZeroProbabilityError("selection on a zero-norm state")

    keep_cols = [k for k in range(s.mode_count) if k != i]
    labels = s.amps[:, i]
    vac_overlap = np.exp(-0.5 * (labels.real**2 + labels.imag**2))
    silent = np.abs(labels) > VACUUM_LABEL_TOL
    drop = silent if mode.kind == "branch" else np.zeros_like(silent)
    keep = ~drop
    if not keep.any():
        raise ZeroProbabilityError(
            f"vacuum selection on mode {i} keeps no term")

    kept = CsState(s.coeffs[keep] * vac_overlap[keep],
                   s.amps[keep][:, keep_cols])
    dropped = labels[keep]
    if max(np.ptp(dropped.real), np.ptp(dropped.imag)) > DEFAULT_MERGE_TOL:
        kept = merge_terms(kept)
    kept_norm = state_norm(kept)
    kept_prob = min(max(kept_norm ** 2 / in_sq, 0.0), 1.0)
    discarded_weight = (
        state_norm(CsState(s.coeffs[drop], s.amps[drop])) ** 2 / in_sq
        if drop.any() else 0.0)
    false_prob = float(
        np.sum(np.abs(s.coeffs[silent] * vac_overlap[silent]) ** 2)) / in_sq
    if kept_norm <= 1e-12:
        raise ZeroProbabilityError(
            f"vacuum selection on mode {i} has vanishing probability")
    out = CsState(kept.coeffs / kept_norm, kept.amps)
    return out, SelectionRecord(mode=i, kept_prob=kept_prob,
                                discarded_weight=discarded_weight,
                                false_vacuum_prob=false_prob)
