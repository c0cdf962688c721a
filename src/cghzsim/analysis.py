"""Fidelity and success-probability metrics, plus parameter sweeps over
(alpha, n, m) whose points also carry each run's false-vacuum weight, the
per-term sum of ``SelectionRecord.false_vacuum_prob`` (a weight, not a
probability).

The asymptotic heralding success probability of a full (n, m) build is
2^(1 - n*m): one factor 1/2 per vacuum selection.  Fidelities are always
taken against the finite-alpha ideal target, not the infinite-alpha
orthogonal-qubit limit, so they isolate protocol error from the
encoding's intrinsic nonorthogonality.

Sweep points are scored against the target T = (|GHZ+>^n + |GHZ->^n)/
sqrt2 in its product form, with no Gram sum over its 2^(n+1) terms:

    <T|s> = 2^(-1/2) sum_k c_k [prod_b c+ (<a^m|x_kb> + <-a^m|x_kb>)
                              + prod_b c- (<a^m|x_kb> - <-a^m|x_kb>)],

where x_kb are the labels of block b in term k of s and c+- the m-mode
GHZ constants.  It is exact: the branches are orthogonal unit vectors
at real alpha, so T's constant is 1/sqrt2 in closed form.  It costs
O(n^2 m T) for a state of T terms, where the cross sum against the
expanded ``ideal_cghz_state`` builds 2^(n+1) T overlaps of n m modes
each: 131072 T at (16,1).  A Gram sum over the expanded target is also
less accurate at small alpha, where it cancels alternating terms up to
c-^(2n) in size: it reads the (6,1) target's squared norm at alpha 0.1
as 1 - 7.9e-6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .coherent import CsState, ghz_norm, state_inner
from .engine import _is_int, run
from .errors import DomainError, SimulationError
from .optics import SelectionMode
from .protocol import DEFAULT_NM_CAP, ProtocolParams, build_cghz_circuit

FIDELITY_SLACK = 1e-10


def fidelity(s: CsState, target: CsState) -> float:
    """Squared overlap |<target|s>|^2 for normalized states.

    Clamped into [0, 1]; an excursion beyond the 1e-10 round-off slack
    means a caller handed in unnormalized states.  States on different
    mode counts raise ModeShapeError, from ``state_inner``.
    """
    return _clamped_fidelity(abs(state_inner(target, s)) ** 2)


def _clamped_fidelity(f: float) -> float:
    """f clamped into [0, 1]; above 1 + FIDELITY_SLACK it raises
    DomainError, since only unnormalized states get there."""
    if f > 1.0 + FIDELITY_SLACK:
        raise DomainError(
            f"fidelity {f} exceeds 1; states must be normalized")
    return min(max(f, 0.0), 1.0)


def _cghz_overlap(s: CsState, params: ProtocolParams) -> complex:
    """<T|s> against the ideal C-GHZ target of ``params`` in product form
    (see the module docstring), for a state s on its n*m modes.

    One vectorized pass over the labels, with no loop over terms or
    blocks: the (T, n, m) view is summed over m by one product with a
    block indicator, giving each block's log-overlaps with |+-a>^m as
    h +- a sum_j x_j, h = -(m a^2 + |x|^2)/2, laid out (n, T) so that
    the product over blocks runs along the leading axis (a reduction
    along a short last axis costs several times more).  Each log-overlap
    is exponentiated once, so a block's overlap never underflows partway.
    Real (float64) labels and coefficients are computed in float64.
    """
    n, m, alpha = params.n_logical, params.m_physical, params.alpha
    blocks = np.kron(np.eye(n), np.ones(m))
    y = alpha * (blocks @ s.amps.T)
    h = -0.5 * (m * alpha * alpha + blocks @ (np.abs(s.amps) ** 2).T)
    a, b = np.exp(h + y), np.exp(h - y)
    plus = (ghz_norm(m, alpha, 1) * (a + b)).prod(axis=0)
    minus = (ghz_norm(m, alpha, -1) * (a - b)).prod(axis=0)
    return complex(s.coeffs @ (plus + minus)) / math.sqrt(2.0)


def theoretical_p(n: int, m: int) -> float:
    """Asymptotic heralding probability 2^(1 - n*m)."""
    if not (_is_int(n) and _is_int(m)):
        raise DomainError(f"n and m must be integers, got {n!r} and {m!r}")
    if n < 1 or m < 1:
        raise DomainError("n and m must be >= 1")
    return 2.0 ** (1 - n * m)


@dataclass(frozen=True)
class SweepPoint:
    """One evaluated grid point of a parameter sweep."""

    alpha: float
    n_logical: int
    m_physical: int
    fidelity: float
    p_success_sim: float
    p_success_theory: float
    false_vacuum_total: float
    term_count: int
    selection_mode: str

    def as_dict(self) -> dict:
        """Field order and names match the CSV schema."""
        return {
            "alpha": self.alpha,
            "n": self.n_logical,
            "m": self.m_physical,
            "mode": self.selection_mode,
            "fidelity": self.fidelity,
            "p_success_sim": self.p_success_sim,
            "p_success_theory": self.p_success_theory,
            "false_vacuum_total": self.false_vacuum_total,
            "term_count": self.term_count,
        }


@dataclass(frozen=True)
class SweepDiagnostic:
    """A grid point that failed to evaluate; sweeps never abort."""

    alpha: float
    n_logical: int
    m_physical: int
    message: str


def evaluate_point(n: int, m: int, alpha: float, sel: SelectionMode,
                   cap: int = DEFAULT_NM_CAP) -> SweepPoint:
    """Build, run and score one (n, m, alpha) protocol instance."""
    params = ProtocolParams(n, m, alpha, cap=cap)
    circuit = build_cghz_circuit(params)
    result = run(circuit, sel)
    f = _clamped_fidelity(abs(_cghz_overlap(result.final_state, params)) ** 2)
    return SweepPoint(alpha=alpha, n_logical=n, m_physical=m,
                      fidelity=f,
                      p_success_sim=result.p_success,
                      p_success_theory=theoretical_p(n, m),
                      false_vacuum_total=result.total_false_vacuum,
                      term_count=result.final_state.term_count,
                      selection_mode=sel.kind)


def sweep(alphas: Sequence[float], pairs: Iterable[tuple[int, int]],
          sel: SelectionMode, cap: int = DEFAULT_NM_CAP,
          ) -> tuple[list[SweepPoint], list[SweepDiagnostic]]:
    """Evaluate the full (n, m) x alpha grid.

    Points are independent and emitted in grid order (pairs outer,
    alphas inner) regardless of how they were computed.  A failing point
    becomes a diagnostic instead of aborting the sweep.
    """
    points: list[SweepPoint] = []
    diagnostics: list[SweepDiagnostic] = []
    for n, m in pairs:
        for alpha in alphas:
            try:
                points.append(evaluate_point(n, m, alpha, sel, cap=cap))
            except SimulationError as exc:
                diagnostics.append(
                    SweepDiagnostic(alpha=alpha, n_logical=n, m_physical=m,
                                    message=str(exc)))
    return points, diagnostics

