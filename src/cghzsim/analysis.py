"""Fidelity and success-probability metrics, plus parameter sweeps over
(alpha, n, m) whose points also carry each run's false-vacuum heralding
error.

The asymptotic heralding success probability of a full (n, m) build is
2^(1 - n*m): one factor 1/2 per vacuum selection.  Fidelities are always
taken against the finite-alpha ideal target (computed normalization),
not the infinite-alpha orthogonal-qubit limit, so they isolate protocol
error from the encoding's intrinsic nonorthogonality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .coherent import CsState, state_inner
from .engine import _is_int, run
from .errors import DomainError, SimulationError
from .optics import SelectionMode
from .protocol import (
    DEFAULT_NM_CAP,
    ProtocolParams,
    build_cghz_circuit,
    ideal_cghz_state,
)

FIDELITY_SLACK = 1e-10


def fidelity(s: CsState, target: CsState) -> float:
    """Squared overlap |<target|s>|^2 for normalized states.

    Clamped into [0, 1]; an excursion beyond the 1e-10 round-off slack
    means a caller handed in unnormalized states.  States on different
    mode counts raise ModeShapeError, from ``state_inner``.
    """
    f = abs(state_inner(target, s)) ** 2
    if f > 1.0 + FIDELITY_SLACK:
        raise DomainError(
            f"fidelity {f} exceeds 1; states must be normalized")
    return min(max(f, 0.0), 1.0)


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
    target = ideal_cghz_state(params)
    f = fidelity(result.final_state, target)
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

