"""Circuit intermediate representation and sequential executor.

Circuits are straight-line programs over symbolically named modes.  The
executor maintains the name -> position map itself, so removing a mode at
a vacuum selection never invalidates later instructions; this mirrors how
the generation protocol keeps relabelling surviving spatial modes.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from typing import Union

import numpy as np

from .coherent import CsState
from .errors import (CircuitValidationError, DomainError, RunError,
                     SimulationError)
from .optics import (
    SelectionMode,
    SelectionRecord,
    add_mode,
    apply_bs,
    apply_hadamard,
    merge_terms,  # noqa: F401  (not called; perfbench/tests reads it)
    select_vacuum,
    split_mode,
)

_IDENT_OK = str.isidentifier


@dataclass(frozen=True)
class Prep:
    """Bind a new mode prepared in the coherent state |amp>."""
    mode: str
    amp: complex


@dataclass(frozen=True)
class Hadamard:
    """Coherent-qubit Hadamard; alpha_ref None means the circuit alpha."""
    mode: str
    alpha_ref: float | None = None


@dataclass(frozen=True)
class BeamSplitter:
    """50:50 beam splitter; first output carries (a+b)/sqrt2."""
    mode_a: str
    mode_b: str


@dataclass(frozen=True)
class Split:
    """Beam splitter against a fresh vacuum port bound to new_mode."""
    mode: str
    new_mode: str


@dataclass(frozen=True)
class SelectVacuum:
    """Herald vacuum on the mode and remove it."""
    mode: str


Instruction = Union[Prep, Hadamard, BeamSplitter, Split, SelectVacuum]


@dataclass(frozen=True)
class Circuit:
    """Ordered instruction list with the declared base amplitude."""
    alpha: float
    instructions: tuple[Instruction, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "instructions", tuple(self.instructions))


@dataclass(frozen=True)
class Diagnostic:
    """One static-validation finding; index is None for circuit-level
    problems (e.g. a bad declared alpha)."""
    index: int | None
    message: str

    def __str__(self):
        where = "circuit" if self.index is None else f"instruction {self.index}"
        return f"{where}: {self.message}"


@dataclass(frozen=True)
class RunResult:
    """Final state plus full probability bookkeeping for one execution."""
    final_state: CsState
    mode_order: tuple[str, ...]
    selections: tuple[SelectionRecord, ...]
    p_success: float
    total_false_vacuum: float
    max_term_count: int = 0


def _positive_real(x) -> bool:
    """A finite real number above zero, as a Python or NumPy scalar.

    ``bool`` is refused although Python counts it as an int: ``True`` as
    an amplitude is a slip, not a request for alpha = 1.  ``validate``
    refuses a ``bool`` Prep amplitude by the same rule.
    """
    return (isinstance(x, numbers.Real) and not isinstance(x, bool)
            and math.isfinite(x) and x > 0)


def _is_int(x) -> bool:
    """An integer, as a Python or NumPy scalar, and not a ``bool``: a
    count, cutoff or cap of ``True`` is a slip, not a request for 1."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def validate(circuit: Circuit) -> list[Diagnostic]:
    """Statically check a circuit; an empty list means it can run.

    Every mode name must be bound by Prep before use, used only while
    live, and never rebound; SelectVacuum consumes its mode.  Anything
    that is not a Circuit, such as circuit text not yet parsed, gets one
    circuit-level diagnostic.
    """
    if not isinstance(circuit, Circuit):
        return [Diagnostic(None, f"expected a Circuit, got "
                                 f"{type(circuit).__name__}; parse circuit "
                                 f"text with parse() first")]
    out: list[Diagnostic] = []
    if not _positive_real(circuit.alpha):
        out.append(Diagnostic(None, f"declared alpha must be a positive "
                                    f"finite real, got {circuit.alpha!r}"))
    live: set[str] = set()
    ever: set[str] = set()

    def check_live(idx, name):
        if name not in live:
            reason = ("was consumed" if name in ever else "is unbound")
            out.append(Diagnostic(idx, f"mode '{name}' {reason}"))
            return False
        return True

    def check_new(idx, name):
        if not name or not _IDENT_OK(name):
            out.append(Diagnostic(idx, f"'{name}' is not a valid mode name"))
            return False
        if name in ever:
            out.append(Diagnostic(idx, f"mode '{name}' already used"))
            return False
        return True

    for idx, ins in enumerate(circuit.instructions):
        if isinstance(ins, Prep):
            if (not isinstance(ins.amp, numbers.Complex)
                    or isinstance(ins.amp, bool)):
                out.append(Diagnostic(
                    idx, f"prep amplitude {ins.amp!r} is not a number"))
            elif not cmath.isfinite(ins.amp):
                out.append(Diagnostic(idx, "prep amplitude is not finite"))
            if check_new(idx, ins.mode):
                live.add(ins.mode)
                ever.add(ins.mode)
        elif isinstance(ins, Hadamard):
            check_live(idx, ins.mode)
            if not (ins.alpha_ref is None or _positive_real(ins.alpha_ref)):
                out.append(Diagnostic(
                    idx, f"hadamard reference {ins.alpha_ref!r} must be "
                         f"a positive real"))
        elif isinstance(ins, BeamSplitter):
            ok_a = check_live(idx, ins.mode_a)
            ok_b = check_live(idx, ins.mode_b)
            if ok_a and ok_b and ins.mode_a == ins.mode_b:
                out.append(Diagnostic(
                    idx, "beam splitter needs two distinct modes"))
        elif isinstance(ins, Split):
            check_live(idx, ins.mode)
            if check_new(idx, ins.new_mode):
                live.add(ins.new_mode)
                ever.add(ins.new_mode)
        elif isinstance(ins, SelectVacuum):
            if check_live(idx, ins.mode):
                live.discard(ins.mode)
        else:
            out.append(Diagnostic(idx, f"unknown instruction {ins!r}"))
    return out


def _check_valid(diags: list[Diagnostic]):
    """Raise CircuitValidationError if ``validate`` reported anything."""
    if diags:
        raise CircuitValidationError(diags)


def _execute(circuit: Circuit, backend) -> tuple[tuple[str, ...], tuple]:
    """Apply a valid circuit's instructions in order to ``backend``;
    return the final mode order and what each ``backend.select``
    returned, in order.

    This is the one instruction loop of the package: ``run`` and
    ``fock.run_fock`` differ only in the backend they pass, and each
    validates the circuit first.  A backend holds the working state and
    has one method per instruction kind, taking mode positions, never
    names: ``prep(amp)`` appends a mode in |amp>, ``hadamard(i,
    alpha_ref)`` applies the gate, ``bs(i, j)`` the beam splitter,
    ``split(i)`` appends a vacuum mode and beam-splits mode i against it,
    and ``select(i, name)`` heralds vacuum on mode i, removes it and
    returns its outcome.  Each method leaves the working state at unit
    norm (the Hadamard and selection kernels renormalize their output),
    so the loop runs each instruction once and never renormalizes, and
    the coherent backend meets ``select_vacuum``'s unit-norm
    precondition.

    Raises RunError (with the instruction index) for any SimulationError
    the backend raises, and for a MemoryError, an allocation that does
    not fit the address space.
    """
    order: list[str] = []
    outcomes = []
    for idx, ins in enumerate(circuit.instructions):
        try:
            if isinstance(ins, Prep):
                backend.prep(ins.amp)
                order.append(ins.mode)
            elif isinstance(ins, Hadamard):
                ref = circuit.alpha if ins.alpha_ref is None else ins.alpha_ref
                backend.hadamard(order.index(ins.mode), float(ref))
            elif isinstance(ins, BeamSplitter):
                backend.bs(order.index(ins.mode_a), order.index(ins.mode_b))
            elif isinstance(ins, Split):
                backend.split(order.index(ins.mode))
                order.append(ins.new_mode)
            elif isinstance(ins, SelectVacuum):
                i = order.index(ins.mode)
                outcomes.append(backend.select(i, ins.mode))
                order.pop(i)
        except SimulationError as exc:
            raise RunError(idx, str(exc)) from exc
        except MemoryError as exc:
            raise RunError(idx, f"out of memory: {exc}") from exc
    return tuple(order), tuple(outcomes)


class _Coherent:
    """Backend of ``run``: the optics primitives on a CsState."""

    def __init__(self, sel: SelectionMode):
        self.sel = sel
        # exact selection lets vacuum residue into gate modes
        self.off_basis = "project" if sel.kind == "exact" else "raise"
        # the empty tensor product: one term, zero modes, norm one
        self.state = CsState(np.ones(1), np.zeros((1, 0)))
        self.max_terms = 0

    def _keep(self, state: CsState):
        self.state = state
        self.max_terms = max(self.max_terms, state.term_count)

    def prep(self, amp: complex):
        self._keep(add_mode(self.state, amp))

    def hadamard(self, i: int, alpha_ref: float):
        self._keep(apply_hadamard(self.state, i, alpha_ref,
                                  off_basis=self.off_basis))

    def bs(self, i: int, j: int):
        self._keep(apply_bs(self.state, i, j))

    def split(self, i: int):
        self._keep(split_mode(self.state, i))

    def select(self, i: int, name: str) -> SelectionRecord:
        state, record = select_vacuum(self.state, i, self.sel,
                                      mode_name=name)
        self._keep(state)
        return record


def run(circuit: Circuit, sel: SelectionMode) -> RunResult:
    """Execute a circuit and return the final state with probabilities.

    Instructions are applied strictly in order.  The working state has
    unit norm after every instruction: prep and beam splitter (so split)
    are unitary, and apply_hadamard (not an isometry on entangled inputs)
    and select_vacuum return unit-norm states.  So the final state is
    returned as the executor leaves it, each selection gets the
    unit-norm input ``select_vacuum`` requires, each recorded
    ``kept_prob`` is the conditional heralding probability of that
    selection, and ``p_success`` is their product.  Exact selection lets
    vacuum residue into gate modes, so Hadamards then run with the
    off-basis projection rule; under branch selection an off-basis
    amplitude aborts the run.

    Raises DomainError if sel is not a SelectionMode,
    CircuitValidationError if validate() reports anything, and RunError
    (with the instruction index) if a branch dies at runtime.
    """
    if not isinstance(sel, SelectionMode):
        raise DomainError(f"selection mode must be a SelectionMode, "
                          f"got {sel!r}")
    _check_valid(validate(circuit))
    backend = _Coherent(sel)
    order, records = _execute(circuit, backend)
    return RunResult(final_state=backend.state,
                     mode_order=order,
                     selections=records,
                     p_success=math.prod((r.kept_prob for r in records),
                                         start=1.0),
                     total_false_vacuum=sum((r.false_vacuum_prob
                                             for r in records), 0.0),
                     max_term_count=backend.max_terms)
