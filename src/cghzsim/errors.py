"""Exception hierarchy shared by all simulator modules."""

import functools


class SimulationError(Exception):
    """Base class for every error raised by this package."""


class DomainError(SimulationError):
    """An input value is outside the mathematical domain of an operation
    (non-finite amplitude, non-positive alpha, underflowing denominator, ...)."""


class ModeShapeError(SimulationError):
    """Mode counts or mode indices of the operands do not line up."""


class ZeroStateError(SimulationError):
    """A state with (numerically) vanishing norm where a normalizable
    state is required."""


class ZeroProbabilityError(SimulationError):
    """A post-selection branch carries no probability; in the generation
    protocol this signals a circuit-construction bug, not physics."""


class GateBasisError(SimulationError):
    """A coherent-qubit gate was applied to a mode whose amplitude is not
    in the gate's qubit basis."""


class FockTruncationError(SimulationError):
    """The photon-number cutoff is too small to represent a state to the
    required accuracy."""


class ResourceLimitError(SimulationError):
    """A computation needs more memory than it may or can have: more than
    the package's fixed limit allows, raised before anything is
    allocated, or more than the address space holds, raised as "out of
    memory" when an allocation fails."""


class CircuitValidationError(SimulationError):
    """A circuit failed static validation; carries the diagnostics."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        lines = "; ".join(str(d) for d in self.diagnostics)
        super().__init__(f"invalid circuit: {lines}")


class RunError(SimulationError):
    """Execution aborted at a specific instruction."""

    def __init__(self, index: int, message: str):
        self.index = index
        super().__init__(f"instruction {index}: {message}")


def _out_of_memory_typed(fn):
    """Wrap ``fn`` so that a MemoryError it raises, an allocation that
    does not fit the address space, is raised as ResourceLimitError."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except MemoryError as exc:
            raise ResourceLimitError(f"out of memory: {exc}") from exc
    return wrapper
