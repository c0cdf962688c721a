"""Exception hierarchy shared by all simulator modules."""


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
    """A computation would need more memory than the package's fixed
    limit allows; raised before anything is allocated."""


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
