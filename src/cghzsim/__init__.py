"""cghzsim: exact analytic simulation of linear-optics circuits over
superpositions of multimode coherent states, with builders for the
concatenated-GHZ entangled-coherent-state generation protocol, an
independent truncated-number-basis oracle, a line-oriented circuit
language, and a sweep-emitting CLI.

The names below are the documented API; everything else stays importable
from its own module."""

from .analysis import (
    evaluate_point,
    fidelity,
    sweep,
    theoretical_p,
)
from .coherent import CsState, normalize, state_inner, state_norm
from .dsl import parse, serialize
from .engine import (
    BeamSplitter,
    Circuit,
    Hadamard,
    Prep,
    RunResult,
    SelectVacuum,
    Split,
    run,
    validate,
)
from .errors import (
    CircuitValidationError,
    DomainError,
    FockTruncationError,
    GateBasisError,
    ModeShapeError,
    ResourceLimitError,
    RunError,
    SimulationError,
    ZeroProbabilityError,
    ZeroStateError,
)
from .fock import csstate_to_fock, fock_fidelity, run_fock
from .optics import SelectionMode
from .protocol import ProtocolParams, build_cghz_circuit, ideal_cghz_state

__version__ = "0.1.0"

__all__ = [
    # the README library example
    "ProtocolParams", "SelectionMode", "build_cghz_circuit", "fidelity",
    "ideal_cghz_state", "run",
    # the number-basis cross-check and the circuit text format
    "run_fock", "csstate_to_fock", "fock_fidelity", "parse", "serialize",
    # circuit IR
    "Circuit", "Prep", "Hadamard", "BeamSplitter", "Split", "SelectVacuum",
    "validate", "RunResult",
    # state algebra
    "CsState", "state_inner", "state_norm", "normalize",
    # analysis
    "sweep", "evaluate_point", "theoretical_p",
    # errors
    "SimulationError", "CircuitValidationError", "DomainError",
    "FockTruncationError", "GateBasisError", "ModeShapeError",
    "ResourceLimitError", "RunError", "ZeroProbabilityError", "ZeroStateError",
]
