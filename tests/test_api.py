"""The package's top-level surface: the names the README documents, and
every name the benchmark under ``perfbench/`` reaches through it."""

import pkgutil
import re
from pathlib import Path

import cghzsim

ROOT = Path(__file__).resolve().parents[1]

DOCUMENTED = [
    # the README library example
    "ProtocolParams", "SelectionMode", "build_cghz_circuit", "fidelity",
    "ideal_cghz_state", "run",
    # used by the benchmark
    "run_fock", "csstate_to_fock", "fock_fidelity", "parse", "serialize",
    "SimulationError",
    # circuit IR
    "Circuit", "Prep", "Hadamard", "BeamSplitter", "Split", "SelectVacuum",
    "validate", "RunResult",
    # state algebra
    "CsState", "state_inner", "state_norm", "normalize",
    # analysis
    "sweep", "evaluate_point", "theoretical_p",
    # the SimulationError subclasses
    "CircuitValidationError", "DomainError", "FockTruncationError",
    "GateBasisError", "ModeShapeError", "ResourceLimitError", "RunError",
    "ZeroProbabilityError", "ZeroStateError",
]


def test_all_is_the_documented_surface():
    assert len(DOCUMENTED) == 36
    assert sorted(cghzsim.__all__) == sorted(DOCUMENTED)


def test_every_exported_name_resolves():
    for name in cghzsim.__all__:
        assert getattr(cghzsim, name) is not None, name


def test_benchmark_uses_only_exported_names():
    used = set()
    for path in (ROOT / "perfbench").rglob("*.py"):
        used |= set(re.findall(r"\bcg\.(\w+)", path.read_text()))
    submodules = {m.name for m in pkgutil.iter_modules(cghzsim.__path__)}
    assert "run_fock" in used
    assert used - submodules <= set(cghzsim.__all__)
