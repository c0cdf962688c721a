"""Self-test of the benchmark's tracing and correctness checks.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402

cg = workloads.import_package()

# The oracle point runs the exact (2, 2) build through every layer.
WORKLOAD, POINT = "oracle_xcheck", (2, 2, 2.0)


def _traced(fn, tracer):
    tracer.install()
    try:
        return fn()
    finally:
        tracer.uninstall()


def _raw_outputs():
    params = cg.ProtocolParams(*POINT)
    circuit = cg.build_cghz_circuit(params)
    result = cg.run(circuit, cg.SelectionMode.exact())
    fock = cg.run_fock(circuit, n_max=workloads.ORACLE_NMAX)
    return (workloads.compute(cg, WORKLOAD, POINT),
            result.final_state.coeffs.tobytes(),
            result.final_state.amps.tobytes(),
            fock.final.amps.tobytes())


def test_traced_point_counts_every_listed_function():
    tracer = Tracer()
    _traced(lambda: workloads.compute(cg, WORKLOAD, POINT), tracer)
    assert tracer.absent == []
    _, calls = tracer.self_times()
    for layer, names in LAYERS.items():
        for fname in names:
            assert calls[f"{layer}.{fname}"] > 0, f"{layer}.{fname}"
    metrics = tracer.layer_metrics(passes=1)
    assert metrics["coherent.merge_terms.terms_in"] > 0
    assert metrics["coherent.state_inner.pairs"] > 0
    assert metrics["engine.run.peak_terms"] == 12
    assert metrics["fock.tensor_bytes_peak"] == 41 ** 4 * 16


def test_outputs_bitwise_identical_with_tracing_on_and_off():
    untraced = _raw_outputs()
    traced = _traced(_raw_outputs, Tracer())
    assert traced == untraced
    assert _raw_outputs() == untraced


def test_uninstall_restores_every_binding():
    before = {(mod, name): getattr(getattr(cg, mod), name)
              for mod, name in (("engine", "merge_terms"),
                                ("optics", "state_norm"),
                                ("fock", "validate"),
                                ("analysis", "run"))}
    tracer = Tracer()
    tracer.install()
    try:
        assert cg.engine.merge_terms is not before["engine", "merge_terms"]
        assert cg.engine.merge_terms is cg.optics.merge_terms
        assert cg.run is cg.engine.run
    finally:
        tracer.uninstall()
    for (mod, name), fn in before.items():
        assert getattr(getattr(cg, mod), name) is fn


def test_absent_function_is_reported_not_raised():
    tracer = Tracer(layers={"coherent": ("merge_terms", "no_such_kernel"),
                            "no_such_module": ("run",)})
    _traced(lambda: workloads.compute(cg, "exact_large", POINT), tracer)
    assert tracer.absent == ["coherent.no_such_kernel", "no_such_module.run"]
    metrics = tracer.layer_metrics(passes=1)
    assert metrics["coherent.merge_terms.calls"] > 0
    assert metrics["coherent.no_such_kernel.calls"] == 0


def test_self_times_sum_to_root_span_time():
    tracer = Tracer()
    _traced(lambda: workloads.compute(cg, WORKLOAD, POINT), tracer)
    self_s, _ = tracer.self_times()
    roots = sum(end - start for _, start, end, parent, _ in tracer.spans
                if parent < 0)
    assert abs(sum(self_s.values()) - roots) < 1e-9


def test_check_flags_a_result_off_the_reference():
    with open(workloads.REFERENCE) as fh:
        ref = json.load(fh)[WORKLOAD][workloads.point_key(POINT)]
    assert workloads.check(dict(ref), ref) is None
    assert "fidelity" in workloads.check(
        dict(ref, fidelity=ref["fidelity"] + 1e-9), ref)
    assert "peak_terms" in workloads.check(dict(ref, peak_terms=13), ref)
    assert "oracle" in workloads.check(dict(ref, delta_p=1e-5), ref)
