"""Benchmark workloads and the process that measures one of them.

Run as a script, this is the workload process started by ``run.py``: it
imports the package, builds the point list, warms up, then runs passes
over the points until ``--seconds`` have elapsed (always at least one
whole pass) and prints one JSON line.  Each workload is a closed loop in
one process and one thread of control; the seed only sets the order of
the points within each pass.

Every point is checked against ``reference.json``: fidelity,
``p_success`` and ``total_false_vacuum`` within 1e-12, final and peak
term counts exactly, and for oracle points the 1e-6 agreement gate of
``cghzsim oracle``.  A ``SimulationError`` or a mismatch counts the point
as failed.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
SPAN_DIR = HERE / "out"

REF_TOL = 1e-12
ORACLE_GATE = 1e-6
ORACLE_NMAX = 40

# (n, m, alpha) points of each workload, smallest first: the first point
# is the warm-up.  Exact (4, 4) is left out: it is OOM-killed or raises
# an untyped MemoryError, so it cannot be timed.  The branch grid keeps
# n, m <= 8, because the ideal target of (n, 1) has 2^(n+1) unmerged
# terms and its dense fidelity Gram needs 4 GB at n = 13.
POINTS = {
    "exact_large": [(2, 4, 2.0), (4, 2, 2.0), (2, 5, 2.0), (3, 3, 2.0),
                    (2, 6, 2.0)],
    "branch_sweep": [(n, m, a)
                     for n in range(1, 9) for m in range(1, 9)
                     if 2 <= n * m <= 16
                     for a in (1.0, 2.0, 3.0)],
    "oracle_xcheck": [(n, m, a)
                      for n, m in ((3, 1), (2, 2), (4, 1), (1, 4))
                      for a in (1.0, 2.0)],
}
POINTS["branch_sweep"].sort(key=lambda p: (p[0] * p[1], p))

# The (n, m) whose points give largest_point_s: the most terms for the
# two coherent workloads, the four-mode number-basis tensors for the oracle.
LARGEST = {
    "exact_large": {(2, 6)},
    "branch_sweep": {(8, 2)},
    "oracle_xcheck": {(2, 2), (4, 1), (1, 4)},
}


class Mismatch(Exception):
    """A point's output disagrees with the reference or the oracle gate."""


def point_key(point) -> str:
    n, m, a = point
    return f"{n},{m},{a!r}"


def compute(cg, workload: str, point) -> dict:
    """Build, run and score one point through the public API."""
    n, m, alpha = point
    params = cg.ProtocolParams(n, m, alpha)
    circuit = cg.build_cghz_circuit(params)
    oracle = workload == "oracle_xcheck"
    if oracle:
        parsed = cg.parse(cg.serialize(circuit))
        if not parsed.ok or parsed.circuit != circuit:
            raise Mismatch("serialize -> parse is not the identity")
        circuit = parsed.circuit
    sel = (cg.SelectionMode.branch() if workload == "branch_sweep"
           else cg.SelectionMode.exact())
    result = cg.run(circuit, sel)
    out = {
        "fidelity": cg.fidelity(result.final_state,
                                cg.ideal_cghz_state(params)),
        "p_success": result.p_success,
        "total_false_vacuum": result.total_false_vacuum,
        "final_terms": result.final_state.term_count,
        "peak_terms": result.max_term_count,
    }
    if oracle:
        reference = cg.run_fock(circuit, n_max=ORACLE_NMAX)
        converted = cg.csstate_to_fock(result.final_state, n_max=ORACLE_NMAX)
        overlap = cg.fock_fidelity(converted, reference.final)
        out["delta_p"] = abs(result.p_success - reference.p_success)
        out["one_minus_overlap"] = 1.0 - overlap
    return out


def check(out: dict, ref: dict) -> str | None:
    """What in ``out`` disagrees with the reference record, if anything."""
    for name in ("fidelity", "p_success", "total_false_vacuum"):
        if not abs(out[name] - ref[name]) <= REF_TOL:
            return f"{name} {out[name]!r} != reference {ref[name]!r}"
    for name in ("final_terms", "peak_terms"):
        if out[name] != ref[name]:
            return f"{name} {out[name]} != reference {ref[name]}"
    for name in ("delta_p", "one_minus_overlap"):
        if name in ref and not out[name] <= ORACLE_GATE:
            return f"oracle {name} {out[name]!r} fails the gate"
    return None


def import_package():
    """Import cghzsim from this checkout's source tree, never elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import cghzsim
    if Path(cghzsim.__file__).resolve().parent.parent != src:
        raise ImportError(f"cghzsim imported from {cghzsim.__file__}, "
                          f"not from {src}")
    return cghzsim


def blas_info() -> dict:
    """OpenBLAS version and live thread count, as far as they are visible."""
    info = {"numpy": np.__version__,
            "python": sys.version.split()[0],
            "nproc": len(os.sched_getaffinity(0)),
            "blas": None, "blas_threads": None}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower()})
        lib = ctypes.CDLL(libs[0])
    except (OSError, IndexError):
        return info
    for prefix, suffix in (("openblas", ""), ("scipy_openblas", "64_"),
                           ("openblas", "64_")):
        get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
        get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
        if get_threads and get_config:
            get_threads.restype = ctypes.c_int
            get_config.restype = ctypes.c_char_p
            info["blas"] = get_config().decode()
            info["blas_threads"] = get_threads()
            break
    return info


def measure(cg, workload: str, seed: int, seconds: float, refs: dict,
            tracer=None) -> dict:
    """Run passes over the workload's points until ``seconds`` elapse.

    With a tracer, passes alternate between untraced and traced (at least
    one of each), so the ratio of the two gives the tracing overhead.
    """
    rng = random.Random(seed)
    points = POINTS[workload]
    largest = LARGEST[workload]
    times, largest_times, pass_times, traced_times = [], [], [], []
    failures: list[str] = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(pass_times) > len(traced_times)
        if traced:
            tracer.install()
        order = list(points)
        rng.shuffle(order)
        pass_s = 0.0
        for point in order:
            if traced:
                tracer.point = len(times)
            t0 = time.perf_counter()
            try:
                out = compute(cg, workload, point)
            except (cg.SimulationError, Mismatch) as exc:
                out, problem = None, f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            if out is not None:
                problem = check(out, refs[point_key(point)])
            if problem:
                failures.append(f"{point_key(point)}: {problem}")
            times.append(dt)
            pass_s += dt
            if point[:2] in largest:
                largest_times.append(dt)
        if traced:
            tracer.uninstall()
            tracer.point = None
        (traced_times if traced else pass_times).append(pass_s)
        if time.perf_counter() - start >= seconds and (
                tracer is None or traced_times):
            break
    return {
        "attempted": len(times),
        "failed": len(failures),
        "failures": failures[:10],
        "times": times,
        "largest_times": largest_times,
        "pass_times": pass_times,
        "traced_times": traced_times,
        "points_per_pass": len(points),
    }


def end_to_end(run: dict) -> dict:
    n = run["points_per_pass"]
    return {
        "points_per_s": statistics.median(n / t for t in run["pass_times"]),
        "point_s.p50": statistics.median(run["times"]),
        "largest_point_s": statistics.median(run["largest_times"]),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def tail(times: list) -> dict | None:
    """The highest whole percentile with at least ten samples beyond it."""
    n = len(times)
    if n < 20:
        return None
    q = int(100 * (1 - 10 / n))
    cut = statistics.quantiles(times, n=100)[q - 1]
    return {"percentile": q, "value": cut, "samples": n}


def per_layer(run: dict, tracer) -> dict:
    traced = run["traced_times"]
    metrics = tracer.layer_metrics(len(traced))
    untraced = statistics.median(run["pass_times"])
    metrics["trace.overhead_ratio"] = statistics.median(traced) / untraced
    self_s, _ = tracer.self_times()
    metrics["trace.coverage"] = sum(self_s.values()) / sum(traced)
    return metrics


def layer_shares(tracer) -> dict:
    """Share of traced self time per module, for the report line."""
    self_s, _ = tracer.self_times()
    total = sum(self_s.values()) or 1.0
    shares: dict = {}
    for name, value in self_s.items():
        layer = name.split(".")[0]
        shares[layer] = shares.get(layer, 0.0) + value / total
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def write_spans(tracer, workload: str, seed: int) -> Path:
    SPAN_DIR.mkdir(exist_ok=True)
    path = SPAN_DIR / f"spans-{workload}-seed{seed}.jsonl"
    with open(path, "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(POINTS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() when the parent started this "
                         "process; set-up time is measured from it")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    cg = import_package()
    with open(REFERENCE) as fh:
        refs = json.load(fh)[args.workload]
    # Warm-up fills lazy caches (the number-basis beam-splitter blocks);
    # its outcome is checked again in the timed passes.
    try:
        compute(cg, args.workload, POINTS[args.workload][0])
    except (cg.SimulationError, Mismatch):
        pass
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = Tracer() if args.trace else None
    run = measure(cg, args.workload, args.seed, args.seconds, refs, tracer)
    report = {k: run[k] for k in ("attempted", "failed", "failures")}
    report.update(fail_ratio=run["failed"] / run["attempted"],
                  setup_s=setup_s, env=blas_info(),
                  samples={"points": len(run["times"]),
                           "largest_points": len(run["largest_times"]),
                           "passes": len(run["pass_times"]),
                           "traced_passes": len(run["traced_times"])},
                  point_s_tail=tail(run["times"]))
    if tracer is None:
        report["metrics"] = end_to_end(run)
    else:
        report["metrics"] = per_layer(run, tracer)
        report["layer_share"] = layer_shares(tracer)
        report["absent"] = tracer.absent
        report["spans"] = str(write_spans(tracer, args.workload,
                                          args.seed).relative_to(ROOT))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
