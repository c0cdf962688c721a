"""Command-line surface: build, run, sweep, target, oracle.

Exit codes: 0 success, 1 usage error, 2 runtime/domain error (or an
oracle disagreement, or running out of memory), 3 circuit validation
(or parse) failure.  The N*m size cap honours the CGHZ_MAX_NM
environment variable.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys

from .analysis import SweepPoint, sweep, theoretical_p
from .coherent import CsState
from .dsl import _fmt_real, parse, serialize
from .engine import RunResult, run
from .errors import SimulationError
from .fock import DEFAULT_NMAX, csstate_to_fock, fock_fidelity, run_fock
from .optics import SelectionMode
from .protocol import (
    DEFAULT_NM_CAP,
    ProtocolParams,
    build_cghz_circuit,
    ideal_cghz_state,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_VALIDATION = 3

# Most alpha values a sweep range may hold; the count is checked before
# the list is built, so a huge range is refused instead of exhausting
# memory.
MAX_ALPHA_VALUES = 10**6


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _nm_cap() -> int:
    raw = os.environ.get("CGHZ_MAX_NM")
    if raw is None:
        return DEFAULT_NM_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise SimulationError(f"CGHZ_MAX_NM={raw!r} is not an integer")
    if cap < 1:
        raise SimulationError(f"CGHZ_MAX_NM={cap} must be >= 1")
    return cap


def _parse_alpha_range(spec: str) -> list[float]:
    """'START:STOP:STEP' (inclusive endpoints) or a single value."""
    parts = spec.split(":")
    if len(parts) not in (1, 3):
        raise ValueError("alpha range must be START:STOP:STEP")
    values = [float(p) for p in parts]
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"alpha range {spec!r} needs finite values")
    if len(values) == 1:
        return values
    start, stop, step = values
    if step <= 0 or stop < start:
        raise ValueError("alpha range needs step > 0 and stop >= start")
    steps = (stop - start) / step
    if not math.isfinite(steps):
        raise ValueError(f"alpha range {spec!r} has too many steps")
    count = int(math.floor(steps + 1e-9)) + 1
    if count > MAX_ALPHA_VALUES:
        raise ValueError(f"alpha range {spec!r} has {count} values, "
                         f"more than {MAX_ALPHA_VALUES}")
    return [start + k * step for k in range(count)]


def _write_output(text: str, path: str | None):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _state_payload(state: CsState) -> dict:
    return {
        "mode_count": state.mode_count,
        "terms": [
            {"coeff": [c.real, c.imag],
             "amps": [[a.real, a.imag] for a in row]}
            for c, row in zip(state.coeffs.tolist(), state.amps.tolist())
        ],
    }


def _run_payload(result: RunResult) -> dict:
    return {
        "p_success": result.p_success,
        "total_false_vacuum": result.total_false_vacuum,
        "mode_order": list(result.mode_order),
        "selections": [
            {"mode_name": rec.mode_name,
             "kept_prob": rec.kept_prob,
             "discarded_weight": rec.discarded_weight,
             "false_vacuum_prob": rec.false_vacuum_prob}
            for rec in result.selections
        ],
        "final_state": _state_payload(result.final_state),
    }


def _cmd_build(args) -> int:
    params = ProtocolParams(args.n, args.m, args.alpha, cap=_nm_cap())
    circuit = build_cghz_circuit(params)
    _write_output(serialize(circuit), args.output)
    return EXIT_OK


def _read_circuit(path: str):
    """The circuit in a file, or None after printing its diagnostics to
    stderr if it is not UTF-8 text or does not parse.  A leading UTF-8
    byte-order mark is skipped."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            print(f"{path}: not UTF-8 text ({exc.reason})", file=sys.stderr)
            return None
    result = parse(text)
    if result.ok:
        return result.circuit
    for d in result.diagnostics:
        print(str(d), file=sys.stderr)
    return None


def _print_terms(state: CsState, digits: int):
    """One line per term: coefficient to ``digits`` digits, then labels."""
    for c, row in zip(state.coeffs, state.amps):
        amps = " ".join(f"({a.real:+.6g}{a.imag:+.6g}i)" for a in row)
        print(f"  {c.real:+.{digits}g}{c.imag:+.{digits}g}i  | {amps}")


def _cmd_run(args) -> int:
    circuit = _read_circuit(args.file)
    if circuit is None:
        return EXIT_VALIDATION
    outcome = run(circuit, SelectionMode(args.mode))
    if args.json:
        print(json.dumps(_run_payload(outcome), indent=2))
        return EXIT_OK
    print(f"modes: {' '.join(outcome.mode_order)}")
    print(f"p_success: {_fmt_real(outcome.p_success)}")
    print(f"total_false_vacuum: {_fmt_real(outcome.total_false_vacuum)}")
    for rec in outcome.selections:
        print(f"select0 {rec.mode_name}: kept_prob={_fmt_real(rec.kept_prob)} "
              f"false_vacuum={_fmt_real(rec.false_vacuum_prob)}")
    print(f"final state: {outcome.final_state.term_count} terms")
    _print_terms(outcome.final_state, 9)
    return EXIT_OK


def _sweep_rows(points):
    """CSV header and rows: the ``SweepPoint.as_dict`` keys, then each
    point's values, floats as ``repr`` and everything else as ``str``."""
    # a blank point names the columns even when every point failed
    fields = dataclasses.fields(SweepPoint)
    header = list(SweepPoint(**{f.name: None for f in fields}).as_dict())
    rows = [[_fmt_real(v) if isinstance(v, float) else str(v)
             for v in p.as_dict().values()] for p in points]
    return header, rows


def _cmd_sweep(args) -> int:
    try:
        alphas = _parse_alpha_range(args.alpha)
    except ValueError as exc:
        print(f"cghzsim sweep: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    points, diagnostics = sweep(alphas, [(args.n, args.m)],
                                SelectionMode(args.mode), cap=_nm_cap())
    for d in diagnostics:
        print(f"sweep point alpha={d.alpha!r} failed: {d.message}",
              file=sys.stderr)

    if args.format == "json":
        payload = {"version": 1, "points": [p.as_dict() for p in points]}
        _write_output(json.dumps(payload, indent=2) + "\n", args.output)
    else:
        header, rows = _sweep_rows(points)
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(rows)
        _write_output(buf.getvalue(), args.output)
    return EXIT_OK if not diagnostics else EXIT_RUNTIME


def _cmd_target(args) -> int:
    params = ProtocolParams(args.n, args.m, args.alpha, cap=_nm_cap())
    state = ideal_cghz_state(params)
    if args.json:
        print(json.dumps(_state_payload(state), indent=2))
        return EXIT_OK
    print(f"ideal target for n={args.n} m={args.m} "
          f"alpha={_fmt_real(args.alpha)}: "
          f"{state.term_count} terms on {state.mode_count} modes")
    print(f"asymptotic heralding probability: "
          f"{_fmt_real(theoretical_p(args.n, args.m))}")
    _print_terms(state, 12)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    circuit = _read_circuit(args.file)
    if circuit is None:
        return EXIT_VALIDATION
    # the oracle's byte check refuses an oversized tensor before anything
    # is allocated, so it runs before the exact analytic simulation
    reference = run_fock(circuit, n_max=args.nmax)
    analytic = run(circuit, SelectionMode.exact())
    converted = csstate_to_fock(analytic.final_state, n_max=args.nmax)
    overlap = fock_fidelity(converted, reference.final)
    dp = abs(analytic.p_success - reference.p_success)
    print(f"modes: {' '.join(reference.mode_order)}")
    print(f"p_success analytic:  {_fmt_real(analytic.p_success)}")
    print(f"p_success fock:      {_fmt_real(reference.p_success)}")
    print(f"|delta p_success|:   {_fmt_real(dp)}")
    per = [abs(a.kept_prob - b) for a, b in
           zip(analytic.selections, reference.probabilities)]
    if per:
        print(f"max |delta kept_prob|: {_fmt_real(max(per))}")
    print(f"final-state overlap |<fock|analytic>|^2: {_fmt_real(overlap)}")
    # relative, so a circuit with a tiny p_success is held to its digits
    agree = (dp <= 1e-6 * max(analytic.p_success, reference.p_success)
             and (1.0 - overlap) <= 1e-6)
    print(f"agreement within 1e-6: {'yes' if agree else 'NO'}")
    return EXIT_OK if agree else EXIT_RUNTIME


def main(argv=None) -> int:
    parser = _Parser(prog="cghzsim",
                     description="Exact linear-optics simulator for "
                                 "entangled-coherent-state generation "
                                 "circuits.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="emit a generation circuit "
                             "in the DSL")
    p_build.add_argument("--n", type=int, required=True,
                         help="logical qubits")
    p_build.add_argument("--m", type=int, required=True,
                         help="physical qubits per logical qubit")
    p_build.add_argument("--alpha", type=float, required=True,
                         help="coherent amplitude")
    p_build.add_argument("-o", "--output", default=None, help="output file")
    p_build.set_defaults(fn=_cmd_build)

    p_run = sub.add_parser("run", help="execute a circuit file")
    p_run.add_argument("file")
    p_run.add_argument("--mode", choices=["exact", "branch"],
                       default="branch")
    p_run.add_argument("--json", action="store_true")
    p_run.set_defaults(fn=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="evaluate a protocol over an "
                             "alpha grid")
    p_sweep.add_argument("--n", type=int, required=True)
    p_sweep.add_argument("--m", type=int, required=True)
    p_sweep.add_argument("--alpha", required=True,
                         help="START:STOP:STEP (inclusive) or a single value")
    p_sweep.add_argument("--mode", choices=["exact", "branch"],
                         default="branch")
    p_sweep.add_argument("--format", choices=["csv", "json"], default="csv")
    p_sweep.add_argument("-o", "--output", default=None)
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_target = sub.add_parser("target", help="emit the ideal target state")
    p_target.add_argument("--n", type=int, required=True)
    p_target.add_argument("--m", type=int, required=True)
    p_target.add_argument("--alpha", type=float, required=True)
    p_target.add_argument("--json", action="store_true")
    p_target.set_defaults(fn=_cmd_target)

    p_oracle = sub.add_parser("oracle", help="cross-check a circuit "
                              "against the number-basis pipeline")
    p_oracle.add_argument("file")
    p_oracle.add_argument("--nmax", type=int, default=DEFAULT_NMAX)
    p_oracle.set_defaults(fn=_cmd_oracle)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, SimulationError) as exc:
        print(f"cghzsim {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as exc:
        # NumPy names the allocation that failed; a bare one says nothing
        detail = f": {exc}" if str(exc) else ""
        print(f"cghzsim {args.command}: error: out of memory{detail}",
              file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
