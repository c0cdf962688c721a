"""Layer tracing for the benchmark, applied from outside the package.

Each listed public function of a ``cghzsim`` module is replaced by a
wrapper that records one span per call: name, start, end, parent span and
point id.  Spans stay in memory; self times and counters are derived when
the run ends.  The wrapper is rebound under every name that refers to the
original function in any loaded ``cghzsim`` module, because modules import
each other's functions by name (``engine`` calls its own ``merge_terms``
binding, ``optics`` its own ``state_norm``).
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "cghzsim"

# The layers are the package modules; cli is a thin wrapper over these.
LAYERS = {
    "coherent": ("merge_terms", "state_inner", "normalize", "state_norm"),
    "optics": ("apply_bs", "split_mode", "apply_hadamard", "select_vacuum"),
    "engine": ("run", "validate"),
    "protocol": ("build_cghz_circuit", "ideal_cghz_state"),
    "analysis": ("fidelity",),
    "dsl": ("parse", "serialize"),
    "fock": ("run_fock", "csstate_to_fock", "fock_fidelity"),
}

COMPLEX_BYTES = 16
_MODE_DELTA = {"Prep": 1, "Split": 1, "SelectVacuum": -1}


def _merge_terms(tr, args, kwargs, out):
    t_in, t_out = args[0].term_count, out.term_count
    tr.sums["coherent.merge_terms.terms_in"] += t_in
    tr.sums["coherent.merge_terms.terms_out"] += t_out
    tr.sums["coherent.merge_terms.useful"] += t_out < t_in


def _state_inner(tr, args, kwargs, out):
    pairs = args[0].term_count * args[1].term_count
    tr.sums["coherent.state_inner.pairs"] += pairs
    tr.peak("coherent.gram_bytes_peak", pairs * COMPLEX_BYTES)


def _select_vacuum(tr, args, kwargs, out):
    tr.sums["optics.select_vacuum.terms_in"] += args[0].term_count
    tr.sums["optics.select_vacuum.terms_kept"] += out[0].term_count


def _run(tr, args, kwargs, out):
    tr.sums["engine.run.instructions"] += len(args[0].instructions)
    tr.peak("engine.run.peak_terms", out.max_term_count)


def _run_fock(tr, args, kwargs, out):
    live = peak = 0
    for ins in args[0].instructions:
        live += _MODE_DELTA.get(type(ins).__name__, 0)
        peak = max(peak, live)
    tr.peak("fock.tensor_bytes_peak",
            (out.final.n_max + 1) ** peak * COMPLEX_BYTES)


def _csstate_to_fock(tr, args, kwargs, out):
    tr.peak("fock.tensor_bytes_peak", out.amps.nbytes)


# Counters recorded on return, outside the span, keyed by span name.
COUNTERS = {
    "coherent.merge_terms": _merge_terms,
    "coherent.state_inner": _state_inner,
    "optics.select_vacuum": _select_vacuum,
    "engine.run": _run,
    "fock.run_fock": _run_fock,
    "fock.csstate_to_fock": _csstate_to_fock,
}


class Tracer:
    """Span recorder that wraps the functions in ``LAYERS`` while installed.

    ``point`` is stamped on every span opened while it is set, so that all
    spans of one benchmark point share an identifier.
    """

    def __init__(self, layers=LAYERS):
        self.layers = layers
        self.spans: list = []
        self.sums: defaultdict = defaultdict(float)
        self.peaks: defaultdict = defaultdict(float)
        self.point = None
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._rebound: list = []

    def peak(self, name: str, value: float):
        if value > self.peaks[name]:
            self.peaks[name] = value

    def install(self) -> list[str]:
        """Wrap every listed function; returns the names that are absent.

        A listed function that the package no longer defines is skipped
        and reported, so a benchmark of a refactored tree still runs.
        """
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or
                                         name.startswith(PACKAGE + "."))]
        for layer, names in self.layers.items():
            home = sys.modules.get(f"{PACKAGE}.{layer}")
            for fname in names:
                span = f"{layer}.{fname}"
                original = getattr(home, fname, None)
                if not callable(original):
                    if span not in self.absent:
                        self.absent.append(span)
                    continue
                wrapper = self._wrap(span, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._rebound.append((mod, attr, original))
        return self.absent

    def uninstall(self):
        for mod, attr, original in reversed(self._rebound):
            setattr(mod, attr, original)
        self._rebound.clear()

    def _wrap(self, span: str, fn):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            point = self.point
            stack.append(idx)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (span, start, end, parent, point)
            if counter is not None:
                counter(self, args, kwargs, out)
            return out

        return traced

    def self_times(self) -> tuple[dict, dict]:
        """Per span name: total self time (span minus child spans), calls."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: defaultdict = defaultdict(float)
        calls: defaultdict = defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
            calls[name] += 1
        return self_s, calls

    def layer_metrics(self, passes: int) -> dict:
        """The per-layer metrics, per pass where they are totals."""
        self_s, calls = self.self_times()
        s, out = self.sums, {}
        for layer, names in self.layers.items():
            for fname in names:
                span = f"{layer}.{fname}"
                out[f"{span}.self_s"] = self_s[span] / passes
                out[f"{span}.calls"] = calls[span] / passes
        for name in ("coherent.merge_terms.terms_in",
                     "coherent.merge_terms.terms_out",
                     "coherent.state_inner.pairs",
                     "engine.run.instructions"):
            out[name] = s[name] / passes
        merges = calls["coherent.merge_terms"]
        out["coherent.merge_terms.useful_ratio"] = (
            s["coherent.merge_terms.useful"] / merges if merges else 0.0)
        kept_in = s["optics.select_vacuum.terms_in"]
        out["optics.select_vacuum.terms_kept_ratio"] = (
            s["optics.select_vacuum.terms_kept"] / kept_in if kept_in else 0.0)
        for name in ("coherent.gram_bytes_peak", "engine.run.peak_terms",
                     "fock.tensor_bytes_peak"):
            out[name] = self.peaks[name]
        return out
