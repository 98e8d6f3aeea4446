"""Span tracing of panelcrypt's layer entry points, installed from outside.

Run as a script, it executes one ``panelcrypt`` command in this process with
the entry points wrapped and writes the spans to a JSON file once, at the
end::

    python3 perfbench/tracer.py SPANS.json report --config run.cfg

The program's source is not touched: wrappers replace module attributes and
class methods after import, in every ``panelcrypt`` module that bound the
original object.  A span is ``[name, start, end, parent, attrs]``; ``attrs``
holds counts read from the returned result, and ``error`` when the call
raised.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
from time import perf_counter


def _design_rows(result):
    design, _ledger = result
    return {"rows_out": int(design.nobs)}


def _fit_flags(estimator):
    return {"flags": len(estimator.result_.flags)}


def _quantile(estimator):
    fit = estimator.result_
    finite = all(math.isfinite(v) for v in fit.params)
    return {"tau": float(fit.tau), "iterations": int(fit.iterations), "nonfinite": int(not finite)}


def _pairs(results):
    return {"pairs": int(results[0].pair_count)}


# (module, attribute path, inspector of the returned value)
ENTRY_POINTS = (
    ("panel", "load_panel", None),
    ("panel", "load_panel_csv", None),
    ("panel", "write_panel_csv", None),
    ("metrics", "compute_all_metrics", None),
    ("decentralization", "orthogonalize", None),
    ("diagnostics", "adf", None),
    ("diagnostics", "cips", None),
    ("diagnostics", "dependence_tests", _pairs),
    ("diagnostics", "describe", None),
    ("diagnostics", "correlation_matrix", None),
    ("estimators", "FixedEffects.fit", _fit_flags),
    ("estimators", "RandomEffects.fit", _fit_flags),
    ("estimators", "CrossSectionEGLS.fit", _fit_flags),
    ("estimators", "hausman", None),
    ("quantreg", "PanelQuantile.fit", _quantile),
    ("pipeline", "simulate_dgp", None),
    ("pipeline", "write_simulation", None),
    ("pipeline", "write_metrics_csv", None),
    ("pipeline", "read_metrics_csv", None),
    ("pipeline", "load_inputs", None),
    ("pipeline", "build_design", _design_rows),
    ("pipeline", "_emit_diagnostics", None),
    ("pipeline", "run_baseline", None),
    ("pipeline", "run_quantiles", None),
    ("pipeline", "run_split", None),
    ("pipeline", "emit_figures", None),
    ("pipeline", "run_report", None),
)


class Tracer:
    """In-memory span recorder; spans of nested calls point at their caller."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, inspect=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, {}]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span[4]["error"] = 1
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if inspect is not None:
                span[4].update(inspect(result))
            return result

        return traced

    def install(self, package="panelcrypt"):
        """Wrap every entry in ENTRY_POINTS."""
        for module_name, path, inspect in ENTRY_POINTS:
            module = importlib.import_module(f"{package}.{module_name}")
            name = f"{module_name}.{path}"
            if "." in path:
                cls_name, method = path.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, method, self.wrap(name, getattr(cls, method), inspect))
                continue
            original = getattr(module, path)
            wrapper = self.wrap(name, original, inspect)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == package or mod_name.startswith(package + "."):
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)


def self_times(spans):
    """Per-span duration minus the part of its interval covered by its children."""
    children = [[] for _ in spans]
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for (name, start, end, _parent, _attrs), kids in zip(spans, children):
        covered, reach = 0.0, start
        for lo, hi in sorted(kids):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def main(argv):
    if len(argv) < 2:
        print("usage: tracer.py SPANS.json <panelcrypt command and arguments>", file=sys.stderr)
        return 2
    spans_path, command = argv[0], argv[1:]
    t0 = perf_counter()
    import panelcrypt.cli as cli
    import_s = perf_counter() - t0

    tracer = Tracer()
    tracer.install()
    main_fn = tracer.wrap("cli.main", cli.main)
    try:
        code = main_fn(command)
    finally:
        with open(spans_path, "w") as handle:
            json.dump({"import_s": import_s, "spans": tracer.spans}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
