"""Run one workload program in-process with a span at every layer boundary.

Usage::

    python3 bench/trace.py SUMMARY_JSON -m perispec.cli ARGS...
    python3 bench/trace.py SUMMARY_JSON SCRIPT ARGS...

The program runs as under ``bench/launch.py``.

The spans are recorded from outside the package.  Each public function of a
layer is replaced at every binding where a caller looks it up: the defining
module, the package namespace, and any module that took it with
``from x import y`` (a patch on the defining module alone would miss those).
A call into a layer made from inside the same layer passes through without
a span, so every span is one public call into the layer from outside it.

Spans stay in memory while the program runs.  When it ends they are reduced
to per-layer counts and self times (a span's duration minus the durations of
its direct child spans) and written once to SUMMARY_JSON.  The program's
exit code is passed through.
"""

import functools
import importlib
import inspect
import json
import sys
import time

from launch import run

#: layer -> (module whose bindings are wrapped, public names; None = __all__)
LAYERS = {
    "hypergeom": ("perispec.hypergeom", ("pfq",)),
    "multipliers": ("perispec.multipliers", None),
    "oracle": ("perispec.oracle", None),
    # scipy functions, wrapped where the oracle looks them up
    "oracle.rules": ("perispec.oracle", ("roots_jacobi", "roots_legendre")),
    "spectrum": ("perispec.spectrum", None),
    "cli": ("perispec.cli", ("main",)),
}

#: escalated series passes report more than double precision
_DOUBLE_BITS = 53


class Tracer:
    """In-memory span recorder; one span per outside call into a layer.

    A span is a tuple of plain numbers and strings, (layer, start, end,
    parent index or -1, *details), so the recorder adds no objects for the
    garbage collector to trace; per-layer details are taken as the call
    returns.
    """

    def __init__(self):
        self.spans = []
        self.stack = []   # (layer, span index) of the open spans
        self._seen = {"hypergeom": set(), "oracle.rules": set()}

    def _details(self, layer, args, kwargs, result):
        if layer in self._seen:
            seen = self._seen[layer]
            key = (args, tuple(kwargs.items()))
            repeat = key in seen
            seen.add(key)
            if layer == "hypergeom":
                return (repeat,
                        getattr(result, "precision_bits", _DOUBLE_BITS),
                        getattr(result, "terms_used", 0))
            return (repeat,)
        if layer == "spectrum":
            if isinstance(result, list):
                return (len(result),)
            return (len(getattr(result, "coeffs", ())),)
        return ()

    def wrap(self, layer, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        details = self._details

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            parent = stack[-1][1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append((layer, index))
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer, start, end, parent,
                                *details(layer, args, kwargs, result))
            return result

        return traced

    def install(self):
        """Wrap every layer's public functions at all perispec bindings."""
        for layer, (module_name, names) in LAYERS.items():
            module = importlib.import_module(module_name)
            if names is None:
                names = getattr(module, "__all__", ())
            for name in names:
                fn = getattr(module, name, None)
                if inspect.isfunction(fn):
                    _rebind(fn, self.wrap(layer, fn))


def _rebind(original, replacement):
    packages = [m for key, m in list(sys.modules.items())
                if key == "perispec" or key.startswith("perispec.")]
    for module in packages:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def summarize(spans):
    """Per-layer counts and self times from the recorded spans."""
    child = [0.0] * len(spans)
    for layer, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = dict.fromkeys((
        "hypergeom.escalated.calls", "hypergeom.escalated.self_s",
        "hypergeom.escalated.bits_max", "hypergeom.float.calls",
        "hypergeom.float.self_s", "multipliers.calls", "multipliers.self_s",
        "oracle.calls", "oracle.self_s", "oracle.rules.calls",
        "oracle.rules.self_s", "spectrum.modes", "spectrum.self_s",
        "cli.self_s"), 0)
    repeats = {"hypergeom": 0, "oracle.rules": 0}
    terms = 0
    for (layer, start, end, _, *details), child_s in zip(spans, child):
        self_s = end - start - child_s
        if layer == "hypergeom":
            repeat, bits, used = details
            path = "escalated" if bits > _DOUBLE_BITS else "float"
            out[f"hypergeom.{path}.calls"] += 1
            out[f"hypergeom.{path}.self_s"] += self_s
            if path == "escalated":
                out["hypergeom.escalated.bits_max"] = max(
                    out["hypergeom.escalated.bits_max"], bits)
            terms += used
            repeats[layer] += repeat
            continue
        out[f"{layer}.self_s"] += self_s
        if layer == "spectrum":
            out["spectrum.modes"] += details[0]
        elif f"{layer}.calls" in out:
            out[f"{layer}.calls"] += 1
        if layer == "oracle.rules":
            repeats[layer] += details[0]
    pfq_calls = out["hypergeom.escalated.calls"] + out["hypergeom.float.calls"]
    rule_calls = out["oracle.rules.calls"]
    out["hypergeom.terms_mean"] = terms / pfq_calls if pfq_calls else 0.0
    out["hypergeom.repeat_ratio"] = (
        repeats["hypergeom"] / pfq_calls if pfq_calls else 0.0)
    out["oracle.rules.repeat_ratio"] = (
        repeats["oracle.rules"] / rule_calls if rule_calls else 0.0)
    return out


def main(argv):
    summary_path, program = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    code = run(program)
    with open(summary_path, "w") as fh:
        json.dump(summarize(tracer.spans), fh, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
