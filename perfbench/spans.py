"""Span tracing of the package layers, installed from the benchmark's side.

Every public module-level function of a layer is replaced by a timing
wrapper, both in its defining module and under every name other package
modules imported it as (``scattering.bessel_j``,
``wavefunction.evaluate_poly``, ...).  Nothing under ``src/`` changes; the
module attributes are swapped at run time and swapped back.

The ``cli`` layer is wrapped at ``main`` only: its ``cmd_*`` functions are
the dispatch targets of ``main`` and are counted in ``cli.main``'s self time
together with argument parsing and output formatting.

A span records name, start, end, parent span and op id.  Self time is the
span's duration minus the time its child spans cover.  Aggregates (calls,
total, self, failed) are kept for every call; span records are kept in
memory up to ``span_cap`` and written out with the run record.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("specialfn", "model", "polynomials", "wavefunction", "scattering",
          "svgplot", "cli")


class Tracer:
    def __init__(self, span_cap: int = 50_000):
        self.span_cap = span_cap
        self.spans: list[list] = []      # [name, start, end, parent, op]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0, 0])
        self.op_id = -1
        self._stack: list[list] = []     # [child seconds, span index]
        self._patches: list[tuple] = []  # module, alias, plain, traced

    def wrap(self, name: str, fn, suffix=None):
        """Timing wrapper; ``suffix(args)`` adds a second, refined name."""
        stats, spans, stack = self.stats, self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            idx = len(spans)
            if idx < self.span_cap:
                spans.append([name, 0.0, 0.0, parent, self.op_id])
            else:
                idx = -1
            frame = [0.0, idx]
            stack.append(frame)
            failed = 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = 0
                return result
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                if idx >= 0:
                    spans[idx][1] = start
                    spans[idx][2] = end
                names = (name,) if suffix is None else (
                    name, f"{name}.{suffix(args)}")
                for key in names:
                    st = stats[key]
                    st[0] += 1
                    st[1] += duration
                    st[2] += duration - frame[0]
                    st[3] += failed
        return traced

    def install(self, package: str, suffixes: dict) -> None:
        """Wrap every public function of every layer of ``package``.

        The wrappers are built once; :meth:`enable` and :meth:`disable`
        swap them in and out, so traced and untraced runs can alternate.
        """
        modules = {layer: sys.modules[f"{package}.{layer}"]
                   for layer in LAYERS}
        importers = [m for name, m in list(sys.modules.items())
                     if name == package or name.startswith(package + ".")]
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or (layer == "cli" and attr != "main")):
                    continue
                name = f"{layer}.{attr}"
                traced = self.wrap(name, fn, suffixes.get(name))
                for other in importers:
                    for alias, obj in list(vars(other).items()):
                        if obj is fn:
                            self._patches.append((other, alias, fn, traced))

    def enable(self) -> None:
        for mod, alias, _, traced in self._patches:
            setattr(mod, alias, traced)

    def disable(self) -> None:
        for mod, alias, fn, _ in self._patches:
            setattr(mod, alias, fn)

    def total(self, name: str, field: str) -> float:
        st = self.stats.get(name)
        if st is None:
            return 0
        return st[("calls", "total_s", "self_s", "failed").index(field)]

    def layer_self(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, st in self.stats.items():
            if name.count(".") == 1:  # refined names repeat their base
                out[name.split(".")[0]] += st[2]
        return dict(out)
