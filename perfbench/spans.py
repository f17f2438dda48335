"""Span recorder for the traced benchmark run.

``Recorder.install`` wraps the public functions of each pgakit module and
rebinds the wrapper wherever a module holds the original, because ``cli``,
``dynamics`` and others import names directly.  The products ``gp``,
``outer`` and ``left_contract`` are wrapped on the ``Multivector`` class,
where they also count the nonzero coefficient pairs the sparse kernel
multiplies; ``Multivector.__init__`` counts allocations.  ``remove`` puts
every original back.

A span is (name, parent span, start ns, end ns), kept in memory and
written out by ``write``.  Self time is a span's duration minus the
durations of its direct children; calls are single-threaded, so children
never overlap.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

import numpy as np

from pgakit.algebra import Multivector

LAYERS = ("algebra", "duality", "euclid", "motors", "dynamics", "conformal",
          "expr", "cli")
# the cmd_* handlers stay inside cli.main, so its self time is argument
# parsing, printing and file output around the library
CLI_SPANS = ("main", "load_scene")
PRODUCTS = ("gp", "outer", "left_contract")


def _public_functions(layer: str):
    module = sys.modules["pgakit." + layer]
    for attr, obj in vars(module).items():
        if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                and not attr.startswith("_")
                and (layer != "cli" or attr in CLI_SPANS)):
            yield attr, obj


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, int] | None] = []
        self.current = -1
        self.pairs = dict.fromkeys(PRODUCTS, 0)
        self.dense_pairs = dict.fromkeys(PRODUCTS, 0)
        self.allocs = 0
        self._wrappers: list[tuple[object, str, object]] | None = None
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        self.names.append(name)
        nid = len(self.names) - 1
        spans, clock = self.spans, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.current
            index = len(spans)
            spans.append(None)
            self.current = index
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (nid, parent, start, clock())
                self.current = parent

        return traced

    def _product(self, kind: str, fn):
        pairs, dense = self.pairs, self.dense_pairs

        def counted(a, b):
            # counted inside the span, so the caller's self time is clean
            pairs[kind] += (np.count_nonzero(a.coeffs)
                            * np.count_nonzero(b.coeffs))
            dense[kind] += a.algebra.size ** 2
            return fn(a, b)

        return self._wrap("algebra." + kind, counted)

    def _plan(self) -> list[tuple[object, str, object]]:
        wrapped = {}
        for layer in LAYERS:
            for attr, fn in _public_functions(layer):
                wrapped[fn] = self._wrap(f"{layer}.{attr}", fn)
        plan = []
        for modname, module in list(sys.modules.items()):
            if modname != "pgakit" and not modname.startswith("pgakit."):
                continue
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj in wrapped:
                    plan.append((module, attr, wrapped[obj]))
        for kind in PRODUCTS:
            plan.append((Multivector, kind,
                         self._product(kind, getattr(Multivector, kind))))
        init = Multivector.__init__

        def counting_init(mv, algebra, coeffs):
            self.allocs += 1
            init(mv, algebra, coeffs)

        plan.append((Multivector, "__init__", counting_init))
        return plan

    def install(self) -> None:
        if self._wrappers is None:
            self._wrappers = self._plan()
        for owner, attr, value in self._wrappers:
            self._patched.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

    def remove(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, self seconds, inclusive seconds)."""
        table = np.array(self.spans, dtype=np.int64).reshape(-1, 4)
        nid, parent = table[:, 0], table[:, 1]
        duration = (table[:, 3] - table[:, 2]).astype(float)
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=duration[nested],
                               minlength=len(table))
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        self_ns = np.bincount(nid, weights=duration - children, minlength=k)
        incl_ns = np.bincount(nid, weights=duration, minlength=k)
        return {name: (int(calls[i]), self_ns[i] * 1e-9, incl_ns[i] * 1e-9)
                for i, name in enumerate(self.names)}

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            f.write("span,parent,name,start_ns,end_ns\n")
            for i, (nid, parent, start, end) in enumerate(self.spans):
                f.write(f"{i},{parent},{self.names[nid]},{start},{end}\n")
