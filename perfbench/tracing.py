"""Spans around the public functions of each library layer.

``Tracer.install`` replaces every module binding of a layer's public
function with a wrapper that records a span (name, start, end, parent)
into flat in-memory arrays.  The package re-exports functions with
``from .x import f``, so a function is rebound in every module that
holds it, including the package namespace.  ``Tracer.remove`` restores
the originals.  Layer self time, call counts and the ratios of
distinct arguments are derived from the spans and a few argument
hooks after the traced pass; nothing is written while it runs.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import time
from array import array

import setopt

LAYERS = ("lp", "cone", "imagesets", "setrelations", "solver_direct",
          "vectorizer", "verifier", "instance", "cli")


class Tracer:
    SETUP, QUESTION = 0, 1   # span names of the benchmark's own root spans

    def __init__(self):
        self.names = ["bench.setup", "bench.question"]
        self.layer_of = ["bench", "bench"]
        self.name_id = {}
        self.starts = array("d")
        self.ends = array("d")
        self.ids = array("l")
        self.parents = array("l")
        self.stack = [-1]
        self.keys = {"margin": set(), "point_margin": set(), "set_margin": set()}
        self.keepalive = []   # keyed objects stay alive, so their ids stay unique
        self.lp_nonoptimal = 0
        self.cap_exceeded = 0
        self._saved = []

    # -- span recording ---------------------------------------------------

    def open(self, nid: int) -> int:
        idx = len(self.ids)
        self.ids.append(nid)
        self.parents.append(self.stack[-1])
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, fn):
        nid = len(self.names)
        name = f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}"
        self.names.append(name)
        self.layer_of.append(name.split(".", 1)[0])
        self.name_id[name] = nid
        hook = self._hooks().get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.open(nid)
            try:
                if hook is not None:
                    hook(args)
                result = fn(*args, **kwargs)
                if name == "lp.lp_maximize" and not result.is_optimal:
                    tracer.lp_nonoptimal += 1
                return result
            except setopt.CapExceeded:
                parent = tracer.parents[idx]
                if parent < 0 or tracer.layer_of[tracer.ids[parent]] != "vectorizer":
                    if name.startswith("vectorizer."):
                        tracer.cap_exceeded += 1
                raise
            finally:
                tracer.close(idx)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _hooks(self):
        keys, keep = self.keys, self.keepalive.append

        def margin(args):
            keys["margin"].add((tuple(args[0]), tuple(args[1]), id(args[2])))
            keep(args[2])

        def point_margin(args):
            keys["point_margin"].add((tuple(args[0]), id(args[1]), id(args[2])))
            keep(args[1])
            keep(args[2])

        def set_margin(args):
            keys["set_margin"].add((id(args[0]), id(args[1]), id(args[2])))
            keep(args)

        # point_margin delegates to point_margin_with_multipliers, so the
        # latter sees every point margin exactly once
        return {"cone.margin": margin,
                "imagesets.point_margin_with_multipliers": point_margin,
                "setrelations.set_margin": set_margin}

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        layer_modules = {f"setopt.{m}" for m in LAYERS}
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if name == "setopt" or name.startswith("setopt.")]
        wrappers = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or obj.__name__.startswith("_"):
                    continue
                if obj.__module__ not in layer_modules:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj)
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, wrappers[obj])

    def remove(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    # -- analysis ---------------------------------------------------------

    def count(self, name: str, under: str = None) -> int:
        """Spans named ``name``; with ``under``, only those with an
        ancestor span named ``under``."""
        nid = self.name_id.get(name)
        if nid is None:
            return 0
        if under is None:
            return self.ids.count(nid)
        root = self.names.index(under)
        total = 0
        for idx, i in enumerate(self.ids):
            if i != nid:
                continue
            while idx >= 0 and self.ids[idx] != root:
                idx = self.parents[idx]
            total += idx >= 0
        return total

    def total_s(self, name: str) -> float:
        nid = self.name_id.get(name)
        return sum(e - s for i, s, e in zip(self.ids, self.starts, self.ends)
                   if i == nid)

    def self_seconds(self) -> dict:
        """Per layer: span durations minus the time covered by child spans."""
        n = len(self.ids)
        child = [0.0] * n
        for idx in range(n):
            parent = self.parents[idx]
            if parent >= 0:
                child[parent] += self.ends[idx] - self.starts[idx]
        out = {layer: 0.0 for layer in LAYERS + ("bench",)}
        for idx in range(n):
            layer = self.layer_of[self.ids[idx]]
            out[layer] += self.ends[idx] - self.starts[idx] - child[idx]
        return out

    def distinct_frac(self, key: str, calls: int) -> float:
        return len(self.keys[key]) / calls if calls else 0.0

    def write(self, path: str) -> None:
        """Write every span as ``name parent start end`` (gzip, TSV)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name\tparent\tstart_s\tend_s\n")
            t0 = self.starts[0] if self.starts else 0.0
            for nid, parent, s, e in zip(self.ids, self.parents, self.starts,
                                         self.ends):
                fh.write(f"{self.names[nid]}\t{parent}\t{s - t0:.7f}\t{e - t0:.7f}\n")
