"""Per-layer spans, recorded from outside the program.

`Tracer.install` rebinds every public function of the layer modules, in
every `convexcodes.*` namespace that holds it, to a wrapper that records a
span (name, start, end, parent, operation id).  `SimplicialComplex.faces`
is wrapped as well.  Private helpers are not wrapped, so their time counts
toward the nearest wrapped caller.  Counts are read from return values (and
arguments) at the wrapped boundaries.  Spans stay in memory and are written
out once, after the traced pass.

The program is single-threaded and has no queue, so no span ever waits for
another and there are no wait metrics.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("codes", "topology", "geometry", "realization", "cli")

# Leaf helpers called once per word, coordinate or pair of cells: a wrapper
# would cost more than the work it measures.  Their time counts toward the
# calling layer.
UNWRAPPED = {"word_mask", "word_neurons", "word_key", "word_label", "dot", "vec", "is_face"}


def _on_faces(t, result, args):
    t.counts["faces"] += len(result)


def _on_abstract_code(t, result, args):
    cover = args[0]
    t.counts["abstract_points"] += len(cover.points if cover.ambient is None else cover.ambient)


def _on_contractibility(t, result, args):
    kind = type(result).__name__
    if kind == "Contractible":
        t.counts["cone" if result.apex is not None else "collapse"] += 1
    elif kind == "Unknown":
        t.counts["unknown"] += 1


def _on_feasible(t, result, args):
    t.counts["feasible_hits"] += result is not None


def _on_enumerate_cells(t, result, args):
    t.counts["cells"] += len(result.cells)
    key = (result.dimension, result.hyperplanes)
    if key in t.arrangements:
        t.counts["repeat_arrangements"] += 1
    t.arrangements.add(key)


def _on_sample_code(t, result, args):
    t.counts["sample_points"] += result.budget


def _on_max_int_realization(t, result, args):
    realz, cert = result
    t.counts["chamber_points"] += len(realz.abstract.points)
    for c in cert.checks:
        if c.name == "geometric-agreement" and (
            getattr(c, "skipped", False) or c.detail.startswith("skipped")
        ):
            t.counts["geometric_skipped"] += 1


HOOKS = {
    "codes.faces": _on_faces,
    "codes.abstract_code": _on_abstract_code,
    "topology.contractibility": _on_contractibility,
    "geometry.feasible": _on_feasible,
    "geometry.enumerate_cells": _on_enumerate_cells,
    "geometry.sample_code": _on_sample_code,
    "realization.max_int_realization": _on_max_int_realization,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.stack = [-1]
        self.op_id = -1
        self.counts: Counter = Counter()
        self.arrangements: set = set()
        self._wrappers: dict = {}  # original function -> its wrapper
        self._restore: list[tuple[object, str, object]] = []

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.arrangements = set()

    def _wrap(self, qual: str, fn):
        ix = len(self.names)
        self.names.append(qual)
        hook = HOOKS.get(qual)
        start, end, name, parent, op, stack = (
            self.start, self.end, self.name, self.parent, self.op, self.stack
        )
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(start)
            name.append(ix)
            parent.append(stack[-1])
            op.append(tracer.op_id)
            end.append(0.0)
            stack.append(sid)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(tracer, result, args)
            return result

        return wrapper

    def install(self) -> None:
        if not self._wrappers:
            for layer in LAYERS:
                mod = sys.modules[f"convexcodes.{layer}"]
                for attr, obj in vars(mod).items():
                    if (
                        inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__
                        and not attr.startswith("_")
                        and attr not in UNWRAPPED
                    ):
                        self._wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
            faces = sys.modules["convexcodes.codes"].SimplicialComplex.faces
            self._wrappers[faces] = self._wrap("codes.faces", faces)
        for modname, mod in list(sys.modules.items()):
            if modname != "convexcodes" and not modname.startswith("convexcodes."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in self._wrappers:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, self._wrappers[obj])
        cls = sys.modules["convexcodes.codes"].SimplicialComplex
        self._restore.append((cls, "faces", cls.faces))
        cls.faces = self._wrappers[cls.faces]

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    def self_times(self) -> tuple[Counter, Counter, float]:
        """Self seconds and calls per span name, and the total root time."""
        n = len(self.start)
        child = [0.0] * n
        dur = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        own: Counter = Counter()
        calls: Counter = Counter()
        roots = 0.0
        for i in range(n):
            q = self.names[self.name[i]]
            own[q] += dur[i] - child[i]
            calls[q] += 1
            if self.parent[i] < 0:
                roots += dur[i]
        return own, calls, roots

    def write(self, path) -> None:
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt") as f:
            f.write("op\tspan\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                f.write(
                    f"{self.op[i]}\t{i}\t{self.parent[i]}\t{self.names[self.name[i]]}\t"
                    f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\n"
                )

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric of the benchmark, from spans and counts."""
        own, calls, _ = self.self_times()
        c = self.counts

        def ratio(a, b):
            return a / b if b else 0.0

        m = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        for q, s in own.items():
            m[q.split(".", 1)[0] + ".self_s"] += s
        for q in (
            "codes.maximal_codewords", "codes.intersection_completion", "codes.faces",
            "codes.abstract_code", "topology.contractibility", "topology.reduced_betti",
            "topology.nonlocal_obstructions", "geometry.feasible", "geometry.code_of_cover",
            "geometry.check_nondegeneracy", "geometry.sample_code",
            "realization.monotone_extend", "realization.potential_cover",
            "realization.replay_certificate",
        ):
            m[q + ".self_s"] = own[q]
        for q in (
            "codes.maximal_codewords", "codes.intersection_completion", "codes.faces",
            "topology.contractibility", "topology.reduced_betti", "geometry.feasible",
            "geometry.enumerate_cells", "realization.max_int_realization",
        ):
            m[q + ".calls"] = calls[q]
        contract = calls["topology.contractibility"]
        m.update(
            {
                "cli.bytes_written": c["bytes_written"],
                "codes.faces.count": c["faces"],
                "codes.abstract_code.points": c["abstract_points"],
                "topology.contractibility.cone_share": ratio(c["cone"], contract),
                "topology.contractibility.collapses": c["collapse"],
                "topology.contractibility.unknowns": c["unknown"],
                "geometry.feasible.hit_ratio": ratio(c["feasible_hits"], calls["geometry.feasible"]),
                "geometry.feasible.per_cell": ratio(calls["geometry.feasible"], c["cells"]),
                "geometry.enumerate_cells.cells": c["cells"],
                "geometry.enumerate_cells.repeat_share": ratio(
                    c["repeat_arrangements"], calls["geometry.enumerate_cells"]
                ),
                "geometry.sample_code.points": c["sample_points"],
                "realization.chamber_points": c["chamber_points"],
                "realization.geometric_check.skipped_share": ratio(
                    c["geometric_skipped"], calls["realization.max_int_realization"]
                ),
            }
        )
        return m

    def count_metrics(self) -> dict[str, int]:
        """Span calls per name plus every hook count; these must repeat exactly."""
        _, calls, _ = self.self_times()
        return {**{f"calls:{q}": v for q, v in calls.items()}, **dict(self.counts)}
