"""Spans and counters around calls into the terw layers, from outside the program.

The traced run wraps module attributes that the program looks up at call
time (``terw.algebras.algebra_closure``, ``terw.structure.center_basis``,
...) so the package itself stays untouched.  Each wrapped call records a
span ``[name, start, end, parent]`` in memory; self times subtract the
child spans.  Spans are single-threaded: a traced run keeps every call in
this process (a process pool would record nothing in its workers).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter, defaultdict

# (module, attribute, span name).  A function imported into several modules
# is wrapped at every site the program calls it through.
SPAN_SITES = (
    ("terw.pipeline", "parse_graph6", "graphs.parse"),
    ("terw.pipeline", "automorphism_group", "groups.aut"),
    ("terw.algebras", "stabilizer", "groups.stab"),
    ("terw.algebras", "orbitals", "groups.orbitals"),
    ("terw.algebras", "orbital_matrices", "groups.orbitals"),
    ("terw.pipeline", "vertex_orbits", "groups.vertex_orbits"),
    ("terw.algebras", "vertex_orbits", "groups.vertex_orbits"),
    ("terw.algebras", "algebra_closure", "linalg.closure"),
    ("terw.structure", "center_basis", "linalg.center"),
    ("terw.algebras", "build_T", "algebras.build"),
    ("terw.pipeline", "build_T", "algebras.build"),
    ("terw.pipeline", "chain_with_algebras", "algebras.chain"),
    ("terw.pipeline", "wedderburn_decompose", "structure.decompose"),
    ("terw.structure", "wedderburn_decompose", "structure.decompose"),
    ("terw.pipeline", "classify_graph", "pipeline.classify"),
    ("terw.pipeline", "emit_report", "pipeline.emit"),
)

LAYERS = ("graphs", "groups", "linalg", "algebras", "structure", "pipeline")


class Tracer:
    """In-memory spans plus call and event counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(rec)
        self._stack.append(idx)
        self.calls[name] += 1
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced


def self_times(spans) -> dict[str, float]:
    """Per span name: summed duration minus the time covered by child spans."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        out[name] += end - start - child[i]
    return dict(out)


def total_times(spans) -> dict[str, float]:
    """Per span name: summed duration (no wrapped function calls itself)."""
    out: dict[str, float] = defaultdict(float)
    for name, start, end, _ in spans:
        out[name] += end - start
    return dict(out)


def layer_self_times(spans) -> dict[str, float]:
    """Self time summed per layer, the layer being the span name's prefix."""
    out = {layer: 0.0 for layer in LAYERS}
    for name, t in self_times(spans).items():
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + t
    return out


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap every span site and count SpanBasis.insert results and eig calls.

    Yields the list of sites missing from the program, which then record
    nothing; every patch is undone on exit.
    """
    import numpy as np

    from terw import linalg

    undo = []
    missing = []

    def patch(owner, attr, new):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    wrapped = {}
    for modname, attr, name in SPAN_SITES:
        mod = importlib.import_module(modname)
        fn = getattr(mod, attr, None)
        if fn is None:
            missing.append(f"{modname}.{attr}")
            continue
        key = (id(fn), name)
        if key not in wrapped:
            wrapped[key] = tracer.wrap(name, fn)
        patch(mod, attr, wrapped[key])

    counts = tracer.counts
    insert = linalg.SpanBasis.insert

    def counted_insert(self, mat):
        row = insert(self, mat)
        counts["linalg.insert_tried"] += 1
        if row is not None:
            counts["linalg.insert_kept"] += 1
        return row

    eig = np.linalg.eig

    def counted_eig(a):
        counts["structure.eig_calls"] += 1
        return eig(a)

    patch(linalg.SpanBasis, "insert", counted_insert)
    patch(np.linalg, "eig", counted_eig)
    try:
        yield missing
    finally:
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)
