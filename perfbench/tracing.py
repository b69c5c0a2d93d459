"""Traced run: wrap public layer functions of ``brauerlab`` from outside.

Each wrapped function is replaced where the program looks it up (a class
attribute or a module global), so calls made inside the program are seen
as well as the benchmark's own.  Two kinds of wrapper:

* counted (``COUNTED``) only counts calls.  It is used for scalar hot paths
  called millions of times, where a timer would mostly measure the wrapper.
* spanned (``SPANNED``) records a span (name, start, end, parent span,
  certificate) and counts calls, raised exceptions and, for
  ``exact_divide``, useful results.

Spans are kept in memory and written out by ``write``.  Self time of a span
is its duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from pathlib import Path

from brauerlab import crossed, groups, lattices, quadforms, snf
from brauerlab.exactfield import cyclotomic, poly

# (metric name, owner, attribute): counted only
COUNTED = (
    ("exactfield.cyc_mul", cyclotomic.Cyc, "__mul__"),
    ("exactfield.cyc_mul", cyclotomic.Cyc, "__rmul__"),
    ("exactfield.cyc_init", cyclotomic.Cyc, "__init__"),
    ("exactfield.euler_phi", cyclotomic, "euler_phi"),
    ("exactfield.poly_mul", poly.MultiPoly, "__mul__"),
    ("exactfield.poly_mul", poly.MultiPoly, "__rmul__"),
    ("exactfield.fe_init", poly.FieldElement, "__init__"),
    ("crossed.kummer_mul", crossed.KummerField, "mul"),
    ("crossed.algebra_mul", crossed.CrossedAlgebra, "mul"),
)

# (metric name, owner, attribute): timed with spans
SPANNED = (
    ("exactfield.exact_divide", poly, "exact_divide"),
    ("crossed.construct", crossed.CrossedAlgebra, "__init__"),
    ("crossed.decompose", crossed, "decompose"),
    ("crossed.cyclic_to_symbol", crossed, "cyclic_to_symbol"),
    ("crossed.bergman_power", crossed, "bergman_power"),
    ("quadforms.trace_data", quadforms, "trace_data"),
    ("quadforms.replay", quadforms, "replay_trace_form_equivalence"),
    ("lattices.sequence", lattices, "freepres_sequence"),
    ("lattices.sequence", lattices, "seq2_sequence"),
    ("lattices.sequence", lattices, "formanek_sequence"),
    ("lattices.is_exact", lattices, "is_exact"),
    ("lattices.solve", lattices.LatticeMap, "solve"),
    ("snf.smith_normal_form", snf, "smith_normal_form"),
    ("snf.det", snf, "det"),
    ("snf.int_solve", snf.IntSolver, "solve"),
    ("groups.subgroups", groups, "subgroups_up_to_conjugacy"),
    ("groups.min_generators", groups, "min_generators_rel"),
)

# a non-None exact_divide result is a hit: the quotient collapsed
HITS = {"exactfield.exact_divide": lambda result: result is not None}


def metric_names() -> list:
    """Every per-layer metric the traced run reports, in report order."""
    names = [name + ".calls" for name in dict.fromkeys(n for n, _, _ in COUNTED)]
    for name in dict.fromkeys(n for n, _, _ in SPANNED):
        names += [name + ".calls", name + ".s", name + ".self_s"]
    names.insert(names.index("exactfield.exact_divide.self_s") + 1,
                 "exactfield.exact_divide.hit_ratio")
    names.insert(names.index("crossed.construct.self_s") + 1,
                 "crossed.construct.rejected")
    return names


class Tracer:
    """Installs the wrappers on enter and restores the originals on exit."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.raised: Counter = Counter()
        self.hits: Counter = Counter()
        # span: [id, parent id, name, certificate, start, end]
        self.spans: list = []
        self._stack: list = []
        self._saved: list = []
        self.certificate = None

    # -- installing ------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for name, owner, attr in COUNTED:
            self._wrap(owner, attr, self._counter(name, getattr(owner, attr)))
        for name, owner, attr in SPANNED:
            self._wrap(owner, attr, self._spanner(name, getattr(owner, attr)))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, owner, attr, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _counter(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _spanner(self, name, fn):
        hit = HITS.get(name)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            with self.span(name):
                try:
                    result = fn(*args, **kwargs)
                except Exception:
                    self.raised[name] += 1
                    raise
            if hit is not None and hit(result):
                self.hits[name] += 1
            return result
        return spanned

    # -- spans -------------------------------------------------------------

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def metrics(self) -> dict:
        """Per-layer metric values, in the order of metric_names()."""
        inclusive: Counter = Counter()
        child: Counter = Counter()
        for sid, parent, name, _, start, end in self.spans:
            inclusive[name] += end - start
            if parent is not None:
                child[parent] += end - start
        self_time: Counter = Counter()
        for sid, _, name, _, start, end in self.spans:
            self_time[name] += (end - start) - child[sid]
        out = {}
        for metric in metric_names():
            name, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = (self.calls[name], "count")
            elif kind == "s":
                out[metric] = (float(inclusive[name]), "s")
            elif kind == "self_s":
                out[metric] = (float(self_time[name]), "s")
            elif kind == "rejected":
                out[metric] = (self.raised[name], "count")
            elif kind == "hit_ratio":
                calls = self.calls[name]
                out[metric] = (self.hits[name] / calls if calls else 0.0,
                               "ratio")
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("id", "parent", "name", "certificate", "start", "end")
        with path.open("w") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh)


class _Span:
    """Context manager for one span; nests through the tracer's stack."""

    __slots__ = ("tracer", "record")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.record = [len(tracer.spans),
                       tracer._stack[-1][0] if tracer._stack else None,
                       name, tracer.certificate, 0.0, 0.0]

    def __enter__(self) -> None:
        tracer = self.tracer
        tracer.calls[self.record[2]] += 1
        tracer.spans.append(self.record)
        tracer._stack.append(self.record)
        self.record[4] = time.perf_counter()

    def __exit__(self, *exc) -> None:
        self.record[5] = time.perf_counter()
        self.tracer._stack.pop()
