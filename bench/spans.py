"""Span tracing of the freecone package from outside it.

While a Tracer is installed, each public function in SPANS is replaced, in
every freecone module that binds it, by a wrapper that records one span
per call: name, start, end, parent span and job id.  Matroid and
Configuration methods are wrapped on their classes.  The hot kernel
methods in KERNELS record no span: their calls are counted, and for the
timed ones their time is added up, under the enclosing span.  Self time is
derived afterwards from the spans: a span's duration minus its child spans
and the kernel calls made directly under it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import sys
from collections import defaultdict
from time import perf_counter


def _first(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


def _sized(key):
    def work(args, kwargs, result):
        family = _first(args, kwargs)
        return {key: len(family)} if hasattr(family, "__len__") else {}

    return work


def _of_n(key, count):
    return lambda args, kwargs, result: {key: count(_first(args, kwargs).n)}


# (module, attribute, work counts taken from the arguments and the result)
SPANS = [
    ("core", "Matroid.flats_by_rank", None),
    ("core", "Matroid.delete", None),
    ("core", "matroid_from_rank_oracle", None),
    ("core", "is_isomorphic", None),
    ("zlattice", "validate_axioms", _sized("entries")),
    ("zlattice", "configuration", None),
    ("zlattice", "Configuration._search", _sized("nodes")),
    ("cone", "free_m_cone", lambda a, k, r: {"elements": r.n}),
    ("cone", "variant", None),
    (
        "invariants",
        "catenary_data",
        lambda a, k, r: {"flags": r.flag_count, "elements": _first(a, k).n},
    ),
    ("invariants", "g_invariant", _of_n("perms", math.factorial)),
    ("invariants", "tutte", _of_n("subsets", lambda n: 1 << n)),
    ("invariants", "src_data", _of_n("subsets", lambda n: 1 << n)),
    ("transfer", "certify_pair", None),
    ("transfer", "catenary_of_cone", None),
    ("transfer", "tutte_of_cone_from_src", None),
    ("transfer", "reconstruct_from_cone_config", None),
    ("documents", "parse_json", lambda a, k, r: {"bytes": len(_first(a, k).encode())}),
    ("documents", "canonical_json", lambda a, k, r: {"bytes": len(r.encode())}),
    ("documents", "matroid_from_document", None),
    ("documents", "matroid_to_document", None),
    ("documents", "configuration_from_document", None),
    ("documents", "configuration_to_document", None),
    ("cli", "main", None),
]
# Span names that differ from the attribute.  The certificate property and
# canonical_order read a cached certificate and refine the configuration
# only on the first read; tracing the refinement itself keeps cached reads
# out of zlattice.certificate.calls and .nodes.
NAMES = {"Configuration._search": "certificate"}
# (attribute of core.Matroid, whether its calls are timed as well as counted)
KERNELS = [("rank_mask", False), ("closure_mask", True), ("covers_mask", True)]


class Span:
    __slots__ = (
        "index", "name", "job", "parent", "start", "end", "kernel_s", "kernels", "work",
        "in_kernel",
    )

    def __init__(self, index, name, job, parent, in_kernel):
        self.index = index  # position in Tracer.spans
        self.name = name
        self.job = job
        self.parent = parent  # the parent's index, or None
        self.in_kernel = in_kernel  # started inside a timed kernel call
        self.kernel_s = 0.0  # time in timed kernel calls made directly under this span
        self.kernels = {}  # kernel name -> [calls, self seconds]
        self.work = None
        self.start = self.end = 0.0

    def as_list(self) -> list:
        return [self.name, self.job, self.parent, self.start, self.end, self.kernel_s,
                self.kernels, self.work]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.job = None  # job id stamped on the spans that start now
        self._open: list[Span] = []
        self._kframe = None  # child-time accumulator of the open timed kernel call
        self._outside = Span(None, "outside", None, None, False)  # kernel calls under no span
        self._restore: list = []

    # -- installation ----------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        try:
            for module, attr, work in SPANS:
                name = f"{module}.{NAMES.get(attr, attr.rsplit('.', 1)[-1])}"
                self._patch(module, attr, functools.partial(self._spanned, name, work=work))
            for attr, timed in KERNELS:
                wrap = self._timed if timed else self._counted
                self._patch("core", f"Matroid.{attr}", functools.partial(wrap, f"core.{attr}"))
            yield self
        finally:
            for owner, attr, value in reversed(self._restore):
                setattr(owner, attr, value)
            self._restore.clear()

    def _patch(self, module: str, attr: str, wrap) -> None:
        mod = importlib.import_module(f"freecone.{module}")
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(mod, cls_name)
            orig = owner.__dict__[attr]
            new = property(wrap(orig.fget)) if isinstance(orig, property) else wrap(orig)
            self._restore.append((owner, attr, orig))
            setattr(owner, attr, new)
            return
        # rebind the name wherever a freecone module imported it
        orig = getattr(mod, attr)
        new = wrap(orig)
        for m in list(sys.modules.values()):
            mod_name = getattr(m, "__name__", "")
            if mod_name != "freecone" and not mod_name.startswith("freecone."):
                continue
            for key, value in list(vars(m).items()):
                if value is orig:
                    self._restore.append((m, key, orig))
                    setattr(m, key, new)

    # -- wrappers --------------------------------------------------------

    def _spanned(self, name, orig, work):
        tr = self

        def spanned(*args, **kwargs):
            span = Span(
                len(tr.spans),
                name,
                tr.job,
                tr._open[-1].index if tr._open else None,
                tr._kframe is not None,
            )
            tr.spans.append(span)
            tr._open.append(span)
            outer, tr._kframe = tr._kframe, None
            span.start = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                span.end = perf_counter()
                tr._open.pop()
                tr._kframe = outer
                if outer is not None:
                    outer[0] += span.end - span.start
            if work is not None:
                span.work = work(args, kwargs, result)
            return result

        return spanned

    def _counted(self, name, orig):
        tr = self

        def counted(*args):
            span = tr._open[-1] if tr._open else tr._outside
            rec = span.kernels.get(name)
            if rec is None:
                rec = span.kernels[name] = [0, 0.0]
            rec[0] += 1
            return orig(*args)

        return counted

    def _timed(self, name, orig):
        tr = self

        def timed(*args):
            span = tr._open[-1] if tr._open else tr._outside
            rec = span.kernels.get(name)
            if rec is None:
                rec = span.kernels[name] = [0, 0.0]
            rec[0] += 1
            outer = tr._kframe
            frame = tr._kframe = [0.0]
            t0 = perf_counter()
            try:
                return orig(*args)
            finally:
                dt = perf_counter() - t0
                tr._kframe = outer
                rec[1] += dt - frame[0]
                if outer is None:
                    span.kernel_s += dt
                else:
                    outer[0] += dt

        return timed


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus its child spans and its own kernel calls."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None and not span.in_kernel:
            child[span.parent] += span.end - span.start
    return [s.end - s.start - child[i] - s.kernel_s for i, s in enumerate(spans)]


def job_totals(spans: list[Span]) -> dict:
    """Per-layer sums for each job: `<name>.calls`, `<name>.self_s` and
    `<name>.<work count>`, keyed by job id.

    ``transfer.reconstruct_from_cone_config.candidates`` counts the
    free_m_cone spans under each reconstruction.
    """
    out: dict = defaultdict(lambda: defaultdict(int))
    for span, self_s in zip(spans, self_times(spans)):
        acc = out[span.job]
        acc[f"{span.name}.calls"] += 1
        acc[f"{span.name}.self_s"] += self_s
        for key, value in (span.work or {}).items():
            acc[f"{span.name}.{key}"] += value
        for kernel, (calls, kernel_self) in span.kernels.items():
            acc[f"{kernel}.calls"] += calls
            acc[f"{kernel}.self_s"] += kernel_self
        if span.name == "cone.free_m_cone":
            p = span.parent
            while p is not None:
                if spans[p].name == "transfer.reconstruct_from_cone_config":
                    acc["transfer.reconstruct_from_cone_config.candidates"] += 1
                    break
                p = spans[p].parent
    return {job: dict(acc) for job, acc in out.items()}
