"""Span tracer for the traced benchmark pass.

``install`` wraps the public functions of every cglkit layer module, the
arithmetic operators of ``LaurentFraction`` (layer ``scalars``) and of
``PBWPolynomial`` (layer ``pbw``).  Each wrapped call records one span: name,
start, end, parent span and job id.  Spans live in flat arrays in memory and
are written out by ``write_spans`` when the run ends.

A span's self time is its duration minus the durations of its child spans;
calls are strictly nested on one thread, so the children never overlap.  A
layer's self time is the sum of the self times of its spans, and includes
the tracer's own bookkeeping, which ``trace.overhead_s`` bounds.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter

LAYERS = (
    "scalars",
    "pbw",
    "linalg",
    "lattice",
    "primes",
    "structure",
    "presentation",
    "automorphisms",
    "presets",
    "parsing",
    "cli",
)

# Span names of functions that a per-layer metric names.
SPAN_NAMES = {
    "pbw.normalize_words": "pbw.normalize",
    "linalg.solve_affine": "linalg.solve",
    "primes.compute_y_elements": "primes.y_elements",
    "primes.monomials_with_character": "primes.enum",
    "structure.verify_nakayama_by_normal_element": "structure.certificate",
    "structure.core_decomposition": "structure.core",
    "presentation.validate_cgl": "presentation.validate",
    "presentation.validate_symmetric": "presentation.validate",
    "presentation.permute_presentation": "presentation.permute",
    "automorphisms.verify_endomorphism": "automorphisms.verify",
    "parsing.format_poly": "parsing.format",
    "parsing.format_scalar": "parsing.format",
}

OPERATORS = {
    "__add__": "add",
    "__radd__": "add",
    "__sub__": "sub",
    "__rsub__": "sub",
    "__neg__": "neg",
    "__mul__": "mul",
    "__rmul__": "mul",
    "__truediv__": "div",
    "__rtruediv__": "div",
    "__pow__": "pow",
    "inverse": "inverse",
    "scale": "scale",
    "__eq__": "eq",
}


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("l")
        self.parent = array("l")
        self.job = array("l")
        self.stack = [-1]
        self.job_id = -1
        self.counts = Counter()
        self.presentations = {}

    def name_id(self, span):
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        return self._ids[span]

    def wrap(self, span, fn, after=None):
        nid = self.name_id(span)
        start, end, names, parents, jobs, stack = (
            self.start, self.end, self.name, self.parent, self.job, self.stack
        )
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            sid = len(end)
            names.append(nid)
            parents.append(stack[-1])
            jobs.append(tracer.job_id)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if after is not None:
                after(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", span)
        return traced

    def begin_job(self, job_id):
        self.job_id = job_id
        self.presentations.clear()

    def end_job(self):
        """Count the pair-cache entries of the presentations the job built."""
        entries = sum(len(P.pair_cache) for P in self.presentations.values())
        self.counts["pbw.cache_entries"] += entries
        self.presentations.clear()
        self.job_id = -1
        return entries


# -- counts taken at span boundaries --


def _scalar_result(tracer, args, result):
    den = getattr(result, "den", None)
    if den is not None:
        tracer.counts["scalars.results"] += 1
        if len(den) > 1:
            tracer.counts["scalars.quotients"] += 1


def _n_terms(p):
    terms = getattr(p, "terms", None)
    return 1 if terms is None else len(terms)


def _multiply_pairs(tracer, args, result):
    tracer.counts["pbw.multiply.pairs"] += _n_terms(args[0]) * _n_terms(args[1])


def _solve_cells(tracer, args, result):
    A = args[0]
    tracer.counts["linalg.solve.cells"] += len(A) * (len(A[0]) if A else 0)


def _enum_monomials(tracer, args, result):
    tracer.counts["primes.enum.monomials"] += len(result)


def _keep_presentation(tracer, args, result):
    if hasattr(result, "pair_cache"):
        tracer.presentations[id(result)] = result


AFTER = {
    "pbw.multiply": _multiply_pairs,
    "linalg.solve": _solve_cells,
    "primes.enum": _enum_monomials,
}
AFTER_LAYER = {"scalars": _scalar_result, "presets": _keep_presentation, "presentation": _keep_presentation}


def install(tracer):
    """Replace every public cglkit function and operator by a traced wrapper.

    Functions imported by name into other modules are replaced there too, so
    every call path goes through the wrapper.
    """
    from cglkit import pbw, scalars

    replaced = {}
    for layer in LAYERS:
        module = importlib.import_module(f"cglkit.{layer}")
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != module.__name__:
                continue
            span = SPAN_NAMES.get(f"{layer}.{attr}", f"{layer}.{attr}")
            after = AFTER.get(span, AFTER_LAYER.get(layer))
            replaced[id(obj)] = tracer.wrap(span, obj, after)
    for name, module in list(sys.modules.items()):
        if name != "cglkit" and not name.startswith("cglkit."):
            continue
        for attr, obj in list(vars(module).items()):
            if id(obj) in replaced and inspect.isfunction(obj):
                setattr(module, attr, replaced[id(obj)])
    for layer, cls in (("scalars", scalars.LaurentFraction), ("pbw", pbw.PBWPolynomial)):
        wrappers = {}
        for attr, op in OPERATORS.items():
            fn = cls.__dict__.get(attr)
            if fn is None:
                continue
            if id(fn) not in wrappers:
                wrappers[id(fn)] = tracer.wrap(f"{layer}.{op}", fn, AFTER_LAYER.get(layer))
            setattr(cls, attr, wrappers[id(fn)])


# -- reduction of the spans to per-layer figures --


def summarize(tracer):
    """Per span name and per layer: calls, self time and outermost inclusive time."""
    n = len(tracer.end)
    start, end, parent, name = tracer.start, tracer.end, tracer.parent, tracer.name
    layer_of = [s.split(".")[0] for s in tracer.names]
    child = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    calls = Counter()
    self_s = Counter()
    outer_s = Counter()
    for i in range(n):
        dur = end[i] - start[i]
        span = tracer.names[name[i]]
        layer = layer_of[name[i]]
        calls[span] += 1
        calls[layer] += 1
        self_s[span] += dur - child[i]
        self_s[layer] += dur - child[i]
        p = parent[i]
        if p < 0 or layer_of[name[p]] != layer:
            outer_s[layer] += dur
        if p < 0:
            outer_s["root"] += dur
        elif span == "pbw.normalize" and tracer.names[name[p]] == "pbw.multiply":
            calls["pbw.normalize.from_multiply"] += 1
    return calls, self_s, outer_s


def write_spans(tracer, path, job_names):
    """Write every span as one tab-separated line, gzip-compressed."""
    with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
        fh.write("# id\tname\tstart_s\tend_s\tparent\tjob\n")
        for j, job in enumerate(job_names):
            fh.write(f"# job {j}\t{job}\n")
        names = tracer.names
        for i in range(len(tracer.end)):
            fh.write(
                f"{i}\t{names[tracer.name[i]]}\t{tracer.start[i]:.9f}\t{tracer.end[i]:.9f}"
                f"\t{tracer.parent[i]}\t{tracer.job[i]}\n"
            )
