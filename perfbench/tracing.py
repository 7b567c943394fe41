"""Per-layer spans recorded from outside facetforge.

Each listed public function is wrapped by rebinding its name in every
facetforge module that holds it, because modules import names directly
(verifier has its own binding of quadratics.evaluate, cli of realize).
Spans stay in memory and are written when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import re
import sys
from time import perf_counter

LAYERS = {
    "exact_linalg": ("psd_ldlt", "rank", "null_space_basis", "intersect_subspaces",
                     "solve_linear"),
    "quadratics": ("ConvexQuadratic", "classify", "evaluate", "embed", "direct_sum"),
    "constructor": ("realize", "build_ball_cylinder_system"),
    "verifier": ("blocks", "exact_signature", "probe_signature", "interior_point"),
    "signatures": ("decompose_min_cost", "lower_bound"),
    "formats": ("system_to_json", "system_from_json", "report_to_json", "export_socp",
                "export_sdpa", "slice_boundary"),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{m}.{f}" for m, fs in LAYERS.items() for f in fs)

EXTRA_METRICS = {
    "verifier.exact_signature.declined": ("count", "lower"),
    "verifier.probe_signature.rays": ("count", "higher"),
    "verifier.probe_signature.skipped_ratio": ("ratio", "lower"),
    "signatures.decompose_min_cost.timeouts": ("count", "lower"),
    "signatures.lower_bound.per_decompose": ("ratio", "lower"),
    "trace.overhead_jobs_per_s": ("1/s", "higher"),
}

UNITS = {f"{n}.calls": "count" for n in SPAN_NAMES}
UNITS.update({f"{n}.self_s": "s" for n in SPAN_NAMES})
UNITS.update({k: unit for k, (unit, _) in EXTRA_METRICS.items()})

_SKIPPED = re.compile(r"(\d+) of \d+ samples skipped")


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "error")

    def __init__(self, name, start, parent, job):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.job = job
        self.error = ""


class Tracer:
    """Records one span per call of a wrapped function.

    parent is the index of the span that was open when the call started,
    so self time is a span's duration minus its direct children's.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.job = -1
        self.rays = 0
        self.skipped = 0
        self._undo: list = []

    def _wrap(self, name, fn, observe=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, perf_counter(), stack[-1] if stack else -1, self.job)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
            if observe:
                observe(args, kwargs, result)
            return result

        return traced

    def _observe_probe(self, args, kwargs, report):
        samples = kwargs.get("samples", args[1] if len(args) > 1 else None)
        if samples is None:
            samples = self._default_samples
        self.rays += samples
        for warning in report.warnings:
            hit = _SKIPPED.search(warning)
            if hit:
                self.skipped += int(hit.group(1))

    def install(self, package):
        """Rebind every listed function wherever a facetforge module holds it."""
        modules = [m for n, m in sys.modules.items()
                   if n == package.__name__ or n.startswith(package.__name__ + ".")]
        verifier = sys.modules[package.__name__ + ".verifier"]
        self._default_samples = verifier.DEFAULT_SAMPLES
        for mod_name, names in LAYERS.items():
            module = sys.modules[f"{package.__name__}.{mod_name}"]
            for fname in names:
                span_name = f"{mod_name}.{fname}"
                original = getattr(module, fname)
                if isinstance(original, type):
                    # A dataclass __init__ looks __post_init__ up on the class.
                    post = original.__post_init__
                    self._undo.append((original, "__post_init__", post))
                    setattr(original, "__post_init__", self._wrap(span_name, post))
                    continue
                observe = self._observe_probe if fname == "probe_signature" else None
                wrapper = self._wrap(span_name, original, observe)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._undo.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def per_layer(self, scale=None) -> dict[str, float]:
        """calls and self_s per span name, plus the counts and ratios.

        scale maps a job id to the factor its times are multiplied by.
        """
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.end - span.start
        calls = dict.fromkeys(SPAN_NAMES, 0)
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        for span, inner in zip(self.spans, child):
            calls[span.name] += 1
            factor = scale(span.job) if scale else 1.0
            self_s[span.name] += ((span.end - span.start) - inner) * factor
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        out["verifier.exact_signature.declined"] = sum(
            1 for s in self.spans
            if s.name == "verifier.exact_signature" and s.error == "UnrecognizedStructure")
        out["verifier.probe_signature.rays"] = self.rays
        out["verifier.probe_signature.skipped_ratio"] = self.skipped / max(self.rays, 1)
        out["signatures.decompose_min_cost.timeouts"] = sum(
            1 for s in self.spans
            if s.name == "signatures.decompose_min_cost" and s.error == "DeadlineExceeded")
        inside = sum(1 for s in self.spans
                     if s.name == "signatures.lower_bound"
                     and self._has_ancestor(s, "signatures.decompose_min_cost"))
        out["signatures.lower_bound.per_decompose"] = inside / max(
            calls["signatures.decompose_min_cost"], 1)
        return out

    def _has_ancestor(self, span: Span, name: str) -> bool:
        while span.parent >= 0:
            span = self.spans[span.parent]
            if span.name == name:
                return True
        return False

    def write(self, path):
        """All spans as gzipped CSV: name, start, end, parent, job, error."""
        with gzip.open(path, "wt") as fh:
            fh.write("name,start_s,end_s,parent,job,error\n")
            t0 = self.spans[0].start if self.spans else 0.0
            for s in self.spans:
                fh.write(f"{s.name},{s.start - t0:.9f},{s.end - t0:.9f},"
                         f"{s.parent},{s.job},{s.error}\n")
