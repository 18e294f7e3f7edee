"""Spans around the public functions of each chromroots layer, recorded
from outside the package.

`Tracer.installed()` replaces each traced function with a wrapper, in
every chromroots module namespace that binds it (methods on their class),
and puts the originals back on exit.  Each call records a span ``[name,
start, end, parent, excluded]`` in memory; `layer_metrics` turns the spans
into the per-layer metrics of LAYER_METRICS.  A layer's self time is its
spans' time minus the time of their child spans.  Timings are scaled to
reference seconds as the end-to-end ones are (see run.REFERENCE_KERNEL_S).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

#: Traced functions per layer module; "Class.method" entries are patched on
#: the class.
TRACED = {
    "exactnum": ("IntPolynomial.__mul__", "QuadExt.sign"),
    "chromatic": ("chromatic_polynomial", "partitioned_chromatic"),
    "transfer": ("glue", "extend_one_layer", "family_polynomial",
                 "family_value_at", "family_sign_at", "golden_identity_check"),
    "spectral": ("planar_face_identity", "classify_end_graph",
                 "second_projection_at", "eigensystem_at", "decompose"),
    "roots": ("largest_root_near_four", "bracket_near_four", "bisect",
              "sturm_count", "sturm_sequence", "complex_roots"),
}

#: (name, unit, better, is_count, moves, workload): every per-layer metric,
#: the end-to-end metrics it should move, and the workload it should move
#: them on (and stay flat on the others).
LAYER_METRICS = (
    ("chromatic.self_s", "s", "lower", False, "wall_s max_item_s peak_rss_mb", "ends"),
    ("chromatic.poly_calls", "count", "lower", True, "wall_s max_item_s", "ends; 0 on the strip workloads"),
    ("chromatic.cache_entries", "count", "lower", True, "peak_rss_mb wall_s", "ends"),
    ("spectral.self_s", "s", "lower", False, "wall_s", "ends"),
    ("spectral.classify_calls", "count", "lower", True, "wall_s", "ends"),
    ("spectral.probes", "count", "lower", True, "wall_s", "ends"),
    ("spectral.probes_per_sweep", "probe/sweep", "lower", True, "wall_s", "ends"),
    ("transfer.self_s", "s", "lower", False, "wall_s max_item_s", "roots-pointwise"),
    ("transfer.value_at_calls", "count", "lower", True, "wall_s max_item_s", "roots-pointwise; near flat on strip-symbolic"),
    ("transfer.value_at_ms", "ms", "lower", False, "wall_s max_item_s", "roots-pointwise"),
    ("transfer.value_max_bits", "bits", "lower", True, "wall_s max_item_s", "roots-pointwise"),
    ("transfer.family_polynomial_s", "s", "lower", False, "wall_s", "strip-symbolic"),
    ("transfer.layers_extended", "count", "lower", True, "wall_s", "strip-symbolic"),
    ("transfer.golden_s", "s", "lower", False, "wall_s", "strip-symbolic"),
    ("roots.self_s", "s", "lower", False, "wall_s max_item_s", "roots-pointwise strip-symbolic"),
    ("roots.bracket_s", "s", "lower", False, "wall_s max_item_s", "roots-pointwise"),
    ("roots.bisect_s", "s", "lower", False, "wall_s max_item_s", "roots-pointwise"),
    ("roots.sign_evals_per_root", "eval/root", "lower", True, "wall_s max_item_s", "roots-pointwise"),
    ("roots.sturm_s", "s", "lower", False, "wall_s", "strip-symbolic"),
    ("roots.sturm_chain_len", "count", "lower", True, "wall_s", "strip-symbolic"),
    ("roots.croots_s", "s", "lower", False, "wall_s max_item_s", "strip-symbolic"),
    ("roots.croots_residual_bits", "bits", "higher", False, "none (accuracy)", "strip-symbolic"),
    ("exactnum.self_s", "s", "lower", False, "wall_s", "strip-symbolic ends"),
    ("exactnum.poly_mul_calls", "count", "lower", True, "wall_s", "strip-symbolic (large products) and ends (small products)"),
    ("exactnum.poly_mul_s", "s", "lower", False, "wall_s", "strip-symbolic and ends"),
    ("exactnum.max_coeff_bits", "bits", "lower", True, "wall_s", "strip-symbolic and ends"),
    ("exactnum.quadext_sign_calls", "count", "lower", True, "wall_s", "ends"),
    ("trace.overhead_frac", "ratio", "lower", False, "none", "all"),
)

COUNT_METRICS = tuple(m[0] for m in LAYER_METRICS if m[3])
#: Timings, scaled to reference seconds.
TIME_METRICS = tuple(m[0] for m in LAYER_METRICS if m[1] in ("s", "ms"))


def _bits_of_value(tracer, args, kwargs, value):
    tracer.note_max("transfer.value_max_bits",
                    max(abs(value.numerator).bit_length(),
                        value.denominator.bit_length()))


def _bits_of_product(tracer, args, kwargs, product):
    coefficients = getattr(product, "coefficients", ())
    if coefficients:
        tracer.note_max("exactnum.max_coeff_bits",
                        max(abs(c).bit_length() for c in coefficients))


def _cache_entries(tracer, args, kwargs, result):
    tracer.counts["chromatic.cache_entries"] += len(kwargs.get("cache") or ())


def _chain_length(tracer, args, kwargs, chain):
    tracer.note_max("roots.sturm_chain_len", len(chain))


def _residual_bits(tracer, args, kwargs, root_set):
    import mpmath
    residual = root_set.max_residual
    # Residuals are evaluated at twice the working precision.
    bits = float(-mpmath.log(residual, 2)) if residual > 0 \
        else 2.0 * root_set.precision_bits
    tracer.note_min("roots.croots_residual_bits", bits)


#: Observations taken from a traced call's arguments and result.
HOOKS = {
    "transfer.family_value_at": _bits_of_value,
    "exactnum.IntPolynomial.__mul__": _bits_of_product,
    "chromatic.partitioned_chromatic": _cache_entries,
    "roots.sturm_sequence": _chain_length,
    "roots.complex_roots": _residual_bits,
}


class Tracer:
    """Spans and observations of one traced run."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.extremes = {}
        self._stack = []
        self._patched = []

    def note_max(self, key, value):
        self.extremes[key] = max(self.extremes.get(key, value), value)

    def note_min(self, key, value):
        self.extremes[key] = min(self.extremes.get(key, value), value)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, 0.0]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
                if parent >= 0:
                    # Hook time is tracing cost, not the caller's work.
                    spans[parent][4] += clock() - span[2]
            return result
        return traced

    @contextmanager
    def installed(self):
        """Wrap every traced function for the duration of the block."""
        package = [m for name, m in list(sys.modules.items())
                   if name == "chromroots" or name.startswith("chromroots.")]
        try:
            for layer, attrs in TRACED.items():
                module = sys.modules[f"chromroots.{layer}"]
                for attr in attrs:
                    owner, _, fname = attr.rpartition(".")
                    holders = [getattr(module, owner)] if owner else package
                    original = vars(holders[0])[fname] if owner \
                        else getattr(module, fname)
                    wrapper = self._wrap(f"{layer}.{attr}", original)
                    for holder in holders:
                        for key, value in list(vars(holder).items()):
                            if value is original:
                                setattr(holder, key, wrapper)
                                self._patched.append((holder, key, original))
            yield self
        finally:
            for holder, key, original in reversed(self._patched):
                setattr(holder, key, original)
            self._patched.clear()

    def layer_metrics(self, scale: float) -> dict:
        """Every LAYER_METRICS value except trace.overhead_frac, timings
        multiplied by `scale` (reference seconds per measured second)."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        calls = Counter()
        for i, (name, start, end, _, excluded) in enumerate(spans):
            self_s[name.split(".")[0]] += end - start - child[i] - excluded
            total_s[name] += end - start
            calls[name] += 1

        def has_ancestor(i, name):
            i = spans[i][3]
            while i >= 0:
                if spans[i][0] == name:
                    return True
                i = spans[i][3]
            return False

        def ratio(a, b):
            return a / b if b else 0.0

        root_evals = sum(1 for i, s in enumerate(spans)
                         if s[0] == "transfer.family_value_at"
                         and has_ancestor(i, "roots.largest_root_near_four"))
        sweeps = {spans[i][3] for i, s in enumerate(spans)
                  if s[0] == "spectral.second_projection_at" and s[3] >= 0
                  and spans[s[3]][0] == "spectral.classify_end_graph"}
        value_calls = calls["transfer.family_value_at"]
        metrics = {
            "chromatic.self_s": self_s["chromatic"],
            "chromatic.poly_calls": calls["chromatic.chromatic_polynomial"],
            "chromatic.cache_entries": self.counts["chromatic.cache_entries"],
            "spectral.self_s": self_s["spectral"],
            "spectral.classify_calls": calls["spectral.classify_end_graph"],
            "spectral.probes": calls["spectral.second_projection_at"],
            "spectral.probes_per_sweep": ratio(
                calls["spectral.second_projection_at"], len(sweeps)),
            "transfer.self_s": self_s["transfer"],
            "transfer.value_at_calls": value_calls,
            "transfer.value_at_ms": 1e3 * ratio(
                total_s["transfer.family_value_at"], value_calls),
            "transfer.value_max_bits": self.extremes.get("transfer.value_max_bits", 0),
            "transfer.family_polynomial_s": total_s["transfer.family_polynomial"],
            "transfer.layers_extended": calls["transfer.extend_one_layer"],
            "transfer.golden_s": total_s["transfer.golden_identity_check"],
            "roots.self_s": self_s["roots"],
            "roots.bracket_s": total_s["roots.bracket_near_four"],
            "roots.bisect_s": total_s["roots.bisect"],
            "roots.sign_evals_per_root": ratio(
                root_evals, calls["roots.largest_root_near_four"]),
            "roots.sturm_s": total_s["roots.sturm_count"],
            "roots.sturm_chain_len": self.extremes.get("roots.sturm_chain_len", 0),
            "roots.croots_s": total_s["roots.complex_roots"],
            "roots.croots_residual_bits": self.extremes.get("roots.croots_residual_bits", 0.0),
            "exactnum.self_s": self_s["exactnum"],
            "exactnum.poly_mul_calls": calls["exactnum.IntPolynomial.__mul__"],
            "exactnum.poly_mul_s": total_s["exactnum.IntPolynomial.__mul__"],
            "exactnum.max_coeff_bits": self.extremes.get("exactnum.max_coeff_bits", 0),
            "exactnum.quadext_sign_calls": calls["exactnum.QuadExt.sign"],
        }
        for name in TIME_METRICS:
            metrics[name] *= scale
        return metrics
