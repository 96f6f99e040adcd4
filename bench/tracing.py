"""Spans around lucascert's public functions, installed from outside the library.

`install` replaces every public module-level function of every
`lucascert.*` module by a recording wrapper, in its defining module and in
every module that imported it by name, and wraps a few class methods on
the class.  Per-element field operations are never wrapped; their time
is the caller's self time.  The few functions called per coefficient are
only counted (`COUNT_ONLY`).

A span is [name, parent index, start, end, argument]: parents precede
their children in `Recorder.spans`.  `layer_metrics` turns the spans into
the per-layer metrics named in BENCHMARK.json.
"""

import inspect
import sys
import time

# private functions that carry a metric
PRIVATE = {"catalog._generate", "certify._verify_power_identity"}

# called once per coefficient or per binomial: counted, not timed
COUNT_ONLY = {"fields.reduce_rat_mod_p", "fields.is_prime", "catalog.lucas_binom"}

# class methods wrapped on the class, with the span name they record under
METHODS = [
    ("poly", "Poly", "__mul__", "poly.mul"),
    ("poly", "Poly", "gcd", "poly.gcd"),
    ("poly", "Poly", "divmod", "poly.divmod"),
    ("poly", "Poly", "resultant", "poly.resultant"),
    ("poly", "Poly", "factor", "poly.factor"),
    ("series", "TruncSeries", "__mul__", "series.mul"),
    ("series", "TruncSeries", "mul_poly", "series.mul"),
    ("series", "TruncSeries", "div_poly", "series.div_poly"),
    ("ratfun", "RatFun", "__add__", "ratfun.arith"),
    ("ratfun", "RatFun", "__sub__", "ratfun.arith"),
    ("ratfun", "RatFun", "__mul__", "ratfun.arith"),
    ("ratfun", "RatFun", "__truediv__", "ratfun.arith"),
    ("ratfun", "RatFun", "__pow__", "ratfun.arith"),
]

# what a span records as its argument: a problem size, or the case id
ARGUMENT = {
    "catalog._generate": lambda g, T: T,
    "catalog.series_mod_p": lambda g, p, T: T,
    "series.reduce_series_mod_p": lambda f, p: len(f),
    "linalg.kernel_basis": lambda field, rows, ncols: len(rows) * ncols,
    "casebook.run_case": lambda case_id, p, **kw: case_id,
}


class Recorder:
    """Keeps spans and counts in memory until the job list ends."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []

    def span_wrapper(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        argument = ARGUMENT.get(name)

        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, clock(), 0.0,
                   argument(*args, **kwargs) if argument else None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[3] = clock()

        return wrapper

    def count_wrapper(self, name, fn):
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def install(recorder):
    """Wrap lucascert's public functions, the PRIVATE ones and the METHODS."""
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "lucascert" or n.startswith("lucascert.")]
    for mod in modules:
        short = mod.__name__.rpartition(".")[2]
        for attr, fn in list(vars(mod).items()):
            name = f"{short}.{attr}"
            if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            if attr.startswith("_") and name not in PRIVATE:
                continue
            if name in COUNT_ONLY:
                wrapper = recorder.count_wrapper(name, fn)
            else:
                wrapper = recorder.span_wrapper(name, fn)
            for other in modules:
                for key, value in list(vars(other).items()):
                    if value is fn:
                        setattr(other, key, wrapper)
    for mod_name, cls_name, attr, name in METHODS:
        cls = getattr(sys.modules[f"lucascert.{mod_name}"], cls_name)
        setattr(cls, attr, recorder.span_wrapper(name, vars(cls)[attr]))


def summarize(spans):
    """Per span name: calls, inclusive and self seconds, summed numeric argument.

    Inclusive time counts only spans with no ancestor of the same name, so
    recursion is not counted twice.  Self time is a span's duration minus
    the durations of its direct children.
    """
    child = [0.0] * len(spans)
    outer = [True] * len(spans)
    names = [s[0] for s in spans]
    active = {}
    for i, (name, parent, start, end, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
    # parents precede children, so a forward pass with a path stack finds nesting
    path = []
    for i, (name, parent, start, end, _) in enumerate(spans):
        while path and path[-1] != parent:
            active[names[path.pop()]] -= 1
        outer[i] = active.get(name, 0) == 0
        active[name] = active.get(name, 0) + 1
        path.append(i)
    out = {}
    for i, (name, parent, start, end, arg) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "arg_sum": 0})
        row["calls"] += 1
        if outer[i]:
            row["incl_s"] += end - start
        row["self_s"] += end - start - child[i]
        if isinstance(arg, int):
            row["arg_sum"] += arg
    return out


def _row(summary, name):
    return summary.get(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "arg_sum": 0})


def _gen_terms_hit_ratio(spans):
    misses = {s[1] for s in spans if s[0] == "catalog._generate"}
    calls = [i for i, s in enumerate(spans) if s[0] == "catalog.gen_terms"]
    if not calls:
        return 0.0
    return sum(1 for i in calls if i not in misses) / len(calls)


def _expand_useful_ratio(spans):
    """Final expansion order over all orders expanded, inside assemble_certificate."""
    last, total = {}, 0
    for name, parent, _, _, T in spans:
        if (name == "catalog.series_mod_p" and parent >= 0
                and spans[parent][0] == "certify.assemble_certificate"):
            last[parent] = T
            total += T
    return sum(last.values()) / total if total else 0.0


def _case_seconds(spans, case_id):
    return sum(s[3] - s[2] for s in spans if s[0] == "casebook.run_case" and s[4] == case_id)


CASE_IDS = ("2f1", "independence", "210", "26", "apery-lucas")

# metric -> (how it is computed, the span name whose calls prove it ran)
METRICS = {
    "catalog.gen_terms_s": ("incl", "catalog.gen_terms"),
    "catalog.gen_terms_calls": ("calls", "catalog.gen_terms"),
    "catalog.gen_terms_hit_ratio": (_gen_terms_hit_ratio, "catalog.gen_terms"),
    "catalog.terms_generated": ("arg_sum", "catalog._generate"),
    "catalog.series_mod_p_s": ("incl", "catalog.series_mod_p"),
    "catalog.series_mod_p_calls": ("calls", "catalog.series_mod_p"),
    "catalog.p_lucas_check_s": ("incl", "catalog.p_lucas_check"),
    "series.reduce_mod_p_s": ("incl", "series.reduce_series_mod_p"),
    "series.reduce_mod_p_coeffs": ("arg_sum", "series.reduce_series_mod_p"),
    "series.mul_s": ("incl", "series.mul"),
    "series.mul_calls": ("calls", "series.mul"),
    "series.div_poly_s": ("incl", "series.div_poly"),
    "series.ratfun_series_s": ("incl", "series.ratfun_series"),
    "poly.mul_s": ("incl", "poly.mul"),
    "poly.mul_calls": ("calls", "poly.mul"),
    "poly.gcd_s": ("incl", "poly.gcd"),
    "poly.gcd_calls": ("calls", "poly.gcd"),
    "poly.divmod_s": ("incl", "poly.divmod"),
    "poly.divmod_calls": ("calls", "poly.divmod"),
    "poly.resultant_s": ("incl", "poly.resultant"),
    "poly.factor_s": ("incl", "poly.factor"),
    "ratfun.arith_s": ("incl", "ratfun.arith"),
    "ratfun.arith_calls": ("calls", "ratfun.arith"),
    "diffop.p_curvature_s": ("incl", "diffop.p_curvature"),
    "diffop.good_primes_s": ("incl", "diffop.good_primes"),
    "diffop.singularities_s": ("incl", "diffop.singularities"),
    "diffop.reduce_op_mod_p_s": ("incl", "diffop.reduce_op_mod_p"),
    "diffop.recurrence_from_s": ("incl", "diffop.recurrence_from"),
    "linalg.kernel_basis_s": ("incl", "linalg.kernel_basis"),
    "linalg.kernel_basis_calls": ("calls", "linalg.kernel_basis"),
    "linalg.kernel_cells": ("arg_sum", "linalg.kernel_basis"),
    "certify.orbit_detect_s": ("incl", "certify.orbit_detect"),
    "certify.split_pade_s": ("incl", "certify.split_pade"),
    "certify.iterate_s": ("incl", "certify.iterate_certificates"),
    "certify.verify_s": ("incl", "certify._verify_power_identity"),
    "certify.assemble_self_s": ("self", "certify.assemble_certificate"),
    "certify.expand_useful_ratio": (_expand_useful_ratio, "certify.assemble_certificate"),
    "certify.frobenius_shadow_self_s": ("self", "certify.frobenius_shadow"),
    **{f"casebook.case_s.{c}": (lambda spans, c=c: _case_seconds(spans, c), "casebook.run_case")
       for c in CASE_IDS},
    "fields.reduce_rat_calls": ("count", "fields.reduce_rat_mod_p"),
    "cli.self_s": ("self", "cli.main"),
}

UNITS = {"_s": "s", "_calls": "count", "_ratio": "ratio"}

# the workload on which each metric must record calls, its "home": by
# layer, except where the code path lives on another workload
LAYER_HOME = {"catalog": "certify", "series": "certify", "poly": "opinfo", "ratfun": "opinfo",
              "diffop": "opinfo", "linalg": "casebook", "certify": "certify",
              "casebook": "casebook", "fields": "certify", "cli": "certify"}
HOME_ELSEWHERE = {
    "catalog.p_lucas_check_s": "casebook",
    "series.ratfun_series_s": "shadow",
    "diffop.recurrence_from_s": "certify",
    "certify.frobenius_shadow_self_s": "shadow",
}
HOME = {m: HOME_ELSEWHERE.get(m, LAYER_HOME[m.split(".")[0]]) for m in METRICS}


def unit(metric):
    if metric.startswith("casebook.case_s."):
        return "s"
    for suffix, u in UNITS.items():
        if metric.endswith(suffix):
            return u
    return "count"


def layer_metrics(spans, counts):
    """(metrics, calls): every METRICS value, and the calls into its span name."""
    summary = summarize(spans)
    values, calls = {}, {}
    for metric, (how, span_name) in METRICS.items():
        row = _row(summary, span_name)
        if how == "count":
            values[metric] = counts.get(span_name, 0)
            calls[metric] = values[metric]
            continue
        calls[metric] = row["calls"]
        if callable(how):
            values[metric] = how(spans)
        elif how == "incl":
            values[metric] = row["incl_s"]
        elif how == "self":
            values[metric] = row["self_s"]
        else:
            values[metric] = row[how]
    return values, calls
