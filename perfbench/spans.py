"""Call tracing from outside the program, for the benchmark's traced run.

Each public function of each algdoe module is replaced by a wrapper in every
namespace that holds it: ``from .groebner import buchberger`` binds the
function in the importing module at import time, so patching
``algdoe.groebner`` alone would miss the call from ``designs``.  A wrapped
call records a span ``[name, start, end, parent, op, child_time, error,
info]``; spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import statistics
from time import perf_counter

LAYERS = (
    "cyclotomic", "orders", "polynomials", "groebner", "designs", "indicators",
    "covariates", "markov", "glm", "mcmc", "doptimal", "cli",
)

# Arithmetic primitives called inside inner loops: a wrapper would cost more
# than the call, so their time stays in the caller's self time.
UNWRAPPED = frozenset({
    "polynomials.mono_mul", "polynomials.mono_divides", "polynomials.mono_quot",
    "polynomials.mono_lcm", "orders.mono_deg", "orders.compare",
    "cyclotomic.is_prime", "cyclotomic.omega", "cyclotomic.embed",
})

# Called up to ~1e5 times per op: counted and timed in aggregate instead of
# one span per call.  Their time still counts as child time of the caller.
AGGREGATED = frozenset({
    "glm.test_statistic", "doptimal.int_det", "groebner.s_polynomial",
    "mcmc.splitmix64", "mcmc.chain_seed",
})

NAME, START, END, PARENT, OP, CHILD, ERROR, INFO = range(8)


def _basis_info(args, kwargs, gb):
    return [len(gb.elements), sum(len(g.terms) for g in gb.elements)]


def _search_info(args, kwargs, result):
    spec = result.spec
    subsets = math.comb(2**spec.m, spec.n) if result.exhaustive else 0
    return [spec.mode, subsets, len(result.optima)]


def _mh_info(args, kwargs, result):
    cfg = args[4] if len(args) > 4 else kwargs["cfg"]
    chains = args[5] if len(args) > 5 else kwargs.get("chains", 1)
    return chains * (cfg.burn_in + max(1, cfg.thinning) * cfg.samples)


def _ideal_info(args, kwargs, result):
    design = args[0] if args else kwargs["d"]
    return design.coding


# Facts about a call's result that the per-layer metrics count.
SUMMARIES = {
    "groebner.buchberger": _basis_info,
    "designs.design_ideal": _ideal_info,
    "indicators.indicator_from_design": lambda a, k, f: len(f.coeffs),
    "doptimal.d_optimal_search": _search_info,
    "markov.markov_basis": lambda a, k, mb: len(mb.moves),
    "markov.enumerate_fiber": lambda a, k, fiber: len(fiber),
    "mcmc.mh_sample": _mh_info,
}


class Tracer:
    """Wraps algdoe's public functions; records only while ``recording``."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, list] = {}
        self.stack: list[int] = []
        self.op = -1
        self.recording = False
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def install(self):
        package = importlib.import_module("algdoe")
        modules = [package] + [importlib.import_module(f"algdoe.{m}") for m in LAYERS]
        for layer, module in zip(LAYERS, modules[1:]):
            for attr, fn in list(vars(module).items()):
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                    or inspect.isgeneratorfunction(fn)
                    or name in UNWRAPPED
                ):
                    continue
                wrapper = (
                    self._aggregate(name, fn) if name in AGGREGATED
                    else self._span(name, fn)
                )
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            self._patched.append((holder, key, fn))
                            setattr(holder, key, wrapper)

    def uninstall(self):
        for holder, key, fn in reversed(self._patched):
            setattr(holder, key, fn)
        self._patched.clear()

    def _span(self, name, fn):
        tracer = self
        summarize = SUMMARIES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            spans, stack = tracer.spans, tracer.stack
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, tracer.op, 0.0, None, None]
            stack.append(len(spans))
            spans.append(span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                stack.pop()
                span[START], span[END] = start, end
                if parent >= 0:
                    spans[parent][CHILD] += end - start
            if summarize is not None:
                span[INFO] = summarize(args, kwargs, result)
            return result

        return wrapper

    def _aggregate(self, name, fn):
        tracer = self
        totals = self.counts.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                totals[0] += 1
                totals[1] += elapsed
                if tracer.stack:
                    tracer.spans[tracer.stack[-1]][CHILD] += elapsed

        return wrapper

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op",
                               "child_time", "error", "info"],
                    "spans": self.spans,
                    "aggregated": self.counts,
                },
                fh,
            )


# -- per-layer metrics ----------------------------------------------------------


def layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer numbers from one traced run.

    Times named ``*_s`` are unscaled wall seconds per attempted op (totals
    over the run divided by the op count), inclusive of child spans unless
    the metric is a self time.  ``designs.ideal_qq_s`` and ``designs.ideal_cyclo_s`` are
    medians over the design_ideal calls that computed a basis.  Counts are
    totals over the run, which repeat exactly for a given seed.
    """
    spans = tracer.spans
    incl: dict[str, float] = {}
    self_t: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s in spans:
        d = s[END] - s[START]
        incl[s[NAME]] = incl.get(s[NAME], 0.0) + d
        self_t[s[NAME]] = self_t.get(s[NAME], 0.0) + d - s[CHILD]
        calls[s[NAME]] = calls.get(s[NAME], 0) + 1

    def parent_name(s):
        return spans[s[PARENT]][NAME] if s[PARENT] >= 0 else None

    def of(name):
        return [s for s in spans if s[NAME] == name]

    def per_op(x):
        return x / n_ops if n_ops else 0.0

    def share(part, whole):
        return part / whole if whole else 0.0

    def dur(s):
        return s[END] - s[START]

    # design_ideal calls that reached buchberger computed a basis; the rest
    # were answered by the cache
    computed = set()
    for i, s in enumerate(spans):
        if s[NAME] == "groebner.buchberger":
            j = s[PARENT]
            while j >= 0:
                if spans[j][NAME] == "designs.design_ideal":
                    computed.add(j)
                j = spans[j][PARENT]
    ideal_spans = [i for i, s in enumerate(spans) if s[NAME] == "designs.design_ideal"]
    qq = [dur(spans[i]) for i in computed if spans[i][INFO] == "pm1"]
    cyclo = [dur(spans[i]) for i in computed if spans[i][INFO] == "complex"]

    bb = of("groebner.buchberger")
    bb_self = {}
    for s in bb:
        caller = parent_name(s) or "op"
        bb_self[caller] = bb_self.get(caller, 0.0) + dur(s) - s[CHILD]
    bases = [s[INFO] for s in bb if s[INFO]]

    searches = of("doptimal.d_optimal_search")
    search_info = [s[INFO] for s in searches if s[INFO]]
    exhaustive = sum(dur(s) for s in searches if s[INFO] and s[INFO][0] == "exhaustive")
    greedy = sum(dur(s) for s in searches if s[INFO] and s[INFO][0] != "exhaustive")
    classify_in_search = sum(
        dur(s) for s in of("indicators.classify_design")
        if parent_name(s) == "doptimal.d_optimal_search"
    )

    basis_spans = of("markov.markov_basis")
    groebner_in_basis = sum(
        dur(s) for s in bb if parent_name(s) == "markov.markov_basis"
    )
    fiber_points = sum(s[INFO] for s in of("markov.enumerate_fiber") if s[INFO])
    steps = sum(s[INFO] for s in of("mcmc.mh_sample") if s[INFO])
    stat_calls, stat_time = tracer.counts.get("glm.test_statistic", [0, 0.0])

    s_, c_, r_ = "s", "count", "ratio"
    return {
        "groebner.point_ideal_s": (per_op(incl.get("groebner.point_ideal_intersection", 0.0)), s_),
        "groebner.buchberger_s.point_ideal": (per_op(bb_self.get("groebner.point_ideal_intersection", 0.0)), s_),
        "groebner.buchberger_s.design_ideal": (per_op(bb_self.get("designs.design_ideal", 0.0)), s_),
        "groebner.buchberger_s.markov_basis": (per_op(bb_self.get("markov.markov_basis", 0.0)), s_),
        "groebner.buchberger_calls": (len(bb), c_),
        "groebner.basis_len": (sum(b[0] for b in bases), c_),
        "groebner.basis_terms": (sum(b[1] for b in bases), c_),
        "groebner.standard_monomials_s": (per_op(incl.get("groebner.standard_monomials", 0.0)), s_),
        "groebner.membership_s": (per_op(incl.get("groebner.ideal_membership", 0.0)), s_),
        "designs.ideal_qq_s": (statistics.median(qq) if qq else 0.0, s_),
        "designs.ideal_cyclo_s": (statistics.median(cyclo) if cyclo else 0.0, s_),
        "designs.ideal_cache_hit_frac": (share(len(ideal_spans) - len(computed), len(ideal_spans)), r_),
        "designs.confounded_s": (per_op(incl.get("designs.is_confounded", 0.0)), s_),
        "designs.alias_table_s": (per_op(incl.get("designs.alias_table", 0.0)), s_),
        "indicators.from_design_s": (per_op(incl.get("indicators.indicator_from_design", 0.0)), s_),
        "indicators.classify_s": (per_op(self_t.get("indicators.classify_design", 0.0)), s_),
        "indicators.inverse_s": (per_op(incl.get("indicators.design_from_indicator", 0.0)), s_),
        "indicators.add_factors_s": (per_op(incl.get("indicators.indicator_add_factors", 0.0)), s_),
        "indicators.coeffs": (sum(s[INFO] or 0 for s in of("indicators.indicator_from_design")), c_),
        "doptimal.exhaustive_s": (per_op(exhaustive), s_),
        "doptimal.greedy_s": (per_op(greedy), s_),
        "doptimal.subsets": (sum(i[1] for i in search_info), c_),
        "doptimal.optima": (sum(i[2] for i in search_info), c_),
        "doptimal.classify_share": (share(classify_in_search, exhaustive + greedy), r_),
        "covariates.build_s": (per_op(incl.get("covariates.build_covariate_matrix", 0.0)), s_),
        "covariates.recode_s": (per_op(incl.get("covariates.recode_integer", 0.0)), s_),
        "markov.basis_s": (per_op(incl.get("markov.markov_basis", 0.0)), s_),
        "markov.basis_groebner_share": (share(groebner_in_basis, incl.get("markov.markov_basis", 0.0)), r_),
        "markov.moves": (sum(s[INFO] or 0 for s in basis_spans), c_),
        "markov.basis_fail_frac": (share(sum(1 for s in basis_spans if s[ERROR]), len(basis_spans)), r_),
        "markov.fiber_s": (per_op(incl.get("markov.enumerate_fiber", 0.0)), s_),
        "markov.fiber_points": (fiber_points, c_),
        "markov.fiber_points_per_s": (share(fiber_points, incl.get("markov.enumerate_fiber", 0.0)), "1/s"),
        "glm.fit_s": (per_op(incl.get("glm.fit_null_glm", 0.0)), s_),
        "glm.statistic_calls": (stat_calls, c_),
        "glm.statistic_s": (per_op(stat_time), s_),
        "mcmc.mh_s": (per_op(self_t.get("mcmc.mh_sample", 0.0)), s_),
        "mcmc.steps_per_s": (share(steps, incl.get("mcmc.mh_sample", 0.0)), "1/s"),
        "mcmc.exact_s": (per_op(self_t.get("mcmc.exact_p_value", 0.0)), s_),
    }
