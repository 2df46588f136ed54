"""The ``screening`` workload: indicator functions, classification and
D-optimal search, with no Groebner basis anywhere.

An indicator op runs ``indicator_from_design``, ``classify_design`` and the
``design_from_indicator`` round trip, and some add factors with
``indicator_add_factors``.  Search ops run ``d_optimal_search``, exhaustive
at m = 4 and greedy exchange at m = 4..6.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction

from common import (
    design_text,
    expect,
    main_effect_det,
    mono_name,
    pm1_point,
    random_fraction_runs,
    regular_fraction,
    spread,
    value_vector,
    word_holds,
)



def generate(api, rng, cfg, blocks):
    ops = []
    for _ in range(blocks):
        block = []
        for stratum in cfg["strata"]:
            for i in range(stratum["count"]):
                block.append(_make_op(api, rng, cfg, stratum, i))
        rng.shuffle(block)
        ops += block
    return ops


def _make_op(api, rng, cfg, stratum, i):
    kind, count = stratum["kind"], stratum["count"]
    if kind in ("exhaustive", "greedy"):
        m, n = stratum["m"], spread(stratum["n"], count, i)
        mode = "exhaustive" if kind == "exhaustive" else "greedy-exchange"
        spec = api.SearchSpec(m, n, mode, seed=rng.randrange(2**31),
                              restarts=cfg["greedy_restarts"])
        return {"kind": kind, "spec": spec}
    words = None
    if kind == "random":
        m = stratum["m"]
        fractions = stratum["fraction"]
        runs = random_fraction_runs(rng, m, 2**m // fractions[i % len(fractions)])
    else:
        m = spread(stratum["m"], count, i)
        k = spread(stratum["words"], count, (i * 7) % count)
        runs, words = regular_fraction(rng, m, k)
    relations = []
    if m <= cfg["add_factors_max_m"] and i % cfg["add_factors_every"] == 0:
        for pos in range(1, 1 + (i // cfg["add_factors_every"]) % 2 + 1):
            bits = tuple(int(rng.random() < 0.5) for _ in range(m))
            if not any(bits):
                pick = rng.randrange(m)
                bits = tuple(int(j == pick) for j in range(m))
            relations.append(api.FactorRelation(pos, rng.choice((-1, 1)), bits))
    return {
        "kind": kind,
        "design": api.Design(m, 2, runs, "pm1"),
        "words": words,
        "relations": relations,
    }


def run_op(api, op, res, cfg):
    if "spec" in op:
        res["search"] = api.d_optimal_search(op["spec"])
        return
    d = op["design"]
    res["indicator"] = f = api.indicator_from_design(d)
    res["class"] = api.classify_design(d)
    res["inverse"] = api.design_from_indicator(f)
    if op["relations"]:
        res["extended"] = api.indicator_add_factors(f, op["relations"])


def _check_class(d, cls, words=None):
    expect(cls.diagnostic is None, "classify-diagnostic", cls.diagnostic or "")
    for w in cls.words:
        expect(word_holds(d.runs, w.bits, w.sign), "classify-witness",
               f"witness {w.bits}={w.sign} does not hold on the design")
    if cls.tag == "full-factorial":
        expect(d.n == 2**d.m, "classify-tag", "full-factorial tag on a fraction")
    if cls.tag == "regular":
        expect(d.n * 2 ** len(cls.words) == 2**d.m, "classify-tag",
               "regular witness words do not cut the design out")
    if words is not None:
        expect(cls.tag == "regular" and len(cls.words) == len(words),
               "classify-tag", f"regular fraction classified {cls.tag}")


def _own_exhaustive(state, m, n):
    """Optimum and optimizer count over all n-subsets of the 2^m runs."""
    key = (m, n)
    if key not in state:
        points = [pm1_point(i, m) for i in range(2**m)]
        best, count = -1, 0
        for subset in itertools.combinations(points, n):
            det = main_effect_det(subset)
            if det > best:
                best, count = det, 1
            elif det == best:
                count += 1
        state[key] = (best, count)
    return state[key]


def check(api, op, res, state, cfg):
    if "spec" in op:
        spec, result = op["spec"], res["search"]
        for d in result.optima:
            expect(main_effect_det(d.runs) == result.best_det, "d-criterion",
                   f"optimum has det {main_effect_det(d.runs)}, reported {result.best_det}")
        expect(len(result.classifications) == len(result.optima), "optima-classified")
        for d, cls in zip(result.optima, result.classifications):
            _check_class(d, cls)
        if spec.m <= 4:
            best, count = _own_exhaustive(state, spec.m, spec.n)
            if result.exhaustive:
                expect((result.best_det, len(result.optima)) == (best, count),
                       "exhaustive-optimum",
                       f"{result.best_det} x{len(result.optima)}, expected {best} x{count}")
            else:
                expect(result.best_det <= best, "greedy-bound",
                       f"greedy {result.best_det} beats the optimum {best}")
        expect(0 < result.best_det <= spec.n ** (spec.m + 1), "hadamard-bound",
               f"det {result.best_det} outside (0, n^(m+1)]")
        return
    d = op["design"]
    f = res["indicator"]
    expect(f.constant_term() == Fraction(d.n, 2**d.m), "b0",
           f"b0 = {f.constant_term()}, n/2^m = {Fraction(d.n, 2**d.m)}")
    expect(sorted(res["inverse"].runs) == sorted(d.runs), "inverse",
           "design_from_indicator does not return the runs")
    _check_class(d, res["class"], op["words"])
    if op["relations"]:
        ext = res["extended"]
        extra = [value_vector(d.runs, r.word) for r in op["relations"]]
        want = sorted(
            tuple(run) + tuple(r.sign * col[i] for r, col in zip(op["relations"], extra))
            for i, run in enumerate(d.runs)
        )
        got = api.design_from_indicator(ext)
        expect(sorted(got.runs) == want, "add-factors",
               "extended indicator does not describe the extended design")


def cli_cases(api, ops, workdir, cfg):
    """classify and indicator on the first random half fraction with m = 7;
    doptimal on the first exhaustive search with n = 5 (sizes are fixed so
    that the timings do not depend on the seed)."""
    d = next(o["design"] for o in ops
             if o["kind"] == "random" and (o["design"].m, o["design"].n) == (7, 64))
    spec = next(o["spec"] for o in ops if o["kind"] == "exhaustive" and o["spec"].n == 5)
    path = workdir / "screening.design"
    path.write_text(design_text(d.m, 2, "pm1", d.runs))

    def verify_classify(out):
        cls = api.classify_design(d)
        got = json.loads(out)
        words = [{"monomial": mono_name(w.bits), "sign": w.sign} for w in cls.words]
        ok = got["class"] == cls.tag and got["witness_words"] == words
        return None if ok else f"classify {got['class']} != {cls.tag}"

    def verify_indicator(out):
        lines = out.strip().splitlines()
        ring = api.PolyRing(tuple(f"x{j + 1}" for j in range(d.m)))
        got = api.IndicatorFunction.from_polynomial(ring.parse(" ".join(lines[1:])))
        ok = lines[0] == f"m={d.m}" and got == api.indicator_from_design(d)
        return None if ok else "indicator text differs from indicator_from_design"

    def verify_doptimal(out):
        got = json.loads(out)
        want = api.d_optimal_search(spec)
        ok = (got["optimum"], got["optima_count"]) == (want.best_det, len(want.optima))
        return None if ok else f"doptimal {got['optimum']} != {want.best_det}"

    return [
        ("classify", ["classify", "--design", str(path)], verify_classify),
        ("indicator", ["indicator", "--design", str(path)], verify_indicator),
        ("doptimal", ["doptimal", "--m", str(spec.m), "--n", str(spec.n)], verify_doptimal),
    ]
