"""The ``ideal`` workload: design ideals, standard monomials and confounding.

One op computes ``design_ideal`` under lex or grevlex, then
``est_monomials``, a batch of ``is_confounded`` queries over main effects and
two-factor interactions, then ``alias_table``.  Three-level designs are
complex coded, so their ideals live over Q(w3); confounding and alias tables
are defined for two-level designs only, so those ops stop after Est.
"""

from __future__ import annotations

import importlib
import itertools
import json

from common import (
    design_text,
    expect,
    mono_name,
    random_fraction_runs,
    regular_fraction,
    spread,
    value_vector,
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
    m, kind = stratum["m"], stratum["kind"]
    if kind == "random":
        runs = random_fraction_runs(rng, m, spread(stratum["n"], stratum["count"], i))
        design = api.Design(m, 2, runs, "pm1")
    elif kind == "regular":
        runs, _ = regular_fraction(rng, m, stratum["words"])
        design = api.Design(m, 2, runs, "pm1")
    else:
        cells = rng.sample(range(3**m), spread(stratum["n"], stratum["count"], i))
        runs = tuple(sorted(tuple((c // 3**k) % 3 for k in range(m)) for c in cells))
        design = api.Design(m, 3, runs, "complex")
    # alternate orders within a stratum so every run has the same lex share
    order = api.TermOrder.lex(m) if i % 2 else api.TermOrder.grevlex(m)
    queries = []
    if kind != "complex":
        effects = [tuple(int(j == a) for j in range(m)) for a in range(m)]
        effects += [
            tuple(int(j in pair) for j in range(m))
            for pair in itertools.combinations(range(m), 2)
        ]
        pairs = list(itertools.combinations(effects, 2))
        queries = rng.sample(pairs, min(cfg["confounding_queries"], len(pairs)))
    return {"kind": kind, "design": design, "order": order, "queries": queries}


def run_op(api, op, res, cfg):
    d, order = op["design"], op["order"]
    res["basis"] = api.design_ideal(d, order)
    res["est"] = api.est_monomials(d, order)
    if d.s == 2:
        res["confounded"] = [api.is_confounded(a1, a2, d) for a1, a2 in op["queries"]]
        res["aliases"] = api.alias_table(d, 2)


def _own_confounding(runs, a1, a2):
    values = {u * v for u, v in zip(value_vector(runs, a1), value_vector(runs, a2))}
    return values.pop() if len(values) == 1 else None


def _own_alias_classes(runs, m, max_degree=2):
    groups = {}
    for mono in itertools.product((0, 1), repeat=m):
        if sum(mono) <= max_degree:
            vec = value_vector(runs, mono)
            canon = tuple(v * vec[0] for v in vec)
            groups.setdefault(canon, set()).add(mono)
    return {frozenset(g) for g in groups.values()}


def check(api, op, res, state, cfg):
    d = op["design"]
    gb = res["basis"]
    points = d.points()
    for g in gb.elements:
        expect(all(not g.evaluate(p) for p in points), "vanishing",
               f"generator {g!r} does not vanish on every run")
    est = res["est"]
    expect(len(est) == d.n and len(set(est)) == d.n, "est-size",
           f"|Est| = {len(est)}, n = {d.n}")
    members = set(est)
    for e in est:
        for i, k in enumerate(e):
            if k:
                below = e[:i] + (k - 1,) + e[i + 1:]
                expect(below in members, "est-closed", f"{below} divides {e}")
    groebner = importlib.import_module("algdoe.groebner")
    expect(groebner.spolynomials_reduce_to_zero(gb), "spolynomials",
           "an S-polynomial does not reduce to zero")
    if d.s != 2:
        return
    for (a1, a2), got in zip(op["queries"], res["confounded"]):
        want = _own_confounding(d.runs, a1, a2)
        expect(got == want, "confounding", f"{a1} vs {a2}: {got}, expected {want}")
    classes = res["aliases"]
    for cls in classes:
        rep = value_vector(d.runs, cls[0][0])
        for mono, sign in cls:
            expect(tuple(sign * v for v in value_vector(d.runs, mono)) == rep,
                   "alias-sign", f"{mono} in class of {cls[0][0]}")
    got = {frozenset(mono for mono, _ in cls) for cls in classes}
    expect(got == _own_alias_classes(d.runs, d.m), "alias-classes",
           "classes differ from the evaluation partition")


def cli_cases(api, ops, workdir, cfg):
    """(command, argv, verify) triples on the regular 2^(4-1) fraction
    x1*x2*x3*x4 = 1.  The design is fixed: the cost of est varies several-fold
    between random designs of one size, and cli_p50_s must not depend on the
    seed."""
    runs = tuple(r for r in itertools.product((-1, 1), repeat=4) if r[0] * r[1] * r[2] * r[3] == 1)
    d = api.Design(4, 2, runs, "pm1")
    path = workdir / "ideal.design"
    path.write_text(design_text(d.m, 2, "pm1", d.runs))
    grevlex = api.TermOrder.grevlex(d.m)

    def verify_est(out):
        want = sorted(mono_name(e) for e in api.est_monomials(d, grevlex))
        got = sorted(t.strip() for t in out.strip().split(","))
        return None if got == want else f"est {got} != {want}"

    def verify_alias(out):
        want = [
            [{"monomial": mono_name(mono), "sign": sign} for mono, sign in cls]
            for cls in api.alias_table(d, 2)
        ]
        got = json.loads(out)["classes"]
        return None if got == want else "alias classes differ from alias_table"

    return [
        ("est", ["est", "--design", str(path), "--order", "grevlex"], verify_est),
        ("alias", ["alias", "--design", str(path)], verify_alias),
    ]
