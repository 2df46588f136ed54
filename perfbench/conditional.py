"""The ``conditional`` workload: conditional goodness-of-fit tests.

One op runs ``build_covariate_matrix``, ``markov_basis`` under the
workload's pair cap, ``fit_null_glm``, ``mh_sample`` at a fixed chain length,
and ``exact_p_value`` when the run count and the total of y0 are within the
enumeration caps, the way ``algdoe mctest`` and ``algdoe exact`` run them.

The oracle works from the model's marginal tables: every catalogue model is
hierarchical, so its sufficient statistic is the set of marginal tables of
its generating class and its fibers are the tables with those margins,
whatever contrast scheme the covariate matrix uses.  Its fitted means come
from iterative proportional fitting over those tables, not from the
program's fit, and its p-values use its own means.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction

from common import Failure, design_text, expect, mono_name, spread


ME3 = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
# name -> (levels, factors, model terms, contrast, generating class)
MODELS = {
    "2^3 main effects": (2, 3, ME3, None, [(0,), (1,), (2,)]),
    "2^3 main effects + x1*x2": (2, 3, ME3 + [(1, 1, 0)], None, [(0, 1), (2,)]),
    "3x3 main effects baseline": (3, 2, [(0, 0), (1, 0), (0, 1)], "baseline", [(0,), (1,)]),
    "3x3 main effects symmetric": (3, 2, [(0, 0), (1, 0), (0, 1)], "symmetric", [(0,), (1,)]),
    "3x3 main effects complex": (3, 2, [(0, 0), (1, 0), (0, 1)], "complex", [(0,), (1,)]),
    "2^4 main effects": (
        2, 4, [(0,) * 4] + [tuple(int(i == j) for i in range(4)) for j in range(4)],
        None, [(0,), (1,), (2,), (3,)],
    ),
    "2^3 no-three-way": (
        2, 3, ME3 + [(1, 1, 0), (1, 0, 1), (0, 1, 1)], None, [(0, 1), (0, 2), (1, 2)],
    ),
}
# not decomposable: positive margins do not guarantee that the MLE exists
ALL_CELLS_POSITIVE = {"2^3 no-three-way"}
# seed defect: markov_basis exceeds the pair cap on these models
PAIR_CAP_MODELS = {"2^3 no-three-way", "3x3 main effects symmetric", "3x3 main effects complex"}
REL_TOL = 1e-7  # "at least as extreme", as in R's fisher.test
MU_TOL = 1e-6  # relative agreement of the program's fitted means with IPF's


def margins(runs, generating_class):
    """Constraint sets: the runs in each cell of each marginal table, plus
    the all-runs total first."""
    cons = [tuple(range(len(runs)))]
    for gen in generating_class:
        cells = {}
        for i, run in enumerate(runs):
            cells.setdefault(tuple(run[f] for f in gen), []).append(i)
        cons += [tuple(c) for _, c in sorted(cells.items())]
    return cons


def generate(api, rng, cfg, blocks):
    ops = []
    for _ in range(blocks):
        block = []
        for stratum in cfg["strata"]:
            name = stratum["model"]
            s, m, terms, contrast, gens = MODELS[name]
            levels = (-1, 1) if s == 2 else range(s)
            runs = tuple(itertools.product(levels, repeat=m))
            design = api.Design(m, s, runs, "pm1" if s == 2 else "integer")
            cons = margins(runs, gens)
            for i in range(stratum["count"]):
                total = spread(cfg["y0_total"], stratum["count"], i)
                while True:
                    y0 = [0] * len(runs)
                    for _ in range(total):
                        y0[rng.randrange(len(runs))] += 1
                    interior = all(sum(y0[j] for j in c) > 0 for c in cons)
                    if name in ALL_CELLS_POSITIVE:
                        interior = interior and min(y0) > 0
                    if interior:
                        break
                block.append({
                    "model": name, "design": design, "terms": terms,
                    "contrast": contrast, "cons": cons, "y0": tuple(y0),
                    "stat": ("deviance", "pearson")[i % 2],
                    "chain_seed": rng.randrange(2**31),
                })
        rng.shuffle(block)
        ops += block
    return ops


def within_caps(op, cfg):
    caps = cfg["enumeration_caps"]
    return op["design"].n <= caps["max_runs"] and sum(op["y0"]) <= caps["max_total"]


def run_op(api, op, res, cfg):
    res["stage"] = "build"
    A = api.build_covariate_matrix(op["design"], op["terms"], op["contrast"])
    res["stage"] = "markov_basis"
    res["basis"] = basis = api.markov_basis(A, api.Budget(max_pairs=cfg["pair_cap"]))
    res["stage"] = "fit"
    res["fit"] = fit = api.fit_null_glm(A, op["y0"])
    res["stage"] = "mh"
    chain = cfg["chain"]
    config = api.ChainConfig(seed=op["chain_seed"], burn_in=chain["burn_in"],
                             samples=chain["samples"], thinning=chain["thinning"])
    res["mh"] = api.mh_sample(A, op["y0"], basis, op["stat"], config,
                              chains=chain["chains"], fit=fit)
    if within_caps(op, cfg):
        res["stage"] = "exact"
        caps = cfg["enumeration_caps"]
        res["exact"] = api.exact_p_value(A, op["y0"], op["stat"], fit=fit, **caps)
    res["stage"] = "done"


def ipf_means(cons, y0, sweeps=10_000, tol=1e-12):
    """Poisson MLE of a hierarchical model by iterative proportional fitting:
    scale the means to each marginal cell in turn until every margin of y0 is
    met.  Decomposable models converge in one sweep."""
    mu = [1.0] * len(y0)
    for _ in range(sweeps):
        worst = 0.0
        for c in cons:
            want = sum(y0[j] for j in c)
            got = sum(mu[j] for j in c)
            worst = max(worst, abs(got - want) / want)
            for j in c:
                mu[j] *= want / got
        if worst <= tol:
            return mu
    raise AssertionError(f"IPF did not converge in {sweeps} sweeps")


def enumerate_tables(cons, y0):
    """All nonnegative y with the same constraint sums as y0 (depth first;
    the last run of each constraint set is forced)."""
    n = len(y0)
    need = [sum(y0[j] for j in c) for c in cons]
    member = [[k for k, c in enumerate(cons) if i in c] for i in range(n)]
    last = [max(c) for c in cons]
    y = [0] * n
    out = []

    def rec(i):
        if i == n:
            out.append(tuple(y))
            return
        forced = {need[k] for k in member[i] if last[k] == i}
        if len(forced) > 1:
            return
        hi = min(need[k] for k in member[i])
        values = forced if forced else range(hi + 1)
        for v in values:
            if v > hi:
                continue
            y[i] = v
            for k in member[i]:
                need[k] -= v
            rec(i + 1)
            for k in member[i]:
                need[k] += v
        y[i] = 0

    rec(0)
    return out


def statistic(kind, y, mu):
    if kind == "pearson":
        return sum((a - b) ** 2 / b for a, b in zip(y, mu))
    return 2.0 * sum(
        (a * math.log(a / b) - (a - b)) if a else b for a, b in zip(y, mu)
    )


def oracle_p(kind, y0, mu, fiber):
    """(tie-aware p, mass of points clearly more extreme) as exact rationals,
    with multinomial weights N!/prod(y_i!)."""
    t_obs = statistic(kind, y0, mu)
    cut = REL_TOL * max(abs(t_obs), 1e-300)
    total = math.factorial(sum(y0))
    den = tie = clear = 0
    for y in fiber:
        w = total
        for v in y:
            w //= math.factorial(v)
        den += w
        t = statistic(kind, y, mu)
        if t >= t_obs - cut:
            tie += w
        if t > t_obs + cut:
            clear += w
    return Fraction(tie, den), Fraction(clear, den)


def connected(fiber, moves, start):
    points = set(fiber)
    seen = {start}
    frontier = [start]
    while frontier:
        cur = frontier.pop()
        for z in moves:
            for sign in (1, -1):
                nxt = tuple(a + sign * b for a, b in zip(cur, z))
                if nxt in points and nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    return seen == points


def check(api, op, res, state, cfg):
    cons, y0 = op["cons"], op["y0"]
    for z in res["basis"].moves:
        expect(all(sum(z[j] for j in c) == 0 for c in cons), "kernel-residual",
               f"move {z} changes a margin")
    mu = ipf_means(cons, y0)
    expect(len(res["fit"].mu) == len(y0), "glm-mle", f"{len(res['fit'].mu)} fitted means")
    for j, (got, want) in enumerate(zip(res["fit"].mu, mu)):
        expect(abs(got - want) <= MU_TOL * max(1.0, want), "glm-mle",
               f"fitted mean {got} of run {j} != IPF {want}")
    if not within_caps(op, cfg):
        return
    fiber = enumerate_tables(cons, y0)
    expect(connected(fiber, res["basis"].moves, y0), "fiber-connected",
           f"moves do not connect the {len(fiber)}-point fiber")
    p_tie, p_clear = oracle_p(op["stat"], y0, mu, fiber)
    # when both p-values miss, report one that no seed defect explains first
    failures = []
    p_exact = res["exact"].p_exact
    if p_exact != p_tie:
        known = p_clear < p_exact < p_tie
        failures.append(Failure(
            "exact-p", f"p_exact {p_exact} != tie-aware {p_tie}",
            "exact-ties-dropped" if known else None,
        ))
    mh = res["mh"]
    tol = 4 * mh.std_error + 0.01
    if abs(mh.p_value - float(p_tie)) > tol:
        known = float(p_clear) - tol <= mh.p_value < float(p_tie) - tol
        failures.append(Failure(
            "mh-p", f"MH p {mh.p_value:.4f} (se {mh.std_error:.4f}) vs tie-aware {float(p_tie):.4f}",
            "mh-ties-dropped" if known else None,
        ))
    if failures:
        failures.sort(key=lambda f: f.defect is not None)
        raise failures[0]


def error_defect(op, res, exc):
    """The recorded seed defect an exception matches, if any."""
    if (
        type(exc).__name__ == "BudgetError"
        and res.get("stage") == "markov_basis"
        and op["model"] in PAIR_CAP_MODELS
    ):
        return "markov-pair-cap"
    return None


def cli_cases(api, ops, workdir, cfg):
    """basis, exact and mctest on the first 2^3 main-effects op with the
    workload's cli_total (a fixed size, so that the timings do not depend on
    the seed)."""
    op = next(o for o in ops
              if o["model"] == "2^3 main effects" and sum(o["y0"]) == cfg["cli_total"])
    d = op["design"]
    (workdir / "cond.design").write_text(design_text(d.m, d.s, d.coding, d.runs))
    (workdir / "cond.model").write_text("\n".join(mono_name(t) for t in op["terms"]) + "\n")
    (workdir / "cond.counts").write_text(" ".join(map(str, op["y0"])) + "\n")
    files = ["--design", str(workdir / "cond.design"), "--model", str(workdir / "cond.model")]
    counts = ["--y", str(workdir / "cond.counts"), "--stat", op["stat"]]
    chain = cfg["chain"]
    caps = cfg["enumeration_caps"]
    A = api.build_covariate_matrix(d, op["terms"], op["contrast"])
    budget = api.Budget(max_pairs=cfg["pair_cap"])

    def verify_basis(out):
        got = [tuple(z) for z in json.loads(out)["moves"]]
        ok = got == list(api.markov_basis(A, budget).moves)
        return None if ok else "basis moves differ from markov_basis"

    def verify_exact(out):
        got = Fraction(json.loads(out)["p_exact"])
        want = api.exact_p_value(A, op["y0"], op["stat"], **caps).p_exact
        return None if got == want else f"exact {got} != {want}"

    def verify_mctest(out):
        got = json.loads(out)["p_value"]
        config = api.ChainConfig(seed=op["chain_seed"], burn_in=chain["burn_in"],
                                 samples=chain["samples"], thinning=chain["thinning"])
        want = api.mh_sample(A, op["y0"], api.markov_basis(A, budget), op["stat"],
                             config, chains=chain["chains"]).p_value
        return None if got == want else f"mctest {got} != {want}"

    cap = ["--max-pairs", str(cfg["pair_cap"])]
    return [
        ("basis", ["basis", *files, *cap], verify_basis),
        ("exact", ["exact", *files, *counts, "--max-total", str(caps["max_total"])],
         verify_exact),
        ("mctest", ["mctest", *files, *counts, *cap, "--seed", str(op["chain_seed"]),
                    "--burnin", str(chain["burn_in"]), "--samples", str(chain["samples"]),
                    "--thin", str(chain["thinning"]), "--chains", str(chain["chains"])],
         verify_mctest),
    ]
