"""Command-line interface.

Subcommands: gb, ideal, est, alias, indicator, classify, addfactors, model,
basis, mctest, exact, doptimal.  Each subcommand returns its output: text in
the polynomial text format, or a structured report as a dict.  :func:`run`
alone writes every report: it adds the top-level ``"schema": 1`` field to a
dict and prints it as JSON.  Exit codes: 0 success, 2 input error, 3 budget or
scale error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .covariates import CONTRASTS, build_covariate_matrix, parse_model_terms
from .designs import (
    Design,
    design_ideal,
    est_monomials,
    alias_table,
    factor_ring,
    parse_design,
    parse_signed_monomial,
    read_header,
)
from .doptimal import SearchSpec, d_optimal_search
from .errors import AlgdoeError, BudgetError, InputError, ScaleError, int_counts
from .glm import STATISTICS
from .groebner import Budget, GroebnerBasis, buchberger
from .indicators import (
    FactorRelation,
    IndicatorFunction,
    classify_design,
    indicator_add_factors,
    indicator_from_design,
)
from .markov import MAX_FIBER_TOTAL, markov_basis
from .mcmc import (
    DEFAULT_BURN_IN,
    DEFAULT_SAMPLES,
    ChainConfig,
    exact_p_value,
    mh_sample,
)
from .orders import TermOrder, format_order, monomial_name, parse_order
from .polynomials import PolyRing

SCHEMA = 1


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def load_design(path: str) -> Design:
    return parse_design(_read(path))


def _basis_text(gb: GroebnerBasis) -> str:
    names = gb.ring.names
    header = f"order={format_order(gb.order, names)} vars={','.join(names)}"
    return "\n".join([header, *(g.text(gb.order) for g in gb.elements)])


# -- subcommand implementations -------------------------------------------------


def cmd_gb(args) -> str:
    if bool(args.design) == bool(args.gens):
        raise InputError("gb needs exactly one of --design or --gens")
    caps = {"max_pairs": args.max_pairs, "max_terms": args.max_terms}
    caps = {name: cap for name, cap in caps.items() if cap is not None}
    if args.design:
        if caps:
            raise InputError(
                "--max-pairs and --max-terms apply to --gens only: "
                "a design ideal has no pair budget"
            )
        args.order = args.order or "grevlex"
        return cmd_ideal(args)
    header, lines = read_header(_read(args.gens), "generator", ("order", "vars"))
    ring = PolyRing(v for v in header["vars"].split(",") if v)
    order = parse_order(args.order or header["order"], ring.names, args.vars)
    gens = [ring.parse(ln) for ln in lines]
    return _basis_text(buchberger(gens, order, budget=Budget(**caps)))


def cmd_ideal(args) -> str:
    d = load_design(args.design)
    order = parse_order(args.order, d.var_names, args.vars)
    return _basis_text(design_ideal(d, order))


def cmd_est(args) -> str:
    d = load_design(args.design)
    order = parse_order(args.order, d.var_names, args.vars)
    monos = list(est_monomials(d, order))
    # display in reading order: by degree, then by the natural variable order
    monos.sort(key=lambda mo: (sum(mo), tuple(-e for e in mo)))
    return ", ".join(monomial_name(mo, d.var_names) for mo in monos)


def cmd_alias(args) -> dict:
    d = load_design(args.design)
    classes = alias_table(d, args.max_degree)
    return {
        "m": d.m,
        "n": d.n,
        "max_degree": args.max_degree,
        "classes": [
            [
                {"monomial": monomial_name(mo, d.var_names), "sign": sign}
                for mo, sign in cls
            ]
            for cls in classes
        ],
    }


def cmd_indicator(args) -> str:
    return _indicator_text(indicator_from_design(load_design(args.design)))


def cmd_classify(args) -> dict:
    d = load_design(args.design)
    cls = classify_design(d)
    report = {
        "m": d.m,
        "n": d.n,
        "class": cls.tag,
        "witness_words": [
            {"monomial": monomial_name(w.bits, d.var_names), "sign": w.sign}
            for w in cls.words
        ],
    }
    if cls.diagnostic:
        report["diagnostic"] = cls.diagnostic
    return report


def parse_indicator_file(text: str) -> IndicatorFunction:
    header, lines = read_header(text, "indicator", ("m",))
    if not lines:
        raise InputError("indicator file needs an 'm=<int>' header and a polynomial")
    try:
        m = int(header["m"])
    except ValueError as exc:
        raise InputError(f"bad indicator header: {exc}") from exc
    poly = factor_ring(m).parse(" ".join(lines))
    return IndicatorFunction.from_polynomial(poly)


def _indicator_text(f: IndicatorFunction) -> str:
    """``f`` in the indicator file format that :func:`parse_indicator_file` reads."""
    poly = f.to_polynomial(factor_ring(f.m))
    return f"m={f.m}\n{poly.text(TermOrder.grevlex(f.m))}"


def cmd_addfactors(args) -> str:
    f1 = parse_indicator_file(_read(args.indicator))
    rel_lines = [
        ln.strip()
        for ln in _read(args.relations).splitlines()
        if ln.strip() and not ln.strip().startswith("#")
    ]
    relations = []
    for pos, line in enumerate(rel_lines, start=1):
        word, sign = parse_signed_monomial(line, f1.m)
        relations.append(FactorRelation(pos, sign, word))
    # added factors continue the x numbering so the output re-parses as an
    # indicator file
    return _indicator_text(indicator_add_factors(f1, relations))


def _load_model(args):
    d = load_design(args.design)
    terms, contrast = parse_model_terms(_read(args.model), d.m)
    if args.contrast:
        contrast = args.contrast
    return build_covariate_matrix(d, terms, contrast)


def cmd_model(args) -> dict:
    A = _load_model(args)
    return {
        "n": A.n,
        "columns": A.ncols,
        "labels": list(A.labels),
        "contrast": A.contrast,
        "entries": [[str(v) for v in row] for row in A.rows()],
        "recoded": [list(col) for col in A.recoded],
    }


def cmd_basis(args) -> dict:
    A = _load_model(args)
    basis = markov_basis(A, budget=Budget(max_pairs=args.max_pairs))
    return {
        "n": A.n,
        "moves": [list(z) for z in basis.moves],
        "count": len(basis.moves),
    }


def _load_counts(path: str, n: int):
    values = _read(path).split()
    try:
        y = [int(v) for v in values]
    except ValueError as exc:
        raise InputError(f"counts file must hold integers: {exc}") from exc
    return int_counts(n, y)


def _test_report(result, stat: str) -> dict:
    """The fields that the mctest and exact reports share."""
    return {
        "method": result.method,
        "stat_kind": stat,
        "statistic": result.statistic,
        "p_value": result.p_value,
        "std_error": result.std_error,
    }


def cmd_mctest(args) -> dict:
    A = _load_model(args)
    y0 = _load_counts(args.y, A.n)
    cfg = ChainConfig(
        seed=args.seed,
        burn_in=args.burnin,
        samples=args.samples,
        thinning=args.thin,
    )
    basis = markov_basis(A, budget=Budget(max_pairs=args.max_pairs))
    result = mh_sample(A, y0, basis, args.stat, cfg, chains=args.chains)
    return {
        **_test_report(result, args.stat),
        "samples_used": result.samples_used,
        "basis_size": len(basis.moves),
        "chain": {
            "seed": cfg.seed,
            "burn_in": cfg.burn_in,
            "samples": cfg.samples,
            "thinning": cfg.thinning,
            "chains": args.chains,
        },
    }


def cmd_exact(args) -> dict:
    A = _load_model(args)
    y0 = _load_counts(args.y, A.n)
    result = exact_p_value(A, y0, args.stat, max_total=args.max_total)
    return {
        **_test_report(result, args.stat),
        "p_exact": str(result.p_exact),
        "fiber_size": result.samples_used,
    }


def cmd_doptimal(args) -> dict:
    if args.list_limit < 0:
        raise InputError(f"--list-limit must be nonnegative, got {args.list_limit}")
    spec = SearchSpec(
        m=args.m,
        n=args.n,
        mode=args.mode,
        seed=args.seed,
        restarts=args.restarts,
    )
    result = d_optimal_search(spec)
    report = {
        "m": spec.m,
        "n": spec.n,
        "mode": spec.mode,
        "exhaustive": result.exhaustive,
        "optimum": result.best_det,
        "optima_count": len(result.optima),
        "class_histogram": result.class_histogram(),
    }
    if len(result.optima) <= args.list_limit:
        report["optima"] = [[list(run) for run in d.runs] for d in result.optima]
    return report


# -- argument parsing -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="algdoe",
        description="Exact computational algebra for fractional factorial designs",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    shared = {
        "--design": dict(required=True, help="design file"),
        "--order": dict(default="grevlex"),
        "--vars": dict(default=None,
                       help="comma-separated precedence, most significant first"),
        "--model": dict(required=True),
        "--contrast": dict(choices=CONTRASTS),
        "--stat": dict(choices=STATISTICS, default="pearson"),
        "--max-pairs": dict(type=int, default=Budget().max_pairs),
    }

    def with_flags(sub, *flags):
        for flag in flags:
            sub.add_argument(flag, **shared[flag])

    sub = subs.add_parser("gb", help="reduced Groebner basis of a design ideal or generator file")
    sub.add_argument("--design")
    sub.add_argument("--gens", help="polynomial file with an order header")
    sub.add_argument("--order", default=None)
    sub.add_argument("--vars", default=None)
    # no defaults: --design refuses both, --gens fills in Budget's own
    sub.add_argument("--max-pairs", type=int)
    sub.add_argument("--max-terms", type=int)
    sub.set_defaults(func=cmd_gb)

    sub = subs.add_parser("ideal", help="design ideal generators (reduced basis)")
    with_flags(sub, "--design", "--order", "--vars")
    sub.set_defaults(func=cmd_ideal)

    sub = subs.add_parser("est", help="standard monomials of the design ideal")
    with_flags(sub, "--design", "--order", "--vars")
    sub.set_defaults(func=cmd_est)

    sub = subs.add_parser("alias", help="complete-confounding classes")
    with_flags(sub, "--design")
    sub.add_argument("--max-degree", type=int, default=2)
    sub.set_defaults(func=cmd_alias)

    sub = subs.add_parser("indicator", help="indicator function of a design")
    with_flags(sub, "--design")
    sub.set_defaults(func=cmd_indicator)

    sub = subs.add_parser("classify", help="classify a two-level design")
    with_flags(sub, "--design")
    sub.set_defaults(func=cmd_classify)

    sub = subs.add_parser("addfactors", help="indicator after adding defined factors")
    sub.add_argument("--indicator", required=True, help="indicator file")
    sub.add_argument("--relations", required=True,
                     help="file with one signed word per line, e.g. -x1*x2")
    sub.set_defaults(func=cmd_addfactors)

    sub = subs.add_parser("model", help="covariate matrix for a model file")
    with_flags(sub, "--design", "--model", "--contrast")
    sub.set_defaults(func=cmd_model)

    sub = subs.add_parser("basis", help="Markov basis of a covariate matrix")
    with_flags(sub, "--design", "--model", "--contrast", "--max-pairs")
    sub.set_defaults(func=cmd_basis)

    sub = subs.add_parser("mctest", help="Metropolis-Hastings conditional test")
    with_flags(sub, "--design", "--model", "--contrast")
    sub.add_argument("--y", required=True, help="counts file")
    with_flags(sub, "--stat")
    sub.add_argument("--seed", type=int, required=True)
    sub.add_argument("--burnin", type=int, default=DEFAULT_BURN_IN)
    sub.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    sub.add_argument("--thin", type=int, default=1)
    sub.add_argument("--chains", type=int, default=1)
    with_flags(sub, "--max-pairs")
    sub.set_defaults(func=cmd_mctest)

    sub = subs.add_parser("exact", help="exact conditional test by enumeration")
    with_flags(sub, "--design", "--model", "--contrast")
    sub.add_argument("--y", required=True)
    with_flags(sub, "--stat")
    sub.add_argument("--max-total", type=int, default=MAX_FIBER_TOTAL)
    sub.set_defaults(func=cmd_exact)

    sub = subs.add_parser("doptimal", help="D-optimal design search")
    sub.add_argument("--m", type=int, required=True)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--mode", choices=("exhaustive", "greedy-exchange"),
                     default="exhaustive")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--restarts", type=int, default=20)
    sub.add_argument("--list-limit", type=int, default=16)
    sub.set_defaults(func=cmd_doptimal)

    return parser


def run(argv, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    try:
        output = args.func(args)
    except (BudgetError, ScaleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except AlgdoeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if isinstance(output, dict):
        output = json.dumps({**output, "schema": SCHEMA}, indent=2, sort_keys=True)
    print(output, file=out)
    return 0


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
