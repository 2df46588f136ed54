import io
import json

import pytest

from algdoe import (
    Design,
    PolyRing,
    SearchSpec,
    d_criterion,
    d_optimal_search,
    format_design,
    full_factorial,
)
from algdoe.cli import main, run


@pytest.fixture()
def workdir(tmp_path, l8, d22, three_level_integer):
    (tmp_path / "l8.design").write_text(format_design(l8))
    (tmp_path / "d22.design").write_text(format_design(d22))
    (tmp_path / "d331.design").write_text(format_design(three_level_integer))
    (tmp_path / "main2.model").write_text("1\nx1\nx2\n")
    (tmp_path / "main3.model").write_text("1\nx1\nx2\nx3\n")
    (tmp_path / "counts.txt").write_text("0 2 2 0\n")
    return tmp_path


def invoke(*argv):
    out = io.StringIO()
    code = run(list(argv), out=out)
    return code, out.getvalue()


def test_gb_lex_golden(workdir):
    code, text = invoke(
        "gb", "--design", str(workdir / "l8.design"), "--order", "lex"
    )
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "order=lex vars=x1,x2,x3,x4,x5,x6,x7"
    assert set(lines[1:]) == {
        "x7^2-1", "x6^2-1", "x5^2-1",
        "x3+x5*x6", "x2+x5*x7", "x1+x6*x7", "x4-x5*x6*x7",
    }


def test_gb_from_generator_file(workdir):
    gens = workdir / "gens.poly"
    gens.write_text(
        "order=lex vars=x1,x2\n"
        "x1^2-1\n"
        "x1*x2-1\n"
    )
    code, text = invoke("gb", "--gens", str(gens), "--order", "lex")
    assert code == 0
    body = text.strip().splitlines()[1:]
    assert set(body) == {"x2^2-1", "x1-x2"}


def test_gb_gens_header_without_vars_exits_2(tmp_path):
    gens = tmp_path / "novars.poly"
    for header in ("order=lex", "order=block:grevlex(x1);grevlex(x2)", "vars=x1,x2"):
        gens.write_text(f"{header}\nx1^2-1\nx2^2-1\n")
        assert invoke("gb", "--gens", str(gens))[0] == 2
        assert invoke("gb", "--gens", str(gens), "--order", "lex")[0] == 2


def test_gb_gens_uses_header_order(workdir):
    code, text = invoke("gb", "--design", str(workdir / "l8.design"), "--order", "lex")
    assert code == 0
    again = workdir / "l8-lex.poly"
    again.write_text(text)
    assert invoke("gb", "--gens", str(again)) == (0, text)
    # --order still takes precedence over the header
    code, grevlex = invoke("gb", "--gens", str(again), "--order", "grevlex")
    assert code == 0
    assert grevlex == invoke("gb", "--design", str(workdir / "l8.design"))[1]
    assert grevlex != text


def test_gb_block_order_output_rereads(workdir):
    order = ["--order", "block:x7,x"]
    code, text = invoke("gb", "--design", str(workdir / "l8.design"), *order)
    assert code == 0
    assert text.splitlines()[0] == (
        "order=block:grevlex(x7);grevlex(x1,x2,x3,x4,x5,x6) vars=x1,x2,x3,x4,x5,x6,x7"
    )
    again = workdir / "l8-block.poly"
    again.write_text(text)
    assert invoke("gb", "--gens", str(again)) == (0, text)


@pytest.mark.parametrize("order", ["lex", "grevlex", "block:x7,x", "block:x3,x"])
@pytest.mark.parametrize(
    "precedence", [None, "x7,x6,x5,x4,x3,x2,x1", "x3,x1,x7,x5,x2,x6,x4"]
)
def test_gb_output_rereads_byte_for_byte(workdir, order, precedence):
    argv = ["gb", "--design", str(workdir / "l8.design"), "--order", order]
    if precedence:
        argv += ["--vars", precedence]
    code, text = invoke(*argv)
    assert code == 0
    assert text.splitlines()[0].endswith(" vars=x1,x2,x3,x4,x5,x6,x7")
    again = workdir / "l8-again.poly"
    again.write_text(text)
    assert invoke("gb", "--gens", str(again)) == (0, text)


def test_gb_reads_block_header_listing_precedence(tmp_path):
    # the header gb wrote for block orders before vars= listed the ring order
    gens = tmp_path / "old-block.poly"
    gens.write_text(
        "order=block:grevlex(x7);grevlex(x1,x2,x3,x4,x5,x6) vars=x7,x1,x2,x3,x4,x5,x6\n"
        "x7^2-1\nx1+x6*x7\nx1^2-1\n"
    )
    code, text = invoke("gb", "--gens", str(gens))
    assert code == 0
    assert text.splitlines() == [
        "order=block:grevlex(x7);grevlex(x1,x2,x3,x4,x5,x6) vars=x7,x1,x2,x3,x4,x5,x6",
        "x6^2-1",
        "x1^2-1",
        "x7+x1*x6",
    ]
    assert invoke("gb", "--gens", str(gens), "--order", "block:x7,x") == (0, text)


def test_est_golden(workdir):
    code, text = invoke(
        "est", "--design", str(workdir / "l8.design"), "--order", "grevlex"
    )
    assert code == 0
    assert text.strip() == "1, x1, x2, x3, x4, x5, x6, x7"
    code, text = invoke(
        "est", "--design", str(workdir / "l8.design"), "--order", "lex"
    )
    assert code == 0
    assert text.strip() == "1, x5, x6, x7, x5*x6, x5*x7, x6*x7, x5*x6*x7"


def test_emitted_polynomials_reparse(workdir):
    code, text = invoke(
        "ideal", "--design", str(workdir / "l8.design"), "--order", "lex"
    )
    assert code == 0
    lines = text.strip().splitlines()
    ring = PolyRing(lines[0].split("vars=")[1].split(","))
    for line in lines[1:]:
        f = ring.parse(line)
        from algdoe import TermOrder

        assert f.text(TermOrder.lex(7)) == line


def test_alias_json(workdir):
    code, text = invoke("alias", "--design", str(workdir / "l8.design"))
    assert code == 0
    payload = json.loads(text)
    assert payload["schema"] == 1
    x3_class = next(
        cls
        for cls in payload["classes"]
        if any(entry["monomial"] == "x3" for entry in cls)
    )
    assert {"monomial": "x1*x2", "sign": -1} in x3_class


def test_indicator_and_addfactors_round_trip(workdir, tmp_path):
    code, text = invoke("indicator", "--design", str(workdir / "d22.design"))
    assert code == 0
    assert text.splitlines()[0] == "m=2"
    ind_file = tmp_path / "base.indicator"
    # full factorial on one factor, then add y1 = x1 as a defined column
    ind_file.write_text("m=1\n1\n")
    rels = tmp_path / "rels.txt"
    rels.write_text("-x1\n")
    code, text = invoke(
        "addfactors", "--indicator", str(ind_file), "--relations", str(rels)
    )
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "m=2"
    assert lines[1] == "-1/2*x1*x2+1/2"
    # the output is itself a valid indicator file
    again = tmp_path / "ext.indicator"
    again.write_text(text)
    code, text2 = invoke(
        "addfactors", "--indicator", str(again), "--relations", str(rels)
    )
    assert code == 0


def test_classify_json(workdir):
    code, text = invoke("classify", "--design", str(workdir / "d22.design"))
    payload = json.loads(text)
    assert (code, payload["class"]) == (0, "full-factorial")


def test_classify_l8_witness_words(workdir):
    code, text = invoke("classify", "--design", str(workdir / "l8.design"))
    payload = json.loads(text)
    assert (code, payload["class"]) == (0, "regular")
    assert payload["witness_words"] == [
        {"monomial": "x4*x5*x6*x7", "sign": 1},
        {"monomial": "x3*x5*x6", "sign": -1},
        {"monomial": "x2*x5*x7", "sign": -1},
        {"monomial": "x1*x6*x7", "sign": -1},
    ]


def test_model_and_basis_json(workdir):
    code, text = invoke(
        "model",
        "--design", str(workdir / "d22.design"),
        "--model", str(workdir / "main2.model"),
    )
    assert code == 0
    payload = json.loads(text)
    assert payload["labels"] == ["1", "x1", "x2"]
    assert payload["entries"][0] == ["1", "1", "1"]

    code, text = invoke(
        "basis",
        "--design", str(workdir / "d22.design"),
        "--model", str(workdir / "main2.model"),
    )
    payload = json.loads(text)
    assert payload["count"] == 1
    assert payload["moves"][0] in ([1, -1, -1, 1], [-1, 1, 1, -1])


def test_basis_no_three_way_model(tmp_path):
    (tmp_path / "ff3.design").write_text(format_design(full_factorial(3)))
    (tmp_path / "n3w.model").write_text("1\nx1\nx2\nx3\nx1*x2\nx1*x3\nx2*x3\n")
    code, text = invoke(
        "basis",
        "--design", str(tmp_path / "ff3.design"),
        "--model", str(tmp_path / "n3w.model"),
        "--max-pairs", "30000",
    )
    assert code == 0
    payload = json.loads(text)
    assert payload["count"] == 1
    assert payload["moves"] == [[1, -1, -1, 1, -1, 1, 1, -1]]


def test_mctest_requires_seed(workdir, capsys):
    with pytest.raises(SystemExit) as exc:
        invoke(
            "mctest",
            "--design", str(workdir / "d22.design"),
            "--model", str(workdir / "main2.model"),
            "--y", str(workdir / "counts.txt"),
        )
    assert exc.value.code == 2


def test_mctest_and_exact_agree(workdir):
    code, text = invoke(
        "exact",
        "--design", str(workdir / "d22.design"),
        "--model", str(workdir / "main2.model"),
        "--y", str(workdir / "counts.txt"),
        "--stat", "pearson",
    )
    assert code == 0
    exact = json.loads(text)
    assert exact["p_exact"] == "1/3"

    code, text = invoke(
        "mctest",
        "--design", str(workdir / "d22.design"),
        "--model", str(workdir / "main2.model"),
        "--y", str(workdir / "counts.txt"),
        "--stat", "pearson",
        "--seed", "7",
        "--burnin", "1000",
        "--samples", "20000",
    )
    assert code == 0
    mc = json.loads(text)
    assert abs(mc["p_value"] - exact["p_value"]) <= max(3 * mc["std_error"], 0.01)
    assert mc["chain"]["seed"] == 7


def test_three_level_contrasts_same_exact_p(workdir, tmp_path):
    counts = tmp_path / "y9.txt"
    counts.write_text("1 1 1 1 1 1 1 1 1\n")
    values = {}
    for contrast in ("baseline", "symmetric", "complex"):
        code, text = invoke(
            "exact",
            "--design", str(workdir / "d331.design"),
            "--model", str(workdir / "main3.model"),
            "--contrast", contrast,
            "--y", str(counts),
        )
        assert code == 0
        values[contrast] = json.loads(text)["p_exact"]
    assert len(set(values.values())) == 1


def test_mctest_rejects_zero_thinning(workdir):
    code, _ = invoke(
        "mctest",
        "--design", str(workdir / "d22.design"),
        "--model", str(workdir / "main2.model"),
        "--y", str(workdir / "counts.txt"),
        "--seed", "1",
        "--thin", "0",
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["alias", "--design", "l8.design", "--max-degree", "-1"],
        ["doptimal", "--m", "3", "--n", "4", "--restarts", "0"],
        ["doptimal", "--m", "3", "--n", "4", "--list-limit", "-1"],
        ["basis", "--design", "d22.design", "--model", "main2.model", "--max-pairs", "-5"],
        ["mctest", "--design", "d22.design", "--model", "main2.model",
         "--y", "counts.txt", "--seed", "1", "--max-pairs", "-1"],
        ["exact", "--design", "d22.design", "--model", "main2.model",
         "--y", "counts.txt", "--max-total", "-1"],
    ],
)
def test_negative_counts_exit_code(workdir, argv):
    argv = [str(workdir / a) if a.endswith((".design", ".model", ".txt")) else a
            for a in argv]
    assert invoke(*argv)[0] == 2


def test_doptimal_json():
    code, text = invoke("doptimal", "--m", "3", "--n", "4")
    payload = json.loads(text)
    assert code == 0
    assert payload["optimum"] == 256
    assert payload["optima_count"] == 2
    assert payload["class_histogram"] == {"regular": 2}


def test_doptimal_greedy_json():
    code, text = invoke(
        "doptimal", "--m", "5", "--n", "8", "--mode", "greedy-exchange",
        "--seed", "3", "--restarts", "4",
    )
    payload = json.loads(text)
    assert code == 0
    assert payload["exhaustive"] is False
    res = d_optimal_search(
        SearchSpec(m=5, n=8, mode="greedy-exchange", seed=3, restarts=4)
    )
    assert payload["optimum"] == res.best_det
    assert payload["optima"] == [[list(run) for run in res.optima[0].runs]]
    listed = Design(5, 2, tuple(tuple(run) for run in payload["optima"][0]), "pm1")
    assert d_criterion(listed) == payload["optimum"]


@pytest.mark.parametrize("mode", ["exhaustive", "greedy-exchange"])
def test_doptimal_scale_exit_code(mode):
    assert invoke("doptimal", "--m", "40", "--n", "41", "--mode", mode)[0] == 3


@pytest.mark.parametrize(
    "argv, count",
    [
        (["--m", "23", "--n", "100000"], "C(2^23, 100000) subsets"),
        (["--m", "20000", "--n", "5", "--mode", "greedy-exchange"], "2^20000 candidate"),
    ],
)
def test_doptimal_huge_counts_exit_code(argv, count, capsys):
    assert invoke("doptimal", *argv)[0] == 3
    assert count in capsys.readouterr().err


def test_addfactors_scale_exit_code(tmp_path, capsys):
    ind = tmp_path / "one.indicator"
    ind.write_text("m=21\n1\n")
    rels = tmp_path / "rels.txt"
    rels.write_text("".join(f"x{i}\n" for i in range(1, 22)))
    code, _ = invoke("addfactors", "--indicator", str(ind), "--relations", str(rels))
    assert code == 3
    assert "2^21 coefficients" in capsys.readouterr().err


def test_input_error_exit_code(tmp_path):
    bad = tmp_path / "bad.design"
    bad.write_text("m=2 s=2 coding=pm1\n1 1\n1 1\n")
    code, _ = invoke("gb", "--design", str(bad), "--order", "lex")
    assert code == 2
    code, _ = invoke("gb", "--design", str(tmp_path / "missing.design"))
    assert code == 2


def test_budget_exit_code(tmp_path):
    # the squares and defining words of the L8 design; design ideals are
    # built without S-pairs, so the pair cap applies to generator files
    gens = tmp_path / "l8.poly"
    gens.write_text(
        "order=lex vars=x1,x2,x3,x4,x5,x6,x7\n"
        + "".join(f"x{i}^2-1\n" for i in range(1, 8))
        + "x1*x2*x3+1\nx1*x4*x5+1\nx2*x4*x6+1\nx1*x2*x4*x7-1\n"
    )
    code, _ = invoke(
        "gb",
        "--gens", str(gens),
        "--order", "lex",
        "--max-pairs", "2",
    )
    assert code == 3


@pytest.mark.parametrize("flag", ["--max-pairs", "--max-terms"])
def test_gb_negative_budget_exit_code(tmp_path, capsys, flag):
    gens = tmp_path / "g.poly"
    gens.write_text("order=lex vars=x1,x2\nx1^2-1\nx1*x2-1\n")
    assert invoke("gb", "--gens", str(gens), flag, "-5")[0] == 2
    name = flag[2:].replace("-", "_")
    assert f"error: {name} must be nonnegative, got -5" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [("--max-pairs", "5"), ("--max-terms", "100000"), ("--max-pairs", "-5", "--max-terms", "-1")],
)
def test_gb_design_refuses_budget_flags(workdir, capsys, flags):
    # the design ideal is built by Buchberger-Moeller, which has no pair budget
    assert invoke("gb", "--design", str(workdir / "l8.design"), *flags)[0] == 2
    assert "apply to --gens only" in capsys.readouterr().err


@pytest.mark.parametrize("sources", [(), ("--design", "l8.design", "--gens", "g.poly")])
def test_gb_needs_exactly_one_source(workdir, capsys, sources):
    argv = [str(workdir / a) if "." in a else a for a in sources]
    assert invoke("gb", *argv) == (2, "")
    assert capsys.readouterr().err == "error: gb needs exactly one of --design or --gens\n"


@pytest.mark.parametrize(
    "text, err",
    [
        ("m=3\n", "error: indicator file needs an 'm=<int>' header and a polynomial\n"),
        ("m=x\n1/2+1/2*x1*x2*x3\n",
         "error: bad indicator header: invalid literal for int() with base 10: 'x'\n"),
    ],
    ids=["no-polynomial", "bad-m"],
)
def test_addfactors_rejects_bad_indicator_file(tmp_path, capsys, text, err):
    ind = tmp_path / "f.indicator"
    ind.write_text(text)
    rels = tmp_path / "rels.txt"
    rels.write_text("x1*x2\n")
    assert invoke("addfactors", "--indicator", str(ind), "--relations", str(rels)) == (2, "")
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("command", ["basis", "mctest"])
def test_max_terms_rejected_on_markov_commands(workdir, command):
    # the Markov engine holds two terms per element, so only gb takes the flag
    argv = [
        command,
        "--design", str(workdir / "d22.design"),
        "--model", str(workdir / "main2.model"),
        "--max-terms", "5",
    ]
    if command == "mctest":
        argv += ["--y", str(workdir / "counts.txt"), "--seed", "1"]
    with pytest.raises(SystemExit) as exc:
        invoke(*argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("counts", ["0 2 2\n", "0 -2 2 0\n", "0 1.5 2 0\n"])
def test_bad_counts_exit_code(workdir, counts):
    (workdir / "bad.txt").write_text(counts)
    code, _ = invoke(
        "exact",
        "--design", str(workdir / "d22.design"),
        "--model", str(workdir / "main2.model"),
        "--y", str(workdir / "bad.txt"),
    )
    assert code == 2


# the Q(w3) and Q(w5) ideals and Est through main() in this process; the same
# bytes are pinned for a fresh `python -m algdoe.cli` by the golden cases
# ideal-/est-l9-* and ideal-/est-q5-* under tests/golden/cases
L9_COMPLEX = "m=3 s=3 coding=complex\n0 0 0\n0 1 2\n0 2 1\n1 0 2\n1 1 1\n1 2 0\n2 0 1\n2 1 0\n2 2 2\n"
Q5_COMPLEX = "m=2 s=5 coding=complex\n0 0\n1 1\n2 3\n4 2\n"
PINNED_COMPLEX_OUTPUTS = [
    (L9_COMPLEX, "ideal", "grevlex", """\
order=grevlex vars=x1,x2,x3
x2^2-x1*x3
x1*x2-x3^2
x1^2-x2*x3
x3^3-1
"""),
    (L9_COMPLEX, "ideal", "lex", """\
order=lex vars=x1,x2,x3
x3^3-1
x2^3-1
x1-x2^2*x3^2
"""),
    (L9_COMPLEX, "est", "grevlex", "1, x1, x2, x3, x1*x3, x2*x3, x3^2, x1*x3^2, x2*x3^2\n"),
    (L9_COMPLEX, "est", "lex", "1, x2, x3, x2^2, x2*x3, x3^2, x2^2*x3, x2*x3^2, x2^2*x3^2\n"),
    (Q5_COMPLEX, "ideal", "grevlex", """\
order=grevlex vars=x1,x2
x1*x2+(-6/11+6/11*w+4/11*w^2+8/11*w^3)*x2^2+(-4/11-7/11*w-12/11*w^2-13/11*w^3)*x1+(7/11+4/11*w+10/11*w^2+9/11*w^3)*x2+(-8/11-3/11*w-2/11*w^2-4/11*w^3)
x1^2+(-3/11+3/11*w+2/11*w^2+4/11*w^3)*x2^2+(-2/11+2/11*w-6/11*w^2-1/11*w^3)*x1+(-2/11-9/11*w+5/11*w^2-1/11*w^3)*x2+(-4/11+4/11*w-1/11*w^2-2/11*w^3)
x2^3+(-7/11-4/11*w+1/11*w^2+2/11*w^3)*x2^2+(-1/11+1/11*w-14/11*w^2-6/11*w^3)*x1+(-1/11+1/11*w+8/11*w^2+5/11*w^3)*x2+(-2/11+2/11*w+5/11*w^2-1/11*w^3)
"""),
    (Q5_COMPLEX, "ideal", "lex", """\
order=lex vars=x1,x2
x2^4+(-1-w-w^2-w^3)*x2^3+(w^3)*x2^2+(w^2)*x2+(w)
x1+(-2/5-1/5*w-2/5*w^2-w^3)*x2^3+(-1/5-1/5*w+2/5*w^3)*x2^2+(-2/5+1/5*w^2+1/5*w^3)*x2+(2/5*w+1/5*w^2+2/5*w^3)
"""),
    (Q5_COMPLEX, "est", "grevlex", "1, x1, x2, x2^2\n"),
    (Q5_COMPLEX, "est", "lex", "1, x2, x2^2, x2^3\n"),
]


@pytest.mark.parametrize(
    "design, command, order, expected",
    PINNED_COMPLEX_OUTPUTS,
    ids=[f"{'l9' if d == L9_COMPLEX else 'q5'}-{c}-{o}" for d, c, o, _ in PINNED_COMPLEX_OUTPUTS],
)
def test_pinned_complex_outputs(tmp_path, capsys, design, command, order, expected):
    path = tmp_path / "complex.design"
    path.write_text(design)
    assert main([command, "--design", str(path), "--order", order]) == 0
    out, err = capsys.readouterr()
    assert (out, err) == (expected, "")
