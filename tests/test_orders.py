import pytest
from hypothesis import given, strategies as st

from algdoe import DimensionError, InputError, TermOrder
from algdoe.orders import KINDS, format_order, parse_order
from algdoe.polynomials import mono_mul


def expt(m, **powers):
    e = [0] * m
    for name, k in powers.items():
        e[int(name[1:]) - 1] = k
    return tuple(e)


def compare(order, a, b):
    """-1, 0, or +1 as ``a`` is less than, equal to, or greater than ``b``."""
    ka, kb = order.key(a), order.key(b)
    return (ka > kb) - (ka < kb)


def test_lex_paper_leading_terms():
    lex = TermOrder.lex(7)
    # x1 beats x6*x7 under lex with x1 most significant
    assert compare(lex, expt(7, x1=1), expt(7, x6=1, x7=1)) == 1
    # x3 beats x5*x6
    assert compare(lex, expt(7, x3=1), expt(7, x5=1, x6=1)) == 1
    # x4 beats x5*x6*x7
    assert compare(lex, expt(7, x4=1), expt(7, x5=1, x6=1, x7=1)) == 1


def test_grevlex_paper_leading_terms():
    grev = TermOrder.grevlex(7)
    assert compare(grev, expt(7, x2=1, x3=1), expt(7, x1=1)) == 1
    assert compare(grev, expt(7, x5=1, x6=1, x7=1), expt(7, x4=1)) == 1


def test_reflexive_equal():
    for order in (TermOrder.lex(3), TermOrder.grlex(3), TermOrder.grevlex(3)):
        assert compare(order, (1, 2, 0), (1, 2, 0)) == 0


def test_grevlex_tie_break():
    # equal degree: smaller exponent in the least significant variable wins
    grev = TermOrder.grevlex(3)
    assert compare(grev, (1, 1, 0), (1, 0, 1)) == 1
    assert compare(grev, (0, 2, 0), (1, 0, 1)) == 1


def test_dimension_mismatch():
    with pytest.raises(DimensionError):
        TermOrder.lex(3).key((1, 2))


def test_block_order_eliminates():
    # two t-variables ahead of two x-variables
    order = TermOrder.block([((0, 1), "grevlex"), ((2, 3), "lex")])
    t_mono = (1, 0, 0, 5)
    x_mono = (0, 0, 9, 9)
    assert compare(order, t_mono, x_mono) == 1


orders = st.one_of(
    st.permutations(range(4)).map(lambda p: TermOrder.lex(4, tuple(p))),
    st.permutations(range(4)).map(lambda p: TermOrder.grlex(4, tuple(p))),
    st.permutations(range(4)).map(lambda p: TermOrder.grevlex(4, tuple(p))),
    st.permutations(range(4)).map(
        lambda p: TermOrder.block([(tuple(p[:2]), "grevlex"), (tuple(p[2:]), "lex")])
    ),
)
monos = st.tuples(*([st.integers(min_value=0, max_value=4)] * 4))


@given(orders, monos, monos)
def test_total_and_antisymmetric(order, a, b):
    c = compare(order, a, b)
    assert c in (-1, 0, 1)
    assert (c == 0) == (a == b)
    assert compare(order, b, a) == -c


@given(orders, monos, monos, monos)
def test_multiplicative(order, a, b, c):
    assert compare(order, a, b) == compare(order, mono_mul(a, c), mono_mul(b, c))


@given(orders, monos, monos, monos)
def test_transitive_sampled(order, a, b, c):
    if compare(order, a, b) >= 0 and compare(order, b, c) >= 0:
        assert compare(order, a, c) >= 0


@given(orders, monos)
def test_one_divides_everything_is_minimal(order, a):
    assert compare(order, a, (0, 0, 0, 0)) >= 0


NAMES = ("x1", "x2", "x3", "y1", "x10", "t")


@st.composite
def named_orders(draw):
    nvars = draw(st.integers(min_value=1, max_value=6))
    precedence = tuple(draw(st.permutations(range(nvars))))
    if draw(st.booleans()):
        return TermOrder(draw(st.sampled_from(KINDS)), precedence), NAMES[:nvars]
    cuts = draw(st.sets(st.integers(1, nvars - 1))) if nvars > 1 else set()
    bounds = [0, *sorted(cuts), nvars]
    blocks = [
        (precedence[a:b], draw(st.sampled_from(KINDS)))
        for a, b in zip(bounds, bounds[1:])
    ]
    return TermOrder.block(blocks), NAMES[:nvars]


@given(named_orders())
def test_format_parse_round_trip(order_names):
    order, names = order_names
    assert parse_order(format_order(order, names), names) == order


def test_order_text_forms():
    names = ("x1", "x2", "x3")
    assert format_order(TermOrder.lex(3), names) == "lex"
    assert format_order(TermOrder.grevlex(3, (2, 0, 1)), names) == "grevlex(x3,x1,x2)"
    assert parse_order("grlex", names, "x3,x1,x2") == TermOrder.grlex(3, (2, 0, 1))
    block = TermOrder.block([((2,), "grevlex"), ((0, 1), "grevlex")])
    assert parse_order("block:x3,x", names) == block
    assert format_order(block, names) == "block:grevlex(x3);grevlex(x1,x2)"


@pytest.mark.parametrize(
    "text, precedence",
    [
        ("grevlex(x3,x1,x2)", "x1,x2,x3"),
        ("block:grevlex(x3);lex(x1,x2)", "x1,x2,x3"),
        ("grevlex(x3,x1)", None),
        ("grevlex(x3,x1,x1)", None),
        ("block:grevlex(x3);lex(x1)", None),
        ("block:grevlex(x3);block(x1,x2)", None),
        ("grevlex(x3,x1,x9)", None),
        ("block", None),
        ("lex", "x1,x2"),
        ("block:x3,y", None),
    ],
)
def test_parse_order_rejects(text, precedence):
    with pytest.raises(InputError):
        parse_order(text, ("x1", "x2", "x3"), precedence)
