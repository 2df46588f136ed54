"""Static checks on the package source, with the standard library's ``ast``:
no module imports a name it does not use, no private module-level def or
class is left that nothing else in the package refers to, no def leaves a
parameter unread, private names cross modules only where listed, no module
but ``glm`` computes a statistic by its formula, and none but ``errors``
tests exponents against a 0/1 literal; and the package's public names are
its API, not its submodules."""

import ast
from pathlib import Path
from types import ModuleType

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "algdoe"
MODULES = {
    path.stem: ast.parse(path.read_text(encoding="utf-8"))
    for path in sorted(PACKAGE.glob("*.py"))
}


def _names(tree):
    """Every name, attribute and imported name in ``tree``, names inside
    string annotations included."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.split(".")[0])
        for annotation in _annotations(node):
            for part in ast.walk(annotation):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    found |= _names(ast.parse(part.value, mode="eval"))
    return found


def _annotations(node):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
        yield node.returns
    elif isinstance(node, ast.arg) and node.annotation:
        yield node.annotation
    elif isinstance(node, ast.AnnAssign):
        yield node.annotation


# per module, each top-level statement with the names it uses
STATEMENTS = {
    module: [(node, _names(node)) for node in tree.body]
    for module, tree in MODULES.items()
}


@pytest.mark.parametrize("module", [m for m in MODULES if m != "__init__"])
def test_every_imported_name_is_used(module):
    imported, used = set(), set()
    for node, names in STATEMENTS[module]:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        else:
            used |= names
    assert sorted(imported - used) == []


@pytest.mark.parametrize("module", list(MODULES))
def test_every_private_definition_is_referenced(module):
    unused = [
        node.name
        for node, _ in STATEMENTS[module]
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not any(
            node.name in names
            for statements in STATEMENTS.values()
            for other, names in statements
            if other is not node
        )
    ]
    assert unused == []


# every import of another module's private name, as (importer, module, name):
# sharing a private helper is a decision, so a new one is added here, where a
# reviewer sees it
PRIVATE_IMPORTS = [
    ("covariates", "designs", "_product"),
    ("cyclotomic", "orders", "_format_terms"),
    # the certified walk and its Est, read by the design path on the runs
    ("designs", "groebner", "_buchberger_moeller"),
    ("designs", "groebner", "_check_width"),
    ("indicators", "designs", "_base2_reads"),
    # the index map's one encoder, which packs exponent tuples as it packs runs
    ("indicators", "designs", "_pack"),
    ("indicators", "designs", "_product"),
    # the index map's batch decoder, the inverse of _pack
    ("indicators", "designs", "_unpack"),
    ("markov", "groebner", "_Completion"),
    ("mcmc", "glm", "_check_statistic"),
    # the statistic's run terms tabulated once per fit, so the formulas stay
    # in glm alone
    ("mcmc", "glm", "_statistic_table"),
    ("polynomials", "orders", "_format_terms"),
]


def test_private_names_cross_modules_only_where_listed():
    found = sorted(
        (module, node.module, alias.name)
        for module, tree in MODULES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    )
    assert found == PRIVATE_IMPORTS


def _subclasses_across_modules(trees):
    """Every (module, class, base) whose base is a class imported from
    another algdoe module than ``errors``."""
    found = []
    for module, tree in trees.items():
        origin = {}  # a name bound by a relative import -> its algdoe module
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level:
                for alias in node.names:
                    origin[alias.asname or alias.name] = node.module or alias.name
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for base in node.bases:
                while isinstance(base, ast.Attribute):  # linalg.Echelon names linalg
                    base = base.value
                if isinstance(base, ast.Name) and origin.get(base.id, "errors") != "errors":
                    found.append((module, node.name, origin[base.id]))
    return found


def test_no_class_extends_a_class_of_another_module():
    # each job's class lives in one module: a subclass across modules splits
    # it in two, as the field-scanning echelon over linalg's once did; the
    # error hierarchy alone is shared as bases
    assert _subclasses_across_modules(MODULES) == []
    planted = ast.parse("from . import linalg\nfrom .errors import InputError\n"
                        "class Echelon(linalg.Echelon):\n    pass\n"
                        "class E(InputError, ValueError):\n    pass\n")
    assert _subclasses_across_modules({"cyclotomic": planted}) == [
        ("cyclotomic", "Echelon", "linalg")]


def _formula_route_users(trees):
    """Every module, but ``glm`` and the re-exporting ``__init__``, that
    names ``test_statistic``."""
    return sorted(module for module, tree in trees.items()
                  if module not in ("glm", "__init__") and "test_statistic" in _names(tree))


def test_only_glm_computes_a_statistic_by_its_formula():
    # a conditional test scores y0 and every point it compares with it from
    # one table of run terms; the formula is the reference the table matches,
    # and a second route to T(y0) could round apart from the first
    assert _formula_route_users(MODULES) == []
    planted = ast.parse("from . import glm\nfrom .glm import _statistic_table\n"
                        "def t(kind, y, fit):\n    return glm.test_statistic(kind, y, fit)\n")
    clean = ast.parse("from .glm import _statistic_table\n")
    assert _formula_route_users({"mcmc": planted, "markov": clean, "__init__": planted}) == [
        "mcmc"]


def _is_bit_literal(node):
    """Whether ``node`` is the literal (0, 1), {0, 1} or [0, 1], in any order."""
    return (isinstance(node, (ast.Tuple, ast.Set, ast.List)) and len(node.elts) == 2
            and all(isinstance(e, ast.Constant) and type(e.value) is int for e in node.elts)
            and {e.value for e in node.elts} == {0, 1})


def _bit_literal_tests(trees):
    """Every (module, line) but in ``errors`` that compares a value with a
    0/1 literal or calls a method of one, such as ``{0, 1}.issuperset``."""
    return sorted(
        (module, node.lineno)
        for module, tree in trees.items() if module != "errors"
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and any(map(_is_bit_literal, [node.left, *node.comparators]))
        or isinstance(node, ast.Attribute) and _is_bit_literal(node.value)
    )


def test_only_errors_tests_for_square_free_exponents():
    # an exponent tuple over {0,1}^m is read by errors.int_bits, the integer
    # rule entry by entry; a set or membership test of its own elsewhere
    # would let 1.0 through unread, as the indicator's keys once did
    assert _bit_literal_tests(MODULES) == []
    planted = ast.parse("LEVELS = (0, 1)\n"
                        "def f(t, bits):\n"
                        "    if any(e not in (0, 1) for e in t):\n"
                        "        return set(bits) <= {1, 0}\n"
                        "    return {0, 1}.issuperset(t) or t == [0, 1] or t in (0, 2)\n")
    assert _bit_literal_tests({"designs": planted, "errors": planted}) == [
        ("designs", 3), ("designs", 4), ("designs", 5), ("designs", 5)]


def _unread_parameters(trees):
    """Every (module, def, parameter) whose parameter the def's body never
    loads, leaving out ``self``, ``cls`` and names that start with ``_``."""
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [p for p in (args.vararg, args.kwarg) if p]
            loaded = {
                part.id
                for statement in node.body
                for part in ast.walk(statement)
                if isinstance(part, ast.Name) and isinstance(part.ctx, ast.Load)
            }
            found += [
                (module, node.name, p.arg)
                for p in params
                if p.arg not in loaded and p.arg not in ("self", "cls")
                and not p.arg.startswith("_")
            ]
    return found


def test_every_def_reads_its_parameters():
    # a parameter that its def never reads is dead weight at every call
    assert _unread_parameters(MODULES) == []
    planted = ast.parse("def label(term, subscripts, factors):\n"
                        "    factors = subscripts\n    return f'{term}{factors}'\n"
                        "class C:\n    def m(self, _unused, *args, **kw):\n"
                        "        def inner(x):\n            return args\n        return inner\n")
    assert _unread_parameters({"covariates": planted}) == [
        ("covariates", "m", "kw"), ("covariates", "inner", "x")]


def test_linalg_imports_nothing_from_the_package_but_errors():
    # the modules that eliminate import linalg, so an import back could make
    # a cycle
    for node in ast.walk(MODULES["linalg"]):
        if isinstance(node, ast.ImportFrom) and node.level:
            assert node.module == "errors"
        elif isinstance(node, ast.Import):
            assert all(a.name.split(".")[0] != "algdoe" for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.module.split(".")[0] != "algdoe"


def test_public_names_are_the_api_and_no_module():
    import algdoe

    for name in algdoe.__all__:
        value = getattr(algdoe, name)
        assert not isinstance(value, ModuleType), name
        # a function or class names its module; an object such as QQ, its class's
        owner = getattr(value, "__module__", None) or type(value).__module__
        assert owner.startswith("algdoe."), (name, owner)
    namespace = {}
    exec("from algdoe import *", namespace)
    assert not [k for k, v in namespace.items() if isinstance(v, ModuleType)]
