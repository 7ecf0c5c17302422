"""Source checks that need no tool beyond the standard library."""

import ast
import importlib
import re
from pathlib import Path
from re import _parser  # sre_parse, under its Python 3.11+ name

import pytest

import mathcorpus

MODULES = sorted(Path(mathcorpus.__file__).parent.glob("*.py"))


def unused_imports(source):
    """Names a module imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_checker_flags_an_unused_import():
    source = "import numpy as np\nfrom os import path, sep\nprint(sep)\n"
    assert unused_imports(source) == ["np", "path"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def enclosing_functions(source, match):
    """Enclosing function names (None at module level) of the AST nodes
    ``match`` accepts, in source order."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if match(child):
                found.append(func)
            is_func = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_func else func)

    visit(ast.parse(source), None)
    return found


def _catches_everything(node):
    if not isinstance(node, ast.ExceptHandler):
        return False
    types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
    return any(t is None or isinstance(t, ast.Name)
               and t.id in ("Exception", "BaseException") for t in types)


def broad_handlers(source):
    """Enclosing functions of the except clauses that catch everything:
    bare, Exception or BaseException."""
    return enclosing_functions(source, _catches_everything)


def test_checker_flags_a_broad_except():
    source = ("def f():\n    try: pass\n    except: pass\n"
              "def g():\n    try: pass\n    except ValueError: pass\n"
              "    def h():\n        try: pass\n"
              "        except (KeyError, BaseException): pass\n"
              "try: pass\nexcept Exception as e: pass\n")
    assert broad_handlers(source) == ["f", "h", None]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_failures_are_typed(path):
    # the one catch-all is main's internal-error contract: exit code 1
    allowed = ["main"] if path.name == "cli.py" else []
    assert broad_handlers(path.read_text(encoding="utf-8")) == allowed


def fn_readers(source):
    """Enclosing functions of each ``.fn`` read; in src/ that is only ever
    an operator's numpy function, ``expr_core.Op.fn``."""
    return enclosing_functions(source, lambda n: isinstance(n, ast.Attribute)
                               and n.attr == "fn"
                               and isinstance(n.ctx, ast.Load))


def test_checker_flags_fn_reads():
    source = ("def f(op):\n    return op.fn(1)\n"
              "def g(ops):\n    def h():\n        return ops['a'].fn\n"
              "    ops.fn = None\n    return fn\n"
              "g = OPS['add'].fn\n")
    assert fn_readers(source) == ["f", "h", None]


def test_one_evaluator():
    # operators are applied in one place, the batch evaluator
    assert [(path.name, func) for path in MODULES
            for func in fn_readers(path.read_text(encoding="utf-8"))] \
        == [("expr_core.py", "evaluate_rows")]


def unused_parameters(source):
    """``function.parameter`` for each parameter a function body never
    reads, nested functions included; ``self`` and ``cls`` are exempt."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs
                  + [a.vararg, a.kwarg] if p is not None]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [f"{node.name}.{p}" for p in params
                  if p not in read and p not in ("self", "cls")]
    return found


def test_checker_flags_an_unused_parameter():
    source = ("def f(a, b, *args, c=1, **kw):\n    return a + kw['x']\n"
              "class K:\n    def m(self, x):\n        def g(y):\n"
              "            return x\n        return g\n"
              "    @classmethod\n    def n(cls, z):\n        z = 1\n")
    assert sorted(unused_parameters(source)) == ["f.args", "f.b", "f.c",
                                                 "g.y", "n.z"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_parameters(path):
    assert unused_parameters(path.read_text(encoding="utf-8")) == []


def _opcodes(node):
    if isinstance(node, _parser.SubPattern):
        for op, av in node:
            yield op
            yield from _opcodes(av)
    elif isinstance(node, (tuple, list)):
        for item in node:
            yield from _opcodes(item)


def needs_python_311(pattern, flags=0):
    """Whether a regex uses possessive quantifiers or atomic groups, which
    Python 3.10's ``re`` rejects as ``multiple repeat``/unknown extension."""
    newer = {_parser.POSSESSIVE_REPEAT, _parser.ATOMIC_GROUP}
    return not newer.isdisjoint(_opcodes(_parser.parse(pattern, flags)))


def test_checker_flags_python_311_regex_syntax():
    assert needs_python_311(r"a(?:b|c*+)")
    assert needs_python_311(r"x(?>[ab]+)")
    assert not needs_python_311(r"'(?=((?:[^'\\]|'')*))\1'")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_regexes_compile_on_python_310(path):
    # pyproject.toml promises Python >= 3.10
    module = importlib.import_module(f"mathcorpus.{path.stem}")
    assert [name for name, value in vars(module).items()
            if isinstance(value, re.Pattern)
            and needs_python_311(value.pattern, value.flags)] == []


def dataclass_fields(source):
    """``Class.field`` for each annotated field of each ``@dataclass``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list):
            found += [f"{node.name}.{s.target.id}" for s in node.body
                      if isinstance(s, ast.AnnAssign)
                      and isinstance(s.target, ast.Name)]
    return found


def attributes_read(source):
    """Names read as ``.name``, an augmented assignment counting as a read."""
    tree = ast.parse(source)
    read = {n.attr for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return read | {n.target.attr for n in ast.walk(tree)
                   if isinstance(n, ast.AugAssign)
                   and isinstance(n.target, ast.Attribute)}


def unread_fields(defining, reading):
    read = set().union(*map(attributes_read, reading))
    return [f for source in defining for f in dataclass_fields(source)
            if f.split(".")[1] not in read]


def test_checker_flags_an_unread_dataclass_field():
    source = ("from dataclasses import dataclass, field\n"
              "@dataclass(frozen=True)\nclass P:\n    a: int\n"
              "    b: list = field(default_factory=list)\n    c = 3\n"
              "@dataclass\nclass Q:\n    d: int\n"
              "class R:\n    e: int\n")
    assert dataclass_fields(source) == ["P.a", "P.b", "Q.d"]
    assert unread_fields([source], ["p.a\nq.d += 1\nr.e\nb = 2\n"]) \
        == ["P.b"]


def test_no_unread_dataclass_fields():
    root = Path(__file__).resolve().parents[1]
    readers = [*MODULES, *sorted((root / "perfbench").rglob("*.py")),
               *sorted((root / "tests").rglob("*.py"))]
    assert unread_fields([p.read_text(encoding="utf-8") for p in MODULES],
                         [p.read_text(encoding="utf-8") for p in readers]) \
        == []


def names_in(node):
    """Every identifier a node names: variables, attributes, imported names,
    and a string passed right after a variable, as in ``getattr(module,
    "name")`` or a patch of ``module.name``."""
    found = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
        elif isinstance(n, ast.alias):
            found.add(n.asname or n.name)
        elif isinstance(n, ast.Call):
            found |= {b.value for a, b in zip(n.args, n.args[1:])
                      if isinstance(a, ast.Name)
                      and isinstance(b, ast.Constant)
                      and isinstance(b.value, str)}
    return found


def unreferenced_definitions(sources, users):
    """Public top-level functions and classes of ``sources`` that no source
    names outside their own definition, and no ``users`` source names at
    all.  A name counts wherever it appears, so an attribute or a method of
    the same name also counts."""
    defined, named = [], set()
    for source in sources:
        for stmt in ast.parse(source).body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                own = stmt.name
                if not own.startswith("_"):
                    defined.append(own)
            named |= names_in(stmt) - {own}
    for source in users:
        named |= names_in(ast.parse(source))
    return [name for name in defined if name not in named]


def test_checker_flags_a_test_only_entry_point():
    source = ("def used(x):\n    return used(x - 1) if x else helper()\n"
              "def helper():\n    return 0\n"
              "def only_recursive(n):\n    return only_recursive(n)\n"
              "class Patched:\n    pass\n"
              "class Base(Exception):\n    pass\n"
              "class Leaf(Base):\n    pass\n"
              "def _private():\n    pass\n")
    user = ("patch(module, 'Patched')\nfrom m import used\n"
            "labels = ('Leaf', 'only_recursive')\n")
    assert unreferenced_definitions([source], [user]) \
        == ["only_recursive", "Leaf"]
    assert unreferenced_definitions([source], []) \
        == ["used", "only_recursive", "Patched", "Leaf"]


# Public names that only tests call, each kept on purpose as a reference:
TEST_REFERENCES = [
    "score",  # mlm: the sequence log-probability TestPriorInput checks against
]


def test_no_test_only_entry_points():
    # every public function and class is reached by the program or the
    # benchmark, so no second form lives on for tests alone
    root = Path(__file__).resolve().parents[1]
    users = sorted((root / "perfbench").glob("*.py"))
    assert sorted(unreferenced_definitions(
        [p.read_text(encoding="utf-8") for p in MODULES],
        [p.read_text(encoding="utf-8") for p in users])) \
        == sorted(TEST_REFERENCES)
