"""Curated LaTeX fixtures checked against a computer-algebra oracle.

Each fixture pairs a LaTeX string with a hand-written sympy expression for
the same formula.  The oracle is numeric: both sides are evaluated at a
deterministic set of sample points and must agree to 1e-9 relative error.
Two divergences are tolerated and must be listed in KNOWN_DIVERGENCES with a
reason.
"""

import math

import pytest
import sympy

from mathcorpus.corpus import augment_split
from mathcorpus.expr_core import (
    CONSTANT,
    Token,
    VARIABLE,
    evaluate_batch,
)
from mathcorpus.latex_parser import (
    UNSUPPORTED_PREFIX,
    is_unsupported_marker,
    parse_latex,
)

# (latex, sympy equivalent, variable names); segment -1 is taken for
# relation-split inputs.
FIXTURES = [
    (r"x + 1", "x + 1", ["x"]),
    (r"x - y", "x - y", ["x", "y"]),
    (r"x y", "x*y", ["x", "y"]),
    (r"2x", "2*x", ["x"]),
    (r"x / y", "x/y", ["x", "y"]),
    (r"x^2", "x**2", ["x"]),
    (r"x^{10}", "x**10", ["x"]),
    (r"2^x", "2**x", ["x"]),
    (r"x^{y+1}", "x**(y+1)", ["x", "y"]),
    (r"(x+y)^2", "(x+y)**2", ["x", "y"]),
    (r"\frac{x}{2}", "x/2", ["x"]),
    (r"\frac{x+1}{x-1}", "(x+1)/(x-1)", ["x"]),
    (r"\frac{1}{1+x}", "1/(1+x)", ["x"]),
    (r"\frac{x^2}{y^2}", "x**2/y**2", ["x", "y"]),
    (r"\frac{x}{y z}", "x/(y*z)", ["x", "y", "z"]),
    (r"\frac{\sqrt{x}}{2}", "sqrt(x)/2", ["x"]),
    (r"\sqrt{x}", "sqrt(x)", ["x"]),
    (r"\sqrt[3]{x}", "x**(S(1)/3)", ["x"]),
    (r"\sqrt{x^2+1}", "sqrt(x**2+1)", ["x"]),
    (r"\sqrt{\frac{x}{y}}", "sqrt(x/y)", ["x", "y"]),
    (r"\sqrt{2 \pi}", "sqrt(2*pi)", []),
    (r"\sin(x)", "sin(x)", ["x"]),
    (r"\cos(x)", "cos(x)", ["x"]),
    (r"\tan(x)", "tan(x)", ["x"]),
    (r"\sin x", "sin(x)", ["x"]),
    (r"\sin^2 x", "sin(x)**2", ["x"]),
    (r"\sin(x)\cos(y)", "sin(x)*cos(y)", ["x", "y"]),
    (r"\frac{\sin x}{\cos x}", "sin(x)/cos(x)", ["x"]),
    (r"1 - \cos(x)", "1 - cos(x)", ["x"]),
    (r"\ln(x)", "log(x)", ["x"]),
    (r"\log(x)", "log(x)", ["x"]),
    (r"\log(x^2)", "log(x**2)", ["x"]),
    (r"e^x", "exp(x)", ["x"]),
    (r"e^{-x}", "exp(-x)", ["x"]),
    (r"e^{x^2}", "exp(x**2)", ["x"]),
    (r"\exp(x)", "exp(x)", ["x"]),
    (r"-x", "-x", ["x"]),
    (r"x^2 + \sin(x)", "x**2 + sin(x)", ["x"]),
    (r"(x+1)(x-1)", "(x+1)*(x-1)", ["x"]),
    (r"2\pi", "2*pi", []),
    (r"\pi x", "pi*x", ["x"]),
    (r"\alpha + \beta", "alpha + beta", ["alpha", "beta"]),
    (r"x_0 + x_1", "x_0 + x_1", ["x_0", "x_1"]),
    (r"x^2 y^3", "x**2*y**3", ["x", "y"]),
    (r"a x^2 + b x + c", "a*x**2 + b*x + c", ["a", "b", "c", "x"]),
    (r"\frac{1}{2} m v^2", "m*v**2/2", ["m", "v"]),
    (r"3.5 x", "3.5*x", ["x"]),
    (r"x \cdot y", "x*y", ["x", "y"]),
    (r"x \times y", "x*y", ["x", "y"]),
    (r"\left( x + 1 \right)^2", "(x+1)**2", ["x"]),
    (r"\mathrm{sin}(x)", "sin(x)", ["x"]),
    (r"y = x^2", "x**2", ["x"]),
]

KNOWN_DIVERGENCES = {
    # none currently; up to two may be listed here with a reason
}

# positive, away from trig zeros and from 1 (log), inside everything's domain
SAMPLE_POINTS = (0.31, 0.77, 1.53)


def _agrees(latex, sympy_text, variables):
    out = parse_latex(latex)
    tree = out.trees[-1]
    syms = {v: sympy.Symbol(v) for v in variables}
    ref = sympy.sympify(sympy_text, locals=dict(syms, S=sympy.S))
    bindings = {v: [base + 0.1 * i for base in SAMPLE_POINTS]
                for i, v in enumerate(variables)}
    mine, ok = evaluate_batch(tree, bindings)
    if not ok:
        return False
    for k, value in enumerate(mine):
        theirs = float(ref.subs({syms[v]: bindings[v][k] for v in variables}))
        if not math.isclose(value, theirs, rel_tol=1e-9, abs_tol=1e-9):
            return False
    return True


def test_fixture_corpus_agrees_with_cas():
    assert len(FIXTURES) >= 50
    failures = []
    for latex, sympy_text, variables in FIXTURES:
        if not _agrees(latex, sympy_text, variables):
            failures.append(latex)
    unexplained = [f for f in failures if f not in KNOWN_DIVERGENCES]
    assert len(failures) <= 2, f"too many divergences: {failures}"
    assert not unexplained, f"undocumented divergences: {unexplained}"


@pytest.mark.parametrize("latex,sympy_text,variables", FIXTURES,
                         ids=[f[0] for f in FIXTURES])
def test_fixture_individually(latex, sympy_text, variables):
    if latex in KNOWN_DIVERGENCES:
        pytest.skip(KNOWN_DIVERGENCES[latex])
    assert _agrees(latex, sympy_text, variables)


class TestIntegralAugmentation:
    """The \\int fixture: flagged as unsupported, then the replace and split
    augmentations produce exactly the documented trees."""

    LATEX = r"x + \int_0^1 x^2 dx"

    def _tree(self):
        out = parse_latex(self.LATEX)
        assert out.unsupported and out.unsupported[0][0] == "int"
        return out.trees[0]

    def test_marker_in_place(self):
        tree = self._tree()
        assert tree.root.name == "add"
        marker = tree.children[1]
        assert is_unsupported_marker(marker.root)
        assert marker.root.name == UNSUPPORTED_PREFIX + "int"

    def test_replace(self):
        ph = Token("1", 0, CONSTANT)
        replaced = augment_split(self._tree(), ph)[0]
        assert repr(replaced) == "add(x, 1)"

    def test_split(self):
        ph = Token("1", 0, CONSTANT)
        pieces = augment_split(self._tree(), ph)
        assert [repr(p) for p in pieces] == ["add(x, 1)", "pow(x, 2)"]

    def test_integrand_only_split(self):
        # a bare integral splits into placeholder plus the integrand
        out = parse_latex(r"\int \sin(x) dx")
        ph = Token("1", 0, CONSTANT)
        pieces = augment_split(out.trees[0], ph)
        assert [repr(p) for p in pieces] == ["1", "sin(x)"]
