import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mathcorpus.expr_core import (
    CONSTANT,
    OPS,
    VARIABLE,
    Library,
    Token,
    default_library,
    evaluate_batch,
    render_latex,
    tree_to_traversal,
)
from mathcorpus.latex_parser import (
    EmptyInput,
    LatexError,
    TotallyUnparseable,
    UnbalancedBraces,
    is_unsupported_marker,
    lex,
    marker_construct,
    normalize,
    parse_expression,
    parse_latex,
    parse_plain,
)

from conftest import random_tree


def shape(tree):
    """Compact structural signature for assertions."""
    if not tree.children:
        return tree.root.name
    return f"{tree.root.name}({','.join(shape(c) for c in tree.children)})"


class TestLexer:
    def test_power(self):
        lexemes = lex("x^2")
        kinds = [(l.kind, l.value) for l in lexemes]
        assert kinds == [("symbol", "x"), ("superscript", "^"), ("number", "2")]

    def test_frac_groups(self):
        lexemes = lex(r"\frac{1}{2}")
        assert lexemes[0].kind == "command"
        assert lexemes[0].value == "frac"
        g1, g2 = lexemes[1], lexemes[2]
        assert g1.kind == "group" and g1.value[0].value == "1"
        assert g2.kind == "group" and g2.value[0].value == "2"

    def test_unmatched_paren_is_not_a_lex_error(self):
        lexemes = lex(r"\sin(x")
        kinds = [l.kind for l in lexemes]
        assert kinds == ["command", "lparen", "symbol"]

    def test_unbalanced_braces(self):
        with pytest.raises(UnbalancedBraces):
            lex("{x")
        with pytest.raises(UnbalancedBraces):
            lex("x}")

    def test_offsets_increase(self):
        lexemes = lex("a + b * c^2")
        offs = [l.offset for l in lexemes]
        assert offs == sorted(offs)
        assert len(set(offs)) == len(offs)


class TestParseLatex:
    def test_power_plus_sin(self):
        out = parse_latex(r"x^2 + \sin(x)")
        assert len(out.trees) == 1
        assert shape(out.trees[0]) == "add(pow(x,2),sin(x))"
        assert out.unsupported == []

    def test_relation_split(self):
        out = parse_latex("E = m c^2")
        assert out.relation_split_count == 1
        assert [shape(t) for t in out.trees] == ["E", "mul(m,pow(c,2))"]

    def test_bare_variable(self):
        out = parse_latex("x")
        assert shape(out.trees[0]) == "x"

    def test_integral_becomes_marker(self):
        out = parse_latex(r"\int_0^1 f(x) dx + y")
        assert len(out.trees) == 1
        tree = out.trees[0]
        assert tree.root.name == "add"
        marker = tree.children[0]
        assert is_unsupported_marker(marker.root)
        assert marker_construct(marker.root) == "int"
        assert shape(marker.children[0]) == "mul(f,x)"
        assert out.unsupported[0][0] == "int"

    def test_frac(self):
        out = parse_latex(r"\frac{x+1}{2}")
        assert shape(out.trees[0]) == "div(add(x,1),2)"

    def test_sqrt_and_nth_root(self):
        assert shape(parse_latex(r"\sqrt{x}").trees[0]) == "sqrt(x)"
        assert shape(parse_latex(r"\sqrt[3]{x}").trees[0]) == "pow(x,div(1,3))"

    def test_e_power_is_exp(self):
        assert shape(parse_latex("e^{2x}").trees[0]) == "exp(mul(2,x))"

    def test_subscripted_variable_atomic(self):
        out = parse_latex("x_0 + x")
        assert shape(out.trees[0]) == "add(x_0,x)"

    @pytest.mark.parametrize("nested, flat", [
        ("x_{{a}}", "x_{a}"),
        (r"\mathrm{{d}}x", r"\mathrm{d}x"),
        (r"\mathrm{{\sin}}x", r"\mathrm{\sin}x"),
    ])
    def test_nested_group_reads_as_its_text(self, nested, flat):
        a, b = parse_latex(nested), parse_latex(flat)
        assert a.trees == b.trees and a.unsupported == b.unsupported

    def test_greek(self):
        assert shape(parse_latex(r"\alpha \beta").trees[0]) == "mul(alpha,beta)"

    def test_implicit_and_explicit_mul_match(self):
        a = parse_latex(r"2 x y").trees[0]
        b = parse_latex(r"2 \cdot x \cdot y").trees[0]
        assert a == b

    def test_unary_minus(self):
        assert shape(parse_latex("-x").trees[0]) == "neg(x)"
        assert shape(parse_latex("--x").trees[0]) == "x"

    def test_precedence(self):
        # ^ binds tightest, then the sign, then products, then sums
        assert shape(parse_latex("2 x^3").trees[0]) == "mul(2,pow(x,3))"
        assert shape(parse_latex("x^{2^3}").trees[0]) == "pow(x,pow(2,3))"
        assert shape(parse_latex("-x + 1").trees[0]) == "add(neg(x),1)"
        assert shape(parse_latex("-x^2").trees[0]) == "neg(pow(x,2))"

    def test_digit_after_a_letter_is_a_product(self):
        # so a variable named x1 is written x_1 or \mathrm{x1}
        assert shape(parse_latex("x1").trees[0]) == "x"
        assert shape(parse_latex("x1^2").trees[0]) == "mul(x,pow(1,2))"
        assert shape(parse_latex("x_1^2").trees[0]) == "pow(x_1,2)"
        assert shape(parse_latex(r"\mathrm{x1}^2").trees[0]) == "pow(x1,2)"

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            parse_latex("   ")

    def test_totally_unparseable(self):
        with pytest.raises(TotallyUnparseable):
            parse_latex("^")

    def test_split_segments_bounded(self):
        out = parse_latex("a = b = c")
        assert out.relation_split_count == 2
        assert len(out.trees) <= 3


class TestNormalize:
    def test_double_negation(self):
        t = parse_latex("--x").trees[0]
        assert shape(t) == "x"

    def test_mul_one(self):
        assert shape(normalize(parse_expression(r"1 \cdot x"))) == "x"
        assert shape(normalize(parse_expression(r"x \cdot 1"))) == "x"

    def test_add_zero(self):
        assert shape(normalize(parse_expression("x + 0"))) == "x"
        assert shape(normalize(parse_expression("0 + x"))) == "x"

    def test_left_fold(self):
        lib = default_library(n_vars=2)
        a = normalize(parse_expression(
            r"(\mathrm{x1} + (\mathrm{x2} + 1))", lib))
        b = normalize(parse_expression(
            r"((\mathrm{x1} + \mathrm{x2}) + 1)", lib))
        assert tree_to_traversal(a, lib).seq == tree_to_traversal(b, lib).seq

    def test_idempotent_on_random_trees(self, rng):
        lib = default_library(n_vars=2)
        for _ in range(1000):
            t = random_tree(lib, rng, max_depth=6)
            once = normalize(t)
            assert normalize(once) == once


class TestParsePlain:
    """``parse_plain`` is ``parse_expression``, the one reader of targets,
    ``sr --spec`` and the metrics CSV's best_expression, under the name
    perfbench reads the CSV by."""

    def test_simple(self):
        assert parse_plain is parse_expression
        assert shape(parse_plain("(x + 1)")) == "add(x,1)"

    def test_precedence(self):
        # render_latex brackets every operation, so the brackets give the
        # tree; text a person writes reads with LaTeX's precedence
        assert shape(parse_plain(r"(2 \cdot {x}^{3})")) == "mul(2,pow(x,3))"
        assert shape(parse_plain("{x}^{{2}^{3}}")) == "pow(x,pow(2,3))"
        assert shape(parse_plain("((-x) + 1)")) == "add(neg(x),1)"
        assert shape(parse_plain("2 x^3")) == "mul(2,pow(x,3))"
        assert shape(parse_plain("-x + 1")) == "add(neg(x),1)"

    def test_benchmark_value(self):
        tree = parse_plain(r"((({x}^{4} - {x}^{3}) + (\frac{1}{2} \cdot "
                           r"{y}^{2})) - y)")
        values, ok = evaluate_batch(tree, {"x": [1.0], "y": [1.0]})
        assert ok is True and values.tolist() == [-0.5]

    def test_benchmark_trig(self):
        tree = parse_plain(r"((\sin({x}^{2}) \cdot \cos(x)) - 1)")
        assert shape(tree) == "sub(mul(sin(pow(x,2)),cos(x)),1)"

    def test_function_calls(self):
        assert shape(parse_plain(r"\sqrt{x}")) == "sqrt(x)"
        assert shape(parse_plain(r"\log((x + 1))")) == "log(add(x,1))"
        assert shape(parse_plain(r"\ln(x)")) == "log(x)"
        for text in (r"\pow(x)", r"\add(x)", r"\int x dx"):
            with pytest.raises(LatexError, match="unsupported"):
                parse_plain(text)

    def test_errors(self):
        with pytest.raises(EmptyInput):
            parse_plain("")
        for text in ("x +", r"\frac{x}", "x = 1", "x < y"):
            with pytest.raises(LatexError):
                parse_plain(text)
        # with a library, every token must be one of the library's
        lib = default_library(n_vars=1)
        with pytest.raises(LatexError, match="not in the library: 7, x"):
            parse_plain(r"x + 7 + \mathrm{x1}", lib)

    def test_library_terminal_lookup(self):
        lib = default_library(n_vars=1)
        tree = parse_plain(r"\mathrm{x1} + 2", lib)
        # the library's tokens by value: a Token is a frozen dataclass
        assert tree.children[0].root == lib.get("x1")
        assert tree.children[1].root == lib.get("2")

    def test_render_roundtrip_random(self, rng):
        # every operator, single- and multi-letter variables, and integer,
        # decimal and named constants
        lib = Library([op.token for op in OPS.values()]
                      + [Token(name, 0, VARIABLE) for name in ("x", "y", "x1")]
                      + [Token(name, 0, CONSTANT)
                         for name in ("0", "1", "2", "3", "pi", "0.5")])
        for _ in range(3000):
            t = normalize(random_tree(lib, rng, max_depth=6))
            assert parse_expression(render_latex(t), lib) == t


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=40))
    def test_parse_latex_never_panics(self, text):
        try:
            out = parse_latex(text)
        except LatexError:
            return
        assert out.trees

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet="x12+-*/^() \\fracsqrtin{}_", max_size=30))
    def test_latexish_fuzz(self, text):
        try:
            parse_latex(text)
        except LatexError:
            pass
