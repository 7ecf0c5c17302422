"""The table-driven lexer and the one-pass normalize against the previous
implementations, kept here verbatim as references: the if/elif lexer and
the normalize-until-unchanged loop."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mathcorpus.expr_core import (
    CONSTANT,
    ExprTree,
    Library,
    OPS,
    Token,
    VARIABLE,
    constant_value,
    default_library,
    node,
)
from mathcorpus.latex_parser import (
    Lexeme,
    UnbalancedBraces,
    lex,
    normalize,
    parse_latex,
)

from conftest import random_tree
from test_latex_fixtures import FIXTURES

_RELATIONS = {"le", "ge", "leq", "geq", "ne", "neq", "approx", "sim", "equiv",
              "propto", "ll", "gg"}
_LEX_DROP = {"left", "right", "displaystyle", "limits", "nolimits", "quad",
             "qquad", "big", "Big", "bigg", "Bigg", "bigl", "bigr", "Bigl",
             "Bigr"}
_NUMBER_RE = re.compile(r"\d+(\.\d+)?")


def reference_lex(text):
    lexemes, stack = [], []
    out = lexemes
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "{":
            grp = Lexeme("group", [], i)
            out.append(grp)
            stack.append(out)
            out = grp.value
            i += 1
        elif ch == "}":
            if not stack:
                raise UnbalancedBraces("unmatched '}'", i)
            out = stack.pop()
            i += 1
        elif ch == "\\":
            m = re.match(r"\\([a-zA-Z]+)", text[i:])
            if m:
                name = m.group(1)
                if name in _LEX_DROP:
                    pass
                elif name in _RELATIONS:
                    out.append(Lexeme("relation", name, i))
                elif name in ("cdot", "times"):
                    out.append(Lexeme("op", "*", i))
                else:
                    out.append(Lexeme("command", name, i))
                i += m.end()
            else:
                if i + 1 < n:
                    if text[i + 1] not in ",;!: ":
                        out.append(Lexeme("other", text[i:i + 2], i))
                    i += 2
                else:
                    out.append(Lexeme("other", "\\", i))
                    i += 1
        elif ch == "^":
            out.append(Lexeme("superscript", "^", i))
            i += 1
        elif ch == "_":
            out.append(Lexeme("subscript", "_", i))
            i += 1
        elif ch in "=<>":
            out.append(Lexeme("relation", ch, i))
            i += 1
        elif ch in "+-*/":
            out.append(Lexeme("op", ch, i))
            i += 1
        elif ch == "(":
            out.append(Lexeme("lparen", ch, i))
            i += 1
        elif ch == ")":
            out.append(Lexeme("rparen", ch, i))
            i += 1
        elif ch == "[":
            out.append(Lexeme("lbracket", ch, i))
            i += 1
        elif ch == "]":
            out.append(Lexeme("rbracket", ch, i))
            i += 1
        elif (m := _NUMBER_RE.match(text, i)) is not None:
            out.append(Lexeme("number", m.group(0), i))
            i = m.end()
        elif ch.isalpha():
            out.append(Lexeme("symbol", ch, i))
            i += 1
        else:
            out.append(Lexeme("other", ch, i))
            i += 1
    if stack:
        raise UnbalancedBraces("unclosed '{'", lexemes[-1].offset if lexemes else 0)
    return lexemes


def _is_const(tree, value):
    v = constant_value(tree.root)
    return v is not None and v == value and not tree.children


def _normalize_once(tree):
    children = [_normalize_once(c) for c in tree.children]
    t = ExprTree(tree.root, children)
    name = t.root.name
    if name == "neg" and children[0].root.name == "neg":
        return children[0].children[0]
    if name == "add":
        a, b = children
        if _is_const(a, 0.0):
            return b
        if _is_const(b, 0.0):
            return a
        if b.root.name == "add":
            ba, bb = b.children
            return ExprTree(t.root, [ExprTree(t.root, [a, ba]), bb])
    if name == "sub" and _is_const(children[1], 0.0):
        return children[0]
    if name == "mul":
        a, b = children
        if _is_const(a, 1.0):
            return b
        if _is_const(b, 1.0):
            return a
        if b.root.name == "mul":
            ba, bb = b.children
            return ExprTree(t.root, [ExprTree(t.root, [a, ba]), bb])
    return t


def reference_normalize(tree):
    for _ in range(tree.size() + 1):
        new = _normalize_once(tree)
        if new == tree:
            return new
        tree = new
    return tree


def lex_outcome(lexer, text):
    """Lexemes (compared with their nested groups), or the error raised."""
    try:
        return list(lexer(text))
    except UnbalancedBraces as e:
        return ("UnbalancedBraces", str(e), e.offset)


def assert_lex_matches(text):
    assert lex_outcome(lex, text) == lex_outcome(reference_lex, text)


LATEXISH = st.lists(st.sampled_from([
    r"\frac", r"\sqrt", r"\int", r"\begin", r"\end", "{", "}", "^", "_", "d",
    "x", "(", ")", "[", "]", r"\mathrm", r"\sin", r"\vec", "=", "<", "+",
    "-", "*", "/", "1", "3.5", r"\,", r"\;", "\\", r"\\", r"\left",
    r"\cdot", r"\times", r"\le", r"\alpha", " ", "é", "٣", r"\%", "'",
]), max_size=16).map("".join)


class TestLexMatchesReference:
    @pytest.mark.parametrize("latex", [f[0] for f in FIXTURES])
    def test_fixture(self, latex):
        assert_lex_matches(latex)

    @pytest.mark.parametrize("text", ["{x", "x}", "{a}{b", "{{x}", "a}}",
                                      "\\", "x\\", "\\ ", "{}", ""])
    def test_edges(self, text):
        assert_lex_matches(text)

    @settings(max_examples=500, deadline=None)
    @given(st.text(max_size=40))
    def test_any_text(self, text):
        assert_lex_matches(text)

    @settings(max_examples=500, deadline=None)
    @given(LATEXISH)
    def test_latexish_text(self, text):
        assert_lex_matches(text)


# A library where the normalize rules fire often: every rewritten
# operator, its unit, and a few other terminals.
FOLD_LIB = Library([OPS[name].token for name in ("add", "sub", "mul", "neg", "sin")]
                   + [Token(c, 0, CONSTANT) for c in ("0", "1", "0.0", "2")]
                   + [Token("x", 0, VARIABLE)], name="fold")


class TestNormalizeMatchesReference:
    @pytest.mark.parametrize("lib", [default_library(n_vars=2), FOLD_LIB],
                             ids=["std2", "fold"])
    def test_random_trees(self, lib):
        rng = np.random.default_rng(7)
        for _ in range(2000):
            tree = random_tree(lib, rng, max_depth=7)
            assert normalize(tree) == reference_normalize(tree)

    def test_parsed_fixture_trees(self):
        trees = [t for latex, _, _ in FIXTURES for t in parse_latex(latex).trees]
        zero, one = node(Token("0", 0, CONSTANT)), node(Token("1", 0, CONSTANT))
        add, mul, neg = (OPS[name].token for name in ("add", "mul", "neg"))
        rng = np.random.default_rng(3)
        for tree in trees:
            a, b, c = (trees[i] for i in rng.integers(len(trees), size=3))
            for raw in (tree,
                        node(add, a, node(add, b, node(add, tree, c))),
                        node(mul, one, node(mul, tree, node(mul, a, one))),
                        node(neg, node(neg, node(add, zero, tree)))):
                assert normalize(raw) == reference_normalize(raw)
