"""LaTeX math (practical subset) parsing into expression trees.

The grammar covers arithmetic, \\frac, \\sqrt[n], powers, implicit
multiplication, the usual elementary functions, Greek/decorated variables,
and top-level relation splitting.  In corpus math anything outside the
grammar becomes an in-tree Unsupported marker so the corpus stage can decide
between the replace and split augmentations; ``parse_expression`` reads one
expression written by a person or by ``expr_core.render_latex`` strictly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .expr_core import (
    CONSTANT,
    OPERATOR,
    OPS,
    VARIABLE,
    ExprTree,
    Token,
    constant_value,
    node,
)

UNSUPPORTED_PREFIX = "?"

# Canonical operator tokens shared by every parsed tree.
T_ADD, T_SUB, T_MUL, T_DIV, T_POW, T_NEG, T_SQRT = (
    OPS[name].token for name in ("add", "sub", "mul", "div", "pow", "neg", "sqrt"))

_FUNCTIONS = {alias: op.token for op in OPS.values() for alias in op.latex}

_GREEK = {
    "alpha", "beta", "gamma", "delta", "epsilon", "varepsilon", "zeta", "eta",
    "theta", "vartheta", "iota", "kappa", "lambda", "mu", "nu", "xi", "rho",
    "sigma", "tau", "upsilon", "phi", "varphi", "chi", "psi", "omega",
    "Gamma", "Delta", "Theta", "Lambda", "Xi", "Pi", "Sigma", "Upsilon",
    "Phi", "Psi", "Omega",
}

_RELATIONS = {"le", "ge", "leq", "geq", "ne", "neq", "approx", "sim", "equiv",
              "propto", "ll", "gg"}

# Font/text wrappers; every other spacing command is dropped by the lexer.
_SPACING = {"mathrm", "mathit", "mathbf", "text", "operatorname"}

# Purely decorative commands: dropped during lexing so they cannot interrupt
# a term (e.g. \left( x \right)^2 must keep its exponent).
_LEX_DROP = {"left", "right", "displaystyle", "limits", "nolimits", "quad",
             "qquad", "big", "Big", "bigg", "Bigg", "bigl", "bigr", "Bigl",
             "Bigr"}

# Lexeme kind of each one-character token.
_CHAR_KINDS = {"^": "superscript", "_": "subscript", "(": "lparen",
               ")": "rparen", "[": "lbracket", "]": "rbracket",
               **dict.fromkeys("=<>", "relation"), **dict.fromkeys("+-*/", "op")}

# (kind, value) of the commands the lexer rewrites; None drops the command.
_COMMAND_LEXEMES = {**{name: ("relation", name) for name in _RELATIONS},
                    "cdot": ("op", "*"), "times": ("op", "*"),
                    **dict.fromkeys(_LEX_DROP)}

# Escaped spacing forms (\, \; \! \: and "\ "), dropped by the lexer.
_SPACE_ESCAPES = set(",;!: ")

# Unsupported constructs that keep an operand as the marker's child.
_INTEGRALS = ("int", "iint", "iiint", "oint")
_BIG_OPERATORS = ("sum", "prod", "lim", "max", "min")
_ACCENTS = ("vec", "hat", "bar", "dot", "ddot", "tilde", "binom")


class LatexError(Exception):
    def __init__(self, message, offset=None):
        super().__init__(message if offset is None else f"{message} (offset {offset})")
        self.offset = offset


class UnbalancedBraces(LatexError):
    pass


class EmptyInput(LatexError):
    pass


class TotallyUnparseable(LatexError):
    pass


@dataclass
class Lexeme:
    kind: str  # command | symbol | number | group | superscript | subscript |
               # relation | op | lparen | rparen | lbracket | rbracket | other
    value: object
    offset: int


_COMMAND_RE = re.compile(r"\\([a-zA-Z]+)")
_NUMBER_RE = re.compile(r"\d+(\.\d+)?")


def lex(text):
    """Lex LaTeX source into lexemes, brace groups nested as group values."""
    lexemes, stack = [], []
    out = lexemes
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        end = i + 1
        if kind := _CHAR_KINDS.get(ch):
            out.append(Lexeme(kind, ch, i))
        elif ch.isspace():
            pass
        elif ch == "{":
            stack.append(out)
            out.append(Lexeme("group", [], i))
            out = out[-1].value
        elif ch == "}":
            if not stack:
                raise UnbalancedBraces("unmatched '}'", i)
            out = stack.pop()
        elif ch == "\\":
            if m := _COMMAND_RE.match(text, i):
                lexeme = _COMMAND_LEXEMES.get(m[1], ("command", m[1]))
                end = m.end()
            else:  # an escaped character such as \{ or \%, or a lone "\"
                end = i + 2
                lexeme = (None if text[i + 1:end] in _SPACE_ESCAPES
                          else ("other", text[i:end]))
            if lexeme:
                out.append(Lexeme(*lexeme, i))
        elif m := _NUMBER_RE.match(text, i):
            out.append(Lexeme("number", m[0], i))
            end = m.end()
        else:
            out.append(Lexeme("symbol" if ch.isalpha() else "other", ch, i))
        i = end
    if stack:
        raise UnbalancedBraces("unclosed '{'", lexemes[-1].offset)
    return lexemes


@dataclass
class ParseOutcome:
    trees: list
    unsupported: list  # (construct name, offset)
    relation_split_count: int


def unsupported_marker(construct, children):
    tok = Token(
        UNSUPPORTED_PREFIX + construct,
        len(children),
        OPERATOR if children else CONSTANT,
    )
    return ExprTree(tok, list(children))


def is_unsupported_marker(token):
    return token.name.startswith(UNSUPPORTED_PREFIX)


def marker_construct(token):
    return token.name[len(UNSUPPORTED_PREFIX):]


def variable_token(name):
    return Token(name, 0, VARIABLE)


def constant_token(text):
    return Token(text, 0, CONSTANT)


def _text(lexemes):
    return "".join(_text(lx.value) if lx.kind == "group" else str(lx.value)
                   for lx in lexemes)


# Ends every segment, so the parser always has a lexeme to look at; its
# offset is None, like that of the errors raised at the end of input.
_EOF = Lexeme("eof", None, None)


class _SegmentParser:
    """Recursive-descent parser over one relation-free lexeme segment."""

    def __init__(self, lexemes, unsupported):
        self.lx = [*lexemes, _EOF]
        self.pos = 0
        self.unsupported = unsupported

    def peek(self):
        return self.lx[self.pos]

    def advance(self):
        """The next lexeme, consumed unless it is the end sentinel."""
        lx = self.lx[self.pos]
        if lx is not _EOF:
            self.pos += 1
        return lx

    def _accept(self, *kinds):
        """Consume and return the next lexeme if it is of one of ``kinds``."""
        lx = self.lx[self.pos]
        if lx.kind in kinds:
            self.pos += 1
            return lx
        return None

    def parse(self):
        tree = self.expr()
        # trailing junk (unlexable leftovers) is tolerated but flagged
        while (lx := self.advance()) is not _EOF:
            self.unsupported.append((f"trailing:{lx.kind}", lx.offset))
        return tree

    def expr(self, stop=()):
        left = self.term(stop)
        while (lx := self.peek()).kind == "op" and lx.value in "+-":
            self.advance()
            left = node(T_ADD if lx.value == "+" else T_SUB, left, self.term(stop))
        return left

    def _starts_atom(self, lx):
        if lx.kind == "command":
            return lx.value not in _SPACING
        return lx.kind in ("number", "symbol", "group", "lparen")

    def term(self, stop):
        left = self.unary(stop)
        while True:
            lx = self.peek()
            if lx.kind == "op" and lx.value in "*/":
                self.advance()
                left = node(T_MUL if lx.value == "*" else T_DIV, left, self.unary(stop))
            elif self._starts_atom(lx) and not self._at_stop(stop):
                left = node(T_MUL, left, self.unary(stop))
            else:
                return left

    def _at_stop(self, stop):
        # a differential "dx" terminates integrand collection
        return self.peek().kind in stop or ("differential" in stop
                                            and self._at_differential())

    def _at_differential(self):
        """At the letter d followed by another letter."""
        lx = self.peek()
        return (lx.kind == "symbol" and lx.value == "d"
                and self.lx[self.pos + 1].kind == "symbol")

    def unary(self, stop):
        signs = 0
        while (lx := self.peek()).kind == "op" and lx.value in "+-":
            self.advance()
            signs += lx.value == "-"
        tree = self.power(stop)
        for _ in range(signs):
            tree = node(T_NEG, tree)
        return tree

    def power(self, stop):
        base = self.atom(stop)
        if not self._accept("superscript"):
            return base
        expo = self.exponent(stop)
        if base.root.kind == VARIABLE and base.root.name == "e":
            return node(_FUNCTIONS["exp"], expo)
        return node(T_POW, base, expo)

    def exponent(self, stop):
        # one lexeme or brace group; anything else, itself possibly powered
        # (x^2^3 is rare)
        if lx := self._accept("number", "symbol", "group"):
            return self._operand(lx)
        return self.power(stop)

    def _operand(self, lx):
        """The tree of a consumed number, bare letter or brace group."""
        if lx.kind == "number":
            return node(constant_token(lx.value))
        if lx.kind == "symbol":
            return node(variable_token(lx.value))
        return _SegmentParser(lx.value, self.unsupported).parse()

    def _bracketed(self, close):
        inner = self.expr(stop=(close,))
        self._accept(close)
        return inner

    def atom(self, stop):
        lx = self.peek()
        if lx.kind not in ("number", "symbol", "group", "lparen", "command"):
            raise LatexError(f"unexpected {lx.kind}", lx.offset)
        self.advance()
        if lx.kind == "symbol":
            return self._decorated_variable(lx.value)
        if lx.kind == "lparen":
            return self._bracketed("rparen")
        if lx.kind == "command":
            return self.command_atom(lx, stop)
        return self._operand(lx)

    def _decorated_variable(self, name):
        if self._accept("subscript"):
            sub = self.advance()
            if sub is _EOF:
                raise LatexError("dangling '_'")
            name += "_" + _text([sub])
        return node(variable_token(name))

    def command_atom(self, lx, stop):
        name = lx.value
        if name in _SPACING:
            grp = self._accept("group")
            if grp is None:
                return self.atom(stop)
            text = _text(grp.value)
            if text in _FUNCTIONS:
                return self._apply_function(_FUNCTIONS[text], stop)
            return node(variable_token(text or "empty"))
        if name == "frac":
            return node(T_DIV, self._required_group("frac"),
                        self._required_group("frac"))
        if name == "sqrt":
            idx = self._bracketed("rbracket") if self._accept("lbracket") else None
            arg = self._required_group("sqrt")
            if idx is None:
                return node(T_SQRT, arg)
            return node(T_POW, arg, node(T_DIV, node(constant_token("1")), idx))
        if name in _FUNCTIONS:
            return self._apply_function(_FUNCTIONS[name], stop)
        if name in _GREEK:
            return self._decorated_variable(name)
        if name == "pi":
            return node(constant_token("pi"))
        # any other command is outside the grammar: keep it as a marker
        return self._unsupported_atom(name, lx.offset, stop)

    def _required_group(self, ctx):
        lx = self.advance()
        if lx.kind in ("number", "symbol", "group"):
            return self._operand(lx)
        raise LatexError(f"\\{ctx} needs a group, a number or a letter", lx.offset)

    def _apply_function(self, tok, stop):
        # optional base/exponent decoration on the function name itself:
        # \log_2 keeps log (base dropped), \sin^2 x becomes pow(sin(x), 2)
        power_expo = None
        while lx := self._accept("subscript", "superscript"):
            if lx.kind == "subscript":
                self.advance()  # base ignored
            else:
                power_expo = self.exponent(stop)
        if self.peek().kind in ("lparen", "group"):
            out = node(tok, self.atom(stop))
        else:
            out = node(tok, self.power(stop))
        return out if power_expo is None else node(T_POW, out, power_expo)

    def _unsupported_atom(self, name, offset, stop):
        self.unsupported.append((name, offset))
        if name == "begin":
            # swallow the whole environment, up to its \end{name}
            depth = 1
            while depth and (lx := self.advance()) is not _EOF:
                if lx.kind == "command" and lx.value in ("begin", "end"):
                    depth += 1 if lx.value == "begin" else -1
            self._accept("group")
            return unsupported_marker(name, [])
        children = []
        if name in _INTEGRALS or name in _BIG_OPERATORS:
            while self._accept("subscript", "superscript"):
                self.advance()  # bounds dropped
            integral = name in _INTEGRALS
            body = self._optional_term(("differential",) if integral else stop)
            if integral and self._at_differential():
                self.pos += 2
            children = [] if body is None else [body]
        elif name in _ACCENTS:
            while grp := self._accept("group"):
                try:
                    children.append(self._operand(grp))
                except LatexError:
                    pass
                if name != "binom" or len(children) == 2:
                    break
        # otherwise a bare unsupported symbol (\partial, \infty, \nabla, ...)
        return unsupported_marker(name, children)

    def _optional_term(self, stop):
        if not self._starts_atom(self.peek()) or self._at_stop(stop):
            return None
        try:
            return self.term(stop)
        except LatexError:
            return None


def _split_on_relations(lexemes):
    segments = [[]]
    for lx in lexemes:
        if lx.kind == "relation":
            segments.append([])
        else:
            segments[-1].append(lx)
    return segments, len(segments) - 1


def parse_latex(text):
    """Parse LaTeX math into one normalized tree per relation-free segment.

    A segment that fails to parse, or is nested too deeply to parse or to
    normalize, is skipped; only when every segment fails is it an error."""
    if not text or not text.strip():
        raise EmptyInput("empty input")
    segments, nrel = _split_on_relations(lex(text))
    trees, unsupported = [], []
    first_failure = None
    for seg in segments:
        if not seg:
            continue
        seg_unsup = []
        try:
            tree = normalize(_SegmentParser(seg, seg_unsup).parse())
        except (LatexError, RecursionError) as e:
            offset = getattr(e, "offset", None)  # a RecursionError has none
            if first_failure is None:
                first_failure = seg[0].offset if offset is None else offset
            continue
        trees.append(tree)
        unsupported.extend(seg_unsup)
    if not trees:
        raise TotallyUnparseable("no parseable segment", first_failure or 0)
    return ParseOutcome(trees=trees, unsupported=unsupported,
                        relation_split_count=nrel)


def parse_expression(text, lib=None):
    """The one tree of a LaTeX target or best_expression.  A relation, a
    construct outside the grammar or, when ``lib`` is given, a token that
    is not ``lib``'s is a LatexError."""
    out = parse_latex(text)
    if out.relation_split_count:
        raise LatexError("a relation, not one expression")
    if out.unsupported:
        raise LatexError(f"unsupported {out.unsupported[0][0]!r}",
                         out.unsupported[0][1])
    if lib is not None and (bad := {n.root for n in out.trees[0].iter_nodes()}
                            - set(lib.tokens)):
        raise LatexError(f"not in the library: "
                         f"{', '.join(sorted(t.name for t in bad))}")
    return out.trees[0]


# perfbench reads the metrics CSV's best_expression by this name until
# ROADMAP item 9 moves it to parse_expression
parse_plain = parse_expression


def _is_const(tree, value):
    v = constant_value(tree.root)
    return v is not None and v == value and not tree.children


# The unit of each operator whose chains are left-folded.
_UNITS = {"add": 0.0, "mul": 1.0}


def _fold(root, children):
    """The normal form of ``root(*children)`` when every child is already
    in normal form."""
    name = root.name
    if name == "neg" and children[0].root.name == "neg":
        return children[0].children[0]
    if name == "sub" and _is_const(children[1], 0.0):
        return children[0]
    if name in _UNITS:
        a, b = children
        if _is_const(a, _UNITS[name]):
            return b
        if _is_const(b, _UNITS[name]):
            return a
        if b.root.name == name:  # a + (c + d) -> (a + c) + d
            c, d = b.children
            return _fold(root, [_fold(root, [a, c]), d])
    return ExprTree(root, children)


def normalize(tree):
    """Cleanup in one bottom-up pass: double negation, +0 / -0 / *1 folding
    and left-folded + and * chains.  Idempotent."""
    return _fold(tree.root, [normalize(c) for c in tree.children])
