"""LaTeX math (practical subset) and plain-math parsing into expression trees.

The LaTeX grammar covers arithmetic, \\frac, \\sqrt[n], powers, implicit
multiplication, the usual elementary functions, Greek/decorated variables,
and top-level relation splitting.  Anything outside the grammar becomes an
in-tree Unsupported marker so the corpus stage can decide between the
replace and split augmentations.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

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


class PlainSyntaxError(LatexError):
    pass


@dataclass
class Lexeme:
    kind: str  # command | symbol | number | group | superscript | subscript |
               # relation | op | lparen | rparen | lbracket | rbracket | other
    value: object
    offset: int


@dataclass
class LatexTokenStream:
    lexemes: list
    errors: list = field(default_factory=list)


_NUMBER_RE = re.compile(r"\d+(\.\d+)?")


def lex(text):
    """Lex LaTeX source into a stream with nested brace groups."""
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
                # escaped single char, e.g. \{ \% \\; spacing forms dropped
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
    return LatexTokenStream(lexemes)


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


class _SegmentParser:
    """Recursive-descent parser over one relation-free lexeme segment."""

    def __init__(self, lexemes, unsupported):
        self.lx = lexemes
        self.pos = 0
        self.unsupported = unsupported

    def peek(self):
        return self.lx[self.pos] if self.pos < len(self.lx) else None

    def advance(self):
        lx = self.lx[self.pos]
        self.pos += 1
        return lx

    def at_end(self):
        return self.pos >= len(self.lx)

    def parse(self):
        tree = self.expr()
        # trailing junk (unlexable leftovers) is tolerated but flagged
        while not self.at_end():
            lx = self.advance()
            self.unsupported.append((f"trailing:{lx.kind}", lx.offset))
        return tree

    def expr(self, stop=()):
        left = self.term(stop)
        while True:
            lx = self.peek()
            if lx is None or lx.kind != "op" or lx.value not in "+-":
                break
            self.advance()
            right = self.term(stop)
            left = node(T_ADD if lx.value == "+" else T_SUB, left, right)
        return left

    def _starts_atom(self, lx):
        if lx is None:
            return False
        if lx.kind in ("number", "symbol", "group", "lparen"):
            return True
        if lx.kind == "command":
            return lx.value not in _SPACING
        return False

    def term(self, stop=()):
        left = self.unary(stop)
        while True:
            lx = self.peek()
            if lx is None:
                break
            if lx.kind == "op" and lx.value in "*/":
                self.advance()
                right = self.unary(stop)
                left = node(T_MUL if lx.value == "*" else T_DIV, left, right)
            elif self._starts_atom(lx) and not self._at_stop(stop):
                right = self.unary(stop)
                left = node(T_MUL, left, right)
            else:
                break
        return left

    def _at_stop(self, stop):
        lx = self.peek()
        if lx is None:
            return True
        for s in stop:
            if lx.kind == s:
                return True
        # differential "dx" terminates integrand collection
        if "differential" in stop and lx.kind == "symbol" and lx.value == "d":
            nxt = self.lx[self.pos + 1] if self.pos + 1 < len(self.lx) else None
            if nxt is not None and nxt.kind == "symbol":
                return True
        return False

    def unary(self, stop=()):
        signs = 0
        while True:
            lx = self.peek()
            if lx is not None and lx.kind == "op" and lx.value in "+-":
                if lx.value == "-":
                    signs += 1
                self.advance()
            else:
                break
        tree = self.power(stop)
        for _ in range(signs):
            tree = node(T_NEG, tree)
        return tree

    def power(self, stop=()):
        base = self.atom(stop)
        lx = self.peek()
        if lx is not None and lx.kind == "superscript":
            self.advance()
            expo = self.exponent(stop)
            if base.root.kind == VARIABLE and base.root.name == "e":
                return node(_FUNCTIONS["exp"], expo)
            return node(T_POW, base, expo)
        return base

    def exponent(self, stop=()):
        lx = self.peek()
        if lx is None:
            raise LatexError("dangling '^'")
        if lx.kind == "group":
            self.advance()
            return _SegmentParser(lx.value, self.unsupported).parse()
        # single-lexeme exponent, itself possibly powered (x^2^3 is rare)
        return self.power(stop) if lx.kind not in ("number", "symbol") else self._single_atom()

    def _single_atom(self):
        lx = self.advance()
        if lx.kind == "number":
            return node(constant_token(lx.value))
        return node(variable_token(lx.value))

    def atom(self, stop=()):
        lx = self.peek()
        if lx is None:
            raise LatexError("expected an operand")
        if lx.kind == "number":
            self.advance()
            return node(constant_token(lx.value))
        if lx.kind == "symbol":
            self.advance()
            return self._decorated_variable(lx.value)
        if lx.kind == "group":
            self.advance()
            return _SegmentParser(lx.value, self.unsupported).parse()
        if lx.kind == "lparen":
            self.advance()
            inner = self.expr(stop=("rparen",))
            if self.peek() is not None and self.peek().kind == "rparen":
                self.advance()
            return inner
        if lx.kind == "command":
            return self.command_atom(stop)
        raise LatexError(f"unexpected {lx.kind}", lx.offset)

    def _decorated_variable(self, base_name):
        name = base_name
        lx = self.peek()
        if lx is not None and lx.kind == "subscript":
            self.advance()
            sub = self.peek()
            if sub is None:
                raise LatexError("dangling '_'")
            self.advance()
            if sub.kind == "group":
                text = "".join(str(l.value) for l in sub.value)
            else:
                text = str(sub.value)
            name = f"{name}_{text}"
        return node(variable_token(name))

    def command_atom(self, stop=()):
        lx = self.advance()
        name = lx.value
        if name in _SPACING:
            grp = self.peek()
            if grp is not None and grp.kind == "group":
                self.advance()
                text = "".join(str(l.value) for l in grp.value)
                if text in _FUNCTIONS:
                    return self._apply_function(_FUNCTIONS[text], stop)
                return node(variable_token(text or "empty"))
            return self.atom(stop)
        if name == "frac":
            num = self._required_group("frac")
            den = self._required_group("frac")
            return node(T_DIV, num, den)
        if name == "sqrt":
            idx = None
            if self.peek() is not None and self.peek().kind == "lbracket":
                self.advance()
                idx = self.expr(stop=("rbracket",))
                if self.peek() is not None and self.peek().kind == "rbracket":
                    self.advance()
            arg = self._required_group("sqrt")
            if idx is None:
                return node(T_SQRT, arg)
            return node(T_POW, arg, node(T_DIV, node(constant_token("1")), idx))
        if name in _FUNCTIONS:
            return self._apply_function(_FUNCTIONS[name], stop)
        if name in _GREEK:
            return self._decorated_variable(name)
        if name == "pi":
            return node(Token("pi", 0, CONSTANT))
        # any other command is outside the grammar: keep it as a marker
        return self._unsupported_atom(name, lx.offset, stop)

    def _required_group(self, ctx):
        lx = self.peek()
        if lx is None:
            raise LatexError(f"\\{ctx} missing argument")
        self.advance()
        if lx.kind == "group":
            return _SegmentParser(lx.value, self.unsupported).parse()
        if lx.kind == "number":
            return node(constant_token(lx.value))
        if lx.kind == "symbol":
            return node(variable_token(lx.value))
        raise LatexError(f"\\{ctx} argument must be a group", lx.offset)

    def _apply_function(self, tok, stop):
        # optional base/exponent decoration on the function name itself:
        # \log_2 keeps log (base dropped), \sin^2 x becomes pow(sin(x), 2)
        power_expo = None
        while True:
            lx = self.peek()
            if lx is not None and lx.kind == "subscript":
                self.advance()
                if self.peek() is not None:
                    self.advance()  # base ignored
            elif lx is not None and lx.kind == "superscript":
                self.advance()
                power_expo = self.exponent(stop)
            else:
                break
        lx = self.peek()
        if lx is None:
            raise LatexError(f"{tok.name} missing argument")
        if lx.kind == "lparen":
            self.advance()
            arg = self.expr(stop=("rparen",))
            if self.peek() is not None and self.peek().kind == "rparen":
                self.advance()
        elif lx.kind == "group":
            self.advance()
            arg = _SegmentParser(lx.value, self.unsupported).parse()
        else:
            arg = self.power(stop)
        out = node(tok, arg)
        if power_expo is not None:
            out = node(T_POW, out, power_expo)
        return out

    def _unsupported_atom(self, name, offset, stop):
        self.unsupported.append((name, offset))
        if name == "begin":
            # swallow the whole environment
            depth = 1
            if self.peek() is not None and self.peek().kind == "group":
                self.advance()
            while not self.at_end() and depth > 0:
                lx = self.advance()
                if lx.kind == "command" and lx.value == "begin":
                    depth += 1
                elif lx.kind == "command" and lx.value == "end":
                    depth -= 1
                    if self.peek() is not None and self.peek().kind == "group":
                        self.advance()
            return unsupported_marker(name, [])
        if name in ("int", "iint", "iiint", "oint"):
            self._skip_bounds()
            inner = self._collect_integrand()
            self._skip_differential()
            return unsupported_marker(name, [] if inner is None else [inner])
        if name in ("sum", "prod", "lim", "max", "min"):
            self._skip_bounds()
            if self._starts_atom(self.peek()) and not self._at_stop(stop):
                try:
                    body = self.term(stop)
                except LatexError:
                    body = None
            else:
                body = None
            return unsupported_marker(name, [] if body is None else [body])
        if name in ("vec", "hat", "bar", "dot", "ddot", "tilde", "binom"):
            children = []
            while self.peek() is not None and self.peek().kind == "group":
                grp = self.advance()
                try:
                    children.append(_SegmentParser(grp.value, self.unsupported).parse())
                except LatexError:
                    pass
                if name != "binom" or len(children) == 2:
                    break
            return unsupported_marker(name, children)
        # bare unsupported symbol (\partial, \infty, \nabla, ...)
        return unsupported_marker(name, [])

    def _skip_bounds(self):
        while True:
            lx = self.peek()
            if lx is not None and lx.kind in ("subscript", "superscript"):
                self.advance()
                if self.peek() is not None:
                    self.advance()
            else:
                break

    def _collect_integrand(self):
        if not self._starts_atom(self.peek()) or self._at_stop(("differential",)):
            return None
        try:
            return self.term(stop=("differential",))
        except LatexError:
            return None

    def _skip_differential(self):
        lx = self.peek()
        if lx is not None and lx.kind == "symbol" and lx.value == "d":
            nxt = self.lx[self.pos + 1] if self.pos + 1 < len(self.lx) else None
            if nxt is not None and nxt.kind == "symbol":
                self.advance()
                self.advance()


def _split_on_relations(lexemes):
    segments, current = [], []
    count = 0
    for lx in lexemes:
        if lx.kind == "relation":
            segments.append(current)
            current = []
            count += 1
        else:
            current.append(lx)
    segments.append(current)
    return segments, count


def parse_latex(text, lib=None):
    """Parse LaTeX math into one normalized tree per relation-free segment."""
    if not text or not text.strip():
        raise EmptyInput("empty input")
    stream = lex(text)
    segments, nrel = _split_on_relations(stream.lexemes)
    trees, unsupported = [], []
    first_failure = None
    for seg in segments:
        if not seg:
            continue
        seg_unsup = []
        try:
            tree = _SegmentParser(seg, seg_unsup).parse()
        except LatexError as e:
            if first_failure is None:
                first_failure = e.offset if e.offset is not None else seg[0].offset
            continue
        except RecursionError:
            if first_failure is None:
                first_failure = seg[0].offset
            continue
        trees.append(normalize(tree))
        unsupported.extend(seg_unsup)
    if not trees:
        raise TotallyUnparseable("no parseable segment", first_failure or 0)
    return ParseOutcome(trees=trees, unsupported=unsupported,
                        relation_split_count=nrel)


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
        if b.root.name == "add":  # left-fold chains
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


def normalize(tree):
    """Idempotent cleanup: double negation, +0 / *1 folding, left-folded chains."""
    for _ in range(tree.size() + 1):
        new = _normalize_once(tree)
        if new == tree:
            return new
        tree = new
    return tree


# ---------------------------------------------------------------------------
# Plain-math grammar (the render_infix output language; also used for
# benchmark target expressions).

_PLAIN_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _plain_lex(text):
    out, i = [], 0
    while i < len(text):
        if text[i].isspace():
            i += 1
            continue
        m = _PLAIN_TOKEN_RE.match(text, i)
        if not m or m.start() != i:
            raise PlainSyntaxError("unexpected character", i)
        if m.group("num"):
            out.append(("num", m.group("num"), i))
        elif m.group("name"):
            out.append(("name", m.group("name"), i))
        else:
            out.append(("op", m.group("op"), i))
        i = m.end()
    return out


class _PlainParser:
    def __init__(self, tokens, lib):
        self.toks = tokens
        self.lib = lib
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def expect_op(self, op):
        tk = self.peek()
        if tk is None or tk[0] != "op" or tk[1] != op:
            off = tk[2] if tk else len(self.toks)
            raise PlainSyntaxError(f"expected {op!r}", off)
        self.pos += 1

    def expr(self):
        left = self.term()
        while (tk := self.peek()) is not None and tk[0] == "op" and tk[1] in "+-":
            self.pos += 1
            right = self.term()
            left = node(T_ADD if tk[1] == "+" else T_SUB, left, right)
        return left

    def term(self):
        left = self.factor()
        while (tk := self.peek()) is not None and tk[0] == "op" and tk[1] in "*/":
            self.pos += 1
            right = self.factor()
            left = node(T_MUL if tk[1] == "*" else T_DIV, left, right)
        return left

    def factor(self):
        tk = self.peek()
        if tk is not None and tk[0] == "op" and tk[1] == "-":
            self.pos += 1
            return node(T_NEG, self.factor())
        return self.poweret()

    def poweret(self):
        base = self.primary()
        tk = self.peek()
        if tk is not None and tk[0] == "op" and tk[1] == "^":
            self.pos += 1
            return node(T_POW, base, self.factor())
        return base

    def primary(self):
        tk = self.peek()
        if tk is None:
            raise PlainSyntaxError("unexpected end of input", 0)
        kind, val, off = tk
        if kind == "num":
            self.pos += 1
            return node(constant_token(val))
        if kind == "op" and val == "(":
            self.pos += 1
            inner = self.expr()
            self.expect_op(")")
            return inner
        if kind == "name":
            self.pos += 1
            nxt = self.peek()
            if nxt is not None and nxt[0] == "op" and nxt[1] == "(":
                self.pos += 1
                args = [self.expr()]
                while (c := self.peek()) is not None and c[0] == "op" and c[1] == ",":
                    self.pos += 1
                    args.append(self.expr())
                self.expect_op(")")
                return self._call(val, args, off)
            if self.lib is not None and val in self.lib:
                tok = self.lib.get(val)
                if tok.arity != 0:
                    raise PlainSyntaxError(f"{val} needs arguments", off)
                return node(tok)
            return node(variable_token(val))
        raise PlainSyntaxError(f"unexpected {val!r}", off)

    def _call(self, name, args, off):
        if self.lib is not None and name in self.lib:
            tok = self.lib.get(name)
        elif name in OPS:
            tok = OPS[name].token
        else:
            tok = _FUNCTIONS.get(name)
        if tok is None:
            raise PlainSyntaxError(f"unknown function {name!r}", off)
        if tok.arity != len(args):
            raise PlainSyntaxError(
                f"{name} takes {tok.arity} argument(s), got {len(args)}", off)
        return ExprTree(tok, args)


def parse_plain(text, lib=None):
    """Parse the plain infix grammar produced by render_infix; normalized."""
    tokens = _plain_lex(text)
    if not tokens:
        raise EmptyInput("empty input")
    p = _PlainParser(tokens, lib)
    tree = p.expr()
    if p.peek() is not None:
        raise PlainSyntaxError("trailing input", p.peek()[2])
    return normalize(tree)
