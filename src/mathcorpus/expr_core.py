"""Tokens, the operator registry, token libraries, expression trees, and the
pre-order traversal encoding.

Every other module speaks these types.  A traversal is a sequence of indices
into a Library; it encodes exactly one tree when the running slot count
1 + sum(arity - 1) first hits zero at the end of the sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

OPERATOR = "operator"
VARIABLE = "variable"
CONSTANT = "constant"
PLACEHOLDER = "placeholder"

_KINDS = (OPERATOR, VARIABLE, CONSTANT, PLACEHOLDER)


class ExprError(Exception):
    """Base class for expression-level errors."""


class UnknownToken(ExprError):
    def __init__(self, name):
        super().__init__(f"token {name!r} not in library")
        self.name = name


class IncompleteTraversal(ExprError):
    pass


class InvalidPrefix(ExprError):
    pass


class UnboundVariable(ExprError):
    def __init__(self, name):
        super().__init__(f"variable {name!r} is not bound")
        self.name = name


class _InvalidValue:
    """Sentinel for evaluations that hit a domain error or non-finite value.

    A value rather than an exception so batch evaluation can count invalid
    expressions cheaply.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Invalid"

    def __bool__(self):
        return False


INVALID = _InvalidValue()


@dataclass(frozen=True)
class Token:
    name: str
    arity: int
    kind: str

    def __post_init__(self):
        if not self.name:
            raise ValueError("token name must be non-empty")
        if self.kind not in _KINDS:
            raise ValueError(f"unknown token kind {self.kind!r}")
        if self.arity < 0:
            raise ValueError("arity must be non-negative")
        if (self.arity == 0) != (self.kind != OPERATOR):
            raise ValueError(
                f"token {self.name!r}: arity 0 iff kind is variable/constant/placeholder"
            )

    @property
    def is_terminal(self):
        return self.arity == 0


class Library:
    """Ordered token collection with name lookup.

    Order matters: MLM and controller logits are indexed by library position.
    """

    def __init__(self, tokens, name="custom"):
        self.tokens = list(tokens)
        self.name = name
        self.index = {}
        for i, tok in enumerate(self.tokens):
            if tok.name in self.index:
                raise ValueError(f"duplicate token name {tok.name!r}")
            self.index[tok.name] = i
        if not any(t.arity == 0 for t in self.tokens):
            raise ValueError("library needs at least one terminal token")

    def __len__(self):
        return len(self.tokens)

    def __iter__(self):
        return iter(self.tokens)

    def __contains__(self, name):
        return name in self.index

    def __getitem__(self, i):
        return self.tokens[i]

    def get(self, name):
        try:
            return self.tokens[self.index[name]]
        except KeyError:
            raise UnknownToken(name) from None

    def index_of(self, name):
        try:
            return self.index[name]
        except KeyError:
            raise UnknownToken(name) from None

    def arities(self):
        return [t.arity for t in self.tokens]

    def terminal_indices(self):
        return [i for i, t in enumerate(self.tokens) if t.arity == 0]


@dataclass
class ExprTree:
    root: Token
    children: list["ExprTree"] = field(default_factory=list)

    def __post_init__(self):
        if len(self.children) != self.root.arity:
            raise ValueError(
                f"token {self.root.name!r} has arity {self.root.arity}, "
                f"got {len(self.children)} children"
            )

    def __eq__(self, other):
        if not isinstance(other, ExprTree):
            return NotImplemented
        return self.root == other.root and self.children == other.children

    def __repr__(self):
        if not self.children:
            return self.root.name
        return f"{self.root.name}({', '.join(map(repr, self.children))})"

    def size(self):
        return 1 + sum(c.size() for c in self.children)

    def depth(self):
        if not self.children:
            return 1
        return 1 + max(c.depth() for c in self.children)

    def iter_nodes(self):
        yield self
        for c in self.children:
            yield from c.iter_nodes()


def node(token, *children):
    return ExprTree(token, list(children))


@dataclass(frozen=True)
class Traversal:
    seq: tuple

    def __init__(self, seq):
        object.__setattr__(self, "seq", tuple(seq))

    def __len__(self):
        return len(self.seq)

    def __iter__(self):
        return iter(self.seq)

    def __getitem__(self, i):
        return self.seq[i]

    def token_names(self, lib):
        return [lib[i].name for i in self.seq]


def dangling_slots(t, lib):
    """Running slot count after consuming every token; negative means overrun."""
    d = 1
    for idx in t:
        d += lib[idx].arity - 1
    return d


def is_valid_prefix(t, lib):
    d = 1
    for idx in t:
        if d <= 0:
            return False
        d += lib[idx].arity - 1
    return True


def is_complete(t, lib):
    if len(t) == 0:
        return False
    d = 1
    for k, idx in enumerate(t):
        d += lib[idx].arity - 1
        if d == 0:
            return k == len(t) - 1
        if d < 0:
            return False
    return False


def tree_to_traversal(tree, lib):
    """Pre-order encoding of a tree as library indices."""
    out = []

    def visit(n):
        out.append(lib.index_of(n.root.name))
        for c in n.children:
            visit(c)

    visit(tree)
    return Traversal(out)


def traversal_to_tree(t, lib):
    """Rebuild the unique tree whose pre-order walk is ``t``."""
    seq = list(t)
    if not seq:
        raise IncompleteTraversal("empty traversal")
    pos = 0
    d = 1

    def build():
        nonlocal pos, d
        if pos >= len(seq):
            raise IncompleteTraversal(f"traversal ends with {d} open slot(s)")
        if d <= 0:
            raise InvalidPrefix(f"no open slot at position {pos}")
        tok = lib[seq[pos]]
        pos += 1
        d += tok.arity - 1
        children = [build() for _ in range(tok.arity)]
        return ExprTree(tok, children)

    tree = build()
    if pos != len(seq):
        raise InvalidPrefix(f"traversal complete at position {pos}, trailing tokens remain")
    return tree


@dataclass(frozen=True)
class Op:
    """One operator and everything the pipeline stages derive from it."""

    token: Token
    fn: np.ufunc
    infix: str | None = None  # binary operators rendered infix
    latex: tuple = ()  # LaTeX command names that parse to this operator
    trig: bool = False  # counted by the no-nested-trig constraint
    inverse: str | None = None  # masked as this operator's direct child


def _op(name, arity, fn, **fields):
    return name, Op(Token(name, arity, OPERATOR), fn, **fields)


# The single operator registry.  Row order is the operator order of
# default_library, whose positions index model logits.
OPS = dict([
    _op("add", 2, np.add, infix="+"),
    _op("sub", 2, np.subtract, infix="-"),
    _op("mul", 2, np.multiply, infix="*"),
    _op("div", 2, np.divide, infix="/"),
    _op("pow", 2, np.power, infix="^"),
    _op("neg", 1, np.negative),
    _op("sqrt", 1, np.sqrt),
    _op("sin", 1, np.sin, latex=("sin",), trig=True),
    _op("cos", 1, np.cos, latex=("cos",), trig=True),
    _op("tan", 1, np.tan, latex=("tan",), trig=True),
    _op("exp", 1, np.exp, latex=("exp",), inverse="log"),
    _op("log", 1, np.log, latex=("log", "ln"), inverse="exp"),
])


def constant_value(token):
    """Numeric value of a constant-literal or placeholder token, else None."""
    if token.kind not in (CONSTANT, PLACEHOLDER):
        return None
    if token.name == "pi":
        return math.pi
    try:
        return float(token.name)
    except ValueError:
        return None


def evaluate(tree, bindings):
    """IEEE-double evaluation at one point; INVALID on any domain error or
    non-finite value.

    A length-1 call of evaluate_batch, so both share one set of domain rules.
    """
    values, ok = evaluate_batch(tree, {k: [float(v)] for k, v in bindings.items()})
    return float(values[0]) if ok else INVALID


def evaluate_batch(tree, bindings):
    """Vectorized evaluation of a tree; see evaluate_prefix."""
    return evaluate_prefix([n.root for n in tree.iter_nodes()], bindings)


def evaluate_prefix(tokens, bindings):
    """Vectorized evaluation of a pre-order token list over numpy arrays of
    points, right to left on a stack.

    Returns (values, ok) where ok is False if any point hit a domain error
    or non-finite intermediate.  Every value is computed either way.
    """
    stack = []
    ok = True
    with np.errstate(all="ignore"):
        for tok in reversed(tokens):
            k = tok.arity
            if k == 0:
                stack.append(_leaf(tok, bindings))
                continue
            op = OPS.get(tok.name)
            if op is None:
                raise ExprError(f"no evaluation rule for operator {tok.name!r}")
            if len(stack) < k:
                raise InvalidPrefix(f"operator {tok.name!r} is missing operands")
            # the children are the top k entries, the first child on top
            out = op.fn(*stack[:-k - 1:-1])
            del stack[-k:]
            ok = ok and bool(np.isfinite(out).all())
            stack.append(out)
    if len(stack) != 1:
        raise InvalidPrefix(f"tokens encode {len(stack)} trees, not one")
    return stack[0], ok


def _leaf(tok, bindings):
    if tok.kind == VARIABLE:
        if tok.name not in bindings:
            raise UnboundVariable(tok.name)
        return np.asarray(bindings[tok.name], dtype=float)
    v = constant_value(tok)
    if v is None:
        raise ExprError(f"constant token {tok.name!r} has no numeric value")
    return np.full(_batch_len(bindings), v)


def _batch_len(bindings):
    for v in bindings.values():
        return len(np.asarray(v))
    return 1


def render_infix(tree):
    """Fully parenthesized infix text, parseable back by the plain-math grammar."""
    tok = tree.root
    if tok.arity == 0:
        return tok.name
    op = OPS.get(tok.name)
    if op is not None and op.infix:
        a, b = tree.children
        return f"({render_infix(a)} {op.infix} {render_infix(b)})"
    if tok.name == "neg":
        return f"(-{render_infix(tree.children[0])})"
    args = ", ".join(render_infix(c) for c in tree.children)
    return f"{tok.name}({args})"


def default_library(n_vars=2, name=None):
    """Standard operator/constant/variable library used by corpus and search.

    Operators are the OPS rows in order; variables are named x1..xn;
    constants are small integer literals.
    """
    toks = [op.token for op in OPS.values()]
    toks += [Token(str(k), 0, CONSTANT) for k in (0, 1, 2, 3)]
    toks += [Token(f"x{i}", 0, VARIABLE) for i in range(1, n_vars + 1)]
    return Library(toks, name=name or f"std{n_vars}")
