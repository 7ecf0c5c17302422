"""Tokens, the operator registry, token libraries, expression trees, and the
pre-order traversal encoding.

Every other module speaks these types.  A traversal is a sequence of indices
into a Library; it encodes exactly one tree when the running slot count
1 + sum(arity - 1) first hits zero at the end of the sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

OPERATOR = "operator"
VARIABLE = "variable"
CONSTANT = "constant"

_KINDS = (OPERATOR, VARIABLE, CONSTANT)


class ExprError(Exception):
    """Base class for expression-level errors."""


class UnknownToken(ExprError):
    name = property(lambda self: self.args[0])  # in args, so it pickles

    def __str__(self):
        return f"token {self.name!r} not in library"


class IncompleteTraversal(ExprError):
    pass


class InvalidPrefix(ExprError):
    pass


class UnboundVariable(ExprError):
    name = property(lambda self: self.args[0])  # in args, so it pickles

    def __str__(self):
        return f"variable {self.name!r} is not bound"


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
                f"token {self.name!r}: arity 0 iff kind is variable/constant"
            )


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

    def __repr__(self):
        if not self.children:
            return self.root.name
        return f"{self.root.name}({', '.join(map(repr, self.children))})"

    def size(self):
        return 1 + sum(c.size() for c in self.children)

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


def _open_slots(t, lib):
    """Running open-slot counts: 1 before the first token, then
    1 + sum(arity - 1) after each."""
    return list(accumulate((lib[idx].arity - 1 for idx in t), initial=1))


def is_complete(t, lib):
    *head, last = _open_slots(t, lib)
    return last == 0 and all(d > 0 for d in head)


def tree_to_traversal(tree, lib):
    """Pre-order encoding of a tree as library indices, its variables
    renamed x1..xk in order of first appearance.  A token outside the
    library, a variable beyond the library's ones among them, raises
    UnknownToken."""
    renamed, seq = {}, []

    def visit(n):
        name = n.root.name
        if n.root.kind == VARIABLE:
            name = renamed.setdefault(name, f"x{len(renamed) + 1}")
        seq.append(lib.index_of(name))
        for c in n.children:
            visit(c)

    visit(tree)
    return Traversal(seq)


def traversal_to_tree(t, lib):
    """Rebuild the unique tree whose pre-order walk is ``t``."""
    seq = list(t)
    if not seq:
        raise IncompleteTraversal("empty traversal")
    counts = _open_slots(seq, lib)
    if 0 in counts[1:-1]:
        raise InvalidPrefix(f"traversal complete at position "
                            f"{counts.index(0)}, trailing tokens remain")
    if counts[-1] != 0:
        raise IncompleteTraversal(f"traversal ends with {counts[-1]} open slot(s)")
    # right to left on a stack, as evaluate_rows: the children are the
    # top arity entries, the first child on top
    stack = []
    for idx in reversed(seq):
        cut = len(stack) - lib[idx].arity
        stack[cut:] = [ExprTree(lib[idx], stack[cut:][::-1])]
    return stack[0]


@dataclass(frozen=True)
class Op:
    """One operator and everything the pipeline stages derive from it."""

    token: Token
    fn: np.ufunc
    form: str = ""  # its LaTeX, the children at {0} and {1}
    latex: tuple = ()  # LaTeX command names that parse to this operator
    trig: bool = False  # counted by the no-nested-trig constraint
    inverse: str | None = None  # masked as this operator's direct child


def _op(name, arity, fn, **fields):
    return name, Op(Token(name, arity, OPERATOR), fn, **fields)


# The single operator registry.  Row order is the operator order of
# default_library, whose positions index model logits.
OPS = dict([
    _op("add", 2, np.add, form="({0} + {1})"),
    _op("sub", 2, np.subtract, form="({0} - {1})"),
    _op("mul", 2, np.multiply, form=r"({0} \cdot {1})"),
    _op("div", 2, np.divide, form=r"\frac{{{0}}}{{{1}}}"),
    _op("pow", 2, np.power, form="{{{0}}}^{{{1}}}"),
    _op("neg", 1, np.negative, form="(-{0})"),
    _op("sqrt", 1, np.sqrt, form=r"\sqrt{{{0}}}"),
    _op("sin", 1, np.sin, form=r"\sin({0})", latex=("sin",), trig=True),
    _op("cos", 1, np.cos, form=r"\cos({0})", latex=("cos",), trig=True),
    _op("tan", 1, np.tan, form=r"\tan({0})", latex=("tan",), trig=True),
    _op("exp", 1, np.exp, form=r"\exp({0})", latex=("exp",),
        inverse="log"),
    _op("log", 1, np.log, form=r"\log({0})", latex=("log", "ln"),
        inverse="exp"),
])


def constant_value(token):
    """Numeric value of a constant-literal token, else None."""
    if token.kind != CONSTANT:
        return None
    if token.name == "pi":
        return math.pi
    try:
        return float(token.name)
    except ValueError:
        return None


def evaluate_batch(tree, bindings):
    """Vectorized evaluation of a tree, a one-row call of evaluate_rows.
    Returns (values, ok)."""
    tokens = [n.root for n in tree.iter_nodes()]
    values, ok = evaluate_rows(np.arange(len(tokens))[None], [len(tokens)],
                               tokens, bindings)
    return values[0], bool(ok[0])


def evaluate_rows(seqs, lengths, tokens, bindings):
    """The single evaluator: B pre-order traversals over numpy arrays of
    points, in one right-to-left pass.

    Row b of the (B, L) matrix ``seqs`` holds ``lengths[b]`` indices into
    the token table ``tokens``, then padding that is never read.  At each
    position every token is applied once, to all the rows holding it, on a
    stack per row as deep as that row ever needs.  Returns the
    (B, n_points) values, and per row whether no point hit a domain error
    or non-finite intermediate.  Every value is computed either way.
    """
    live = np.arange(np.shape(seqs)[1]) < np.asarray(lengths)[:, None]
    seqs = np.where(live, seqs, 0)
    B = len(seqs)
    arity = np.array([t.arity for t in tokens])
    fns = {}  # token index -> its value as a function of its children
    for i in np.flatnonzero(np.bincount(seqs[live])):  # the tokens used
        tok, value = tokens[i], constant_value(tokens[i])
        if tok.kind == VARIABLE:
            if tok.name not in bindings:
                raise UnboundVariable(tok.name)
            value = np.asarray(bindings[tok.name], dtype=float)
        elif tok.arity == 0 and value is None:
            raise ExprError(
                f"constant token {tok.name!r} has no numeric value")
        elif tok.arity and tok.name not in OPS:
            raise ExprError(f"no evaluation rule for operator {tok.name!r}")
        fns[i] = OPS[tok.name].fn if tok.arity else lambda v=value: v
    # height[:, j]: the stack depth once positions j..L-1 are evaluated
    step = np.where(live, 1 - arity[seqs], 0)
    height = np.cumsum(step[:, ::-1], axis=1)[:, ::-1]
    under = live & (height < 1)
    bad = under.any(axis=1) | (step.sum(axis=1) != 1)
    if bad.any():
        b = np.argmax(bad)
        if under[b].any():  # the rightmost underflow is hit first
            name = tokens[seqs[b, np.flatnonzero(under[b])[-1]]].name
            raise InvalidPrefix(f"operator {name!r} is missing operands")
        raise InvalidPrefix(f"tokens encode {step[b].sum()} trees, not one")
    depth = height.max(axis=1)  # row b's stack is depth[b] rows from base[b]
    base = np.cumsum(depth) - depth
    # the live cells right to left, then by token; each run of one token at
    # one position is applied at once
    b, j = np.nonzero(live)
    order = np.argsort(seqs[b, j] - j * len(tokens), kind="stable")
    b, j = b[order], j[order]
    tok, free = seqs[b, j], base[b] + height[b, j] - step[b, j]
    edges = [0, *np.flatnonzero(np.diff(tok - j * len(tokens))) + 1, len(b)]
    del order, j
    stack = np.empty((depth.sum(), len(next(iter(bindings.values()), [0]))))
    ok = np.ones(B, dtype=bool)
    with np.errstate(all="ignore"):
        for s, e in zip(edges, edges[1:]):
            top, k = free[s:e], arity[tok[s]]
            # the children are the top k entries, the first on top
            out = fns[tok[s]](*(stack[top - c] for c in range(1, k + 1)))
            stack[top - k] = out
            if k:  # one cell per row at each position
                ok[b[s:e]] &= np.isfinite(out).all(axis=1)
    return stack[base], ok


def render_latex(tree):
    """LaTeX text of a tree with every operation bracketed, so
    ``latex_parser.parse_expression`` reads the same tree back."""
    tok = tree.root
    if tok.arity:
        return OPS[tok.name].form.format(*map(render_latex, tree.children))
    if tok.kind == CONSTANT and tok.name == "pi":
        return r"\pi"
    if tok.kind == VARIABLE and len(tok.name) > 1:
        return rf"\mathrm{{{tok.name}}}"
    return tok.name


def default_library(n_vars=2, name=None):
    """Standard operator/constant/variable library used by corpus and search.

    Operators are the OPS rows in order; variables are named x1..xn;
    constants are small integer literals.
    """
    toks = [op.token for op in OPS.values()]
    toks += [Token(str(k), 0, CONSTANT) for k in (0, 1, 2, 3)]
    toks += [Token(f"x{i}", 0, VARIABLE) for i in range(1, n_vars + 1)]
    return Library(toks, name=name or f"std{n_vars}")
