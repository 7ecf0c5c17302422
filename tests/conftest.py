import numpy as np
import pytest

from mathcorpus.expr_core import (
    CONSTANT,
    ExprTree,
    Library,
    OPERATOR,
    Token,
    Traversal,
    VARIABLE,
    default_library,
)


@pytest.fixture
def lib():
    return default_library(n_vars=2)


@pytest.fixture
def tiny_lib():
    # 4 tokens: one binary, one unary, two terminals
    return Library([
        Token("add", 2, OPERATOR),
        Token("sin", 1, OPERATOR),
        Token("x1", 0, VARIABLE),
        Token("1", 0, CONSTANT),
    ], name="tiny")


def random_tree(lib, rng, max_depth=8):
    """Uniform-ish random tree over a library, bounded depth."""
    terminals = [t for t in lib if t.arity == 0]
    if max_depth <= 1:
        tok = terminals[rng.integers(len(terminals))]
        return ExprTree(tok, [])
    tok = lib.tokens[rng.integers(len(lib))]
    return ExprTree(tok, [random_tree(lib, rng, max_depth - 1)
                          for _ in range(tok.arity)])


def rename_variables(tree):
    """The tree with its variables renamed x1, x2, ... in order of first
    appearance in pre-order."""
    names = {}

    def walk(n):
        tok = n.root
        if tok.kind == VARIABLE:
            tok = Token(names.setdefault(tok.name, f"x{len(names) + 1}"), 0,
                        VARIABLE)
        return ExprTree(tok, [walk(c) for c in n.children])

    return walk(tree)


def plain_traversal(tree, lib):
    """Pre-order encoding of a tree as library indices."""
    # expr_core.tree_to_traversal before it renamed variables, verbatim: a
    # tree's own variable names, for tests that need a traversal of
    # exactly the tree they built
    out = []

    def visit(n):
        out.append(lib.index_of(n.root.name))
        for c in n.children:
            visit(c)

    visit(tree)
    return Traversal(out)


_SQL_QUOTE = str.maketrans({"\\": "\\\\", "'": "\\'", "\n": "\\n",
                            "\r": "\\r", "\0": "\\0"})


def serialize_rows(rows, table):
    """Re-serialize parsed tuples as a single INSERT statement (round-trip aid)."""
    def cell(v):
        if v is None:
            return "NULL"
        if isinstance(v, (int, float)):
            return repr(v)
        return "'" + str(v).translate(_SQL_QUOTE) + "'"

    values = ",".join("(" + ",".join(cell(v) for v in row) + ")" for row in rows)
    return f"INSERT INTO `{table}` VALUES {values};"


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


# The per-step recurrent network as it stood before the time loop was
# unrolled, verbatim apart from reading the parameters off ``cell``: the
# reference the unrolled forward and backward are checked against.

def _sigmoid(x):
    e = np.exp(-np.abs(x))
    return np.maximum(e, x >= 0) / (1.0 + e)


def reference_gru_step(cell, x, h):
    """One step of a ``GRUCell``'s parameters: (new state, cache)."""
    z = _sigmoid(x @ cell.Wz + h @ cell.Uz + cell.bz)
    r = _sigmoid(x @ cell.Wr + h @ cell.Ur + cell.br)
    rh = r * h
    g = np.tanh(x @ cell.Wh + rh @ cell.Uh + cell.bh)
    h_new = (1.0 - z) * h + z * g
    return h_new, (x, h, z, r, rh, g)


def reference_gru_backward(cell, dh_new, cache, grads):
    """Add one step's parameter gradients into ``grads``, keyed by the
    cell's names; return (dx, dh_prev)."""
    x, h, z, r, rh, g = cache
    dz = dh_new * (g - h)
    dg = dh_new * z
    dh = dh_new * (1.0 - z)

    dg_pre = dg * (1.0 - g * g)
    grads["Wh"] += x.T @ dg_pre
    grads["Uh"] += rh.T @ dg_pre
    grads["bh"] += dg_pre.sum(axis=0)
    drh = dg_pre @ cell.Uh.T
    dr = drh * h
    dh += drh * r

    dz_pre = dz * z * (1.0 - z)
    dr_pre = dr * r * (1.0 - r)
    grads["Wz"] += x.T @ dz_pre
    grads["Uz"] += h.T @ dz_pre
    grads["bz"] += dz_pre.sum(axis=0)
    grads["Wr"] += x.T @ dr_pre
    grads["Ur"] += h.T @ dr_pre
    grads["br"] += dr_pre.sum(axis=0)
    dh += dz_pre @ cell.Uz.T + dr_pre @ cell.Ur.T

    dx = dz_pre @ cell.Wz.T + dr_pre @ cell.Wr.T + dg_pre @ cell.Wh.T
    return dx, dh


def reference_bptt(model, steps, grads):
    """BPTT over (h, dlogits, cache) steps of ``reference_gru_step`` and
    ``model``'s read-out, each step's rows a prefix of the previous
    step's.  Adds into ``grads`` (keyed as ``model.zero_grads``) and returns
    each step's input gradient."""
    cell_grads = {name[len("cell."):]: g for name, g in grads.items()
                  if name.startswith("cell.")}
    dxs = [None] * len(steps)
    dh_next = np.zeros((0, model.hidden))
    for t in range(len(steps) - 1, -1, -1):
        h, dlogits, cache = steps[t]
        grads["W_out"] += h.T @ dlogits
        grads["b_out"] += dlogits.sum(axis=0)
        dh = dlogits @ model.W_out.T
        dh[:len(dh_next)] += dh_next
        dxs[t], dh_next = reference_gru_backward(model.cell, dh, cache,
                                                 cell_grads)
    return dxs


def pytest_terminal_summary(terminalreporter):
    # repeat the acceptance pass/fail lines where capture cannot hide them
    import sys

    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "ACCEPTANCE_LINES", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
