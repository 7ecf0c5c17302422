import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mathcorpus import corpus
from mathcorpus import expr_core as ec
from mathcorpus.expr_core import (
    ExprTree,
    IncompleteTraversal,
    InvalidPrefix,
    Library,
    Token,
    Traversal,
    UnboundVariable,
    UnknownToken,
    default_library,
    evaluate_batch,
    evaluate_rows,
    is_complete,
    node,
    render_latex,
    traversal_to_tree,
    tree_to_traversal,
)
from mathcorpus.latex_parser import unsupported_marker

from conftest import plain_traversal, random_tree, rename_variables


def names(trav, lib):
    return trav.token_names(lib)


class TestTokenAndLibrary:
    def test_arity_kind_invariant(self):
        with pytest.raises(ValueError):
            Token("add", 2, ec.VARIABLE)
        with pytest.raises(ValueError):
            Token("x", 0, ec.OPERATOR)
        with pytest.raises(ValueError):
            Token("", 0, ec.VARIABLE)

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError):
            Library([Token("x", 0, ec.VARIABLE), Token("x", 0, ec.VARIABLE)])

    def test_library_needs_terminal(self):
        with pytest.raises(ValueError):
            Library([Token("sin", 1, ec.OPERATOR)])

    def test_lookup(self, lib):
        assert lib.get("add").arity == 2
        assert lib[lib.index_of("x1")].name == "x1"
        with pytest.raises(UnknownToken):
            lib.get("nope")
        with pytest.raises(UnknownToken):
            lib.index_of("nope")

    def test_tree_child_count_checked(self, lib):
        with pytest.raises(ValueError):
            ExprTree(lib.get("add"), [node(lib.get("x1"))])


class TestTraversalEncoding:
    def test_add_x_1(self, lib):
        t = node(lib.get("add"), node(lib.get("x1")), node(lib.get("1")))
        assert names(tree_to_traversal(t, lib), lib) == ["add", "x1", "1"]

    def test_single_node(self, lib):
        t = node(lib.get("x1"))
        assert names(tree_to_traversal(t, lib), lib) == ["x1"]

    def test_preorder_example(self, lib):
        # add(pow(x,2), sin(x)) walks parent-first, left to right
        t = node(lib.get("add"),
                 node(lib.get("pow"), node(lib.get("x1")), node(lib.get("2"))),
                 node(lib.get("sin"), node(lib.get("x1"))))
        assert names(tree_to_traversal(t, lib), lib) == \
            ["add", "pow", "x1", "2", "sin", "x1"]

    def test_unknown_token(self, lib):
        t = node(Token("weird", 0, ec.CONSTANT))
        with pytest.raises(UnknownToken):
            tree_to_traversal(t, lib)

    def test_variables_renamed_by_first_appearance(self, lib):
        x, y = (node(Token(v, 0, ec.VARIABLE)) for v in "xy")
        assert names(tree_to_traversal(node(lib.get("add"), y, x), lib),
                     lib) == ["add", "x1", "x2"]
        assert names(tree_to_traversal(node(lib.get("x2")), lib), lib) \
            == ["x1"]

    def test_variable_beyond_the_library(self, lib):
        x, y, z = (node(Token(v, 0, ec.VARIABLE)) for v in "xyz")
        t = node(lib.get("add"), x, node(lib.get("mul"), y, z))
        with pytest.raises(UnknownToken) as e:
            tree_to_traversal(t, lib)
        assert e.value.name == "x3"

    def test_split_fragment_renamed_on_its_own(self, lib):
        # add(x, ?int(sub(y, x))): the fragments x and sub(y, x) each
        # start at x1
        x, y = (node(Token(v, 0, ec.VARIABLE)) for v in "xy")
        t = node(lib.get("add"), x, unsupported_marker(
            "int", [node(lib.get("sub"), y, x)]))
        pieces = corpus.encode_trees([t], lib, "split")
        assert [(names(Traversal(seq), lib), aug) for seq, aug in pieces] \
            == [(["x1"], "split"), (["sub", "x1", "x2"], "split")]

    def test_inverse_trivial(self, lib):
        trav = Traversal([lib.index_of(n) for n in ("add", "x1", "1")])
        tree = traversal_to_tree(trav, lib)
        assert tree.root.name == "add"
        assert [c.root.name for c in tree.children] == ["x1", "1"]

    def test_overrun_is_invalid_prefix(self, lib):
        trav = Traversal([lib.index_of(n) for n in ("sin", "x1", "x1")])
        with pytest.raises(InvalidPrefix):
            traversal_to_tree(trav, lib)

    def test_short_is_incomplete(self, lib):
        with pytest.raises(IncompleteTraversal):
            traversal_to_tree(Traversal([lib.index_of("add")]), lib)
        with pytest.raises(IncompleteTraversal):
            traversal_to_tree(Traversal([]), lib)

    def test_completeness_examples(self, lib):
        add, x = lib.index_of("add"), lib.index_of("x1")
        assert not is_complete(Traversal([add, x]), lib)
        assert decoded(Traversal([add, x]), lib) == (False, True)
        assert is_complete(Traversal([x]), lib)
        assert not is_complete(Traversal([]), lib)


def decoded(t, lib):
    """(complete, valid prefix) as traversal_to_tree tells them: it builds a
    tree, raises InvalidPrefix once a complete prefix has trailing tokens,
    or raises IncompleteTraversal."""
    try:
        traversal_to_tree(t, lib)
    except InvalidPrefix:
        return False, False
    except IncompleteTraversal:
        return False, True
    return True, True


def oracle_build(seq, lib):
    """Independent tree-builder: recursively consume tokens; success iff the
    whole sequence is used by exactly one tree."""
    pos = 0

    def build():
        nonlocal pos
        if pos >= len(seq):
            raise IndexError
        tok = lib[seq[pos]]
        pos += 1
        for _ in range(tok.arity):
            build()

    try:
        build()
    except IndexError:
        return False
    return pos == len(seq)


def oracle_prefix(seq, lib):
    """Valid prefix iff some suffix completes it: equivalently, no complete
    proper prefix exists."""
    for k in range(1, len(seq)):
        if oracle_build(seq[:k], lib):
            return False
    return True


class TestEnumerationOracle:
    def test_all_sequences_up_to_len_6(self, tiny_lib):
        lib = tiny_lib
        n_checked = 0
        for length in range(7):
            for seq in itertools.product(range(len(lib)), repeat=length):
                trav = Traversal(seq)
                expect_complete = oracle_build(list(seq), lib) if seq else False
                assert is_complete(trav, lib) == expect_complete, seq
                expect_prefix = oracle_prefix(list(seq), lib)
                assert decoded(trav, lib) == (expect_complete,
                                              expect_prefix), seq
                if expect_complete:
                    tree = traversal_to_tree(trav, lib)
                    assert tuple(tree_to_traversal(tree, lib)) == seq
                n_checked += 1
        assert n_checked == sum(4 ** k for k in range(7))


class TestEvaluate:
    def test_basic_arith(self, lib):
        t = node(lib.get("add"), node(lib.get("x1")), node(lib.get("1")))
        values, ok = evaluate_batch(t, {"x1": [2.0]})
        assert ok is True and values.tolist() == [3.0]

    def test_log_domain_error(self, lib):
        t = node(lib.get("log"), node(lib.get("x1")))
        assert evaluate_batch(t, {"x1": [-1.0]})[1] is False

    def test_division_by_zero(self, lib):
        t = node(lib.get("div"), node(lib.get("1")),
                 node(lib.get("sub"), node(lib.get("x1")), node(lib.get("x1"))))
        assert evaluate_batch(t, {"x1": [0.7]})[1] is False

    def test_overflow(self, lib):
        t = node(lib.get("exp"), node(lib.get("x1")))
        assert evaluate_batch(t, {"x1": [1e6]})[1] is False

    def test_unbound_variable(self, lib):
        t = node(lib.get("x2"))
        with pytest.raises(UnboundVariable):
            evaluate_batch(t, {"x1": [1.0]})

    def test_pi(self):
        t = node(Token("pi", 0, ec.CONSTANT))
        values, ok = evaluate_batch(t, {})
        assert ok is True and values.tolist() == [math.pi]

    @pytest.mark.parametrize("op, args, x1", [
        ("pow", ("x1", "0.5"), -1.0),
        ("sqrt", ("x1",), -4.0),
        ("div", ("0", "0"), 1.0),
    ])
    def test_domain_rules_give_invalid(self, lib, op, args, x1):
        leaves = [node(lib.get(a) if a in lib else Token(a, 0, ec.CONSTANT))
                  for a in args]
        assert evaluate_batch(node(lib.get(op), *leaves), {"x1": [x1]})[1] \
            is False


def naive_evaluate(tree, bindings):
    """Recursive reference evaluator: every value, and ok over every node."""
    tok = tree.root
    if tok.kind == ec.VARIABLE:
        return np.asarray(bindings[tok.name], dtype=float), True
    if tok.arity == 0:
        n = len(next(iter(bindings.values())))
        return np.full(n, ec.constant_value(tok)), True
    args = [naive_evaluate(c, bindings) for c in tree.children]
    with np.errstate(all="ignore"):
        out = ec.OPS[tok.name].fn(*[v for v, _ in args])
    return out, all(o for _, o in args) and bool(np.isfinite(out).all())


class TestEvaluatePrefix:
    def test_matches_tree_evaluation(self, lib, rng):
        xs = np.linspace(-2, 2, 17)
        bindings = {"x1": xs, "x2": xs - 0.5}
        n_invalid = 0
        for _ in range(300):
            tree = random_tree(lib, rng, max_depth=6)
            values, ok = evaluate_batch(tree, bindings)
            ref_values, ref_ok = naive_evaluate(tree, bindings)
            assert ok == ref_ok
            # every value, bit for bit, also where the expression is invalid
            assert np.array_equal(values, ref_values, equal_nan=True)
            n_invalid += not ok
        assert 0 < n_invalid < 300

    def test_malformed_token_lists(self, lib):
        add, x = lib.get("add"), lib.get("x1")
        for tokens in ([], [add, x], [x, x]):
            with pytest.raises(InvalidPrefix):
                evaluate_rows(np.arange(len(tokens))[None], [len(tokens)],
                              tokens, {"x1": np.ones(3)})


class TestEvaluateRows:
    def test_mixed_batch_matches_tree_evaluation(self, lib, rng):
        xs = np.linspace(-2, 2, 17)
        bindings = {"x1": xs, "x2": xs - 0.5}
        trees = [random_tree(lib, rng, max_depth=6) for _ in range(300)]
        travs = [plain_traversal(t, lib).seq for t in trees]
        lengths = np.array([len(t) for t in travs])
        # pad with an operator: a padding cell that were read would show
        seqs = np.full((len(travs), lengths.max()), lib.index_of("add"))
        for row, trav in zip(seqs, travs):
            row[:len(trav)] = trav
        values, ok = evaluate_rows(seqs, lengths, lib.tokens, bindings)
        for row, tree in enumerate(trees):
            ref_values, ref_ok = naive_evaluate(tree, bindings)
            assert ok[row] == ref_ok
            assert np.array_equal(values[row], ref_values, equal_nan=True)
        assert 0 < (~ok).sum() < 300 and len(set(lengths)) > 5

    def test_one_malformed_row_raises(self, lib):
        add, x1 = lib.index_of("add"), lib.index_of("x1")
        for second, message in (([add, x1, x1], "'add' is missing operands"),
                                ([x1, x1, x1], "encode 3 trees, not one")):
            seqs = [[add, x1, x1], [x1, x1, x1], second]
            with pytest.raises(InvalidPrefix, match=message):
                evaluate_rows(np.array(seqs), [3, 1, 2 + (second[0] == x1)],
                              lib.tokens, {"x1": np.ones(3)})

    def test_unbound_variable_only_when_used(self, lib):
        sin, x1, x2 = (lib.index_of(n) for n in ("sin", "x1", "x2"))
        bindings = {"x1": np.ones(3)}
        # x2 sits in row 1's padding
        values, ok = evaluate_rows(np.array([[sin, x1], [x1, x2]]), [2, 1],
                                   lib.tokens, bindings)
        assert ok.all() and np.array_equal(values[1], np.ones(3))
        with pytest.raises(UnboundVariable, match="x2"):
            evaluate_rows(np.array([[sin, x1], [sin, x2]]), [2, 2],
                          lib.tokens, bindings)

    def test_one_row_memory_is_stack_deep_not_length_deep(self, lib):
        # x2 / (x1 - sin(x2 * (x1 + ...))): 20 tokens, a stack 2 deep
        tree = node(lib.get("x1"))
        for i in range(8):
            op = ("add", "mul", "sub", "div")[i % 4]
            leaf = node(lib.get(("x1", "x2")[i % 2]))
            tree = node(lib.get(op), leaf, node(lib.get("sin"), tree)
                        if i % 3 == 0 else tree)
        n_tokens = tree.size()
        grid = np.linspace(0.1, 1.0, 1000)
        ga, gb = np.meshgrid(grid, grid, indexing="ij")
        bindings = {"x1": ga.ravel(), "x2": gb.ravel()}
        tracemalloc.start()
        try:
            values, ok = evaluate_batch(tree, bindings)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert n_tokens >= 15 and values.shape == (10**6,)
        # the stack (2 grids), a binary operator's arguments and result (3)
        # and the returned copy (1)
        assert peak < 6.5 * values.nbytes


class TestRenderLatex:
    def test_examples(self, lib):
        t = node(lib.get("add"), node(lib.get("x1")), node(lib.get("1")))
        assert render_latex(t) == r"(\mathrm{x1} + 1)"
        t = node(lib.get("pow"), node(lib.get("x1")), node(lib.get("x2")))
        assert render_latex(t) == r"{\mathrm{x1}}^{\mathrm{x2}}"
        t = node(lib.get("neg"), node(lib.get("x1")))
        assert render_latex(t) == r"(-\mathrm{x1})"
        t = node(lib.get("sin"), node(lib.get("x1")))
        assert render_latex(t) == r"\sin(\mathrm{x1})"
        x, y = (node(Token(v, 0, ec.VARIABLE)) for v in "xy")
        pi = node(Token("pi", 0, ec.CONSTANT))
        t = node(lib.get("div"), node(lib.get("mul"), x, pi),
                 node(lib.get("sqrt"), y))
        assert render_latex(t) == r"\frac{(x \cdot \pi)}{\sqrt{y}}"

class TestProperties:
    @given(st.lists(st.integers(0, 3), max_size=12))
    def test_prefix_validity_monotone(self, seq):
        lib = Library([
            Token("add", 2, ec.OPERATOR), Token("sin", 1, ec.OPERATOR),
            Token("x1", 0, ec.VARIABLE), Token("1", 0, ec.CONSTANT),
        ])
        was_valid = True
        for k in range(len(seq) + 1):
            v = decoded(Traversal(seq[:k]), lib)[1]
            if not was_valid:
                assert not v
            was_valid = v

    @given(st.lists(st.integers(0, 3), max_size=12), st.integers(0, 3))
    def test_dangling_slot_arithmetic(self, seq, extra):
        lib = Library([
            Token("add", 2, ec.OPERATOR), Token("sin", 1, ec.OPERATOR),
            Token("x1", 0, ec.VARIABLE), Token("1", 0, ec.CONSTANT),
        ])
        # the running open-slot count that is_complete and
        # traversal_to_tree read, after the last token
        d = ec._open_slots(Traversal(seq), lib)[-1]
        d2 = ec._open_slots(Traversal(seq + [extra]), lib)[-1]
        assert d2 - d == lib[extra].arity - 1

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_random_tree_roundtrip(self, seed):
        lib = default_library(n_vars=2)
        tree = random_tree(lib, np.random.default_rng(seed), max_depth=8)
        trav = tree_to_traversal(tree, lib)
        assert is_complete(trav, lib)
        assert traversal_to_tree(trav, lib) == rename_variables(tree)
