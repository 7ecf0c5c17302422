import copy
import math
import multiprocessing
from dataclasses import replace as dc_replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from conftest import reference_bptt, reference_gru_step
from mathcorpus import dsr, mlm, recurrent
from mathcorpus.dsr import (
    BenchmarkSpec,
    Controller,
    DegenerateTarget,
    Infeasible,
    SRConfig,
    builtin_benchmarks,
    recovered,
    reward,
    sample_batch,
    target_spread,
    train_step,
)
from mathcorpus.expr_core import (
    CONSTANT,
    OPS,
    Library,
    OPERATOR,
    Token,
    Traversal,
    UnboundVariable,
    VARIABLE,
    default_library,
    is_complete,
    traversal_to_tree,
)
from mathcorpus.latex_parser import parse_expression, parse_latex
from mathcorpus.recurrent import Adam, log_softmax, softmax

NEG_INF = float("-inf")


@pytest.fixture
def slib():
    return default_library(n_vars=1, name="search1")


def cfg(lib, **kw):
    kw.setdefault("batch_size", 16)
    kw.setdefault("max_steps", 5)
    return SRConfig(library=lib, **kw)


def tree_reward(tree, X, y):
    """``reward`` of an expression tree, read in pre-order."""
    tokens = [n.root for n in tree.iter_nodes()]
    return reward(tokens, X, y, target_spread(y))


class TestSRConfig:
    def test_validation(self, slib):
        with pytest.raises(ValueError):
            SRConfig(library=slib, lam=-0.1)


ROW = np.zeros(1, dtype=np.int64)  # the one row of a replayed slot state


def replayed(lib, prefix):
    """A one-row slot state with ``prefix`` pushed, one token at a time."""
    st = dsr._SlotState(lib, 1, len(prefix) + 1)
    for idx in prefix:
        st.push(ROW, np.array([idx]))
    return st


def parent_sibling(lib, prefix):
    """The slot state's parent and sibling of the next slot, None for
    empty."""
    parent, sibling, _ = replayed(lib, prefix).slot(ROW)
    return tuple(int(i) if i >= 0 else None for i in (*parent, *sibling))


def constraint_mask(lib, prefix, min_length=dsr.MIN_LENGTH,
                    max_length=dsr.MAX_LENGTH):
    """The slot state's constraint logits for the token after ``prefix``."""
    st = replayed(lib, prefix)
    parent, _, trig = st.slot(ROW)
    return st.mask(st.n, st.open, trig, parent, min_length, max_length)[0]


class TestParentSibling:
    def test_empty_prefix(self, slib):
        assert parent_sibling(slib, []) == (None, None)

    def test_unary_child_slot(self, slib):
        mul, sin = slib.index_of("mul"), slib.index_of("sin")
        p, s = parent_sibling(slib, [mul, sin])
        assert (p, s) == (sin, None)

    def test_completed_first_child(self, slib):
        mul, sin, x = (slib.index_of(n) for n in ("mul", "sin", "x1"))
        p, s = parent_sibling(slib, [mul, sin, x])
        assert (p, s) == (mul, sin)

    def test_complete_traversal_rejected(self, slib):
        x = slib.index_of("x1")
        st = replayed(slib, [x])
        assert st.open[0] == 0
        with pytest.raises(dsr.CompleteTraversal):
            st.push(ROW, np.array([x]))

    def test_agrees_with_tree_reconstruction(self, slib, rng):
        # cross-check: sample prefixes from random complete traversals, then
        # derive parent/sibling by replaying the pre-order slot filling
        from conftest import plain_traversal, random_tree

        for _ in range(100):
            tree = random_tree(slib, rng, max_depth=5)
            trav = list(plain_traversal(tree, slib))
            k = int(rng.integers(0, len(trav)))
            expect = naive_parent_sibling(trav[:k], slib)
            assert parent_sibling(slib, trav[:k]) == expect


def naive_parent_sibling(prefix, lib):
    """Reference implementation on an explicit stack of (token, children)."""
    stack = []
    for idx in prefix:
        tok = lib[idx]
        done = (idx, tok.arity == 0)
        while done[1] and stack:
            parent_idx, remaining, last = stack[-1]
            remaining -= 1
            if remaining == 0:
                stack.pop()
                done = (parent_idx, True)
            else:
                stack[-1] = (parent_idx, remaining, done[0])
                done = (None, False)
        if not done[1] and tok.arity > 0:
            stack.append((idx, tok.arity, None))
    if not stack:
        return (None, None)
    parent_idx, _, last = stack[-1]
    return (parent_idx, last)


# a library with a ternary operator, beyond the arity of any in OPS
TERNARY = Library([OPS["add"].token, OPS["sin"].token, OPS["cos"].token,
                   OPS["exp"].token, OPS["log"].token,
                   Token("fma", 3, OPERATOR), Token("x", 0, VARIABLE)],
                  name="ternary")
SLOT_LIBRARIES = [default_library(n_vars=1, name="search1"),
                  builtin_benchmarks()["nguyen-12"].library(), TERNARY]


def _open_at(prefix, i, lib):
    """Whether the subtree rooted at prefix[i] is still open."""
    slots = 1
    for idx in prefix[i:]:
        slots += lib[idx].arity - 1
        if slots == 0:
            return False
    return True


def trig_ancestors(prefix, lib):
    """The trig operators among the open subtrees' roots in ``prefix``."""
    return sum(OPS[lib[idx].name].trig for i, idx in enumerate(prefix)
               if lib[idx].name in OPS and _open_at(prefix, i, lib))


class TestSlotStack:
    @settings(max_examples=150, deadline=None)
    @given(lib=strategies.sampled_from(SLOT_LIBRARIES),
           draws=strategies.lists(
               strategies.lists(strategies.integers(0, 99), max_size=24),
               min_size=1, max_size=5))
    def test_matches_the_prefix_on_every_row(self, lib, draws):
        # each row draws tokens until its traversal is complete; rows are
        # pushed together, the unfinished ones at each step
        prefixes = []
        for raw in draws:
            prefix = []
            for r in raw:
                if prefix and is_complete(Traversal(prefix), lib):
                    break
                prefix.append(r % len(lib))
            prefixes.append(prefix)
        B, max_len = len(prefixes), 24
        state = dsr._SlotState(lib, B, max_len)
        for t in range(max_len + 1):
            rows = np.arange(B)
            parent, sibling, trig = state.slot(rows)
            for b, prefix in enumerate(prefixes):
                seen = prefix[:t]
                want_p, want_s = naive_parent_sibling(seen, lib)
                assert (parent[b], sibling[b]) == (
                    -1 if want_p is None else want_p,
                    -1 if want_s is None else want_s)
                assert state.n[b] == len(seen)
                assert state.open[b] == 1 + sum(lib[i].arity - 1
                                                for i in seen)
                assert trig[b] == trig_ancestors(seen, lib)
            rows = np.array([b for b, p in enumerate(prefixes)
                             if len(p) > t], dtype=np.int64)
            if not rows.size:
                break
            state.push(rows, np.array([prefixes[b][t] for b in rows]))
        for b, prefix in enumerate(prefixes):
            if is_complete(Traversal(prefix), lib):
                with pytest.raises(dsr.CompleteTraversal):
                    state.push(np.array([b]), np.array([0]))


class TestConstraints:
    def test_max_length_masks_operators(self, slib):
        # a prefix one token short of max_length with one open slot
        sin, x = slib.index_of("sin"), slib.index_of("x1")
        prefix = [sin] * 9  # n=9, d=1
        mask = constraint_mask(slib, prefix, min_length=4, max_length=10)
        for i, tok in enumerate(slib):
            if tok.arity >= 1:
                assert mask[i] == NEG_INF, tok.name
            else:
                assert mask[i] == 0.0, tok.name

    def test_nested_trig_masked(self, slib):
        mask = constraint_mask(slib, [slib.index_of("sin")])
        for name in ("sin", "cos", "tan"):
            assert mask[slib.index_of(name)] == NEG_INF
        assert mask[slib.index_of("exp")] == 0.0

    def test_trig_released_after_subtree_closes(self, slib):
        add, sin, x = (slib.index_of(n) for n in ("add", "sin", "x1"))
        mask = constraint_mask(slib, [add, sin, x])
        assert mask[sin] == 0.0  # the sin subtree is finished

    def test_min_length_masks_terminals(self, slib):
        mask = constraint_mask(slib, [], min_length=4, max_length=30)
        # brute-force justification: any terminal here gives length 1 < 4
        for i, tok in enumerate(slib):
            if tok.arity == 0:
                assert mask[i] == NEG_INF, tok.name
            else:
                assert mask[i] == 0.0, tok.name

    def test_inverse_pairs(self, slib):
        mask = constraint_mask(slib, [slib.index_of("log")])
        assert mask[slib.index_of("exp")] == NEG_INF
        assert mask[slib.index_of("log")] == 0.0
        mask = constraint_mask(slib, [slib.index_of("exp")])
        assert mask[slib.index_of("log")] == NEG_INF

    def test_infeasible_configuration(self):
        lib = Library([Token("sin", 1, OPERATOR), Token("x", 0, VARIABLE)],
                      name="t")
        with pytest.raises(Infeasible):
            # one open slot, min_length 4: terminal masked; sin masked by the
            # nested-trig rule -> nothing left
            constraint_mask(lib, [lib.index_of("sin")],
                            min_length=4, max_length=30)


def rule_mask(lib, n, d, trig, parent, min_length, max_length):
    """The constraint logits of each row, rule by rule and token by token."""
    out = np.zeros((len(n), len(lib)))
    for b in range(len(n)):
        above = OPS.get(lib[parent[b]].name) if parent[b] >= 0 else None
        for i, tok in enumerate(lib):
            op = OPS.get(tok.name)
            if (n[b] + d[b] + tok.arity > max_length
                    or tok.arity == 0 and d[b] == 1 and n[b] + 1 < min_length
                    or op is not None and op.trig and trig[b] > 0
                    or above is not None and above.inverse == tok.name):
                out[b, i] = NEG_INF
    return out


class TestMaskTable:
    @pytest.mark.parametrize("library", ["search2", "nguyen-8", "nguyen-12"])
    def test_matches_the_rules_on_random_states(self, library):
        if library == "search2":
            lib = default_library(n_vars=2, name=library)
        else:
            lib = builtin_benchmarks()[library].library()
        st = dsr._SlotState(lib, 0, 0)
        rng = np.random.default_rng(12)
        n_infeasible = 0
        for min_length, max_length in ((4, 30), (1, 10), (7, 12), (0, 3)):
            n = rng.integers(0, max_length + 3, 300)
            d = rng.integers(1, 8, 300)
            trig = rng.integers(0, 3, 300)
            parent = rng.integers(-1, len(lib), 300)
            want = rule_mask(lib, n, d, trig, parent, min_length, max_length)
            bad = (want == NEG_INF).all(axis=1)
            ok = np.flatnonzero(~bad)
            got = st.mask(n[ok], d[ok], trig[ok], parent[ok], min_length,
                          max_length)
            assert np.array_equal(got, want[ok])
            for b in np.flatnonzero(bad):
                with pytest.raises(Infeasible):
                    st.mask(n[b:b + 1], d[b:b + 1], trig[b:b + 1],
                            parent[b:b + 1], min_length, max_length)
            n_infeasible += bad.sum()
        assert 0 < n_infeasible < 1200


class TestCombineAndSample:
    def test_no_nan_with_masks(self, rng):
        V = 6
        l_mask = np.full(V, NEG_INF)
        l_mask[3] = 0.0
        s = l_mask + rng.normal(size=V)
        p = softmax(s)
        assert not np.isnan(p).any()
        assert p[3] == 1.0

    def test_inverse_temperature_identity(self, rng):
        for lam in [round(0.1 * k, 1) for k in range(1, 11)]:
            for _ in range(20):
                l = rng.normal(size=9) * 3
                direct = softmax(lam * l)
                tempered = softmax(l / (1.0 / lam))
                assert np.max(np.abs(direct - tempered)) < 1e-12


class TestSampling:
    def test_complete_and_in_bounds(self, slib):
        config = cfg(slib, batch_size=500)
        controller = Controller(slib, dsr.HIDDEN_SIZE, seed=0)
        rng = np.random.default_rng(0)
        travs = sample_batch(controller, None, config, rng)
        for t in travs:
            assert is_complete(t, slib)
            assert dsr.MIN_LENGTH <= len(t) <= dsr.MAX_LENGTH

    def test_single_terminal_library(self):
        # the one token is a terminal, which the minimum length masks at
        # the empty prefix
        lib = Library([Token("x", 0, VARIABLE)], name="only-x")
        config = SRConfig(library=lib, batch_size=1)
        controller = Controller(lib, 8, seed=0)
        with pytest.raises(Infeasible, match="mask every token"):
            sample_batch(controller, None, config, np.random.default_rng(0))

    def test_deterministic_given_rng(self, slib):
        config = cfg(slib, batch_size=20)
        controller = Controller(slib, dsr.HIDDEN_SIZE, seed=1)
        a = sample_batch(controller, None, config, np.random.default_rng(7))
        b = sample_batch(controller, None, config, np.random.default_rng(7))
        assert [t.seq for t in a] == [t.seq for t in b]


def reference_sample_batch(controller, mlm_model, config, rng, B):
    """sample_batch with the bookkeeping redone per row from the prefix:
    naive_parent_sibling, and explicit length, open-slot and trig counts.
    The recurrent steps run on the whole batch to the longest row's end,
    finished rows included; sample_batch steps only the unfinished rows
    (and a finished one beside a last row), and its draws must not
    differ."""
    lib = config.library
    V = len(lib)
    bos = mlm_model.bos if mlm_model is not None else 0
    seqs = [[] for _ in range(B)]
    done = [False] * B
    prev = [bos] * B
    h = controller.initial_state(B)
    h_mlm = mlm_model.initial_state(B) if mlm_model is not None else None
    for _ in range(dsr.MAX_LENGTH):
        if all(done):
            break
        n, d, tr, par = [], [], [], []
        x = np.zeros((B, 2 * (V + 1)))
        for b, seq in enumerate(seqs):
            parent = sibling = None
            if done[b]:  # finished rows see an empty prefix
                n.append(0), d.append(1), tr.append(0)
            else:
                parent, sibling = naive_parent_sibling(seq, lib)
                n.append(len(seq))
                d.append(1 + sum(lib[i].arity - 1 for i in seq))
                tr.append(trig_ancestors(seq, lib))
                prev[b] = seq[-1] if seq else bos
            par.append(-1 if parent is None else parent)
            x[b, V if parent is None else parent] = 1.0
            x[b, V + 1 + (V if sibling is None else sibling)] = 1.0
        masks = dsr._SlotState(lib, 0, 0).mask(
            np.array(n), np.array(d), np.array(tr), np.array(par),
            dsr.MIN_LENGTH, dsr.MAX_LENGTH)
        logits, h = controller.forward(x, h)
        if mlm_model is not None:
            l_mlm, h_mlm = mlm_model.step_batch(np.array(prev), h_mlm)
            logits = logits + config.lam * l_mlm
        p = softmax(logits + masks, axis=1)
        u = rng.random(B)
        for b in range(B):
            if not done[b]:
                pick = min(int((np.cumsum(p[b]) < u[b]).sum()), V - 1)
                seqs[b].append(pick)
                done[b] = is_complete(Traversal(seqs[b]), lib)
    return [tuple(s) for s in seqs]


def recorded(controller, model, config, travs, record=None):
    """``sample_batch``'s record of drawing ``travs``, appended to
    ``record``: for the call, ``dsr.draw`` returns the next token of every
    unfinished row."""
    seqs, lengths = dsr._padded(travs)
    columns = (seqs[lengths > t, t] for t in range(seqs.shape[1]))
    record = [] if record is None else record
    with pytest.MonkeyPatch.context() as m:
        m.setattr(dsr, "draw", lambda p, u: next(columns))
        got = sample_batch(controller, model,
                           dc_replace(config, batch_size=len(travs)),
                           np.random.default_rng(0), record)
    assert [t.seq for t in got] == [t.seq for t in travs]
    return record


def batch_prior_logits(model, travs):
    """The prior's (T, B, V) logits over a whole sampled batch, stepped as
    sampling steps it: the token drawn last, BOS first, and a finished
    row's last token again."""
    seqs, lengths = dsr._padded(travs)
    prev = np.full(len(travs), model.bos, dtype=np.int64)
    h = model.initial_state(len(travs))
    out = []
    for t in range(seqs.shape[1]):
        logits, h = model.step_batch(prev, h)
        out.append(logits)
        prev = np.where(lengths > t, seqs[:, t], prev)
    return np.stack(out)


class TestSampleBatchOracle:
    @pytest.mark.parametrize("library", ["search1", "nguyen-5"])
    @pytest.mark.parametrize("with_mlm", [False, True])
    def test_matches_per_row_reference(self, library, with_mlm):
        if library == "search1":
            lib = default_library(n_vars=1, name=library)
        else:
            lib = builtin_benchmarks()[library].library()
        config = cfg(lib, lam=0.5 if with_mlm else 0.0, batch_size=64)
        controller = Controller(lib, dsr.HIDDEN_SIZE, seed=2)
        controller.W_out += np.random.default_rng(3).normal(
            size=controller.W_out.shape)
        model = None
        if with_mlm:
            model = mlm.init(lib, 4, 8, seed=0)
            model.W_out += np.random.default_rng(4).normal(
                size=model.W_out.shape)
        got = sample_batch(controller, model, config, np.random.default_rng(5))
        want = reference_sample_batch(controller, model, config,
                                      np.random.default_rng(5), 64)
        assert [t.seq for t in got] == want

    @pytest.mark.parametrize("with_mlm", [False, True])
    def test_rows_ending_at_many_lengths(self, with_mlm):
        # a likelier terminal: rows finish at every length, so the stepped
        # rows shrink many times, down to the last one or two
        lib = builtin_benchmarks()["nguyen-5"].library()
        controller, model = perturbed_models(lib, with_mlm)
        controller.b_out[lib.index_of("x")] += 2.0
        config = cfg(lib, lam=0.5 if with_mlm else 0.0, batch_size=256)
        record = []
        got = sample_batch(controller, model, config,
                           np.random.default_rng(5), record)
        want = reference_sample_batch(controller, model, config,
                                      np.random.default_rng(5), 256)
        assert [t.seq for t in got] == want
        lengths = np.array([len(t) for t in got])
        assert len(set(lengths)) >= 20 and lengths.min() == dsr.MIN_LENGTH
        # the record holds the unfinished rows of each step, in batch order
        assert len(record) == lengths.max()
        for t, (rows, *_) in enumerate(record):
            assert rows.tolist() == np.flatnonzero(lengths > t).tolist()


class TestLiveRows:
    @pytest.mark.parametrize("with_mlm", [False, True])
    def test_gru_rows_bounded_by_the_sampled_tokens(self, with_mlm,
                                                    monkeypatch):
        # the recurrent steps drop the finished rows once they are an
        # eighth of those stepped, and never step one row alone: each step
        # runs fewer than 8/7 of its unfinished rows, or two
        lib = builtin_benchmarks()["nguyen-5"].library()
        controller, model = perturbed_models(lib, with_mlm)
        controller.b_out[lib.index_of("x")] += 2.0
        config = cfg(lib, lam=0.5, batch_size=300)
        seen = []
        forward = recurrent.GRUCell.forward

        def counted(cell, z, *args):
            seen.append(len(z))
            return forward(cell, z, *args)

        monkeypatch.setattr(recurrent.GRUCell, "forward", counted)
        travs = sample_batch(controller, model, config,
                             np.random.default_rng(8))
        tokens = sum(len(t) for t in travs)
        T = max(len(t) for t in travs)
        cells = 2 if with_mlm else 1
        assert len(seen) == cells * T
        assert tokens * cells <= sum(seen)
        assert sum(seen) < cells * (8 * tokens / 7 + 2 * T)
        assert min(seen) >= 2
        # the bound bites: stepping every row to the longest row's end is
        # above it
        assert 8 * tokens / 7 + 2 * T < len(travs) * T

    def test_a_last_row_is_not_stepped_alone(self):
        # numpy steps a single row with gemv, whose sums round unlike
        # gemm's; the prior's logits of a row that outlasts the others must
        # still be those of the whole batch, bit for bit
        lib = builtin_benchmarks()["nguyen-5"].library()
        controller, model = perturbed_models(lib, True)
        add, sin, cos, x = (lib.index_of(n)
                            for n in ("add", "sin", "cos", "x"))
        travs = ([Traversal([add, x] * 14 + [sin, x])]
                 + [Traversal([add, x, sin, x]),
                    Traversal([add, cos, x, x])] * 6)
        record = recorded(controller, model, cfg(lib, lam=0.5), travs)
        want = batch_prior_logits(model, travs)
        assert [len(rows) for rows, *_ in record][-1] == 1
        for t, (rows, *_, l_mlm) in enumerate(record):
            assert np.array_equal(l_mlm, want[t, rows])



# The training replay as it stood before sampling and training shared one
# policy step, verbatim apart from the names, the entropy weight, now a
# constant, the prior, and the controller's steps: it takes the prior's
# (T, k, V) logits, from ``batch_prior_logits`` over the sampled batch,
# where it stepped the language model over the k rows, and it steps and
# backpropagates the controller one step at a time with conftest's
# reference network.  It recomputes parent, sibling and constraint mask in
# a loop of its own.
_SlotState = dsr._SlotState


def reference_objective_and_gradients(controller, traversals, advantages,
                                      config, prior=None):
    lib = config.library
    k = len(traversals)
    V = len(lib)
    lengths = np.array([len(t) for t in traversals])
    T = int(lengths.max())

    # teacher-forced inputs, masks and targets; padded steps stay zero
    seqs = np.zeros((k, T), dtype=np.int64)
    for i, trav in enumerate(traversals):
        seqs[i, :lengths[i]] = tuple(trav)
    targets = seqs.T
    step_mask = (np.arange(T)[:, None] < lengths[None, :]).astype(float)
    xs = np.zeros((T, k, 2 * (V + 1)))
    masks = np.zeros((T, k, V))
    st = _SlotState(lib, k, T)
    for t in range(T):
        rows = np.flatnonzero(lengths > t)
        parent, sibling, trig = st.slot(rows)
        xs[t, rows] = controller.input_batch(parent, sibling)
        masks[t, rows] = st.mask(st.n[rows], st.open[rows], trig, parent,
                                 dsr.MIN_LENGTH, dsr.MAX_LENGTH)
        st.push(rows, seqs[rows, t])

    # forward, with each step's share of J and its logit gradients
    adv = np.asarray(advantages, dtype=float)
    w_ent = dsr.ENTROPY_WEIGHT
    h = controller.initial_state(k)
    J = 0.0
    steps = []
    for t in range(T):
        h, cache = reference_gru_step(controller.cell, xs[t], h)
        l_dsr = h @ controller.W_out + controller.b_out
        if prior is not None:
            combined = l_dsr + config.lam * prior[t] + masks[t]
        else:
            combined = l_dsr + masks[t]
        p = softmax(combined, axis=1)
        lp = log_softmax(combined, axis=1)
        sel = lp[np.arange(k), targets[t]]
        J += float(np.sum(adv * sel * step_mask[t])) / k
        onehot = np.zeros_like(p)
        onehot[np.arange(k), targets[t]] = 1.0
        dlogits = (adv * step_mask[t])[:, None] * (onehot - p) / k
        safe_lp = np.where(p > 0, lp, 0.0)
        H = -(p * safe_lp).sum(axis=1)
        J += w_ent * float(np.sum(H * step_mask[t])) / k
        dH = -p * (safe_lp + H[:, None])
        dlogits += w_ent * step_mask[t][:, None] * dH / k
        steps.append((h, dlogits, cache))

    grads = controller.zero_grads()
    reference_bptt(controller, steps, grads)
    return J, grads


def perturbed_models(lib, with_mlm):
    """A controller, and a prior when ``with_mlm``, with random read-outs,
    so that sampled batches are varied."""
    rng = np.random.default_rng(11)
    controller = Controller(lib, dsr.HIDDEN_SIZE, seed=2)
    controller.W_out += rng.normal(size=controller.W_out.shape)
    controller.b_out += rng.normal(size=controller.b_out.shape)
    model = None
    if with_mlm:
        model = mlm.init(lib, 4, 8, seed=0)
        model.W_out += rng.normal(size=model.W_out.shape)
        model.b_out += rng.normal(size=model.b_out.shape)
    return controller, model


class TestReplayOracle:
    def _check(self, controller, model, travs, record, config, seed,
               rows=None):
        """Training on ``rows`` (all by default) of a sampled batch against
        the oracle."""
        rows = np.arange(len(travs)) if rows is None else rows
        kept = [travs[i] for i in rows]
        adv = np.random.default_rng(seed).normal(size=len(rows))
        J, grads = dsr.objective_and_gradients(
            controller, *dsr._padded(kept), adv, config, record, rows)
        prior = None
        if model is not None:
            prior = batch_prior_logits(model, travs)[:, rows]
        want_J, want = reference_objective_and_gradients(
            controller, kept, adv, config, prior)
        # the same logits, so the same J; each weight gradient is one
        # product over the steps where the reference sums per step
        assert math.isfinite(J) and J == want_J
        assert grads.keys() == want.keys()
        for n, w in want.items():
            scale = max(np.max(np.abs(w)), np.finfo(float).tiny)
            assert np.max(np.abs(grads[n] - w)) <= 1e-12 * scale

    @pytest.mark.parametrize("with_mlm", [False, True])
    def test_matches_reference_on_sampled_batches(self, with_mlm):
        lib = builtin_benchmarks()["nguyen-5"].library()
        controller, model = perturbed_models(lib, with_mlm)
        # a likelier terminal, so that rows finish at many lengths
        controller.b_out[lib.index_of("x")] += 2.0
        rng = np.random.default_rng(5)
        for seed, lam in enumerate((0.0, 0.5, 0.0, 0.5)):
            config = cfg(lib, lam=lam, batch_size=40)
            record = []
            travs = sample_batch(controller, model, config, rng, record)
            lengths = np.array([len(t) for t in travs])
            assert len(record) == lengths.max()
            self._check(controller, model, travs, record, config, seed)
            # kept rows as training keeps them, in an order of their own:
            # the shortest, all finished before the batch's last step, and
            # every seventh row by length
            order = np.argsort(lengths, kind="stable")
            assert lengths[order[5]] < len(record)
            for rows in (order[5::-1], order[::7]):
                self._check(controller, model, travs, record, config, seed,
                            rows)

    @pytest.mark.parametrize("with_mlm", [False, True])
    def test_padding_token_masked_at_the_empty_prefix(self, with_mlm):
        # token 0 is the terminal x, which the length rule masks at the
        # empty prefix a finished row sees; the padded steps of the short
        # row must still add nothing
        lib = Library([Token("x", 0, VARIABLE), OPS["add"].token,
                       OPS["mul"].token, OPS["sin"].token])
        config = cfg(lib, lam=0.5 if with_mlm else 0.0, batch_size=20)
        assert constraint_mask(lib, [])[0] == NEG_INF
        x, add, mul, sin = range(4)
        short = Traversal([add, x, sin, x])
        long = Traversal([add, x] * 14 + [sin, x])
        assert (len(short), len(long)) == (4, 30)
        controller, model = perturbed_models(lib, with_mlm)
        sampled = sample_batch(controller, model, config,
                               np.random.default_rng(6))
        travs = [short, long, *sampled]
        record = recorded(controller, model, config, travs)
        self._check(controller, model, travs, record, config, 7)
        self._check(controller, model, travs, record, config, 7,
                    np.array([0, 1]))


class TestPriorInput:
    def test_prior_share_is_the_mlm_sequence_score(self, slib):
        # traversals that close subtrees mid-sequence, where the previous
        # token is neither the next slot's parent nor its sibling
        model = mlm.init(slib, 4, 8, seed=0)
        rng = np.random.default_rng(3)
        model.W_out += rng.normal(size=model.W_out.shape)
        model.b_out += rng.normal(size=model.b_out.shape)
        config = cfg(slib, lam=0.5)
        controller = Controller(slib, dsr.HIDDEN_SIZE, seed=0)
        for names in ("add mul x1 x1 x1", "mul add x1 x1 sin x1",
                      "add mul x1 x1 mul x1 x1", "sub add x1 exp x1 x1"):
            trav = Traversal([slib.index_of(n) for n in names.split()])
            record = recorded(controller, model, config, [trav])
            got = sum(float(log_softmax(l_mlm[0])[tok])
                      for (*_, l_mlm), tok in zip(record, trav.seq))
            assert abs(got - mlm.score(model, trav)) < 1e-12


class TestReward:
    def test_exact_target_reward_one(self, slib):
        tree = parse_expression(r"\mathrm{x1}^2 + \mathrm{x1}", slib)
        X = {"x1": np.linspace(-1, 1, 20)}
        y = X["x1"] ** 2 + X["x1"]
        r, invalid = tree_reward(tree, X, y)
        assert r == 1.0 and not invalid

    def test_invalid_expression(self, slib):
        tree = parse_expression(r"\log(\mathrm{x1})", slib)
        X = {"x1": np.linspace(-1, 1, 20)}
        r, invalid = tree_reward(tree, X, X["x1"])
        assert r == 0.0 and invalid

    def test_constant_predictor_half(self, slib):
        X = {"x1": np.linspace(-1, 1, 21)}
        y = X["x1"] ** 3
        mean_tree = parse_expression("0", slib)  # mean(y) is 0 on symmetric grid
        r, invalid = tree_reward(mean_tree, X, y)
        assert not invalid
        assert math.isclose(r, 0.5, rel_tol=1e-12)

    def test_bounds(self, slib, rng):
        X = {"x1": rng.uniform(-1, 1, 20)}
        y = X["x1"] ** 2
        for expr in (r"\mathrm{x1}", r"(\mathrm{x1} \cdot 3)",
                     r"\sin(\mathrm{x1})",  # and 30 is not slib's
                     r"\exp(\exp(\exp((\mathrm{x1} \cdot 30))))"):
            r, _ = tree_reward(parse_expression(expr), X, y)
            assert 0.0 <= r <= 1.0

    def test_degenerate_target(self, monkeypatch):
        # x - x + 1 is 1 everywhere; the run fails before it samples
        spec = BenchmarkSpec(name="const", expression="x - x + 1",
                             variables=["x"],
                             library_tokens=["add", "sub", "x", "1"])
        config = SRConfig(library=spec.library(), batch_size=8)

        def no_sampling(*args):
            raise AssertionError("sampled with a constant target")

        monkeypatch.setattr(dsr, "sample_batch", no_sampling)
        with pytest.raises(DegenerateTarget):
            dsr.run_search(spec, config, 0)
        with pytest.raises(DegenerateTarget):
            target_spread(np.ones(5))

    def test_unbound_variable_raises(self):
        # an evaluation error is a failure, not an invalid expression
        tokens = [OPS["add"].token, Token("x1", 0, VARIABLE),
                  Token("x2", 0, VARIABLE)]
        X = {"x1": np.linspace(-1, 1, 20)}
        with pytest.raises(UnboundVariable):
            reward(tokens, X, X["x1"], target_spread(X["x1"]))


class TestBatchRewards:
    @pytest.mark.parametrize("with_mlm", [False, True])
    def test_match_per_row_reward(self, with_mlm):
        spec = builtin_benchmarks()["nguyen-5"]
        lib = spec.library()
        config = cfg(lib, lam=0.5 if with_mlm else 0.0, batch_size=200)
        controller, model = perturbed_models(lib, with_mlm)
        X, y = spec.dataset(np.random.default_rng(1))
        sd = target_spread(y)
        rng = np.random.default_rng(4)
        n_invalid = 0
        for _ in range(3):
            travs = sample_batch(controller, model, config, rng)
            rewards, invalid = dsr.batch_rewards(*dsr._padded(travs),
                                                 lib.tokens, X, y, sd)
            want = [reward([lib[i] for i in t.seq], X, y, sd) for t in travs]
            assert rewards.tolist() == [r for r, _ in want]
            assert invalid.tolist() == [bad for _, bad in want]
            n_invalid += int(invalid.sum())
        assert 0 < n_invalid < 600

    def test_run_search_keeps_the_first_maximum(self, monkeypatch):
        spec = builtin_benchmarks()["nguyen-5"]
        lib = spec.library()
        add, sub, sin, log, x = (lib.index_of(n)
                                 for n in ("add", "sub", "sin", "log", "x"))
        # x + sin(x) and sin(x) + x tie bit for bit; log(x - x) is invalid
        batches = iter([
            [Traversal([log, sub, x, x]), Traversal([add, x, sin, x]),
             Traversal([add, sin, x, x])],
            [Traversal([add, sin, x, x])],
        ])

        def forced(controller, model, config, rng, record):
            # the record of drawing the batch, as training reads it
            travs = next(batches)
            recorded(controller, model, config, travs, record)
            return travs

        monkeypatch.setattr(dsr, "sample_batch", forced)
        metrics = dsr.run_search(spec, cfg(lib, max_steps=2), 0)
        assert metrics.best_expression == r"(x + \sin(x))"
        assert metrics.invalid_fraction == 0.25


    @pytest.mark.parametrize("recover_at, steps", [(3, 3), (None, 4)])
    def test_no_update_after_the_last_step(self, monkeypatch, recover_at,
                                           steps):
        """``train_step`` runs once per step that another step follows:
        not on the step that recovers, nor on the last of the budget."""
        spec = BenchmarkSpec(name="x+1", expression="x + 1", variables=["x"],
                             library_tokens=["add", "sin", "x", "1"])
        lib = spec.library()
        add, sin, x, one = range(4)
        step = iter(range(1, 5))

        def forced(controller, model, config, rng, record):
            first = [add, x, one] if next(step) == recover_at else [sin, x]
            travs = [Traversal(first), Traversal([x])]
            recorded(controller, model, config, travs, record)
            return travs

        calls = []
        train = dsr.train_step
        monkeypatch.setattr(dsr, "sample_batch", forced)
        monkeypatch.setattr(dsr, "train_step",
                            lambda *args: calls.append(1) or train(*args))
        metrics = dsr.run_search(spec, cfg(lib, max_steps=4), 0)
        assert metrics.recovered == (recover_at is not None)
        assert metrics.steps_to_solve == steps
        assert len(calls) == steps - 1


class TestTrainStep:
    def test_gradient_check_finite_differences(self, slib):
        config = cfg(slib, batch_size=3)
        controller = Controller(slib, 6, seed=3)
        rng = np.random.default_rng(0)
        controller.W_out += rng.uniform(-0.3, 0.3, controller.W_out.shape)
        controller.b_out += rng.uniform(-0.3, 0.3, controller.b_out.shape)
        record = []
        travs = sample_batch(controller, None, config,
                             np.random.default_rng(1), record)
        advantages, rows = [0.4, -0.2, 0.1], np.arange(3)
        seqs, lengths = dsr._padded(travs)
        J, grads = dsr.objective_and_gradients(controller, seqs, lengths,
                                               advantages, config, record,
                                               rows)
        h = 1e-5
        worst = 0.0
        for name, p in controller.params().items():
            flat = p.reshape(-1)
            g = grads[name].reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                Jp, _ = dsr.objective_and_gradients(controller, seqs,
                                                    lengths, advantages,
                                                    config, record, rows)
                flat[i] = orig - h
                Jm, _ = dsr.objective_and_gradients(controller, seqs,
                                                    lengths, advantages,
                                                    config, record, rows)
                flat[i] = orig
                fd = (Jp - Jm) / (2 * h)
                # floor 1e-5: central differences at h=1e-5 carry ~1e-10
                # absolute roundoff, which swamps the ratio for the many
                # near-zero gate gradients in this objective
                denom = max(abs(fd), abs(g[i]), 1e-5)
                worst = max(worst, abs(fd - g[i]) / denom)
        assert worst < 1e-4

    def test_mlm_frozen_during_training(self, slib):
        config = cfg(slib, lam=0.5, batch_size=8)
        controller = Controller(slib, dsr.HIDDEN_SIZE, seed=0)
        model = mlm.init(slib, 6, 8, seed=0)
        snapshot = copy.deepcopy(model)
        opt = Adam(dsr.LEARNING_RATE)
        rng = np.random.default_rng(0)
        X = {"x1": np.linspace(-1, 1, 20)}
        y = X["x1"] ** 2
        for _ in range(100):
            record = []
            travs = sample_batch(controller, model, config, rng, record)
            rewards = np.array([tree_reward(traversal_to_tree(t, slib),
                                            X, y)[0] for t in travs])
            train_step(controller, *dsr._padded(travs), rewards, config, opt,
                       record)
        assert model.equal(snapshot)

    def test_replay_uses_the_sampling_constraint_set(self):
        # add(exp(log(x)), x) breaks the inverse-pair rule, so training
        # masks the token sampling could not have drawn: its log-prob is -inf
        lib = builtin_benchmarks()["nguyen-7"].library()
        config = SRConfig(library=lib)
        controller = Controller(lib, dsr.HIDDEN_SIZE, seed=0)
        trav = Traversal([lib.index_of(n)
                          for n in ("add", "exp", "log", "x", "x")])
        record = recorded(controller, None, config, [trav])
        J, _ = dsr.objective_and_gradients(controller, *dsr._padded([trav]),
                                           [0.5], config, record,
                                           np.array([0]))
        assert J == NEG_INF

    @pytest.mark.parametrize("with_mlm", [False, True])
    def test_trains_on_the_top_rows_of_the_record(self, with_mlm):
        lib = builtin_benchmarks()["nguyen-5"].library()
        config = cfg(lib, lam=0.5, batch_size=100)
        controller, model = perturbed_models(lib, with_mlm)
        controller.b_out[lib.index_of("x")] += 2.0
        record = []
        travs = sample_batch(controller, model, config,
                             np.random.default_rng(3), record)
        rewards = np.random.default_rng(4).uniform(size=100)
        top = np.argsort(-rewards, kind="stable")[:5]
        prior = None
        if model is not None:
            prior = batch_prior_logits(model, travs)[:, top]
        want_J, _ = reference_objective_and_gradients(
            controller, [travs[i] for i in top],
            rewards[top] - np.quantile(rewards, 0.95), config, prior)
        J = train_step(controller, *dsr._padded(travs), rewards, config,
                       Adam(dsr.LEARNING_RATE), record)
        assert J == want_J

    def test_empty_batch(self, slib):
        config = cfg(slib)
        controller = Controller(slib, dsr.HIDDEN_SIZE, seed=0)
        with pytest.raises(ValueError):
            train_step(controller, np.zeros((0, 0), dtype=np.int64),
                       np.zeros(0, dtype=np.int64), np.zeros(0), config,
                       Adam(0.001), [])


class TestLambdaZeroEquivalence:
    def test_bit_identical_trajectories(self, slib):
        config = cfg(slib, lam=0.0, batch_size=10, max_steps=10)
        model = mlm.init(slib, 6, 8, seed=9)

        def run(with_model):
            controller = Controller(slib, dsr.HIDDEN_SIZE, seed=0)
            opt = Adam(dsr.LEARNING_RATE)
            rng = np.random.default_rng(0)
            X = {"x1": np.linspace(-1, 1, 20)}
            y = X["x1"] ** 3 + X["x1"]
            trajectory = []
            for _ in range(config.max_steps):
                record = []
                travs = sample_batch(controller,
                                     model if with_model else None, config,
                                     rng, record)
                trajectory.extend(t.seq for t in travs)
                seqs, lengths = dsr._padded(travs)
                rewards, _ = dsr.batch_rewards(seqs, lengths, slib.tokens,
                                               X, y, target_spread(y))
                train_step(controller, seqs, lengths, rewards, config, opt,
                           record)
            return trajectory

        assert run(True) == run(False)


class TestBenchmarksAndRecovery:
    def test_twelve_builtins_parse(self):
        specs = builtin_benchmarks()
        assert len(specs) == 12
        for spec in specs.values():
            tree = spec.target_tree()
            assert tree.size() >= 1
            X, y = spec.dataset(np.random.default_rng(0))
            assert len(y) == spec.n_points

    PINNED = {
        "nguyen-1": "add(add(pow(x, 3), pow(x, 2)), x)",
        "nguyen-2": "add(add(add(pow(x, 4), pow(x, 3)), pow(x, 2)), x)",
        "nguyen-3": "add(add(add(add(pow(x, 5), pow(x, 4)), pow(x, 3)), "
                    "pow(x, 2)), x)",
        "nguyen-4": "add(add(add(add(add(pow(x, 6), pow(x, 5)), pow(x, 4)), "
                    "pow(x, 3)), pow(x, 2)), x)",
        "nguyen-5": "sub(mul(sin(pow(x, 2)), cos(x)), 1)",
        "nguyen-6": "add(sin(x), sin(add(x, pow(x, 2))))",
        "nguyen-7": "add(log(add(x, 1)), log(add(pow(x, 2), 1)))",
        "nguyen-8": "sqrt(x)",
        "nguyen-9": "add(sin(x), sin(pow(y, 2)))",
        "nguyen-10": "mul(mul(2, sin(x)), cos(y))",
        "nguyen-11": "pow(x, y)",
        "nguyen-12": "sub(add(sub(pow(x, 4), pow(x, 3)), "
                     "mul(div(1, 2), pow(y, 2))), y)",
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_builtin_target_is_pinned(self, name):
        spec = builtin_benchmarks()[name]
        assert repr(spec.target_tree()) == self.PINNED[name]

    @pytest.mark.parametrize("expression, variables", [
        ("x_1^2 + x_1", ["x_1"]), (r"\mathrm{x1}^2 + \mathrm{x1}", ["x1"])])
    def test_spec_variable_with_a_digit(self, expression, variables):
        spec = BenchmarkSpec(name="t", expression=expression,
                             variables=variables,
                             library_tokens=["add", "mul", *variables])
        assert repr(spec.target_tree()) == f"add(pow({variables[0]}, 2), " \
                                           f"{variables[0]})"

    def test_spec_variable_x1_reads_as_a_product(self):
        # LaTeX's x1 is x times 1, so the target reads x, not x1
        with pytest.raises(dsr.DsrError, match="undeclared variable 'x'"):
            BenchmarkSpec(name="t", expression="x1^2 + x1", variables=["x1"],
                          library_tokens=["add", "mul", "x1"])

    @pytest.mark.parametrize("expression", [r"\int x dx", r"x + \infty"])
    def test_target_must_be_one_supported_expression(self, expression):
        # a relation is tested through sr --spec in test_cli
        with pytest.raises(dsr.DsrError, match="does not parse"):
            BenchmarkSpec(name="t", expression=expression, variables=["x"],
                          library_tokens=["add", "x"])

    def test_recovered_exact_match(self):
        spec = builtin_benchmarks()["nguyen-1"]
        assert recovered(spec.target_tree(), spec)

    def test_recovered_numeric_fallback(self):
        spec = builtin_benchmarks()["nguyen-1"]
        # x*x*x + x*x + x: same function, different structure
        cand = parse_latex(r"x \cdot x \cdot x + x \cdot x + x").trees[0]
        assert recovered(cand, spec)

    def test_recovered_rejects_near_miss(self):
        spec = builtin_benchmarks()["nguyen-1"]
        cand = parse_latex(r"x \cdot x \cdot x + x \cdot x").trees[0]
        assert not recovered(cand, spec)

    def test_two_variable_grid(self):
        spec = builtin_benchmarks()["nguyen-9"]
        cand = parse_latex(r"\sin(x) + \sin(y y)").trees[0]
        assert recovered(cand, spec, grid_points=50)

    def test_three_variables_vary_independently(self):
        # on the diagonal x = y = z, x^3 equals x y z
        spec = BenchmarkSpec(name="xyz", expression="x y z",
                             variables=["x", "y", "z"],
                             library_tokens=["mul", "x", "y", "z"])
        assert not recovered(parse_latex("x^3").trees[0], spec)
        assert recovered(parse_latex("z y x").trees[0], spec)

    def test_run_benchmark_minimal(self):
        spec = builtin_benchmarks()["nguyen-1"]
        config = SRConfig(library=spec.library(), max_steps=1, batch_size=30)
        (m,) = dsr.run_benchmark(spec, config, n_runs=1)
        assert m.steps_to_solve == 1 or m.recovered
        assert 0.0 <= m.invalid_fraction <= 1.0
        assert isinstance(m.best_expression, str) and m.best_expression

    def test_run_benchmark_validation(self):
        spec = builtin_benchmarks()["nguyen-1"]
        config = SRConfig(library=spec.library())
        with pytest.raises(ValueError):
            dsr.run_benchmark(spec, config, n_runs=0)


class TestParallelRuns:
    """``run_benchmark(..., jobs)``; never more than 2 workers here."""

    def test_same_metrics_at_any_jobs(self):
        spec = builtin_benchmarks()["nguyen-5"]
        config = SRConfig(library=spec.library(), max_steps=3, batch_size=40)
        model = mlm.init(spec.library(), 4, 4, seed=0)
        for prior in (None, model):
            serial = dsr.run_benchmark(spec, config, 3, mlm_model=prior,
                                       base_seed=5)
            assert dsr.run_benchmark(spec, config, 3, mlm_model=prior,
                                     base_seed=5, jobs=2) == serial
            assert multiprocessing.active_children() == []

    def test_one_run_starts_no_pool(self, monkeypatch):
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            no_pool)
        spec = builtin_benchmarks()["nguyen-1"]
        config = SRConfig(library=spec.library(), max_steps=1, batch_size=30)
        (m,) = dsr.run_benchmark(spec, config, n_runs=1, jobs=2)
        assert m.seed == 0

    def test_worker_error_keeps_its_type_and_ends_the_pool(self):
        # log(x) has no value on the negative half of [-1, 1]
        spec = BenchmarkSpec(name="t", expression=r"\log(x)", variables=["x"],
                             library_tokens=["add", "log", "x"])
        config = SRConfig(library=spec.library(), max_steps=1, batch_size=30)
        with pytest.raises(dsr.DsrError, match="invalid on sampled points"):
            dsr.run_benchmark(spec, config, n_runs=2, jobs=2)
        assert multiprocessing.active_children() == []


class TestMetricsCsv:
    def test_roundtrip_and_summary(self, tmp_path):
        metrics = [
            dsr.RunMetrics(True, 12, 0.25, "(x + 1)", seed=0),
            dsr.RunMetrics(False, 2000, 0.5, "x", seed=1),
        ]
        rows = dsr.metrics_rows("nguyen-1", metrics, lam=0.5, with_mlm=False)
        path = tmp_path / "m.csv"
        dsr.write_metrics_csv(path, rows)
        import csv

        with open(path, newline="") as f:
            reader = csv.reader(f)
            assert next(reader) == dsr.CSV_HEADER
            read_rows = list(reader)
        assert len(read_rows) == 2
        assert read_rows[0][0] == "nguyen-1"
        s = dsr.summarize(metrics)
        assert s["recovery_rate"] == 0.5
        assert s["mean_steps"] == (12 + 2000) / 2
        assert abs(s["mean_invalid"] - 0.375) < 1e-12
