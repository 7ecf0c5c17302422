import copy
import math
import multiprocessing

import numpy as np
import pytest

from mathcorpus import dsr, mlm
from mathcorpus.dsr import (
    BenchmarkSpec,
    Controller,
    DegenerateTarget,
    Infeasible,
    SRConfig,
    builtin_benchmarks,
    constraint_logits,
    parent_sibling,
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
from mathcorpus.latex_parser import parse_plain
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
        with pytest.raises(ValueError):
            SRConfig(library=slib, risk_fraction=0.0)
        with pytest.raises(ValueError):
            SRConfig(library=slib, min_length=10, max_length=5)


class TestParentSibling:
    def test_empty_prefix(self, slib):
        assert parent_sibling(Traversal([]), slib) == (None, None)

    def test_unary_child_slot(self, slib):
        mul, sin = slib.index_of("mul"), slib.index_of("sin")
        p, s = parent_sibling(Traversal([mul, sin]), slib)
        assert (p, s) == (sin, None)

    def test_completed_first_child(self, slib):
        mul, sin, x = (slib.index_of(n) for n in ("mul", "sin", "x1"))
        p, s = parent_sibling(Traversal([mul, sin, x]), slib)
        assert (p, s) == (mul, sin)

    def test_complete_traversal_rejected(self, slib):
        x = slib.index_of("x1")
        with pytest.raises(dsr.CompleteTraversal):
            parent_sibling(Traversal([x]), slib)

    def test_agrees_with_tree_reconstruction(self, slib, rng):
        # cross-check: sample prefixes from random complete traversals, then
        # derive parent/sibling by replaying the pre-order slot filling
        from conftest import random_tree
        from mathcorpus.expr_core import tree_to_traversal

        for _ in range(100):
            tree = random_tree(slib, rng, max_depth=5)
            trav = list(tree_to_traversal(tree, slib))
            k = int(rng.integers(0, len(trav)))
            expect = naive_parent_sibling(trav[:k], slib)
            assert parent_sibling(Traversal(trav[:k]), slib) == expect


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


class TestConstraints:
    def test_max_length_masks_operators(self, slib):
        # a prefix one token short of max_length with one open slot
        sin, x = slib.index_of("sin"), slib.index_of("x1")
        prefix = [sin] * 9  # n=9, d=1
        mask = constraint_logits(slib, Traversal(prefix),
                                 min_length=4, max_length=10)
        for i, tok in enumerate(slib):
            if tok.arity >= 1:
                assert mask[i] == NEG_INF, tok.name
            else:
                assert mask[i] == 0.0, tok.name

    def test_nested_trig_masked(self, slib):
        mask = constraint_logits(slib, Traversal([slib.index_of("sin")]))
        for name in ("sin", "cos", "tan"):
            assert mask[slib.index_of(name)] == NEG_INF
        assert mask[slib.index_of("exp")] == 0.0

    def test_trig_released_after_subtree_closes(self, slib):
        add, sin, x = (slib.index_of(n) for n in ("add", "sin", "x1"))
        mask = constraint_logits(slib, Traversal([add, sin, x]))
        assert mask[sin] == 0.0  # the sin subtree is finished

    def test_min_length_masks_terminals(self, slib):
        mask = constraint_logits(slib, Traversal([]),
                                 min_length=4, max_length=30)
        # brute-force justification: any terminal here gives length 1 < 4
        for i, tok in enumerate(slib):
            if tok.arity == 0:
                assert mask[i] == NEG_INF, tok.name
            else:
                assert mask[i] == 0.0, tok.name

    def test_inverse_pairs(self, slib):
        mask = constraint_logits(slib, Traversal([slib.index_of("log")]))
        assert mask[slib.index_of("exp")] == NEG_INF
        assert mask[slib.index_of("log")] == 0.0
        mask = constraint_logits(slib, Traversal([slib.index_of("exp")]))
        assert mask[slib.index_of("log")] == NEG_INF

    def test_infeasible_configuration(self):
        lib = Library([Token("sin", 1, OPERATOR), Token("x", 0, VARIABLE)],
                      name="t")
        with pytest.raises(Infeasible):
            # one open slot, min_length 4: terminal masked; sin masked by the
            # nested-trig rule -> nothing left
            constraint_logits(lib, Traversal([lib.index_of("sin")]),
                              min_length=4, max_length=30)


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
        controller = Controller(slib, config.hidden_size, seed=0)
        rng = np.random.default_rng(0)
        travs = sample_batch(controller, None, config, rng)
        for t in travs:
            assert is_complete(t, slib)
            assert config.min_length <= len(t) <= config.max_length

    def test_single_terminal_library(self):
        lib = Library([Token("x", 0, VARIABLE)], name="only-x")
        config = SRConfig(library=lib, batch_size=1, min_length=1,
                          max_length=5)
        controller = Controller(lib, 8, seed=0)
        (trav,) = sample_batch(controller, None, config,
                               np.random.default_rng(0))
        assert list(trav) == [0]

    def test_deterministic_given_rng(self, slib):
        config = cfg(slib, batch_size=20)
        controller = Controller(slib, config.hidden_size, seed=1)
        a = sample_batch(controller, None, config, np.random.default_rng(7))
        b = sample_batch(controller, None, config, np.random.default_rng(7))
        assert [t.seq for t in a] == [t.seq for t in b]


def _open_at(prefix, i, lib):
    """Whether the subtree rooted at prefix[i] is still open."""
    slots = 1
    for idx in prefix[i:]:
        slots += lib[idx].arity - 1
        if slots == 0:
            return False
    return True


def reference_sample_batch(controller, mlm_model, config, rng, B):
    """sample_batch with the bookkeeping redone per row from the prefix:
    naive_parent_sibling, and explicit length, open-slot and trig counts.
    The recurrent steps still run on the whole batch, as in sample_batch."""
    lib = config.library
    V = len(lib)
    trig = [t.name in OPS and OPS[t.name].trig for t in lib]
    bos = mlm_model.bos if mlm_model is not None else 0
    seqs = [[] for _ in range(B)]
    done = [False] * B
    prev = [bos] * B
    h = controller.initial_state(B)
    h_mlm = mlm_model.initial_state(B) if mlm_model is not None else None
    for _ in range(config.max_length):
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
                tr.append(sum(trig[idx] for i, idx in enumerate(seq)
                              if lib[idx].arity and _open_at(seq, i, lib)))
                prev[b] = seq[-1] if seq else bos
            par.append(-1 if parent is None else parent)
            x[b, V if parent is None else parent] = 1.0
            x[b, V + 1 + (V if sibling is None else sibling)] = 1.0
        masks = dsr._SlotState(lib, 0, 0).mask(
            np.array(n), np.array(d), np.array(tr), np.array(par),
            config.min_length, config.max_length)
        logits, h, _ = controller.forward(x, h)
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


class TestSampleBatchOracle:
    @pytest.mark.parametrize("library", ["search1", "nguyen-5"])
    @pytest.mark.parametrize("with_mlm", [False, True])
    def test_matches_per_row_reference(self, library, with_mlm):
        if library == "search1":
            lib = default_library(n_vars=1, name=library)
        else:
            lib = builtin_benchmarks()[library].library()
        config = cfg(lib, lam=0.5 if with_mlm else 0.0, batch_size=64)
        controller = Controller(lib, config.hidden_size, seed=2)
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



# The training replay as it stood before sampling and training shared one
# policy step, verbatim apart from the names and the language-model input,
# now the previous token; it recomputes parent, sibling, constraint mask and
# language-model input in a loop of its own.
_SlotState = dsr._SlotState


def reference_objective_and_gradients(controller, traversals, advantages,
                                      config, mlm_model=None):
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
    mlm_inputs = np.full((T, k), mlm_model.bos if mlm_model is not None else 0,
                         dtype=np.int64)
    st = _SlotState(lib, k, T)
    for t in range(T):
        rows = np.flatnonzero(lengths > t)
        parent, sibling = st.parent_sibling(rows)
        xs[t, rows] = controller.input_batch(parent, sibling)
        masks[t, rows] = st.mask(st.n[rows], st.open[rows], st.trig[rows],
                                 parent, config.min_length, config.max_length)
        if mlm_model is not None and t:
            mlm_inputs[t, rows] = seqs[rows, t - 1]
        st.push(rows, seqs[rows, t])

    # forward, with each step's share of J and its logit gradients
    adv = np.asarray(advantages, dtype=float)
    w_ent = config.entropy_weight
    h = controller.initial_state(k)
    h_mlm = mlm_model.initial_state(k) if mlm_model is not None else None
    J = 0.0
    steps = []
    for t in range(T):
        l_dsr, h, cache = controller.forward(xs[t], h)
        if mlm_model is not None:
            l_mlm, h_mlm = mlm_model.step_batch(mlm_inputs[t], h_mlm)
            combined = l_dsr + config.lam * l_mlm + masks[t]
        else:
            combined = l_dsr + masks[t]
        p = softmax(combined, axis=1)
        lp = log_softmax(combined, axis=1)
        sel = lp[np.arange(k), targets[t]]
        J += float(np.sum(adv * sel * step_mask[t])) / k
        onehot = np.zeros_like(p)
        onehot[np.arange(k), targets[t]] = 1.0
        dlogits = (adv * step_mask[t])[:, None] * (onehot - p) / k
        if w_ent:
            safe_lp = np.where(p > 0, lp, 0.0)
            H = -(p * safe_lp).sum(axis=1)
            J += w_ent * float(np.sum(H * step_mask[t])) / k
            dH = -p * (safe_lp + H[:, None])
            dlogits += w_ent * step_mask[t][:, None] * dH / k
        steps.append((h, dlogits, cache))

    grads = controller.zero_grads()
    controller.backward(steps, grads)
    return J, grads


def perturbed_models(lib, config, with_mlm):
    """A controller, and a prior when ``with_mlm``, with random read-outs,
    so that sampled batches are varied."""
    rng = np.random.default_rng(11)
    controller = Controller(lib, config.hidden_size, seed=2)
    controller.W_out += rng.normal(size=controller.W_out.shape)
    controller.b_out += rng.normal(size=controller.b_out.shape)
    model = None
    if with_mlm:
        model = mlm.init(lib, 4, 8, seed=0)
        model.W_out += rng.normal(size=model.W_out.shape)
        model.b_out += rng.normal(size=model.b_out.shape)
    return controller, model


class TestReplayOracle:
    def _check(self, controller, model, travs, config, seed):
        adv = np.random.default_rng(seed).normal(size=len(travs))
        J, grads = dsr.objective_and_gradients(controller, travs, adv, config,
                                               model)
        want_J, want = reference_objective_and_gradients(
            controller, travs, adv, config, model)
        assert math.isfinite(J) and J == want_J
        assert grads.keys() == want.keys()
        assert all(np.array_equal(grads[n], want[n]) for n in want)

    @pytest.mark.parametrize("with_mlm", [False, True])
    @pytest.mark.parametrize("entropy_weight", [0.0, SRConfig.entropy_weight])
    def test_matches_reference_on_sampled_batches(self, with_mlm,
                                                   entropy_weight):
        lib = builtin_benchmarks()["nguyen-5"].library()
        config = cfg(lib, lam=0.5 if with_mlm else 0.0,
                     entropy_weight=entropy_weight, batch_size=40)
        controller, model = perturbed_models(lib, config, with_mlm)
        rng = np.random.default_rng(5)
        for seed in range(3):
            travs = sample_batch(controller, model, config, rng)
            self._check(controller, model, travs, config, seed)

    @pytest.mark.parametrize("with_mlm", [False, True])
    def test_padding_token_masked_at_the_empty_prefix(self, with_mlm):
        # token 0 is the terminal x, which the length rule masks at the
        # empty prefix a finished row sees; the padded steps of the short
        # row must still add nothing
        lib = Library([Token("x", 0, VARIABLE), OPS["add"].token,
                       OPS["mul"].token, OPS["sin"].token])
        config = cfg(lib, lam=0.5 if with_mlm else 0.0, batch_size=20)
        assert constraint_logits(lib, Traversal([]))[0] == NEG_INF
        x, add, mul, sin = range(4)
        short = Traversal([add, x, sin, x])
        long = Traversal([add, x] * 14 + [sin, x])
        assert (len(short), len(long)) == (4, 30)
        controller, model = perturbed_models(lib, config, with_mlm)
        sampled = sample_batch(controller, model, config,
                               np.random.default_rng(6))
        self._check(controller, model, [short, long, *sampled], config, 7)


class TestPriorInput:
    def test_prior_share_is_the_mlm_sequence_score(self, slib):
        # traversals that close subtrees mid-sequence, where the previous
        # token is neither the next slot's parent nor its sibling
        model = mlm.init(slib, 4, 8, seed=0)
        rng = np.random.default_rng(3)
        model.W_out += rng.normal(size=model.W_out.shape)
        model.b_out += rng.normal(size=model.b_out.shape)
        seen = []
        step_batch = model.step_batch

        def recording(tokens, h):
            logits, h = step_batch(tokens, h)
            seen.append(logits)
            return logits, h

        model.step_batch = recording
        config = cfg(slib, lam=0.5)
        controller = Controller(slib, config.hidden_size, seed=0)
        for names in ("add mul x1 x1 x1", "mul add x1 x1 sin x1",
                      "add mul x1 x1 mul x1 x1", "sub add x1 exp x1 x1"):
            trav = [slib.index_of(n) for n in names.split()]
            seen.clear()
            policy = dsr._Policy(controller, model, config, 1, len(trav))
            for tok in trav:
                policy.step()
                policy.push(np.array([tok]), np.ones(1, dtype=bool))
            got = sum(float(log_softmax(logits[0])[tok])
                      for logits, tok in zip(seen, trav))
            assert abs(got - mlm.score(model, Traversal(trav))) < 1e-12


class TestReward:
    def test_exact_target_reward_one(self, slib):
        tree = parse_plain("x1^2 + x1", slib)
        X = {"x1": np.linspace(-1, 1, 20)}
        y = X["x1"] ** 2 + X["x1"]
        r, invalid = tree_reward(tree, X, y)
        assert r == 1.0 and not invalid

    def test_invalid_expression(self, slib):
        tree = parse_plain("log(x1)", slib)
        X = {"x1": np.linspace(-1, 1, 20)}
        r, invalid = tree_reward(tree, X, X["x1"])
        assert r == 0.0 and invalid

    def test_constant_predictor_half(self, slib):
        X = {"x1": np.linspace(-1, 1, 21)}
        y = X["x1"] ** 3
        mean_tree = parse_plain("0", slib)  # mean(y) is 0 on symmetric grid
        r, invalid = tree_reward(mean_tree, X, y)
        assert not invalid
        assert math.isclose(r, 0.5, rel_tol=1e-12)

    def test_bounds(self, slib, rng):
        X = {"x1": rng.uniform(-1, 1, 20)}
        y = X["x1"] ** 2
        for expr in ("x1", "x1*3", "sin(x1)", "exp(exp(exp(x1*30)))"):
            r, _ = tree_reward(parse_plain(expr, slib), X, y)
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
        controller, model = perturbed_models(lib, config, with_mlm)
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
        monkeypatch.setattr(dsr, "sample_batch", lambda *args: next(batches))
        metrics = dsr.run_search(spec, cfg(lib, max_steps=2), 0)
        assert metrics.best_expression == "(x + sin(x))"
        assert metrics.invalid_fraction == 0.25


class TestTrainStep:
    def _batch(self, controller, config, rng, X, y):
        travs = sample_batch(controller, None, config, rng)
        out = []
        for t in travs:
            r, _ = tree_reward(traversal_to_tree(t, config.library), X, y)
            out.append((t, r))
        return out

    def test_equal_rewards_zero_entropy_no_update(self, slib):
        config = cfg(slib, entropy_weight=0.0)
        controller = Controller(slib, config.hidden_size, seed=0)
        before = {k: v.copy() for k, v in controller.params().items()}
        batch = [(Traversal([slib.index_of("add"), slib.index_of("x1"),
                             slib.index_of("x1")]), 0.3)] * 8
        train_step(controller, batch, config, Adam(config.learning_rate))
        after = controller.params()
        assert all(np.array_equal(before[k], after[k]) for k in before)

    def test_gradient_check_finite_differences(self, slib):
        config = cfg(slib, entropy_weight=0.005, batch_size=3)
        controller = Controller(slib, 6, seed=3)
        rng = np.random.default_rng(0)
        controller.W_out += rng.uniform(-0.3, 0.3, controller.W_out.shape)
        controller.b_out += rng.uniform(-0.3, 0.3, controller.b_out.shape)
        travs = sample_batch(controller, None, config,
                             np.random.default_rng(1))
        advantages = [0.4, -0.2, 0.1]
        J, grads = dsr.objective_and_gradients(controller, travs, advantages,
                                               config)
        h = 1e-5
        worst = 0.0
        for name, p in controller.params().items():
            flat = p.reshape(-1)
            g = grads[name].reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                Jp, _ = dsr.objective_and_gradients(controller, travs,
                                                    advantages, config)
                flat[i] = orig - h
                Jm, _ = dsr.objective_and_gradients(controller, travs,
                                                    advantages, config)
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
        controller = Controller(slib, config.hidden_size, seed=0)
        model = mlm.init(slib, 6, 8, seed=0)
        snapshot = copy.deepcopy(model)
        opt = Adam(config.learning_rate)
        rng = np.random.default_rng(0)
        X = {"x1": np.linspace(-1, 1, 20)}
        y = X["x1"] ** 2
        for _ in range(100):
            travs = sample_batch(controller, model, config, rng)
            batch = [(t, tree_reward(traversal_to_tree(t, slib), X, y)[0])
                     for t in travs]
            train_step(controller, batch, config, opt, mlm_model=model)
        assert model.equal(snapshot)

    def test_replay_uses_the_sampling_constraint_set(self):
        # add(exp(log(x)), x) breaks the inverse-pair rule, so the replay
        # masks the token sampling could not have drawn: its log-prob is -inf
        lib = builtin_benchmarks()["nguyen-7"].library()
        config = SRConfig(library=lib)
        controller = Controller(lib, config.hidden_size, seed=0)
        trav = Traversal([lib.index_of(n)
                          for n in ("add", "exp", "log", "x", "x")])
        J, _ = dsr.objective_and_gradients(controller, [trav], [0.5], config)
        assert J == NEG_INF

    def test_empty_batch(self, slib):
        config = cfg(slib)
        controller = Controller(slib, config.hidden_size, seed=0)
        with pytest.raises(ValueError):
            train_step(controller, [], config, Adam(0.001))


class TestLambdaZeroEquivalence:
    def test_bit_identical_trajectories(self, slib):
        config = cfg(slib, lam=0.0, batch_size=10, max_steps=10)
        model = mlm.init(slib, 6, 8, seed=9)

        def run(with_model):
            controller = Controller(slib, config.hidden_size, seed=0)
            opt = Adam(config.learning_rate)
            rng = np.random.default_rng(0)
            X = {"x1": np.linspace(-1, 1, 20)}
            y = X["x1"] ** 3 + X["x1"]
            trajectory = []
            for _ in range(config.max_steps):
                travs = sample_batch(controller,
                                     model if with_model else None, config,
                                     rng)
                trajectory.extend(t.seq for t in travs)
                rewards, _ = dsr.batch_rewards(*dsr._padded(travs),
                                               slib.tokens, X, y,
                                               target_spread(y))
                batch = list(zip(travs, rewards))
                train_step(controller, batch, config, opt,
                           mlm_model=model if with_model else None)
            return trajectory

        assert run(True) == run(False)


class TestBenchmarksAndRecovery:
    def test_twelve_builtins_parse(self):
        specs = builtin_benchmarks()
        assert len(specs) == 12
        for spec in specs.values():
            lib = spec.library()
            tree = spec.target_tree(lib)
            assert tree.size() >= 1
            X, y = spec.dataset(np.random.default_rng(0))
            assert len(y) == spec.n_points

    def test_recovered_exact_match(self):
        spec = builtin_benchmarks()["nguyen-1"]
        lib = spec.library()
        assert recovered(spec.target_tree(lib), spec)

    def test_recovered_numeric_fallback(self):
        spec = builtin_benchmarks()["nguyen-1"]
        lib = spec.library()
        # x*x*x + x*x + x: same function, different structure
        cand = parse_plain("x*x*x + x*x + x", lib)
        assert recovered(cand, spec)

    def test_recovered_rejects_near_miss(self):
        spec = builtin_benchmarks()["nguyen-1"]
        lib = spec.library()
        assert not recovered(parse_plain("x*x*x + x*x", lib), spec)

    def test_two_variable_grid(self):
        spec = builtin_benchmarks()["nguyen-9"]
        lib = spec.library()
        cand = parse_plain("sin(x) + sin(y*y)", lib)
        assert recovered(cand, spec, grid_points=50)

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
        spec = BenchmarkSpec(name="t", expression="log(x)", variables=["x"],
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
