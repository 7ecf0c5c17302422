import copy
import math

import numpy as np
import pytest

from mathcorpus import dsr, mlm
from mathcorpus.dsr import (
    BenchmarkSpec,
    ConstraintSet,
    Controller,
    DegenerateTarget,
    Infeasible,
    SRConfig,
    builtin_benchmarks,
    combine_and_sample,
    constraint_logits,
    parent_sibling,
    recovered,
    reward,
    sample_batch,
    sample_expression,
    train_step,
)
from mathcorpus.expr_core import (
    CONSTANT,
    OPS,
    Library,
    OPERATOR,
    Token,
    Traversal,
    VARIABLE,
    default_library,
    is_complete,
    traversal_to_tree,
)
from mathcorpus.latex_parser import parse_plain
from mathcorpus.recurrent import Adam, softmax

NEG_INF = float("-inf")


@pytest.fixture
def slib():
    return default_library(n_vars=1, name="search1")


def cfg(lib, **kw):
    kw.setdefault("batch_size", 16)
    kw.setdefault("max_steps", 5)
    return SRConfig(library=lib, **kw)


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
        mask = constraint_logits(ConstraintSet(), slib, Traversal(prefix),
                                 min_length=4, max_length=10)
        for i, tok in enumerate(slib):
            if tok.arity >= 1:
                assert mask[i] == NEG_INF, tok.name
            else:
                assert mask[i] == 0.0, tok.name

    def test_nested_trig_masked(self, slib):
        mask = constraint_logits(ConstraintSet(), slib,
                                 Traversal([slib.index_of("sin")]))
        for name in ("sin", "cos", "tan"):
            assert mask[slib.index_of(name)] == NEG_INF
        assert mask[slib.index_of("exp")] == 0.0

    def test_trig_released_after_subtree_closes(self, slib):
        add, sin, x = (slib.index_of(n) for n in ("add", "sin", "x1"))
        mask = constraint_logits(ConstraintSet(), slib,
                                 Traversal([add, sin, x]))
        assert mask[sin] == 0.0  # the sin subtree is finished

    def test_min_length_masks_terminals(self, slib):
        mask = constraint_logits(ConstraintSet(), slib, Traversal([]),
                                 min_length=4, max_length=30)
        # brute-force justification: any terminal here gives length 1 < 4
        for i, tok in enumerate(slib):
            if tok.arity == 0:
                assert mask[i] == NEG_INF, tok.name
            else:
                assert mask[i] == 0.0, tok.name

    def test_inverse_pairs(self, slib):
        mask = constraint_logits(ConstraintSet(), slib,
                                 Traversal([slib.index_of("log")]))
        assert mask[slib.index_of("exp")] == NEG_INF
        assert mask[slib.index_of("log")] == 0.0
        mask = constraint_logits(ConstraintSet(), slib,
                                 Traversal([slib.index_of("exp")]))
        assert mask[slib.index_of("log")] == NEG_INF

    def test_rules_switch_off(self, slib):
        cs = ConstraintSet(no_nested_trig=False)
        mask = constraint_logits(cs, slib, Traversal([slib.index_of("sin")]))
        assert mask[slib.index_of("sin")] == 0.0

    def test_infeasible_configuration(self):
        lib = Library([Token("sin", 1, OPERATOR), Token("x", 0, VARIABLE)],
                      name="t")
        with pytest.raises(Infeasible):
            # one open slot, min_length 4: terminal masked; sin masked by the
            # nested-trig rule -> nothing left
            constraint_logits(ConstraintSet(), lib,
                              Traversal([lib.index_of("sin")]),
                              min_length=4, max_length=30)


class TestCombineAndSample:
    def test_lambda_zero_matches_no_mlm(self, rng):
        V = 7
        l_dsr = rng.normal(size=V)
        l_mlm = rng.normal(size=V) * 10
        l_mask = np.zeros(V)
        a = combine_and_sample(l_dsr, l_mlm, l_mask, 0.0,
                               np.random.default_rng(5))
        b = combine_and_sample(l_dsr, np.zeros(V), l_mask, 0.7,
                               np.random.default_rng(5))
        assert a == b

    def test_masked_token_never_sampled(self, rng):
        V = 5
        l_mask = np.zeros(V)
        l_mask[2] = NEG_INF
        l_dsr = np.zeros(V)
        l_dsr[2] = 100.0  # huge logit, still must be unreachable
        g = np.random.default_rng(123)
        draws = [combine_and_sample(l_dsr, np.zeros(V), l_mask, 0.0, g)
                 for _ in range(100_000)]
        assert 2 not in set(draws)

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
        config = cfg(slib, seed=0)
        controller = Controller(slib, config.hidden_size, seed=0)
        rng = np.random.default_rng(0)
        travs = sample_batch(controller, None, ConstraintSet(), config, rng,
                             batch_size=500)
        for t in travs:
            assert is_complete(t, slib)
            assert config.min_length <= len(t) <= config.max_length

    def test_single_terminal_library(self):
        lib = Library([Token("x", 0, VARIABLE)], name="only-x")
        config = SRConfig(library=lib, min_length=1, max_length=5)
        controller = Controller(lib, 8, seed=0)
        trav = sample_expression(controller, None, ConstraintSet(), config,
                                 np.random.default_rng(0))
        assert list(trav) == [0]

    def test_deterministic_given_rng(self, slib):
        config = cfg(slib)
        controller = Controller(slib, config.hidden_size, seed=1)
        a = sample_batch(controller, None, ConstraintSet(), config,
                         np.random.default_rng(7), batch_size=20)
        b = sample_batch(controller, None, ConstraintSet(), config,
                         np.random.default_rng(7), batch_size=20)
        assert [t.seq for t in a] == [t.seq for t in b]


def _open_at(prefix, i, lib):
    """Whether the subtree rooted at prefix[i] is still open."""
    slots = 1
    for idx in prefix[i:]:
        slots += lib[idx].arity - 1
        if slots == 0:
            return False
    return True


def reference_sample_batch(controller, mlm_model, cs, config, rng, B):
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
                prev[b] = next(t for t in (sibling, parent, bos)
                               if t is not None)
            par.append(-1 if parent is None else parent)
            x[b, V if parent is None else parent] = 1.0
            x[b, V + 1 + (V if sibling is None else sibling)] = 1.0
        masks = cs.mask_batch(lib, np.array(n), np.array(d), np.array(tr),
                              np.array(par), config.min_length,
                              config.max_length)
        logits, h, _ = controller.step_batch(x, h)
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
        config = cfg(lib, lam=0.5 if with_mlm else 0.0)
        controller = Controller(lib, config.hidden_size, seed=2)
        controller.W_out += np.random.default_rng(3).normal(
            size=controller.W_out.shape)
        model = None
        if with_mlm:
            model = mlm.init(lib, 4, 8, seed=0)
            model.W_out += np.random.default_rng(4).normal(
                size=model.W_out.shape)
        cs = ConstraintSet()
        got = sample_batch(controller, model, cs, config,
                           np.random.default_rng(5), batch_size=64)
        want = reference_sample_batch(controller, model, cs, config,
                                      np.random.default_rng(5), 64)
        assert [t.seq for t in got] == want


class TestReward:
    def test_tokens_and_tree_agree(self, slib, rng):
        from conftest import random_tree

        X = {"x1": np.linspace(-1, 1, 20)}
        y = X["x1"] ** 2 + X["x1"]
        for _ in range(200):
            tree = random_tree(slib, rng, max_depth=6)
            tokens = [n.root for n in tree.iter_nodes()]
            assert reward(tokens, X, y) == reward(tree, X, y)

    def test_exact_target_reward_one(self, slib):
        tree = parse_plain("x1^2 + x1", slib)
        X = {"x1": np.linspace(-1, 1, 20)}
        y = X["x1"] ** 2 + X["x1"]
        r, invalid = reward(tree, X, y)
        assert r == 1.0 and not invalid

    def test_invalid_expression(self, slib):
        tree = parse_plain("log(x1)", slib)
        X = {"x1": np.linspace(-1, 1, 20)}
        r, invalid = reward(tree, X, X["x1"])
        assert r == 0.0 and invalid

    def test_constant_predictor_half(self, slib):
        X = {"x1": np.linspace(-1, 1, 21)}
        y = X["x1"] ** 3
        mean_tree = parse_plain("0", slib)  # mean(y) is 0 on symmetric grid
        r, invalid = reward(mean_tree, X, y)
        assert not invalid
        assert math.isclose(r, 0.5, rel_tol=1e-12)

    def test_bounds(self, slib, rng):
        X = {"x1": rng.uniform(-1, 1, 20)}
        y = X["x1"] ** 2
        for expr in ("x1", "x1*3", "sin(x1)", "exp(exp(exp(x1*30)))"):
            r, _ = reward(parse_plain(expr, slib), X, y)
            assert 0.0 <= r <= 1.0

    def test_degenerate_target(self, slib):
        tree = parse_plain("x1", slib)
        with pytest.raises(DegenerateTarget):
            reward(tree, {"x1": np.ones(5)}, np.ones(5))


class TestTrainStep:
    def _batch(self, controller, config, rng, X, y):
        travs = sample_batch(controller, None, ConstraintSet(), config, rng,
                             batch_size=config.batch_size)
        out = []
        for t in travs:
            r, _ = reward(traversal_to_tree(t, config.library), X, y)
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
        config = cfg(slib, entropy_weight=0.005)
        controller = Controller(slib, 6, seed=3)
        rng = np.random.default_rng(0)
        controller.W_out += rng.uniform(-0.3, 0.3, controller.W_out.shape)
        controller.b_out += rng.uniform(-0.3, 0.3, controller.b_out.shape)
        travs = sample_batch(controller, None, ConstraintSet(), config,
                             np.random.default_rng(1), batch_size=3)
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
            travs = sample_batch(controller, model, ConstraintSet(), config,
                                 rng, batch_size=config.batch_size)
            batch = [(t, reward(traversal_to_tree(t, slib), X, y)[0])
                     for t in travs]
            train_step(controller, batch, config, opt, mlm_model=model)
        assert model.equal(snapshot)

    def test_replay_uses_the_sampling_constraint_set(self):
        # add(exp(log(x)), x) is legal only without the inverse-pair rule
        lib = builtin_benchmarks()["nguyen-7"].library()
        config = SRConfig(library=lib)
        controller = Controller(lib, config.hidden_size, seed=0)
        trav = Traversal([lib.index_of(n)
                          for n in ("add", "exp", "log", "x", "x")])
        cs = ConstraintSet(no_inverse_pairs=False)
        J, grads = dsr.objective_and_gradients(controller, [trav], [0.5],
                                               config, cs=cs)
        assert math.isfinite(J)
        assert all(np.isfinite(g).all() for g in grads.values())
        # the default set masks the sampled token, so its log-prob is -inf
        J, _ = dsr.objective_and_gradients(controller, [trav], [0.5], config)
        assert J == NEG_INF
        other = Traversal([lib.index_of(n) for n in ("add", "x", "x")])
        batch = [(trav, 1.0)] + [(other, 0.0)] * 19
        J = train_step(controller, batch, config, Adam(0.001), cs=cs)
        assert math.isfinite(J)

    def test_empty_batch(self, slib):
        config = cfg(slib)
        controller = Controller(slib, config.hidden_size, seed=0)
        with pytest.raises(ValueError):
            train_step(controller, [], config, Adam(0.001))


class TestLambdaZeroEquivalence:
    def test_bit_identical_trajectories(self, slib):
        config = cfg(slib, lam=0.0, batch_size=10, max_steps=10)
        model = mlm.init(slib, 6, 8, seed=9)
        cs = ConstraintSet()

        def run(with_model):
            controller = Controller(slib, config.hidden_size, seed=0)
            opt = Adam(config.learning_rate)
            rng = np.random.default_rng(0)
            X = {"x1": np.linspace(-1, 1, 20)}
            y = X["x1"] ** 3 + X["x1"]
            trajectory = []
            for _ in range(config.max_steps):
                travs = sample_batch(controller,
                                     model if with_model else None, cs,
                                     config, rng)
                trajectory.extend(t.seq for t in travs)
                batch = [(t, reward(traversal_to_tree(t, slib), X, y)[0])
                         for t in travs]
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
        with pytest.raises(ValueError):
            dsr.run_benchmark(spec, config, n_runs=1, with_mlm=True)


class TestMetricsCsv:
    def test_roundtrip_and_summary(self, tmp_path):
        metrics = [
            dsr.RunMetrics(True, 12, 0.25, "(x + 1)", 1.0, seed=0),
            dsr.RunMetrics(False, 2000, 0.5, "x", 0.7, seed=1),
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
