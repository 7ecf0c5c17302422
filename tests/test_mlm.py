import json
import math
import multiprocessing
import os
import signal
import struct
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from conftest import reference_gru_backward, reference_gru_step
from mathcorpus import mlm
from mathcorpus.expr_core import (
    CONSTANT,
    Library,
    OPERATOR,
    Token,
    Traversal,
    VARIABLE,
    default_library,
)
from mathcorpus.recurrent import GRUCell, MomentumSGD, log_softmax, softmax


def tiny5():
    # V = 5: matches the gradient-check model size
    return Library([
        Token("add", 2, OPERATOR),
        Token("sin", 1, OPERATOR),
        Token("x1", 0, VARIABLE),
        Token("x2", 0, VARIABLE),
        Token("1", 0, CONSTANT),
    ], name="tiny5")


def write_header(path, header):
    """A weight file of ``header`` alone, with no arrays after it; bytes
    are written as they are, after the magic."""
    if not isinstance(header, bytes):
        data = json.dumps(header).encode("utf-8")
        header = struct.pack("<I", len(data)) + data
    path.write_bytes(mlm.MAGIC + header)


def _header(**fields):
    return {"version": 1, "vocab": ["x1", "add"], "d_emb": 4, "H": 4,
            **fields}


# malformed headers, and what the FormatVersion error names
MALFORMED_HEADERS = [
    pytest.param(b"\x05", "unreadable header", id="cut-in-the-length"),
    pytest.param(struct.pack("<I", 2) + b"\xff\xfe", "unreadable header",
                 id="not-utf8"),
    pytest.param(struct.pack("<I", 3) + b"{x:", "unreadable header",
                 id="not-json"),
    pytest.param(["x1", "add"], "not a JSON object", id="list"),
    pytest.param(_header(vocab="x1"), "vocab", id="vocab-a-string"),
    pytest.param(_header(vocab=["x1", "x1"]), "vocab", id="vocab-repeated"),
    pytest.param(_header(vocab=["x1", ""]), "vocab", id="vocab-empty-name"),
    pytest.param(_header(vocab=["x1", 2]), "vocab", id="vocab-number"),
    pytest.param({k: v for k, v in _header().items() if k != "H"},
                 "H is not", id="H-missing"),
    pytest.param(_header(H="4"), "H is not", id="H-string"),
    pytest.param(_header(H=-1), "H is not", id="H-negative"),
    pytest.param(_header(H=True), "H is not", id="H-bool"),
    pytest.param({k: v for k, v in _header().items() if k != "d_emb"},
                 "d_emb is not", id="d_emb-missing"),
    pytest.param(_header(d_emb=2.5), "d_emb is not", id="d_emb-float"),
]


def random_seqs(lib, rng, n, max_len=8):
    from conftest import plain_traversal, random_tree

    out = []
    while len(out) < n:
        t = random_tree(lib, rng, max_depth=4)
        trav = plain_traversal(t, lib)
        if len(trav) <= max_len:
            out.append(list(trav))
    return out


class TestInit:
    def test_deterministic(self):
        lib = tiny5()
        assert mlm.init(lib, 6, 8, seed=3).equal(mlm.init(lib, 6, 8, seed=3))

    def test_seed_matters(self):
        lib = tiny5()
        assert not mlm.init(lib, 6, 8, seed=3).equal(mlm.init(lib, 6, 8, seed=4))

    def test_first_step_uniform(self):
        model = mlm.init(tiny5(), 6, 8, seed=0)
        logits, _ = model.step_batch([model.bos], model.initial_state())
        assert np.array_equal(logits[0], np.zeros(model.V))
        p = softmax(logits[0])
        assert np.allclose(p, 1.0 / model.V)

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            mlm.init(tiny5(), 0, 8, seed=0)


class TestStepAndScore:
    def test_step_is_pure(self):
        model = mlm.init(tiny5(), 6, 8, seed=1)
        state = model.initial_state()
        a1, s1 = model.step_batch([2], state)
        a2, s2 = model.step_batch([2], state)
        assert np.array_equal(a1, a2) and np.array_equal(s1, s2)
        assert not state.any()

    @pytest.mark.parametrize("bad", [-1, 6])  # V = 5, BOS = 5
    def test_index_outside_vocabulary_and_bos_is_typed(self, bad):
        model = mlm.init(tiny5(), 6, 8, seed=1)
        state = model.initial_state(3)
        with pytest.raises(mlm.MLMError, match=r"outside 0\.\.5"):
            model.step_batch([0, bad, model.bos], state)
        logits, _ = model.step_batch([0, 4, model.bos], state)
        assert logits.shape == (3, 5)

    def test_fresh_model_score_is_uniform(self):
        model = mlm.init(tiny5(), 6, 8, seed=2)
        seq = Traversal([0, 2, 4])
        assert math.isclose(mlm.score(model, seq), 3 * math.log(1.0 / 5),
                            rel_tol=1e-12)

    def test_score_chain_decomposition(self):
        model = mlm.init(tiny5(), 6, 8, seed=5)
        mlm.train(model, [[0, 2, 4], [1, 2]], epochs=3, lr=0.1, seed=0)
        state = model.initial_state()
        l0, state = model.step_batch([model.bos], state)
        l1, state = model.step_batch([0], state)
        manual = float(log_softmax(l0[0])[0] + log_softmax(l1[0])[2])
        assert math.isclose(mlm.score(model, Traversal([0, 2])), manual,
                            rel_tol=1e-12)

    def test_softmax_normalized_along_a_sequence(self):
        model = mlm.init(tiny5(), 6, 8, seed=7)
        mlm.train(model, [[0, 2, 4]], epochs=5, lr=0.2, seed=0)
        state = model.initial_state()
        prev = model.bos
        for tok in [0, 2, 4]:
            logits, state = model.step_batch([prev], state)
            assert abs(softmax(logits[0]).sum() - 1.0) < 1e-12
            prev = tok


def finite_difference_check(model, seqs, h=1e-5):
    """Worst relative error between analytic and central-difference grads."""
    loss, grads = mlm.loss_and_gradients(model, seqs)
    worst = 0.0
    params = model.params()
    for name, p in params.items():
        flat = p.reshape(-1)
        g = grads[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp, _ = mlm.loss_and_gradients(model, seqs)
            flat[i] = orig - h
            lm, _ = mlm.loss_and_gradients(model, seqs)
            flat[i] = orig
            fd = (lp - lm) / (2 * h)
            denom = max(abs(fd), abs(g[i]), 1e-6)
            worst = max(worst, abs(fd - g[i]) / denom)
    return worst


class TestGradients:
    def test_finite_differences_ten_seeds(self):
        lib = tiny5()
        start = time.monotonic()
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            model = mlm.init(lib, 6, 8, seed=seed)
            # nudge the zero output layer so its gradients are generic
            model.W_out += rng.uniform(-0.3, 0.3, model.W_out.shape)
            model.b_out += rng.uniform(-0.3, 0.3, model.b_out.shape)
            seqs = random_seqs(lib, rng, 3)
            assert finite_difference_check(model, seqs) < 1e-4
        assert time.monotonic() - start < 30.0

    def test_b_out_closed_form(self):
        # d loss / d b_out = sum over unmasked steps of (p - onehot) / n
        lib = tiny5()
        model = mlm.init(lib, 6, 8, seed=0)
        rng = np.random.default_rng(0)
        model.W_out += rng.uniform(-0.3, 0.3, model.W_out.shape)
        seqs = [[0, 2, 4]]
        _, grads = mlm.loss_and_gradients(model, seqs)
        expected = np.zeros(model.V)
        state = model.initial_state()
        prev = model.bos
        for tok in seqs[0]:
            logits, state = model.step_batch([prev], state)
            p = softmax(logits[0])
            p[tok] -= 1.0
            expected += p / len(seqs[0])
            prev = tok
        assert np.allclose(grads["b_out"], expected, atol=1e-12)

    def test_empty_batch(self):
        model = mlm.init(tiny5(), 6, 8, seed=0)
        with pytest.raises(mlm.EmptyCorpus):
            mlm.loss_and_gradients(model, [])


def padded_loss_and_gradients(model, seqs):
    """Reference: every row runs to the longest length in the batch, one
    step at a time, and a mask takes the padded slots out of the loss and
    the gradients."""
    B = len(seqs)
    T = max(len(s) for s in seqs)
    inputs = np.full((T, B), model.bos, dtype=np.int64)
    targets = np.zeros((T, B), dtype=np.int64)
    mask = np.zeros((T, B))
    for b, s in enumerate(seqs):
        for t, idx in enumerate(s):
            if t > 0:
                inputs[t, b] = s[t - 1]
            targets[t, b] = idx
            mask[t, b] = 1.0
    n_tokens = mask.sum()
    state = model.initial_state(B)
    caches, hs, probs = [], [], []
    loss = 0.0
    for t in range(T):
        h, cache = reference_gru_step(model.cell, model.E[inputs[t]], state)
        logits = h @ model.W_out + model.b_out
        loss -= (log_softmax(logits)[np.arange(B), targets[t]] * mask[t]).sum()
        caches.append(cache)
        hs.append(h)
        probs.append(softmax(logits))
        state = h
    loss /= n_tokens

    grads = model.zero_grads()
    cell_grads = {k[len("cell."):]: v for k, v in grads.items()
                  if k.startswith("cell.")}
    dh_next = np.zeros((B, model.hidden))
    for t in range(T - 1, -1, -1):
        dlogits = probs[t].copy()
        dlogits[np.arange(B), targets[t]] -= 1.0
        dlogits *= mask[t][:, None] / n_tokens
        grads["W_out"] += hs[t].T @ dlogits
        grads["b_out"] += dlogits.sum(axis=0)
        dh = dlogits @ model.W_out.T + dh_next
        dx, dh_next = reference_gru_backward(model.cell, dh, caches[t],
                                             cell_grads)
        np.add.at(grads["E"], inputs[t], dx)
    return float(loss), grads


def nudged_model(d_emb, hidden, seed):
    # a random output layer, so that every gradient is generic
    model = mlm.init(tiny5(), d_emb, hidden, seed=seed)
    rng = np.random.default_rng(seed)
    model.W_out += rng.uniform(-0.3, 0.3, model.W_out.shape)
    model.b_out += rng.uniform(-0.3, 0.3, model.b_out.shape)
    return model


def oracle_batches():
    rng = np.random.default_rng(17)
    mixed = random_seqs(tiny5(), rng, 12) + [[2], [4]]
    return {
        "mixed": mixed,
        "one_row": [[0, 1, 2, 4, 3]],
        "equal_lengths": [[0, 2, 4], [1, 1, 3], [0, 4, 4], [1, 0, 2]],
        "shortest_first": sorted(mixed, key=len),
        # the longest row alone for its last five steps
        "one_row_tail": [[0, 1, 0, 1, 2, 3, 4, 2], [0, 2, 4], [1, 3], [2]],
    }


def assert_rel_close(got, want, tol=1e-12):
    scale = max(np.max(np.abs(want)), np.finfo(float).tiny)
    assert np.max(np.abs(np.asarray(got) - want)) <= tol * scale


class TestPackedMatchesPadded:
    """The length-sorted packed batch against the padded reference."""

    @pytest.mark.parametrize("d_emb,hidden", [(6, 8), (16, 32), (64, 256)])
    @pytest.mark.parametrize("case", sorted(oracle_batches()))
    def test_loss_and_gradients(self, d_emb, hidden, case):
        seqs = oracle_batches()[case]
        model = nudged_model(d_emb, hidden, seed=hidden + len(case))
        loss, grads = mlm.loss_and_gradients(model, seqs)
        want_loss, want_grads = padded_loss_and_gradients(model, seqs)
        assert math.isclose(loss, want_loss, rel_tol=1e-12)
        assert grads.keys() == want_grads.keys()
        for name, want in want_grads.items():
            assert_rel_close(grads[name], want)

    def test_corpus_loss_across_batch_boundary(self):
        seqs = random_seqs(tiny5(), np.random.default_rng(23), 300)
        model = nudged_model(6, 8, seed=5)
        total, tokens = 0.0, 0
        for chunk in (seqs[:256], seqs[256:]):
            n = sum(len(s) for s in chunk)
            total += padded_loss_and_gradients(model, chunk)[0] * n
            tokens += n
        assert math.isclose(mlm.corpus_loss(model, seqs), total / tokens,
                            rel_tol=1e-12)

    def test_score_is_stepwise_log_probability(self):
        model = nudged_model(6, 8, seed=3)
        for seq in random_seqs(tiny5(), np.random.default_rng(29), 20):
            state, prev, total = model.initial_state(), model.bos, 0.0
            for idx in seq:
                logits, state = model.step_batch([prev], state)
                total += log_softmax(logits[0])[idx]
                prev = idx
            assert mlm.score(model, Traversal(seq)) == total
        empty = mlm.score(model, Traversal([]))
        assert empty == 0.0 and math.copysign(1.0, empty) == 1.0


def use_cpus(monkeypatch, n):
    """``n`` usable CPUs, as ``taskset`` would leave."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def capture_updates(monkeypatch):
    """The gradients of each ``MomentumSGD.update``, copied, in order."""
    applied = []
    update = MomentumSGD.update

    def capturing(opt, params, grads):
        applied.append({k: g.copy() for k, g in grads.items()})
        return update(opt, params, grads)

    monkeypatch.setattr(MomentumSGD, "update", capturing)
    return applied


class TestShardedBatch:
    """``train`` sums the gradients of two shards of alternate rows, the
    second in a forked worker when two CPUs are usable."""

    @pytest.mark.parametrize("n_cpus", [1, 2])
    @pytest.mark.parametrize("case", sorted(oracle_batches()))
    def test_update_gets_the_whole_batch_gradient(self, monkeypatch, n_cpus,
                                                  case):
        seqs = oracle_batches()[case]  # one_row leaves the second shard empty
        model = nudged_model(6, 8, seed=len(case))
        want_loss, want_grads = mlm.loss_and_gradients(model, seqs)
        use_cpus(monkeypatch, n_cpus)
        applied = capture_updates(monkeypatch)
        history = mlm.train(model, seqs, epochs=1, lr=0.01, batch=len(seqs))
        (grads,) = applied
        assert math.isclose(history[1], want_loss, rel_tol=1e-12)
        assert grads.keys() == want_grads.keys()
        for name, want in want_grads.items():
            assert_rel_close(grads[name], want)

    def test_same_gradients_and_weights_at_1_and_2_cpus(self, monkeypatch):
        seqs = random_seqs(tiny5(), np.random.default_rng(37), 100)
        applied = capture_updates(monkeypatch)
        runs = []
        for n_cpus in (1, 2):
            use_cpus(monkeypatch, n_cpus)
            model = nudged_model(6, 8, seed=2)
            runs.append((mlm.train(model, seqs, epochs=3, lr=0.05, batch=16,
                                   seed=1), model))
        (h1, m1), (h2, m2) = runs
        assert h1 == h2
        assert m1.equal(m2)
        assert len(applied) == 2 * 3 * 7  # 7 batches an epoch
        for a, b in zip(applied[:21], applied[21:]):
            assert all(np.array_equal(a[k], b[k]) for k in a)


class TestTrainWorker:
    """The worker of ``train`` ends with it, on every exit path, and the
    model is left with the weights of the last completed update."""

    def train(self, model):
        seqs = random_seqs(tiny5(), np.random.default_rng(41), 60)
        return mlm.train(model, seqs, epochs=2, lr=0.05, batch=8)

    def fail_on_call(self, monkeypatch, n, in_worker, action):
        """Make the ``n``-th ``loss_and_gradients`` call of the parent or
        of the worker run ``action``."""
        parent, calls = os.getpid(), []
        real = mlm.loss_and_gradients

        def failing(*args):
            if (os.getpid() != parent) == in_worker:
                calls.append(1)
                if len(calls) == n:
                    action()
            return real(*args)

        monkeypatch.setattr(mlm, "loss_and_gradients", failing)

    def test_returns_with_no_worker_left(self, monkeypatch):
        use_cpus(monkeypatch, 2)
        model = nudged_model(6, 8, seed=1)
        history = self.train(model)
        assert len(history) == 3
        assert multiprocessing.active_children() == []
        # the weights of the same training with shard 1 in the process
        use_cpus(monkeypatch, 1)
        here = nudged_model(6, 8, seed=1)
        assert self.train(here) == history
        assert model.equal(here)

    def test_parent_shard_raising_mid_epoch(self, monkeypatch):
        use_cpus(monkeypatch, 2)
        real = mlm.loss_and_gradients

        def boom():
            raise RuntimeError("parent shard")

        self.fail_on_call(monkeypatch, 3, False, boom)
        model = nudged_model(6, 8, seed=1)
        with pytest.raises(RuntimeError, match="parent shard"):
            self.train(model)
        assert multiprocessing.active_children() == []
        # two updates were made: with both shards in the process, the
        # third batch's first call is the fifth
        use_cpus(monkeypatch, 1)
        monkeypatch.setattr(mlm, "loss_and_gradients", real)
        self.fail_on_call(monkeypatch, 5, False, boom)
        here = nudged_model(6, 8, seed=1)
        with pytest.raises(RuntimeError, match="parent shard"):
            self.train(here)
        assert model.equal(here)
        assert not model.equal(nudged_model(6, 8, seed=1))

    def test_worker_killed_is_a_typed_error(self, monkeypatch):
        use_cpus(monkeypatch, 2)
        self.fail_on_call(monkeypatch, 3, True,
                          lambda: os.kill(os.getpid(), signal.SIGKILL))
        with pytest.raises(BrokenProcessPool):
            self.train(nudged_model(6, 8, seed=1))
        assert multiprocessing.active_children() == []


class TestWorkGuard:
    """Counts of the recurrent work, independent of timing."""

    def test_gru_rows_equal_tokens(self, monkeypatch):
        rows = []
        forward = GRUCell.forward

        def counting(cell, z, *args):
            rows.append(z.shape[0])
            return forward(cell, z, *args)

        monkeypatch.setattr(GRUCell, "forward", counting)
        seqs = oracle_batches()["mixed"]
        mlm.loss_and_gradients(nudged_model(6, 8, seed=0), seqs)
        assert sum(rows) == sum(len(s) for s in seqs)

        # both shards of every batch of a train epoch, at one usable CPU;
        # init's zero read-out leaves the step-0 loss without a forward
        rows.clear()
        use_cpus(monkeypatch, 1)
        seqs = random_seqs(tiny5(), np.random.default_rng(43), 50)
        mlm.train(mlm.init(tiny5(), 6, 8, seed=0), seqs, epochs=1, lr=0.01,
                  batch=16)
        assert sum(rows) == sum(len(s) for s in seqs)

    def test_corpus_loss_is_forward_only(self, monkeypatch):
        def backward(*args):
            raise AssertionError("corpus_loss ran a backward pass")

        monkeypatch.setattr(GRUCell, "backward", backward)
        seqs = oracle_batches()["mixed"]
        assert math.isfinite(mlm.corpus_loss(nudged_model(6, 8, seed=0),
                                             seqs))

    def test_zero_readout_loss_runs_no_forward(self, monkeypatch):
        seqs = random_seqs(tiny5(), np.random.default_rng(31), 300)
        model = mlm.init(tiny5(), 6, 8, seed=4)
        nll, tokens, _ = mlm._forward(model, seqs, keep=False)

        def forward(*args):
            raise AssertionError("corpus_loss ran a forward pass")

        monkeypatch.setattr(GRUCell, "forward", forward)
        assert mlm.corpus_loss(model, seqs) == math.log(5)
        # the forward pass it skips gives the same loss, to rounding
        assert math.isclose(nll / tokens, math.log(5), rel_tol=1e-12)
        assert f"{nll / tokens:.6f}" == f"{math.log(5):.6f}"

    def test_nonzero_readout_runs_the_forward(self):
        seqs = random_seqs(tiny5(), np.random.default_rng(31), 30)
        model = mlm.init(tiny5(), 6, 8, seed=4)
        model.b_out[2] = 0.5  # one nonzero read-out entry
        nll, tokens, _ = mlm._forward(model, seqs, keep=False)
        assert mlm.corpus_loss(model, seqs) == float(nll / tokens)
        assert mlm.corpus_loss(model, seqs) != math.log(5)


class TestTraining:
    def test_overfit_single_sequence(self):
        lib = tiny5()
        model = mlm.init(lib, 16, 24, seed=0)
        seq = [0, 1, 2, 1, 4]  # add sin x1 sin 1
        history = mlm.train(model, [seq], epochs=500, lr=0.5, seed=0)
        assert history[-1] < 0.01
        # per-token perplexity below 1.01 as well
        ppl = math.exp(-mlm.score(model, Traversal(seq)) / len(seq))
        assert ppl < 1.01

    def test_step0_baseline_is_logV(self):
        lib = tiny5()
        model = mlm.init(lib, 6, 8, seed=0)
        history = mlm.train(model, [[0, 2, 4]], epochs=1, lr=0.01, seed=0)
        assert math.isclose(history[0], math.log(5), rel_tol=1e-12)

    def test_deterministic_given_seed(self):
        lib = tiny5()
        rng = np.random.default_rng(9)
        seqs = random_seqs(lib, rng, 20)
        m1 = mlm.init(lib, 6, 8, seed=1)
        m2 = mlm.init(lib, 6, 8, seed=1)
        h1 = mlm.train(m1, seqs, epochs=5, lr=0.05, seed=4)
        h2 = mlm.train(m2, seqs, epochs=5, lr=0.05, seed=4)
        assert h1 == h2
        assert m1.equal(m2)

    def test_mostly_monotone_on_synthetic_grammar(self):
        lib = tiny5()
        rng = np.random.default_rng(11)
        seqs = random_seqs(lib, rng, 60)
        model = mlm.init(lib, 8, 16, seed=0)
        history = mlm.train(model, seqs, epochs=30, lr=0.05, seed=0)
        for prev, cur in zip(history, history[1:]):
            assert cur <= prev * 1.05
        assert history[-1] < history[0]

    def test_learns_dominant_first_token(self):
        lib = tiny5()
        seqs = [[0, 2, 4]] * 30  # "add" always follows BOS
        model = mlm.init(lib, 8, 16, seed=0)
        mlm.train(model, seqs, epochs=30, lr=0.2, seed=0)
        logits, _ = model.step_batch([model.bos], model.initial_state())
        assert int(np.argmax(logits[0])) == 0

    def test_any_iterable_of_sequences(self):
        """Lists, and a generator of tuples read once, train alike."""
        seqs = random_seqs(tiny5(), np.random.default_rng(9), 20)
        m1, m2 = nudged_model(6, 8, seed=1), nudged_model(6, 8, seed=1)
        h1 = mlm.train(m1, seqs, epochs=3, lr=0.05, batch=8, seed=4)
        h2 = mlm.train(m2, (tuple(s) for s in seqs), epochs=3, lr=0.05,
                       batch=8, seed=4)
        assert h1 == h2
        assert m1.equal(m2)

    def test_empty_corpus(self):
        model = mlm.init(tiny5(), 6, 8, seed=0)
        with pytest.raises(mlm.EmptyCorpus):
            mlm.train(model, [], epochs=1, lr=0.1)

    def test_empty_sequence(self):
        model = mlm.init(tiny5(), 6, 8, seed=0)
        with pytest.raises(mlm.EmptyCorpus):
            mlm.train(model, [[0, 2, 4], []], epochs=1, lr=0.1)


class TestSaveLoad:
    def test_bit_exact_roundtrip(self, tmp_path):
        lib = tiny5()
        model = mlm.init(lib, 6, 8, seed=0)
        mlm.train(model, [[0, 2, 4], [2]], epochs=3, lr=0.1, seed=0)
        path = tmp_path / "m.mlm"
        mlm.save(model, path)
        back = mlm.load(path)
        assert back.equal(model)
        assert back.d_emb == 6 and back.hidden == 8

    def test_vocab_alignment_check(self, tmp_path):
        model = mlm.init(tiny5(), 6, 8, seed=0)
        path = tmp_path / "m.mlm"
        mlm.save(model, path)
        assert mlm.load(path, tiny5()).equal(model)
        with pytest.raises(mlm.VocabAlignmentError):
            mlm.load(path, default_library(n_vars=2))

    def test_load_cuts_the_model_to_the_library(self, tmp_path, rng):
        model = mlm.init(default_library(n_vars=2), 4, 6, seed=0)
        model.W_out += rng.normal(size=model.W_out.shape)
        model.b_out += rng.normal(size=model.b_out.shape)
        path = tmp_path / "m.mlm"
        mlm.save(model, path)
        # x reads the model's x1 and y its x2, by their place
        lib = Library([Token("x", 0, VARIABLE), Token("sin", 1, OPERATOR),
                       Token("y", 0, VARIABLE), Token("2", 0, CONSTANT)])
        cut = mlm.load(path, lib)
        assert cut.vocab_names == ["x", "sin", "y", "2"]
        cols = [model.vocab_names.index(n) for n in ("x1", "sin", "x2", "2")]
        # the same inputs, BOS included, give the model's logits at the
        # library's columns
        h, h_cut = model.initial_state(2), cut.initial_state(2)
        for full, mine in (([model.bos] * 2, [cut.bos] * 2),
                           ([cols[1], cols[3]], [1, 3])):
            logits, h = model.step_batch(full, h)
            l_cut, h_cut = cut.step_batch(mine, h_cut)
            np.testing.assert_allclose(l_cut, logits[:, cols], rtol=1e-12)
            assert np.array_equal(h_cut, h)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.mlm"
        path.write_bytes(b"NOPE" + b"\0" * 16)
        with pytest.raises(mlm.FormatVersion):
            mlm.load(path)

    def test_truncated_file(self, tmp_path):
        model = mlm.init(tiny5(), 6, 8, seed=0)
        path = tmp_path / "m.mlm"
        mlm.save(model, path)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(mlm.FormatVersion):
            mlm.load(path)

    @pytest.mark.parametrize("extra", [1, 700])
    def test_bytes_after_the_arrays(self, tmp_path, extra):
        path = tmp_path / "m.mlm"
        mlm.save(mlm.init(default_library(n_vars=2), 4, 4, seed=0), path)
        with open(path, "ab") as f:
            f.write(b"\0" * extra)
        with pytest.raises(mlm.FormatVersion, match="bytes after"):
            mlm.load(path)

    @pytest.mark.parametrize("header, named", MALFORMED_HEADERS)
    def test_malformed_header(self, tmp_path, header, named):
        path = tmp_path / "m.mlm"
        write_header(path, header)
        with pytest.raises(mlm.FormatVersion, match=named):
            mlm.load(path)
