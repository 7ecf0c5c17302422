"""Recurrent next-token model over the expression-token vocabulary.

From-scratch float64 implementation: training by cross-entropy over
length-sorted batches, computing only the rows still inside their sequence,
with exact analytic gradients (checked against finite differences in the test
suite), per-step logit emission for search integration, sampling, and a
portable binary weight format.

No EOS token: a sampled sequence ends when the arity bookkeeping says the
expression is complete.  Logit index i always means library token i.
"""

from __future__ import annotations

import json
import struct
from itertools import chain

import numpy as np

from .expr_core import Traversal, is_complete
from .recurrent import GRUCell, MomentumSGD, log_softmax, softmax

MAGIC = b"MLM1"
FORMAT_VERSION = 1


class MLMError(Exception):
    pass


class EmptyCorpus(MLMError):
    pass


class FormatVersion(MLMError):
    pass


class VocabAlignmentError(MLMError):
    pass


class MLMModel:
    """Embedding -> gated recurrent cell -> linear projection to V logits.

    The BOS marker lives at embedding row V; it is an input-only symbol and
    never appears in the output distribution.
    """

    def __init__(self, vocab_names, d_emb, hidden, rng):
        if d_emb < 1 or hidden < 1:
            raise ValueError("d_emb and hidden must be >= 1")
        self.vocab_names = list(vocab_names)
        self.d_emb = d_emb
        self.hidden = hidden
        V = len(self.vocab_names)
        self.E = rng.uniform(-0.5 / np.sqrt(d_emb), 0.5 / np.sqrt(d_emb),
                             (V + 1, d_emb))
        self.cell = GRUCell(d_emb, hidden, rng)
        self.W_out = np.zeros((hidden, V))
        self.b_out = np.zeros(V)

    @property
    def V(self):
        return len(self.vocab_names)

    @property
    def bos(self):
        return self.V

    def params(self):
        out = {"E": self.E, "W_out": self.W_out, "b_out": self.b_out}
        for name, p in self.cell.params().items():
            out["cell." + name] = p
        return out

    def zero_grads(self):
        return {name: np.zeros_like(p) for name, p in self.params().items()}

    def initial_state(self, batch=1):
        return np.zeros((batch, self.hidden))

    def step_batch(self, token_indices, state):
        x = self.E[np.asarray(token_indices)]
        h, _ = self.cell.forward(x, state)
        logits = h @ self.W_out + self.b_out
        return logits, h

    def equal(self, other):
        if self.vocab_names != other.vocab_names:
            return False
        a, b = self.params(), other.params()
        return all(np.array_equal(a[k], b[k]) for k in a)


def init(vocab, d_emb, hidden, seed):
    """Deterministic model init; zero output layer => uniform first-step
    distribution."""
    names = [t.name for t in vocab]
    rng = np.random.default_rng(seed)
    return MLMModel(names, d_emb, hidden, rng)


def step(model, token_index, state):
    """One recurrence step for a single sequence; returns (logits, new state)."""
    if token_index < 0 or token_index > model.V:
        raise IndexError(f"token index {token_index} out of range")
    if state.ndim == 1:
        state = state[None, :]
    logits, h = model.step_batch([token_index], state)
    return logits[0], h


def score(model, traversal):
    """Total log-probability of a token sequence, stepping from BOS."""
    # 0.0 - nll negates exactly and gives +0.0, not -0.0, for an empty one
    return float(0.0 - _forward(model, [traversal], keep=False)[0])


def _forward(model, seqs, keep):
    """Summed next-token cross-entropy of a batch, stepping each row from BOS.

    Rows are sorted longest first, so the rows still inside their sequence
    at step t are the prefix ``[:n_t]`` and no padded slot is computed.
    Returns (nll, tokens, steps); with ``keep``, steps lists each step's
    (inputs, targets, h, probs, cache) for backpropagation, else it is None.
    """
    lens = np.fromiter(map(len, seqs), dtype=np.int64, count=len(seqs))
    order = np.argsort(-lens, kind="stable")
    lens = lens[order]
    tokens = int(lens.sum())
    live = lens[:, None] > np.arange(lens[0])
    rows = np.zeros(live.shape, dtype=np.int64)
    rows[live] = np.fromiter(chain.from_iterable(seqs[i] for i in order),
                             dtype=np.int64, count=tokens)
    targets = rows.T
    inputs = np.vstack((np.full(len(seqs), model.bos), targets[:-1]))
    h = model.initial_state(len(seqs))
    nll, steps = 0.0, [] if keep else None
    for t, n in enumerate(live.sum(axis=0)):
        x_idx, y = inputs[t, :n], targets[t, :n]
        h, cache = model.cell.forward(model.E[x_idx], h[:n])
        logits = h @ model.W_out + model.b_out
        nll -= log_softmax(logits)[np.arange(n), y].sum()
        if keep:
            steps.append((x_idx, y, h, softmax(logits), cache))
    return nll, tokens, steps


def loss_and_gradients(model, seqs):
    """Mean per-token cross-entropy of a batch and its exact gradients."""
    if not seqs:
        raise EmptyCorpus("empty batch")
    nll, tokens, steps = _forward(model, seqs, keep=True)
    grads = model.zero_grads()
    cell_grads = {k[len("cell."):]: v for k, v in grads.items()
                  if k.startswith("cell.")}
    scale = 1.0 / tokens
    dh_next = np.zeros((0, model.hidden))
    for x_idx, y, h, dlogits, cache in reversed(steps):
        dlogits[np.arange(len(y)), y] -= 1.0
        dlogits *= scale
        grads["W_out"] += h.T @ dlogits
        grads["b_out"] += dlogits.sum(axis=0)
        dh = dlogits @ model.W_out.T
        dh[:len(dh_next)] += dh_next
        dx, dh_next = model.cell.backward(dh, cache, cell_grads)
        np.add.at(grads["E"], x_idx, dx)
    return float(nll / tokens), grads


def corpus_loss(model, seqs, batch=256):
    """Mean per-token cross-entropy over a corpus, forward only."""
    nll, n = 0.0, 0
    for i in range(0, len(seqs), batch):
        chunk_nll, tokens, _ = _forward(model, seqs[i:i + batch], keep=False)
        nll += chunk_nll
        n += tokens
    return float(nll / n)


def train(model, seqs, epochs, lr, batch=64, seed=0, momentum=0.9):
    """Full-sequence BPTT with momentum SGD; deterministic given seed.

    Returns per-epoch mean per-token cross-entropy, with the pre-update
    corpus loss prepended as a step-0 baseline.
    """
    seqs = [list(s) for s in seqs]
    if not seqs:
        raise EmptyCorpus("corpus is empty")
    rng = np.random.default_rng(seed)
    opt = MomentumSGD(lr, momentum)
    params = model.params()
    history = [corpus_loss(model, seqs)]
    order = np.arange(len(seqs))
    for _ in range(epochs):
        rng.shuffle(order)
        epoch_loss, epoch_tokens = 0.0, 0
        for i in range(0, len(order), batch):
            chunk = [seqs[j] for j in order[i:i + batch]]
            loss, grads = loss_and_gradients(model, chunk)
            opt.update(params, grads)
            tokens = sum(len(s) for s in chunk)
            epoch_loss += loss * tokens
            epoch_tokens += tokens
        history.append(epoch_loss / epoch_tokens)
    return history


def sample(model, lib, max_len, rng):
    """Autoregressive draw until arity-completion or max_len.

    Returns (Traversal, complete flag).
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    state = model.initial_state(1)
    prev = model.bos
    seq = []
    for _ in range(max_len):
        logits, state = model.step_batch([prev], state)
        p = softmax(logits[0])
        idx = int(np.searchsorted(np.cumsum(p), rng.random()))
        idx = min(idx, model.V - 1)
        seq.append(idx)
        prev = idx
        if is_complete(Traversal(seq), lib):
            return Traversal(seq), True
    return Traversal(seq), False


_ARRAY_ORDER = ("E", "cell.Wz", "cell.Uz", "cell.bz", "cell.Wr", "cell.Ur",
                "cell.br", "cell.Wh", "cell.Uh", "cell.bh", "W_out", "b_out")


def save(model, path):
    header = json.dumps({"version": FORMAT_VERSION,
                         "vocab": model.vocab_names,
                         "d_emb": model.d_emb,
                         "H": model.hidden}).encode("utf-8")
    params = model.params()
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", len(header)))
        f.write(header)
        for name in _ARRAY_ORDER:
            arr = np.ascontiguousarray(params[name], dtype="<f8")
            f.write(arr.tobytes())


def load(path, lib=None):
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != MAGIC:
            raise FormatVersion(f"bad magic {magic!r}")
        (hlen,) = struct.unpack("<I", f.read(4))
        header = json.loads(f.read(hlen).decode("utf-8"))
        if header.get("version") != FORMAT_VERSION:
            raise FormatVersion(f"unsupported version {header.get('version')}")
        vocab = header["vocab"]
        if lib is not None:
            lib_names = [t.name for t in lib]
            if lib_names != vocab:
                raise VocabAlignmentError(
                    f"weight vocabulary {vocab} does not match library {lib_names}")
        model = MLMModel(vocab, header["d_emb"], header["H"],
                         np.random.default_rng(0))
        params = model.params()
        for name in _ARRAY_ORDER:
            arr = params[name]
            data = f.read(arr.size * 8)
            if len(data) != arr.size * 8:
                raise FormatVersion("truncated weight file")
            arr[...] = np.frombuffer(data, dtype="<f8").reshape(arr.shape)
    return model
