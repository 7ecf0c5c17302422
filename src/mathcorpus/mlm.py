"""Recurrent next-token model over the expression-token vocabulary.

From-scratch float64 implementation: training by cross-entropy over
length-sorted batches, computing only the rows still inside their sequence,
with exact analytic gradients (checked against finite differences in the test
suite), batched per-step logits for the search prior, and a portable binary
weight format.

No EOS token: a sequence ends when the arity bookkeeping says the expression
is complete.  Logit index i always means library token i.
"""

from __future__ import annotations

import json
import math
import mmap
import struct
from array import array
from collections.abc import Sequence
from functools import partial
from itertools import chain

import numpy as np

from .expr_core import VARIABLE
from .pool import fork_server, usable_cpus
from .recurrent import GRUReadout, MomentumSGD, log_softmax, softmax

MAGIC = b"MLM1"
FORMAT_VERSION = 1
MOMENTUM = 0.9
LOSS_CHUNK = 256  # rows per forward pass in corpus_loss


class MLMError(Exception):
    pass


class EmptyCorpus(MLMError):
    pass


class FormatVersion(MLMError):
    pass


class VocabAlignmentError(MLMError):
    pass


class MLMModel(GRUReadout):
    """Embedding -> gated recurrent cell -> linear projection to V logits.

    The BOS marker lives at embedding row V; it is an input-only symbol and
    never appears in the output distribution.
    """

    def __init__(self, vocab_names, d_emb, hidden, rng):
        if d_emb < 1 or hidden < 1:
            raise ValueError("d_emb and hidden must be >= 1")
        self.vocab_names = list(vocab_names)
        self.d_emb = d_emb
        V = len(self.vocab_names)
        self.E = rng.uniform(-0.5 / np.sqrt(d_emb), 0.5 / np.sqrt(d_emb),
                             (V + 1, d_emb))
        super().__init__(d_emb, hidden, V, rng)

    @property
    def V(self):
        return len(self.vocab_names)

    @property
    def bos(self):
        return self.V

    def params(self):
        return {"E": self.E, **super().params()}

    def step_batch(self, token_indices, state):
        idx = np.asarray(token_indices)
        if idx.size and not 0 <= idx.min() <= idx.max() <= self.V:
            raise MLMError(f"token index outside 0..{self.V} (BOS is {self.V})")
        return self.forward(self.E[idx], state)

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


def score(model, traversal):
    """Total log-probability of a token sequence, stepping from BOS one
    token at a time, as the search prior steps it."""
    total, h, prev = 0.0, model.initial_state(), model.bos
    for idx in traversal:
        logits, h = model.step_batch([prev], h)
        total += log_softmax(logits[0])[idx]
        prev = idx
    return float(total)


def _forward(model, seqs, keep, batch_tokens=None):
    """Summed next-token cross-entropy of a batch, stepping each row from BOS.

    Rows are sorted longest first, so the rows still inside their sequence
    at step t are the prefix ``[:n_t]`` and no padded slot is computed; the
    model runs them packed by step (``GRUReadout.unroll``).  Returns (nll,
    tokens, steps); with ``keep``, steps is (input indices, dlogits,
    cache), dlogits being the gradient of the summed loss divided by
    ``batch_tokens``, by default the rows' own token count, else it is None.
    """
    lens = np.fromiter(map(len, seqs), dtype=np.int64, count=len(seqs))
    order = np.argsort(-lens, kind="stable")
    lens = lens[order]
    tokens = int(lens.sum())
    live = lens[:, None] > np.arange(lens[0])
    rows = np.zeros(live.shape, dtype=np.int64)
    rows[live] = np.fromiter(chain.from_iterable(seqs[i] for i in order),
                             dtype=np.int64, count=tokens)
    inputs = np.hstack((np.full((len(seqs), 1), model.bos), rows[:, :-1]))
    x_idx, y = inputs.T[live.T], rows.T[live.T]
    logits, cache = model.unroll(model.E[x_idx], live.sum(axis=0), keep)
    nll = -log_softmax(logits)[np.arange(tokens), y].sum()
    if not keep:
        return nll, tokens, None
    dlogits = softmax(logits)
    dlogits[np.arange(tokens), y] -= 1.0
    dlogits *= 1.0 / (batch_tokens or tokens)
    return nll, tokens, (x_idx, dlogits, cache)


def loss_and_gradients(model, seqs, batch_tokens=None, grads=None):
    """Mean per-token cross-entropy of a batch and its exact gradients.

    For a shard of a batch, both are divided by ``batch_tokens``, the whole
    batch's token count, and the gradients are added into ``grads``."""
    if not seqs:
        raise EmptyCorpus("empty batch")
    nll, tokens, (x_idx, dlogits, cache) = _forward(model, seqs, True,
                                                    batch_tokens)
    if grads is None:
        grads = model.zero_grads()
    np.add.at(grads["E"], x_idx, model.bptt(dlogits, cache, grads, dx=True))
    return float(nll / (batch_tokens or tokens)), grads


def corpus_loss(model, seqs):
    """Mean per-token cross-entropy over a corpus, forward only.

    A zero read-out, as ``init`` leaves it, makes every logit 0 whatever
    the state, so each token costs exactly log V: that loss is returned
    without a forward pass."""
    if not (model.W_out.any() or model.b_out.any()) and any(map(len, seqs)):
        return math.log(model.V)
    nll, n = 0.0, 0
    for i in range(0, len(seqs), LOSS_CHUNK):
        chunk_nll, tokens, _ = _forward(model, seqs[i:i + LOSS_CHUNK],
                                        keep=False)
        nll += chunk_nll
        n += tokens
    return float(nll / n)


class _Packed(Sequence):
    """Token sequences read once into one int64 array, with a start and a
    length per sequence: ``seqs[i]`` is a view of sequence i, and a slice
    is a list of views.  The array holds no object per token, so a forked
    worker that reads it copies none of its pages."""

    def __init__(self, seqs):
        tokens, lens = array("q"), array("q")
        for s in seqs:
            tokens.extend(s)
            lens.append(len(s))
        self.tokens = np.frombuffer(tokens, dtype=np.int64)
        self.lens = np.frombuffer(lens, dtype=np.int64)
        self.starts = np.cumsum(self.lens) - self.lens

    def __len__(self):
        return len(self.lens)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        start = self.starts[i]
        return self.tokens[start:start + self.lens[i]]


def _shared(arrays):
    """Copies of ``arrays`` in one shared mapping, so that a forked worker
    and its parent see each other's writes to them."""
    flat = np.frombuffer(mmap.mmap(-1, 8 * sum(map(np.size, arrays.values()))))
    out = {}
    for name, a in arrays.items():
        out[name], flat = flat[:a.size].reshape(a.shape), flat[a.size:]
        out[name][...] = a
    return out


def _shard(model, seqs, grads, job):
    """The share of the batch loss of the shard ``job``, its rows and the
    batch's token count; its gradients are written to ``grads``."""
    rows, tokens = job
    for g in grads.values():
        g[...] = 0.0
    if not len(rows):
        return 0.0
    return loss_and_gradients(model, [seqs[j] for j in rows], tokens, grads)[0]


def train(model, seqs, epochs, lr, batch=64, seed=0):
    """Full-sequence BPTT with momentum SGD; deterministic given seed.

    ``seqs``, any iterable of token sequences, is read once into a packed
    corpus (``_Packed``).  A batch's gradient is shard 0's plus shard 1's,
    the shards being its alternate rows sorted longest first.  With more
    than one usable CPU, shard 1 runs in a forked worker, which reads the
    packed corpus the parent holds, the parameters and its gradient shared;
    with one, here.  The split does not depend on the CPU count, so neither
    do the weights.  The model is left bound to the shared copy of its
    parameters, which holds the last completed update, also when training
    raises.

    Returns per-epoch mean per-token cross-entropy, with the pre-update
    corpus loss prepended as a step-0 baseline.
    """
    seqs = _Packed(seqs)
    if not len(seqs) or not seqs.lens.all():
        raise EmptyCorpus("corpus is empty or holds an empty sequence")
    lens = seqs.lens
    rng = np.random.default_rng(seed)
    opt = MomentumSGD(lr, MOMENTUM)
    history = [corpus_loss(model, seqs)]
    params, grads1 = _shared(model.params()), _shared(model.zero_grads())
    grads = model.zero_grads()
    order = np.arange(len(seqs))
    model.bind(params)
    with fork_server(partial(_shard, model, seqs, grads1),
                     usable_cpus()) as submit:
        for _ in range(epochs):
            rng.shuffle(order)
            epoch_loss, epoch_tokens = 0.0, 0
            for i in range(0, len(order), batch):
                rows = order[i:i + batch]
                rows = rows[np.argsort(-lens[rows], kind="stable")]
                tokens = int(lens[rows].sum())
                shard1 = submit((rows[1::2], tokens))
                loss = _shard(model, seqs, grads, (rows[::2], tokens))
                loss += shard1()
                for name, g in grads.items():
                    g += grads1[name]
                opt.update(params, grads)
                epoch_loss += loss * tokens
                epoch_tokens += tokens
            history.append(epoch_loss / epoch_tokens)
    return history


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


def _aligned(model, lib):
    """The model cut down to ``lib``'s tokens, in ``lib``'s order.  Each
    token reads the model's token of its name; a variable without one reads
    the model's x{k}, k its place among ``lib``'s variables.  The other
    model tokens fall out of the read-out, so the softmax renormalises over
    ``lib``."""
    names = model.vocab_names
    variables = [t.name for t in lib if t.kind == VARIABLE]
    cols = []
    for tok in lib:
        name = tok.name
        if name not in names and tok.kind == VARIABLE:
            name = f"x{variables.index(name) + 1}"
        if name not in names:
            raise VocabAlignmentError(
                f"library token {tok.name!r} has no counterpart in the "
                f"weight vocabulary {names}")
        cols.append(names.index(name))
    model.E = model.E[cols + [model.bos]]
    model.W_out, model.b_out = model.W_out[:, cols], model.b_out[cols]
    model.vocab_names = [t.name for t in lib]
    return model


def load(path, lib=None):
    """The saved model; with ``lib``, cut down to it (``_aligned``)."""
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != MAGIC:
            raise FormatVersion(f"bad magic {magic!r}")
        try:  # a bad length, UTF-8 or JSON
            (hlen,) = struct.unpack("<I", f.read(4))
            header = json.loads(f.read(hlen).decode("utf-8"))
        except (struct.error, ValueError) as e:
            raise FormatVersion(f"unreadable header: {e}") from None
        if not isinstance(header, dict):
            raise FormatVersion("header is not a JSON object")
        if header.get("version") != FORMAT_VERSION:
            raise FormatVersion(f"unsupported version {header.get('version')}")
        vocab = header.get("vocab")
        if not (isinstance(vocab, list)
                and all(isinstance(t, str) and t for t in vocab)
                and len(set(vocab)) == len(vocab)):
            raise FormatVersion("vocab is not a list of distinct token names")
        for key in ("d_emb", "H"):
            if type(header.get(key)) is not int or header[key] < 1:
                raise FormatVersion(f"{key} is not an integer >= 1")
        model = MLMModel(vocab, header["d_emb"], header["H"],
                         np.random.default_rng(0))
        params = model.params()
        for name in _ARRAY_ORDER:
            arr = params[name]
            data = f.read(arr.size * 8)
            if len(data) != arr.size * 8:
                raise FormatVersion("truncated weight file")
            arr[...] = np.frombuffer(data, dtype="<f8").reshape(arr.shape)
        if f.read(1):
            raise FormatVersion("bytes after the weight arrays")
    return model if lib is None else _aligned(model, lib)
