"""Gated recurrent network in float64 numpy with hand-derived gradients.

Shared by the math language model and the search controller; both are tiny,
so exactness and determinism matter more than speed.  All arrays are
batch-first: x is (B, d_in), h is (B, H).
"""

from __future__ import annotations

import numpy as np


def sigmoid(x, out=None):
    """1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, without
    branches: exp(-|x|) never overflows, and since it lies in [0, 1] the
    numerator max(exp(-|x|), x >= 0) is exactly 1 or exp(x)."""
    e = np.exp(-np.abs(x))
    return np.divide(np.maximum(e, x >= 0), 1.0 + e, out=out)


class GRUCell:
    """The per-step gate arithmetic.  The input products x @ W are made
    outside, over as many steps as the caller has, and each step's gates
    overwrite them in place."""

    PARAM_NAMES = ("Wz", "Uz", "bz", "Wr", "Ur", "br", "Wh", "Uh", "bh")

    def __init__(self, d_in, hidden, rng=None):
        self.d_in = d_in
        self.hidden = hidden
        if rng is None:
            rng = np.random.default_rng(0)
        sw = 0.5 / np.sqrt(d_in)
        su = 0.5 / np.sqrt(hidden)
        for gate in "zrh":
            setattr(self, f"W{gate}", rng.uniform(-sw, sw, (d_in, hidden)))
            setattr(self, f"U{gate}", rng.uniform(-su, su, (hidden, hidden)))
            setattr(self, f"b{gate}", np.zeros(hidden))

    def params(self):
        return {name: getattr(self, name) for name in self.PARAM_NAMES}

    def forward(self, z, r, g, h, rh=None, out=None):
        """One step over its rows: the input products z = x @ Wz,
        r = x @ Wr and g = x @ Wh become the update gate, the reset gate and
        the candidate state.  ``h`` is the state read, None for the zero
        state, whose products add nothing; r * h goes to ``rh``.  Returns
        the new state, in ``out`` if given."""
        if h is not None:
            z += h @ self.Uz
            r += h @ self.Ur
        z += self.bz
        r += self.br
        sigmoid(z, out=z)
        sigmoid(r, out=r)
        if h is not None:
            g += np.multiply(r, h, out=rh) @ self.Uh
        g += self.bh
        np.tanh(g, out=g)
        out = np.multiply(z, g, out=out)
        if h is not None:
            out += (1.0 - z) * h
        return out

    def backward(self, dh, z, r, g, h):
        """``forward`` backwards, in place over the step's rows: given
        ``dh``, the gradient of the new state, z, r and g become the
        gradients of the gates' pre-activations.  Returns the gradient of
        the state read, None for the zero state."""
        dz = dh * g if h is None else dh * (g - h)
        np.multiply(dh * z, 1.0 - g * g, out=g)
        if h is None:
            r[...] = 0.0  # the reset gate scaled a zero state
        else:
            dh_prev = dh * (1.0 - z)
            drh = g @ self.Uh.T
            dh_prev += drh * r
            np.multiply(drh * h * r, 1.0 - r, out=r)
        np.multiply(dz * z, 1.0 - z, out=z)
        if h is not None:
            dh_prev += z @ self.Uz.T + r @ self.Ur.T
            return dh_prev


class GRUReadout:
    """Gated recurrent cell plus a zero-initialised linear read-out to V
    logits, so the first distribution is uniform.  Subclasses supply the
    input encoding.  ``unroll`` and ``bptt`` run rows packed by step from
    the zero state, step t's being the first counts[t] of step t - 1's, and
    only the recurrence runs per step: the input products, the read-out and
    each weight gradient are one product over all steps."""

    def __init__(self, d_in, hidden, V, rng):
        self.hidden = hidden
        self.cell = GRUCell(d_in, hidden, rng)
        self.W_out = np.zeros((hidden, V))
        self.b_out = np.zeros(V)

    def params(self):
        out = {"W_out": self.W_out, "b_out": self.b_out}
        for name, p in self.cell.params().items():
            out["cell." + name] = p
        return out

    def bind(self, arrays):
        """Make ``arrays``, keyed as ``params``, the parameters."""
        for name, a in arrays.items():
            owner, _, attr = name.rpartition(".")
            setattr(self.cell if owner else self, attr, a)

    def zero_grads(self):
        return {name: np.zeros_like(p) for name, p in self.params().items()}

    def initial_state(self, batch=1):
        return np.zeros((batch, self.hidden))

    def forward(self, x, h):
        """One step: returns (logits, new state)."""
        c = self.cell
        h = c.forward(x @ c.Wz, x @ c.Wr, x @ c.Wh, h)
        return h @ self.W_out + self.b_out, h

    def unroll(self, X, counts, keep=True):
        """(logits, cache for ``bptt``) of the input rows ``X``; without
        ``keep``, the cache is None and only what the read-out needs kept."""
        c = self.cell
        Z, R, G = X @ c.Wz, X @ c.Wr, X @ c.Wh
        Hs = np.empty((len(X), self.hidden))
        RH = np.empty_like(Hs) if keep else None
        h, end = None, 0
        for n in counts:
            rows = slice(end, end + n)
            h = c.forward(Z[rows], R[rows], G[rows],
                          None if h is None else h[:n],
                          None if RH is None else RH[rows], Hs[rows])
            end += n
        cache = (X, counts, Z, R, G, RH, Hs) if keep else None
        return Hs @ self.W_out + self.b_out, cache

    def bptt(self, dlogits, cache, grads, dx=False):
        """Add the gradients of an ``unroll`` with logit gradient
        ``dlogits`` into ``grads``; with ``dx``, return its inputs'."""
        X, counts, Z, R, G, RH, Hs = cache
        c = self.cell
        grads["W_out"] += Hs.T @ dlogits
        grads["b_out"] += dlogits.sum(axis=0)
        dH = dlogits @ self.W_out.T
        ends = np.cumsum(counts)
        dh = None
        for t in range(len(counts) - 1, -1, -1):
            rows = slice(ends[t] - counts[t], ends[t])
            if dh is not None:
                dH[rows][:len(dh)] += dh
            # the state step t read: step t - 1's first rows
            h = Hs[ends[t - 1] - counts[t - 1]:][:counts[t]] if t else None
            dh = c.backward(dH[rows], Z[rows], R[rows], G[rows], h)
        # each row's read state, for the recurrent weights; step 0 read zero
        n0 = counts[0]
        prev = Hs[np.arange(n0, len(Hs)) - np.repeat(counts[:-1], counts[1:])]
        for gate, D, P in (("z", Z, prev), ("r", R, prev), ("h", G, RH[n0:])):
            grads[f"cell.W{gate}"] += X.T @ D
            grads[f"cell.U{gate}"] += P.T @ D[n0:]
            grads[f"cell.b{gate}"] += D.sum(axis=0)
        if dx:
            return Z @ c.Wz.T + R @ c.Wr.T + G @ c.Wh.T


class MomentumSGD:
    """Plain gradient descent with momentum over a dict of parameter arrays.
    ``update`` scales the gradients in place, by the learning rate."""

    def __init__(self, lr, momentum=0.9):
        self.lr = lr
        self.momentum = momentum
        self.velocity = {}

    def update(self, params, grads):
        for name, p in params.items():
            v = self.velocity.get(name)
            if v is None:
                v = np.zeros_like(p)
            v *= self.momentum
            v -= np.multiply(grads[name], self.lr, out=grads[name])
            self.velocity[name] = v
            p += v


class Adam:
    def __init__(self, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = {}
        self.v = {}
        self.t = 0

    def update(self, params, grads):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name, p in params.items():
            g = grads[name]
            m = self.m.setdefault(name, np.zeros_like(p))
            v = self.v.setdefault(name, np.zeros_like(p))
            m += (1 - b1) * (g - m)
            v += (1 - b2) * (g * g - v)
            mhat = m / (1 - b1 ** self.t)
            vhat = v / (1 - b2 ** self.t)
            p -= self.lr * mhat / (np.sqrt(vhat) + self.eps)


def draw(p, u):
    """Inverse-CDF categorical draw: per row of ``p``, the first index whose
    cumulative probability reaches ``u``.  ``u`` has one value per row and
    is clamped into (0, total], so a zero-probability column is never
    drawn, not at ``u == 0`` and not when rounding leaves the total below
    ``u``."""
    cum = np.cumsum(p, axis=-1)
    u = np.clip(u, np.nextafter(0.0, 1.0), cum[..., -1])
    return (cum < u[..., None]).sum(axis=-1)


def softmax(logits, axis=-1):
    """Max-stabilized softmax; -inf entries map to exactly zero probability."""
    m = np.max(logits, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    e = np.exp(logits - m)
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax(logits, axis=-1):
    m = np.max(logits, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    shifted = logits - m
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    return shifted - lse
