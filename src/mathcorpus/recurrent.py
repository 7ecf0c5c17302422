"""Gated recurrent cell in float64 numpy with hand-derived gradients.

Shared by the math language model and the search controller; both are tiny,
so exactness and determinism matter more than speed.  All arrays are
batch-first: x is (B, d_in), h is (B, H).
"""

from __future__ import annotations

import numpy as np


def sigmoid(x):
    """1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, without
    branches: exp(-|x|) never overflows, and since it lies in [0, 1] the
    numerator max(exp(-|x|), x >= 0) is exactly 1 or exp(x)."""
    e = np.exp(-np.abs(x))
    return np.maximum(e, x >= 0) / (1.0 + e)


class GRUCell:
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

    def zero_grads(self):
        return {name: np.zeros_like(getattr(self, name)) for name in self.PARAM_NAMES}

    def forward(self, x, h):
        z = sigmoid(x @ self.Wz + h @ self.Uz + self.bz)
        r = sigmoid(x @ self.Wr + h @ self.Ur + self.br)
        rh = r * h
        g = np.tanh(x @ self.Wh + rh @ self.Uh + self.bh)
        h_new = (1.0 - z) * h + z * g
        cache = (x, h, z, r, rh, g)
        return h_new, cache

    def backward(self, dh_new, cache, grads):
        """Accumulate parameter gradients into ``grads``; return (dx, dh_prev)."""
        x, h, z, r, rh, g = cache
        dz = dh_new * (g - h)
        dg = dh_new * z
        dh = dh_new * (1.0 - z)

        dg_pre = dg * (1.0 - g * g)
        grads["Wh"] += x.T @ dg_pre
        grads["Uh"] += rh.T @ dg_pre
        grads["bh"] += dg_pre.sum(axis=0)
        drh = dg_pre @ self.Uh.T
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
        dh += dz_pre @ self.Uz.T + dr_pre @ self.Ur.T

        dx = dz_pre @ self.Wz.T + dr_pre @ self.Wr.T + dg_pre @ self.Wh.T
        return dx, dh


class MomentumSGD:
    """Plain gradient descent with momentum over a dict of parameter arrays."""

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
            v -= self.lr * grads[name]
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
