"""Neural-guided symbolic regression with an optional language-model prior.

An autoregressive recurrent controller emits logits over the token library,
conditioned on the parent and sibling of the tree slot being filled.  Per
step, three logit vectors are summed: controller logits, the language-model
prior scaled by the inverse temperature lambda, and constraint logits that
are 0 or -inf.  A categorical draw from the softmax picks the next token.
Training is risk-seeking REINFORCE on the top reward quantile of each batch.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace as dc_replace

import numpy as np

from .expr_core import (
    OPS,
    Library,
    Token,
    Traversal,
    VARIABLE,
    evaluate_batch,
    traversal_to_tree,
    tree_to_traversal,
)
from .latex_parser import normalize, parse_plain
from .recurrent import Adam, GRUCell, log_softmax, softmax

NEG_INF = float("-inf")


class DsrError(Exception):
    pass


class CompleteTraversal(DsrError):
    pass


class Infeasible(DsrError):
    pass


class DegenerateTarget(DsrError):
    pass


@dataclass
class SRConfig:
    library: Library
    lam: float = 0.0
    batch_size: int = 500
    max_steps: int = 2000
    risk_fraction: float = 0.05
    learning_rate: float = 0.001
    entropy_weight: float = 0.005
    min_length: int = 4
    max_length: int = 30
    hidden_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lambda must be >= 0")
        if not (0 < self.risk_fraction <= 1):
            raise ValueError("risk fraction must be in (0, 1]")
        if self.min_length > self.max_length:
            raise ValueError("min_length must be <= max_length")


class PartialState:
    """Incremental pre-order bookkeeping for one sequence being sampled.

    Tracks the stack of open operator slots, so parent/sibling lookup and
    constraint evaluation are O(depth) per step.
    """

    __slots__ = ("lib", "is_trig", "seq", "stack", "complete", "open",
                 "trig_depth")

    def __init__(self, lib):
        self.lib = lib
        self.is_trig = _lib_tables(lib)["is_trig"]
        self.seq = []
        # stack entries: [token_index, remaining_children, last_child_root]
        self.stack = []
        self.complete = False
        self.open = 1  # dangling slot count d_k
        self.trig_depth = 0  # trig operators among the open ancestors

    def push(self, idx):
        if self.complete:
            raise CompleteTraversal("expression already complete")
        self.seq.append(idx)
        arity = self.lib[idx].arity
        self.open += arity - 1
        if arity > 0:
            if self.is_trig[idx]:
                self.trig_depth += 1
            self.stack.append([idx, arity, None])
        else:
            self._resolve(idx)

    def _resolve(self, root_idx):
        while self.stack:
            top = self.stack[-1]
            top[1] -= 1
            top[2] = root_idx
            if top[1] == 0:
                root_idx = top[0]
                if self.is_trig[root_idx]:
                    self.trig_depth -= 1
                self.stack.pop()
            else:
                return
        self.complete = True

    def parent_sibling(self):
        if self.complete:
            raise CompleteTraversal("no next slot in a complete traversal")
        if not self.stack:
            return None, None
        top = self.stack[-1]
        return top[0], top[2]

    def open_slots(self):
        return self.open

    def ancestors(self):
        return [e[0] for e in self.stack]


def _replay(partial, lib):
    st = PartialState(lib)
    for idx in partial:
        st.push(idx)
    return st


def parent_sibling(partial, lib):
    """Parent and sibling tokens of the slot the next token will fill.

    Returns library indices, with None for empty.  Both are empty before the
    first token.
    """
    st = _replay(partial, lib)
    return st.parent_sibling()


def _lib_tables(lib):
    tables = getattr(lib, "_constraint_tables", None)
    if tables is None:
        arities = np.array(lib.arities())
        ops = [OPS.get(t.name) for t in lib.tokens]
        is_trig = [op is not None and op.trig for op in ops]
        tables = {
            "arities": arities,
            "terminals": np.flatnonzero(arities == 0),
            "is_trig": is_trig,
            "trig": np.flatnonzero(is_trig),
            # (parent, child) index pairs where the child inverts the parent
            "inverse_pairs": [(i, lib.index[op.inverse])
                              for i, op in enumerate(ops)
                              if op is not None and op.inverse in lib.index],
        }
        lib._constraint_tables = tables
    return tables


@dataclass
class ConstraintSet:
    """The standard in-situ constraint rules, individually switchable."""

    length_bounds: bool = True
    no_nested_trig: bool = True
    no_inverse_pairs: bool = True

    def mask_batch(self, lib, n, d, trig, parent, min_length, max_length):
        """Masks for many partial sequences at once.

        n, d, trig, parent are int arrays (B,); parent is -1 for empty.
        """
        tb = _lib_tables(lib)
        B = len(n)
        masks = np.zeros((B, len(lib)))
        if self.length_bounds:
            over = (n[:, None] + d[:, None] + tb["arities"][None, :]) > max_length
            masks[over] = NEG_INF
            short = np.flatnonzero((d == 1) & (n + 1 < min_length))
            if short.size:
                masks[np.ix_(short, tb["terminals"])] = NEG_INF
        if self.no_nested_trig and tb["trig"].size:
            rows = np.flatnonzero(trig > 0)
            if rows.size:
                masks[np.ix_(rows, tb["trig"])] = NEG_INF
        if self.no_inverse_pairs:
            for p, c in tb["inverse_pairs"]:
                masks[parent == p, c] = NEG_INF
        if not (masks == 0.0).any(axis=1).all():
            raise Infeasible("constraint set masks every token")
        return masks

    def mask(self, lib, state, min_length, max_length):
        parent, _ = state.parent_sibling()
        return self.mask_batch(
            lib,
            np.array([len(state.seq)]),
            np.array([state.open_slots()]),
            np.array([state.trig_depth]),
            np.array([parent if parent is not None else -1]),
            min_length, max_length,
        )[0]


def constraint_logits(cs, lib, partial, min_length=4, max_length=30):
    """Public form of the per-step mask; recomputes state from the prefix."""
    st = _replay(partial, lib)
    if st.complete:
        raise CompleteTraversal("traversal is already complete")
    return cs.mask(lib, st, min_length, max_length)


def combine_and_sample(l_dsr, l_mlm, l_mask, lam, rng):
    """Draw a token from Softmax(l_dsr + lam * l_mlm + l_mask)."""
    s = l_dsr + lam * l_mlm + l_mask
    p = softmax(s)
    u = rng.random()
    idx = int(np.searchsorted(np.cumsum(p), u))
    return min(idx, len(p) - 1)


class Controller:
    """Recurrent policy over the library, conditioned on parent and sibling.

    Input is the concatenation of two one-hots of size V+1 (the extra slot
    encodes "empty").  The output layer starts at zero so the initial policy
    is uniform over unmasked tokens.
    """

    def __init__(self, lib, hidden, seed):
        self.lib = lib
        self.V = len(lib)
        self.hidden = hidden
        rng = np.random.default_rng(seed)
        self.cell = GRUCell(2 * (self.V + 1), hidden, rng)
        self.W_out = np.zeros((hidden, self.V))
        self.b_out = np.zeros(self.V)

    def params(self):
        out = {"W_out": self.W_out, "b_out": self.b_out}
        for name, p in self.cell.params().items():
            out["cell." + name] = p
        return out

    def zero_grads(self):
        return {name: np.zeros_like(p) for name, p in self.params().items()}

    def input_vector(self, parent, sibling):
        x = np.zeros(2 * (self.V + 1))
        x[parent if parent is not None else self.V] = 1.0
        off = self.V + 1
        x[off + (sibling if sibling is not None else self.V)] = 1.0
        return x

    def initial_state(self, batch=1):
        return np.zeros((batch, self.hidden))

    def step_batch(self, x, state):
        h, cache = self.cell.forward(x, state)
        logits = h @ self.W_out + self.b_out
        return logits, h, cache


def _mlm_input_token(parent, sibling, bos):
    # the sibling (the most recently completed elder subtree's root) is the
    # closest thing to "the previous token" for a model trained on flat
    # sequences; fall back to the parent, then BOS
    if sibling is not None:
        return sibling
    if parent is not None:
        return parent
    return bos


def sample_batch(controller, mlm_model, cs, config, rng, batch_size=None):
    """Vectorized draw of a batch of COMPLETE traversals.

    Implements the per-step recurrence of the sampling algorithm for all
    sequences at once; inactive (already complete) rows keep consuming their
    lane but their draws are discarded.
    """
    lib = config.library
    B = batch_size if batch_size is not None else config.batch_size
    V = len(lib)
    states = [PartialState(lib) for _ in range(B)]
    h_dsr = controller.initial_state(B)
    h_mlm = mlm_model.initial_state(B) if mlm_model is not None else None
    mlm_prev = np.full(B, mlm_model.bos if mlm_model is not None else 0,
                       dtype=np.int64)
    rows = np.arange(B)
    for _ in range(config.max_length):
        any_active = False
        parents = np.full(B, V)
        siblings = np.full(B, V)
        n_arr = np.zeros(B, dtype=int)
        d_arr = np.ones(B, dtype=int)  # inactive rows stay trivially feasible
        trig_arr = np.zeros(B, dtype=int)
        for b, st in enumerate(states):
            if st.complete:
                continue
            any_active = True
            parent, sibling = st.parent_sibling()
            if parent is not None:
                parents[b] = parent
            if sibling is not None:
                siblings[b] = sibling
            n_arr[b] = len(st.seq)
            d_arr[b] = st.open
            trig_arr[b] = st.trig_depth
            if mlm_model is not None:
                mlm_prev[b] = _mlm_input_token(parent, sibling, mlm_model.bos)
        if not any_active:
            break
        raw_parent = np.where(parents == V, -1, parents)
        masks = cs.mask_batch(lib, n_arr, d_arr, trig_arr, raw_parent,
                              config.min_length, config.max_length)
        x = np.zeros((B, 2 * (V + 1)))
        x[rows, parents] = 1.0
        x[rows, V + 1 + siblings] = 1.0
        l_dsr, h_dsr, _ = controller.step_batch(x, h_dsr)
        if mlm_model is not None:
            l_mlm, h_mlm = mlm_model.step_batch(mlm_prev, h_mlm)
            combined = l_dsr + config.lam * l_mlm + masks
        else:
            combined = l_dsr + masks
        p = softmax(combined, axis=1)
        u = rng.random(B)
        cum = np.cumsum(p, axis=1)
        picks = (cum < u[:, None]).sum(axis=1)
        np.clip(picks, 0, V - 1, out=picks)
        for b, st in enumerate(states):
            if not st.complete:
                st.push(int(picks[b]))
    return [Traversal(s.seq) for s in states]


def sample_expression(controller, mlm_model, cs, config, rng):
    """Sample one COMPLETE traversal (batch-of-one specialization)."""
    return sample_batch(controller, mlm_model, cs, config, rng, batch_size=1)[0]


def reward(tree, X, y):
    """1 / (1 + NRMSE); 0 for expressions that evaluate Invalid anywhere.

    Returns (reward, invalid flag).  X maps variable name -> sample array.
    """
    y = np.asarray(y, dtype=float)
    sd = float(np.std(y))
    if sd == 0.0:
        raise DegenerateTarget("target values are constant")
    try:
        yhat, ok = evaluate_batch(tree, X)
    except Exception:
        return 0.0, True
    if not ok:
        return 0.0, True
    with np.errstate(over="ignore"):
        rmse = float(np.sqrt(np.mean((yhat - y) ** 2)))
    if not math.isfinite(rmse):
        return 0.0, True
    return 1.0 / (1.0 + rmse / sd), False


def objective_and_gradients(controller, traversals, advantages, config,
                            mlm_model=None):
    """Risk-seeking surrogate objective and its exact controller gradients.

    J = mean_i adv_i * log p(tau_i) + entropy_weight * mean_i sum_t H_t.
    The prior logits and constraint masks enter the softmax but are treated
    as constants; gradients flow only through the controller logits.
    """
    lib = config.library
    cs = ConstraintSet()
    k = len(traversals)
    V = len(lib)
    T = max(len(t) for t in traversals)
    lengths = [len(t) for t in traversals]

    # replay inputs, masks and targets
    xs = np.zeros((T, k, 2 * (V + 1)))
    masks = np.zeros((T, k, V))
    targets = np.zeros((T, k), dtype=np.int64)
    step_mask = np.zeros((T, k))
    mlm_inputs = np.full((T, k), mlm_model.bos if mlm_model is not None else 0,
                         dtype=np.int64)
    for i, trav in enumerate(traversals):
        st = PartialState(lib)
        for t, idx in enumerate(trav):
            parent, sibling = st.parent_sibling()
            xs[t, i, parent if parent is not None else V] = 1.0
            xs[t, i, V + 1 + (sibling if sibling is not None else V)] = 1.0
            masks[t, i] = cs.mask(lib, st, config.min_length, config.max_length)
            targets[t, i] = idx
            step_mask[t, i] = 1.0
            if mlm_model is not None:
                mlm_inputs[t, i] = _mlm_input_token(parent, sibling, mlm_model.bos)
            st.push(idx)

    # forward
    h = controller.initial_state(k)
    h_mlm = mlm_model.initial_state(k) if mlm_model is not None else None
    caches, hs, probs, logps = [], [], [], []
    for t in range(T):
        l_dsr, h, cache = controller.step_batch(xs[t], h)
        if mlm_model is not None:
            l_mlm, h_mlm = mlm_model.step_batch(mlm_inputs[t], h_mlm)
            combined = l_dsr + config.lam * l_mlm + masks[t]
        else:
            combined = l_dsr + masks[t]
        caches.append(cache)
        hs.append(h)
        probs.append(softmax(combined, axis=1))
        logps.append(log_softmax(combined, axis=1))

    adv = np.asarray(advantages, dtype=float)
    J = 0.0
    w_ent = config.entropy_weight
    dlogits_list = []
    for t in range(T):
        p = probs[t]
        lp = logps[t]
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
        dlogits_list.append(dlogits)

    grads = controller.zero_grads()
    cell_grads = {n[len("cell."):]: g for n, g in grads.items()
                  if n.startswith("cell.")}
    dh_next = np.zeros((k, controller.hidden))
    for t in range(T - 1, -1, -1):
        dlogits = dlogits_list[t]
        grads["W_out"] += hs[t].T @ dlogits
        grads["b_out"] += dlogits.sum(axis=0)
        dh = dlogits @ controller.W_out.T + dh_next
        _, dh_next = controller.cell.backward(dh, caches[t], cell_grads)
    return J, grads


def train_step(controller, batch, config, optimizer, mlm_model=None):
    """One risk-seeking policy update from a batch of (traversal, reward)."""
    if not batch:
        raise ValueError("empty batch")
    rewards = np.array([r for _, r in batch])
    baseline = float(np.quantile(rewards, 1.0 - config.risk_fraction))
    k = max(1, int(round(config.risk_fraction * len(batch))))
    order = np.argsort(-rewards, kind="stable")
    kept = [i for i in order[:k]]
    traversals = [batch[i][0] for i in kept]
    advantages = [rewards[i] - baseline for i in kept]
    if all(a == 0.0 for a in advantages) and config.entropy_weight == 0.0:
        return 0.0
    J, grads = objective_and_gradients(controller, traversals, advantages,
                                       config, mlm_model)
    neg = {n: -g for n, g in grads.items()}
    optimizer.update(controller.params(), neg)
    return J


# --- benchmarks ------------------------------------------------------------

@dataclass
class BenchmarkSpec:
    name: str
    expression: str
    variables: list
    n_points: int = 20
    ranges: dict = field(default_factory=dict)  # var -> (lo, hi)
    library_tokens: list = field(default_factory=list)

    def library(self):
        toks = []
        for name in self.library_tokens:
            if name in OPS:
                toks.append(OPS[name].token)
            elif name in self.variables:
                toks.append(Token(name, 0, VARIABLE))
            else:
                toks.append(Token(name, 0, "constant"))
        return Library(toks, name=f"bench:{self.name}")

    def target_tree(self, lib):
        return parse_plain(self.expression, lib)

    def dataset(self, rng):
        X = {}
        for v in self.variables:
            lo, hi = self.ranges.get(v, (-1.0, 1.0))
            X[v] = rng.uniform(lo, hi, self.n_points)
        tree = self.target_tree(self.library())
        y, ok = evaluate_batch(tree, X)
        if not ok:
            raise DsrError(f"target {self.expression!r} invalid on sampled points")
        return X, y


_BASE_OPS = ["add", "sub", "mul", "div", "sin", "cos", "exp", "log"]


def builtin_benchmarks():
    """The twelve benchmark targets of the evaluation table."""
    def spec(name, expr, variables, ranges=None, extra=(), n_points=20):
        return BenchmarkSpec(
            name=name, expression=expr, variables=list(variables),
            n_points=n_points,
            ranges=ranges or {v: (-1.0, 1.0) for v in variables},
            library_tokens=_BASE_OPS + list(extra) + list(variables),
        )

    return {
        s.name: s for s in [
            spec("nguyen-1", "x^3 + x^2 + x", "x"),
            spec("nguyen-2", "x^4 + x^3 + x^2 + x", "x"),
            spec("nguyen-3", "x^5 + x^4 + x^3 + x^2 + x", "x"),
            spec("nguyen-4", "x^6 + x^5 + x^4 + x^3 + x^2 + x", "x"),
            spec("nguyen-5", "sin(x^2) * cos(x) - 1", "x"),
            spec("nguyen-6", "sin(x) + sin(x + x^2)", "x"),
            spec("nguyen-7", "log(x + 1) + log(x^2 + 1)", "x",
                 ranges={"x": (0.0, 2.0)}),
            spec("nguyen-8", "sqrt(x)", "x", ranges={"x": (0.0, 4.0)},
                 extra=["sqrt"]),
            spec("nguyen-9", "sin(x) + sin(y^2)", "xy",
                 ranges={"x": (0.0, 1.0), "y": (0.0, 1.0)}),
            spec("nguyen-10", "2 * sin(x) * cos(y)", "xy",
                 ranges={"x": (0.0, 1.0), "y": (0.0, 1.0)}),
            spec("nguyen-11", "x^y", "xy",
                 ranges={"x": (0.0, 1.0), "y": (0.0, 1.0)}),
            spec("nguyen-12", "x^4 - x^3 + 1/2 * y^2 - y", "xy",
                 extra=["pow", "1", "2"]),
        ]
    }


@dataclass
class RunMetrics:
    recovered: bool
    steps_to_solve: int
    invalid_fraction: float
    best_expression: str
    best_reward: float
    reward_trace: list = field(default_factory=list)
    seed: int = 0


def recovered(candidate, spec, grid_points=1000):
    """Exact-recovery test: canonical structural match, with a dense-grid
    numeric fallback for algebraically equal forms."""
    lib = spec.library()
    target = normalize(spec.target_tree(lib))
    cand = normalize(candidate)
    if cand == target:
        return True
    X = {}
    per_dim = grid_points
    for v in spec.variables:
        lo, hi = spec.ranges.get(v, (-1.0, 1.0))
        pad = (hi - lo) * 1e-6
        X[v] = np.linspace(lo + pad, hi - pad, per_dim)
    if len(spec.variables) == 2:
        a, b = spec.variables
        ga, gb = np.meshgrid(X[a], X[b], indexing="ij")
        X = {a: ga.ravel(), b: gb.ravel()}
    y, ok = evaluate_batch(target, X)
    if not ok:
        return False
    yhat, ok = evaluate_batch(cand, X)
    if not ok:
        return False
    return bool(np.max(np.abs(yhat - y)) < 1e-10)


def run_search(spec, config, rng_seed, mlm_model=None, check_every=1):
    """One search run; returns RunMetrics."""
    lib = spec.library()
    cfg = dc_replace(config, library=lib)
    rng = np.random.default_rng(rng_seed)
    controller = Controller(lib, cfg.hidden_size, seed=rng_seed)
    optimizer = Adam(cfg.learning_rate)
    cs = ConstraintSet()
    X, y = spec.dataset(np.random.default_rng(rng_seed ^ 0x5EED))

    n_invalid = 0
    n_total = 0
    best_r = -1.0
    best_trav = None
    trace = []
    solved_at = None
    checked = set()
    for step_i in range(1, cfg.max_steps + 1):
        traversals = sample_batch(controller, mlm_model, cs, cfg, rng)
        batch = []
        for trav in traversals:
            tree = traversal_to_tree(trav, lib)
            r, invalid = reward(tree, X, y)
            n_invalid += invalid
            n_total += 1
            batch.append((trav, r))
            if r > best_r:
                best_r = r
                best_trav = trav
        trace.append(best_r)
        if best_r > 0.9999 and best_trav.seq not in checked:
            checked.add(best_trav.seq)
            if recovered(traversal_to_tree(best_trav, lib), spec):
                solved_at = step_i
                break
        train_step(controller, batch, cfg, optimizer, mlm_model)
    from .expr_core import render_infix
    best_expr = render_infix(traversal_to_tree(best_trav, lib)) if best_trav else ""
    return RunMetrics(
        recovered=solved_at is not None,
        steps_to_solve=solved_at if solved_at is not None else cfg.max_steps,
        invalid_fraction=n_invalid / max(1, n_total),
        best_expression=best_expr,
        best_reward=best_r,
        reward_trace=trace,
        seed=rng_seed,
    )


def run_benchmark(spec, config, n_runs, with_mlm=False, mlm_model=None,
                  base_seed=0):
    """Independent runs with per-run seeds; reduced in run order."""
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    if with_mlm and mlm_model is None:
        raise ValueError("with_mlm requires a model")
    out = []
    for run in range(n_runs):
        out.append(run_search(spec, config, base_seed + run,
                              mlm_model=mlm_model if with_mlm else None))
    return out


CSV_HEADER = ["benchmark", "run", "seed", "lambda", "with_mlm", "recovered",
              "steps", "invalid_fraction", "best_expression"]


def write_metrics_csv(path, rows, append=False):
    mode = "a" if append else "w"
    with open(path, mode, newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        if not append:
            w.writerow(CSV_HEADER)
        for row in rows:
            w.writerow(row)


def metrics_rows(benchmark_name, metrics, lam, with_mlm):
    rows = []
    for run, m in enumerate(metrics):
        rows.append([benchmark_name, run, m.seed, lam, int(with_mlm),
                     int(m.recovered), m.steps_to_solve,
                     f"{m.invalid_fraction:.6f}", m.best_expression])
    return rows


def summarize(metrics):
    n = len(metrics)
    return {
        "recovery_rate": sum(m.recovered for m in metrics) / n,
        "mean_steps": sum(m.steps_to_solve for m in metrics) / n,
        "mean_invalid": sum(m.invalid_fraction for m in metrics) / n,
    }
