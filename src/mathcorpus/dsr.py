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
    ExprTree,
    Library,
    Token,
    Traversal,
    VARIABLE,
    evaluate_batch,
    evaluate_prefix,
    render_infix,
    traversal_to_tree,
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


class _SlotState:
    """Pre-order slot bookkeeping for B sequences at once, in arrays.

    Row b's open operators form a stack in columns [1, depth[b]] of tok
    (library index), rem (children still to fill) and last (root of the
    most recently completed child, -1 for none); column 0 stands for the
    empty stack, with no parent and no sibling.  n is the length so far,
    open the dangling slot count d_k, trig the trig operators among the
    open ancestors.
    """

    def __init__(self, lib, B, max_len):
        tb = _lib_tables(lib)
        self.arities, self.is_trig = tb["arities"], tb["is_trig"]
        self.seq = np.zeros((B, max_len), dtype=np.int64)
        self.tok = np.full((B, max_len + 1), -1, dtype=np.int64)
        self.rem = np.zeros((B, max_len + 1), dtype=np.int64)
        self.last = np.full((B, max_len + 1), -1, dtype=np.int64)
        self.depth = np.zeros(B, dtype=np.int64)
        self.n = np.zeros(B, dtype=np.int64)
        self.open = np.ones(B, dtype=np.int64)
        self.trig = np.zeros(B, dtype=np.int64)
        self.done = np.zeros(B, dtype=bool)

    def parent_sibling(self, rows):
        """Parent and sibling of each row's next slot; -1 for empty."""
        top = self.depth[rows]
        return self.tok[rows, top], self.last[rows, top]

    def push(self, rows, picks):
        """Append picks[i] to row rows[i]; rows must be distinct."""
        if self.done[rows].any():
            raise CompleteTraversal("expression already complete")
        ar = self.arities[picks]
        self.seq[rows, self.n[rows]] = picks
        self.n[rows] += 1
        self.open[rows] += ar - 1
        is_op = ar > 0
        r, p = rows[is_op], picks[is_op]
        self.depth[r] += 1
        top = self.depth[r]
        self.tok[r, top] = p
        self.rem[r, top] = ar[is_op]
        self.last[r, top] = -1
        self.trig[r] += self.is_trig[p]
        # a terminal completes a subtree: close the operators it finishes,
        # one tree level per pass
        r, root = rows[~is_op], picks[~is_op]
        while r.size:
            empty = self.depth[r] == 0
            self.done[r[empty]] = True
            r, root = r[~empty], root[~empty]
            top = self.depth[r]
            self.rem[r, top] -= 1
            self.last[r, top] = root
            closed = self.rem[r, top] == 0
            r, top = r[closed], top[closed]
            root = self.tok[r, top]
            self.trig[r] -= self.is_trig[root]
            self.depth[r] -= 1


def _replay(partial, lib):
    st = _SlotState(lib, 1, len(partial))
    for idx in partial:
        st.push(np.zeros(1, dtype=np.int64), np.array([idx]))
    if st.done[0]:
        raise CompleteTraversal("traversal is already complete")
    return st


def parent_sibling(partial, lib):
    """Parent and sibling tokens of the slot the next token will fill.

    Returns library indices, with None for empty.  Both are empty before the
    first token.
    """
    parent, sibling = _replay(partial, lib).parent_sibling(0)
    return (int(parent) if parent >= 0 else None,
            int(sibling) if sibling >= 0 else None)


def _lib_tables(lib):
    tables = getattr(lib, "_constraint_tables", None)
    if tables is None:
        arities = np.array(lib.arities())
        ops = [OPS.get(t.name) for t in lib.tokens]
        is_trig = np.array([op is not None and op.trig for op in ops],
                           dtype=np.int64)
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


def constraint_logits(cs, lib, partial, min_length=4, max_length=30):
    """Public form of the per-step mask; recomputes state from the prefix."""
    st = _replay(partial, lib)
    parent, _ = st.parent_sibling(np.zeros(1, dtype=np.int64))
    return cs.mask_batch(lib, st.n, st.open, st.trig, parent,
                         min_length, max_length)[0]


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

    def input_batch(self, parent, sibling):
        """One-hot inputs for arrays of parents and siblings; -1 is empty."""
        V = self.V
        x = np.zeros((len(parent), 2 * (V + 1)))
        rows = np.arange(len(parent))
        x[rows, np.where(parent < 0, V, parent)] = 1.0
        x[rows, V + 1 + np.where(sibling < 0, V, sibling)] = 1.0
        return x

    def initial_state(self, batch=1):
        return np.zeros((batch, self.hidden))

    def step_batch(self, x, state):
        h, cache = self.cell.forward(x, state)
        logits = h @ self.W_out + self.b_out
        return logits, h, cache


def _mlm_inputs(parent, sibling, bos):
    # the sibling (the most recently completed elder subtree's root) is the
    # closest thing to "the previous token" for a model trained on flat
    # sequences; fall back to the parent, then BOS
    return np.where(sibling >= 0, sibling, np.where(parent >= 0, parent, bos))


def sample_batch(controller, mlm_model, cs, config, rng, batch_size=None):
    """Vectorized draw of a batch of COMPLETE traversals.

    Implements the per-step recurrence of the sampling algorithm for all
    sequences at once; inactive (already complete) rows keep consuming their
    lane with the inputs of an empty prefix, but their draws are discarded.
    """
    lib = config.library
    B = batch_size if batch_size is not None else config.batch_size
    V = len(lib)
    st = _SlotState(lib, B, config.max_length)
    h_dsr = controller.initial_state(B)
    h_mlm = mlm_model.initial_state(B) if mlm_model is not None else None
    mlm_prev = np.full(B, mlm_model.bos if mlm_model is not None else 0,
                       dtype=np.int64)
    rows = np.arange(B)
    for _ in range(config.max_length):
        live = ~st.done
        if not live.any():
            break
        parent, sibling = st.parent_sibling(rows)  # -1 on finished rows
        masks = cs.mask_batch(lib, np.where(live, st.n, 0),
                              np.where(live, st.open, 1), st.trig, parent,
                              config.min_length, config.max_length)
        l_dsr, h_dsr, _ = controller.step_batch(
            controller.input_batch(parent, sibling), h_dsr)
        if mlm_model is not None:
            mlm_prev[live] = _mlm_inputs(parent, sibling, mlm_model.bos)[live]
            l_mlm, h_mlm = mlm_model.step_batch(mlm_prev, h_mlm)
            combined = l_dsr + config.lam * l_mlm + masks
        else:
            combined = l_dsr + masks
        p = softmax(combined, axis=1)
        u = rng.random(B)
        cum = np.cumsum(p, axis=1)
        picks = (cum < u[:, None]).sum(axis=1)
        np.clip(picks, 0, V - 1, out=picks)
        live_rows = rows[live]
        st.push(live_rows, picks[live_rows])
    return [Traversal(s[:k]) for s, k in zip(st.seq.tolist(), st.n)]


def sample_expression(controller, mlm_model, cs, config, rng):
    """Sample one COMPLETE traversal (batch-of-one specialization)."""
    return sample_batch(controller, mlm_model, cs, config, rng, batch_size=1)[0]


def reward(expr, X, y):
    """1 / (1 + NRMSE); 0 for expressions that evaluate Invalid anywhere.

    ``expr`` is an ExprTree or a pre-order list of Tokens.  Returns
    (reward, invalid flag).  X maps variable name -> sample array.
    """
    y = np.asarray(y, dtype=float)
    sd = float(np.std(y))
    if sd == 0.0:
        raise DegenerateTarget("target values are constant")
    evaluate = evaluate_batch if isinstance(expr, ExprTree) else evaluate_prefix
    try:
        yhat, ok = evaluate(expr, X)
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
                            mlm_model=None, cs=None):
    """Risk-seeking surrogate objective and its exact controller gradients.

    J = mean_i adv_i * log p(tau_i) + entropy_weight * mean_i sum_t H_t.
    The prior logits and constraint masks enter the softmax but are treated
    as constants; gradients flow only through the controller logits.  ``cs``
    must be the constraint set the traversals were sampled under (default:
    ConstraintSet()).
    """
    lib = config.library
    if cs is None:
        cs = ConstraintSet()
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
        masks[t, rows] = cs.mask_batch(lib, st.n[rows], st.open[rows],
                                       st.trig[rows], parent,
                                       config.min_length, config.max_length)
        if mlm_model is not None:
            mlm_inputs[t, rows] = _mlm_inputs(parent, sibling, mlm_model.bos)
        st.push(rows, seqs[rows, t])

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


def train_step(controller, batch, config, optimizer, mlm_model=None, cs=None):
    """One risk-seeking policy update from a batch of (traversal, reward).

    ``cs`` is the constraint set the batch was sampled under."""
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
                                       config, mlm_model, cs)
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
            r, invalid = reward([lib.tokens[i] for i in trav.seq], X, y)
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
        train_step(controller, batch, cfg, optimizer, mlm_model, cs)
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
