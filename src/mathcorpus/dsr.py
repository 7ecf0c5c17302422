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
from dataclasses import dataclass, field, replace as dc_replace
from functools import partial

import numpy as np

from .expr_core import (
    CONSTANT,
    OPS,
    Library,
    Token,
    Traversal,
    VARIABLE,
    constant_value,
    evaluate_batch,
    evaluate_rows,
    render_infix,
    traversal_to_tree,
)
from .latex_parser import LatexError, normalize, parse_plain
from .pool import fork_map
from .recurrent import Adam, GRUReadout, draw, log_softmax, softmax

NEG_INF = float("-inf")

# DSR's hyperparameters (Petersen et al., Deep symbolic regression, ICLR 2021)
RISK_FRACTION = 0.05  # the top reward quantile that trains the controller
LEARNING_RATE = 0.001
ENTROPY_WEIGHT = 0.005
MIN_LENGTH, MAX_LENGTH = 4, 30  # traversal length bounds, in tokens
HIDDEN_SIZE = 32  # the controller's GRU width


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

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lambda must be >= 0")


class _SlotState:
    """Pre-order slot bookkeeping for B sequences at once, in arrays.

    Row b's open operators form a stack in columns [1, depth[b]] of tok
    (library index), rem (children still to fill) and last (root of the
    most recently completed child, -1 for none); column 0 stands for the
    empty stack, with no parent and no sibling.  n is the length so far,
    open the dangling slot count d_k, trig the trig operators among the
    open ancestors.  The library's arity, trig and inverse tables, which
    ``mask`` reads, are built once per state.
    """

    def __init__(self, lib, B, max_len):
        self.arities = np.array(lib.arities())
        ops = [OPS.get(t.name) for t in lib.tokens]
        self.is_trig = np.array([op is not None and op.trig for op in ops],
                                dtype=np.int64)
        self.terminals = np.flatnonzero(self.arities == 0)
        self.trig_tokens = np.flatnonzero(self.is_trig)
        # (parent, child) index pairs where the child inverts the parent
        self.inverse_pairs = [(i, lib.index[op.inverse])
                              for i, op in enumerate(ops)
                              if op is not None and op.inverse in lib.index]
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

    def mask(self, n, d, trig, parent, min_length, max_length):
        """Constraint logits, 0 or -inf, of rows at length n with d open
        slots, trig open trig ancestors and parent (-1 for empty): the
        length bounds, no trig operator below another and no operator
        directly below its inverse."""
        masks = np.zeros((len(n), len(self.arities)))
        over = (n[:, None] + d[:, None] + self.arities[None, :]) > max_length
        masks[over] = NEG_INF
        short = np.flatnonzero((d == 1) & (n + 1 < min_length))
        masks[np.ix_(short, self.terminals)] = NEG_INF
        masks[np.ix_(np.flatnonzero(trig > 0), self.trig_tokens)] = NEG_INF
        for p, c in self.inverse_pairs:
            masks[parent == p, c] = NEG_INF
        if not (masks == 0.0).any(axis=1).all():
            raise Infeasible("the constraints mask every token")
        return masks


class Controller(GRUReadout):
    """Recurrent policy over the library, conditioned on parent and sibling.

    Input is the concatenation of two one-hots of size V+1 (the extra slot
    encodes "empty").  The output layer starts at zero so the initial policy
    is uniform over unmasked tokens.
    """

    def __init__(self, lib, hidden, seed):
        self.V = len(lib)
        super().__init__(2 * (self.V + 1), hidden, self.V,
                         np.random.default_rng(seed))

    def input_batch(self, parent, sibling):
        """One-hot inputs for arrays of parents and siblings; -1 is empty."""
        V = self.V
        x = np.zeros((len(parent), 2 * (V + 1)))
        rows = np.arange(len(parent))
        x[rows, np.where(parent < 0, V, parent)] = 1.0
        x[rows, V + 1 + np.where(sibling < 0, V, sibling)] = 1.0
        return x


class _Policy:
    """The per-step policy of B sequences: controller logits, plus lambda
    times the prior's, plus the constraint mask, all read from one slot
    state.  Sampling pushes its draws and the training replay the sampled
    tokens, so the replay scores exactly the distribution that drew them.
    The prior reads the token pushed last (BOS first), as in its training,
    so its share is the prior's own sequence log-probability.  A finished
    row sees the controller inputs of an empty prefix."""

    def __init__(self, controller, mlm_model, config, B, max_len):
        self.controller, self.mlm = controller, mlm_model
        self.config = config
        self.st = _SlotState(config.library, B, max_len)
        self.rows = np.arange(B)
        self.h = controller.initial_state(B)
        if mlm_model is not None:
            self.h_mlm = mlm_model.initial_state(B)
            self.mlm_prev = np.full(B, mlm_model.bos, dtype=np.int64)

    def step(self):
        """Combined logits of every row, the new controller state and the
        controller cache for ``backward``."""
        st, cfg = self.st, self.config
        live = ~st.done
        parent, sibling = st.parent_sibling(self.rows)  # -1 on finished rows
        masks = st.mask(np.where(live, st.n, 0), np.where(live, st.open, 1),
                        st.trig, parent, MIN_LENGTH, MAX_LENGTH)
        logits, self.h, cache = self.controller.forward(
            self.controller.input_batch(parent, sibling), self.h)
        if self.mlm is not None:
            l_mlm, self.h_mlm = self.mlm.step_batch(self.mlm_prev, self.h_mlm)
            logits = logits + cfg.lam * l_mlm
        return logits + masks, self.h, cache

    def push(self, picks, live):
        """Append picks[b] to each row b where live[b]."""
        rows = self.rows[live]
        self.st.push(rows, picks[rows])
        if self.mlm is not None:
            self.mlm_prev[rows] = picks[rows]


def sample_batch(controller, mlm_model, config, rng):
    """Vectorized draw of config.batch_size COMPLETE traversals.

    Steps the policy for all sequences at once; finished rows keep consuming
    their lane, but their draws are discarded.
    """
    B = config.batch_size
    policy = _Policy(controller, mlm_model, config, B, MAX_LENGTH)
    st = policy.st
    for _ in range(MAX_LENGTH):
        live = ~st.done
        if not live.any():
            break
        logits, _, _ = policy.step()
        policy.push(draw(softmax(logits, axis=1), rng.random(B)), live)
    return [Traversal(s[:k]) for s, k in zip(st.seq.tolist(), st.n)]


def target_spread(y):
    """The standard deviation that scales the RMSE in ``reward``."""
    sd = float(np.std(y))
    if sd == 0.0:
        raise DegenerateTarget("target values are constant")
    return sd


def batch_rewards(seqs, lengths, tokens, X, y, sd):
    """1 / (1 + NRMSE) of each traversal, as in ``evaluate_rows``, in one
    evaluator pass; 0 for those whose evaluator ``ok`` flag is false.

    ``sd`` is ``target_spread(y)``, and X maps variable name -> sample
    array.  Returns (rewards, invalid flags).  A row that cannot be
    evaluated at all, such as one with a variable X does not bind, raises
    its ExprError.
    """
    yhat, ok = evaluate_rows(seqs, lengths, tokens, X)
    with np.errstate(all="ignore"):
        rmse = np.sqrt(np.mean((yhat - y) ** 2, axis=1))
        invalid = ~ok | ~np.isfinite(rmse)
        return np.where(invalid, 0.0, 1.0 / (1.0 + rmse / sd)), invalid


def reward(tokens, X, y, sd):
    """``batch_rewards`` of one pre-order list of Tokens, as (reward,
    invalid flag)."""
    r, invalid = batch_rewards(np.arange(len(tokens))[None], [len(tokens)],
                               tokens, X, y, sd)
    return float(r[0]), bool(invalid[0])


def _padded(traversals):
    """The traversals as a (k, T) index matrix padded with token 0, and
    their lengths."""
    lengths = np.array([len(t.seq) for t in traversals])
    T = int(lengths.max())
    return (np.array([t.seq + (0,) * (T - len(t.seq)) for t in traversals]),
            lengths)


def objective_and_gradients(controller, traversals, advantages, config,
                            mlm_model=None):
    """Risk-seeking surrogate objective and its exact controller gradients.

    J = mean_i adv_i * log p(tau_i) + ENTROPY_WEIGHT * mean_i sum_t H_t.
    The prior logits and constraint masks enter the softmax but are treated
    as constants; gradients flow only through the controller logits.
    """
    seqs, lengths = _padded(traversals)
    k, T = seqs.shape

    # teacher-forced steps, with each step's share of J and its logit
    # gradients; padded steps add nothing
    adv = np.asarray(advantages, dtype=float)
    policy = _Policy(controller, mlm_model, config, k, T)
    rows = np.arange(k)
    J = 0.0
    steps = []
    for t in range(T):
        live = lengths > t
        on = live.astype(float)
        target = seqs[:, t]
        logits, h, cache = policy.step()
        p = softmax(logits, axis=1)
        lp = log_softmax(logits, axis=1)
        # a select, not a product: the pad may be masked to -inf
        J += float(np.sum(adv * np.where(live, lp[rows, target], 0.0))) / k
        onehot = np.zeros_like(p)
        onehot[rows, target] = 1.0
        dlogits = (adv * on)[:, None] * (onehot - p) / k
        safe_lp = np.where(p > 0, lp, 0.0)
        H = -(p * safe_lp).sum(axis=1)
        J += ENTROPY_WEIGHT * float(np.sum(H * on)) / k
        dH = -p * (safe_lp + H[:, None])
        dlogits += ENTROPY_WEIGHT * on[:, None] * dH / k
        steps.append((h, dlogits, cache))
        policy.push(target, live)

    grads = controller.zero_grads()
    controller.backward(steps, grads)
    return J, grads


def train_step(controller, batch, config, optimizer, mlm_model=None):
    """One risk-seeking policy update from a batch of (traversal, reward)."""
    if not batch:
        raise ValueError("empty batch")
    rewards = np.array([r for _, r in batch])
    baseline = float(np.quantile(rewards, 1.0 - RISK_FRACTION))
    k = max(1, int(round(RISK_FRACTION * len(batch))))
    order = np.argsort(-rewards, kind="stable")
    traversals = [batch[i][0] for i in order[:k]]
    advantages = [rewards[i] - baseline for i in order[:k]]
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

    def __post_init__(self):
        for name in self.library_tokens:
            if not (name in OPS or name in self.variables
                    or constant_value(Token(name, 0, CONSTANT)) is not None):
                raise DsrError(f"library token {name!r} is not an operator, "
                               f"a declared variable or a numeric constant")
        try:
            tree = self.target_tree(self.library())
        except LatexError as e:
            raise DsrError(f"target {self.expression!r} does not parse: {e}")
        for tok in (n.root for n in tree.iter_nodes()):
            if tok.kind == VARIABLE and tok.name not in self.variables:
                raise DsrError(f"target uses undeclared variable {tok.name!r}")

    def library(self):
        return Library([OPS[name].token if name in OPS else
                        Token(name, 0, VARIABLE if name in self.variables
                              else CONSTANT)
                        for name in self.library_tokens],
                       name=f"bench:{self.name}")

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
    for v in spec.variables:
        lo, hi = spec.ranges.get(v, (-1.0, 1.0))
        pad = (hi - lo) * 1e-6
        X[v] = np.linspace(lo + pad, hi - pad, grid_points)
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


def run_search(spec, config, rng_seed, mlm_model=None):
    """One search run; returns RunMetrics."""
    lib = spec.library()
    cfg = dc_replace(config, library=lib)
    rng = np.random.default_rng(rng_seed)
    controller = Controller(lib, HIDDEN_SIZE, seed=rng_seed)
    optimizer = Adam(LEARNING_RATE)
    X, y = spec.dataset(np.random.default_rng(rng_seed ^ 0x5EED))
    sd = target_spread(y)

    n_invalid = n_total = 0
    best_r, best_trav, solved_at = -1.0, None, None
    checked = set()
    for step_i in range(1, cfg.max_steps + 1):
        traversals = sample_batch(controller, mlm_model, cfg, rng)
        rewards, invalid = batch_rewards(*_padded(traversals), lib.tokens,
                                         X, y, sd)
        n_invalid += int(invalid.sum())
        n_total += len(traversals)
        i = int(np.argmax(rewards))  # the first maximum
        if rewards[i] > best_r:
            best_r, best_trav = rewards[i], traversals[i]
        if best_r > 0.9999 and best_trav.seq not in checked:
            checked.add(best_trav.seq)
            if recovered(traversal_to_tree(best_trav, lib), spec):
                solved_at = step_i
                break
        train_step(controller, list(zip(traversals, rewards)), cfg,
                   optimizer, mlm_model)
    best_expr = render_infix(traversal_to_tree(best_trav, lib)) if best_trav else ""
    return RunMetrics(
        recovered=solved_at is not None,
        steps_to_solve=solved_at if solved_at is not None else cfg.max_steps,
        invalid_fraction=n_invalid / max(1, n_total),
        best_expression=best_expr,
        seed=rng_seed,
    )


def run_benchmark(spec, config, n_runs, mlm_model=None, base_seed=0, jobs=1):
    """Independent runs with per-run seeds; reduced in run order.  The
    prior is in use when ``mlm_model`` is given.  With ``jobs`` > 1 the
    runs go to forked workers (``pool.fork_map``); the results are the
    same."""
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    run = partial(run_search, spec, config, mlm_model=mlm_model)
    return fork_map(run, range(base_seed, base_seed + n_runs), jobs)


CSV_HEADER = ["benchmark", "run", "seed", "lambda", "with_mlm", "recovered",
              "steps", "invalid_fraction", "best_expression"]


def write_metrics_csv(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(CSV_HEADER)
        w.writerows(rows)


def metrics_rows(benchmark_name, metrics, lam, with_mlm):
    return [[benchmark_name, run, m.seed, lam, int(with_mlm), int(m.recovered),
             m.steps_to_solve, f"{m.invalid_fraction:.6f}", m.best_expression]
            for run, m in enumerate(metrics)]


def summarize(metrics):
    n = len(metrics)
    return {
        "recovery_rate": sum(m.recovered for m in metrics) / n,
        "mean_steps": sum(m.steps_to_solve for m in metrics) / n,
        "mean_invalid": sum(m.invalid_fraction for m in metrics) / n,
    }
