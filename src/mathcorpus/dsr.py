"""Neural-guided symbolic regression with an optional language-model prior.

An autoregressive recurrent controller emits logits over the token library,
conditioned on the parent and sibling of the tree slot being filled.  Per
step, three logit vectors are summed: controller logits, the language-model
prior scaled by the inverse temperature lambda, and constraint logits that
are 0 or -inf.  A categorical draw from the softmax picks the next token.
Training is risk-seeking REINFORCE on the top reward quantile of each batch,
read from what the sampling pass recorded.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace as dc_replace
from functools import partial
from itertools import chain

import numpy as np

from .expr_core import (
    CONSTANT,
    OPS,
    Library,
    Token,
    Traversal,
    VARIABLE,
    evaluate_batch,
    evaluate_rows,
    node,
    render_latex,
    traversal_to_tree,
)
from .latex_parser import LatexError, normalize, parse_expression
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

    Row b's open slots form a stack, the next to fill on top, in columns
    [1, open[b]] of par (the parent's library index), sib (the sibling's,
    -1 until drawn), trig (the trig operators among the slot's ancestors)
    and more (the parent's next child's slot lies just below), (B, width)
    arrays stored flat from base[b]; column 0 is a finished row's empty
    stack, with no parent and no sibling.  n is the length so far and open
    the dangling slot count d_k.  The constraint masks of every key
    ``mask`` reads are tabulated once per state.
    """

    def __init__(self, lib, B, max_len):
        self.arities = np.array(lib.arities())
        ops = [OPS.get(t.name) for t in lib.tokens]
        self.is_trig = np.array([op is not None and op.trig for op in ops],
                                dtype=np.int64)
        # the 0/-inf logits of every key of ``mask``: the length room
        # max_length - n - d, clipped to [-1, max arity], plus one (it masks
        # the tokens of higher arity); too short for a terminal; under a
        # trig operator; and parent + 1
        room, short, trig, parent = np.indices(
            (self.arities.max() + 2, 2, 2, len(ops) + 1))[..., None]
        masked = ((self.arities > room - 1)
                  | (short == 1) & (self.arities == 0)
                  | (trig == 1) & (self.is_trig == 1))
        for i, op in enumerate(ops):  # no operator directly below its inverse
            if op is not None and op.inverse in lib.index:
                masked[..., lib.index[op.inverse]] |= parent[..., 0] == i + 1
        self.table = np.where(masked, NEG_INF, 0.0)
        self.infeasible = masked.all(axis=-1)
        self.children = np.arange(self.arities.max())
        # up to 1 + n * (max arity - 1) slots, plus a push's max-arity writes
        width = 2 + max_len * max(len(self.children) - 1, 0)
        self.seq = np.zeros((B, max_len), dtype=np.int64)
        self.base = np.arange(B) * width
        self.par = np.full(B * width, -1, dtype=np.int64)
        self.sib = np.full(B * width, -1, dtype=np.int64)
        self.trig = np.zeros(B * width, dtype=np.int64)
        self.more = np.zeros(B * width, dtype=bool)
        self.n = np.zeros(B, dtype=np.int64)
        self.open = np.ones(B, dtype=np.int64)

    def slot(self, rows):
        """Parent, sibling (-1 for none) and trig ancestor count of each
        row's next slot; -1, -1 and 0 on a finished row."""
        top = self.base[rows] + self.open[rows]
        return self.par[top], self.sib[top], self.trig[top]

    def push(self, rows, picks):
        """Append picks[i] to row rows[i]; rows must be distinct.  A pick
        pops its slot and pushes one slot per child, the first on top."""
        depth = self.open[rows]
        if not depth.all():
            raise CompleteTraversal("expression already complete")
        self.seq[rows, self.n[rows]] = picks
        self.n[rows] += 1
        top = self.base[rows] + depth
        first = self.more[top]  # the pick is its next child's sibling
        self.sib[top[first] - 1] = picks[first]
        kids = top[:, None] + self.children
        self.par[kids] = picks[:, None]
        self.sib[kids] = -1
        self.trig[kids] = (self.trig[top] + self.is_trig[picks])[:, None]
        self.more[kids] = self.children > 0
        self.open[rows] = depth + self.arities[picks] - 1

    def mask(self, n, d, trig, parent, min_length, max_length):
        """Constraint logits, 0 or -inf, of rows at length n with d open
        slots, trig open trig ancestors and parent (-1 for empty): the
        length bounds, no trig operator below another and no operator
        directly below its inverse.  One table lookup per row."""
        key = (np.clip(max_length - n - d, -1, len(self.table) - 2) + 1,
               ((d == 1) & (n + 1 < min_length)).astype(np.int64),
               (trig > 0).astype(np.int64), parent + 1)
        if self.infeasible[key].any():
            raise Infeasible("the constraints mask every token")
        return self.table[key]


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


def sample_batch(controller, mlm_model, config, rng, record=None):
    """Vectorized draw of config.batch_size COMPLETE traversals.

    Steps the policy for all unfinished sequences at once: controller
    logits, plus lambda times the prior's, plus the constraint mask, all
    read from one slot state.  The prior reads the token drawn last (BOS
    first), as in its training, so its share is the prior's own sequence
    log-probability.  The recurrent states drop the finished rows once they
    are an eighth of those stepped; until then those rows are stepped with
    the inputs of an empty prefix and their logits discarded.  When
    ``record`` is a list, each step appends what training reads back, for
    the unfinished rows only: their batch rows (ascending), controller
    inputs (parent, sibling), constraint masks and the prior's unscaled
    logits (None without a prior).
    """
    B = config.batch_size
    st = _SlotState(config.library, B, MAX_LENGTH)
    rows = np.arange(B)  # the rows stepped, the unfinished ones among them
    h = controller.initial_state(B)
    l_mlm = None
    if mlm_model is not None:
        h_mlm = mlm_model.initial_state(B)
        prev = np.full(B, mlm_model.bos, dtype=np.int64)
    for _ in range(MAX_LENGTH):
        live = st.open[rows] > 0
        if not live.any():
            break
        if len(rows) > 2 and 8 * np.count_nonzero(~live) >= len(rows):
            # never one row alone: numpy steps it with gemv, which rounds
            # unlike gemm, so one finished row stays beside it
            keep = live.copy()
            keep[np.argmin(live)] |= np.count_nonzero(live) == 1
            rows, h, live = rows[keep], h[keep], live[keep]
            if mlm_model is not None:
                h_mlm, prev = h_mlm[keep], prev[keep]
        parent, sibling, trig = st.slot(rows)
        logits, h = controller.forward(
            controller.input_batch(parent, sibling), h)
        if mlm_model is not None:
            l_mlm, h_mlm = mlm_model.step_batch(prev, h_mlm)
            logits = logits + config.lam * l_mlm
            l_mlm = l_mlm[live]
        u = rng.random(B)
        r, parent, sibling = rows[live], parent[live], sibling[live]
        masks = st.mask(st.n[r], st.open[r], trig[live], parent, MIN_LENGTH,
                        MAX_LENGTH)
        if record is not None:
            record.append((r, parent, sibling, masks, l_mlm))
        picks = draw(softmax(logits[live] + masks, axis=1), u[r])
        st.push(r, picks)
        if mlm_model is not None:
            prev[live] = picks
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
    lengths = np.fromiter(map(len, traversals), dtype=np.int64,
                          count=len(traversals))
    seqs = np.zeros((len(traversals), lengths.max()), dtype=np.int64)
    seqs[np.arange(seqs.shape[1]) < lengths[:, None]] = np.fromiter(
        chain.from_iterable(t.seq for t in traversals), dtype=np.int64,
        count=lengths.sum())
    return seqs, lengths


def objective_and_gradients(controller, seqs, lengths, advantages, config,
                            record, rows):
    """Risk-seeking surrogate objective and its exact controller gradients.

    J = mean_i adv_i * log p(tau_i) + ENTROPY_WEIGHT * mean_i sum_t H_t.
    The traversals are ``_padded``'s ``seqs`` and ``lengths``, ``record``
    is ``sample_batch``'s record of the draws, and ``rows`` the batch rows
    of the traversals in it.  The controller reruns on the
    recorded parents and siblings, and its logits are combined as sampling
    combined them, so training scores exactly the distribution that drew
    the tokens.  The prior logits and constraint masks are constants;
    gradients flow only through the controller logits.
    """
    k, T = seqs.shape
    live = np.arange(T)[:, None] < lengths
    # past a row's end: the empty prefix of every row's first step, and
    # prior logits 0; those steps add nothing to J but must stay finite
    parent, sibling = np.full((2, T, k), -1)
    masks = np.tile(record[0][3][0], (T, k, 1))
    prior = None if record[0][4] is None else np.zeros(masks.shape)
    for t, (r, p, s, m, l_mlm) in enumerate(record[:T]):
        i = live[t]
        at = np.searchsorted(r, rows[i])
        parent[t, i], sibling[t, i], masks[t, i] = p[at], s[at], m[at]
        if prior is not None:
            prior[t, i] = l_mlm[at]
    # every row runs every step, and every step's share of J and its logit
    # gradients are taken at once, over (T, k, V) arrays; padded steps add
    # nothing
    logits, cache = controller.unroll(
        controller.input_batch(parent.ravel(), sibling.ravel()),
        np.full(T, k))
    logits = logits.reshape(T, k, -1)
    if prior is not None:
        logits = logits + config.lam * prior
    logits = logits + masks
    adv = np.asarray(advantages, dtype=float)
    target = seqs.T[..., None]
    on = live.astype(float)
    p = softmax(logits, axis=2)
    lp = log_softmax(logits, axis=2)
    # a select, not a product: the pad may be masked to -inf
    picked = np.take_along_axis(lp, target, 2)[..., 0]
    shares = np.sum(adv * np.where(live, picked, 0.0), axis=1)
    onehot = np.zeros_like(p)
    np.put_along_axis(onehot, target, 1.0, 2)
    dlogits = (adv * on)[..., None] * (onehot - p) / k
    safe_lp = np.where(p > 0, lp, 0.0)
    H = -(p * safe_lp).sum(axis=2)
    entropies = np.sum(H * on, axis=1)
    dH = -p * (safe_lp + H[..., None])
    dlogits += ENTROPY_WEIGHT * on[..., None] * dH / k
    J = 0.0
    for share, entropy in zip(shares, entropies):  # in step order
        J += float(share) / k
        J += ENTROPY_WEIGHT * float(entropy) / k

    grads = controller.zero_grads()
    controller.bptt(dlogits.reshape(T * k, -1), cache, grads)
    return J, grads


def train_step(controller, seqs, lengths, rewards, config, optimizer,
               record):
    """One risk-seeking policy update from a batch of traversals, as
    ``_padded``'s ``seqs`` and ``lengths``, their rewards and
    ``sample_batch``'s record of the draws that made them; only the top
    rows are read."""
    if not len(rewards):
        raise ValueError("empty batch")
    baseline = float(np.quantile(rewards, 1.0 - RISK_FRACTION))
    k = max(1, int(round(RISK_FRACTION * len(rewards))))
    top = np.argsort(-rewards, kind="stable")[:k]
    J, grads = objective_and_gradients(
        controller, seqs[top, :lengths[top].max()], lengths[top],
        rewards[top] - baseline, config, record, top)
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
        if not isinstance(self.expression, str) or not all(
                isinstance(v, list) and all(isinstance(n, str) for n in v)
                for v in (self.variables, self.library_tokens)):
            raise DsrError("expression must be a string, and variables and "
                           "library lists of names")
        if not isinstance(self.n_points, int) or self.n_points < 1:
            raise DsrError(f"n_points must be an integer >= 1, "
                           f"not {self.n_points!r}")
        if not isinstance(self.ranges, dict) or not all(
                v in self.variables and isinstance(r, (list, tuple))
                and len(r) == 2 and all(isinstance(b, (int, float)) for b in r)
                and np.isfinite(r).all() and r[0] < r[1]
                for v, r in self.ranges.items()):
            raise DsrError(f"range must map variables to [lo, hi] pairs of "
                           f"finite numbers with lo < hi, and name declared "
                           f"variables only, not {self.ranges!r}")
        # every other library token is a declared variable or a number, and
        # must read back from LaTeX as itself, as best_expression is read:
        # as the base of a power and, in braces, alone
        for name in sorted({*self.variables, *self.library_tokens} - set(OPS)):
            kind = VARIABLE if name in self.variables else CONSTANT
            try:  # Token rejects an empty name
                tree = node(OPS["pow"].token, *[node(Token(name, 0, kind))] * 2)
                same = parse_expression(render_latex(tree)) == tree
            except (LatexError, ValueError):
                same = False
            if not same:
                raise DsrError(f"{kind} {name!r} does not read back from "
                               f"LaTeX as itself (a library token is an "
                               f"operator, a declared variable or a number)")
        try:  # a token twice, or no terminal
            self.library()
        except ValueError as e:
            raise DsrError(str(e)) from None
        try:
            tree = self.target_tree()
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

    def target_tree(self):
        """The one tree of the LaTeX target, read without the library: a
        target may use tokens the search lacks, such as nguyen-5's x^2."""
        return parse_expression(self.expression)

    def dataset(self, rng):
        X = {}
        for v in self.variables:
            lo, hi = self.ranges.get(v, (-1.0, 1.0))
            X[v] = rng.uniform(lo, hi, self.n_points)
        tree = self.target_tree()
        y, ok = evaluate_batch(tree, X)
        if not ok:
            raise DsrError(f"target {self.expression!r} invalid on sampled points")
        return X, y


_BASE_OPS = ["add", "sub", "mul", "div", "sin", "cos", "exp", "log"]


def builtin_benchmarks():
    """The twelve benchmark targets of the evaluation table, in LaTeX."""
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
            spec("nguyen-5", r"\sin(x^2) \cos(x) - 1", "x"),
            spec("nguyen-6", r"\sin(x) + \sin(x + x^2)", "x"),
            spec("nguyen-7", r"\log(x + 1) + \log(x^2 + 1)", "x",
                 ranges={"x": (0.0, 2.0)}),
            spec("nguyen-8", r"\sqrt{x}", "x", ranges={"x": (0.0, 4.0)},
                 extra=["sqrt"]),
            spec("nguyen-9", r"\sin(x) + \sin(y^2)", "xy",
                 ranges={"x": (0.0, 1.0), "y": (0.0, 1.0)}),
            spec("nguyen-10", r"2 \sin(x) \cos(y)", "xy",
                 ranges={"x": (0.0, 1.0), "y": (0.0, 1.0)}),
            spec("nguyen-11", "x^y", "xy",
                 ranges={"x": (0.0, 1.0), "y": (0.0, 1.0)}),
            spec("nguyen-12", r"x^4 - x^3 + \frac{1}{2} y^2 - y", "xy",
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
    target = spec.target_tree()
    cand = normalize(candidate)
    if cand == target:
        return True
    # each variable on its own axis, about grid_points ** 2 points in all
    n = round(grid_points ** (2 / max(len(spec.variables), 2)))
    axes = []
    for v in spec.variables:
        lo, hi = spec.ranges.get(v, (-1.0, 1.0))
        pad = (hi - lo) * 1e-6
        axes.append(np.linspace(lo + pad, hi - pad, n))
    X = {v: g.ravel() for v, g in zip(spec.variables,
                                      np.meshgrid(*axes, indexing="ij"))}
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
        record = []
        traversals = sample_batch(controller, mlm_model, cfg, rng, record)
        seqs, lengths = _padded(traversals)
        rewards, invalid = batch_rewards(seqs, lengths, lib.tokens, X, y, sd)
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
        if step_i < cfg.max_steps:  # an update no step would use is skipped
            train_step(controller, seqs, lengths, rewards, cfg, optimizer,
                       record)
    best_expr = render_latex(traversal_to_tree(best_trav, lib)) if best_trav else ""
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
    return list(fork_map(run, range(base_seed, base_seed + n_runs), jobs))


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
