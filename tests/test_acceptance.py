"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 10 and 11 run real searches and dominate the runtime (minutes, not
hours).  Everything else is seconds.
"""

import io
import itertools
import math
import time

import numpy as np
import pytest

from mathcorpus import dsr, mlm
from mathcorpus.corpus import CorpusSample, read_corpus, write_corpus
from mathcorpus.dsr import (
    Controller,
    SRConfig,
    builtin_benchmarks,
    sample_batch,
    train_step,
)
from mathcorpus.expr_core import (
    Traversal,
    default_library,
    is_complete,
    render_latex,
    traversal_to_tree,
    tree_to_traversal,
)
from mathcorpus.latex_parser import parse_expression
from mathcorpus.recurrent import Adam, softmax

from conftest import plain_traversal, random_tree, rename_variables
import test_latex_fixtures as fx
import test_mlm
import test_wiki_extract as wx


ACCEPTANCE_LINES = []


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"ACCEPTANCE {number} {name}: {status}{suffix}"
    ACCEPTANCE_LINES.append(line)
    print("\n" + line)
    assert ok, f"criterion {number} ({name}) failed{suffix}"


def test_criterion_01_roundtrip_suite():
    lib = default_library(n_vars=2)
    rng = np.random.default_rng(20240817)
    start = time.monotonic()
    ok = True
    for _ in range(1000):
        tree = random_tree(lib, rng, max_depth=8)
        # the corpus encoder names the variables by first appearance
        trav = tree_to_traversal(tree, lib)
        if traversal_to_tree(trav, lib) != rename_variables(tree):
            ok = False
            break
        from mathcorpus.latex_parser import normalize

        canon = normalize(tree)
        back = parse_expression(render_latex(canon), lib)
        if back != canon:
            ok = False
            break
    elapsed = time.monotonic() - start
    report(1, "round-trip suite", ok and elapsed < 5.0, f"{elapsed:.2f}s")


def test_criterion_02_traversal_oracle():
    from mathcorpus.expr_core import (
        CONSTANT,
        Library,
        OPERATOR,
        Token,
        VARIABLE,
    )
    from test_expr_core import decoded, oracle_build, oracle_prefix

    lib = Library([
        Token("add", 2, OPERATOR), Token("sin", 1, OPERATOR),
        Token("x1", 0, VARIABLE), Token("1", 0, CONSTANT),
    ])
    agree = True
    for length in range(7):
        for seq in itertools.product(range(4), repeat=length):
            trav = Traversal(seq)
            want_c = oracle_build(list(seq), lib) if seq else False
            want_p = oracle_prefix(list(seq), lib)
            # traversal_to_tree, the decoder the search calls, builds a
            # tree exactly where the sequence is complete, and raises
            # InvalidPrefix exactly where no suffix completes it
            if is_complete(trav, lib) != want_c or \
                    decoded(trav, lib) != (want_c, want_p):
                agree = False
                break
    report(2, "traversal enumeration oracle", agree)


def test_criterion_03_latex_fixture_corpus():
    n = len(fx.FIXTURES)
    failures = [latex for latex, s, v in fx.FIXTURES
                if not fx._agrees(latex, s, v)]
    undocumented = [f for f in failures if f not in fx.KNOWN_DIVERGENCES]
    # the \int flag + replace/split exact-output checks
    t = fx.TestIntegralAugmentation()
    try:
        t.test_marker_in_place()
        t.test_replace()
        t.test_split()
        integral_ok = True
    except AssertionError:
        integral_ok = False
    ok = n >= 50 and len(failures) <= 2 and not undocumented and integral_ok
    report(3, "latex fixture corpus", ok,
           f"{n - len(failures)}/{n} exact, divergences={failures}")


def test_criterion_04_extraction_fixtures():
    tally = {}
    records = []
    for page in wx.stream_pages(io.BytesIO(wx.FIXTURE_XML)):
        records.extend(wx.extract_math(page, tally))
    xml_ok = len(records) == 5 and tally.get("unterminated") == 1

    links, pages = wx.category_fixture()
    start = time.monotonic()
    tree = wx.build_category_tree("A", links, pages, max_depth=3)
    elapsed = time.monotonic() - start
    sql_ok = elapsed < 1.0 and set(tree.nodes) == {"A", "B"} \
        and tree.page_ids == {100, 200}
    report(4, "extraction fixtures", xml_ok and sql_ok,
           f"records={len(records)} cycle={elapsed * 1000:.0f}ms")


def test_criterion_05_mlm_gradient_check():
    lib = test_mlm.tiny5()
    start = time.monotonic()
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(500 + seed)
        model = mlm.init(lib, 6, 8, seed=seed)
        model.W_out += rng.uniform(-0.3, 0.3, model.W_out.shape)
        model.b_out += rng.uniform(-0.3, 0.3, model.b_out.shape)
        seqs = test_mlm.random_seqs(lib, rng, 3)
        worst = max(worst, test_mlm.finite_difference_check(model, seqs))
    elapsed = time.monotonic() - start
    report(5, "mlm gradient check", worst < 1e-4 and elapsed < 30.0,
           f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_06_mlm_overfit():
    lib = test_mlm.tiny5()
    model = mlm.init(lib, 16, 24, seed=0)
    seq = [0, 1, 2, 1, 4]
    history = mlm.train(model, [seq], epochs=500, lr=0.5, seed=0)
    final = history[-1]
    report(6, "mlm overfit", final < 0.01, f"final CE {final:.5f}")


def test_criterion_07_lambda_zero_equivalence():
    spec = builtin_benchmarks()["nguyen-1"]
    lib = spec.library()
    config = SRConfig(library=lib, lam=0.0, batch_size=100, max_steps=50)
    model = mlm.init(lib, 8, 16, seed=3)
    X, y = spec.dataset(np.random.default_rng(99))
    sd = dsr.target_spread(y)

    def trajectory(with_model):
        controller = Controller(lib, dsr.HIDDEN_SIZE, seed=0)
        opt = Adam(dsr.LEARNING_RATE)
        rng = np.random.default_rng(0)
        tokens = []
        for _ in range(config.max_steps):
            record = []
            travs = sample_batch(controller, model if with_model else None,
                                 config, rng, record)
            for t in travs:
                tokens.extend(t.seq)
            seqs, lengths = dsr._padded(travs)
            rewards, _ = dsr.batch_rewards(seqs, lengths, lib.tokens, X, y,
                                           sd)
            train_step(controller, seqs, lengths, rewards, config, opt,
                       record)
        return tokens

    a, b = trajectory(True), trajectory(False)
    report(7, "lambda=0 bit-equivalence", a == b,
           f"{len(a)} tokens compared")


def test_criterion_08_constraint_soundness():
    lib = default_library(n_vars=2)
    config = SRConfig(library=lib, batch_size=500)
    controller = Controller(lib, dsr.HIDDEN_SIZE, seed=0)
    rng = np.random.default_rng(8)
    trig = {"sin", "cos", "tan"}
    inverse = {("log", "exp"), ("exp", "log")}
    violations = 0
    total = 0
    while total < 100_000:
        travs = sample_batch(controller, None, config, rng)
        for trav in travs:
            total += 1
            if not is_complete(trav, lib):
                violations += 1
                continue
            if not (dsr.MIN_LENGTH <= len(trav) <= dsr.MAX_LENGTH):
                violations += 1
                continue
            tree = traversal_to_tree(trav, lib)

            def scan(node, in_trig):
                name = node.root.name
                if name in trig and in_trig:
                    return False
                for c in node.children:
                    if (name, c.root.name) in inverse:
                        return False
                    if not scan(c, in_trig or name in trig):
                        return False
                return True

            if not scan(tree, False):
                violations += 1
    report(8, "constraint soundness", violations == 0,
           f"{total} samples, {violations} violations")


def test_criterion_09_inverse_temperature_identity():
    rng = np.random.default_rng(9)
    worst = 0.0
    for lam in [round(0.1 * k, 1) for k in range(1, 11)]:
        for _ in range(100):
            l = rng.normal(size=12) * 4
            worst = max(worst, float(np.max(np.abs(
                softmax(lam * l) - softmax(l / (1.0 / lam))))))
    report(9, "inverse-temperature identity", worst < 1e-12,
           f"max diff {worst:.2e}")


def test_criterion_10_table1_slice():
    spec = builtin_benchmarks()["nguyen-1"]
    config = SRConfig(library=spec.library(), max_steps=2000)
    start = time.monotonic()
    metrics = dsr.run_benchmark(spec, config, n_runs=20, base_seed=0)
    elapsed = time.monotonic() - start
    summary = dsr.summarize(metrics)
    ok = summary["recovery_rate"] >= 0.9 and summary["mean_steps"] < 600 \
        and elapsed <= 1800
    report(10, "desk-scale table-1 slice", ok,
           f"recovery {100 * summary['recovery_rate']:.0f}%, "
           f"mean steps {summary['mean_steps']:.1f}, {elapsed / 60:.1f} min")


def _power_biased_model(lib):
    """MLM trained on a corpus dominated by exp(a * log(b)) power patterns."""
    seqs = []
    names = [["exp", "mul", a, "log", b]
             for a in ("x", "y") for b in ("x", "y")]
    for pattern in names:
        seqs.extend([[lib.index_of(n) for n in pattern]] * 25)
    # light background so other tokens are not unseen
    seqs.extend([[lib.index_of(n) for n in ("add", "x", "y")]] * 5)
    model = mlm.init(lib, 8, 32, seed=0)
    mlm.train(model, seqs, epochs=60, lr=0.3, seed=0)
    return model


def test_criterion_11_directional_mlm_effect():
    spec = builtin_benchmarks()["nguyen-11"]
    lib = spec.library()
    model = _power_biased_model(lib)
    base = SRConfig(library=lib, max_steps=300)
    without = dsr.summarize(dsr.run_benchmark(spec, base, 20, base_seed=0))
    with_cfg = SRConfig(library=lib, lam=0.5, max_steps=300)
    withm = dsr.summarize(dsr.run_benchmark(spec, with_cfg, 20,
                                            mlm_model=model, base_seed=0))
    produced = math.isfinite(without["mean_steps"]) \
        and math.isfinite(withm["mean_steps"])
    direction = "faster with prior" if withm["mean_steps"] < without["mean_steps"] \
        else "not faster with prior"
    report(11, "directional mlm effect", produced,
           f"mean steps with MLM {withm['mean_steps']:.1f} vs "
           f"without {without['mean_steps']:.1f}; {direction}; informational")


def test_criterion_12_format_roundtrips(tmp_path):
    lib = default_library(n_vars=2)
    rng = np.random.default_rng(12)

    samples, seen = [], set()
    while len(samples) < 200:
        trav = plain_traversal(random_tree(lib, rng, max_depth=6), lib)
        if trav.seq not in seen:
            seen.add(trav.seq)
            samples.append(CorpusSample(trav, int(rng.integers(1, 999)),
                                        "none"))
    cpath = tmp_path / "c.corpus"
    write_corpus(samples, cpath, lib)
    corpus_ok = read_corpus(cpath, lib) == samples

    model = mlm.init(lib, 6, 8, seed=0)
    mlm.train(model, [list(s.traversal) for s in samples[:20]],
              epochs=2, lr=0.05, seed=0)
    mpath = tmp_path / "m.mlm"
    mlm.save(model, mpath)
    mlm_ok = mlm.load(mpath).equal(model)

    metrics = [dsr.RunMetrics(bool(i % 2), 10 * i + 1, i / 10, "x", seed=i)
               for i in range(10)]
    rows = dsr.metrics_rows("nguyen-1", metrics, 0.0, False)
    csvp = tmp_path / "m.csv"
    dsr.write_metrics_csv(csvp, rows)
    import csv as _csv

    with open(csvp, newline="") as f:
        reader = _csv.reader(f)
        next(reader)
        read_back = list(reader)
    mean_steps_csv = sum(int(r[6]) for r in read_back) / len(read_back)
    csv_ok = abs(mean_steps_csv - dsr.summarize(metrics)["mean_steps"]) < 1e-9
    report(12, "format round-trips", corpus_ok and mlm_ok and csv_ok)
