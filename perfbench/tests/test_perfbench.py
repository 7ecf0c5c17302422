"""Tests of the benchmark's own code: the input generator, the self-time
arithmetic, and a toy-size run of every workload through its checks."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for p in (ROOT / "src", ROOT):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

from mathcorpus import dsr  # noqa: E402
from mathcorpus.expr_core import Traversal, is_complete  # noqa: E402

from perfbench import gen, layers, run  # noqa: E402
from perfbench.trace import Span, Tracer, self_times  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    CheckFailed, Ingest, MlmTrain, Runner, Search)


def _read_all(paths):
    return {k: Path(p).read_bytes() for k, p in paths.items()}


def test_dump_is_deterministic_per_seed(tmp_path):
    a, exp_a = gen.write_dump(tmp_path / "a", seed=5, n_pages=300)
    b, exp_b = gen.write_dump(tmp_path / "b", seed=5, n_pages=300)
    c, exp_c = gen.write_dump(tmp_path / "c", seed=6, n_pages=300)
    assert _read_all(a) == _read_all(b)
    assert exp_a == exp_b
    assert _read_all(a)["dump"] != _read_all(c)["dump"]
    assert exp_a.pages > 300  # category description pages are added
    assert 0 < exp_a.kept_expressions and 0 < exp_a.unterminated


def test_prior_sequences_deterministic_and_complete():
    lib = dsr.builtin_benchmarks()["nguyen-5"].library()
    a = gen.prior_sequences(lib, seed=3, n=50)
    assert a == gen.prior_sequences(lib, seed=3, n=50)
    assert a != gen.prior_sequences(lib, seed=4, n=50)
    assert all(is_complete(Traversal(s), lib) and len(s) <= 12 for s in a)


def test_self_time_on_hand_built_tree():
    # root [0, 10] has children [1, 4] and [3, 6] (overlapping, covering
    # [1, 6]) and [8, 12] (clipped to [8, 10]); [1, 4] has a child [2, 3].
    spans = [
        Span(0, None, "root", 0.0, 10.0, 0),
        Span(1, 0, "a", 1.0, 4.0, 0),
        Span(2, 0, "a", 3.0, 6.0, 0),
        Span(3, 0, "b", 8.0, 12.0, 0),
        Span(4, 1, "c", 2.0, 3.0, 0),
    ]
    incl, self_, calls = self_times(spans)
    assert self_["root"] == pytest.approx(10.0 - 5.0 - 2.0)
    assert self_["a"] == pytest.approx((3.0 - 1.0) + 3.0)
    assert self_["b"] == pytest.approx(4.0)
    assert self_["c"] == pytest.approx(1.0)
    assert incl["a"] == pytest.approx(6.0)
    assert calls == {"root": 1, "a": 2, "b": 1, "c": 1}


def test_tracer_nests_calls_and_generators():
    class Mod:
        @staticmethod
        def outer(n):
            return sum(Mod.items(n))

        @staticmethod
        def items(n):
            yield from range(n)

    tracer = Tracer()
    tracer.patch(Mod, "items", "items", generator=True)
    tracer.patch(Mod, "outer", "outer")
    with tracer.span("top"):
        assert Mod.outer(3) == 3
    tracer.unpatch()
    assert Mod.outer(3) == 3 and len(tracer.spans) == 6
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    assert len(by_name["items"]) == 4  # three items and the final stop
    outer = by_name["outer"][0]
    assert outer.parent == by_name["top"][0].id
    assert all(s.parent == outer.id for s in by_name["items"])


TOY = {
    "ingest": lambda r, w: Ingest(r, w, seed=2, pages=300),
    "mlm-train": lambda r, w: MlmTrain(r, w, seed=2, pages=800),
    "search": lambda r, w: Search(r, w, seed=2, runs=1, max_steps=1,
                                  prior_samples=100, prior_epochs=3),
}


@pytest.mark.parametrize("name", sorted(TOY))
@pytest.mark.parametrize("trace", [False, True])
def test_toy_run_passes_checks(name, trace, tmp_path, capsys):
    runner = Runner()
    workload = TOY[name](runner, tmp_path / "work")
    metrics = run.measure(workload, runner, seconds=0.0, trace=trace,
                          span_path=tmp_path / "spans.jsonl")
    assert runner.failed == 0 and runner.attempted >= run.MIN_PASSES
    if trace:
        assert set(metrics) == {n for n, _, _ in layers.PER_LAYER}
        spans = (tmp_path / "spans.jsonl").read_text().splitlines()
        main_cli = {"ingest": "cli.extract", "mlm-train": "cli.mlm_train",
                    "search": "cli.sr"}[name]
        assert main_cli in {json.loads(s)["name"] for s in spans}
        if name == "search":
            for mode in ("plain", "prior"):
                assert metrics[f"dsr.{mode}.steps"][0] == 1
                assert metrics[f"dsr.{mode}.mean_length"][0] > 0
    else:
        assert set(metrics) == {"throughput", "setup_s", "peak_rss_mb"}
        assert all(v > 0 for v, _ in metrics.values())


def test_wrong_output_fails_the_check(tmp_path, capsys):
    runner = Runner()
    workload = Ingest(runner, tmp_path / "work", seed=2, pages=300)
    workload.setup()
    workload.expect.kept_expressions += 1
    workload.run_pass()
    with pytest.raises(CheckFailed):
        workload.check()
    assert runner.failed == 1
