"""The benchmark workloads: set-up, one timed pass of CLI commands, and the
checks on what those commands wrote.

Every program call goes through ``mathcorpus.cli.main`` in this process,
with the same arguments a user would type.  A pass returns the work it did
and the wall time of the commands the work is divided by; ``check`` raises
CheckFailed when an output is wrong.  Why each workload exists is recorded
in gen.py, next to the inputs it generates.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from mathcorpus import cli, corpus, dsr, mlm
from mathcorpus.expr_core import default_library, is_complete
from mathcorpus.latex_parser import parse_plain

from . import gen


class CheckFailed(Exception):
    pass


@dataclass
class PassResult:
    """Work done in a pass, by named rate: label -> (units of work, wall
    seconds of the commands that did it); and recovered runs per search
    mode."""

    parts: dict
    recovered: dict = field(default_factory=dict)

    @property
    def rate(self):
        return (sum(w for w, _ in self.parts.values())
                / sum(s for _, s in self.parts.values()))


class Runner:
    """Calls the CLI in-process and counts attempted and failed commands."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.tracer = None  # set while a traced pass runs

    def cli(self, *argv, scope=None):
        """Run one command; ``scope`` labels its spans in a traced pass."""
        argv = [str(a) for a in argv]
        self.attempted += 1
        out = io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(out):
            if self.tracer is None:
                rc = cli.main(argv)
            else:
                self.tracer.scope = scope
                try:
                    with self.tracer.span("cli." + argv[0].replace("-", "_")):
                        rc = cli.main(argv)
                finally:
                    self.tracer.scope = None
        seconds = perf_counter() - start
        if rc != 0:
            self.failed += 1
            raise CheckFailed(f"`{' '.join(argv)}` exited with {rc}")
        return out.getvalue(), seconds

    def expect(self, ok, message):
        """A failed output check counts as a failed command."""
        if not ok:
            self.failed += 1
            raise CheckFailed(message)


def _fields(text, keys):
    """Integer ``key=value`` fields from a CLI summary line."""
    out = {}
    for key in keys:
        m = re.search(rf"\b{key}=(\d+)", text)
        if m is None:
            raise CheckFailed(f"no {key}= in CLI output {text!r}")
        out[key] = int(m.group(1))
    return out


def _ingest_commands(run, paths, work, category):
    extract = ["extract", "--dump", paths["dump"],
               "--out", work / "exprs.jsonl"]
    if category:
        extract += ["--category", gen.ROOT_CATEGORY,
                    "--sql-categorylinks", paths["links_sql"],
                    "--sql-page", paths["page_sql"],
                    "--depth", gen.FILTER_DEPTH]
    out_x, t_x = run.cli(*extract)
    out_c, t_c = run.cli("corpus", "--in", work / "exprs.jsonl",
                         "--out", work / "math.corpus")
    return out_x, out_c, t_x + t_c


def _check_corpus(run, path, summary):
    """The corpus file holds exactly the reported samples, all complete."""
    lib = default_library(n_vars=2, name="std2")
    n = _fields(summary, ["samples"])["samples"]
    with open(str(path) + ".stats.json") as f:
        stats = json.load(f)
    run.expect(stats["n_samples"] == n,
               f"stats sidecar has {stats['n_samples']} samples, CLI said {n}")
    samples = corpus.read_corpus(path, lib)
    run.expect(len(samples) == n,
               f"read_corpus returned {len(samples)} samples, expected {n}")
    run.expect(all(is_complete(s.traversal, lib) for s in samples),
               "corpus holds an incomplete traversal")
    return samples


class Ingest:
    """extract (category filter on) then corpus, over a generated dump."""

    name = "ingest"
    unit = "MB/s"

    def __init__(self, run, work, seed, pages=20000):
        self.run, self.work, self.seed, self.pages = run, Path(work), seed, pages

    def setup(self):
        self.paths, self.expect = gen.write_dump(self.work / "dump", self.seed,
                                                 self.pages)

    def run_pass(self):
        self.out_x, self.out_c, seconds = _ingest_commands(
            self.run, self.paths, self.work, category=True)
        return PassResult(
            {"ingest_mb_per_s": (self.expect.dump_bytes / 1e6, seconds)})

    def check(self):
        got = _fields(self.out_x, ["pages", "expressions", "unterminated"])
        want = {"pages": self.expect.pages,
                "expressions": self.expect.kept_expressions,
                "unterminated": self.expect.unterminated}
        self.run.expect(got == want, f"extract reported {got}, generator "
                                     f"emitted {want}")
        _check_corpus(self.run, self.work / "math.corpus", self.out_c)


class MlmTrain:
    """mlm-train at the CLI defaults on a corpus built by extract + corpus."""

    name = "mlm-train"
    unit = "tok/s"

    def __init__(self, run, work, seed, pages=4000, epochs=1):
        self.run, self.work, self.seed = run, Path(work), seed
        self.pages, self.epochs = pages, epochs

    def setup(self):
        paths, _ = gen.write_dump(self.work / "dump", self.seed, self.pages)
        _, out_c, _ = _ingest_commands(self.run, paths, self.work,
                                       category=False)
        samples = _check_corpus(self.run, self.work / "math.corpus", out_c)
        self.tokens = sum(len(s.traversal) for s in samples)

    def run_pass(self):
        trained = []
        save = mlm.save

        def capture(model, path):
            trained.append(model)
            return save(model, path)

        mlm.save = capture
        try:
            self.out, seconds = self.run.cli(
                "mlm-train", "--corpus", self.work / "math.corpus",
                "--out", self.work / "math.mlm", "--epochs", self.epochs,
                "--seed", self.seed)
        finally:
            mlm.save = save
        self.trained = trained
        return PassResult(
            {"mlm_train_tokens_per_s": (self.epochs * self.tokens, seconds)})

    def check(self):
        losses = [float(x) for x in re.findall(r"loss=(\S+)", self.out)]
        self.run.expect(len(losses) == self.epochs + 1,
                        f"{len(losses)} loss lines for {self.epochs} epochs")
        self.run.expect(all(math.isfinite(x) for x in losses),
                        f"non-finite loss in {losses}")
        self.run.expect(losses[-1] < losses[0],
                        f"last epoch loss {losses[-1]} not below baseline "
                        f"{losses[0]}")
        self.run.expect(len(self.trained) == 1, "mlm-train saved no model")
        lib = default_library(n_vars=2, name="std2")
        reloaded = mlm.load(self.work / "math.mlm", lib)
        self.run.expect(reloaded.equal(self.trained[0]),
                        "saved weights do not reload equal to the trained model")


class Search:
    """`sr --no-mlm`, then `sr --with-mlm --lambda 0.5` with the same step
    budget and seeds, then `report` on the two CSVs."""

    name = "search"
    unit = "steps/s"
    target = "nguyen-5"

    def __init__(self, run, work, seed, runs=2, max_steps=5,
                 prior_samples=800, prior_epochs=6):
        self.run, self.work, self.seed = run, Path(work), seed
        self.runs, self.max_steps = runs, max_steps
        self.prior_samples, self.prior_epochs = prior_samples, prior_epochs
        self.prior_path = self.work / "prior.mlm"
        self.csvs = {"plain": self.work / "plain.csv",
                     "prior": self.work / "prior.csv"}

    def setup(self):
        # The CLI trains only on the std libraries, whose vocabulary no
        # search library shares, so the prior is trained through the library
        # API on the search library's own tokens.
        self.work.mkdir(parents=True, exist_ok=True)
        lib = dsr.builtin_benchmarks()[self.target].library()
        seqs = gen.prior_sequences(lib, self.seed, self.prior_samples)
        model = mlm.init(lib, d_emb=16, hidden=32, seed=self.seed)
        history = mlm.train(model, seqs, epochs=self.prior_epochs, lr=0.01,
                            batch=64, seed=self.seed)
        if not history[-1] < history[0]:
            raise CheckFailed(f"prior training did not lower the loss: "
                              f"{history}")
        mlm.save(model, self.prior_path)

    def run_pass(self):
        parts, recovered = {}, {}
        self.rows = {}
        for mode, flags, label in (
                ("plain", ["--no-mlm"], "search_steps_per_s"),
                ("prior", ["--with-mlm", self.prior_path, "--lambda", "0.5"],
                 "search_prior_steps_per_s")):
            _, seconds = self.run.cli(
                "sr", "--benchmark", self.target, *flags, "--runs", self.runs,
                "--max-steps", self.max_steps, "--seed", self.seed,
                "--out", self.csvs[mode], scope=mode)
            with open(self.csvs[mode], newline="") as f:
                self.rows[mode] = list(csv.DictReader(f))
            parts[label] = (sum(int(r["steps"]) for r in self.rows[mode]),
                            seconds)
            recovered[mode] = sum(int(r["recovered"]) for r in self.rows[mode])
        self.report_out, _ = self.run.cli(
            "report", "--metrics", self.csvs["plain"], self.csvs["prior"],
            "--out", self.work / "report.txt")
        return PassResult(parts, recovered)

    def check(self):
        run = self.run
        spec = dsr.builtin_benchmarks()[self.target]
        lib = spec.library()
        for mode, rows in self.rows.items():
            run.expect(len(rows) == self.runs,
                       f"{mode}: {len(rows)} CSV rows for {self.runs} runs")
            for r in rows:
                steps = int(r["steps"])
                run.expect(1 <= steps <= self.max_steps,
                           f"{mode} run {r['run']} took {steps} steps, "
                           f"budget {self.max_steps}")
                if r["recovered"] == "1":
                    tree = parse_plain(r["best_expression"], lib)
                    run.expect(dsr.recovered(tree, spec),
                               f"reported recovery {r['best_expression']!r} "
                               "does not verify")
                else:
                    run.expect(steps == self.max_steps,
                               f"{mode} run {r['run']} stopped at {steps} "
                               "steps without a recovery")
        for path in self.csvs.values():
            run.expect(f"recovery({path})" in self.report_out,
                       f"report does not list {path}")


WORKLOADS = {w.name: w for w in (Ingest, MlmTrain, Search)}
