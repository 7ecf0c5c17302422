import json

import pytest

from mathcorpus import mlm
from mathcorpus.cli import main
from mathcorpus.expr_core import default_library

from test_wiki_extract import CL_SQL, FIXTURE_XML


@pytest.fixture
def dump(tmp_path):
    p = tmp_path / "dump.xml"
    p.write_bytes(FIXTURE_XML)
    return p


def run_extract(tmp_path, dump, capsys, extra=()):
    out = tmp_path / "exprs.jsonl"
    code = main(["extract", "--dump", str(dump), "--out", str(out), *extra])
    return code, out, capsys.readouterr().out


class TestExtract:
    def test_fixture_summary(self, tmp_path, dump, capsys):
        code, out, printed = run_extract(tmp_path, dump, capsys)
        assert code == 0
        assert "pages=3 expressions=5 unterminated=1" in printed
        records = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(records) == 5
        assert records[0] == {"page_id": 1, "page_title": "Alpha",
                              "offset": records[0]["offset"], "latex": "x^2"}

    def test_missing_dump_exit_2(self, tmp_path, capsys):
        code = main(["extract", "--dump", str(tmp_path / "nope.xml"),
                     "--out", str(tmp_path / "o.jsonl")])
        assert code == 2
        assert "nope.xml" in capsys.readouterr().err

    def test_category_filter(self, tmp_path, dump, capsys):
        cl = tmp_path / "cl.sql"
        cl.write_text("INSERT INTO `categorylinks` VALUES "
                      "(1,'Physics','','','','','page');\n")
        pg = tmp_path / "pg.sql"
        pg.write_text("INSERT INTO `page` VALUES (1,0,'Alpha');\n")
        code, out, printed = run_extract(
            tmp_path, dump, capsys,
            extra=["--category", "Physics", "--sql-categorylinks", str(cl),
                   "--sql-page", str(pg), "--depth", "3"])
        assert code == 0
        records = [json.loads(l) for l in out.read_text().splitlines()]
        assert {r["page_id"] for r in records} == {1}

    def test_category_without_sql_is_usage_error(self, tmp_path, dump, capsys):
        code, _, _ = run_extract(tmp_path, dump, capsys,
                                 extra=["--category", "Physics"])
        assert code == 2


class TestCorpus:
    def _extract(self, tmp_path, dump):
        out = tmp_path / "exprs.jsonl"
        assert main(["extract", "--dump", str(dump), "--out", str(out)]) == 0
        return out

    def test_build_and_stats(self, tmp_path, dump, capsys):
        jsonl = self._extract(tmp_path, dump)
        capsys.readouterr()
        out = tmp_path / "c.corpus"
        code = main(["corpus", "--in", str(jsonl), "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert printed.startswith("samples=")
        stats = json.loads((tmp_path / "c.corpus.stats.json").read_text())
        assert stats["n_samples"] == len(out.read_text().splitlines()) - 1
        assert sum(stats["length_histogram"].values()) == stats["n_samples"]

    def test_deterministic(self, tmp_path, dump, capsys):
        jsonl = self._extract(tmp_path, dump)
        a, b = tmp_path / "a.corpus", tmp_path / "b.corpus"
        assert main(["corpus", "--in", str(jsonl), "--out", str(a)]) == 0
        assert main(["corpus", "--in", str(jsonl), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_input(self, tmp_path, capsys):
        code = main(["corpus", "--in", str(tmp_path / "no.jsonl"),
                     "--out", str(tmp_path / "c.corpus")])
        assert code == 2


def write_tiny_corpus(path, lines=("1\tnone\tadd x1 1", "2\tnone\tsin x1")):
    path.write_text("#mathcorpus v1 vocab=std2\n"
                    + "".join(l + "\n" for l in lines))


class TestMlmTrain:
    def test_train_and_reload(self, tmp_path, capsys):
        corpus = tmp_path / "c.corpus"
        write_tiny_corpus(corpus)
        out = tmp_path / "m.mlm"
        code = main(["mlm-train", "--corpus", str(corpus), "--out", str(out),
                     "--hidden", "8", "--emb", "6", "--epochs", "5",
                     "--lr", "0.5"])
        assert code == 0
        printed = capsys.readouterr().out
        lines = printed.strip().splitlines()
        assert lines[0].startswith("epoch=0 loss=")
        # training loss ends strictly below the log V baseline
        baseline = float(lines[0].split("loss=")[1])
        last = float(lines[-1].split("loss=")[1])
        assert last < baseline
        model = mlm.load(out, default_library(n_vars=2))
        assert model.hidden == 8

    def test_seed_reproducible(self, tmp_path, capsys):
        corpus = tmp_path / "c.corpus"
        write_tiny_corpus(corpus)
        a, b = tmp_path / "a.mlm", tmp_path / "b.mlm"
        args = ["mlm-train", "--corpus", str(corpus), "--hidden", "8",
                "--emb", "6", "--epochs", "3", "--seed", "5"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_empty_corpus_exit_2(self, tmp_path, capsys):
        corpus = tmp_path / "c.corpus"
        corpus.write_text("#mathcorpus v1 vocab=std2\n")
        code = main(["mlm-train", "--corpus", str(corpus),
                     "--out", str(tmp_path / "m.mlm")])
        assert code == 2


class TestSr:
    def test_runs_zero_exit_2(self, tmp_path, capsys):
        code = main(["sr", "--benchmark", "nguyen-1", "--runs", "0"])
        assert code == 2

    def test_unknown_benchmark(self, capsys):
        code = main(["sr", "--benchmark", "nguyen-99", "--runs", "1"])
        assert code == 2
        assert "nguyen-99" in capsys.readouterr().err

    def test_with_and_no_mlm_exclusive(self, tmp_path, capsys):
        code = main(["sr", "--benchmark", "nguyen-1", "--runs", "1",
                     "--no-mlm", "--with-mlm", str(tmp_path / "m.mlm")])
        assert code == 2
        assert "not allowed with" in capsys.readouterr().err

    def test_config_cannot_override_mlm_exclusion(self, tmp_path, capsys):
        from mathcorpus import dsr

        weights = tmp_path / "m.mlm"
        lib = dsr.builtin_benchmarks()["nguyen-1"].library()
        mlm.save(mlm.init(lib, 4, 4, seed=0), weights)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"with_mlm": str(weights)}))
        out = tmp_path / "metrics.csv"
        code = main(["sr", "--benchmark", "nguyen-1", "--runs", "1",
                     "--max-steps", "1", "--batch-size", "10", "--no-mlm",
                     "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert "not allowed with" in capsys.readouterr().err
        assert not out.exists()

    def test_tiny_run_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "metrics.csv"
        code = main(["sr", "--benchmark", "nguyen-1", "--runs", "1",
                     "--no-mlm", "--max-steps", "2", "--batch-size", "30",
                     "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "nguyen-1" in printed and "recovery=" in printed
        lines = out.read_text().splitlines()
        assert lines[0] == "benchmark,run,seed,lambda,with_mlm,recovered," \
                           "steps,invalid_fraction,best_expression"
        assert len(lines) == 2

    def test_spec_file(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "name": "lin", "expression": "x + x", "variables": ["x"],
            "n_points": 10, "range": {"x": [-1, 1]},
            "library": ["add", "mul", "x"],
        }))
        code = main(["sr", "--spec", str(spec), "--runs", "1", "--no-mlm",
                     "--max-steps", "2", "--batch-size", "30"])
        assert code == 0
        assert "lin" in capsys.readouterr().out


class TestReport:
    def _csv(self, path, rows):
        header = ("benchmark,run,seed,lambda,with_mlm,recovered,steps,"
                  "invalid_fraction,best_expression\n")
        path.write_text(header + "".join(",".join(map(str, r)) + "\n"
                                         for r in rows))

    def test_averages_match_recomputation(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        self._csv(a, [
            ["nguyen-1", 0, 0, 0.0, 0, 1, 100, "0.25", "(x + 1)"],
            ["nguyen-1", 1, 1, 0.0, 0, 0, 2000, "0.5", "x"],
            ["nguyen-2", 0, 0, 0.0, 0, 1, 50, "0.1", "x"],
        ])
        out = tmp_path / "report.txt"
        code = main(["report", "--metrics", str(a), "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[-1].startswith("Average:")
        avg = lines[-1].split("\t")[1:]
        # nguyen-1: 50% rec, 1050 steps, 37.5% invalid; nguyen-2: 100, 50, 10
        assert abs(float(avg[0].rstrip("%")) - 75.0) < 1e-9
        assert abs(float(avg[1]) - 550.0) < 1e-9
        assert abs(float(avg[2].rstrip("%")) - 23.75) < 1e-9
        assert (tmp_path / "report.txt.html").exists()

    def test_two_column_report(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        self._csv(a, [["nguyen-1", 0, 0, 0.0, 0, 1, 100, "0.2", "x"]])
        self._csv(b, [["nguyen-1", 0, 0, 0.5, 1, 1, 40, "0.1", "x"]])
        out = tmp_path / "r.txt"
        code = main(["report", "--metrics", str(a), str(b), "--out", str(out)])
        assert code == 0
        header = out.read_text().splitlines()[0]
        assert header.count("recovery(") == 2

    def test_schema_mismatch(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n1,2,3\n")
        code = main(["report", "--metrics", str(bad),
                     "--out", str(tmp_path / "r.txt")])
        assert code == 2


class TestConfigFile:
    def test_flags_win_over_config(self, tmp_path, capsys):
        corpus = tmp_path / "c.corpus"
        write_tiny_corpus(corpus)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 2, "hidden": 8, "emb": 6}))
        out = tmp_path / "m.mlm"
        code = main(["mlm-train", "--corpus", str(corpus), "--out", str(out),
                     "--config", str(cfg), "--epochs", "1"])
        assert code == 0
        printed = capsys.readouterr().out
        assert printed.count("epoch=") == 2  # baseline + 1 epoch, not 2

    def test_unknown_key_rejected(self, tmp_path, capsys):
        corpus = tmp_path / "c.corpus"
        write_tiny_corpus(corpus)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        code = main(["mlm-train", "--corpus", str(corpus),
                     "--out", str(tmp_path / "m.mlm"), "--config", str(cfg)])
        assert code == 2
