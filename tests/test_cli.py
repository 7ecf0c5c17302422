import json
import multiprocessing

import pytest

from mathcorpus import mlm
from mathcorpus.cli import main
from mathcorpus.expr_core import default_library

from test_wiki_extract import CL_SQL, FIXTURE_XML, page_xml


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

    def test_missing_sql_dump_exit_2(self, tmp_path, dump, capsys):
        code = main(["extract", "--dump", str(dump),
                     "--out", str(tmp_path / "o.jsonl"),
                     "--category", "Physics", "--sql-categorylinks",
                     str(tmp_path / "nocl.sql"), "--sql-page", str(dump)])
        assert code == 2
        assert "nocl.sql" in capsys.readouterr().err

    def test_category_without_sql_is_usage_error(self, tmp_path, dump, capsys):
        code, _, _ = run_extract(tmp_path, dump, capsys,
                                 extra=["--category", "Physics"])
        assert code == 2

    def test_category_flags_checked_before_the_dump_is_read(self, tmp_path,
                                                            capsys):
        bad = tmp_path / "bad.xml"
        bad.write_bytes(b"<mediawiki><page></mediawiki>")
        code = main(["extract", "--dump", str(bad), "--out",
                     str(tmp_path / "o.jsonl"), "--category", "Physics"])
        assert code == 2
        err = capsys.readouterr().err
        assert "--sql-categorylinks" in err and "malformed" not in err


    def test_unwritable_out_fails_before_the_dump_is_read(self, tmp_path,
                                                          capsys):
        bad = tmp_path / "bad.xml"
        bad.write_bytes(b"<mediawiki><page></mediawiki>")
        code = main(["extract", "--dump", str(bad), "--out",
                     str(tmp_path / "no-such-dir" / "o.jsonl")])
        assert code == 2
        err = capsys.readouterr().err
        assert "o.jsonl" in err and "malformed" not in err

    @pytest.mark.parametrize("cl, pg, named", [
        ("('x','Physics','','','','','page')", "(1,0,'Alpha')",
         "categorylinks row ('x', 'Physics'"),
        ("(1,'Physics','','','','','page')", "(1,2.5,'Alpha')",
         "page row (1, 2.5, 'Alpha')"),
    ])
    def test_non_integer_sql_id_names_the_row(self, tmp_path, dump, capsys,
                                              cl, pg, named):
        paths = []
        for table, values in (("categorylinks", cl), ("page", pg)):
            path = tmp_path / f"{table}.sql"
            path.write_text(f"INSERT INTO `{table}` VALUES {values};\n")
            paths.append(str(path))
        code = main(["extract", "--dump", str(dump), "--out",
                     str(tmp_path / "o.jsonl"), "--category", "Physics",
                     "--sql-categorylinks", paths[0], "--sql-page", paths[1]])
        assert code == 2
        assert named in capsys.readouterr().err

    def test_non_integer_page_namespace_names_the_page(self, tmp_path,
                                                       capsys):
        bad = tmp_path / "bad.xml"
        bad.write_text("<mediawiki>" + page_xml(1, "Alpha", "<math>x</math>",
                                                ns="x") + "</mediawiki>")
        code = main(["extract", "--dump", str(bad), "--out",
                     str(tmp_path / "o.jsonl")])
        assert code == 2
        assert "malformed dump: page 'Alpha'" in capsys.readouterr().err


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

    @pytest.mark.parametrize("record", [
        '{"page_id": 2}', '{"page_id": "2", "latex": "x"}',
        '{"page_id": 2, "latex": 5}', '{"page_id": true, "latex": "x"}',
        '[2, "x"]', '{"page_id": 2,'])
    def test_bad_record_names_the_line(self, tmp_path, capsys, record):
        jsonl = tmp_path / "exprs.jsonl"
        jsonl.write_text('{"page_id": 1, "latex": "x"}\n\n' + record + "\n")
        code = main(["corpus", "--in", str(jsonl),
                     "--out", str(tmp_path / "c.corpus")])
        assert code == 2
        assert f"{jsonl}, line 3:" in capsys.readouterr().err

    def test_max_vars_zero_rejected_before_reading(self, tmp_path, capsys):
        code = main(["corpus", "--in", str(tmp_path / "absent.jsonl"),
                     "--out", str(tmp_path / "c.corpus"), "--max-vars", "0"])
        assert code == 2
        assert "--max-vars" in capsys.readouterr().err

    def test_too_deep_to_normalize_is_dropped(self, tmp_path, capsys):
        # sums of 600 and 5,000 terms nest too deeply to normalize; they
        # count as parse failures instead of ending the stage
        latex = ["x^2+1"] + ["+".join(["x"] * n) for n in (300, 600, 5000)]
        jsonl = tmp_path / "deep.jsonl"
        jsonl.write_text("".join(
            json.dumps({"page_id": i, "page_title": "P", "offset": 0,
                        "latex": text}) + "\n"
            for i, text in enumerate(latex, 1)))
        out = tmp_path / "deep.corpus"
        assert main(["corpus", "--in", str(jsonl), "--out", str(out)]) == 0
        rows = [row.split("\t") for row in out.read_text().splitlines()[1:]]
        assert [(page, len(seq.split())) for page, _, seq in rows] == [
            ("1", 5), ("2", 599)]
        stats = json.loads((tmp_path / "deep.corpus.stats.json").read_text())
        assert stats["n_dropped"] == 2


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

    @pytest.mark.parametrize("line", ["1\tadd x1 1", "one\tnone\tadd x1 1"])
    def test_malformed_corpus_line_names_it(self, tmp_path, capsys, line):
        corpus = tmp_path / "c.corpus"
        write_tiny_corpus(corpus, lines=("2\tnone\tsin x1", line))
        code = main(["mlm-train", "--corpus", str(corpus),
                     "--out", str(tmp_path / "m.mlm")])
        assert code == 2
        assert f"{corpus}, line 3:" in capsys.readouterr().err

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

    @pytest.mark.parametrize("flag, value", [("--batch-size", "0"),
                                             ("--batch-size", "-3"),
                                             ("--max-steps", "-2")])
    def test_sizes_below_one_exit_2(self, tmp_path, capsys, flag, value):
        out = tmp_path / "metrics.csv"
        code = main(["sr", "--benchmark", "nguyen-1", "--runs", "1",
                     "--no-mlm", flag, value, "--out", str(out)])
        assert code == 2
        assert f"{flag} must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_lambda_with_mlm_exit_2(self, tmp_path, capsys):
        from mathcorpus import dsr

        weights = tmp_path / "m.mlm"
        lib = dsr.builtin_benchmarks()["nguyen-1"].library()
        mlm.save(mlm.init(lib, 4, 4, seed=0), weights)
        code = main(["sr", "--benchmark", "nguyen-1", "--runs", "1",
                     "--with-mlm", str(weights), "--lambda", "-1"])
        assert code == 2
        assert "--lambda must be >= 0" in capsys.readouterr().err

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

    def test_spec_library_token_must_have_a_meaning(self, tmp_path, capsys):
        # "z" is neither a declared variable nor a number
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "name": "lin", "expression": "x + x", "variables": ["x"],
            "library": ["add", "mul", "x", "1", "z"],
        }))
        code = main(["sr", "--spec", str(spec), "--runs", "1", "--no-mlm",
                     "--max-steps", "2", "--batch-size", "30"])
        assert code == 2
        assert "'z'" in capsys.readouterr().err

    def test_constant_target_spec_exit_2(self, tmp_path, capsys):
        # x - x + 1 is 1 everywhere, so NRMSE has no scale
        spec = tmp_path / "const.json"
        spec.write_text(json.dumps({
            "name": "const", "expression": "x - x + 1", "variables": ["x"],
            "library": ["add", "mul", "x", "1"],
        }))
        code = main(["sr", "--spec", str(spec), "--runs", "1", "--no-mlm",
                     "--max-steps", "2", "--batch-size", "30"])
        assert code == 2
        err = capsys.readouterr().err
        assert "const.json" in err and "constant" in err


class TestJobs:
    """``sr --jobs``: runs in forked workers, never more than 2 here."""

    SR = ["sr", "--benchmark", "nguyen-1", "--runs", "2", "--max-steps", "3",
          "--batch-size", "30", "--seed", "4"]

    def _csv(self, tmp_path, jobs, *flags):
        out = tmp_path / f"jobs{jobs}.csv"
        assert main([*self.SR, *flags, "--jobs", str(jobs),
                     "--out", str(out)]) == 0
        assert multiprocessing.active_children() == []
        return out.read_bytes()

    @pytest.mark.parametrize("flags", [
        ["--no-mlm"],
        ["--with-mlm", "{prior}", "--lambda", "0.5"],
        ["--with-mlm", "{prior}", "--lambda-sweep"],
    ], ids=["no-mlm", "lambda", "sweep"])
    def test_csv_identical_at_any_jobs(self, tmp_path, capsys, flags):
        from mathcorpus import dsr

        weights = tmp_path / "m.mlm"
        lib = dsr.builtin_benchmarks()["nguyen-1"].library()
        mlm.save(mlm.init(lib, 4, 4, seed=0), weights)
        flags = [f.format(prior=weights) for f in flags]
        assert self._csv(tmp_path, 1, *flags) == self._csv(tmp_path, 2, *flags)

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_jobs_below_one_exit_2(self, capsys, value):
        code = main([*self.SR, "--no-mlm", "--jobs", value])
        assert code == 2
        assert "--jobs must be >= 1" in capsys.readouterr().err

    def test_jobs_in_config_is_checked_like_a_flag(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        for jobs, code in ((2, 0), ("two", 2)):
            cfg.write_text(json.dumps({"jobs": jobs}))
            assert main([*self.SR, "--no-mlm", "--config", str(cfg)]) == code
        assert "--jobs: invalid int value" in capsys.readouterr().err

    @pytest.mark.parametrize("expression, message", [
        ("x + z", "undeclared variable 'z'"),
        ("x +", "does not parse"),
        ("log(x)", "invalid on sampled points"),  # per run, in the workers
    ], ids=["undeclared", "unparsable", "invalid-on-points"])
    def test_bad_spec_target_exit_2(self, tmp_path, capsys, expression,
                                    message):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "name": "t", "expression": expression, "variables": ["x"],
            "library": ["add", "log", "x"]}))
        code = main(["sr", "--spec", str(spec), "--no-mlm", "--runs", "2",
                     "--jobs", "2", "--max-steps", "2", "--batch-size", "30"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {spec}:") and message in err
        assert multiprocessing.active_children() == []


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

    def test_config_must_be_an_object(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1]")
        code = main(["report", "--out", str(tmp_path / "r.tsv"),
                     "--config", str(cfg)])
        assert code == 2
        assert "JSON object" in capsys.readouterr().err

    def test_flag_equal_to_its_default_still_wins(self, tmp_path, capsys):
        corpus = tmp_path / "c.corpus"
        write_tiny_corpus(corpus)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 3, "hidden": 4, "emb": 4}))
        code = main(["mlm-train", "--corpus", str(corpus),
                     "--out", str(tmp_path / "m.mlm"), "--config", str(cfg),
                     "--epochs", "200"])
        assert code == 0
        assert capsys.readouterr().out.count("epoch=") == 201

    def test_config_value_is_type_checked_like_a_flag(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"runs": "2", "max_steps": 1,
                                   "batch_size": 10, "no_mlm": True}))
        out = tmp_path / "metrics.csv"
        code = main(["sr", "--benchmark", "nguyen-1", "--config", str(cfg),
                     "--out", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 3  # header + 2 runs

    def test_config_choice_is_a_usage_error(self, tmp_path, dump, capsys):
        jsonl = tmp_path / "exprs.jsonl"
        assert main(["extract", "--dump", str(dump), "--out", str(jsonl)]) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"policy": "bogus"}))
        code = main(["corpus", "--in", str(jsonl),
                     "--out", str(tmp_path / "c.corpus"), "--config", str(cfg)])
        assert code == 2
        assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["extract", "--dump", "{missing}", "--out", "{tmp}/o.jsonl"],
    ["corpus", "--in", "{missing}", "--out", "{tmp}/c.corpus"],
    ["mlm-train", "--corpus", "{missing}", "--out", "{tmp}/m.mlm"],
    ["sr", "--spec", "{missing}", "--no-mlm"],
    ["sr", "--benchmark", "nguyen-1", "--with-mlm", "{missing}"],
    ["report", "--metrics", "{missing}", "--out", "{tmp}/r.tsv"],
    ["sr", "--config", "{missing}"],
], ids=lambda argv: argv[0] + argv[1])
def test_missing_file_exit_2_names_it(tmp_path, capsys, argv):
    missing = str(tmp_path / "absent")
    code = main([a.format(missing=missing, tmp=tmp_path) for a in argv])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: cannot open {missing}:")


@pytest.mark.parametrize("argv", [
    ["corpus", "--in", "{tmp}", "--out", "{tmp}/c.corpus"],
    ["sr", "--spec", "{tmp}", "--no-mlm"],
], ids=lambda argv: argv[0] + argv[1])
def test_directory_input_exit_2_names_it(tmp_path, capsys, argv):
    code = main([a.format(tmp=tmp_path) for a in argv])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: cannot open {tmp_path}:")


def test_unwritable_output_exit_2_names_it(tmp_path, dump, capsys):
    out = tmp_path / "no-such-dir" / "o.jsonl"
    code = main(["extract", "--dump", str(dump), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: cannot open {out}:")
