import csv
import io
import json
import multiprocessing
import os
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
from contextlib import nullcontext
from pathlib import Path

import pytest

from mathcorpus import cli, latex_parser, mlm, wiki_extract
from mathcorpus.cli import _library_by_name, main
from mathcorpus.corpus import POLICIES, build_corpus, read_corpus, write_corpus
from mathcorpus.expr_core import (
    VARIABLE,
    default_library,
    node,
    traversal_to_tree,
    tree_to_traversal,
)

from test_mlm import MALFORMED_HEADERS, write_header
from test_wiki_extract import CL_SQL, FIXTURE_XML, page_xml


@pytest.fixture
def dump(tmp_path):
    p = tmp_path / "dump.xml"
    p.write_bytes(FIXTURE_XML)
    return p


def main_at_1_and_2_cpus(monkeypatch, capsys, argv):
    """``main(argv)`` with one and then two usable CPUs, which must give
    the same exit code and printed output and leave no process running;
    returns the exit code and what was printed to stdout and stderr."""
    results = []
    for n_cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid, n=n_cpus: set(range(n)))
        code = main(argv)
        assert multiprocessing.active_children() == []
        results.append((code, *capsys.readouterr()))
    assert results[0] == results[1]
    return results[0]


def run_extract(monkeypatch, tmp_path, dump, capsys, extra=()):
    out = tmp_path / "exprs.jsonl"
    code, printed, _ = main_at_1_and_2_cpus(
        monkeypatch, capsys,
        ["extract", "--dump", str(dump), "--out", str(out), *extra])
    return code, out, printed


class TestExtract:
    """Each command runs with one usable CPU, where the category tree is
    built in process, and with two, where a forked worker builds it."""

    def test_fixture_summary(self, monkeypatch, tmp_path, dump, capsys):
        code, out, printed = run_extract(monkeypatch, tmp_path, dump, capsys)
        assert code == 0
        assert "pages=3 expressions=5 unterminated=1" in printed
        records = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(records) == 5
        assert records[0] == {"page_id": 1, "page_title": "Alpha",
                              "offset": records[0]["offset"], "latex": "x^2"}

    def test_missing_dump_exit_2(self, monkeypatch, tmp_path, capsys):
        code, _, err = main_at_1_and_2_cpus(monkeypatch, capsys, [
            "extract", "--dump", str(tmp_path / "nope.xml"),
            "--out", str(tmp_path / "o.jsonl")])
        assert code == 2
        assert "nope.xml" in err

    def test_category_filter(self, monkeypatch, tmp_path, dump, capsys):
        cl = tmp_path / "cl.sql"
        cl.write_text("INSERT INTO `categorylinks` VALUES "
                      "(1,'Physics','','','','','page');\n")
        pg = tmp_path / "pg.sql"
        pg.write_text("INSERT INTO `page` VALUES (1,0,'Alpha');\n")
        code, out, printed = run_extract(
            monkeypatch, tmp_path, dump, capsys,
            extra=["--category", "Physics", "--sql-categorylinks", str(cl),
                   "--sql-page", str(pg), "--depth", "3"])
        assert code == 0
        records = [json.loads(l) for l in out.read_text().splitlines()]
        assert {r["page_id"] for r in records} == {1}

    def test_missing_sql_dump_exit_2(self, monkeypatch, tmp_path, dump,
                                     capsys):
        code, _, err = main_at_1_and_2_cpus(monkeypatch, capsys, [
            "extract", "--dump", str(dump), "--out", str(tmp_path / "o.jsonl"),
            "--category", "Physics", "--sql-categorylinks",
            str(tmp_path / "nocl.sql"), "--sql-page", str(dump)])
        assert code == 2
        assert "nocl.sql" in err

    def test_category_without_sql_is_usage_error(self, monkeypatch, tmp_path,
                                                  dump, capsys):
        code, _, _ = run_extract(monkeypatch, tmp_path, dump, capsys,
                                 extra=["--category", "Physics"])
        assert code == 2

    def test_category_flags_checked_before_the_dump_is_read(self, monkeypatch,
                                                            tmp_path, capsys):
        bad = tmp_path / "bad.xml"
        bad.write_bytes(b"<mediawiki><page></mediawiki>")
        code, _, err = main_at_1_and_2_cpus(monkeypatch, capsys, [
            "extract", "--dump", str(bad), "--out", str(tmp_path / "o.jsonl"),
            "--category", "Physics"])
        assert code == 2
        assert "--sql-categorylinks" in err and "malformed" not in err


    def test_unwritable_out_fails_before_the_dump_is_read(self, monkeypatch,
                                                          tmp_path, capsys):
        bad = tmp_path / "bad.xml"
        bad.write_bytes(b"<mediawiki><page></mediawiki>")
        code, _, err = main_at_1_and_2_cpus(monkeypatch, capsys, [
            "extract", "--dump", str(bad),
            "--out", str(tmp_path / "no-such-dir" / "o.jsonl")])
        assert code == 2
        assert "o.jsonl" in err and "malformed" not in err

    @pytest.mark.parametrize("cl, pg, named", [
        ("('x','Physics','','','','','page')", "(1,0,'Alpha')",
         "categorylinks row ('x','Physics','','','','','page'): column 1 is "
         "not an integer"),
        ("(1,'Physics','','','','','page')", "(1,2.5,'Alpha')",
         "page row (1,2.5,'Alpha'): column 2 is not an integer"),
        ("(1,Physics,'','','','','page')", "(1,0,'Alpha')",
         "categorylinks row (1,Physics,'','','','','page'): column 2 is not "
         "a quoted string"),
        ("(1,'Physics','','','','','page')", "(1,0,Alpha)",
         "page row (1,0,Alpha): column 3 is not a quoted string"),
        ("(1,'Physics','','','','','page')", "(NULL,0,'Alpha')",
         "page row (NULL,0,'Alpha'): column 1 is not an integer"),
        ("(1,'Physics','','','','','page')", "(1,0)",
         "page row (1,0) has 2 columns, expected at least 3"),
    ])
    def test_non_integer_sql_id_names_the_row(self, monkeypatch, tmp_path,
                                              dump, capsys, cl, pg, named):
        paths = []
        for table, values in (("categorylinks", cl), ("page", pg)):
            path = tmp_path / f"{table}.sql"
            path.write_text(f"INSERT INTO `{table}` VALUES {values};\n")
            paths.append(str(path))
        code, _, err = main_at_1_and_2_cpus(monkeypatch, capsys, [
            "extract", "--dump", str(dump), "--out", str(tmp_path / "o.jsonl"),
            "--category", "Physics",
            "--sql-categorylinks", paths[0], "--sql-page", paths[1]])
        assert code == 2
        assert named in err

    def test_negative_depth_is_a_usage_error(self, monkeypatch, tmp_path,
                                             capsys):
        def no_worker(*args):
            raise AssertionError("the category tree was started")

        monkeypatch.setattr(cli, "fork_call", no_worker)
        absent = str(tmp_path / "absent")
        code, _, err = main_at_1_and_2_cpus(monkeypatch, capsys, [
            "extract", "--dump", absent, "--out", str(tmp_path / "o.jsonl"),
            "--category", "Physics", "--sql-categorylinks", absent,
            "--sql-page", absent, "--depth", "-1"])
        assert code == 2
        assert err == "error: --depth must be >= 0\n"
        assert not (tmp_path / "o.jsonl").exists()

    def test_non_integer_page_namespace_names_the_page(self, monkeypatch,
                                                       tmp_path, capsys):
        bad = tmp_path / "bad.xml"
        bad.write_text("<mediawiki>" + page_xml(1, "Alpha", "<math>x</math>",
                                                ns="x") + "</mediawiki>")
        code, _, err = main_at_1_and_2_cpus(monkeypatch, capsys, [
            "extract", "--dump", str(bad), "--out", str(tmp_path / "o.jsonl")])
        assert code == 2
        assert "malformed dump: page 'Alpha'" in err


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

    def test_written_samples_decode_and_re_encode(self, tmp_path, capsys):
        # under every policy, each sample written from a generated dump is
        # one tree, whose encoding is the sample's indices again
        paths, _ = perfbench_gen().write_dump(tmp_path, 1, 300)
        jsonl = self._extract(tmp_path, paths["dump"])
        lib = default_library(n_vars=2)
        for policy in POLICIES:
            out = tmp_path / f"{policy}.corpus"
            assert main(["corpus", "--in", str(jsonl), "--out", str(out),
                         "--policy", policy]) == 0
            samples = read_corpus(out, lib)
            assert len(samples) > 100
            for s in samples:
                tree = traversal_to_tree(s.traversal, lib)
                assert tree_to_traversal(tree, lib) == s.traversal, s

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

    def test_max_vars_flag_is_gone(self, tmp_path, capsys):
        # the library's variable count is the limit
        code = main(["corpus", "--in", str(tmp_path / "absent.jsonl"),
                     "--out", str(tmp_path / "c.corpus"), "--max-vars", "0"])
        assert code == 2
        assert "unrecognized arguments: --max-vars" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["std-1", "std+3", "std 2", "std0"])
    def test_bad_library_name_rejected_before_reading(self, tmp_path, capsys,
                                                      name):
        code = main(["corpus", "--in", str(tmp_path / "absent.jsonl"),
                     "--out", str(tmp_path / "c.corpus"), "--library", name])
        assert code == 2
        assert f"unknown library {name!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("name, n_vars", [("std", 2), ("std1", 1),
                                              ("std12", 12)])
    def test_library_name_sets_the_variables(self, name, n_vars):
        lib = _library_by_name(name)
        assert lib.name == name
        assert [t.name for t in lib if t.kind == VARIABLE] \
            == [f"x{i}" for i in range(1, n_vars + 1)]

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


def perfbench_gen():
    """The benchmark's seeded dump generator, ``perfbench/gen.py``."""
    root = str(Path(__file__).resolve().parents[1])
    if root not in sys.path:
        sys.path.insert(0, root)
    from perfbench import gen

    return gen


@pytest.fixture(scope="module")
def generated_jsonl(tmp_path_factory):
    """``extract`` output of a 1,000-page ``perfbench/gen.py`` dump: about
    2,300 records, so three chunks of the corpus pool."""
    gen = perfbench_gen()
    work = tmp_path_factory.mktemp("generated")
    paths, _ = gen.write_dump(work, 1, 1000)
    out = work / "exprs.jsonl"
    assert main(["extract", "--dump", str(paths["dump"]), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) > 2 * cli.CORPUS_CHUNK_LINES
    return out


@pytest.fixture(scope="module")
def generated_dumps(tmp_path_factory):
    """Seed -> (paths, expectation) of 1,000-page ``perfbench/gen.py``
    dumps with their SQL tables, for seeds 1-3."""
    gen = perfbench_gen()
    work = tmp_path_factory.mktemp("dumps")
    return {seed: gen.write_dump(work / str(seed), seed, 1000)
            for seed in (1, 2, 3)}


def write_tree_rows(tmp_path):
    """The paths of a small categorylinks and page table whose rows
    exercise the tree's row selection."""
    links = tmp_path / "categorylinks.sql"
    links.write_text("INSERT INTO `categorylinks` VALUES " + ",".join(
        f"({i},'{to}','','2020-01-01','','','{kind}')"
        for i, to, kind in [(10, "Root", "subcat"), (11, "Root", "subcat"),
                            (20, "Sub", "page"), (21, "Root", "page"),
                            (22, "Root", "page"), (23, "Other", "page")])
        + ";\n")
    page = tmp_path / "page.sql"
    page.write_text("INSERT INTO `page` VALUES " + ",".join(
        f"({i},{ns},'{title}')"
        for i, ns, title in [(10, 0, "Sub"), (11, 14, "Other"),
                             (20, 0, "P20"), (21, 0, "P21"),
                             (21, 2, "User:21"), (22, 2, "User:22"),
                             (22, 0, "P22"), (30, 14, "Root")]) + ";\n")
    return links, page


def category_argv(paths, out, root):
    return ["extract", "--dump", str(paths["dump"]), "--out", str(out),
            "--category", root,
            "--sql-categorylinks", str(paths["links_sql"]),
            "--sql-page", str(paths["page_sql"]),
            "--depth", str(perfbench_gen().FILTER_DEPTH)]


class TestExtractWorkers:
    """``extract --category`` builds the category tree in process with one
    usable CPU and in one forked worker, beside the dump's read, with two."""

    @pytest.mark.parametrize("stdin", [False, True], ids=["path", "stdin"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_same_bytes_at_1_and_2_cpus(self, monkeypatch, tmp_path, capsys,
                                        generated_dumps, seed, stdin):
        paths, expect = generated_dumps[seed]
        out = tmp_path / "exprs.jsonl"
        argv = category_argv(paths, out, perfbench_gen().ROOT_CATEGORY)
        if stdin:
            argv[argv.index("--dump") + 1] = "-"
        results = []
        for n_cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid, n=n_cpus: set(range(n)))
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(
                io.BytesIO(paths["dump"].read_bytes())))
            code = main(argv)
            assert multiprocessing.active_children() == []
            results.append((code, capsys.readouterr().out, out.read_bytes()))
        assert results[0] == results[1]
        assert results[0][:2] == (
            0, f"pages={expect.pages} expressions={expect.kept_expressions} "
               f"unterminated={expect.unterminated}\n")

    def test_tree_from_the_rows_it_reads(self, tmp_path):
        """The worker builds the tree of the whole table, malformed rows
        included: subcategory 10 is a main-namespace row, and the last row
        of page ids 21 and 22 wins."""
        tree = cli._category_tree("Root", *write_tree_rows(tmp_path), 3)
        assert tree.nodes == {"Root": 0, "Sub": 1, "Other": 1}
        assert tree.page_ids == {20, 22, 23}

    @pytest.mark.parametrize("broken", ["dump", "out"])
    def test_bad_root_wins_over_a_bad_dump_or_out(self, monkeypatch, tmp_path,
                                                  capsys, generated_dumps,
                                                  broken):
        paths, _ = generated_dumps[1]
        paths = dict(paths)
        out = tmp_path / "o.jsonl"
        if broken == "dump":
            paths["dump"] = tmp_path / "bad.xml"
            paths["dump"].write_bytes(b"<mediawiki><page></mediawiki>")
        else:
            out = tmp_path / "no-such-dir" / "o.jsonl"
        code, _, err = main_at_1_and_2_cpus(monkeypatch, capsys,
                                            category_argv(paths, out, "Nope"))
        assert code == 2
        assert err == "error: category 'Nope' not found\n"

    @pytest.mark.parametrize("category", [False, True],
                             ids=["all", "category"])
    @pytest.mark.parametrize("tail", [b"", b"<page><title>x</tite></page>"],
                             ids=["truncated", "malformed"])
    def test_failed_read_leaves_an_empty_output(self, monkeypatch, tmp_path,
                                                capsys, generated_dumps,
                                                tail, category):
        paths, _ = generated_dumps[1]
        paths = dict(paths)
        xml = paths["dump"].read_bytes()
        cut = xml.index(b"<page>", len(xml) * 4 // 5)  # most pages are read
        paths["dump"] = tmp_path / "bad.xml"
        paths["dump"].write_bytes(xml[:cut] + tail)
        out = tmp_path / "o.jsonl"
        argv = category_argv(paths, out, perfbench_gen().ROOT_CATEGORY)
        for n_cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid, n=n_cpus: set(range(n)))
            out.write_text("an older output\n")
            code = main(argv if category else argv[:5])
            assert multiprocessing.active_children() == []
            assert code == 2
            assert capsys.readouterr().err.startswith("error: malformed dump")
            assert out.read_bytes() == b""

    def test_root_typo_ends_the_read_early(self, monkeypatch, tmp_path,
                                           capsys, generated_dumps):
        n_pages = 10_000  # 10 s or more, at 1 ms a page
        read = []

        def stream_pages(source):
            read.append(0)
            for page_id in range(n_pages):
                read[-1] += 1
                time.sleep(0.001)
                yield wiki_extract.PageRecord(page_id=page_id, title="P",
                                              namespace=0,
                                              text="<math>x</math>")

        monkeypatch.setattr(wiki_extract, "stream_pages", stream_pages)
        paths, _ = generated_dumps[1]
        code, _, err = main_at_1_and_2_cpus(
            monkeypatch, capsys,
            category_argv(paths, tmp_path / "o.jsonl", "Mathematic"))
        assert code == 2
        assert err == "error: category 'Mathematic' not found\n"
        # in process the tree comes first, so only the run with a worker
        # reads the dump, and the worker's error ends that read
        assert len(read) == 1 and read[0] < n_pages // 2


class TestCorpusWorkers:
    """``corpus`` in process with one usable CPU, and over a pool of two
    forked workers with two; never more than 2 workers here."""

    @staticmethod
    def _corpus(monkeypatch, tmp_path, jsonl, n_cpus, *flags, parse=None,
                out=None):
        """Runs ``corpus`` with ``n_cpus`` usable CPUs and ``parse`` in place
        of ``parse_latex``; returns the exit code, the corpus and stats
        bytes (None when not written) and the ids of the parsing processes."""
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(n_cpus)))
        marks = tmp_path / f"pids-{n_cpus}"
        marks.mkdir()
        parse = parse or latex_parser.parse_latex

        def marked(text):
            (marks / str(os.getpid())).touch()
            return parse(text)

        monkeypatch.setattr(cli, "parse_latex", marked)
        out = out or tmp_path / f"c{n_cpus}.corpus"
        stats = Path(f"{out}.stats.json")
        code = main(["corpus", "--in", str(jsonl), "--out", str(out), *flags])
        assert multiprocessing.active_children() == []
        return (code, *(p.read_bytes() if p.exists() else None
                        for p in (out, stats)),
                {int(p.name) for p in marks.iterdir()})

    @pytest.mark.parametrize("policy", ["drop", "replace", "split",
                                        "replace_and_split"])
    def test_workers_write_the_same_bytes(self, monkeypatch, tmp_path,
                                          capsys, generated_jsonl, policy):
        flags = ("--policy", policy)
        code1, corpus1, stats1, pids1 = self._corpus(
            monkeypatch, tmp_path, generated_jsonl, 1, *flags)
        code2, corpus2, stats2, pids2 = self._corpus(
            monkeypatch, tmp_path, generated_jsonl, 2, *flags)
        assert code1 == code2 == 0
        assert pids1 == {os.getpid()}
        assert 1 <= len(pids2) <= 2 and os.getpid() not in pids2
        assert corpus1 == corpus2 and stats1 == stats2
        printed = capsys.readouterr().out.splitlines()
        assert printed[-1] == printed[-2]

        # and both equal build_corpus over every record's parse outcome
        lib = default_library(n_vars=2, name="std2")
        parsed, n_failed = [], 0
        for line in generated_jsonl.read_text().splitlines():
            rec = json.loads(line)
            try:
                parsed.append((rec["page_id"],
                               latex_parser.parse_latex(rec["latex"])))
            except latex_parser.LatexError:
                n_failed += 1
        samples, stats = build_corpus(parsed, lib, policy=policy)
        stats.n_dropped += n_failed
        write_corpus(samples, tmp_path / "ref.corpus", lib)
        assert (tmp_path / "ref.corpus").read_bytes() == corpus1
        assert json.dumps(stats.to_dict(), indent=2,
                          sort_keys=True).encode() == stats1

    @pytest.mark.parametrize("n_cpus", [1, 2])
    def test_first_malformed_line_named_from_a_later_chunk(
            self, monkeypatch, tmp_path, capsys, generated_jsonl, n_cpus):
        lines = generated_jsonl.read_text().splitlines(keepends=True)
        first = cli.CORPUS_CHUNK_LINES + 500  # in the second chunk
        for lineno in (first, 2 * cli.CORPUS_CHUNK_LINES + 1):
            lines[lineno - 1] = '{"page_id": 2,\n'
        jsonl = tmp_path / "bad.jsonl"
        jsonl.write_text("".join(lines))
        code, corpus, stats, _ = self._corpus(monkeypatch, tmp_path, jsonl,
                                              n_cpus)
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {jsonl}, line {first}: not a JSON object with an "
            f"integer page_id and a string latex\n")
        assert corpus is None and stats is None

    @pytest.mark.parametrize("n_cpus", [1, 2])
    def test_first_malformed_line_named_beyond_the_look_ahead(
            self, monkeypatch, tmp_path, capsys, generated_jsonl, n_cpus):
        # the pool draws at most 2 chunks per worker ahead of the parent
        n = 100
        monkeypatch.setattr(cli, "CORPUS_CHUNK_LINES", n)
        lines = generated_jsonl.read_text().splitlines(keepends=True)
        first = (2 * 2 + 2) * n + 50  # in the 7th chunk
        for lineno in (first, first + n, 2 * first):
            lines[lineno - 1] = '{"page_id": 2,\n'
        jsonl = tmp_path / "bad.jsonl"
        jsonl.write_text("".join(lines))
        code, corpus, stats, _ = self._corpus(monkeypatch, tmp_path, jsonl,
                                              n_cpus)
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {jsonl}, line {first}: not a JSON object with an "
            f"integer page_id and a string latex\n")
        assert corpus is None and stats is None

    @pytest.mark.parametrize("n_cpus", [1, 2])
    def test_unwritable_out_fails_before_the_first_parse(
            self, monkeypatch, tmp_path, capsys, generated_jsonl, n_cpus):
        out = tmp_path / "no-such-dir" / "c.corpus"
        code, corpus, stats, pids = self._corpus(
            monkeypatch, tmp_path, generated_jsonl, n_cpus, out=out)
        assert code == 2 and pids == set()
        assert capsys.readouterr().err.startswith(f"error: cannot open {out}:")
        assert corpus is None and stats is None

    def test_malformed_input_keeps_an_existing_corpus(
            self, monkeypatch, tmp_path, capsys):
        jsonl = tmp_path / "bad.jsonl"
        jsonl.write_text('{"page_id": 1, "latex": "x"}\n{"page_id": 2,\n')
        out = tmp_path / "old.corpus"
        out.write_text("old\n")
        code, corpus, stats, _ = self._corpus(monkeypatch, tmp_path, jsonl, 1,
                                              out=out)
        assert code == 2 and corpus == b"old\n" and stats is None

    @pytest.mark.parametrize("n_cpus", [1, 2])
    def test_tree_too_deep_to_walk_is_dropped(self, monkeypatch, tmp_path,
                                              capsys, n_cpus):
        # the tree parses but is too deep for the corpus walks; it never
        # leaves the worker, where pickling it would fail as well
        lib = default_library(n_vars=2, name="std2")
        deep = node(lib.get("x1"))
        for _ in range(5000):
            deep = node(lib.get("add"), deep, node(lib.get("1")))
        outcome = latex_parser.ParseOutcome(trees=[deep], unsupported=[],
                                            relation_split_count=0)

        def parse(text):
            return outcome if text == "deep" else latex_parser.parse_latex(text)

        monkeypatch.setattr(cli, "CORPUS_CHUNK_LINES", 2)
        jsonl = tmp_path / "deep.jsonl"
        jsonl.write_text("".join(
            json.dumps({"page_id": i, "latex": text}) + "\n"
            for i, text in enumerate(["x + 1", "deep", "x^2", "y"], 1)))
        code, corpus, stats, pids = self._corpus(
            monkeypatch, tmp_path, jsonl, n_cpus, parse=parse)
        assert code == 0 and len(pids) >= 1
        assert (os.getpid() in pids) == (n_cpus == 1)
        assert corpus.decode().splitlines()[1:] == [
            "1\tnone\tadd x1 1", "3\tnone\tpow x1 2", "4\tnone\tx1"]
        assert json.loads(stats)["n_dropped"] == 1

    @pytest.mark.parametrize("n_cpus", [1, 2])
    @pytest.mark.parametrize("runs", [
        [("--policy", "drop"), ("--policy", "replace_and_split")],
        [("--library", "std1"), ("--library", "std2")],
    ], ids=["policy", "library"])
    def test_runs_in_one_process_write_what_they_write_alone(
            self, monkeypatch, tmp_path, capsys, generated_jsonl, n_cpus,
            runs):
        # each record's encoding is cached for one main call only
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        alone = []
        for i, flags in enumerate(runs):
            out = tmp_path / f"alone{i}.corpus"
            proc = subprocess.run(
                [sys.executable, "-m", "mathcorpus.cli", "corpus",
                 "--in", str(generated_jsonl), "--out", str(out), *flags],
                capture_output=True, text=True, env=env, timeout=300)
            assert proc.returncode == 0, proc.stderr
            alone.append((out.read_bytes(),
                          Path(f"{out}.stats.json").read_bytes()))
        assert alone[0][0] != alone[1][0]
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(n_cpus)))
        for i, flags in enumerate(runs + runs):
            out = tmp_path / f"run{i}.corpus"
            assert main(["corpus", "--in", str(generated_jsonl),
                         "--out", str(out), *flags]) == 0
            assert (out.read_bytes(), Path(f"{out}.stats.json").read_bytes()
                    ) == alone[i % 2], flags

    def test_caches_are_bounded_and_empty_after_main(
            self, monkeypatch, tmp_path, capsys, generated_jsonl):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        caches = (cli._encode_latex, latex_parser.variable_token,
                  latex_parser.constant_token)
        hits = []

        def parse(text):  # the caches are in use while main runs
            hits.append([c.cache_info().hits for c in caches])
            return latex_parser.parse_latex(text)

        monkeypatch.setattr(cli, "parse_latex", parse)
        assert main(["corpus", "--in", str(generated_jsonl),
                     "--out", str(tmp_path / "c.corpus")]) == 0
        assert all(h > 0 for h in hits[-1])
        assert len(hits) < len(generated_jsonl.read_text().splitlines())
        assert [c.cache_info().currsize for c in caches] == [0, 0, 0]
        assert all(c.cache_info().maxsize for c in caches)

    def test_worker_exception_is_an_internal_error(self, monkeypatch,
                                                   tmp_path, capsys,
                                                   generated_jsonl):
        parent = os.getpid()

        def parse(text):
            if os.getpid() != parent:
                raise RuntimeError("boom")
            return latex_parser.parse_latex(text)

        code, corpus, _, _ = self._corpus(monkeypatch, tmp_path,
                                          generated_jsonl, 2, parse=parse)
        assert code == 1 and corpus is None
        assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"


@pytest.fixture(scope="module")
def scaled_dumps(tmp_path_factory):
    """Pages -> (paths, unfiltered ``extract`` output) of ``perfbench/gen.py``
    dumps of 5,000 and 20,000 pages, seed 1."""
    gen = perfbench_gen()
    work = tmp_path_factory.mktemp("scaled")
    out = {}
    for pages in (5000, 20000):
        paths, _ = gen.write_dump(work / str(pages), 1, pages)
        jsonl = work / str(pages) / "exprs.jsonl"
        assert main(["extract", "--dump", str(paths["dump"]),
                     "--out", str(jsonl)]) == 0
        out[pages] = paths, jsonl
    return out


def traced_peak(argv, capsys):
    """The peak of memory allocated while ``main(argv)`` ran in process."""
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        capsys.readouterr()


class TestBoundedMemory:
    """The process that runs ``extract`` or ``corpus`` holds a page or a few
    chunks of the input at a time, not the dump: on a dump 4 times as
    large, its peak allocation is less than twice as large."""

    class TreeNotYet:
        """A future of the category tree that arrives only after the
        dump's read, so every page waits for it."""

        def __init__(self, tree):
            self.tree = tree

        def done(self):
            return False

        def result(self):
            return self.tree

    def test_extract_waiting_for_the_tree(self, monkeypatch, tmp_path,
                                          capsys, scaled_dumps):
        gen = perfbench_gen()
        peaks = []
        for pages, (paths, _) in scaled_dumps.items():
            tree = cli._category_tree(gen.ROOT_CATEGORY, paths["links_sql"],
                                      paths["page_sql"], gen.FILTER_DEPTH)
            monkeypatch.setattr(cli, "fork_call", lambda build, jobs, t=tree:
                                nullcontext(self.TreeNotYet(t)))
            out = tmp_path / f"{pages}.jsonl"
            peaks.append(traced_peak(category_argv(paths, out,
                                                   gen.ROOT_CATEGORY), capsys))
        assert peaks[1] < 2 * peaks[0], peaks

    def test_mlm_train_holds_tokens_not_samples(self, monkeypatch, tmp_path,
                                                capsys, generated_jsonl):
        """``mlm-train`` holds the corpus as one packed token array, 8
        bytes a token and 16 a sample, not as objects per sample: from a
        2,000- to a 20,000-line corpus, its peak allocation grows by less
        than 150 bytes per added line."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        base = tmp_path / "base.corpus"
        assert main(["corpus", "--in", str(generated_jsonl),
                     "--out", str(base)]) == 0
        header, *lines = base.read_text().splitlines(keepends=True)

        def peak(n):
            corpus = tmp_path / f"{n}.corpus"
            corpus.write_text(header + "".join(
                lines[i % len(lines)] for i in range(n)))
            return traced_peak(["mlm-train", "--corpus", str(corpus),
                                "--out", str(tmp_path / "m.mlm"),
                                "--epochs", "0", "--hidden", "4",
                                "--emb", "4"], capsys)

        peak(2000)  # a warm-up: what the first call allocates once
        small, large = peak(2000), peak(20000)
        assert (large - small) / 18000 < 150, (small, large)

    def test_category_tree(self, scaled_dumps):
        """The tree's worker holds each category's page ids and the page
        rows the walk reads, not the tables: its peak allocation stays
        below the size of the two SQL files."""
        gen = perfbench_gen()
        for pages, (paths, _) in scaled_dumps.items():
            tracemalloc.start()
            try:
                cli._category_tree(gen.ROOT_CATEGORY, paths["links_sql"],
                                   paths["page_sql"], gen.FILTER_DEPTH)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            size = sum(paths[table].stat().st_size
                       for table in ("links_sql", "page_sql"))
            assert peak < size, (pages, peak, size)

    def test_category_tree_keeps_no_unread_title(self, tmp_path,
                                                 scaled_dumps):
        """Titles are kept only for subcategories: 5,000 talk pages with
        200-character titles raise the tree's peak allocation by less than
        half the titles' size."""
        gen = perfbench_gen()
        paths, _ = scaled_dumps[5000]
        talk = tmp_path / "page.sql"
        with open(talk, "w") as f:  # statements no longer than the dump's
            f.write(paths["page_sql"].read_text())
            for k in range(0, 5000, 100):
                f.write("INSERT INTO `page` VALUES " + ",".join(
                    f"({10**6 + i},1,'Talk:{i:0195}')"
                    for i in range(k, k + 100)) + ";\n")
        peaks = []
        for page_sql in (paths["page_sql"], talk):
            tracemalloc.start()
            try:
                cli._category_tree(gen.ROOT_CATEGORY, paths["links_sql"],
                                   page_sql, gen.FILTER_DEPTH)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 5000 * 200 / 2, peaks

    @pytest.mark.parametrize("n_cpus", [1, 2])
    def test_corpus(self, monkeypatch, tmp_path, capsys, scaled_dumps,
                    n_cpus):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(n_cpus)))
        peaks = [traced_peak(["corpus", "--in", str(jsonl),
                              "--out", str(tmp_path / f"{pages}.corpus")],
                             capsys)
                 for pages, (_, jsonl) in scaled_dumps.items()]
        assert peaks[1] < 2 * peaks[0], peaks


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

    @pytest.mark.parametrize("line", ["1\tadd x1 1", "one\tnone\tadd x1 1",
                                      "1\tnone\t", "1\tnone\t "])
    def test_malformed_corpus_line_names_it(self, tmp_path, capsys, line):
        corpus = tmp_path / "c.corpus"
        write_tiny_corpus(corpus, lines=("2\tnone\tsin x1", line))
        code = main(["mlm-train", "--corpus", str(corpus),
                     "--out", str(tmp_path / "m.mlm"), "--batch", "1"])
        assert code == 2
        assert f"{corpus}, line 3:" in capsys.readouterr().err
        assert not (tmp_path / "m.mlm").exists()

    def test_unknown_token_exit_2(self, tmp_path, capsys):
        corpus = tmp_path / "c.corpus"
        write_tiny_corpus(corpus, lines=("2\tnone\tsin x1", "3\tnone\tfoo"))
        code = main(["mlm-train", "--corpus", str(corpus),
                     "--out", str(tmp_path / "m.mlm")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: token 'foo' not in library\n")
        assert not (tmp_path / "m.mlm").exists()

    def test_same_stdout_and_weights_at_1_and_2_cpus(self, tmp_path, capsys,
                                                     generated_jsonl):
        """Each run is a process that limits its own CPUs, as ``taskset``
        does, so that training forks its worker only at two."""
        cpus = sorted(os.sched_getaffinity(0))
        if len(cpus) < 2:
            pytest.skip("needs two usable CPUs")
        corpus = tmp_path / "math.corpus"
        assert main(["corpus", "--in", str(generated_jsonl),
                     "--out", str(corpus)]) == 0
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")]))}
        runs = []
        for allowed in cpus[:1], cpus[:2]:
            out = tmp_path / f"{len(allowed)}.mlm"
            script = (f"import os, sys; os.sched_setaffinity(0, {allowed}); "
                      "from mathcorpus.cli import main; "
                      "sys.exit(main(sys.argv[1:]))")
            proc = subprocess.run(
                [sys.executable, "-c", script, "mlm-train",
                 "--corpus", str(corpus), "--out", str(out),
                 "--hidden", "32", "--emb", "16", "--epochs", "3"],
                capture_output=True, text=True, env=env, timeout=300)
            assert proc.returncode == 0, proc.stderr
            runs.append((proc.stdout, out.read_bytes()))
        assert runs[0][0].count("loss=") == 4
        assert runs[0] == runs[1]

    def test_empty_corpus_exit_2(self, tmp_path, capsys):
        corpus = tmp_path / "c.corpus"
        corpus.write_text("#mathcorpus v1 vocab=std2\n")
        code = main(["mlm-train", "--corpus", str(corpus),
                     "--out", str(tmp_path / "m.mlm")])
        assert code == 2
        assert capsys.readouterr().err == "error: corpus is empty\n"
        assert not (tmp_path / "m.mlm").exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--hidden", "0", "--hidden must be >= 1"),
        ("--emb", "0", "--emb must be >= 1"),
        ("--batch", "0", "--batch must be >= 1"),
        ("--batch", "-1", "--batch must be >= 1"),
        ("--epochs", "-1", "--epochs must be >= 0"),
        ("--lr", "nan", "--lr must be a finite number > 0"),
        ("--lr", "inf", "--lr must be a finite number > 0"),
        ("--lr", "0", "--lr must be a finite number > 0"),
    ])
    def test_bad_size_flag_exit_2_before_reading(self, tmp_path, capsys,
                                                 flag, value, message):
        # the corpus does not exist: the flag is checked first
        out = tmp_path / "m.mlm"
        code = main(["mlm-train", "--corpus", str(tmp_path / "absent"),
                     "--out", str(out), flag, value])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_library_comes_from_the_header(self, tmp_path, capsys):
        corpus = tmp_path / "c.corpus"
        corpus.write_text("#mathcorpus v1 vocab=std3\n1\tnone\tadd x1 x3\n")
        out = tmp_path / "m.mlm"
        assert main(["mlm-train", "--corpus", str(corpus), "--out", str(out),
                     "--hidden", "4", "--emb", "4", "--epochs", "1"]) == 0
        # load checks the weights' vocabulary against std3's
        assert "x3" in mlm.load(out, default_library(n_vars=3)).vocab_names

    @pytest.mark.parametrize("header", ["#mathcorpus v1",
                                        "#mathcorpus v1 vocab=std0"])
    def test_header_without_a_known_library_exit_2(self, tmp_path, capsys,
                                                   header):
        corpus = tmp_path / "c.corpus"
        corpus.write_text(header + "\n1\tnone\tadd x1 1\n")
        code = main(["mlm-train", "--corpus", str(corpus),
                     "--out", str(tmp_path / "m.mlm")])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"error: {corpus}, line 1: unknown library")

    def test_library_flag_is_gone(self, tmp_path, capsys):
        corpus = tmp_path / "c.corpus"
        write_tiny_corpus(corpus)
        code = main(["mlm-train", "--corpus", str(corpus),
                     "--out", str(tmp_path / "m.mlm"), "--library", "std3"])
        assert code == 2
        assert "unrecognized arguments: --library" in capsys.readouterr().err


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

    @pytest.mark.parametrize("header, named", MALFORMED_HEADERS)
    def test_malformed_weight_file_exit_2(self, tmp_path, capsys, header,
                                          named):
        weights = tmp_path / "m.mlm"
        write_header(weights, header)
        code = main(["sr", "--benchmark", "nguyen-1", "--runs", "1",
                     "--max-steps", "1", "--with-mlm", str(weights)])
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith("error: ") and named in err

    def test_bytes_after_the_weights_exit_2(self, tmp_path, capsys):
        weights = tmp_path / "m.mlm"
        mlm.save(mlm.init(default_library(n_vars=2), 4, 4, seed=0), weights)
        with open(weights, "ab") as f:
            f.write(b"\0" * 700)
        code = main(["sr", "--benchmark", "nguyen-1", "--runs", "1",
                     "--max-steps", "1", "--with-mlm", str(weights)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: bytes after the weight arrays\n")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_lambda_exit_2_before_the_spec(self, tmp_path, capsys,
                                                      value):
        # neither the spec nor the weights exist: lambda is checked first
        code = main(["sr", "--spec", str(tmp_path / "absent.json"),
                     "--with-mlm", str(tmp_path / "absent.mlm"),
                     "--lambda", "0.5", value])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: --lambda must be >= 0 and finite\n")

    def test_several_lambdas_run_in_order(self, tmp_path, capsys):
        from mathcorpus import dsr

        weights = tmp_path / "m.mlm"
        lib = dsr.builtin_benchmarks()["nguyen-1"].library()
        mlm.save(mlm.init(lib, 4, 4, seed=0), weights)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lam": 0.5}))
        out = tmp_path / "metrics.csv"
        base = ["sr", "--benchmark", "nguyen-1", "--runs", "1",
                "--max-steps", "1", "--batch-size", "10", "--out", str(out)]

        def lambdas(*flags):
            assert main([*base, *flags]) == 0
            return [row.split(",")[3]
                    for row in out.read_text().splitlines()[1:]]

        assert lambdas("--with-mlm", str(weights), "--lambda", "0", "1") \
            == ["0.0", "1.0"]
        assert lambdas("--with-mlm", str(weights), "--config", str(cfg)) \
            == ["0.5"]
        assert lambdas("--no-mlm", "--lambda", "0.5", "1") == ["0.0"]

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

    @pytest.mark.parametrize("name, runs, steps", [
        ("nguyen-8", "3", "20"), ("nguyen-5", "2", "3")])
    def test_best_expression_reads_back(self, tmp_path, capsys, name,
                                        runs, steps):
        """Each row's best_expression is LaTeX of the search library, and
        its tree's recovery agrees with the row, as perfbench checks."""
        from mathcorpus import dsr

        out = tmp_path / "metrics.csv"
        assert main(["sr", "--benchmark", name, "--no-mlm", "--runs",
                     runs, "--max-steps", steps, "--seed", "3",
                     "--out", str(out)]) == 0
        spec = dsr.builtin_benchmarks()[name]
        with open(out, newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == int(runs)
        for r in rows:
            tree = latex_parser.parse_expression(r["best_expression"],
                                                 spec.library())
            assert dsr.recovered(tree, spec) == (r["recovered"] == "1")
        if name == "nguyen-8":
            assert all(r["recovered"] == "1" for r in rows)

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

    LIN = {"name": "lin", "expression": "x + x", "variables": ["x"],
           "library": ["add", "mul", "x"]}

    @pytest.mark.parametrize("spec, message", [
        ([LIN], "a spec is a JSON object"),
        ({**LIN, "range": {"x": 5}}, "range must map variables"),
        ({**LIN, "range": {"x": [1]}}, "range must map variables"),
        ({**LIN, "n_points": -3}, "n_points must be an integer >= 1"),
        ({**LIN, "n_points": 0}, "n_points must be an integer >= 1"),
        ({**LIN, "library": 5}, "library lists of names"),
        ({**LIN, "variables": 5}, "library lists of names"),
        ({**LIN, "expression": 5}, "expression must be a string"),
        ({**LIN, "range": {"z": [0, 1]}}, "name declared variables only"),
        # a terminal that LaTeX reads back as something else: {e}^{x} is
        # exp(x), \mathrm{ln} the log function, \mathrm{a b} the variable ab
        ({**LIN, "variables": ["x", "e"]}, "variable 'e' does not read back"),
        ({**LIN, "variables": ["x", "ln"]}, "variable 'ln' does not read back"),
        ({**LIN, "variables": ["x", "a b"]},
         "variable 'a b' does not read back"),
        # inf is i n f, -1 is neg(1), 1e3 is 1 e 3, and .5 does not parse
        ({**LIN, "library": ["add", "x", "inf"]}, "constant 'inf'"),
        ({**LIN, "library": ["add", "x", "-1"]}, "constant '-1'"),
        ({**LIN, "library": ["add", "x", "1e3"]}, "constant '1e3'"),
        ({**LIN, "library": ["add", "x", ".5"]}, "constant '.5'"),
        ({**LIN, "library": ["add", "add", "x"]}, "duplicate token name 'add'"),
        ({**LIN, "library": ["add", "mul"]}, "at least one terminal"),
        # the target fails where its only segment ends
        ({**LIN, "expression": "x +"}, "(offset 3)"),
    ], ids=["list", "range-number", "range-one-bound", "negative-points",
            "no-points", "library-number", "variables-number",
            "expression-number", "range-undeclared", "variable-e",
            "variable-ln", "variable-with-a-space", "constant-inf",
            "constant-negative", "constant-exponent", "constant-no-digit",
            "library-duplicate", "library-no-terminal", "target-ends-early"])
    def test_malformed_spec_field_exit_2(self, tmp_path, capsys, spec,
                                         message):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code = main(["sr", "--spec", str(path), "--runs", "1", "--no-mlm",
                     "--max-steps", "2", "--batch-size", "30"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and message in err


class TestPipeline:
    def test_sr_with_a_cli_trained_prior(self, tmp_path, capsys):
        """extract -> corpus -> mlm-train -> sr --with-mlm on a generated
        dump: the std2 model is cut down to each benchmark's library."""
        paths, _ = perfbench_gen().write_dump(tmp_path, 1, 300)
        exprs, corpus = tmp_path / "exprs.jsonl", tmp_path / "math.corpus"
        prior = tmp_path / "math.mlm"
        for argv in (["extract", "--dump", str(paths["dump"]),
                      "--out", str(exprs)],
                     ["corpus", "--in", str(exprs), "--out", str(corpus)],
                     ["mlm-train", "--corpus", str(corpus), "--out",
                      str(prior), "--hidden", "8", "--emb", "4",
                      "--epochs", "2"]):
            assert main(argv) == 0
        for bench in ("nguyen-1", "nguyen-8", "nguyen-12"):
            out = tmp_path / f"{bench}.csv"
            assert main(["sr", "--benchmark", bench, "--with-mlm", str(prior),
                         "--lambda", "0", "0.5", "--runs", "1",
                         "--max-steps", "2", "--batch-size", "30",
                         "--out", str(out)]) == 0
            rows = list(csv.DictReader(out.open()))
            assert [(r["lambda"], r["with_mlm"]) for r in rows] == [
                ("0.0", "1"), ("0.5", "1")]
        assert capsys.readouterr().err == ""


class TestJobs:
    """``sr`` shares its runs among the usable CPUs, one or two here."""

    SR = ["sr", "--benchmark", "nguyen-1", "--runs", "2", "--max-steps", "3",
          "--batch-size", "30", "--seed", "4"]

    def _csv(self, monkeypatch, tmp_path, cpus, *flags):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        out = tmp_path / f"cpus{len(cpus)}.csv"
        assert main([*self.SR, *flags, "--out", str(out)]) == 0
        assert multiprocessing.active_children() == []
        return out.read_bytes()

    @pytest.mark.parametrize("flags", [
        ["--no-mlm"],
        ["--with-mlm", "{prior}", "--lambda", "0.5"],
        ["--with-mlm", "{prior}", "--lambda",
         *"0.1 0.2 0.3 0.4 0.5 0.6 0.7 0.8 0.9 1.0".split()],
    ], ids=["no-mlm", "lambda", "sweep"])
    def test_csv_identical_at_any_jobs(self, monkeypatch, tmp_path, capsys,
                                       flags):
        from mathcorpus import dsr

        weights = tmp_path / "m.mlm"
        lib = dsr.builtin_benchmarks()["nguyen-1"].library()
        mlm.save(mlm.init(lib, 4, 4, seed=0), weights)
        flags = [f.format(prior=weights) for f in flags]
        assert (self._csv(monkeypatch, tmp_path, {0}, *flags)
                == self._csv(monkeypatch, tmp_path, {0, 1}, *flags))

    def test_jobs_config_key_is_unknown(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"jobs": 2}))
        assert main([*self.SR, "--no-mlm", "--config", str(cfg)]) == 2
        assert "unknown config key 'jobs'" in capsys.readouterr().err

    @pytest.mark.parametrize("expression, message", [
        ("x + z", "undeclared variable 'z'"),
        ("x +", "does not parse"),
        ("x = x^2", "does not parse"),
        (r"\log(x)", "invalid on sampled points"),  # per run, in the workers
    ], ids=["undeclared", "unparsable", "relation", "invalid-on-points"])
    def test_bad_spec_target_exit_2(self, monkeypatch, tmp_path, capsys,
                                    expression, message):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "name": "t", "expression": expression, "variables": ["x"],
            "library": ["add", "log", "x"]}))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        code = main(["sr", "--spec", str(spec), "--no-mlm", "--runs", "2",
                     "--max-steps", "2", "--batch-size", "30"])
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

    def test_one_row_per_arm_of_a_multi_lambda_csv(self, tmp_path, capsys):
        from mathcorpus import dsr

        weights = tmp_path / "m.mlm"
        lib = dsr.builtin_benchmarks()["nguyen-1"].library()
        mlm.save(mlm.init(lib, 4, 4, seed=0), weights)
        csv_path, out = tmp_path / "arms.csv", tmp_path / "r.txt"
        assert main(["sr", "--benchmark", "nguyen-1", "--with-mlm",
                     str(weights), "--lambda", "0", "0.5", "--runs", "2",
                     "--max-steps", "2", "--batch-size", "10",
                     "--out", str(csv_path)]) == 0
        assert main(["report", "--metrics", str(csv_path),
                     "--out", str(out)]) == 0
        body = [line.split("\t") for line in out.read_text().splitlines()[1:]]
        assert [row[0] for row in body] == [
            "nguyen-1 lambda=0.0 with_mlm=1",
            "nguyen-1 lambda=0.5 with_mlm=1", "Average:"]
        rows = [r.split(",") for r in csv_path.read_text().splitlines()[1:]]
        for lam, cells in zip(["0.0", "0.5"], body):
            steps = [int(r[6]) for r in rows if r[3] == lam]
            assert len(steps) == 2
            assert cells[2] == f"{sum(steps) / 2:.2f}"

    def test_arms_line_up_across_csvs(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        self._csv(a, [["nguyen-1", 0, 0, 0.0, 1, 1, 10, "0.1", "x"],
                      ["nguyen-1", 0, 0, 0.5, 1, 0, 30, "0.3", "x"],
                      ["nguyen-2", 0, 0, 0.5, 1, 1, 20, "0.2", "x"]])
        self._csv(b, [["nguyen-1", 0, 0, 0.5, 1, 1, 50, "0.5", "x"],
                      ["nguyen-2", 0, 0, 0.0, 0, 0, 60, "0.6", "x"]])
        out = tmp_path / "r.txt"
        assert main(["report", "--metrics", str(a), str(b),
                     "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1:] == [
            "nguyen-1 lambda=0.0 with_mlm=1\t100.0%\t10.00\t10.00%\t-\t-\t-",
            "nguyen-1 lambda=0.5 with_mlm=1\t0.0%\t30.00\t30.00%"
            "\t100.0%\t50.00\t50.00%",
            # one arm in each CSV: one row, as before arms were split
            "nguyen-2\t100.0%\t20.00\t20.00%\t0.0%\t60.00\t60.00%",
            # means over each CSV's arms
            "Average:\t66.7%\t20.00\t20.00%\t50.0%\t55.00\t55.00%"]

    def test_single_arm_report_text(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        self._csv(a, [["nguyen-1", 0, 0, 0.0, 0, 1, 100, "0.25", "x"],
                      ["nguyen-1", 1, 1, 0.0, 0, 0, 2000, "0.5", "x"],
                      ["nguyen-2", 0, 0, 0.0, 0, 1, 50, "0.1", "x"]])
        self._csv(b, [["nguyen-1", 0, 0, 0.5, 1, 1, 40, "0.1", "x"]])
        out = tmp_path / "r.txt"
        assert main(["report", "--metrics", str(a), str(b),
                     "--out", str(out)]) == 0
        assert out.read_text() == (
            f"benchmark\trecovery({a})\tsteps({a})\tinvalid({a})"
            f"\trecovery({b})\tsteps({b})\tinvalid({b})\n"
            "nguyen-1\t50.0%\t1050.00\t37.50%\t100.0%\t40.00\t10.00%\n"
            "nguyen-2\t100.0%\t50.00\t10.00%\t-\t-\t-\n"
            "Average:\t75.0%\t550.00\t23.75%\t100.0%\t40.00\t10.00%\n")

    def test_schema_mismatch(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n1,2,3\n")
        code = main(["report", "--metrics", str(bad),
                     "--out", str(tmp_path / "r.txt")])
        assert code == 2

    @pytest.mark.parametrize("rows, lineno", [
        (None, 1),
        ([["nguyen-1", 0, 0, 0.0, 0, "yes", 100, "0.2", "x"]], 2),
        ([["nguyen-1", 0, 0, 0.0, 0, 1, 100, "0.2", "x"],
          ["nguyen-1", 1, 1, 0.0, 0]], 3),
    ], ids=["empty", "recovered-yes", "too-few-fields"])
    def test_malformed_metrics_names_file_and_line(self, tmp_path, capsys,
                                                   rows, lineno):
        bad = tmp_path / "bad.csv"
        if rows is None:
            bad.write_text("")
        else:
            self._csv(bad, rows)
        out = tmp_path / "r.txt"
        code = main(["report", "--metrics", str(bad), "--out", str(out)])
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err.startswith(f"error: {bad}, line {lineno}:")

    def test_html_cells_are_escaped(self, tmp_path, capsys):
        a = tmp_path / "a&<b>.csv"
        self._csv(a, [["nguyen-1", 0, 0, 0.0, 0, 1, 100, "0.2", "x"]])
        out = tmp_path / "r.txt"
        assert main(["report", "--metrics", str(a), "--out", str(out)]) == 0
        assert f"recovery({a})" in out.read_text()
        page = (tmp_path / "r.txt.html").read_text()
        assert "a&<b>" not in page
        assert "a&amp;&lt;b&gt;.csv" in page


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


@pytest.mark.parametrize("value, want", [(None, "1"), ("3", "3")])
def test_blas_threads_default_to_one(value, want):
    # a fresh interpreter, so that numpy loads after the CLI module's
    # default, as it does for the console script
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k not in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    if value is not None:
        env["OPENBLAS_NUM_THREADS"] = value
    script = ("import os, sys; import mathcorpus.cli; "
              "assert 'numpy' in sys.modules; "
              "print(*(os.environ[v] for v in ('OPENBLAS_NUM_THREADS', "
              "'OMP_NUM_THREADS', 'MKL_NUM_THREADS')))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [want, "1", "1"]


def test_readme_pipeline_commands_parse():
    readme = (Path(__file__).parents[1] / "README.md").read_text(
        encoding="utf-8")
    block = re.search(r"## Pipeline example\n\n```sh\n(.*?)```", readme,
                      re.DOTALL)[1]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(l) for l in lines if l.startswith("mathcorpus ")]
    assert [argv[1] for argv in commands] == [
        "extract", "corpus", "mlm-train", "sr", "sr", "report"]
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])  # exits 2 on an unknown flag
