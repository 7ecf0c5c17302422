"""Command-line entry point: extract -> corpus -> mlm-train -> sr -> report.

Stages communicate only through documented files (JSONL records, corpus v1,
MLM1 weights, metrics CSV) so they can run on different machines.
Exit codes: 0 success, 1 internal error, 2 usage/input error.
"""

from __future__ import annotations

import argparse
import csv
import html
import json
import math
import os
import re
import sys
import tempfile
from collections import namedtuple
from functools import lru_cache, partial
from itertools import count, groupby, islice
from json.encoder import encode_basestring
from operator import attrgetter

# one BLAS thread unless set, before numpy loads: each worker starts its own
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from . import corpus as corpus_mod
from . import dsr, mlm, wiki_extract
from .expr_core import default_library
from .latex_parser import (LatexError, constant_token, parse_latex,
                           variable_token)
from .pool import fork_call, fork_map, usable_cpus


class UsageError(Exception):
    pass


def _with_config(args, argv):
    """``argv`` with the JSON config file's values inserted as flags right
    after the subcommand, so that argparse checks them like flags and those
    given on the command line, which come later, win."""
    with open(args.config) as f:
        cfg = json.load(f)
    if not isinstance(cfg, dict):
        raise UsageError("config file must hold a JSON object")
    actions = {a.dest: a for a in args.sub_parser._actions if a.option_strings}
    flags = []
    for key, value in cfg.items():
        if key not in actions:
            raise UsageError(f"unknown config key {key!r}")
        flag = actions[key].option_strings[0]
        if actions[key].nargs == 0:  # store_true
            flags += [flag] if value else []
        elif isinstance(value, list):
            flags += [flag, *map(str, value)]
        else:  # one token, so a value may start with "-"
            flags.append(f"{flag}={value}")
    at = argv.index(args.command) + 1
    return argv[:at] + flags + argv[at:]


def _library_by_name(name):
    """``std`` with an optional variable count of at least 1, 2 by default."""
    m = re.fullmatch(r"std([1-9][0-9]*)?", name)
    if m is None:
        raise UsageError(f"unknown library {name!r}")
    return default_library(n_vars=int(m[1] or 2), name=name)


def _category_tree(root, links_path, page_path, depth):
    """The category tree below ``root``, or None without a root; a bad
    table or root is a usage error.  Runs in a forked worker when there is
    a CPU to spare, so only the tree comes back, not the tables."""
    if root is None:
        return None
    try:
        return wiki_extract.build_category_tree(
            root, wiki_extract.parse_sql_dump(links_path, "categorylinks"),
            wiki_extract.parse_sql_dump(page_path, "page"), depth)
    except wiki_extract.WikiError as e:
        raise UsageError(str(e))


_Line = namedtuple("_Line", "page_id text")  # a JSONL record and its page


def _jsonl(exprs):
    """The lines of one page's expressions, as ``json.dumps(...,
    ensure_ascii=False)`` writes them; the title is encoded once."""
    head = (f'{{"page_id": {exprs[0].page_id}, "page_title": '
            f'{encode_basestring(exprs[0].page_title)}, "offset": ')
    return [_Line(e.page_id, f'{head}{e.char_offset}, "latex": '
                             f'{encode_basestring(e.latex)}}}\n')
            for e in exprs]


def _write_kept(tree, lines, f):
    """Write the lines of pages in the tree, or every line without a tree;
    returns how many were written."""
    if tree is not None:
        lines = wiki_extract.filter_pages_by_category(tree, lines)
    f.writelines(line.text for line in lines)
    return len(lines)


def _write_held(tree, held, f):
    """``_write_kept`` for each page in the spill file; returns how many
    lines were written."""
    held.seek(0)
    lines = (_Line(int(page_id), text) for page_id, text
             in (entry.split("\t", 1) for entry in held))
    return sum(_write_kept(tree, list(page), f)
               for _, page in groupby(lines, attrgetter("page_id")))


def cmd_extract(args):
    source = sys.stdin.buffer if args.dump in (None, "-") else args.dump
    if args.category:  # before anything is read, so bad flags fail fast
        if not (args.sql_categorylinks and args.sql_page):
            raise UsageError("--category requires --sql-categorylinks and --sql-page")
        if args.depth < 0:
            raise UsageError("--depth must be >= 0")
    # the tree is built beside the dump's read, in process on one CPU
    build = partial(_category_tree, args.category, args.sql_categorylinks,
                    args.sql_page, args.depth)
    jobs = usable_cpus() if args.category else 1
    tally = {}
    n_pages = n_kept = 0
    # the output is opened before the dump is read, so an unwritable one
    # fails fast; fork_call makes a category error win over any other
    with (fork_call(build, jobs) as tree,
          open(args.out, "w", encoding="utf-8") as f,
          tempfile.TemporaryFile("w+", encoding="utf-8") as spill):
        held, whole = spill, False  # pages read before the tree arrives
        try:
            for page in wiki_extract.stream_pages(source):
                if held is not None and tree.done():
                    # a category error ends the read at once
                    categories = tree.result()  # read once, then kept
                    n_kept += _write_held(categories, held, f)
                    held = None
                n_pages += 1
                if page.namespace != wiki_extract.NS_MAIN or not (
                        exprs := wiki_extract.extract_math(page, tally)):
                    continue
                if held is None:
                    n_kept += _write_kept(categories, _jsonl(exprs), f)
                else:
                    held.writelines(f"{line.page_id}\t{line.text}"
                                    for line in _jsonl(exprs))
            if held is not None:
                n_kept += _write_held(tree.result(), held, f)
            whole = True
        except wiki_extract.WikiError as e:
            raise UsageError(f"malformed dump: {e}")
        finally:
            if not whole:  # a failed extract leaves no partial output
                f.truncate(0)
    unterminated = tally.get("unterminated", 0)
    print(f"pages={n_pages} expressions={n_kept} "
          f"unterminated={unterminated}")
    return 0


CORPUS_CHUNK_LINES = 1000  # lines per task: small, so workers finish together


@lru_cache(maxsize=4096)
def _encode_latex(latex, lib, policy):
    """The encoded pieces of one record's LaTeX, as a tuple, parsed once per
    distinct text while it stays among the recent ones; a text that does
    not parse is one dropped piece."""
    try:
        return tuple(corpus_mod.encode_trees(parse_latex(latex).trees, lib,
                                             policy))
    except LatexError:
        return (corpus_mod.DROPPED,)


def _encode_lines(chunk, path, lib, policy):
    """(page_id, encoded pieces) for each record of one chunk of JSONL
    lines, in order; a record whose LaTeX does not parse is one dropped
    piece.  Runs in a forked worker when there is a pool, so the trees
    stay there and only tuples of library indices come back."""
    first_lineno, lines = chunk
    out = []
    for lineno, line in enumerate(lines, first_lineno):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            ok = (type(rec["page_id"]) is int  # not a JSON true/false
                  and isinstance(rec["latex"], str))
        except (ValueError, KeyError, TypeError):
            ok = False
        if not ok:
            raise UsageError(f"{path}, line {lineno}: not a JSON object with "
                             f"an integer page_id and a string latex")
        out.append((rec["page_id"], _encode_latex(rec["latex"], lib, policy)))
    return out


def cmd_corpus(args):
    lib = _library_by_name(args.library)
    encode = partial(_encode_lines, path=args.infile, lib=lib,
                     policy=args.policy)
    with open(args.infile, encoding="utf-8") as f:
        # an unwritable output fails before the build, not after it, and
        # the check leaves no file behind
        existed = os.path.exists(args.out)
        open(args.out, "a").close()
        if not existed:
            os.remove(args.out)
        n = CORPUS_CHUNK_LINES  # the input is read a chunk at a time
        chunks = zip(count(1, n), iter(lambda: list(islice(f, n)), []))
        _encode_latex.cache_clear()  # the workers start with an empty cache
        encoded = fork_map(encode, chunks, usable_cpus())
        samples, stats = corpus_mod.collect_samples(
            (record for chunk in encoded for record in chunk), lib)
    corpus_mod.write_corpus(samples, args.out, lib)
    with open(args.out + ".stats.json", "w") as f:
        json.dump(stats.to_dict(), f, indent=2, sort_keys=True)
    print(f"samples={stats.n_samples} pages={stats.n_pages} "
          f"replaced={stats.n_replaced} split={stats.n_split} "
          f"dropped={stats.n_dropped}")
    return 0


def cmd_mlm_train(args):
    for flag, least in ("hidden", 1), ("emb", 1), ("batch", 1), ("epochs", 0):
        if getattr(args, flag) < least:
            raise UsageError(f"--{flag} must be >= {least}")
    if not 0 < args.lr < math.inf:
        raise UsageError("--lr must be a finite number > 0")
    with open(args.corpus, encoding="utf-8") as f:  # the library is vocab=
        vocab = re.search(r" vocab=(\S+)", f.readline())
    try:
        lib = _library_by_name(vocab[1] if vocab else "")
    except UsageError as e:
        raise UsageError(f"{args.corpus}, line 1: {e} in vocab=") from None
    model = mlm.init(lib, args.emb, args.hidden, args.seed)
    # training reads the corpus once, as it streams from the file
    seqs = (idxs for _, _, idxs in corpus_mod.iter_corpus(args.corpus, lib))
    try:
        history = mlm.train(model, seqs, epochs=args.epochs, lr=args.lr,
                            batch=args.batch, seed=args.seed)
    except corpus_mod.CorpusError as e:
        raise UsageError(str(e))
    except mlm.EmptyCorpus:  # the file's lines are never empty samples
        raise UsageError("corpus is empty") from None
    for epoch, loss in enumerate(history):
        print(f"epoch={epoch} loss={loss:.6f}")
    mlm.save(model, args.out)
    return 0


def _load_spec(args):
    if args.benchmark:
        specs = dsr.builtin_benchmarks()
        if args.benchmark not in specs:
            raise UsageError(f"unknown benchmark {args.benchmark!r}; "
                             f"choices: {', '.join(sorted(specs))}")
        return specs[args.benchmark]
    if not args.spec:
        raise UsageError("need --benchmark or --spec")
    with open(args.spec) as f:
        raw = json.load(f)
    if not isinstance(raw, dict):
        raise UsageError(f"{args.spec}: a spec is a JSON object")
    try:
        return dsr.BenchmarkSpec(
            name=raw["name"], expression=raw["expression"],
            variables=raw["variables"],
            n_points=raw.get("n_points", 20), ranges=raw.get("range", {}),
            library_tokens=raw["library"],
        )
    except KeyError as e:
        raise UsageError(f"spec missing field {e}")
    except dsr.DsrError as e:
        raise UsageError(f"{args.spec}: {e}")


def cmd_sr(args):
    for flag in ("runs", "max_steps", "batch_size"):
        if getattr(args, flag) < 1:
            raise UsageError(f"--{flag.replace('_', '-')} must be >= 1")
    if args.with_mlm and not all(0 <= lam < math.inf for lam in args.lam):
        raise UsageError("--lambda must be >= 0 and finite")
    spec = _load_spec(args)
    lib = spec.library()
    model = None
    if args.with_mlm:
        try:
            model = mlm.load(args.with_mlm, lib)
        except mlm.MLMError as e:
            raise UsageError(str(e))
    all_rows = []
    for lam in args.lam if model is not None else [0.0]:  # no prior: lambda 0
        config = dsr.SRConfig(library=lib, lam=lam, max_steps=args.max_steps,
                              batch_size=args.batch_size)
        try:
            metrics = dsr.run_benchmark(spec, config, args.runs,
                                        mlm_model=model, base_seed=args.seed,
                                        jobs=usable_cpus())
        except dsr.DsrError as e:
            raise UsageError(f"{args.spec or spec.name}: {e}")
        summary = dsr.summarize(metrics)
        print(f"{spec.name} lambda={lam} with_mlm={model is not None} "
              f"recovery={100 * summary['recovery_rate']:.1f}% "
              f"steps={summary['mean_steps']:.1f} "
              f"invalid={100 * summary['mean_invalid']:.2f}%")
        all_rows.extend(dsr.metrics_rows(spec.name, metrics, lam,
                                         model is not None))
    if args.out:
        dsr.write_metrics_csv(args.out, all_rows)
    return 0


def _read_metrics(path):
    """The rows of one metrics CSV as dicts, ``recovered`` and ``steps`` as
    ints and ``invalid_fraction`` as a float."""
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != dsr.CSV_HEADER:
            raise UsageError(f"{path}, line 1: expected the CSV header "
                             f"{','.join(dsr.CSV_HEADER)}")
        rows = []
        for row in reader:
            try:
                r = dict(zip(header, row, strict=True))
                r["recovered"] = int(r["recovered"])
                r["steps"] = int(r["steps"])
                r["invalid_fraction"] = float(r["invalid_fraction"])
            except ValueError:
                raise UsageError(
                    f"{path}, line {reader.line_num}: expected "
                    f"{len(header)} fields, with integer recovered and "
                    f"steps and a number invalid_fraction") from None
            rows.append(r)
        return rows


def _aggregate(rows):
    """Means of one metrics CSV per benchmark, in benchmark order, and
    within it per arm, ``(lambda, with_mlm)`` in the CSV's order."""
    groups = {}
    for r in rows:
        groups.setdefault(r["benchmark"], {}).setdefault(
            (r["lambda"], r["with_mlm"]), []).append(r)
    out = {}
    for bench, arms in sorted(groups.items()):
        out[bench] = {}
        for arm, rs in arms.items():
            n = len(rs)
            out[bench][arm] = {
                "recovery": 100.0 * sum(r["recovered"] for r in rs) / n,
                "steps": sum(r["steps"] for r in rs) / n,
                "invalid": 100.0 * sum(r["invalid_fraction"] for r in rs) / n,
            }
    return out


def _cells(a):
    """Report cells of one aggregate, dashes for none."""
    if not a:
        return ["-", "-", "-"]
    return [f"{a['recovery']:.1f}%", f"{a['steps']:.2f}",
            f"{a['invalid']:.2f}%"]


def cmd_report(args):
    if not args.metrics:
        raise UsageError("need at least one metrics CSV")
    columns = [(path, _aggregate(_read_metrics(path)))
               for path in args.metrics]
    benches = sorted({b for _, agg in columns for b in agg})

    header = ["benchmark"]
    for path, _ in columns:
        header += [f"recovery({path})", f"steps({path})", f"invalid({path})"]
    rows = [header]
    for bench in benches:
        arms = [agg.get(bench, {}) for _, agg in columns]
        if all(len(a) <= 1 for a in arms):  # each CSV's one arm side by side
            cells = [_cells(next(iter(a.values()), None)) for a in arms]
            rows.append([bench] + [c for cs in cells for c in cs])
            continue
        # a CSV with several arms, as from sr --lambda 0 0.5: a row per arm
        for lam, with_mlm in dict.fromkeys(arm for a in arms for arm in a):
            cells = [_cells(a.get((lam, with_mlm))) for a in arms]
            rows.append([f"{bench} lambda={lam} with_mlm={with_mlm}"]
                        + [c for cs in cells for c in cs])
    # each column's means over the arms it has, in benchmark order
    means = []
    for _, agg in columns:
        arms = [a for bench_arms in agg.values() for a in bench_arms.values()]
        means.append({k: sum(a[k] for a in arms) / len(arms)
                      for k in ("recovery", "steps", "invalid")}
                     if arms else None)
    rows.append(["Average:"] + [c for m in means for c in _cells(m)])
    lines = ["\t".join(row) for row in rows]
    text = "\n".join(lines) + "\n"
    with open(args.out, "w", encoding="utf-8") as f:
        f.write(text)

    html_rows = "\n".join(
        "<tr>" + "".join(f"<td>{html.escape(cell)}</td>"
                         for cell in line.split("\t")) + "</tr>"
        for line in lines)
    with open(args.out + ".html", "w", encoding="utf-8") as f:
        f.write(f"<html><body><table border=1>\n{html_rows}\n</table></body></html>\n")
    print(text, end="")
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="mathcorpus",
                                description="Wikipedia math corpus, language "
                                            "model, and symbolic regression")
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("extract", help="extract <math> LaTeX from an XML dump")
    pe.add_argument("--dump", help="pages-articles XML path, or - for stdin")
    pe.add_argument("--out", required=True)
    pe.add_argument("--sql-categorylinks")
    pe.add_argument("--sql-page")
    pe.add_argument("--category")
    pe.add_argument("--depth", type=int, default=3)
    pe.add_argument("--config")
    pe.set_defaults(handler=cmd_extract, sub_parser=pe)

    pc = sub.add_parser("corpus", help="build the token-sequence corpus")
    pc.add_argument("--in", dest="infile", required=True)
    pc.add_argument("--out", required=True)
    pc.add_argument("--library", default="std2")
    pc.add_argument("--policy", default="replace_and_split",
                    choices=corpus_mod.POLICIES)
    pc.add_argument("--config")
    pc.set_defaults(handler=cmd_corpus, sub_parser=pc)

    pm = sub.add_parser("mlm-train", help="train the math language model")
    pm.add_argument("--corpus", required=True)
    pm.add_argument("--out", required=True)
    pm.add_argument("--hidden", type=int, default=256)
    pm.add_argument("--emb", type=int, default=64)
    pm.add_argument("--epochs", type=int, default=200)
    pm.add_argument("--lr", type=float, default=0.002)
    pm.add_argument("--batch", type=int, default=64)
    pm.add_argument("--seed", type=int, default=0)
    pm.add_argument("--config")
    pm.set_defaults(handler=cmd_mlm_train, sub_parser=pm)

    ps = sub.add_parser("sr", help="run symbolic regression benchmarks")
    ps.add_argument("--benchmark")
    ps.add_argument("--spec")
    ps.add_argument("--runs", type=int, default=20)
    prior = ps.add_mutually_exclusive_group()
    prior.add_argument("--with-mlm", help="MLM1 weight file")
    prior.add_argument("--no-mlm", action="store_true")
    ps.add_argument("--lambda", dest="lam", type=float, nargs="+",
                    default=[0.5])
    ps.add_argument("--max-steps", type=int, default=2000)
    ps.add_argument("--batch-size", type=int, default=500)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--out", help="metrics CSV path")
    ps.add_argument("--config")
    ps.set_defaults(handler=cmd_sr, sub_parser=ps)

    pr = sub.add_parser("report", help="side-by-side comparison table")
    pr.add_argument("--metrics", nargs="+")
    pr.add_argument("--out", required=True)
    pr.add_argument("--config")
    pr.set_defaults(handler=cmd_report, sub_parser=pr)
    return p


# caches that hold entries only for the length of one main call
_CACHES = (_encode_latex, variable_token, constant_token)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            args = parser.parse_args(_with_config(args, argv))
        return args.handler(args)
    except SystemExit as e:
        return int(e.code or 0)
    except (UsageError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # internal error contract
        if isinstance(e, OSError) and e.filename is not None:
            # a file that cannot be opened is bad input, read or write
            print(f"error: cannot open {e.filename}: {e.strerror}",
                  file=sys.stderr)
            return 2
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    finally:
        for cache in _CACHES:
            cache.cache_clear()


if __name__ == "__main__":
    sys.exit(main())
