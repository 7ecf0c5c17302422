"""Command-line entry point: extract -> corpus -> mlm-train -> sr -> report.

Stages communicate only through documented files (JSONL records, corpus v1,
MLM1 weights, metrics CSV) so they can run on different machines.
Exit codes: 0 success, 1 internal error, 2 usage/input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import corpus as corpus_mod
from . import dsr, mlm, wiki_extract
from .expr_core import default_library
from .latex_parser import LatexError, parse_latex


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
    if name.startswith("std"):
        try:
            n_vars = int(name[3:] or "2")
        except ValueError:
            raise UsageError(f"unknown library {name!r}")
        return default_library(n_vars=n_vars, name=name)
    raise UsageError(f"unknown library {name!r}")


def cmd_extract(args):
    source = sys.stdin.buffer if args.dump in (None, "-") else args.dump
    if args.category:  # before the dump is read, so bad flags fail fast
        if not (args.sql_categorylinks and args.sql_page):
            raise UsageError("--category requires --sql-categorylinks and --sql-page")
        try:
            links = list(wiki_extract.parse_sql_dump(args.sql_categorylinks,
                                                     "categorylinks"))
            pages = {p.page_id: p
                     for p in wiki_extract.parse_sql_dump(args.sql_page, "page")}
            tree = wiki_extract.build_category_tree(args.category, links, pages,
                                                    args.depth)
        except wiki_extract.WikiError as e:
            raise UsageError(str(e))

    tally = {}
    expressions = []
    n_pages = 0
    # opened before the dump is read, so an unwritable output fails fast
    with open(args.out, "w", encoding="utf-8") as f:
        try:
            for page in wiki_extract.stream_pages(source):
                n_pages += 1
                if page.namespace != wiki_extract.NS_MAIN:
                    continue
                expressions.extend(wiki_extract.extract_math(page, tally))
        except wiki_extract.WikiError as e:
            raise UsageError(f"malformed dump: {e}")
        if args.category:
            expressions = wiki_extract.filter_pages_by_category(tree,
                                                                expressions)
        for e in expressions:
            f.write(json.dumps({"page_id": e.page_id,
                                "page_title": e.page_title,
                                "offset": e.char_offset,
                                "latex": e.latex}, ensure_ascii=False) + "\n")
    unterminated = tally.get("unterminated", 0)
    print(f"pages={n_pages} expressions={len(expressions)} "
          f"unterminated={unterminated}")
    return 0


def cmd_corpus(args):
    if args.max_vars < 1:
        raise UsageError("--max-vars must be >= 1")
    lib = _library_by_name(args.library)
    parsed = []
    n_parse_failures = 0
    with open(args.infile, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                ok = (type(rec["page_id"]) is int  # not a JSON true/false
                      and isinstance(rec["latex"], str))
            except (ValueError, KeyError, TypeError):
                ok = False
            if not ok:
                raise UsageError(f"{args.infile}, line {lineno}: not a JSON "
                                 f"object with an integer page_id and a "
                                 f"string latex")
            try:
                outcome = parse_latex(rec["latex"])
            except LatexError:
                n_parse_failures += 1
                continue
            parsed.append((rec["page_id"], outcome))

    try:
        samples, stats = corpus_mod.build_corpus(
            parsed, lib, policy=args.policy, max_vars=args.max_vars)
    except corpus_mod.CorpusError as e:
        raise UsageError(str(e))
    stats.n_dropped += n_parse_failures
    corpus_mod.write_corpus(samples, args.out, lib)
    with open(args.out + ".stats.json", "w") as f:
        json.dump(stats.to_dict(), f, indent=2, sort_keys=True)
    print(f"samples={stats.n_samples} pages={stats.n_pages} "
          f"replaced={stats.n_replaced} split={stats.n_split} "
          f"dropped={stats.n_dropped}")
    return 0


def cmd_mlm_train(args):
    lib = _library_by_name(args.library)
    try:
        samples = corpus_mod.read_corpus(args.corpus, lib)
    except corpus_mod.CorpusError as e:
        raise UsageError(str(e))
    if not samples:
        raise UsageError("corpus is empty")
    model = mlm.init(lib, args.emb, args.hidden, args.seed)
    seqs = [list(s.traversal) for s in samples]
    history = mlm.train(model, seqs, epochs=args.epochs, lr=args.lr,
                        batch=args.batch, seed=args.seed)
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
    try:
        return dsr.BenchmarkSpec(
            name=raw["name"], expression=raw["expression"],
            variables=list(raw["variables"]),
            n_points=raw.get("n_points", 20),
            ranges={k: tuple(v) for k, v in raw.get("range", {}).items()},
            library_tokens=list(raw["library"]),
        )
    except KeyError as e:
        raise UsageError(f"spec missing field {e}")
    except dsr.DsrError as e:
        raise UsageError(f"{args.spec}: {e}")


def cmd_sr(args):
    for flag in ("runs", "max_steps", "batch_size", "jobs"):
        if getattr(args, flag) < 1:
            raise UsageError(f"--{flag.replace('_', '-')} must be >= 1")
    if args.with_mlm and args.lam < 0:
        raise UsageError("--lambda must be >= 0")
    spec = _load_spec(args)
    lib = spec.library()
    model = None
    if args.with_mlm:
        try:
            model = mlm.load(args.with_mlm, lib)
        except mlm.MLMError as e:
            raise UsageError(str(e))
    lambdas = ([round(0.1 * k, 1) for k in range(1, 11)]
               if args.lambda_sweep else [args.lam])
    if model is None:
        lambdas = [0.0]

    all_rows = []
    for lam in lambdas:
        config = dsr.SRConfig(library=lib, lam=lam, max_steps=args.max_steps,
                              batch_size=args.batch_size)
        try:
            metrics = dsr.run_benchmark(spec, config, args.runs,
                                        mlm_model=model, base_seed=args.seed,
                                        jobs=args.jobs)
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
    import csv as _csv

    with open(path, newline="", encoding="utf-8") as f:
        reader = _csv.reader(f)
        header = next(reader)
        if header != dsr.CSV_HEADER:
            raise UsageError(f"{path}: unexpected CSV schema {header}")
        return [dict(zip(header, row)) for row in reader]


def _aggregate(rows):
    by_bench = {}
    for r in rows:
        by_bench.setdefault(r["benchmark"], []).append(r)
    out = {}
    for bench, rs in sorted(by_bench.items()):
        n = len(rs)
        out[bench] = {
            "recovery": 100.0 * sum(int(r["recovered"]) for r in rs) / n,
            "steps": sum(int(r["steps"]) for r in rs) / n,
            "invalid": 100.0 * sum(float(r["invalid_fraction"]) for r in rs) / n,
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
    rows = [header] + [[bench] + [c for _, agg in columns
                                  for c in _cells(agg.get(bench))]
                       for bench in benches]
    # each column's means over the benchmarks it has, in benchmark order
    means = [{k: sum(a[k] for a in agg.values()) / len(agg)
              for k in ("recovery", "steps", "invalid")} if agg else None
             for _, agg in columns]
    rows.append(["Average:"] + [c for m in means for c in _cells(m)])
    lines = ["\t".join(row) for row in rows]
    text = "\n".join(lines) + "\n"
    with open(args.out, "w", encoding="utf-8") as f:
        f.write(text)

    html_rows = "\n".join(
        "<tr>" + "".join(f"<td>{cell}</td>" for cell in line.split("\t")) + "</tr>"
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
    pc.add_argument("--max-vars", type=int, default=2)
    pc.add_argument("--config")
    pc.set_defaults(handler=cmd_corpus, sub_parser=pc)

    pm = sub.add_parser("mlm-train", help="train the math language model")
    pm.add_argument("--corpus", required=True)
    pm.add_argument("--out", required=True)
    pm.add_argument("--library", default="std2")
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
    ps.add_argument("--lambda", dest="lam", type=float, default=0.5)
    ps.add_argument("--lambda-sweep", action="store_true")
    ps.add_argument("--max-steps", type=int, default=2000)
    ps.add_argument("--batch-size", type=int, default=500)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--jobs", type=int, default=len(os.sched_getaffinity(0)))
    ps.add_argument("--out", help="metrics CSV path")
    ps.add_argument("--config")
    ps.set_defaults(handler=cmd_sr, sub_parser=ps)

    pr = sub.add_parser("report", help="side-by-side comparison table")
    pr.add_argument("--metrics", nargs="+")
    pr.add_argument("--out", required=True)
    pr.add_argument("--config")
    pr.set_defaults(handler=cmd_report, sub_parser=pr)
    return p


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


if __name__ == "__main__":
    sys.exit(main())
