"""Which program functions the traced run wraps, and the per-layer metrics
computed from the spans and counts they record.

Each layer metric feeds the end-to-end throughput of one workload;
README.md has the map.  Names ending in ``.s`` or ``.self_s`` are self
times (span minus the time its child spans cover), in seconds per pass.
``*_ms_per_step`` and ``dsr.<mode>.recovered.s`` are inclusive phase times.
Counts are per pass.
"""

from __future__ import annotations

from statistics import median

from mathcorpus import cli, corpus, dsr, mlm, recurrent, wiki_extract

from .trace import self_times

CLI_SUBCOMMANDS = ("extract", "corpus", "mlm_train", "sr", "report")
LATEX_FAILURES = ("UnbalancedBraces", "TotallyUnparseable", "EmptyInput",
                  "LatexError")
DSR_MODES = ("plain", "prior")

# (name, unit, better); the order is the order BENCHMARK.json lists them in.
PER_LAYER = (
    [(f"cli.{c}.self_s", "s", "lower") for c in CLI_SUBCOMMANDS]
    + [
        ("wiki_extract.stream_pages.s", "s", "lower"),
        ("wiki_extract.pages", "count", "higher"),
        ("wiki_extract.extract_math.s", "s", "lower"),
        ("wiki_extract.expressions", "count", "higher"),
        ("wiki_extract.unterminated", "count", "lower"),
        ("wiki_extract.parse_sql_dump.s", "s", "lower"),
        ("wiki_extract.sql_rows", "count", "higher"),
        ("wiki_extract.build_category_tree.s", "s", "lower"),
        ("wiki_extract.filter_kept_fraction", "fraction", "higher"),
        ("latex_parser.parse_latex.s", "s", "lower"),
        ("latex_parser.parse_latex.calls", "count", "higher"),
        ("latex_parser.trees", "count", "higher"),
        ("latex_parser.unsupported", "count", "lower"),
    ]
    + [(f"latex_parser.failed.{t}", "count", "lower")
       for t in LATEX_FAILURES + ("other",)]
    + [
        ("corpus.build_corpus.s", "s", "lower"),
        ("corpus.write_corpus.s", "s", "lower"),
        ("corpus.read_corpus.s", "s", "lower"),
        ("corpus.samples", "count", "higher"),
        ("corpus.dropped", "count", "lower"),
        ("corpus.admit_fraction", "fraction", "higher"),
        ("mlm.train.s", "s", "lower"),
        ("mlm.loss_and_gradients.s", "s", "lower"),
        ("mlm.loss_and_gradients.calls", "count", "lower"),
        ("mlm.corpus_loss.s", "s", "lower"),
        ("mlm.tokens", "count", "higher"),
        ("mlm.padded_slots", "count", "lower"),
        ("mlm.padding_efficiency", "fraction", "higher"),
        ("mlm.save.s", "s", "lower"),
        ("mlm.load.s", "s", "lower"),
        ("mlm.step_batch.s", "s", "lower"),
        ("mlm.step_batch.calls", "count", "lower"),
        ("recurrent.GRUCell.forward.s", "s", "lower"),
        ("recurrent.GRUCell.forward.calls", "count", "lower"),
        ("recurrent.GRUCell.backward.s", "s", "lower"),
        ("recurrent.gru.flops", "flop", "lower"),
    ]
    + [(f"dsr.{m}.{k}", u, b) for m in DSR_MODES for k, u, b in (
        ("sample_ms_per_step", "ms", "lower"),
        ("reward_ms_per_step", "ms", "lower"),
        ("train_ms_per_step", "ms", "lower"),
        ("recovered.s", "s", "lower"),
        ("steps", "count", "higher"),
        ("expressions", "count", "higher"),
        ("unique_fraction", "fraction", "higher"),
        ("invalid_fraction", "fraction", "lower"),
        ("mean_length", "tokens", "lower"),
        ("recovered_runs", "count", "higher"),
    )]
    + [
        ("expr_core.traversal_to_tree.s", "s", "lower"),
        ("expr_core.evaluate_batch.s", "s", "lower"),
        ("expr_core.evaluate_batch.calls", "count", "lower"),
        ("expr_core.nodes_evaluated", "count", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.overhead_fraction", "fraction", "lower"),
    ]
)

# -- count hooks --------------------------------------------------------------

def _count_items(key):
    def after(tracer, args, kwargs, result, state):
        tracer.count(key)
    return after


def _extract_math_before(args, kwargs):
    tally = args[1] if len(args) > 1 else kwargs.get("tally")
    return tally, (tally or {}).get("unterminated", 0)


def _extract_math_after(tracer, args, kwargs, result, state):
    tally, before = state
    tracer.count("wiki_extract.expressions", len(result))
    if tally is not None:
        tracer.count("wiki_extract.unterminated",
                     tally.get("unterminated", 0) - before)


def _filter_after(tracer, args, kwargs, result, state):
    tracer.count("wiki_extract.filter_offered", len(args[1]))
    tracer.count("wiki_extract.filter_kept", len(result))


def _parse_latex_after(tracer, args, kwargs, outcome, state):
    tracer.count("latex_parser.trees", len(outcome.trees))
    tracer.count("latex_parser.unsupported", len(outcome.unsupported))


def _build_corpus_after(tracer, args, kwargs, result, state):
    _, stats = result
    tracer.count("corpus.offered", sum(len(o.trees) for _, o in args[0]))
    tracer.count("corpus.samples", stats.n_samples)
    tracer.count("corpus.dropped", stats.n_dropped)


def _loss_after(tracer, args, kwargs, result, state):
    seqs = args[1]
    tracer.count("mlm.tokens", sum(len(s) for s in seqs))
    tracer.count("mlm.padded_slots", len(seqs) * max(len(s) for s in seqs))


def _gru_flops(factor):
    # matmul flops only: three gates, each an input and a recurrent product
    def after(tracer, args, kwargs, result, state):
        cell, rows = args[0], args[1].shape[0]
        tracer.count("recurrent.gru.flops",
                     factor * rows * cell.hidden * (cell.d_in + cell.hidden))
    return after


def _sample_after(tracer, args, kwargs, travs, state):
    m = f"dsr.{tracer.scope}"
    tracer.count(f"{m}.steps")
    tracer.count(f"{m}.expressions", len(travs))
    tracer.count(f"{m}.length_sum", sum(len(t) for t in travs))
    tracer.count(f"{m}.unique_sum", len({t.seq for t in travs}) / len(travs))


def _reward_after(tracer, args, kwargs, result, state):
    m = f"dsr.{tracer.scope}"
    tracer.count(f"{m}.rewards")
    tracer.count(f"{m}.invalid", int(result[1]))


def _evaluate_after(tracer, args, kwargs, result, state):
    tracer.count("expr_core.nodes_evaluated", args[0].size())


def install(tracer):
    """Wrap the module attributes the CLI and the modules call through."""
    p = tracer.patch
    p(wiki_extract, "stream_pages", "wiki_extract.stream_pages",
      generator=True, after=_count_items("wiki_extract.pages"))
    p(wiki_extract, "extract_math", "wiki_extract.extract_math",
      before=_extract_math_before, after=_extract_math_after)
    p(wiki_extract, "parse_sql_dump", "wiki_extract.parse_sql_dump",
      generator=True, after=_count_items("wiki_extract.sql_rows"))
    p(wiki_extract, "build_category_tree", "wiki_extract.build_category_tree")
    p(wiki_extract, "filter_pages_by_category",
      "wiki_extract.filter_pages_by_category", after=_filter_after)
    p(cli, "parse_latex", "latex_parser.parse_latex",
      after=_parse_latex_after, failed="latex_parser.failed")
    p(corpus, "build_corpus", "corpus.build_corpus", after=_build_corpus_after)
    p(corpus, "write_corpus", "corpus.write_corpus")
    p(corpus, "read_corpus", "corpus.read_corpus")
    p(mlm, "train", "mlm.train")
    p(mlm, "loss_and_gradients", "mlm.loss_and_gradients", after=_loss_after)
    p(mlm, "corpus_loss", "mlm.corpus_loss")
    p(mlm, "save", "mlm.save")
    p(mlm, "load", "mlm.load")
    p(mlm.MLMModel, "step_batch", "mlm.step_batch")
    p(recurrent.GRUCell, "forward", "recurrent.GRUCell.forward",
      after=_gru_flops(6))
    p(recurrent.GRUCell, "backward", "recurrent.GRUCell.backward",
      after=_gru_flops(12))
    p(dsr, "sample_batch", "dsr.sample_batch", after=_sample_after)
    p(dsr, "reward", "dsr.reward", after=_reward_after)
    p(dsr, "train_step", "dsr.train_step")
    p(dsr, "recovered", "dsr.recovered")
    p(dsr, "traversal_to_tree", "expr_core.traversal_to_tree")
    p(dsr, "evaluate_batch", "expr_core.evaluate_batch",
      after=_evaluate_after)


def _ratio(a, b):
    return a / b if b else 0.0


def pass_metrics(spans, counts, recovered):
    """Per-layer metrics of one traced pass, every PER_LAYER name but the
    tracing overhead, which needs the untraced passes too.

    ``recovered`` maps search mode -> recovered runs in the pass; the spans
    of each mode's search carry the mode as their scope."""
    _, self_, calls = self_times(spans)
    c = counts
    out = {}
    for name, unit, _ in PER_LAYER:
        if name.startswith(("dsr.", "trace.")) or unit == "fraction":
            out[name] = 0.0  # filled in below
        elif name.endswith(".self_s"):
            out[name] = self_[name[:-len(".self_s")]]
        elif name.endswith(".s"):
            out[name] = self_[name[:-len(".s")]]
        elif name.endswith(".calls"):
            out[name] = calls[name[:-len(".calls")]]
        else:
            out[name] = c[name]
    out["latex_parser.failed.other"] = sum(
        n for key, n in c.items() if key.startswith("latex_parser.failed.")
        and key.rsplit(".", 1)[1] not in LATEX_FAILURES)
    out["wiki_extract.filter_kept_fraction"] = _ratio(
        c["wiki_extract.filter_kept"], c["wiki_extract.filter_offered"])
    out["corpus.admit_fraction"] = _ratio(c["corpus.samples"],
                                          c["corpus.offered"])
    out["mlm.padding_efficiency"] = _ratio(c["mlm.tokens"],
                                           c["mlm.padded_slots"])
    for mode in DSR_MODES:
        m = f"dsr.{mode}"
        steps = c[f"{m}.steps"]
        if not steps:
            continue
        phase, _, _ = self_times([s for s in spans if s.scope == mode])
        for name, span in (("sample", "dsr.sample_batch"),
                           ("reward", "dsr.reward"),
                           ("train", "dsr.train_step")):
            out[f"{m}.{name}_ms_per_step"] = 1e3 * phase[span] / steps
        out[f"{m}.recovered.s"] = phase["dsr.recovered"]
        out[f"{m}.steps"] = steps
        out[f"{m}.expressions"] = c[f"{m}.expressions"]
        out[f"{m}.unique_fraction"] = c[f"{m}.unique_sum"] / steps
        out[f"{m}.invalid_fraction"] = _ratio(c[f"{m}.invalid"],
                                              c[f"{m}.rewards"])
        out[f"{m}.mean_length"] = _ratio(c[f"{m}.length_sum"],
                                         c[f"{m}.expressions"])
        out[f"{m}.recovered_runs"] = recovered.get(mode, 0)
    return out


def median_metrics(per_pass):
    """Median of each metric over traced passes."""
    return {name: median(p[name] for p in per_pass) for name in per_pass[0]}
