"""Seeded input generator for the benchmark.

Everything the program reads in a benchmark run is written here, from one
seed: a MediaWiki pages-articles XML dump with the matching `page` and
`categorylinks` SQL tables.  The generator also returns what it emitted
(page count, <math> bodies the category filter keeps, unterminated tags), so
the benchmark can check the program's counts against an independent source.

Why the workloads are what they are:

- ingest: extract (with the category filter) and corpus over a dump of
  tens of thousands of pages.  It exercises wiki_extract, latex_parser and
  corpus and does no model work, so it is the bypass workload for any GRU
  or search change, and the only one where dump-scale memory shows.
- mlm-train: mlm-train at the CLI defaults (H=256, E=64, batch 64) on the
  corpus that extract + corpus build from a smaller dump.  Nearly all time
  is MLM forward and backward passes; parsing and search are bypassed.
- search: `sr --no-mlm`, then `sr --with-mlm --lambda 0.5` with the same
  budget and seeds, on one built-in target, then `report` on both CSVs:
  the paper's comparison with and without the prior.  dsr and expr_core
  dominate.  The prior is a small H=32/E=16 MLM trained during set-up on
  prior_sequences(), so in the second half mlm runs batch-500 inference
  with no backward pass; a training-only speedup that slows inference shows
  here.

ingest and mlm-train read a generated dump.  The dump mixes supported
LaTeX (\\frac, \\sqrt, powers, functions, implicit multiplication),
unsupported constructs (\\int, \\sum, \\lim, \\vec), relations,
entity-escaped bodies, empty, self-closing and unterminated
<math> tags, pages outside the main namespace, and a category tree with
subcategories, cycles, categories deeper than the filter depth and pages
outside the tree.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from xml.sax.saxutils import escape

ROOT_CATEGORY = "Mathematics"
FILTER_DEPTH = 3
NS_MAIN = 0
NS_CATEGORY = 14
# Talk, User, Wikipedia, Template: pages the extractor must skip.
OTHER_NAMESPACES = (1, 2, 4, 10)

_WORDS = (
    "the of and to in is a that for as with by on are this be which it "
    "from or an function equation theorem proof value set group field "
    "space number series integral limit variable constant curve point "
    "given where then let such every any defined called known result "
    "order form term example case first second real complex linear"
).split()

_VARS = ("x", "y", "t", "a", "b", "n", "z", "\\alpha", "\\theta", "x_1",
         "x_{2}")
_TIMES = ("\\cdot", "\\times")
_RELATIONS = ("=", "\\le", "\\ne", "\\approx")
_FUNCS = ("\\sin", "\\cos", "\\tan", "\\exp", "\\log", "\\ln")


@dataclass
class DumpExpectation:
    """What the generator emitted, for checking the program's counts."""

    pages: int = 0
    kept_expressions: int = 0
    unterminated: int = 0
    dump_bytes: int = 0


class _LatexGen:
    """Random LaTeX bodies over the constructs listed in the module doc."""

    def __init__(self, rng):
        self.rng = rng

    def atom(self):
        r = self.rng.random()
        if r < 0.55:
            return self.rng.choice(_VARS[:4])
        if r < 0.7:
            return self.rng.choice(_VARS)
        if r < 0.95:
            return str(self.rng.randint(0, 9))
        return f"{self.rng.randint(1, 9)}.{self.rng.randint(1, 9)}"

    def expr(self, depth):
        rng = self.rng
        if depth <= 0 or rng.random() < 0.25:
            return self.atom()
        a = lambda: self.expr(depth - 1)  # noqa: E731
        r = rng.random()
        if r < 0.18:
            return f"{a()} {rng.choice('+-')} {a()}"
        if r < 0.28:
            return f"{a()} {rng.choice(_TIMES)} {a()}"
        if r < 0.38:  # implicit multiplication
            return f"{rng.randint(2, 9)}{rng.choice(_VARS[:4])}"
        if r < 0.50:
            return f"\\frac{{{a()}}}{{{a()}}}"
        if r < 0.56:
            return f"\\sqrt{{{a()}}}"
        if r < 0.68:
            base = rng.choice(_VARS[:4])
            exp_ = str(rng.randint(2, 4)) if rng.random() < 0.6 else f"{{{a()}}}"
            return f"{base}^{exp_}"
        if r < 0.82:
            f = rng.choice(_FUNCS)
            if rng.random() < 0.5:
                return f"{f}({a()})"
            return f"{f} {rng.choice(_VARS[:4])}"
        if r < 0.88:
            return f"\\left( {a()} \\right)^2"
        return f"({a()})"

    def unsupported(self):
        rng = self.rng
        v = rng.choice(_VARS[:3])
        r = rng.random()
        if r < 0.3:
            return f"\\int_0^1 {self.expr(2)} \\, d{v}"
        if r < 0.55:
            return f"\\sum_{{i=1}}^{{n}} {self.expr(2)}"
        if r < 0.8:
            return f"\\lim_{{{v} \\to 0}} {self.expr(2)}"
        return f"\\vec{{{v}}} + {self.expr(1)}"

    def body(self):
        """One <math> body, entity-encoding applied where chosen.

        Returned text is raw wikitext (before XML escaping)."""
        rng = self.rng
        r = rng.random()
        if r < 0.55:
            return self.expr(3)
        if r < 0.70:
            return self.unsupported()
        if r < 0.82:
            rel = rng.choice(_RELATIONS)
            return f"{self.expr(2)} {rel} {self.expr(2)}"
        if r < 0.93:  # entity-escaped relation, decoded by the extractor
            return f"{self.expr(2)} &lt; {self.expr(1)}"
        if r < 0.97:
            return f"{self.expr(2)} &gt;= {self.expr(1)}"
        # bodies the parser rejects: unbalanced brace, bare operator
        return rng.choice(("{x + 1", "x^", "\\frac{1}", "+ }"))


@dataclass
class _Category:
    name: str
    page_id: int
    parents: list


def _category_graph(rng, first_id, n_tree, n_off):
    """Categories under the root, with diamonds, a cycle back to the root
    and a chain deeper than FILTER_DEPTH, plus an unrelated off-tree group."""
    cats = [_Category(ROOT_CATEGORY, first_id, [])]
    for i in range(1, n_tree):
        # parents among earlier categories: a tree with extra diamond edges
        parents = [rng.randrange(i)]
        if i > 3 and rng.random() < 0.2:
            parents.append(rng.randrange(i))
        cats.append(_Category(f"Math_topic_{i}", first_id + i,
                              sorted(set(parents))))
    # a chain that runs past the filter depth
    prev = 0
    for k in range(FILTER_DEPTH + 2):
        cats.append(_Category(f"Deep_chain_{k}", first_id + len(cats), [prev]))
        prev = len(cats) - 1
    # cycle: the root is listed as a subcategory of a descendant
    cats[0].parents.append(len(cats) - 1)
    cats[0].parents.append(rng.randrange(1, n_tree))
    off_start = len(cats)
    for j in range(n_off):
        parents = [] if j == 0 else [off_start + rng.randrange(j)]
        cats.append(_Category(f"Sport_topic_{j}", first_id + len(cats), parents))
    return cats


def _in_tree(cats):
    """Indices of categories within FILTER_DEPTH subcategory hops of the
    root (shortest path), which is what the category filter keeps."""
    children = {i: [] for i in range(len(cats))}
    for i, c in enumerate(cats):
        for p in c.parents:
            children[p].append(i)
    dist = {0: 0}
    queue = deque([0])
    while queue:
        i = queue.popleft()
        if dist[i] == FILTER_DEPTH:
            continue
        for j in children[i]:
            if j not in dist:
                dist[j] = dist[i] + 1
                queue.append(j)
    return set(dist)


def _page_text(rng, latex, n_math, want_unterminated):
    """Wikitext for one page and the number of non-empty closed bodies."""
    parts = []
    n_bodies = 0
    for _ in range(n_math):
        parts.append(" ".join(rng.choices(_WORDS, k=rng.randint(8, 30))))
        r = rng.random()
        if r < 0.04:
            # written without a space: the extractor reads `<math />` as an
            # opening tag, a defect of the program this benchmark reports
            # rather than measures
            parts.append("<math/>")
        elif r < 0.07:
            parts.append("<math> </math>")
        else:
            attr = ' display="block"' if rng.random() < 0.15 else ""
            parts.append(f"<math{attr}>{latex.body()}</math>")
            n_bodies += 1
    parts.append(" ".join(rng.choices(_WORDS, k=rng.randint(20, 60))) + ".")
    if want_unterminated:
        parts.append(f"<math>{latex.expr(1)} +")
    return " ".join(parts), n_bodies


def _sql_str(s):
    return "'" + s.replace("\\", "\\\\").replace("'", "\\'") + "'"


def _write_sql(path, table, rows, per_statement=500):
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"-- MediaWiki SQL dump for table `{table}`\n")
        for i in range(0, len(rows), per_statement):
            chunk = rows[i:i + per_statement]
            f.write(f"INSERT INTO `{table}` VALUES "
                    + ",".join(chunk) + ";\n")


def write_dump(out_dir, seed, n_pages):
    """Write dump.xml, page.sql and categorylinks.sql into ``out_dir``.

    Returns (paths dict, DumpExpectation).  The same seed and page count
    give byte-identical files.
    """
    rng = random.Random(f"perfbench-dump-{seed}-{n_pages}")
    latex = _LatexGen(rng)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    n_tree = max(8, n_pages // 400)
    cats = _category_graph(rng, first_id=n_pages + 10, n_tree=n_tree,
                           n_off=max(3, n_tree // 4))
    in_tree = _in_tree(cats)
    tree_idx = sorted(in_tree)
    off_idx = [i for i in range(len(cats)) if i not in in_tree]

    expect = DumpExpectation()
    page_rows, link_rows = [], []
    ts = "'20210101000000'"
    for c in cats:
        page_rows.append(f"({c.page_id},{NS_CATEGORY},{_sql_str(c.name)},"
                         f"'',0,0,0.5,{ts},1,120)")
        for p in c.parents:
            link_rows.append(f"({c.page_id},{_sql_str(cats[p].name)},"
                             f"{_sql_str(c.name.upper())},{ts},'','uca',"
                             f"'subcat')")

    dump_path = out_dir / "dump.xml"
    with open(dump_path, "w", encoding="utf-8") as f:
        f.write('<mediawiki xmlns="http://www.mediawiki.org/xml/export-0.10/"'
                ' version="0.10" xml:lang="en">\n'
                "  <siteinfo><sitename>Wikipedia</sitename>"
                "<dbname>enwiki</dbname></siteinfo>\n")
        for page_id in range(1, n_pages + 1):
            if rng.random() < 0.08:
                ns = rng.choice(OTHER_NAMESPACES)
                title = f"Other:Page_{page_id}"
            else:
                ns = NS_MAIN
                title = f"Article {page_id}"
            n_math = rng.choice((0, 1, 1, 2, 2, 3, 3, 4, 5, 6))
            want_unterminated = rng.random() < 0.03
            text, n_bodies = _page_text(rng, latex, n_math, want_unterminated)
            # category membership: in-tree, off-tree, both or none
            r = rng.random()
            members = []
            if r < 0.55:
                members.append(rng.choice(tree_idx))
            elif r < 0.8:
                members.append(rng.choice(off_idx))
            elif r < 0.9:
                members += [rng.choice(tree_idx), rng.choice(off_idx)]
            members = sorted(set(members))
            for m in members:
                text += f"\n[[Category:{cats[m].name}]]"
                link_rows.append(f"({page_id},{_sql_str(cats[m].name)},"
                                 f"{_sql_str(title.upper())},{ts},'','uca',"
                                 f"'page')")
            page_rows.append(f"({page_id},{ns},{_sql_str(title)},'',0,0,"
                             f"0.5,{ts},1,{len(text)})")
            expect.pages += 1
            if ns == NS_MAIN:
                expect.unterminated += int(want_unterminated)
                if any(m in in_tree for m in members):
                    expect.kept_expressions += n_bodies
            f.write(f"  <page>\n    <title>{escape(title)}</title>\n"
                    f"    <ns>{ns}</ns>\n    <id>{page_id}</id>\n"
                    f"    <revision>\n      <id>{page_id + 7000000}</id>\n"
                    f"      <timestamp>2021-01-01T00:00:00Z</timestamp>\n"
                    f'      <text bytes="{len(text)}" xml:space="preserve">'
                    f"{escape(text)}</text>\n    </revision>\n  </page>\n")
        # category description pages are part of a real dump too
        for c in cats:
            expect.pages += 1
            f.write(f"  <page>\n    <title>Category:{escape(c.name)}</title>\n"
                    f"    <ns>{NS_CATEGORY}</ns>\n    <id>{c.page_id}</id>\n"
                    f"    <revision><text>Pages about {escape(c.name)}."
                    f"</text></revision>\n  </page>\n")
        f.write("</mediawiki>\n")

    page_sql = out_dir / "page.sql"
    links_sql = out_dir / "categorylinks.sql"
    rng.shuffle(link_rows)
    _write_sql(page_sql, "page", page_rows)
    _write_sql(links_sql, "categorylinks", link_rows)
    expect.dump_bytes = dump_path.stat().st_size
    paths = {"dump": dump_path, "page_sql": page_sql, "links_sql": links_sql}
    return paths, expect


def prior_sequences(lib, seed, n, max_len=12):
    """``n`` complete pre-order traversals over ``lib`` (library indices) to
    train the search prior on the search library's own vocabulary.

    Terminals are drawn more often than operators, so the prior prefers
    short expressions, as a corpus of written formulas does.
    """
    rng = random.Random(f"perfbench-prior-{seed}")
    arity = [t.arity for t in lib]
    idx = list(range(len(lib)))
    weights = [4.0 if a == 0 else 1.5 if a == 2 else 1.0 for a in arity]
    terminals = [i for i in idx if arity[i] == 0]
    seqs = []
    while len(seqs) < n:
        seq, open_ = [], 1
        while open_:
            if len(seq) + open_ >= max_len - 1:
                tok = rng.choice(terminals)
            else:
                tok = rng.choices(idx, weights)[0]
            seq.append(tok)
            open_ += arity[tok] - 1
        seqs.append(seq)
    return seqs
