"""The expat page reader, the regex SQL cell scanner, the category tree
and the one-walk corpus build against the previous implementations, kept
here verbatim as references: the ElementTree page reader, the
character-at-a-time VALUES state machine with the typing of every cell,
the page-row filter and tree of CategoryNodes, and
canonicalize_variables, admit, augment_replace and augment_split, with
conftest's plain_traversal as the encoder."""

import io
import os
import random
import xml.etree.ElementTree as ET
from collections import deque, namedtuple
from dataclasses import dataclass, field
from dataclasses import replace as dc_replace
from functools import cached_property, partial

import numpy as np
import pytest

from mathcorpus.corpus import (
    CorpusSample,
    CorpusStats,
    PLACEHOLDER,
    POLICIES,
    augment_split,
    build_corpus,
    has_markers,
    split_fragments,
)
from mathcorpus.expr_core import (
    ExprError,
    ExprTree,
    Library,
    OPERATOR,
    Token,
    VARIABLE,
    default_library,
    node,
)
from mathcorpus.latex_parser import ParseOutcome, is_unsupported_marker
from mathcorpus.wiki_extract import (
    NS_CATEGORY,
    NS_MAIN,
    MalformedXml,
    PageRecord,
    RootNotFound,
    SqlSyntax,
    TruncatedDump,
    WikiError,
    _parse_values,
    build_category_tree,
    parse_sql_dump,
    stream_pages,
)

from conftest import plain_traversal, random_tree, serialize_rows
from test_cli import perfbench_gen, write_tree_rows
from test_corpus import inject_markers


# --- pages-articles XML -----------------------------------------------------

def _localname(tag):
    return tag.rsplit("}", 1)[-1]


def reference_stream_pages(source):
    """Yield PageRecords from a pages-articles XML stream, one page in memory
    at a time.

    Accepts a binary file object or a path.  Truncated input raises
    TruncatedDump after yielding all complete pages; other XML problems
    raise MalformedXml with a byte offset.
    """
    close = isinstance(source, (str, bytes, os.PathLike))
    if close:
        source = open(source, "rb")
    # finished pages stay children of the root unless the root is cleared
    root = None
    try:
        for event, elem in ET.iterparse(source, events=("start", "end")):
            if root is None:
                root = elem
            if event != "end" or _localname(elem.tag) != "page":
                continue
            page_id, title, ns, text = None, "", 0, ""
            for child in elem:
                name = _localname(child.tag)
                if name == "id" and page_id is None:
                    page_id = child.text or 0
                elif name == "title":
                    title = child.text or ""
                elif name == "ns":
                    ns = child.text or 0
                elif name == "revision":
                    for sub in child:
                        if _localname(sub.tag) == "text":
                            text = sub.text or ""
            try:
                page = PageRecord(page_id=int(page_id or 0), title=title,
                                  namespace=int(ns), text=text)
            except ValueError:
                raise MalformedXml(
                    f"page {title!r}: id {page_id!r} or namespace {ns!r} "
                    f"is not an integer") from None
            yield page
            root.clear()
    except ET.ParseError as e:
        if "no element found" in str(e):
            raise TruncatedDump(f"dump truncated: {e}") from e
        offset = getattr(e, "position", (None, None))
        raise MalformedXml(str(e), offset=offset[1]) from e
    finally:
        if close:
            source.close()


def pages_outcome(read, dump):
    """The pages read, then the error raised: its type and its message up
    to the offset, which the reference gives as a column."""
    pages = []
    try:
        for page in read(io.BytesIO(dump)):
            pages.append(page)
    except WikiError as e:
        return pages, (type(e).__name__, str(e).split(" (byte ")[0])
    return pages, None


def _page(body, page_id=1):
    return (f"<page><title>P{page_id}</title><ns>0</ns><id>{page_id}</id>"
            f"{body}</page>")


def _dump(*pages, root="<mediawiki>"):
    return (root + "\n".join(pages) + "</mediawiki>").encode()


_REVISION = "<revision><id>70</id><timestamp>t</timestamp><text>{}</text></revision>"

WELL_FORMED = {
    "default-xmlns-siteinfo": _dump(
        "<siteinfo><sitename>W</sitename><dbname>x</dbname></siteinfo>",
        _page(_REVISION.format("a &lt;math&gt;x&lt;/math&gt;")),
        _page(_REVISION.format("b"), 2),
        root='<mediawiki xmlns="http://www.mediawiki.org/xml/export-0.10/" '
             'version="0.10" xml:lang="en">'),
    "bound-prefix": _dump(
        "<mw:page><mw:title>T</mw:title><mw:ns>0</mw:ns><mw:id>3</mw:id>"
        "<mw:revision><mw:text>q</mw:text></mw:revision></mw:page>",
        root='<mw:mediawiki xmlns:mw="u">').replace(
            b"</mediawiki>", b"</mw:mediawiki>"),
    "revision-id-before-page-id": _dump(
        "<page><title>T</title><revision><id>9</id><text>r</text>"
        "</revision><ns>0</ns><id>4</id><id>5</id></page>"),
    "empty-text": _dump(_page("<revision><text/></revision>"),
                        _page("<revision><text></text></revision>", 2)),
    "no-ns-no-id-no-revision": _dump("<page><title>T</title></page>"),
    "empty-id-and-ns": _dump(
        "<page><title>T</title><ns/><id></id><revision><text>x</text>"
        "</revision></page>"),
    "entities": _dump(_page(_REVISION.format(
        "&lt;math&gt;a &amp;lt; b&lt;/math&gt; &#233; &#x3b1; &quot;&apos;")),
        "<page><title>A &amp; B</title><ns>0</ns><id>2</id></page>"),
    "cdata": _dump(_page(_REVISION.format(
        "pre <![CDATA[<math>x < y & z</math>]]> post"))),
    "whitespace-and-crlf": _dump(_page(_REVISION.format(
        "  line one\r\nline two\r  "))),
    "two-revisions": _dump(_page(
        _REVISION.format("old") + _REVISION.format("new")
        + "<revision><id>71</id></revision>")),
    "text-with-a-child": _dump(
        "<page><title>a<b>x</b>c</title><ns>0</ns><id>6</id>"
        "<revision><text>m<i/>n</text></revision></page>"),
    "nested-element-named-text": _dump(_page(
        "<revision><contributor><text>no</text></contributor>"
        "<text>yes</text></revision><text>not a revision's</text>"
        "<sub><revision><text>not the page's</text></revision></sub>")),
    "nested-page": _dump(
        "<page><title>Outer</title><page><title>Inner</title><id>8</id>"
        "</page><id>7</id><ns>0</ns></page>"),
    "page-as-root": _page(_REVISION.format("alone")).encode(),
    "utf8": _dump(_page(_REVISION.format("Ωμέγα ∑ 😀"))),
}

MALFORMED = {
    "non-integer-id": _dump(_page(_REVISION.format("a")),
                            "<page><title>Bad</title><ns>0</ns><id>12a</id>"
                            "</page>", _page("", 3)),
    "non-integer-ns": _dump(_page(_REVISION.format("a")),
                            "<page><title>Bad</title><ns>main</ns>"
                            "<id>2</id></page>"),
    "mismatched-tag": _dump(_page(_REVISION.format("a")),
                            "<page><title>B</titel></page>"),
    "unbound-prefix": _dump(_page(_REVISION.format("a")),
                            "<mw:page></mw:page>"),
    "undefined-entity": _dump(_page(_REVISION.format("a")),
                              _page(_REVISION.format("&nbsp;"), 2)),
    "junk-after-root": _dump(_page(_REVISION.format("a"))) + b"junk",
    "second-root": _dump(_page(_REVISION.format("a"))) + b"<mediawiki/>",
}


@pytest.mark.parametrize("name", sorted(WELL_FORMED))
def test_reader_matches_reference_on_edge_fixtures(name):
    dump = WELL_FORMED[name]
    got = pages_outcome(stream_pages, dump)
    assert got == pages_outcome(reference_stream_pages, dump)
    assert got[0] and got[1] is None


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_reader_matches_reference_on_malformed_fixtures(name):
    dump = MALFORMED[name]
    got = pages_outcome(stream_pages, dump)
    assert got == pages_outcome(reference_stream_pages, dump)
    # the pages before the malformed point come first
    assert got[0] and got[1][0] == "MalformedXml"


def test_non_integer_id_names_the_page():
    with pytest.raises(MalformedXml, match="page 'Bad': id '12a'"):
        list(stream_pages(io.BytesIO(MALFORMED["non-integer-id"])))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_reader_matches_reference_on_generated_dumps(tmp_path, seed):
    paths, expect = perfbench_gen().write_dump(tmp_path, seed, 2000)
    got = list(stream_pages(paths["dump"]))
    assert got == list(reference_stream_pages(paths["dump"]))
    assert len(got) == expect.pages


# --- SQL VALUES -------------------------------------------------------------

def _sql_scalar(text):
    text = text.strip()
    if text.upper() == "NULL":
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


class Quoted(str):
    """A quoted string cell: ``_sql_scalar`` leaves an unquoted cell that is
    not a number a str too."""


class SourceRow(tuple):
    """A row's cells, with its source text from "(" to ")" as ``text``."""

    def __new__(cls, cells, text):
        row = super().__new__(cls, cells)
        row.text = text
        return row


def reference_parse_values(buf, pos):
    # verbatim, but for the Quoted and SourceRow marks, which compare equal
    # to the str and the tuple they mark
    n = len(buf)
    while pos < n:
        while pos < n and buf[pos] in " ,\n":
            pos += 1
        if pos < n and buf[pos] == ";":
            return pos + 1
        if pos >= n or buf[pos] != "(":
            raise SqlSyntax("expected '(' in VALUES list", pos)
        start = pos
        pos += 1
        row, cell = [], []
        while True:
            if pos >= n:
                raise SqlSyntax("unterminated VALUES tuple", pos)
            ch = buf[pos]
            if ch == "'":
                pos += 1
                out = []
                while True:
                    if pos >= n:
                        raise SqlSyntax("unterminated string literal", pos)
                    c = buf[pos]
                    if c == "\\" and pos + 1 < n:
                        esc = buf[pos + 1]
                        out.append({"n": "\n", "t": "\t", "r": "\r",
                                    "0": "\0"}.get(esc, esc))
                        pos += 2
                    elif c == "'":
                        if pos + 1 < n and buf[pos + 1] == "'":
                            out.append("'")
                            pos += 2
                        else:
                            pos += 1
                            break
                    else:
                        out.append(c)
                        pos += 1
                row.append(Quoted("".join(out)))
                cell = None
            elif ch == "," :
                if cell is not None:
                    row.append(_sql_scalar("".join(cell)))
                cell = []
                pos += 1
            elif ch == ")":
                if cell is not None:
                    row.append(_sql_scalar("".join(cell)))
                pos += 1
                break
            else:
                if cell is None:
                    raise SqlSyntax("unexpected character after string", pos)
                cell.append(ch)
                pos += 1
        yield SourceRow(row, buf[start:pos])
    return pos


def reference_values(buf, pos, table):
    """``reference_parse_values``' rows cut to the columns the category tree
    reads, as ``parse_sql_dump`` once cut the typed rows, checking the
    column count, then an unquoted integer for an id or a namespace and a
    quoted string for a name, a title or a type."""
    rows = reference_parse_values(buf, pos)
    while True:
        try:
            row = next(rows)
        except StopIteration as stop:
            return stop.value
        if table == "categorylinks":
            if len(row) != 7:
                raise SqlSyntax(f"categorylinks row {row.text} has "
                                f"{len(row)} columns, expected 7")
            columns = ((0, int), (1, Quoted), (6, Quoted))
        else:
            if len(row) < 3:
                raise SqlSyntax(f"page row {row.text} has {len(row)} "
                                f"columns, expected at least 3")
            columns = ((0, int), (1, int), (2, Quoted))
        for i, kind in columns:
            if type(row[i]) is not kind:
                raise SqlSyntax(
                    f"{table} row {row.text}: column {i + 1} is not "
                    + ("an integer" if kind is int else "a quoted string"))
        cut = [row[i] for i, _ in columns]
        if table == "categorylinks":
            cut[2] = cut[2] or "page"
        yield tuple(cut)


def values_outcome(parse, buf):
    """Rows yielded, then the returned offset or the error raised."""
    rows = []
    gen = parse(buf, 0)
    try:
        while True:
            rows.append(next(gen))
    except StopIteration as stop:
        return rows, stop.value
    except SqlSyntax as e:
        return rows, ("SqlSyntax", str(e), e.offset)


def assert_values_match_reference(buf):
    for table in ("categorylinks", "page"):
        assert (values_outcome(partial(_parse_values, table=table), buf)
                == values_outcome(partial(reference_values, table=table),
                                  buf)), (table, buf)


SQL_PIECES = ["(", ")", ",", "'", "''", "\\", "\\'", "\\n", "\\\\", "a", "1",
              "2.5", "NULL", " ", "\n", "\r", ";", "x y", "é"]


@pytest.mark.parametrize("seed", range(4))
def test_values_match_reference_on_random_text(seed):
    rng = random.Random(seed)
    for _ in range(5000):
        buf = "".join(rng.choice(SQL_PIECES) for _ in range(rng.randint(0, 25)))
        if rng.random() < 0.5:
            buf = "(" + buf
        assert_values_match_reference(buf)


# cells of every type and a few bad ones, for rows that reach the checks
SQL_CELLS = (["7", " -3 ", "1_0", "NULL", "2.5", "x", "", "'a'", "'b\\'c'",
             "''", "'page'", "'subcat'", "ab'c'", "'1'", "1'2'"] * 8
             + ["'a'x", "'d"])


@pytest.mark.parametrize("seed", range(2))
def test_values_match_reference_on_random_rows(seed):
    rng = random.Random(seed)
    for _ in range(5000):
        buf = ",".join(
            "(" + ",".join(rng.choice(SQL_CELLS)
                           for _ in range(rng.choice([2, 3, 3, 4, 7, 7, 8])))
            + ")" for _ in range(rng.randint(1, 3))) + rng.choice(["", ";"])
        assert_values_match_reference(buf)


@pytest.mark.parametrize("buf", [
    "(1,'a'')", "('')", "('''')", "(''')", "('a\\", "('a' ,1)", "('a'",
    "(ab'c',2);", "()", "(1),\n", "(1)", "(NULL, 2 ,'x\\ny');rest",
    "(1,0,'a'),(2, 14 ,'b\\'c',NULL,2.5,x);rest", "(1,0,ab'c')",
    "(1,'a','','','','',''),(2,'b','','','','','subcat')", "(1,0,'a'x)",
    "(1,0,'a'),('2',0,'b')", "(1,0,'a'),(2,0,b)", "(1,'0','a',3)",
    "(1'2',0,'a')",
])
def test_values_match_reference_on_edge_cases(buf):
    assert_values_match_reference(buf)


@pytest.mark.parametrize("seed", range(2))
def test_values_match_reference_on_round_trips(seed):
    rng = random.Random(seed)
    chars = ["a", "'", "\\", "\t", "\n", "\r", "\0", " ", "é", ",", ")", "("]

    def string():
        return "".join(rng.choice(chars) for _ in range(rng.randint(0, 6)))

    def value():
        return rng.choice([None, rng.randint(-99, 99), rng.random(), string()])

    for _ in range(1000):
        # page-shaped: two ints and a string, then any cells
        rows = [(rng.randint(-99, 99), rng.randint(-99, 99), string())
                + tuple(value() for _ in range(rng.randint(0, 3)))
                for _ in range(rng.randint(1, 4))]
        sql = serialize_rows(rows, "page")
        buf = sql[len("INSERT INTO `page` VALUES "):]
        got = values_outcome(partial(_parse_values, table="page"), buf)
        assert got == values_outcome(partial(reference_values, table="page"),
                                     buf), buf
        assert got == ([row[:3] for row in rows], len(buf))


# --- category tree ----------------------------------------------------------

@dataclass
class CategoryNode:
    subcategories: list = field(default_factory=list)
    page_ids: list = field(default_factory=list)
    depth: int = 0


@dataclass
class ReferenceCategoryTree:
    root: str
    nodes: dict

    @cached_property
    def page_ids(self):
        """Every page id in the tree, collected on first use."""
        return frozenset(i for n in self.nodes.values() for i in n.page_ids)


def reference_build_category_tree(root, links, pages, max_depth):
    """Breadth-first category expansion from a root category name.

    ``links`` is an iterable of CategoryLink; ``pages`` maps page_id ->
    PageRecord (needed to resolve subcategory page ids to names).  Each
    category is expanded once, at its shallowest depth, which both guards
    cycles and keeps diamonds from blowing up.
    """
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    by_target = {}
    for link in links:
        by_target.setdefault(link.to_category_name, []).append(link)

    known = set(by_target)
    for rec in pages.values():
        if rec.namespace == NS_CATEGORY:
            known.add(rec.title)
    if root not in known:
        raise RootNotFound(f"category {root!r} not found")

    nodes = {root: CategoryNode(depth=0)}
    queue = deque([(root, 0)])
    while queue:
        cat, depth = queue.popleft()
        node = nodes[cat]
        children = sorted(by_target.get(cat, []),
                          key=lambda l: (l.link_type, l.from_page_id))
        for link in children:
            if link.link_type == "subcat":
                rec = pages.get(link.from_page_id)
                child_name = rec.title if rec is not None else f"cat#{link.from_page_id}"
                if depth + 1 > max_depth or child_name in nodes:
                    continue
                nodes[child_name] = CategoryNode(depth=depth + 1)
                node.subcategories.append(child_name)
                queue.append((child_name, depth + 1))
            elif link.link_type == "page":
                rec = pages.get(link.from_page_id)
                if rec is None or rec.namespace == NS_MAIN:
                    node.page_ids.append(link.from_page_id)
    return ReferenceCategoryTree(root=root, nodes=nodes)


CategoryLink = namedtuple("CategoryLink",
                          "from_page_id to_category_name link_type")
PageRow = namedtuple("PageRow", "page_id namespace title")


def reference_category_tree(root, links_path, page_path, depth):
    """The tree of the two SQL tables, as ``cli._category_tree`` built it
    from the page rows it kept."""
    links = [CategoryLink._make(row)
             for row in parse_sql_dump(links_path, "categorylinks")]
    # only the rows the tree reads, which takes a missing page for a
    # main-namespace one: other namespaces, and subcategories' titles
    subcats = {k.from_page_id for k in links if k.link_type == "subcat"}
    pages = {}
    for p in map(PageRow._make, parse_sql_dump(page_path, "page")):
        pages.pop(p.page_id, None)  # the last row of a page id wins
        if p.namespace != NS_MAIN or p.page_id in subcats:
            pages[p.page_id] = p
    return reference_build_category_tree(root, links, pages, depth)


def assert_tree_matches_reference(root, links_path, page_path, depth):
    got = build_category_tree(root,
                              parse_sql_dump(links_path, "categorylinks"),
                              parse_sql_dump(page_path, "page"), depth)
    want = reference_category_tree(root, links_path, page_path, depth)
    # the same categories at the same depths, in the same order
    assert list(got.nodes.items()) == [(name, n.depth)
                                       for name, n in want.nodes.items()]
    assert got.page_ids == want.page_ids


@pytest.fixture(scope="module")
def tree_dumps(tmp_path_factory):
    """Seed -> paths of 3,000-page ``perfbench/gen.py`` dumps."""
    work = tmp_path_factory.mktemp("tree")
    return {seed: perfbench_gen().write_dump(work / str(seed), seed, 3000)[0]
            for seed in (1, 2, 3)}


@pytest.mark.parametrize("depth", [0, 1, 3, 5])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_tree_matches_reference_on_generated_dumps(tree_dumps, seed, depth):
    paths = tree_dumps[seed]
    assert_tree_matches_reference(perfbench_gen().ROOT_CATEGORY,
                                  paths["links_sql"], paths["page_sql"], depth)


@pytest.mark.parametrize("root", ["Root", "Sub", "Other"])
def test_tree_matches_reference_on_the_rows_it_reads(tmp_path, root):
    for depth in (0, 1, 3):
        assert_tree_matches_reference(root, *write_tree_rows(tmp_path), depth)


def test_missing_root_raises_as_the_reference_does(tmp_path):
    links, page = write_tree_rows(tmp_path)
    # a main-namespace page's title is not a category name
    with pytest.raises(RootNotFound):
        reference_category_tree("P20", links, page, 1)
    with pytest.raises(RootNotFound):
        build_category_tree("P20", parse_sql_dump(links, "categorylinks"),
                            parse_sql_dump(page, "page"), 1)


# --- corpus build -----------------------------------------------------------

class _Dropped:
    def __repr__(self):
        return "Dropped"


DROPPED = _Dropped()


def canonicalize_variables(tree, max_vars):
    """Rename distinct variables to x1..xk in first-appearance (pre-order)
    order; DROPPED when more than max_vars distinct variables occur."""
    if max_vars < 1:
        raise ValueError("max_vars must be >= 1")
    mapping = {}

    def walk(n):
        tok = n.root
        if tok.kind == VARIABLE:
            if tok.name not in mapping:
                mapping[tok.name] = f"x{len(mapping) + 1}"
            tok = dc_replace(tok, name=mapping[tok.name])
        return ExprTree(tok, [walk(c) for c in n.children])

    out = walk(tree)
    if len(mapping) > max_vars:
        return DROPPED
    return out


def reference_augment_replace(tree, placeholder):
    """Replace every maximal unsupported subtree with the placeholder token."""
    if is_unsupported_marker(tree.root):
        return node(placeholder)
    return ExprTree(tree.root, [reference_augment_replace(c, placeholder)
                                for c in tree.children])


def reference_augment_split(tree, placeholder):
    out = [reference_augment_replace(tree, placeholder)]

    def collect(n):
        if is_unsupported_marker(n.root):
            for c in n.children:
                if has_markers(c):
                    out.extend(reference_augment_split(c, placeholder))
                else:
                    out.append(c)
        else:
            for c in n.children:
                collect(c)

    collect(tree)
    return out


def reference_build_corpus(parsed, lib, policy="replace_and_split", max_vars=2):
    placeholder = lib.get(PLACEHOLDER)
    stats = CorpusStats()
    samples = []
    seen = {}
    pages = set()

    def admit(tree, page_id, augmentation):
        canon = canonicalize_variables(tree, max_vars)
        if canon is DROPPED:
            stats.n_dropped += 1
            return
        try:
            trav = plain_traversal(canon, lib)
        except ExprError:  # a token outside the library
            stats.n_dropped += 1
            return
        key = trav.seq
        if key in seen:
            return
        seen[key] = len(samples)
        samples.append(CorpusSample(traversal=trav, page_id=page_id,
                                    augmentation=augmentation))
        pages.add(page_id)
        if augmentation == "replaced":
            stats.n_replaced += 1
        elif augmentation == "split":
            stats.n_split += 1
        stats.length_histogram[len(trav)] = stats.length_histogram.get(len(trav), 0) + 1
        for name in trav.token_names(lib):
            stats.token_histogram[name] = stats.token_histogram.get(name, 0) + 1

    for page_id, outcome in parsed:
        for tree in outcome.trees:
            try:
                if not has_markers(tree):
                    admit(tree, page_id, "none")
                elif policy == "drop":
                    stats.n_dropped += 1
                elif policy == "replace":
                    admit(reference_augment_replace(tree, placeholder), page_id,
                          "replaced")
                elif policy == "split":
                    for frag in split_fragments(tree):
                        admit(frag, page_id, "split")
                else:  # replace_and_split
                    pieces = reference_augment_split(tree, placeholder)
                    admit(pieces[0], page_id, "replaced")
                    for frag in pieces[1:]:
                        admit(frag, page_id, "split")
            except RecursionError:  # too deep for the recursive rewrites
                stats.n_dropped += 1

    stats.n_samples = len(samples)
    stats.n_pages = len(pages)
    return samples, stats


def foreign_library(lib):
    """The corpus library plus variables it lacks and an operator outside
    it, so that renaming, the variable limit and the vocabulary drop all
    occur."""
    return Library(list(lib) + [Token("a", 0, VARIABLE),
                                Token("b", 0, VARIABLE),
                                Token("c", 0, VARIABLE),
                                Token("foo", 1, OPERATOR)], name="foreign")


@pytest.fixture
def parsed(lib):
    rng = np.random.default_rng(7)
    ext = foreign_library(lib)
    out = []
    for _ in range(150):
        trees = [inject_markers(random_tree(ext, rng, max_depth=5), rng)
                 for _ in range(int(rng.integers(1, 4)))]
        out.append((int(rng.integers(1, 40)),
                    ParseOutcome(trees=trees, unsupported=[],
                                 relation_split_count=0)))
    return out


def test_augment_split_matches_reference(lib, parsed):
    placeholder = lib.get(PLACEHOLDER)
    for _, outcome in parsed:
        for tree in outcome.trees:
            assert (augment_split(tree, placeholder)
                    == reference_augment_split(tree, placeholder))


@pytest.mark.parametrize("n_vars", [1, 2, 3])
@pytest.mark.parametrize("policy", POLICIES)
def test_build_corpus_matches_reference(parsed, policy, n_vars):
    # the library's variable count is the limit the reference applies
    lib = default_library(n_vars)
    samples, stats = build_corpus(parsed, lib, policy)
    ref_samples, ref_stats = reference_build_corpus(parsed, lib, policy,
                                                    max_vars=n_vars)
    assert samples == ref_samples
    assert stats.to_dict() == ref_stats.to_dict()
    assert stats.n_dropped > 0 and stats.n_samples > 0
