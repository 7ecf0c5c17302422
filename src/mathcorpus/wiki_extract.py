"""Streaming MediaWiki dump ingestion.

Covers the three inputs the corpus pipeline needs: pages-articles XML
(streamed page by page with bounded memory), <math> tag extraction with
page provenance, and the MediaWiki SQL dump tables (categorylinks, page)
used to build a depth-bounded category tree.

Compression is the caller's problem: pipe bunzip2/zstd output in.
"""

from __future__ import annotations

import html
import os
import re
from collections import deque
from dataclasses import dataclass
from xml.parsers import expat

NS_MAIN = 0
NS_CATEGORY = 14


class WikiError(Exception):
    pass


class MalformedXml(WikiError):
    def __init__(self, message, offset=None):
        super().__init__(f"{message}" + (f" (byte {offset})" if offset is not None else ""))
        self.offset = offset


class TruncatedDump(WikiError):
    pass


class SqlSyntax(WikiError):
    def __init__(self, message, offset=None):
        super().__init__(f"{message}" + (f" (offset {offset})" if offset is not None else ""))
        self.offset = offset


class RootNotFound(WikiError):
    pass


@dataclass(frozen=True)
class RawExpression:
    page_id: int
    page_title: str
    latex: str
    char_offset: int


@dataclass
class PageRecord:
    page_id: int
    title: str
    namespace: int
    text: str


# bytes fed to the parser at a time; 64 KiB reads are no faster
_READ_SIZE = 16 * 1024

# the slot of each kept child of a page in an open page's record, and
# the value of each slot when its element has no text
_PAGE_FIELDS = {"id": 0, "title": 1, "ns": 2}
_NO_TEXT = (0, "", 0, "")


def stream_pages(source):
    """Yield PageRecords from a pages-articles XML stream, one page in memory
    at a time.

    Accepts a binary file object or a path.  Of a page only its direct
    id (the first), title and ns and its revision's text are kept.  A page
    is yielded once its end tag is read; input that ends early, inside a
    tag, an entity or a character as well, raises TruncatedDump after the
    complete pages; other XML problems and a page id or namespace that is
    not an integer raise MalformedXml after the pages before them, an XML
    problem with the byte offset where it was found.
    """
    close = isinstance(source, (str, bytes, os.PathLike))
    if close:
        source = open(source, "rb")
    try:
        yield from _read_pages(source)
    finally:
        if close:
            source.close()


def _read_pages(source):
    # names as ElementTree resolves them, "uri}local" or "local", so an
    # unbound prefix is an error
    parser = expat.ParserCreate(namespace_separator="}")
    parser.buffer_text = True
    local_names = {}  # like expat's own name table, an entry per name
    path = [""]  # local names of the open elements, below a sentinel
    pages = []  # open pages, innermost last: [id, title, ns, text]
    done = []  # (id, title, ns, text) of the pages the last feed ended
    slot = None  # the slot the text being read goes to
    chars = []

    def keep():
        """End the text of the element being read, at its first child or
        its end."""
        nonlocal slot
        parser.CharacterDataHandler = None
        pages[-1][slot] = "".join(chars) or _NO_TEXT[slot]
        slot = None

    def start(*event):  # the name and the attributes, which are not kept
        nonlocal slot
        name = event[0]
        if slot is not None:
            keep()
        local = local_names.get(name)
        if local is None:
            local = local_names[name] = name[name.rfind("}") + 1:]
        parent = path[-1]
        path.append(local)
        if local == "page":
            pages.append([None, "", 0, ""])
        elif parent == "page":
            slot = _PAGE_FIELDS.get(local)
            if slot == 0 and pages[-1][0] is not None:  # the first id wins
                slot = None
        elif local == "text" and parent == "revision" and path[-3] == "page":
            slot = 3
        if slot is not None:
            chars.clear()
            parser.CharacterDataHandler = chars.append

    def end(name):
        if slot is not None:
            keep()
        path.pop()
        if local_names[name] == "page":
            done.append(pages.pop())

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    while True:
        data = source.read(_READ_SIZE)
        error = None
        try:
            parser.Parse(data, not data)  # an empty read ends the input
        except expat.ExpatError as e:
            # an error of the last feed, at the end of input, is an early end
            error = (MalformedXml(str(e), offset=parser.ErrorByteIndex) if data
                     else TruncatedDump(f"dump truncated: {e}"))
        for page_id, title, ns, text in done:
            try:
                page = PageRecord(int(page_id or 0), title, int(ns), text)
            except ValueError:
                raise MalformedXml(
                    f"page {title!r}: id {page_id!r} or namespace {ns!r} "
                    f"is not an integer") from None
            yield page
        done.clear()
        if error is not None:
            raise error
        if not data:
            return


# lazy attributes, so a self-closing "/" right before ">" lands in group 2
_MATH_OPEN_RE = re.compile(r"<math(\s[^>]*?)?(/)?>", re.IGNORECASE)
_MATH_CLOSE = re.compile(r"</math\s*>", re.IGNORECASE)


def extract_math(page, tally=None):
    """All <math>...</math> bodies in a page, entity-decoded, with offsets.

    Self-closing/empty tags are skipped; an unterminated tag is skipped and
    counted in the optional diagnostics tally dict under 'unterminated'.
    """
    out = []
    text = page.text
    pos = 0
    while True:
        m = _MATH_OPEN_RE.search(text, pos)
        if m is None:
            break
        if m.group(2):  # self-closing
            pos = m.end()
            continue
        close = _MATH_CLOSE.search(text, m.end())
        if close is None:
            if tally is not None:
                tally["unterminated"] = tally.get("unterminated", 0) + 1
            pos = m.end()
            continue
        body = html.unescape(text[m.end():close.start()]).strip()
        if body:
            out.append(RawExpression(page_id=page.page_id,
                                     page_title=page.title,
                                     latex=body,
                                     char_offset=m.start()))
        pos = close.end()
    return out


# --- MediaWiki SQL dump parsing -------------------------------------------

# the positions of the columns the tree reads, the type of each (an int is
# unquoted, a str quoted), and the table's least and greatest column count
_COLUMNS = {"categorylinks": ((0, 1, 6), (int, str, str), 7, 7),
            "page": ((0, 1, 2), (int, int, str), 3, None)}


def parse_sql_dump(source, table):
    """Yield ``(cl_from, cl_to, cl_type)``, an empty type read as "page",
    for each row of INSERT INTO `categorylinks` VALUES (...),(...);
    statements, or ``(page_id, page_namespace, page_title)`` for `page`.

    ``source`` is a path or a text file object.  Dumps put one statement
    per line, so memory stays bounded by the longest one, not the file.
    """
    if table not in _COLUMNS:
        raise ValueError(f"unsupported table {table!r}")
    close = isinstance(source, (str, bytes, os.PathLike))
    if close:
        source = open(source, "r", encoding="utf-8", errors="replace")
    try:
        marker = f"INSERT INTO `{table}` VALUES "
        for line in source:
            pos = 0
            while (start := line.find(marker, pos)) >= 0:
                pos = yield from _parse_values(line, start + len(marker), table)
    finally:
        if close:
            source.close()


# one VALUES cell: unquoted text, an optional quoted string, then "," or ")".
# The string body is atomic (a lookahead plus backreference, as `*+` needs
# Python 3.11), so an unclosed string is no match rather than a shorter one;
# the separator is optional, so what follows a bad cell tells what went wrong.
_CELL_RE = re.compile(r"([^',)]*)(?:'(?=((?:[^'\\]|\\.|'')*))\2')?([,)]?)",
                      re.DOTALL)
_ESCAPE_RE = re.compile(r"\\(.)|''", re.DOTALL)
_SQL_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "0": "\0"}


def _unescape(m):
    return "'" if m[1] is None else _SQL_ESCAPES.get(m[1], m[1])


def _parse_values(buf, pos, table):
    """Yield the read columns of each row of the VALUES list at ``pos``,
    typed once its ")" is read; returns the offset after its ";"."""
    read, types, least, most = _COLUMNS[table]
    match, n = _CELL_RE.match, len(buf)
    while pos < n:
        while pos < n and buf[pos] in " ,\n":
            pos += 1
        if pos < n and buf[pos] == ";":
            return pos + 1
        if pos >= n or buf[pos] != "(":
            raise SqlSyntax("expected '(' in VALUES list", pos)
        start, count, cells = pos, 0, []
        pos += 1
        while True:
            m = match(buf, pos)
            if not (sep := m[3]):
                if m.end() == n:
                    raise SqlSyntax("unterminated VALUES tuple", n)
                if m[2] is not None:
                    raise SqlSyntax("unexpected character after string", m.end())
                raise SqlSyntax("unterminated string literal", n)  # at a "'"
            if count in read:
                cells.append(m)
            count += 1
            pos = m.end()
            if sep == ")":
                break
        if not least <= count <= (most or count):
            raise SqlSyntax(f"{table} row {buf[start:pos]} has {count} "
                            f"columns, expected {most or f'at least {least}'}")
        row = []
        for i, kind, m in zip(read, types, cells):
            try:  # the cell less its "," or ")": int() takes spaces, not "'"
                row.append(int(m[0][:-1]) if kind is int
                           else _ESCAPE_RE.sub(_unescape, m[2]))
            except (TypeError, ValueError):  # re.sub of None: no string
                what = "an integer" if kind is int else "a quoted string"
                raise SqlSyntax(f"{table} row {buf[start:pos]}: column "
                                f"{i + 1} is not {what}") from None
        if table == "categorylinks" and not row[2]:
            row[2] = "page"
        yield tuple(row)
    return pos


# --- category tree ---------------------------------------------------------

@dataclass
class CategoryTree:
    root: str
    nodes: dict  # category name -> depth
    page_ids: frozenset


def build_category_tree(root, links, pages, max_depth):
    """Breadth-first category expansion from a root category name.

    ``links`` and ``pages`` are the rows ``parse_sql_dump`` yields for the
    categorylinks and page tables, each read once, links first; the last
    row of a page id wins.  A subcategory is named by its page's title, or
    ``cat#<id>`` without one.  Each category is expanded once, at its
    shallowest depth, which both guards cycles and keeps diamonds from
    blowing up.
    """
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    children = {}  # category name -> (subcategory page ids, member page ids)
    for from_id, to, kind in links:
        subcats, members = children.setdefault(to, ([], []))
        if kind == "subcat":
            subcats.append(from_id)
        elif kind == "page":
            members.append(from_id)
    # of the page rows only what the walk reads, which takes a missing
    # page for a main-namespace one
    subcat_ids = {i for subcats, _ in children.values() for i in subcats}
    titles = {}  # subcategory page id -> title
    outside = {}  # keys: ids outside the main namespace; half a set's bytes
    roots = set()  # ids of category pages titled ``root``
    for page_id, namespace, title in pages:
        if namespace == NS_MAIN:
            outside.pop(page_id, None)
        else:
            outside[page_id] = None
        if page_id in subcat_ids:
            titles[page_id] = title
        if namespace == NS_CATEGORY and title == root:
            roots.add(page_id)
        elif roots:
            roots.discard(page_id)
    if root not in children and not roots:
        raise RootNotFound(f"category {root!r} not found")
    nodes = {root: 0}
    page_ids = set()
    queue = deque([root])
    while queue:
        cat = queue.popleft()
        subcats, members = children.get(cat, ((), ()))
        page_ids.update(i for i in members if i not in outside)
        if nodes[cat] == max_depth:
            continue
        for i in sorted(subcats):
            name = titles[i] if i in titles else f"cat#{i}"
            if name not in nodes:
                nodes[name] = nodes[cat] + 1
                queue.append(name)
    return CategoryTree(root, nodes, frozenset(page_ids))


def filter_pages_by_category(tree, expressions):
    """Keep exactly the expressions whose ``page_id`` is in the tree."""
    return [e for e in expressions if e.page_id in tree.page_ids]
