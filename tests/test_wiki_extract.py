import io
import time

import pytest

from mathcorpus.wiki_extract import (
    MalformedXml,
    PageRecord,
    RootNotFound,
    SqlSyntax,
    TruncatedDump,
    build_category_tree,
    extract_math,
    filter_pages_by_category,
    parse_sql_dump,
    stream_pages,
)

from conftest import serialize_rows


def page_xml(page_id, title, text, ns=0):
    # dumps store wikitext entity-escaped inside <text>
    from xml.sax.saxutils import escape

    return (f"<page><title>{title}</title><ns>{ns}</ns><id>{page_id}</id>"
            f"<revision><id>9{page_id}</id><text>{escape(text)}</text>"
            f"</revision></page>")


# 3 pages, 5 well-formed math elements, entities, one unterminated tag
FIXTURE_XML = ("<mediawiki>"
               + page_xml(1, "Alpha",
                          "a <math>x^2</math> b <math display=block>y + 1</math>")
               + page_xml(2, "Beta",
                          "<math>a &lt; b</math> mid <math>\\frac{1}{2}</math> "
                          "broken <math>never closed")
               + page_xml(3, "Gamma", "tail <math>z</math> and <math/> empty")
               + "</mediawiki>").encode()


class TestStreamPages:
    def test_fixture_pages_in_order(self):
        pages = list(stream_pages(io.BytesIO(FIXTURE_XML)))
        assert [p.page_id for p in pages] == [1, 2, 3]
        assert [p.title for p in pages] == ["Alpha", "Beta", "Gamma"]
        assert all(p.namespace == 0 for p in pages)

    def test_empty_text_page(self):
        xml = ("<mediawiki><page><title>T</title><ns>0</ns><id>5</id>"
               "<revision><text/></revision></page></mediawiki>").encode()
        (p,) = stream_pages(io.BytesIO(xml))
        assert p.text == ""

    def test_truncated_dump(self):
        cut = FIXTURE_XML[:FIXTURE_XML.index(b"Gamma")]
        pages = []
        with pytest.raises(TruncatedDump):
            for p in stream_pages(io.BytesIO(cut)):
                pages.append(p)
        assert [p.page_id for p in pages] == [1, 2]

    @pytest.mark.parametrize("dump", [
        FIXTURE_XML,
        # a title of two-byte characters and entities in the text
        ("<mediawiki>" + page_xml(1, "Éé", "<math>a &amp; b</math>")
         + page_xml(2, "Ωé", "é &lt; x") + "</mediawiki>").encode(),
    ], ids=["fixture", "utf8-entities"])
    def test_every_cut_yields_the_pages_it_completes(self, dump):
        whole = [(p.page_id, p.title, p.text)
                 for p in stream_pages(io.BytesIO(dump))]
        for end in range(len(dump)):
            # inside a tag, an entity or a character as well
            cut, pages = dump[:end], []
            with pytest.raises(TruncatedDump):
                for p in stream_pages(io.BytesIO(cut)):
                    pages.append((p.page_id, p.title, p.text))
            assert pages == whole[:cut.count(b"</page>")], cut

    def test_malformed_offset_is_the_byte_in_the_stream(self):
        dump = ("<mediawiki>\n" + page_xml(1, "A", "x") + "\n"
                "<page><title>B</tilte></page>\n</mediawiki>").encode()
        with pytest.raises(MalformedXml) as exc:
            list(stream_pages(io.BytesIO(dump)))
        byte = dump.index(b"</tilte>") + 2  # at the name in the end tag
        assert "line 3, column 16" in str(exc.value)
        assert exc.value.offset == byte and byte != 16
        assert str(exc.value).endswith(f"(byte {byte})")

    def test_malformed_point_beyond_the_first_read(self):
        dump = ("<mediawiki>" + page_xml(1, "A", "y " * 20_000)
                + "<page><junk></page></mediawiki>").encode()
        pages = []
        with pytest.raises(MalformedXml) as exc:
            for p in stream_pages(io.BytesIO(dump)):
                pages.append(p.page_id)
        assert pages == [1]
        assert exc.value.offset == dump.index(b"</page></mediawiki>") + 2

    def test_file_path_input(self, tmp_path):
        f = tmp_path / "dump.xml"
        f.write_bytes(FIXTURE_XML)
        assert len(list(stream_pages(str(f)))) == 3

    def test_bounded_memory_on_generated_stream(self):
        # many pages through a pipe-like reader; peak usage must not grow
        # with page count, only with single-page size
        import tracemalloc

        def gen(n):
            yield b"<mediawiki>"
            body = "lorem <math>x^2 + 1</math> " * 20
            for i in range(n):
                yield page_xml(i, f"P{i}", body).encode()
            yield b"</mediawiki>"

        class Reader(io.RawIOBase):
            def __init__(self, chunks):
                self.chunks = chunks
                self.buf = b""

            def readable(self):
                return True

            def readinto(self, b):
                while len(self.buf) < len(b):
                    try:
                        self.buf += next(self.chunks)
                    except StopIteration:
                        break
                n = min(len(b), len(self.buf))
                b[:n] = self.buf[:n]
                self.buf = self.buf[n:]
                return n

        def peak(n):
            tracemalloc.start()
            count = sum(1 for _ in stream_pages(
                io.BufferedReader(Reader(gen(n)))))
            _, pk = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            assert count == n
            return pk

        small, large = peak(50), peak(2000)
        assert large < 2 * small + 1_000_000

    def test_memory_ceiling_at_20k_pages(self):
        # finished pages must not stay behind as children of the root
        import tracemalloc

        body = "lorem <math>x^2 + 1</math> " * 20
        dump = io.BytesIO(b"<mediawiki>" + b"".join(
            page_xml(i, f"P{i}", body).encode() for i in range(20_000))
            + b"</mediawiki>")
        tracemalloc.start()
        try:
            count = sum(1 for _ in stream_pages(dump))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == 20_000
        assert peak < 1_000_000


class TestExtractMath:
    def test_fixture_yields_five_records_one_diagnostic(self):
        tally = {}
        records = []
        for page in stream_pages(io.BytesIO(FIXTURE_XML)):
            records.extend(extract_math(page, tally))
        assert len(records) == 5
        assert [r.latex for r in records] == \
            ["x^2", "y + 1", "a < b", "\\frac{1}{2}", "z"]
        assert tally == {"unterminated": 1}

    def test_provenance(self):
        page = PageRecord(7, "T", 0, "pre <math>u v</math> post")
        (rec,) = extract_math(page)
        assert rec.page_id == 7
        assert rec.page_title == "T"
        assert rec.char_offset == page.text.index("<math>")

    def test_no_math(self):
        assert extract_math(PageRecord(1, "T", 0, "no math here")) == []

    def test_entity_decoding(self):
        page = PageRecord(1, "T", 0, "<math>a &lt; b &amp; c</math>")
        assert extract_math(page)[0].latex == "a < b & c"

    def test_attributes_and_case(self):
        page = PageRecord(1, "T", 0, '<MATH display="inline">q</MATH>')
        assert extract_math(page)[0].latex == "q"

    def test_self_closing_with_space(self):
        page = PageRecord(1, "T", 0, "a <math /> b <math>x+1</math>")
        assert [r.latex for r in extract_math(page)] == ["x+1"]


CL_SQL = ("INSERT INTO `categorylinks` VALUES "
          "(12,'Physics','','2020-01-01','','','subcat'),"
          "(34,'Physics','','2020-01-01','','','page');\n")


class TestSqlParsing:
    def test_categorylinks_fixture(self):
        rows = list(parse_sql_dump(io.StringIO(CL_SQL), "categorylinks"))
        assert rows == [(12, "Physics", "subcat"), (34, "Physics", "page")]

    def test_escaped_quote(self):
        sql = ("INSERT INTO `page` VALUES "
               "(1,0,'O\\'Brien'),(2,0,'It''s');\n")
        rows = list(parse_sql_dump(io.StringIO(sql), "page"))
        assert rows == [(1, 0, "O'Brien"), (2, 0, "It's")]

    def test_column_count_mismatch(self):
        sql = "INSERT INTO `categorylinks` VALUES (1,'X','page');\n"
        with pytest.raises(SqlSyntax) as exc:
            list(parse_sql_dump(io.StringIO(sql), "categorylinks"))
        assert "3" in str(exc.value) and "7" in str(exc.value)

    def test_unread_cells_are_skipped(self):
        sql = ("INSERT INTO `page` VALUES "
               "(1,0,'T',NULL,2.5,abc,'a\\'b'),(2,4,'U');\n")
        assert list(parse_sql_dump(io.StringIO(sql), "page")) == [
            (1, 0, "T"), (2, 4, "U")]

    @pytest.mark.parametrize("row, message", [
        ("('1',0,'T')", "page row ('1',0,'T'): column 1 is not an integer"),
        ("(1,NULL,'T')", "page row (1,NULL,'T'): column 2 is not an integer"),
        ("(1, 2.5 ,'T')", "column 2 is not an integer"),
        ("(1,0,T)", "page row (1,0,T): column 3 is not a quoted string"),
        ("(1,0,NULL,4)", "column 3 is not a quoted string"),
        ("(1,0)", "page row (1,0) has 2 columns, expected at least 3"),
        # the row is typed once its ")" is read: a syntax error wins
        ("('1',0,'T'x)", "unexpected character after string (offset 49)"),
        ("('1',0", "unterminated VALUES tuple (offset 47)"),
    ])
    def test_bad_row_names_itself(self, row, message):
        sql = f"INSERT INTO `page` VALUES (7,0,'Fine'),{row};\n"
        rows = parse_sql_dump(io.StringIO(sql), "page")
        assert next(rows) == (7, 0, "Fine")
        with pytest.raises(SqlSyntax) as exc:
            next(rows)
        assert message in str(exc.value)

    def test_unknown_table(self):
        with pytest.raises(ValueError):
            list(parse_sql_dump("", "revision"))

    def test_ten_thousand_row_insert(self):
        rows_in = [(i, 0, f"Page {i}") for i in range(10_000)]
        sql = serialize_rows(rows_in, "page") + "\n"
        rows_out = list(parse_sql_dump(io.StringIO(sql), "page"))
        assert rows_out == rows_in

    def test_roundtrip_tricky_strings(self):
        rows_in = [(1, 0, "a'b"), (2, 0, "back\\slash"), (3, 0, ""),
                   (4, 0, "tab\there"), (5, 0, "new\nline"),
                   (6, 0, "carriage\rreturn"), (7, 0, "nul\0byte")]
        sql = serialize_rows(rows_in, "page")
        assert list(parse_sql_dump(io.StringIO(sql), "page")) == rows_in

    def test_other_statements_ignored(self):
        sql = ("DROP TABLE IF EXISTS `page`;\n"
               "CREATE TABLE `page` (id int);\n"
               "INSERT INTO `other` VALUES (9,9,'x');\n"
               + CL_SQL)
        assert len(list(parse_sql_dump(io.StringIO(sql), "categorylinks"))) == 2

    def test_path_is_never_read_as_sql_text(self, tmp_path):
        # a path that contains "INSERT" is still a path
        rows_in = [(i, 0, f"Page {i}") for i in range(50)]
        d = tmp_path / "INSERTS"
        d.mkdir()
        f = d / "page.sql"
        f.write_text(serialize_rows(rows_in, "page") + "\n", encoding="utf-8")
        for source in (str(f), f):
            rows = list(parse_sql_dump(source, "page"))
            assert rows == rows_in


def category_fixture():
    # A -> B, B -> A (cycle); pages: 100 under A, 200 under B
    links = [
        (11, "A", "subcat"),   # B's page id is 11
        (10, "B", "subcat"),   # A's page id is 10
        (100, "A", "page"),
        (200, "B", "page"),
    ]
    pages = [(10, 14, "A"), (11, 14, "B"), (100, 0, "X"), (200, 0, "Y")]
    return links, pages


class TestCategoryTree:
    def test_cycle_terminates_fast(self):
        links, pages = category_fixture()
        start = time.monotonic()
        tree = build_category_tree("A", links, pages, max_depth=3)
        assert time.monotonic() - start < 1.0
        assert tree.nodes == {"A": 0, "B": 1}  # A not re-added
        assert tree.page_ids == {100, 200}

    def test_max_depth_zero(self):
        links, pages = category_fixture()
        tree = build_category_tree("A", links, pages, max_depth=0)
        assert tree.nodes == {"A": 0}
        assert tree.page_ids == {100}

    def test_root_not_found(self):
        links, pages = category_fixture()
        with pytest.raises(RootNotFound):
            build_category_tree("Nope", links, pages, max_depth=1)

    def test_self_loop(self):
        links = [(10, "A", "subcat")]
        pages = [(10, 14, "A")]
        tree = build_category_tree("A", links, pages, max_depth=5)
        assert tree.nodes == {"A": 0}

    def test_subcategory_without_a_page_row(self):
        links = [(12, "A", "subcat"), (5, "cat#12", "page")]
        tree = build_category_tree("A", links, [], max_depth=1)
        assert tree.nodes == {"A": 0, "cat#12": 1}
        assert tree.page_ids == {5}

    def test_deterministic(self):
        links, pages = category_fixture()
        a = build_category_tree("A", links, pages, 3)
        b = build_category_tree("A", list(reversed(links)), pages, 3)
        assert a == b and list(a.nodes) == list(b.nodes)


class TestFilter:
    def _exprs(self):
        pages = list(stream_pages(io.BytesIO(FIXTURE_XML)))
        out = []
        for p in pages:
            out.extend(extract_math(p))
        return out

    def test_keeps_tree_pages_only(self):
        exprs = self._exprs()
        links = [(1, "A", "page")]
        pages = [(1, 0, "Alpha")]
        tree = build_category_tree("A", links, pages, 1)
        kept = filter_pages_by_category(tree, exprs)
        assert {e.page_id for e in kept} == {1}

    def test_empty_tree(self):
        links = [(999, "A", "page")]
        tree = build_category_tree("A", links, [], 1)
        # page 999 unknown -> still kept by id; unrelated pages dropped
        kept = filter_pages_by_category(tree, self._exprs())
        assert kept == []

    def test_idempotent(self):
        exprs = self._exprs()
        links = [(2, "A", "page")]
        pages = [(2, 0, "Beta")]
        tree = build_category_tree("A", links, pages, 1)
        once = filter_pages_by_category(tree, exprs)
        twice = filter_pages_by_category(tree, once)
        assert once == twice
