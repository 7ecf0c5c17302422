import numpy as np
import pytest

from mathcorpus import corpus
from mathcorpus.corpus import (
    CorpusError,
    CorpusSample,
    FormatVersionMismatch,
    VocabMismatch,
    augment_split,
    build_corpus,
    encode_trees,
    has_markers,
    iter_corpus,
    read_corpus,
    split_fragments,
    token_frequencies,
    write_corpus,
)
from mathcorpus.expr_core import (
    Traversal,
    default_library,
    node,
)
from mathcorpus.latex_parser import (
    ParseOutcome,
    is_unsupported_marker,
    parse_latex,
    unsupported_marker,
)

from conftest import plain_traversal, random_tree


@pytest.fixture
def ph(lib):
    return lib.get("1")


def leaves(tree):
    if not tree.children:
        return [tree.root.name]
    out = []
    for c in tree.children:
        out.extend(leaves(c))
    return out


def inject_markers(tree, rng, p=0.25):
    """Wrap random subtrees in unary unsupported markers."""
    children = [inject_markers(c, rng, p) for c in tree.children]
    from mathcorpus.expr_core import ExprTree

    out = ExprTree(tree.root, children)
    if rng.random() < p:
        return unsupported_marker("int", [out])
    return out


class TestAugmentReplace:
    def test_marker_at_root(self, lib, ph):
        m = unsupported_marker("int", [node(lib.get("x1"))])
        assert repr(augment_split(m, ph)[0]) == "1"

    def test_marker_free_identity(self, lib, ph):
        t = node(lib.get("sin"), node(lib.get("x1")))
        assert augment_split(t, ph)[0] == t

    def test_two_markers_node_count(self, lib, ph):
        x = node(lib.get("x1"))
        m1 = unsupported_marker("int", [node(lib.get("sin"), x)])  # size 3
        m2 = unsupported_marker("sum", [x])  # size 2
        t = node(lib.get("add"), m1, m2)
        out = augment_split(t, ph)[0]
        assert out.size() == t.size() - (3 + 2) + 2
        assert not has_markers(out)

    def test_spec_example(self, lib, ph):
        inner = node(lib.get("pow"), node(lib.get("x1")), node(lib.get("2")))
        t = node(lib.get("add"), node(lib.get("x1")),
                 unsupported_marker("int", [inner]))
        assert repr(augment_split(t, ph)[0]) == "add(x1, 1)"


class TestAugmentSplit:
    def test_marker_free(self, lib, ph):
        t = node(lib.get("x1"))
        assert augment_split(t, ph) == [t]

    def test_single_marker(self, lib, ph):
        inner = node(lib.get("sin"), node(lib.get("x1")))
        t = node(lib.get("add"), node(lib.get("x1")),
                 unsupported_marker("int", [inner]))
        out = augment_split(t, ph)
        assert [repr(p) for p in out] == ["add(x1, 1)", "sin(x1)"]

    def test_no_markers_in_output_random(self, lib, ph, rng):
        for _ in range(200):
            t = inject_markers(random_tree(lib, rng, max_depth=5), rng)
            for piece in augment_split(t, ph):
                assert not has_markers(piece)

    def test_split_keeps_supported_leaves(self, lib, ph, rng):
        from collections import Counter

        for _ in range(200):
            t = inject_markers(random_tree(lib, rng, max_depth=5), rng)
            got = Counter()
            for piece in augment_split(t, ph):
                got.update(leaves(piece))
            want = Counter(n for n in leaves(t) if not n.startswith("?"))
            for name, count in want.items():
                if name == ph.name:
                    continue  # placeholders add to this bucket
                assert got[name] >= count


class TestSplitFragments:
    def test_cuts_markers(self, lib):
        inner = node(lib.get("pow"), node(lib.get("x1")), node(lib.get("2")))
        t = node(lib.get("add"), node(lib.get("x1")),
                 unsupported_marker("int", [inner]))
        frags = split_fragments(t)
        assert [repr(f) for f in frags] == ["x1", "pow(x1, 2)"]

    def test_marker_free(self, lib):
        t = node(lib.get("x1"))
        assert split_fragments(t) == [t]

    def test_linear_in_depth(self, lib, monkeypatch):
        """The split policy looks at each node of an add(1, ...) chain over
        one integral at most twice, its marker check included."""
        depth = 400
        chain = unsupported_marker("int", [node(lib.get("x1"))])
        for _ in range(depth):
            chain = node(lib.get("add"), node(lib.get("1")), chain)
        looked = []
        monkeypatch.setattr(corpus, "is_unsupported_marker",
                            lambda tok: looked.append(tok)
                            or is_unsupported_marker(tok))
        pieces = encode_trees([chain], lib, "split")
        assert len(pieces) == depth + 1  # each 1, and x1
        assert len(looked) <= 2 * (2 * depth + 2)


class TestCanonicalize:
    def test_first_appearance_order(self, lib):
        samples, _ = build_corpus([(1, outcome("m c^2"))], lib)
        assert samples[0].traversal.token_names(lib) == [
            "mul", "x1", "pow", "x2", "2"]

    def test_too_many_vars_dropped(self, lib):
        samples, stats = build_corpus([(1, outcome("a + b + c + d"))], lib)
        assert samples == [] and stats.n_dropped == 1

    def test_repeated_variable(self, lib):
        samples, _ = build_corpus([(1, outcome("y + y x"))], lib)
        assert samples[0].traversal.token_names(lib) == [
            "add", "x1", "mul", "x1", "x2"]

    def test_deterministic(self, lib):
        parsed = [(1, outcome(r"\alpha \beta + \beta"))]
        (sa, ta), (sb, tb) = build_corpus(parsed, lib), build_corpus(parsed, lib)
        assert sa == sb and len(sa) == 1
        assert ta.to_dict() == tb.to_dict()

    def test_library_variable_count_is_the_limit(self):
        parsed = [(1, outcome("a + b c"))]
        for n_vars, n_samples in (1, 0), (2, 0), (3, 1):
            samples, stats = build_corpus(parsed, default_library(n_vars))
            assert (stats.n_samples, stats.n_dropped) == (n_samples,
                                                          1 - n_samples)


def outcome(*latex):
    trees = []
    unsupported = []
    for s in latex:
        o = parse_latex(s)
        trees.extend(o.trees)
        unsupported.extend(o.unsupported)
    return ParseOutcome(trees=trees, unsupported=unsupported,
                        relation_split_count=0)


class TestBuildCorpus:
    def test_clean_passthrough(self, lib):
        samples, stats = build_corpus([(1, outcome("x + 1"))], lib)
        assert len(samples) == 1
        assert samples[0].augmentation == "none"
        assert samples[0].page_id == 1
        assert stats.n_samples == 1 and stats.n_pages == 1

    def test_policy_split_uses_fragments(self, lib):
        parsed = [(1, outcome(r"x + \int x^2 dx"))]
        samples, stats = build_corpus(parsed, lib, policy="split")
        texts = [" ".join(s.traversal.token_names(lib)) for s in samples]
        assert texts == ["x1", "pow x1 2"]
        assert stats.n_split == 2

    def test_policy_replace(self, lib):
        parsed = [(1, outcome(r"x + \int x^2 dx"))]
        samples, stats = build_corpus(parsed, lib, policy="replace")
        texts = [" ".join(s.traversal.token_names(lib)) for s in samples]
        assert texts == ["add x1 1"]
        assert stats.n_replaced == 1

    def test_policy_replace_and_split(self, lib):
        parsed = [(1, outcome(r"x + \int \sin(y) dy"))]
        samples, stats = build_corpus(parsed, lib)
        texts = [" ".join(s.traversal.token_names(lib)) for s in samples]
        assert texts == ["add x1 1", "sin x1"]
        assert stats.n_replaced == 1 and stats.n_split == 1

    def test_policy_drop(self, lib):
        parsed = [(1, outcome(r"\int x dx")), (2, outcome("x"))]
        samples, stats = build_corpus(parsed, lib, policy="drop")
        assert len(samples) == 1
        assert stats.n_dropped == 1

    def test_dedup_first_provenance(self, lib):
        parsed = [(1, outcome("x + 1")), (2, outcome("y + 1"))]
        samples, _ = build_corpus(parsed, lib)
        # both canonicalize to add(x1, 1): only the first survives
        assert len(samples) == 1
        assert samples[0].page_id == 1

    def test_unknown_operator_dropped_not_raised(self, lib):
        parsed = [(1, outcome(r"x \bmod y")), (2, outcome("x"))]
        samples, stats = build_corpus(parsed, lib, policy="drop")
        assert stats.n_dropped >= 1
        assert len(samples) >= 1

    def test_histograms_consistent(self, lib, rng):
        parsed = [(i, outcome(s)) for i, s in enumerate(
            ["x+1", "x y", r"\sin(x)", "x^2 + x", r"\frac{x}{2}"])]
        samples, stats = build_corpus(parsed, lib)
        assert sum(stats.length_histogram.values()) == stats.n_samples
        assert stats.token_histogram == token_frequencies(samples, lib)

    def test_invalid_policy(self, lib):
        with pytest.raises(ValueError):
            build_corpus([], lib, policy="maybe")

    @pytest.mark.parametrize("policy", ["drop", "split", "replace_and_split"])
    def test_too_deep_tree_dropped_not_raised(self, lib, policy):
        deep = node(lib.get("x1"))
        for _ in range(5000):
            deep = node(lib.get("add"), deep, node(lib.get("1")))
        marked = node(lib.get("add"), deep, unsupported_marker("int", []))
        trees = [deep, marked, parse_latex("x + 1").trees[0]]
        parsed = [(1, ParseOutcome(trees=trees, unsupported=[],
                                   relation_split_count=0))]
        samples, stats = build_corpus(parsed, lib, policy=policy)
        assert [s.traversal.token_names(lib) for s in samples] == [
            ["add", "x1", "1"]]
        assert stats.n_dropped == 2


class TestCorpusFile:
    def _random_samples(self, lib, rng, n):
        out, seen = [], set()
        while len(out) < n:
            t = random_tree(lib, rng, max_depth=6)
            trav = plain_traversal(t, lib)
            if trav.seq in seen:
                continue
            seen.add(trav.seq)
            out.append(CorpusSample(
                traversal=trav,
                page_id=int(rng.integers(1, 10_000)),
                augmentation=["none", "replaced", "split"][int(rng.integers(3))]))
        return out

    def test_roundtrip_1000_random(self, lib, rng, tmp_path):
        samples = self._random_samples(lib, rng, 1000)
        path = tmp_path / "c.corpus"
        write_corpus(samples, path, lib)
        back = read_corpus(path, lib)
        assert back == samples

    def test_empty_corpus(self, lib, tmp_path):
        path = tmp_path / "empty.corpus"
        write_corpus([], path, lib)
        assert path.read_text().startswith("#mathcorpus v1 vocab=std2")
        assert read_corpus(path, lib) == []

    def test_header_mismatch(self, lib, tmp_path):
        path = tmp_path / "bad.corpus"
        path.write_text("#other v9 vocab=std2\n")
        with pytest.raises(FormatVersionMismatch):
            read_corpus(path, lib)

    def test_unknown_token(self, lib, tmp_path):
        path = tmp_path / "foo.corpus"
        path.write_text("#mathcorpus v1 vocab=std2\n1\tnone\tfoo\n")
        with pytest.raises(VocabMismatch) as exc:
            read_corpus(path, lib)
        assert exc.value.token_name == "foo"

    def test_sample_without_tokens_names_its_line(self, lib, tmp_path):
        path = tmp_path / "c.corpus"
        path.write_text("#mathcorpus v1 vocab=std2\n1\tnone\t\n")
        with pytest.raises(CorpusError, match=r"line 2: a sample with no tok"):
            read_corpus(path, lib)

    @pytest.mark.parametrize("text", [
        "#other v9 vocab=std2\n",
        "#mathcorpus v1 vocab=std2\n1\tnone\tfoo\n",
        "#mathcorpus v1 vocab=std2\n1\tnone\t\n",
        "#mathcorpus v1 vocab=std2\n2\tnone\tsin x1\n1\tadd x1 1\n",
        "#mathcorpus v1 vocab=std2\none\tnone\tadd x1 1\n",
    ], ids=["header", "unknown-token", "no-tokens", "two-fields",
            "page-id"])
    def test_stream_raises_as_the_list_does(self, lib, tmp_path, text):
        path = tmp_path / "c.corpus"
        path.write_text(text)
        errors = []
        for read in (read_corpus, lambda p, l: list(iter_corpus(p, l))):
            with pytest.raises(CorpusError) as exc:
                read(path, lib)
            errors.append((type(exc.value), str(exc.value)))
        assert errors[0] == errors[1]

    def test_stream_yields_what_the_list_holds(self, lib, rng, tmp_path):
        samples = self._random_samples(lib, rng, 50)
        path = tmp_path / "c.corpus"
        write_corpus(samples, path, lib)
        assert list(iter_corpus(path, lib)) == [
            (s.page_id, s.augmentation, list(s.traversal)) for s in samples]

    def test_comment_lines_skipped(self, lib, tmp_path):
        path = tmp_path / "c.corpus"
        path.write_text("#mathcorpus v1 vocab=std2\n# a note\n3\tnone\tx1\n")
        (s,) = read_corpus(path, lib)
        assert s.traversal == Traversal([lib.index_of("x1")])
