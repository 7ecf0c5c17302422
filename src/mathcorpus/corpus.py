"""Token-sequence corpus construction: augmentation, canonicalization,
deduplication, statistics, and the on-disk corpus format.

Unsupported-construct markers coming out of the LaTeX parser are handled by
one of four policies: drop the sample, replace the marker subtree with a
terminal placeholder, split out the marker's supported operands as their own
samples, or both.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, field

from .expr_core import (ExprTree, Traversal, UnknownToken, node,
                        tree_to_traversal)
from .latex_parser import is_unsupported_marker

POLICIES = ("drop", "replace", "split", "replace_and_split")
PLACEHOLDER = "1"  # the library token an unsupported subtree becomes

FORMAT_HEADER = "#mathcorpus v1"


class CorpusError(Exception):
    pass


class FormatVersionMismatch(CorpusError):
    pass


class VocabMismatch(CorpusError):
    token_name = property(lambda self: self.args[0])  # in args, so it pickles

    def __str__(self):
        return f"token {self.token_name!r} not in library"


@dataclass(frozen=True)
class CorpusSample:
    traversal: Traversal
    page_id: int
    augmentation: str = "none"  # none | replaced | split


@dataclass
class CorpusStats:
    n_samples: int = 0
    n_pages: int = 0
    n_replaced: int = 0
    n_split: int = 0
    n_dropped: int = 0
    token_histogram: dict = field(default_factory=dict)
    length_histogram: dict = field(default_factory=dict)

    def to_dict(self):
        return asdict(self) | {"length_histogram": {
            str(k): v for k, v in self.length_histogram.items()}}


def has_markers(tree):
    # a stack: iter_nodes' nested generators pass each node up every level
    stack = [tree]
    while stack:
        n = stack.pop()
        if is_unsupported_marker(n.root):
            return True
        stack += n.children
    return False


def augment_split(tree, placeholder):
    """The tree with every maximal unsupported subtree replaced by the
    placeholder token, then each marker's supported operand subtrees,
    recursively; no output contains a marker."""
    parts = [augment_split(c, placeholder) for c in tree.children]
    if is_unsupported_marker(tree.root):  # every child goes in whole
        return [node(placeholder)] + [p for part in parts for p in part]
    return ([ExprTree(tree.root, [part[0] for part in parts])]
            + [p for part in parts for p in part[1:]])


def split_fragments(tree):
    """Maximal marker-free subtrees left after cutting marker nodes out."""
    out = []
    _split(tree, out)
    return out


def _split(tree, out):
    """Append the tree's fragments to ``out``, in one walk that looks at each
    node once; returns whether the tree holds a marker."""
    start = len(out)
    held = [_split(c, out) for c in tree.children]
    if is_unsupported_marker(tree.root) or any(held):
        return True
    out[start:] = [tree]  # its children's fragments, whole
    return False


DROPPED = (None, "none")  # an encoded piece that makes no sample


def encode_trees(trees, lib, policy):
    """(seq, augmentation) for each piece the policy makes of one parse
    outcome's trees, in order: seq is the piece's ``tree_to_traversal``
    indices, or None for a dropped piece.  A tree too deep for the recursive
    walks ends its pieces with one dropped piece.  Only tuples come out,
    never a tree."""
    placeholder = lib.get(PLACEHOLDER)
    out = []
    for tree in trees:
        try:
            if not has_markers(tree):
                pieces = [(tree, "none")]
            elif policy == "drop":
                out.append(DROPPED)
                continue
            elif policy == "replace":
                pieces = [(augment_split(tree, placeholder)[0], "replaced")]
            elif policy == "split":
                pieces = [(f, "split") for f in split_fragments(tree)]
            else:  # replace_and_split
                first, *rest = augment_split(tree, placeholder)
                pieces = [(first, "replaced")] + [(f, "split") for f in rest]
            for piece, augmentation in pieces:
                try:
                    out.append((tree_to_traversal(piece, lib).seq,
                                augmentation))
                except UnknownToken:  # a token outside the library
                    out.append(DROPPED)
        except RecursionError:
            out.append(DROPPED)
    return out


def collect_samples(encoded, lib):
    """The deduplicated sample list plus statistics, from (page_id, pieces)
    pairs in input order, each pieces list as ``encode_trees`` gives it.
    The first occurrence of a sequence is the one kept."""
    samples, seen, n_dropped = [], set(), 0
    for page_id, pieces in encoded:
        for seq, augmentation in pieces:
            if seq is None:
                n_dropped += 1
            elif seq not in seen:
                seen.add(seq)
                samples.append(CorpusSample(Traversal(seq), page_id,
                                            augmentation))

    augmentations = Counter(s.augmentation for s in samples)
    stats = CorpusStats(
        n_samples=len(samples),
        n_pages=len({s.page_id for s in samples}),
        n_replaced=augmentations["replaced"],
        n_split=augmentations["split"],
        n_dropped=n_dropped,
        token_histogram=token_frequencies(samples, lib),
        length_histogram=dict(Counter(len(s.traversal) for s in samples)))
    return samples, stats


def build_corpus(parsed, lib, policy="replace_and_split"):
    """Turn (page_id, ParseOutcome) pairs into a deduplicated sample list
    plus statistics.  Per-sample failures are dropped, never raised."""
    if policy not in POLICIES:
        raise ValueError(f"policy must be one of {POLICIES}")
    return collect_samples(
        ((page_id, encode_trees(outcome.trees, lib, policy))
         for page_id, outcome in parsed), lib)


def write_corpus(samples, path, lib):
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"{FORMAT_HEADER} vocab={lib.name}\n")
        for s in samples:
            names = " ".join(s.traversal.token_names(lib))
            f.write(f"{s.page_id}\t{s.augmentation}\t{names}\n")


def iter_corpus(path, lib):
    """(page_id, augmentation, library indices) for each sample of a corpus
    file, read a line at a time; a malformed line or a token outside
    ``lib`` raises when it is reached."""
    with open(path, "r", encoding="utf-8") as f:
        header = f.readline().rstrip("\n")
        if not header.startswith(FORMAT_HEADER):
            raise FormatVersionMismatch(f"bad header {header!r}")
        for lineno, line in enumerate(f, 2):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            try:
                page_id, augmentation, names = line.split("\t")
                page_id = int(page_id)
            except ValueError:
                raise CorpusError(f"{path}, line {lineno}: expected an integer "
                                  f"page id, an augmentation and the tokens, "
                                  f"separated by tabs") from None
            names = names.split()
            if not names:
                raise CorpusError(f"{path}, line {lineno}: a sample with no "
                                  f"tokens")
            try:
                idxs = [lib.index[name] for name in names]
            except KeyError as e:
                raise VocabMismatch(e.args[0]) from None
            yield page_id, augmentation, idxs


def read_corpus(path, lib):
    return [CorpusSample(Traversal(idxs), page_id, augmentation)
            for page_id, augmentation, idxs in iter_corpus(path, lib)]


def token_frequencies(samples, lib):
    counts = Counter()
    for s in samples:
        counts.update(s.traversal.token_names(lib))
    return dict(counts)
