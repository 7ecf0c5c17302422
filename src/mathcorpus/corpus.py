"""Token-sequence corpus construction: augmentation, canonicalization,
deduplication, statistics, and the on-disk corpus format.

Unsupported-construct markers coming out of the LaTeX parser are handled by
one of four policies: drop the sample, replace the marker subtree with a
terminal placeholder, split out the marker's supported operands as their own
samples, or both.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .expr_core import ExprError, ExprTree, Traversal, VARIABLE, node
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
        return {
            "n_samples": self.n_samples,
            "n_pages": self.n_pages,
            "n_replaced": self.n_replaced,
            "n_split": self.n_split,
            "n_dropped": self.n_dropped,
            "token_histogram": dict(self.token_histogram),
            "length_histogram": {str(k): v for k, v in self.length_histogram.items()},
        }


def has_markers(tree):
    return any(is_unsupported_marker(n.root) for n in tree.iter_nodes())


def augment_replace(tree, placeholder):
    """Replace every maximal unsupported subtree with the placeholder token."""
    if is_unsupported_marker(tree.root):
        return node(placeholder)
    return ExprTree(tree.root, [augment_replace(c, placeholder) for c in tree.children])


def augment_split(tree, placeholder):
    """Replaced tree plus each marker's supported operand subtrees,
    recursively; no output contains a marker."""
    parts = [augment_split(c, placeholder) for c in tree.children]
    if is_unsupported_marker(tree.root):  # every child goes in whole
        return [node(placeholder)] + [p for part in parts for p in part]
    return ([ExprTree(tree.root, [part[0] for part in parts])]
            + [p for part in parts for p in part[1:]])


def split_fragments(tree):
    """Maximal marker-free subtrees left after cutting marker nodes out."""
    if not has_markers(tree):
        return [tree]
    out = []
    for c in tree.children:
        out.extend(split_fragments(c))
    return out


def _encode(tree, lib, max_vars):
    """Library indices of the tree in pre-order, its variables renamed
    x1..xk in order of first appearance; None when more than max_vars
    distinct variables occur or a token is not in the library."""
    renamed, seq = {}, []

    def visit(n):
        name = n.root.name
        if n.root.kind == VARIABLE:
            name = renamed.setdefault(name, f"x{len(renamed) + 1}")
        seq.append(lib.index_of(name))
        for c in n.children:
            visit(c)

    try:
        visit(tree)
    except ExprError:  # a token outside the library
        return None
    return Traversal(seq) if len(renamed) <= max_vars else None


def build_corpus(parsed, lib, policy="replace_and_split", max_vars=2):
    """Turn (page_id, ParseOutcome) pairs into a deduplicated sample list
    plus statistics.  Per-sample failures are dropped, never raised."""
    if policy not in POLICIES:
        raise ValueError(f"policy must be one of {POLICIES}")
    if max_vars < 1:
        raise ValueError("max_vars must be >= 1")
    placeholder = lib.get(PLACEHOLDER)
    samples, seen, n_dropped = [], set(), 0
    for page_id, outcome in parsed:
        for tree in outcome.trees:
            try:
                if not has_markers(tree):
                    pieces = [(tree, "none")]
                elif policy == "drop":
                    n_dropped += 1
                    continue
                elif policy == "replace":
                    pieces = [(augment_replace(tree, placeholder), "replaced")]
                elif policy == "split":
                    pieces = [(f, "split") for f in split_fragments(tree)]
                else:  # replace_and_split
                    first, *rest = augment_split(tree, placeholder)
                    pieces = ([(first, "replaced")]
                              + [(f, "split") for f in rest])
                for piece, augmentation in pieces:
                    trav = _encode(piece, lib, max_vars)
                    if trav is None:
                        n_dropped += 1
                    elif trav.seq not in seen:
                        seen.add(trav.seq)
                        samples.append(CorpusSample(trav, page_id, augmentation))
            except RecursionError:  # too deep for the recursive walks
                n_dropped += 1

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


def write_corpus(samples, path, lib):
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"{FORMAT_HEADER} vocab={lib.name}\n")
        for s in samples:
            names = " ".join(s.traversal.token_names(lib))
            f.write(f"{s.page_id}\t{s.augmentation}\t{names}\n")


def read_corpus(path, lib):
    samples = []
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
            idxs = []
            for name in names.split():
                if name not in lib:
                    raise VocabMismatch(name)
                idxs.append(lib.index_of(name))
            samples.append(CorpusSample(traversal=Traversal(idxs),
                                        page_id=page_id,
                                        augmentation=augmentation))
    return samples


def token_frequencies(samples, lib):
    counts = Counter()
    for s in samples:
        counts.update(s.traversal.token_names(lib))
    return dict(counts)
