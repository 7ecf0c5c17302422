"""Token-sequence corpus construction: augmentation, canonicalization,
deduplication, statistics, and the on-disk corpus format.

Unsupported-construct markers coming out of the LaTeX parser are handled by
one of four policies: drop the sample, replace the marker subtree with a
terminal placeholder, split out the marker's supported operands as their own
samples, or both.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace as dc_replace

from .expr_core import (
    ExprError,
    ExprTree,
    Traversal,
    VARIABLE,
    node,
    tree_to_traversal,
)
from .latex_parser import is_unsupported_marker

POLICIES = ("drop", "replace", "split", "replace_and_split")
PLACEHOLDER = "1"  # the library token an unsupported subtree becomes

FORMAT_HEADER = "#mathcorpus v1"


class CorpusError(Exception):
    pass


class FormatVersionMismatch(CorpusError):
    pass


class VocabMismatch(CorpusError):
    def __init__(self, token_name):
        super().__init__(f"token {token_name!r} not in library")
        self.token_name = token_name


class _Dropped:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Dropped"


DROPPED = _Dropped()


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
    out = [augment_replace(tree, placeholder)]

    def collect(n):
        if is_unsupported_marker(n.root):
            for c in n.children:
                if has_markers(c):
                    out.extend(augment_split(c, placeholder))
                else:
                    out.append(c)
        else:
            for c in n.children:
                collect(c)

    collect(tree)
    return out


def split_fragments(tree):
    """Maximal marker-free subtrees left after cutting marker nodes out."""
    if not has_markers(tree):
        return [tree]
    out = []
    for c in tree.children:
        out.extend(split_fragments(c))
    return out


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


def build_corpus(parsed, lib, policy="replace_and_split", max_vars=2):
    """Turn (page_id, ParseOutcome) pairs into a deduplicated sample list
    plus statistics.  Per-sample failures are dropped, never raised."""
    if policy not in POLICIES:
        raise ValueError(f"policy must be one of {POLICIES}")
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
            trav = tree_to_traversal(canon, lib)
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
                    admit(augment_replace(tree, placeholder), page_id, "replaced")
                elif policy == "split":
                    for frag in split_fragments(tree):
                        admit(frag, page_id, "split")
                else:  # replace_and_split
                    pieces = augment_split(tree, placeholder)
                    admit(pieces[0], page_id, "replaced")
                    for frag in pieces[1:]:
                        admit(frag, page_id, "split")
            except RecursionError:  # too deep for the recursive rewrites
                stats.n_dropped += 1

    stats.n_samples = len(samples)
    stats.n_pages = len(pages)
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
        for line in f:
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            page_id, augmentation, names = line.split("\t")
            idxs = []
            for name in names.split():
                if name not in lib:
                    raise VocabMismatch(name)
                idxs.append(lib.index_of(name))
            samples.append(CorpusSample(traversal=Traversal(idxs),
                                        page_id=int(page_id),
                                        augmentation=augmentation))
    return samples


def token_frequencies(samples, lib):
    counts = Counter()
    for s in samples:
        counts.update(s.traversal.token_names(lib))
    return dict(counts)
