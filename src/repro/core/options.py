"""Configuration objects for index construction and query evaluation.

``IndexOptions`` mirrors the knobs discussed in the paper's experimental
section (FM-index sampling factor, optional plain-text store, alternative text
indexes); ``EvaluationOptions`` exposes the individual optimisations of
Section 5.4/5.5 so the ablation study of Figure 12 can switch them off one by
one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["IndexOptions", "EvaluationOptions"]


@dataclass(frozen=True)
class IndexOptions:
    """Options controlling how a :class:`~repro.core.document.Document` is indexed.

    Attributes
    ----------
    sample_rate:
        FM-index locate sampling step ``l`` (the paper evaluates 64 and 4).
    keep_plain_text:
        Keep an auxiliary plain copy of the texts next to the self-index,
        enabling fast extraction and the plain-scan strategy for
        low-selectivity ``contains`` queries (Section 3.4).
    text_index:
        ``"fm"`` (default wavelet-tree FM-index), ``"rlcsa"`` (run-length
        encoded BWT for repetitive collections, Section 6.7) or ``"none"``
        (tree-only indexing; text predicates then use the plain store).
    word_index:
        Additionally build the word-based index of Section 6.6.2.
    keep_whitespace:
        Keep whitespace-only texts as ``#`` leaves (the paper keeps them; the
        default here drops them because the synthetic generators never emit
        indentation).
    contains_cutoff:
        Occurrence count above which ``contains`` queries switch from the
        FM-index to scanning the plain text store (Section 6.3).
    """

    sample_rate: int = 64
    keep_plain_text: bool = True
    text_index: str = "fm"
    word_index: bool = False
    keep_whitespace: bool = False
    contains_cutoff: int = 20_000

    def replace(self, **changes) -> "IndexOptions":
        """Return a copy with the given fields changed."""
        return replace(self, **changes)


@dataclass(frozen=True)
class EvaluationOptions:
    """Options controlling the automaton evaluator (Sections 5.4 and 5.5).

    Attributes
    ----------
    jumping:
        Use ``TaggedDesc``/``TaggedFoll`` to jump directly to relevant nodes.
    memoization:
        Cache the per-(state-set, label) transition analysis ("just-in-time
        compilation" of the automaton).
    lazy_result_sets:
        Collect whole subtrees of results with a constant number of index
        calls when the automaton state allows it.
    early_evaluation:
        Partially evaluate formulas after the left (first-child) recursion and
        skip the right (next-sibling) recursion when already decided.
    use_tag_tables:
        Use the relative tag-position tables to drop jumps that cannot succeed.
    allow_bottom_up:
        Let the planner choose the bottom-up (text-seeded) strategy.
    counting:
        Evaluate in counting mode (result cardinalities instead of node sets).
    """

    jumping: bool = True
    memoization: bool = True
    lazy_result_sets: bool = True
    early_evaluation: bool = True
    use_tag_tables: bool = True
    allow_bottom_up: bool = True
    counting: bool = False

    def replace(self, **changes) -> "EvaluationOptions":
        """Return a copy with the given fields changed."""
        return replace(self, **changes)

    @classmethod
    def naive(cls) -> "EvaluationOptions":
        """All optimisations disabled (the first bar of Figure 12)."""
        return cls(
            jumping=False,
            memoization=False,
            lazy_result_sets=False,
            early_evaluation=False,
            use_tag_tables=False,
            allow_bottom_up=False,
        )
