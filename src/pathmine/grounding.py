"""Text-to-graph grounding: tokenization and concept mentions.

``pipeline.ground_pair`` grounds one context/query pair with them, and
builds the pair's context counts: one int32 array over the graph's
concepts, which tree growth, scoring and level-5 re-growth all read.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .kg import KnowledgeGraph

# word runs plus apostrophe clitics ("dedlock's" -> "dedlock", "'s");
# standalone punctuation never matches and is dropped
_TOKEN_RE = re.compile(r"\w+|'\w+")

DEFAULT_MAX_NGRAM = 4


@dataclass(frozen=True)
class TokenizedText:
    tokens: tuple[str, ...]

    @property
    def token_count(self) -> int:
        return len(self.tokens)


@dataclass
class ConceptMentionSet:
    """Concept id -> occurrence count over one source text."""

    mentions: dict[int, int]
    source_len: int


@dataclass
class GroundedPair:
    """Context mentions plus the grounded query concepts, in query order,
    and ``context_counts``, the mention counts as an int32 array over all
    concept ids, empty when no tree can grow (no context token or no query
    concept).  A count is at most the context's token count, far below
    2**31 for any context that fits in memory."""

    context_mentions: ConceptMentionSet
    query_concepts: list[int]
    context_counts: np.ndarray


def tokenize(text: str) -> TokenizedText:
    """Lowercased word tokens; punctuation dropped, apostrophe clitics split."""
    return TokenizedText(tuple(_TOKEN_RE.findall(text.lower())))


def load_stopwords(path: str | None = None) -> frozenset[str]:
    """One token per line, UTF-8; blank lines and '#' comments ignored."""
    if path is None:
        text = resources.files(__package__).joinpath("data/stopwords_en.txt").read_text("utf-8")
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    words = set()
    for line in text.splitlines():
        token = line.strip().lower()
        if token and not token.startswith("#"):
            words.add(token)
    return frozenset(words)


def extract_concepts(
    text: TokenizedText,
    g: KnowledgeGraph,
    max_ngram: int = DEFAULT_MAX_NGRAM,
    stopwords: frozenset[str] = frozenset(),
) -> ConceptMentionSet:
    """Greedy longest-match grounding of the token stream into graph concepts.

    At each position the longest n-gram (joined with underscores) that names
    a concept wins and the scan advances past it; single tokens that are
    stopwords never match alone.  Matches therefore never overlap.

    The probe starts at the longest n-gram that could match.  An n-gram
    joins at least n words, and the first of them is its first token when
    that token holds no ``_``; so no n-gram longer than the token's entry
    in ``g.multiword_spans`` (1 when no multiword surface starts with it)
    names a concept.  A token that holds ``_`` starts at ``max_ngram``.
    """
    if max_ngram < 1:
        raise ValueError("max_ngram must be >= 1")
    tokens = text.tokens
    surface_to_id, spans = g.surface_to_id, g.multiword_spans
    mentions: dict[int, int] = {}
    i = 0
    n_tokens = len(tokens)
    while i < n_tokens:
        token = tokens[i]
        longest = max_ngram if "_" in token else spans.get(token, 1)
        cid = None
        if longest > 1:
            for n in range(min(longest, max_ngram, n_tokens - i), 1, -1):
                cid = surface_to_id.get("_".join(tokens[i : i + n]))
                if cid is not None:
                    break
        if cid is None:
            n = 1
            if token not in stopwords:
                cid = surface_to_id.get(token)
        if cid is not None:
            mentions[cid] = mentions.get(cid, 0) + 1
        i += n
    return ConceptMentionSet(mentions=mentions, source_len=n_tokens)

