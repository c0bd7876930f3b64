"""Tokenization, greedy concept matching, and pair grounding."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pathmine import graph_from_triples, ground_pair
from pathmine.grounding import TokenizedText, extract_concepts, load_stopwords, tokenize

from conftest import grounding_oracle, reference_token_count, random_multigraph


STOPWORDS = load_stopwords()

# a small alphabet, so surfaces share first words, a first word is often
# no surface on its own, and stopwords start and end multiword surfaces
WORDS = ("a", "b", "c", "the", "of")
ORACLE_STOPWORDS = frozenset({"the", "of"})
_word_runs = st.lists(st.sampled_from(WORDS), min_size=1, max_size=5)


@st.composite
def _grounding_cases(draw):
    """A vocabulary of one- to five-word surfaces, a token stream and a
    ``max_ngram``.  The stream spells words and surfaces with random token
    boundaries: words not cut apart share one token, joined by ``_``."""
    vocab = draw(st.lists(_word_runs.map("_".join), min_size=1, max_size=8, unique=True))
    spelled = st.one_of(_word_runs, st.sampled_from(vocab).map(lambda s: s.split("_")))
    tokens: list[str] = []
    for words in draw(st.lists(spelled, max_size=10)):
        cuts = draw(st.lists(st.booleans(), min_size=len(words) - 1, max_size=len(words) - 1))
        token = words[0]
        for word, cut in zip(words[1:], cuts):
            if cut:
                tokens.append(token)
                token = word
            else:
                token += "_" + word
        tokens.append(token)
    return vocab, tuple(tokens), draw(st.integers(1, 4))


class TestTokenize:
    def test_clitic_split(self):
        assert tokenize("Lady Dedlock's daughter.").tokens == ("lady", "dedlock", "'s", "daughter")

    def test_empty(self):
        assert tokenize("").token_count == 0

    def test_punctuation_dropped(self):
        assert tokenize("Hello, world! (really)").tokens == ("hello", "world", "really")

    def test_long_text_matches_reference_count(self):
        rng = np.random.default_rng(5)
        words = ["lady", "church", "Dedlock's", "ice-cream", "run,", "jump!", "(aside)", "don't"]
        text = " ".join(words[int(i)] for i in rng.integers(0, len(words), size=1000))
        assert tokenize(text).token_count == reference_token_count(text)

    def test_deterministic(self):
        text = "The lady, the lady's lover; their child."
        assert tokenize(text) == tokenize(text)


class TestExtractConcepts:
    def test_story_sentence(self, story_graph):
        mentions = extract_concepts(tokenize("the lady went to church"), story_graph, 4, STOPWORDS)
        got = {story_graph.surfaces[c]: n for c, n in mentions.mentions.items()}
        assert got == {"lady": 1, "church": 1}

    def test_counting(self, story_graph):
        text = " ".join(["daughter"] * 5) + " " + " ".join(["filler"] * 95)
        mentions = extract_concepts(tokenize(text), story_graph, 4, STOPWORDS)
        assert mentions.mentions.get(story_graph.concept_id("daughter"), 0) == 5
        assert mentions.source_len == 100

    def test_greedy_longest_match(self):
        g = graph_from_triples(
            [("ice_cream", "IsA", "food"), ("cone", "IsA", "shape"), ("ice", "IsA", "water"), ("cream", "IsA", "food")]
        )
        mentions = extract_concepts(tokenize("ice cream cone"), g, 4, STOPWORDS)
        got = {g.surfaces[c]: n for c, n in mentions.mentions.items()}
        assert got == {"ice_cream": 1, "cone": 1}

    def test_longest_match_properties(self):
        # oracle: every reported mention exists among exhaustive n-gram matches,
        # spans never overlap, and each match is maximal at its position
        g = graph_from_triples(
            [
                ("foo_bar_baz", "IsA", "x"),
                ("foo_bar", "IsA", "x"),
                ("bar_baz", "IsA", "x"),
                ("foo", "IsA", "x"),
                ("baz", "IsA", "x"),
            ]
        )
        tokens = tokenize("foo bar baz foo bar qux baz foo")
        mentions = extract_concepts(tokens, g, 3, STOPWORDS)
        all_ngrams = {
            (i, n)
            for i in range(tokens.token_count)
            for n in range(1, 4)
            if i + n <= tokens.token_count
            and g.concept_id("_".join(tokens.tokens[i : i + n])) is not None
        }
        # reconstruct greedy spans independently
        spans = []
        i = 0
        while i < tokens.token_count:
            best = max((n for (j, n) in all_ngrams if j == i), default=0)
            if best:
                spans.append((i, best))
                i += best
            else:
                i += 1
        from collections import Counter

        expected = Counter(
            g.concept_id("_".join(tokens.tokens[i : i + n])) for i, n in spans
        )
        assert mentions.mentions == dict(expected)
        assert all(a + n <= b for (a, n), (b, _) in zip(spans, spans[1:]))

    def test_stopwords_block_single_tokens_only(self):
        g = graph_from_triples([("the", "IsA", "word"), ("the_end", "IsA", "phrase")])
        mentions = extract_concepts(tokenize("the end the"), g, 4, STOPWORDS)
        got = {g.surfaces[c]: n for c, n in mentions.mentions.items()}
        assert got == {"the_end": 1}

    def test_total_mentions_bounded_by_tokens(self):
        rng = np.random.default_rng(9)
        g = random_multigraph(rng, max_nodes=30, max_edges=60)
        names = [g.surfaces[int(rng.integers(g.node_count))] for _ in range(200)]
        mentions = extract_concepts(tokenize(" ".join(names)), g, 4, STOPWORDS)
        assert sum(mentions.mentions.values()) <= 200

    @settings(max_examples=400, deadline=None)
    @given(case=_grounding_cases())
    def test_matches_brute_force_longest_match(self, case):
        vocab, tokens, max_ngram = case
        g = graph_from_triples([], extra_concepts=vocab)
        mentions = extract_concepts(TokenizedText(tokens), g, max_ngram, ORACLE_STOPWORDS)
        got = [(g.surfaces[c], n) for c, n in mentions.mentions.items()]
        assert got == list(grounding_oracle(tokens, set(vocab), max_ngram, ORACLE_STOPWORDS).items())
        assert mentions.source_len == len(tokens)

    def test_deterministic(self, story_graph):
        text = "the lady and the church and the house"
        a = extract_concepts(tokenize(text), story_graph, 4, STOPWORDS)
        b = extract_concepts(tokenize(text), story_graph, 4, STOPWORDS)
        assert a.mentions == b.mentions


class TestGroundPair:
    def test_query_concepts_first_occurrence_order(self, story_graph):
        pair = ground_pair("the church and the lady", "lady seeks church, lady returns", story_graph)
        assert [story_graph.surfaces[c] for c in pair.query_concepts] == ["lady", "church"]

    def test_context_len_is_token_count(self, story_graph):
        pair = ground_pair("The lady went home.", "lady", story_graph)
        assert pair.context_mentions.source_len == 4
