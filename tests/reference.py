"""A plain-Python extractor written from the README's definition.

It shares no code with ``pathmine``'s pipeline: the graph is read only
through its edge table and ``edges_between()``; neighbours, walk counts
and multiplicities come from the edge table as ``conftest``'s oracles
count them, and every tree is a nest of dicts grown one node at a time.

* Grounding: lowercased word runs and apostrophe clitics, then greedy
  longest match (``conftest.grounding_oracle``).
* One tree per query concept, in first-mention order, of up to five
  levels: levels 2, 3 and 5 are context concepts, level 4 any neighbour.
  Each node's children are its neighbours not already on its path, each
  with its lowest relation id, capped to the first ``cap`` by (context
  count desc, concept asc), or (degree desc, concept asc) at level 4.
* Raw scores: context count / token count; NPMI at level 4, computed
  as ``conftest.npmi_oracle`` computes it.
* Sibling softmax, then bottom-up c = n + mean of the two best children.
* Selection descends from the root to each node's two best children by
  (c desc, concept asc), depth-first and best first; every proper prefix
  of a full path (two concepts or more) is a truncation.
* Realization draws among parallel relations from the tree's own
  generator, seeded (seed, request index, root position), which a tree
  without children never creates.

Two sibling scores that differ, but by no more than ``NEAR_TIE``
relative, may be ranked either way by a floating-point implementation;
a selection that hinges on such a pair raises :class:`Ambiguous`.
"""

from __future__ import annotations

import json
import math
from collections import Counter

import numpy as np

from conftest import adjacency_with_multiplicity, count_walks_oracle, grounding_oracle, neighbor_lists

SENTINEL = float(np.finfo(np.float64).min)
NEAR_TIE = 1e-9
LEVELS = 5


class Ambiguous(Exception):
    """A selection decided by scores closer than ``NEAR_TIE`` but not equal."""


def tokens_of(text: str) -> tuple[str, ...]:
    """Word runs (alphanumerics and ``_``) and ``'``-led clitics, lowercased."""
    out, i, text = [], 0, text.lower()
    wordish = lambda ch: ch.isalnum() or ch == "_"  # noqa: E731
    while i < len(text):
        start = i + 1 if text[i] == "'" and i + 1 < len(text) and wordish(text[i + 1]) else i
        if not wordish(text[start]):
            i += 1
            continue
        end = start
        while end < len(text) and wordish(text[end]):
            end += 1
        out.append(text[i:end])
        i = end
    return tuple(out)


class Reference:
    """The reference pipeline over one graph."""

    def __init__(self, g, cap: int, seed: int = 0, max_ngram: int = 4, stopwords=frozenset()):
        self.g, self.cap, self.seed = g, cap, seed
        self.max_ngram, self.stopwords = max_ngram, stopwords
        self.mult = adjacency_with_multiplicity(g)
        self.neighbors = neighbor_lists(g)
        self.walks3 = count_walks_oracle(g, 2)
        self.walks4 = count_walks_oracle(g, 3)
        # what the requests so far exercised: capped child lists, exact
        # ties at a selection boundary, draws among parallel relations
        self.seen: Counter = Counter()

    # -- scores --------------------------------------------------------------

    def multiplicity(self, a: int, b: int) -> int:
        return self.mult[a].get(b, 0)

    def npmi(self, c1: int, c2: int, c3: int, c4: int) -> float:
        prefix = self.multiplicity(c1, c2) * self.multiplicity(c2, c3)
        joint_count = prefix * self.multiplicity(c3, c4)
        if joint_count == 0:
            return SENTINEL
        if joint_count == self.walks4:
            return 1.0
        joint = joint_count / self.walks4
        p_prefix = prefix / self.walks3
        p_hop = len(self.mult[c4]) / self.g.node_count
        return math.log(joint / (p_hop * p_prefix)) / (-math.log(joint))

    # -- trees ---------------------------------------------------------------

    def grow(self, root: int, counts: dict[int, int]) -> dict:
        """The tree below ``root``: nested ``{concept, rel, children}``."""
        tree = {"concept": root, "rel": None, "children": []}
        frontier = [(tree, [root])]
        for level in range(2, LEVELS + 1):
            nxt = []
            for node, path in frontier:
                lowest: dict[int, int] = {}
                for rel, c in self.neighbors.get(path[-1], []):
                    lowest[c] = min(rel, lowest.get(c, rel))
                if level == 4:
                    rank = lambda c: (-sum(self.mult[c].values()), c)  # noqa: E731
                    kept = [c for c in lowest if c not in path]
                else:
                    rank = lambda c: (-counts.get(c, 0), c)  # noqa: E731
                    kept = [c for c in lowest if c not in path and counts.get(c, 0) > 0]
                self.seen["capped"] += len(kept) > self.cap
                for c in sorted(kept, key=rank)[: self.cap]:
                    child = {"concept": c, "rel": lowest[c], "children": []}
                    node["children"].append(child)
                    nxt.append((child, path + [c]))
            frontier = nxt
        return tree

    def score(self, tree: dict, counts: dict[int, int], length: int) -> None:
        """Fill ``raw``, ``n`` and ``c`` on every node below the root."""

        def visit(node: dict, path: list[int]) -> None:
            kids = node["children"]
            for kid in kids:
                here = path + [kid["concept"]]
                if len(here) == 4:
                    kid["raw"] = self.npmi(*here)
                else:
                    kid["raw"] = counts.get(kid["concept"], 0) / length
            if kids:
                top = max(k["raw"] for k in kids)
                exps = [math.exp(k["raw"] - top) for k in kids]
                total = math.fsum(exps)
                for kid, e in zip(kids, exps):
                    kid["n"] = e / total
            for kid in kids:
                visit(kid, path + [kid["concept"]])
            best = sorted((k["c"] for k in kids), reverse=True)[:2]
            node["c"] = node.get("n", 1.0) + (sum(best) / len(best) if best else 0.0)

        visit(tree, [tree["concept"]])

    def best_two(self, node: dict) -> list[dict]:
        kids = sorted(node["children"], key=lambda k: (-k["c"], k["concept"]))
        self.seen["tie"] += any(a["c"] == b["c"] for a, b in zip(kids[:2], kids[1:3]))
        for i in range(min(2, len(kids))):
            for other in kids[i + 1 :]:
                a, b = kids[i]["c"], other["c"]
                if a != b and abs(a - b) <= NEAR_TIE * max(abs(a), abs(b)):
                    raise Ambiguous(f"c-scores {a!r} and {b!r}")
        return kids[:2]

    def select(self, tree: dict) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """Full paths, depth-first and best first, as (concepts, relations)."""
        paths = []

        def descend(node: dict, concepts: tuple, rels: tuple) -> None:
            kept = self.best_two(node)
            if not kept and len(concepts) >= 2:
                paths.append((concepts, rels))
            for kid in kept:
                descend(kid, concepts + (kid["concept"],), rels + (kid["rel"],))

        descend(tree, (tree["concept"],), ())
        return paths

    def realize(self, paths, rng) -> list[list[str]]:
        """Token lists of the full paths, then of their truncations."""
        g = self.g
        words = lambda c: g.surfaces[c].split("_")  # noqa: E731
        realized, prefixes = [], {}
        for concepts, rels in paths:
            tokens = words(concepts[0])
            for n, (a, b) in enumerate(zip(concepts, concepts[1:]), start=2):
                usable = g.edges_between(a, b)
                self.seen["draw"] += len(usable) > 1
                drawn = usable[0] if len(usable) == 1 else usable[int(rng.integers(len(usable)))]
                tokens = tokens + [g.relation_names[drawn]] + words(b)
                if n < len(concepts):
                    prefixes.setdefault((concepts[:n], rels[: n - 1]), tokens)
            realized.append(tokens)
        return realized + list(prefixes.values())

    # -- requests ------------------------------------------------------------

    def ground(self, text: str) -> tuple[dict[int, int], int]:
        tokens = tokens_of(text)
        found = grounding_oracle(tokens, set(self.g.surfaces), self.max_ngram, self.stopwords)
        return {self.g.surface_to_id.get(s): n for s, n in found.items()}, len(tokens)

    def extract(self, request_id, context: str, query: str, request_index: int = 0,
                max_total_paths: int | None = None) -> str:
        """The request's result line, as ``ExtractionResult.to_json`` writes it."""
        counts, length = self.ground(context)
        roots = list(self.ground(query)[0]) if length else []
        paths: list[list[str]] = []
        stats = {"trees": len(roots), "tree_nodes": 0, "full_paths": 0, "truncations": 0}
        for position, root in enumerate(roots):
            tree = self.grow(root, counts)
            self.score(tree, counts, length)
            stats["tree_nodes"] += _size(tree)
            if not tree["children"]:
                continue
            full = self.select(tree)
            realized = self.realize(full, np.random.default_rng([self.seed, request_index, position]))
            stats["full_paths"] += len(full)
            stats["truncations"] += len(realized) - len(full)
            paths += realized
        if max_total_paths is not None:
            paths = paths[:max_total_paths]
        return json.dumps(
            {"id": request_id, "paths": paths, "stats": stats, "error": None},
            ensure_ascii=False,
            separators=(",", ":"),
        )


def _size(node: dict) -> int:
    return 1 + sum(_size(k) for k in node["children"])
