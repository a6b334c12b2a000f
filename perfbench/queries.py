"""Seeded query generation from a prepared word list.

A word list holds, for every database of a cell, the words of its own
sampled summary with their document-frequency probabilities, plus the
whole vocabulary of the cell. A query picks one database at random and
draws 1-4 distinct words from its summary, weighted by document
frequency, so each query is topical the way a real information need is.
About one query in ten also carries a word that no summary contains: the
rare-word case the paper is about. Query shapes (word count, unseen
word) and databases are stratified so their shares are exact rather than
drawn, which keeps a run's mix nearly independent of the seed. The
program under test only ever receives the generated term lists.
"""

from __future__ import annotations

import gzip
import itertools
import json
import random
from collections.abc import Mapping, Sequence
from pathlib import Path

#: Share of queries that also carry a word no summary contains.
UNSEEN_RATE = 0.1
MIN_TERMS = 1
MAX_TERMS = 4

ALGORITHMS = ("bgloss", "cori", "lm")


def load_words(path: Path) -> dict:
    with gzip.open(path, "rt", encoding="utf-8") as handle:
        return json.load(handle)


def save_words(path: Path, words: Mapping) -> None:
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        json.dump(words, handle, separators=(",", ":"))


class QueryMaker:
    """Draws topical queries from one seeded random stream."""

    def __init__(self, words: Mapping, seed: int) -> None:
        self.rng = random.Random(seed)
        self.names = [name for name, _ in words["databases"]]
        self._pools: dict[str, tuple[list[str], list[float]]] = {}
        for name, entries in words["databases"]:
            terms = [word for word, _ in entries]
            cumulative = list(itertools.accumulate(p for _, p in entries))
            self._pools[name] = (terms, cumulative)
        self.vocabulary = frozenset(words["vocabulary"])
        self._order: list[str] = []

    def unseen_word(self) -> str:
        while True:
            word = f"zzq{self.rng.randrange(16 ** 6):06x}"
            if word not in self.vocabulary:
                return word

    def database(self) -> str:
        """Databases in seeded passes: each pass visits every one once."""
        if not self._order:
            self._order = list(self.names)
            self.rng.shuffle(self._order)
        return self._order.pop()

    def query(self, size: int, unseen: bool) -> list[str]:
        """``size`` distinct words of one database's summary, drawn by
        document frequency, plus an unseen word when ``unseen``."""
        terms, cumulative = self._pools[self.database()]
        wanted = min(size, len(terms))
        chosen: list[str] = []
        # Weighted draws without replacement; the draw cap only matters
        # for a summary dominated by one or two words.
        for _ in range(64):
            if len(chosen) >= wanted:
                break
            word = self.rng.choices(terms, cum_weights=cumulative)[0]
            if word not in chosen:
                chosen.append(word)
        if unseen:
            chosen.append(self.unseen_word())
        return chosen

    def shapes(self, count: int) -> list[tuple[int, bool]]:
        """(size, unseen) for ``count`` queries with exact shares: each
        size 1-4 a quarter, an unseen word on one query in ten."""
        sizes = [MIN_TERMS + i % (MAX_TERMS - MIN_TERMS + 1) for i in range(count)]
        unseen = [i < round(count * UNSEEN_RATE) for i in range(count)]
        self.rng.shuffle(sizes)
        self.rng.shuffle(unseen)
        return list(zip(sizes, unseen))


def _key(terms: Sequence[str]) -> tuple[str, ...]:
    return tuple(sorted(set(terms)))


#: In-process queries come in blocks of BLOCK per algorithm; every block
#: has the exact query shares of ``QueryMaker.shapes``.
BLOCK = 20
#: No term set repeats within this many queries, more than the response
#: cache's 1,024 entries, so a repeat is always a cache miss.
REPEAT_DISTANCE = 1100
#: Redraws allowed for one query slot before the word lists are declared
#: too small.
MAX_REDRAWS = 10000


def inprocess_plan(words: Mapping, seed: int, warmup: int, count: int) -> dict:
    """Warm-up and timed queries for an in-process workload.

    Query ``i`` is sent with algorithm ``ALGORITHMS[i % 3]``. Within each
    block of ``3 * BLOCK`` queries every algorithm gets exactly the
    shares of ``QueryMaker.shapes``, so a run's mix barely depends on the
    seed. No term set repeats within ``REPEAT_DISTANCE`` queries, so the
    response cache never answers one.
    """
    maker = QueryMaker(words, seed)
    total = warmup + count
    per_algorithm = [[] for _ in ALGORITHMS]
    while len(per_algorithm[0]) * len(ALGORITHMS) < total:
        for shapes in per_algorithm:
            shapes.extend(maker.shapes(BLOCK))
    recent: list[tuple[str, ...]] = []
    recent_set: set[tuple[str, ...]] = set()
    queries: list[list[str]] = []
    for i in range(total):
        size, unseen = per_algorithm[i % len(ALGORITHMS)][i // len(ALGORITHMS)]
        terms = maker.query(size, unseen)
        for _ in range(MAX_REDRAWS):
            if _key(terms) not in recent_set:
                break
            terms = maker.query(size, unseen)
        else:
            raise ValueError("word lists too small for distinct queries")
        queries.append(terms)
        recent.append(_key(terms))
        recent_set.add(recent[-1])
        if len(recent) > REPEAT_DISTANCE:
            recent_set.discard(recent.pop(0))
    return {"seed": seed, "warmup": queries[:warmup], "queries": queries[warmup:]}


def zipf_cumulative(size: int, exponent: float) -> list[float]:
    """Cumulative Zipf weights 1/r^s over ranks 1..size."""
    return list(
        itertools.accumulate(1.0 / (rank ** exponent) for rank in range(1, size + 1))
    )


def pool_plan(
    words: Mapping,
    seed: int,
    population: int,
    exponent: float,
    strategy_mix: Sequence[tuple[str, float]],
    selects: int,
    swaps: int,
    warmup: int,
) -> dict:
    """The Zipf request stream and swap targets of the pool workload.

    Each population entry is one fixed (query, algorithm, strategy), with
    exact shares of algorithms, strategies (``strategy_mix``) and query
    shapes, shuffled independently; popularity follows Zipf(``exponent``)
    over a seeded ranking of the entries. ``swaps`` names the database of
    each hot swap.
    """
    maker = QueryMaker(words, seed)
    total = population + warmup
    algorithms = [ALGORITHMS[i % len(ALGORITHMS)] for i in range(total)]
    strategies: list[str] = []
    for name, share in strategy_mix:
        strategies.extend([name] * round(total * share))
    strategies = (strategies + [strategy_mix[0][0]] * total)[:total]
    maker.rng.shuffle(algorithms)
    maker.rng.shuffle(strategies)
    entries: list[dict] = []
    seen: set[tuple] = set()
    for (size, unseen), algorithm, strategy in zip(maker.shapes(total), algorithms, strategies):
        terms = maker.query(size, unseen)
        for _ in range(MAX_REDRAWS):
            if (_key(terms), algorithm, strategy) not in seen:
                break
            terms = maker.query(size, unseen)
        else:
            raise ValueError("word lists too small for distinct queries")
        seen.add((_key(terms), algorithm, strategy))
        entries.append({"query": terms, "algorithm": algorithm, "strategy": strategy})
    warm, entries = entries[:warmup], entries[warmup:]
    cumulative = zipf_cumulative(population, exponent)
    stream = maker.rng.choices(range(population), cum_weights=cumulative, k=selects)
    order = list(maker.names)
    maker.rng.shuffle(order)
    return {
        "seed": seed,
        "warmup": warm,
        "population": entries,
        "stream": stream,
        "swaps": [order[i % len(order)] for i in range(swaps)],
    }
