"""The serial oracle every served answer is checked against.

Bit-identity to the serial reference is the contract of every serving
configuration: full or pruned scans, cached answers, answers after a hot
swap, answers from a worker pool. This module is the one place that
contract is checked:

* :func:`serial_ranking` — the reference. ``choose_summaries`` (Figure 3)
  and :func:`~repro.selection.base.rank_databases` on freshly prepared
  scorers over the metasearcher's own sampled and shrunk summaries: no
  engines, score matrices, caches or shared memory.
* :func:`answer_problems` — the rule one answer must meet: its
  ``selected`` list is the serial selection, and its ranking is a
  bit-identical prefix of the serial ranking (at least ``k`` entries)
  with matching ``selected`` flags.
* :func:`sweep` — checks every answer a set of ``select`` callables give
  for a list of queries. A callable may return a served answer
  (:meth:`SelectionService.select`, :meth:`ServingClient.select`) or an
  in-process :class:`~repro.selection.metasearcher.SelectionOutcome`,
  which is turned into an answer by the same
  :meth:`~repro.selection.metasearcher.SelectionOutcome.ranking_entries`
  the service serializes with. An answer marked ``degraded`` is checked
  against the plain reference, the promise its flag makes.

``rank_databases`` is imported from :mod:`repro.selection.base`, not
through the metasearcher module, so a tracer wrapping the metasearcher's
name counts only serving fallbacks, never oracle checks.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence

from repro.core.adaptive import choose_summaries
from repro.selection.base import RankedDatabase, rank_databases
from repro.selection.metasearcher import Metasearcher, SelectionOutcome

#: ``select(terms, algorithm, strategy, k)`` returning an answer dict or
#: a :class:`SelectionOutcome`.
SelectFn = Callable[[list[str], str, str, int], Mapping | SelectionOutcome]

#: How many wrong answers a sweep describes.
EXAMPLES = 5


def serial_ranking(
    metasearcher: Metasearcher,
    terms: Sequence[str],
    algorithm: str,
    strategy: str,
) -> list[RankedDatabase]:
    """The serial reference ranking of one query.

    ``strategy`` is ``plain`` (the sampled summaries), ``universal`` (the
    shrunk ones) or ``shrinkage`` (Figure 3's per-database choice, made
    on the sampled set's statistics with per-database floors).
    """
    terms = list(terms)
    sampled = metasearcher.sampled_summaries
    if strategy == "plain":
        summaries = sampled
    elif strategy == "universal":
        summaries = metasearcher.shrunk_summaries
    elif strategy == "shrinkage":
        decider = metasearcher.make_scorer(algorithm)
        decider.prepare(sampled)
        floors = {
            name: decider.floor_score(terms, summary)
            for name, summary in sampled.items()
        }
        summaries, _ = choose_summaries(
            decider,
            terms,
            dict(sampled),
            dict(metasearcher.shrunk_summaries),
            metasearcher.adaptive_config,
            floors=floors,
        )
    else:
        raise ValueError(f"no serial reference for strategy {strategy!r}")
    return rank_databases(metasearcher.make_scorer(algorithm), terms, summaries)


def answer_problems(
    answer: Mapping,
    reference: Sequence[RankedDatabase],
    k: int,
    limit: int | None = None,
) -> list[str]:
    """What keeps ``answer`` from being bit-identical to ``reference``.

    ``limit`` is the serving ranking cap (``--topk``), when one applies:
    an answer then holds at least ``min(k, limit)`` entries instead of
    ``k``. An empty list means the answer is correct.
    """
    ranking = list(answer["ranking"])
    want_selected = [entry.name for entry in reference if entry.selected][:k]
    chosen = set(want_selected)
    # An answer flags exactly the databases it selects (the first k
    # above their floor), not every database above its floor.
    expected = [
        {"name": entry.name, "score": entry.score, "selected": entry.name in chosen}
        for entry in reference[: len(ranking)]
    ]
    needed = min(k if limit is None else min(k, limit), len(reference))
    problems = []
    if len(ranking) < needed:
        problems.append(f"ranking holds {len(ranking)} entries, expected >= {needed}")
    if ranking != expected:
        for got, want in zip(ranking, expected):
            if got != want:
                problems.append(
                    f"ranking differs from the serial reference: {got} != {want}"
                )
                break
        else:
            problems.append("ranking differs from the serial reference")
    if list(answer["selected"]) != want_selected:
        problems.append(
            f"selected {list(answer['selected'])[:3]}... != serial {want_selected[:3]}..."
        )
    return problems


def sweep(
    metasearcher: Metasearcher,
    selects: Sequence[SelectFn],
    queries: Sequence[Sequence[str]],
    algorithm: str,
    strategy: str,
    k: int,
    limit: int | None = None,
) -> dict:
    """Check every select's answer to every query against the reference.

    ``metasearcher`` supplies the reference's summaries. Each query's
    terms go to every select and to the reference unchanged, so a
    service, which scores the sorted distinct terms, must be handed
    queries in that canonical form. Returns ``{"checked": queries,
    "wrong": queries with any wrong answer, "examples": [...]}``.
    """
    wrong = 0
    examples: list[str] = []
    for query in queries:
        terms = list(query)
        references: dict[str, list[RankedDatabase]] = {}
        problems: list[str] = []
        for select in selects:
            answer = select(terms, algorithm, strategy, k)
            if isinstance(answer, SelectionOutcome):
                answer = {
                    "selected": answer.names,
                    "ranking": answer.ranking_entries(limit),
                }
            expected = "plain" if answer.get("degraded") else strategy
            if expected not in references:
                references[expected] = serial_ranking(
                    metasearcher, terms, algorithm, expected
                )
            problems.extend(
                answer_problems(answer, references[expected], k, limit)
            )
        if problems:
            wrong += 1
            if len(examples) < EXAMPLES:
                examples.append(
                    f"{algorithm}/{strategy} [{' '.join(terms)}]: {problems[0]}"
                )
    return {"checked": len(queries), "wrong": wrong, "examples": examples}
