"""Correctness checks on served answers.

Three kinds, none of which compares against a stored copy of earlier
output:

* ``structure_problems`` -- every answer: ranking ordered by
  (-score, name), ``selected`` drawn from the ranking in ranking order, at
  most k names, never ``degraded``.
* ``reference_problems`` -- a seeded sample: bit-identical to the serial
  reference, ``choose_summaries`` + ``rank_databases`` on freshly prepared
  scorers (no engines, caches, shared memory or swaps).
* ``formula_problems`` -- a few plain (fixed-set) answers: every score
  matches this module's own bGlOSS, CORI and LM formulas within
  ``rel_tol``.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence


def structure_problems(response: Mapping, k: int, ranking_limit: int | None) -> list[str]:
    problems: list[str] = []
    ranking = response.get("ranking")
    selected = response.get("selected")
    if not isinstance(ranking, list) or not isinstance(selected, list):
        return ["answer lacks a ranking or a selected list"]
    if response.get("degraded"):
        problems.append("answer is degraded")
    keys = [(-entry["score"], entry["name"]) for entry in ranking]
    if keys != sorted(keys):
        problems.append("ranking is not ordered by (-score, name)")
    if len(selected) > k:
        problems.append(f"{len(selected)} names selected, k={k}")
    if ranking_limit is not None and len(ranking) > ranking_limit:
        problems.append(f"ranking holds {len(ranking)} entries, cap {ranking_limit}")
    flagged = [entry["name"] for entry in ranking if entry["selected"]]
    if selected != flagged[:k]:
        problems.append("selected is not the flagged ranking prefix")
    if not set(selected) <= {entry["name"] for entry in ranking}:
        problems.append("selected names missing from the ranking")
    return problems


def same_answer(first: Mapping, second: Mapping) -> bool:
    """Whether two answers to one request agree in ranking and selection."""
    return first["selected"] == second["selected"] and first["ranking"] == second["ranking"]


def serial_reference(
    make_scorer,
    algorithm: str,
    strategy: str,
    terms: Sequence[str],
    sampled: Mapping,
    shrunk: Mapping | None,
    adaptive_config=None,
):
    """The serial ranking for one request, from freshly prepared scorers."""
    from repro.core.adaptive import choose_summaries
    from repro.selection.base import rank_databases

    terms = list(terms)
    if strategy == "plain":
        summaries = sampled
    elif strategy == "universal":
        summaries = shrunk
    else:
        decider = make_scorer(algorithm)
        decider.prepare(sampled)
        floors = {name: decider.floor_score(terms, summary) for name, summary in sampled.items()}
        summaries, _ = choose_summaries(
            decider, terms, dict(sampled), dict(shrunk), adaptive_config, floors=floors
        )
    return rank_databases(make_scorer(algorithm), terms, summaries)


def reference_problems(response: Mapping, reference, k: int) -> list[str]:
    """Bit-identity of an answer to the serial ranking (top entries only
    when the answer's ranking is capped)."""
    ranking = response["ranking"]
    want_selected = [entry.name for entry in reference if entry.selected][:k]
    # An answer flags exactly the databases it selects (the first k above
    # their floor), not every database above its floor.
    expected = [
        {"name": entry.name, "score": entry.score, "selected": entry.name in want_selected}
        for entry in reference[: len(ranking)]
    ]
    problems = []
    if len(ranking) < min(k, len(reference)):
        problems.append(f"ranking holds {len(ranking)} entries, expected >= {min(k, len(reference))}")
    if ranking != expected:
        for got, want in zip(ranking, expected):
            if got != want:
                problems.append(f"ranking differs from the serial reference: {got} != {want}")
                break
        else:
            problems.append("ranking differs from the serial reference")
    if response["selected"] != want_selected:
        problems.append(f"selected {response['selected'][:3]}... != serial {want_selected[:3]}...")
    return problems


# -- the benchmark's own formulas ----------------------------------------------------


class Formulas:
    """bGlOSS, CORI and LM scores for plain summaries, written from their
    definitions (selection/*.py docstrings, Section 5.3 of the paper).

    Only the summaries' raw probabilities are read from the program, one
    word at a time per database; the arithmetic is this module's own.
    """

    def __init__(self, summaries: Mapping) -> None:
        self.summaries = summaries
        self._cw: dict[str, float] | None = None
        self._total_size = math.fsum(s.size for s in summaries.values())

    def _probabilities(self, terms: Sequence[str], regime: str) -> dict[str, list[float]]:
        return {
            name: summary.query_probabilities(terms, regime).tolist()
            for name, summary in self.summaries.items()
        }

    def _collection_words(self) -> dict[str, float]:
        # cw(D): estimated document-frequency mass, sum of round(|D| p)
        # over words estimated in at least one document (at least 1).
        import numpy as np

        if self._cw is None:
            self._cw = {}
            for name, summary in self.summaries.items():
                _, values = summary.regime_arrays("df")
                estimates = np.round(summary.size * values)
                self._cw[name] = max(float(estimates[estimates >= 1.0].sum()), 1.0)
        return self._cw

    def bgloss(self, terms: Sequence[str]) -> dict[str, float]:
        # s = |D| * prod p(w|D)
        df = self._probabilities(terms, "df")
        return {
            name: summary.size * math.prod(df[name])
            for name, summary in self.summaries.items()
        }

    def cori(self, terms: Sequence[str]) -> dict[str, float]:
        # s = sum_w (0.4 + 0.6 T I) / |q|, T = df / (df + 50 + 150 cw/mcw),
        # I = log((m + 0.5) / cf) / log(m + 1), cf(w) = #databases with w
        df = self._probabilities(terms, "df")
        cw = self._collection_words()
        m = len(self.summaries)
        mean_cw = math.fsum(cw.values()) / m
        cf = [sum(1 for name in df if df[name][j] > 0.0) for j in range(len(terms))]
        scores = {}
        for name, summary in self.summaries.items():
            total = 0.0
            for j, p in enumerate(df[name]):
                frequency = p * summary.size
                t = frequency / (frequency + 50.0 + 150.0 * cw[name] / mean_cw)
                i = math.log((m + 0.5) / max(cf[j], 1)) / math.log(m + 1.0)
                total += 0.4 + 0.6 * t * i
            scores[name] = total / len(terms)
        return scores

    def lm(self, terms: Sequence[str]) -> dict[str, float]:
        # s = prod_w (0.5 p_tf(w|D) + 0.5 p_tf(w|G)), G the size-weighted
        # Root aggregate of every database (Equation 1).
        tf = self._probabilities(terms, "tf")
        global_p = [
            math.fsum(tf[name][j] * s.size for name, s in self.summaries.items()) / self._total_size
            for j in range(len(terms))
        ]
        return {
            name: math.prod(0.5 * p + 0.5 * g for p, g in zip(tf[name], global_p))
            for name in self.summaries
        }

    def scores(self, algorithm: str, terms: Sequence[str]) -> dict[str, float]:
        return getattr(self, algorithm)(list(terms))


def formula_problems(response: Mapping, scores: Mapping[str, float], rel_tol: float) -> list[str]:
    problems = []
    for entry in response["ranking"]:
        want = scores.get(entry["name"])
        if want is None or not math.isclose(entry["score"], want, rel_tol=rel_tol, abs_tol=0.0):
            problems.append(
                f"{response['algorithm']} score of {entry['name']} is {entry['score']!r}, "
                f"formula gives {want!r}"
            )
            break
    return problems
