"""The serial oracle (repro.selection.oracle) and the checks built on it.

The oracle is the one judge of every served answer, so it must report
every way an answer can be wrong by as little as one ulp, and the
commands that report through it must fail when it does.
"""

import copy

import numpy as np
import pytest

from repro.cli import main
from repro.selection import oracle
from repro.selection.metasearcher import Metasearcher
from repro.serving.service import SelectionService, ServiceConfig
from tests.test_columnar_equivalence import _synthetic_cell

QUERY = ["cancer000", "gen001"]


@pytest.fixture(scope="module")
def service():
    hierarchy, summaries, classifications = _synthetic_cell(shared_vocab=True)
    service = SelectionService(
        Metasearcher(hierarchy, summaries, classifications),
        ServiceConfig(scale="synthetic", request_timeout_seconds=None, default_k=5),
    )
    service.warmup()
    return service


def _verdict(service, answer, strategy="shrinkage"):
    return oracle.sweep(
        service.metasearcher, [lambda *_: answer], [QUERY], "cori", strategy, 5
    )


def _flip(answer, index):
    entry = answer["ranking"][index]
    entry["selected"] = not entry["selected"]


def _swap(answer, first, second):
    ranking = answer["ranking"]
    ranking[first], ranking[second] = ranking[second], ranking[first]


def _ulp(answer, index):
    entry = answer["ranking"][index]
    entry["score"] = float(np.nextafter(entry["score"], np.inf))


def _extra_selected(answer):
    unselected = next(e for e in answer["ranking"] if not e["selected"])
    answer["selected"] = answer["selected"] + [unselected["name"]]


class TestAnswerProblems:
    def test_served_answers_pass(self, service):
        for strategy in ("plain", "universal", "shrinkage"):
            answer = service.select(QUERY, algorithm="cori", strategy=strategy)
            assert _verdict(service, answer, strategy)["wrong"] == 0

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda answer: _ulp(answer, 0),
            lambda answer: _ulp(answer, -1),
            lambda answer: _swap(answer, 0, 1),
            lambda answer: _flip(answer, 0),
            lambda answer: _flip(answer, -1),
            _extra_selected,
        ],
        ids=["ulp-first", "ulp-last", "swap", "flag-selected", "flag-last", "extra-name"],
    )
    def test_every_mutation_is_reported(self, service, mutate):
        answer = copy.deepcopy(
            service.select(QUERY, algorithm="cori", strategy="shrinkage")
        )
        assert answer["selected"] and len(answer["selected"]) < len(answer["ranking"])
        mutate(answer)
        verdict = _verdict(service, answer)
        assert verdict["wrong"] == 1, verdict
        assert verdict["examples"][0].startswith("cori/shrinkage [cancer000 gen001]")

    def test_degraded_answer_is_checked_against_plain(self, service):
        shrinkage = service.select(QUERY, algorithm="cori", strategy="shrinkage")
        plain = service.select(QUERY, algorithm="cori", strategy="plain")
        assert shrinkage["ranking"] != plain["ranking"]
        # The plain answer marked degraded keeps its flag's promise; a
        # shrinkage answer marked degraded does not.
        assert _verdict(service, dict(plain, degraded=True))["wrong"] == 0
        assert _verdict(service, dict(shrinkage, degraded=True))["wrong"] == 1

    def test_short_ranking_is_reported(self, service):
        answer = copy.deepcopy(
            service.select(QUERY, algorithm="cori", strategy="shrinkage")
        )
        answer["ranking"] = answer["ranking"][:4]
        assert _verdict(service, answer)["wrong"] == 1
        # Unless the ranking cap explains it.
        verdict = oracle.sweep(
            service.metasearcher, [lambda *_: answer], [QUERY], "cori",
            "shrinkage", 5, limit=4,
        )
        assert verdict["wrong"] == 0

    def test_outcomes_are_checked_as_served(self, service):
        metasearcher = service.metasearcher
        for prune in (False, True):
            outcome = metasearcher.select(
                QUERY, algorithm="lm", strategy="shrinkage", k=3, prune=prune
            )
            verdict = oracle.sweep(
                metasearcher, [lambda *_: outcome], [QUERY], "lm", "shrinkage", 3
            )
            assert verdict == {"checked": 1, "wrong": 0, "examples": []}
            outcome.scores[outcome.names[0]] *= 1.0 + 2.0**-52
            verdict = oracle.sweep(
                metasearcher, [lambda *_: outcome], [QUERY], "lm", "shrinkage", 3
            )
            assert verdict["wrong"] == 1


class TestVerifyPrune:
    ARGS = [
        "verify-prune", "--dataset", "universe-24", "--scale", "small",
        "--queries", "4", "--strategies", "plain,shrinkage", "--no-cache",
    ]

    def test_passes_on_a_correct_cell(self, capsys, isolated_harness):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "verify-prune: 24 selections checked" in out
        assert " 0 mismatches" in out

    def test_fails_on_a_corrupted_pruned_answer(
        self, capsys, isolated_harness, monkeypatch
    ):
        select = Metasearcher.select

        def corrupt(self, *args, **kwargs):
            outcome = select(self, *args, **kwargs)
            if kwargs.get("prune") and outcome.names:
                name = outcome.names[0]
                outcome.scores[name] = float(
                    np.nextafter(outcome.scores[name], np.inf)
                )
            return outcome

        monkeypatch.setattr(Metasearcher, "select", corrupt)
        assert main(self.ARGS) == 1
        out = capsys.readouterr().out
        assert "MISMATCH" in out
        assert " 0 mismatches" not in out

    def test_fails_past_the_scored_fraction(self, capsys, isolated_harness):
        assert main(self.ARGS + ["--max-scored-fraction", "0"]) == 1
        out = capsys.readouterr().out
        assert " 0 mismatches" in out
        assert "FAILED, exceeds target 0.000" in out
