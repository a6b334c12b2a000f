"""Content-summary quality metrics (Section 6.1).

All metrics compare an approximate summary ``A(D)`` against the perfect
summary ``S(D)``. Following the paper, the approximate summary's word set
``W_A`` is filtered by the word-drop rule first: a word counts as present
only when ``round(|D| * p(w|D)) >= 1`` ("we drop from the shrunk content
summaries every word estimated to appear in less than one document", so
recall is not inflated and precision not deflated artificially).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from repro.summaries.summary import ContentSummary


def _word_sets(
    approx: ContentSummary, exact: ContentSummary
) -> tuple[set[str], set[str]]:
    """(W_A, W_S) with the drop rule applied to the approximate summary."""
    return approx.effective_words(), exact.words()


def weighted_recall(approx: ContentSummary, exact: ContentSummary) -> float:
    """wr = sum_{w in WA ∩ WS} p(w|D) / sum_{w in WS} p(w|D).

    Weighted by the *true* probabilities, this is the ctf ratio of [2]:
    how much of the database's word mass the summary covers.
    """
    words_a, words_s = _word_sets(approx, exact)
    denominator = sum(exact.p(word) for word in words_s)
    if denominator == 0:
        return 0.0
    numerator = sum(exact.p(word) for word in words_a & words_s)
    return numerator / denominator


def unweighted_recall(approx: ContentSummary, exact: ContentSummary) -> float:
    """ur = |WA ∩ WS| / |WS|: fraction of database words in the summary."""
    words_a, words_s = _word_sets(approx, exact)
    if not words_s:
        return 0.0
    return len(words_a & words_s) / len(words_s)


def weighted_precision(approx: ContentSummary, exact: ContentSummary) -> float:
    """wp = sum_{w in WA ∩ WS} p̂(w|D) / sum_{w in WA} p̂(w|D).

    Weighted by the summary's *own* estimates: how much of the summary's
    probability mass lands on words that really occur in the database.
    """
    words_a, words_s = _word_sets(approx, exact)
    denominator = sum(approx.p(word) for word in words_a)
    if denominator == 0:
        return 0.0
    numerator = sum(approx.p(word) for word in words_a & words_s)
    return numerator / denominator


def unweighted_precision(approx: ContentSummary, exact: ContentSummary) -> float:
    """up = |WA ∩ WS| / |WA|: fraction of summary words that are genuine."""
    words_a, words_s = _word_sets(approx, exact)
    if not words_a:
        return 0.0
    return len(words_a & words_s) / len(words_a)


def spearman_rank_correlation(
    approx: ContentSummary, exact: ContentSummary
) -> float:
    """SRCC of the two summaries' word rankings (as in [2] / Table 8).

    Computed over the union of the two word sets: a word absent from one
    summary ranks (tied) at the bottom of that summary's ranking. This is
    what rewards shrinkage for assigning sensible ranks to the words an
    incomplete summary misses entirely — with an intersection-only
    computation, completing a summary could only ever hurt its correlation.
    1 means identical rankings, 0 uncorrelated, -1 reversed. Degenerate
    pairs (fewer than two words, constant rankings) return 0.
    """
    words_a, words_s = _word_sets(approx, exact)
    union = sorted(words_a | words_s)
    if len(union) < 2:
        return 0.0
    approx_values = [approx.p(word) if word in words_a else 0.0 for word in union]
    exact_values = [exact.p(word) if word in words_s else 0.0 for word in union]
    from scipy import stats

    with warnings.catch_warnings():
        # Constant rankings are legitimate degenerate inputs here; the NaN
        # they produce is mapped to 0 below.
        warnings.simplefilter("ignore", stats.ConstantInputWarning)
        correlation = stats.spearmanr(approx_values, exact_values).statistic
    if math.isnan(correlation):
        return 0.0
    return float(correlation)


def kl_divergence(approx: ContentSummary, exact: ContentSummary) -> float:
    """KL = sum_{w in WA ∩ WS} p(w|D) log(p(w|D) / p̂(w|D)).

    Both sides use the term-frequency regime (the LM definition of
    Section 5.3), per the Word-Frequency Accuracy paragraph of Section 6.1.
    Words whose approximate probability is zero are skipped (they would
    contribute infinity; the presence/absence aspect is already measured
    by recall).
    """
    words_a, words_s = _word_sets(approx, exact)
    divergence = 0.0
    for word in words_a & words_s:
        true_p = exact.tf_p(word)
        approx_p = approx.tf_p(word)
        if true_p > 0 and approx_p > 0:
            divergence += true_p * math.log(true_p / approx_p)
    return divergence


@dataclass(frozen=True)
class SummaryQuality:
    """All Section 6.1 metrics for one (approximate, exact) summary pair."""

    weighted_recall: float
    unweighted_recall: float
    weighted_precision: float
    unweighted_precision: float
    spearman: float
    kl: float


def evaluate_summary(
    approx: ContentSummary, exact: ContentSummary
) -> SummaryQuality:
    """Compute every quality metric for one summary pair."""
    return SummaryQuality(
        weighted_recall=weighted_recall(approx, exact),
        unweighted_recall=unweighted_recall(approx, exact),
        weighted_precision=weighted_precision(approx, exact),
        unweighted_precision=unweighted_precision(approx, exact),
        spearman=spearman_rank_correlation(approx, exact),
        kl=kl_divergence(approx, exact),
    )
