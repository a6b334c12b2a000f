"""Evaluation: summary-quality metrics, selection accuracy, and the harness.

* :mod:`repro.evaluation.summary_quality` — the Section 6.1 metrics
  (weighted/unweighted recall and precision, Spearman rank correlation,
  KL divergence).
* :mod:`repro.evaluation.selection_quality` — the Rk metric of Section 6.2.
* :mod:`repro.evaluation.harness` — builds testbeds, samples databases,
  constructs every summary variant and caches the lot, so benchmarks and
  examples share one set of artifacts.
* :mod:`repro.evaluation.store` — content-addressed on-disk artifact
  cache; persists testbeds, samples, summaries, and EM weights across
  sessions.
* :mod:`repro.evaluation.parallel` — process-pool fan-out for
  per-database and per-cell work, bit-identical to the serial path.
* :mod:`repro.evaluation.instrument` — named timers and counters
  surfaced by ``repro bench``.
* :mod:`repro.evaluation.reporting` — paper-style table formatting.

The package re-exports nothing: importing any one module (the serving
stack imports :mod:`~repro.evaluation.instrument`) loads only what that
module needs, and scipy loads only inside the functions that call it.
"""
