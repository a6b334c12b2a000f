"""Experiment harness: one-stop construction and caching of artifacts.

The paper's evaluation is a matrix: {TREC4, TREC6, Web} x {QBS, FPS} x
{frequency estimation on/off} x {plain, shrunk} summaries, plus selection
experiments over {bGlOSS, CORI, LM} x {Plain, Hierarchical, Shrinkage,
Universal}. Building a cell of this matrix is expensive (corpus synthesis,
sampling, EM), so the harness caches every layer:

* testbeds per (dataset, scale),
* document samples and classifications per (dataset, scale, sampler),
* summary sets per cell (frequency estimation applied on top of samples),
* shrunk summaries (EM mixture weights) per cell,
* exact summaries per testbed.

Two cache tiers back those layers. The in-memory tier (module-level dicts)
serves repeat lookups within one interpreter. The optional on-disk tier —
an :class:`~repro.evaluation.store.ArtifactStore` configured via
:func:`configure` — persists testbeds, samples, summary sets, and EM
weights across interpreter sessions, keyed by a content fingerprint of the
full producing configuration, so repeat benchmark runs skip corpus
synthesis and sampling entirely.

:func:`configure` also sets a worker count; with ``jobs > 1`` the
per-database sampling/shrinkage loops fan out over a process pool (see
:mod:`repro.evaluation.parallel`) with deterministic per-task seeding, so
parallel results are bit-identical to the serial path.

``scale`` profiles keep everything laptop-sized: "small" for unit tests,
"bench" for the benchmark suite, "paper" for the original dimensions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from collections.abc import Mapping, MutableMapping, Sequence

import numpy as np

from repro.classify.prober import ProbeClassifier
from repro.classify.rules import ProbeRuleSet, build_probe_rules
from repro.core.shrinkage import ShrinkageConfig
from repro.core.vocab import Vocabulary
from repro.corpus.hierarchy import default_hierarchy
from repro.corpus.language_model import CorpusModel, CorpusModelConfig
from repro.corpus.queries import QueryWorkload, RelevanceJudgments, generate_workload
from repro.corpus.testbeds import (
    Testbed,
    build_summary_universe,
    build_trec_style_testbed,
    build_web_style_testbed,
)
from repro.evaluation import store as store_mod
from repro.evaluation.instrument import (
    count,
    get_collector,
    get_instrumentation,
    span,
    uninstall_collector,
)
from repro.evaluation.selection_quality import mean_rk_curve, rk_curve
from repro.evaluation.store import ArtifactStore, fingerprint
from repro.evaluation.summary_quality import SummaryQuality, evaluate_summary
from repro.selection.metasearcher import Metasearcher, SelectionStrategy
from repro.summaries.focused import FPSConfig, FPSSampler
from repro.summaries.frequency import build_estimated_summary, build_raw_summary
from repro.summaries.sampling import DocumentSample, QBSConfig, QBSSampler
from repro.summaries.size import sample_resample_size
from repro.summaries.summary import ContentSummary, SampledSummary, build_exact_summary

DATASETS = ("trec4", "trec6", "web")
SAMPLERS = ("qbs", "fps")

#: Summary-only large-universe datasets are named ``universe-<N>`` with
#: ``N`` the database count (e.g. ``universe-10000``); see
#: :func:`repro.corpus.testbeds.build_summary_universe`.
UNIVERSE_PREFIX = "universe-"

#: Seed stream for universe synthesis (per-database streams derive from it).
UNIVERSE_SEED = 97


def universe_size(dataset: str) -> int | None:
    """The database count of a ``universe-<N>`` dataset name, else None."""
    if not dataset.startswith(UNIVERSE_PREFIX):
        return None
    try:
        count = int(dataset[len(UNIVERSE_PREFIX):])
    except ValueError:
        return None
    return count if count > 0 else None


@dataclass(frozen=True)
class ScaleProfile:
    """All size knobs for one scale of the experimental matrix."""

    corpus_config: CorpusModelConfig
    trec_databases: int
    trec_size_range: tuple[int, int]
    trec_num_leaves: int | None
    web_databases_per_leaf: int
    web_extra_databases: int
    web_size_range: tuple[int, int]
    web_num_leaves: int | None
    qbs: QBSConfig
    fps_probes_per_category: int
    fps_docs_per_probe: int
    fps_max_sample_docs: int
    num_queries: int
    doc_length_median: float = 110.0
    seed_vocabulary_size: int = 600


_SMALL_CORPUS = CorpusModelConfig(
    general_vocab_size=600,
    node_vocab_sizes={1: 150, 2: 120, 3: 100},
)

SCALES: dict[str, ScaleProfile] = {
    "small": ScaleProfile(
        corpus_config=_SMALL_CORPUS,
        trec_databases=10,
        trec_size_range=(300, 900),
        trec_num_leaves=5,
        web_databases_per_leaf=2,
        web_extra_databases=2,
        web_size_range=(80, 1200),
        web_num_leaves=7,
        qbs=QBSConfig(max_sample_docs=60, give_up_after=60, max_queries=600),
        fps_probes_per_category=5,
        fps_docs_per_probe=2,
        fps_max_sample_docs=80,
        num_queries=12,
        doc_length_median=80.0,
    ),
    "bench": ScaleProfile(
        corpus_config=CorpusModelConfig(),
        trec_databases=36,
        trec_size_range=(1200, 6000),
        trec_num_leaves=9,
        web_databases_per_leaf=2,
        web_extra_databases=6,
        web_size_range=(150, 12000),
        web_num_leaves=27,
        qbs=QBSConfig(max_sample_docs=80, give_up_after=150, max_queries=1500),
        fps_probes_per_category=8,
        fps_docs_per_probe=2,
        fps_max_sample_docs=140,
        num_queries=50,
        doc_length_median=70.0,
    ),
    "paper": ScaleProfile(
        corpus_config=CorpusModelConfig(),
        trec_databases=100,
        trec_size_range=(1000, 8000),
        trec_num_leaves=None,
        web_databases_per_leaf=5,
        web_extra_databases=45,
        web_size_range=(100, 376000),
        web_num_leaves=None,
        qbs=QBSConfig(),
        fps_probes_per_category=10,
        fps_docs_per_probe=4,
        fps_max_sample_docs=400,
        num_queries=50,
    ),
}

#: Testbed-builder seeds per dataset (part of every cache fingerprint).
TESTBED_SEEDS = {"trec4": 41, "trec6": 61, "web": 7}

#: Seed streams for the per-database RNGs; the per-task seed is
#: ``[stream, database_index]``, which is what makes the parallel fan-out
#: bit-identical to the serial loop.
QBS_SEED_STREAM = 1009
SIZE_SEED_STREAM = 2003


@dataclass
class ExperimentCell:
    """One (dataset, sampler, frequency-estimation) cell of the matrix."""

    dataset: str
    sampler: str
    frequency_estimation: bool
    scale: str
    testbed: Testbed
    summaries: dict[str, SampledSummary]
    classifications: dict[str, tuple[str, ...]]
    exact_summaries: dict[str, ContentSummary]
    metasearcher: Metasearcher = field(repr=False, default=None)

    def __post_init__(self) -> None:
        if self.metasearcher is None:
            self.metasearcher = Metasearcher(
                self.testbed.hierarchy, self.summaries, self.classifications
            )


# -- runtime configuration (artifact store + parallelism) -------------------------


@dataclass
class HarnessConfig:
    """Process-wide harness knobs set via :func:`configure`."""

    store: ArtifactStore | None = None
    jobs: int = 1


_CONFIG = HarnessConfig()
_UNSET = object()


def configure(cache_dir=_UNSET, jobs: int | None = None) -> HarnessConfig:
    """Set the harness's on-disk artifact store and worker count.

    ``cache_dir`` accepts a path (the store root), an
    :class:`ArtifactStore`, or ``None``/``False``/``""`` to disable disk
    caching; leave it out to keep the current store. ``jobs`` > 1 fans
    per-database sampling and shrinkage out over a process pool.
    Both settings revert to their defaults on :func:`clear_caches`.
    """
    if cache_dir is not _UNSET:
        if cache_dir in (None, False, ""):
            _CONFIG.store = None
        elif isinstance(cache_dir, ArtifactStore):
            _CONFIG.store = cache_dir
        else:
            _CONFIG.store = ArtifactStore(cache_dir)
    if jobs is not None:
        _CONFIG.jobs = max(int(jobs), 1)
    return _CONFIG


def get_config() -> HarnessConfig:
    """The live harness configuration."""
    return _CONFIG


# -- caches ---------------------------------------------------------------------

_TESTBEDS: dict[tuple, Testbed] = {}
_EXACT: dict[tuple, dict[str, ContentSummary]] = {}
_SAMPLES: dict[tuple, tuple[dict[str, DocumentSample], dict[str, tuple[str, ...]], dict[str, float]]] = {}
_CELLS: dict[tuple, ExperimentCell] = {}
_WORKLOADS: dict[tuple, QueryWorkload] = {}
_JUDGMENTS: dict[tuple, RelevanceJudgments] = {}
_RULES: dict[tuple, ProbeRuleSet] = {}

#: Caches owned by other modules (e.g. the benchmark suite) that must be
#: dropped together with the harness's own; registered via
#: :func:`register_external_cache` so ``clear_caches`` cannot silently
#: miss cross-layer state.
_EXTERNAL_CACHES: list[MutableMapping] = []


def register_external_cache(cache: MutableMapping) -> MutableMapping:
    """Register a cache owned elsewhere for clearing by :func:`clear_caches`."""
    _EXTERNAL_CACHES.append(cache)
    return cache


def memory_caches() -> tuple[MutableMapping, ...]:
    """The harness's in-memory caches plus registered external ones."""
    return (
        _TESTBEDS, _EXACT, _SAMPLES, _CELLS, _WORKLOADS, _JUDGMENTS, _RULES,
        *_EXTERNAL_CACHES,
    )


def clear_caches() -> None:
    """Drop every cached artifact and reset harness state (mainly for tests).

    Besides the in-memory artifact caches this also clears registered
    external caches, zeroes the instrumentation counters/timers, removes
    any installed trace collector, and reverts :func:`configure` to its
    defaults (no store, one job) — so no state set up by one test can
    leak into the next.
    """
    for cache in memory_caches():
        cache.clear()
    get_instrumentation().reset()
    uninstall_collector()
    _CONFIG.store = None
    _CONFIG.jobs = 1


# -- cache fingerprints -----------------------------------------------------------


def _testbed_config(dataset: str, scale: str) -> dict:
    """Everything the testbed artifact depends on, for fingerprinting."""
    profile = SCALES[scale]
    num_universe = universe_size(dataset)
    config: dict = {
        "artifact": "testbed",
        "pipeline": store_mod.PIPELINE_VERSION,
        "dataset": dataset,
        "seed": UNIVERSE_SEED if num_universe else TESTBED_SEEDS[dataset],
        "corpus": profile.corpus_config,
        "doc_length_median": profile.doc_length_median,
    }
    if num_universe:
        config["universe"] = {"databases": num_universe}
    elif dataset == "web":
        config["web"] = {
            "databases_per_leaf": profile.web_databases_per_leaf,
            "extra_databases": profile.web_extra_databases,
            "size_range": profile.web_size_range,
            "num_leaves": profile.web_num_leaves,
        }
    else:
        config["trec"] = {
            "databases": profile.trec_databases,
            "size_range": profile.trec_size_range,
            "num_leaves": profile.trec_num_leaves,
        }
    return config


def _samples_config(dataset: str, sampler: str, scale: str) -> dict:
    """Everything the samples artifact depends on, for fingerprinting."""
    profile = SCALES[scale]
    config = {
        "artifact": "samples",
        "testbed": _testbed_config(dataset, scale),
        "sampler": sampler,
        "seed_streams": [QBS_SEED_STREAM, SIZE_SEED_STREAM],
        "probes_per_category": profile.fps_probes_per_category,
    }
    if sampler == "qbs":
        config["qbs"] = profile.qbs
        config["seed_vocabulary_size"] = profile.seed_vocabulary_size
    else:
        config["fps"] = {
            "docs_per_probe": profile.fps_docs_per_probe,
            "max_sample_docs": profile.fps_max_sample_docs,
        }
    return config


def _summaries_config(
    dataset: str, sampler: str, frequency_estimation: bool, scale: str
) -> dict:
    """Everything the summary-set artifact depends on."""
    return {
        "artifact": "summaries",
        "samples": _samples_config(dataset, sampler, scale),
        "frequency_estimation": frequency_estimation,
    }


def _shrunk_config(
    dataset: str, sampler: str, frequency_estimation: bool, scale: str
) -> dict:
    """Everything the shrunk-summaries (EM weights) artifact depends on."""
    return {
        "artifact": "shrunk",
        "summaries": _summaries_config(
            dataset, sampler, frequency_estimation, scale
        ),
        "shrinkage": ShrinkageConfig(),
    }


def lifecycle_base_config(
    dataset: str,
    sampler: str = "qbs",
    frequency_estimation: bool = False,
    scale: str = "bench",
) -> dict:
    """The base-cell configuration lifecycle artifacts are keyed under.

    A serving-time update journal applied to this cell is persisted under
    ``fingerprint({"artifact": "lifecycle", "base": <this>, "journal": ...})``
    — the same envelope as the cell's shrunk artifact, so invalidating
    the base cell invalidates every journal built on it.
    """
    return _shrunk_config(dataset, sampler, frequency_estimation, scale)


def cache_keys(
    dataset: str,
    sampler: str = "qbs",
    frequency_estimation: bool = False,
    scale: str = "bench",
) -> dict[str, str]:
    """The store fingerprints of every artifact behind one matrix cell."""
    return {
        "testbed": fingerprint(_testbed_config(dataset, scale)),
        "samples": fingerprint(_samples_config(dataset, sampler, scale)),
        "summaries": fingerprint(
            _summaries_config(dataset, sampler, frequency_estimation, scale)
        ),
        "shrunk": fingerprint(
            _shrunk_config(dataset, sampler, frequency_estimation, scale)
        ),
    }


# -- artifact construction ---------------------------------------------------------


def _build_testbed(dataset: str, scale: str) -> Testbed:
    """Synthesize a testbed from scratch (no caches consulted)."""
    profile = SCALES[scale]
    if dataset == "web":
        return build_web_style_testbed(
            name="web",
            databases_per_leaf=profile.web_databases_per_leaf,
            extra_databases=profile.web_extra_databases,
            size_range=profile.web_size_range,
            seed=TESTBED_SEEDS[dataset],
            num_leaves=profile.web_num_leaves,
            doc_length_median=profile.doc_length_median,
            config=profile.corpus_config,
        )
    return build_trec_style_testbed(
        name=dataset,
        num_databases=profile.trec_databases,
        size_range=profile.trec_size_range,
        seed=TESTBED_SEEDS[dataset],
        num_leaves=profile.trec_num_leaves,
        doc_length_median=profile.doc_length_median,
        config=profile.corpus_config,
    )


def get_testbed(dataset: str, scale: str = "bench") -> Testbed:
    """The (cached) testbed for a dataset at the given scale."""
    if universe_size(dataset) is not None:
        # Universe testbeds carry no documents; the cell synthesizes its
        # summaries directly (see get_cell), so only the hierarchy and
        # corpus model exist here. Nothing worth persisting.
        key = (dataset, scale)
        if key not in _TESTBEDS:
            profile = SCALES[scale]
            hierarchy = default_hierarchy()
            corpus_model = CorpusModel(hierarchy, profile.corpus_config)
            _TESTBEDS[key] = Testbed(dataset, hierarchy, corpus_model, [])
        return _TESTBEDS[key]
    if dataset not in DATASETS:
        raise ValueError(
            f"dataset must be one of {DATASETS} or 'universe-<N>'"
        )
    profile = SCALES[scale]
    key = (dataset, scale)
    if key in _TESTBEDS:
        return _TESTBEDS[key]

    store = _CONFIG.store
    config = _testbed_config(dataset, scale)
    store_key = fingerprint(config) if store else None
    if store:
        databases = store.load_artifact(
            "testbed", store_key, store_mod.testbed_databases_from_payload
        )
        if databases is not None:
            # Hierarchy and corpus model are deterministic functions of the
            # configuration; only the synthesized documents are persisted.
            hierarchy = default_hierarchy()
            corpus_model = CorpusModel(hierarchy, profile.corpus_config)
            name = "web" if dataset == "web" else dataset
            _TESTBEDS[key] = Testbed(name, hierarchy, corpus_model, databases)
            return _TESTBEDS[key]

    with span("testbed.build", dataset=dataset, scale=scale):
        testbed = _build_testbed(dataset, scale)
    count("testbed.synthesized")
    count("testbed.documents", testbed.total_documents)
    _TESTBEDS[key] = testbed
    if store:
        store.save(
            "testbed",
            store_key,
            store_mod.testbed_databases_to_payload(testbed.databases),
            config=config,
        )
    return testbed


def get_exact_summaries(
    dataset: str, scale: str = "bench"
) -> dict[str, ContentSummary]:
    """Ground-truth S(D) for every database of a testbed (cached).

    All exact summaries of one testbed share a single :class:`Vocabulary`
    instance, which keeps downstream comparisons and scoring columnar.
    """
    key = (dataset, scale)
    if key not in _EXACT:
        testbed = get_testbed(dataset, scale)
        vocab = Vocabulary()
        _EXACT[key] = {
            db.name: build_exact_summary(db, vocab=vocab)
            for db in testbed.databases
        }
    return _EXACT[key]


def get_probe_rules(dataset: str, scale: str = "bench") -> ProbeRuleSet:
    """Probe rules over the testbed's corpus model (cached)."""
    key = (dataset, scale)
    if key not in _RULES:
        profile = SCALES[scale]
        testbed = get_testbed(dataset, scale)
        _RULES[key] = build_probe_rules(
            testbed.corpus_model,
            probes_per_category=profile.fps_probes_per_category,
        )
    return _RULES[key]


def sample_one_database(
    dataset: str, sampler: str, scale: str, index: int
) -> tuple[str, DocumentSample, tuple[str, ...], float]:
    """Sample, classify, and size-estimate database ``index`` of a testbed.

    Deterministic given its arguments: the per-database RNGs are seeded
    ``[stream, index]``, and the samplers/classifiers are stateless across
    databases. This is the unit of work the parallel executor fans out;
    the serial loop in :func:`_collect_samples` calls the same function,
    which is what makes the two paths bit-identical.
    """
    if sampler not in SAMPLERS:
        raise ValueError(f"sampler must be one of {SAMPLERS}")
    profile = SCALES[scale]
    testbed = get_testbed(dataset, scale)
    db = testbed.databases[index]
    rules = get_probe_rules(dataset, scale)

    if sampler == "qbs":
        qbs = QBSSampler(profile.qbs)
        seed_vocabulary = testbed.corpus_model.general_words(
            profile.seed_vocabulary_size
        )
        rng = np.random.default_rng([QBS_SEED_STREAM, index])
        sample = qbs.sample(db.engine, rng, seed_vocabulary)
        if dataset == "web":
            classification = db.category
        else:
            classifier = ProbeClassifier(rules)
            classification = classifier.classify(db.engine).path
    else:
        fps = FPSSampler(
            rules,
            FPSConfig(
                docs_per_probe=profile.fps_docs_per_probe,
                max_sample_docs=profile.fps_max_sample_docs,
            ),
        )
        result = fps.sample(db.engine)
        sample = result.sample
        classification = result.classification

    rng = np.random.default_rng([SIZE_SEED_STREAM, index])
    size = sample_resample_size(sample, db.engine, rng)

    count("sample.databases")
    count("sample.documents", sample.size)
    count("sample.queries", sample.num_queries)
    instrumentation = get_instrumentation()
    instrumentation.observe("sample.size", sample.size)
    instrumentation.observe("sample.queries", sample.num_queries)
    return db.name, sample, classification, size


def _collect_samples(
    dataset: str, sampler: str, scale: str
) -> tuple[
    dict[str, DocumentSample],
    dict[str, tuple[str, ...]],
    dict[str, float],
]:
    """Sample every database once; classify; estimate sizes (all cached).

    Classification source follows Section 5.2: Web + QBS uses the "given"
    directory categories; TREC + QBS uses the probe classifier of [14];
    FPS always uses the classification it derives while sampling.
    """
    if sampler not in SAMPLERS:
        raise ValueError(f"sampler must be one of {SAMPLERS}")
    key = (dataset, sampler, scale)
    if key in _SAMPLES:
        return _SAMPLES[key]

    store = _CONFIG.store
    config = _samples_config(dataset, sampler, scale)
    store_key = fingerprint(config) if store else None
    if store:
        loaded = store.load_artifact(
            "samples", store_key, store_mod.samples_from_payload
        )
        if loaded is not None:
            _SAMPLES[key] = loaded
            return loaded

    testbed = get_testbed(dataset, scale)
    samples: dict[str, DocumentSample] = {}
    classifications: dict[str, tuple[str, ...]] = {}
    sizes: dict[str, float] = {}

    with span(
        "sample.collect",
        dataset=dataset,
        sampler=sampler,
        scale=scale,
        databases=len(testbed.databases),
        jobs=_CONFIG.jobs,
    ):
        if _CONFIG.jobs > 1:
            from repro.evaluation import parallel as parallel_mod

            results = parallel_mod.sample_databases_parallel(
                dataset, sampler, scale, len(testbed.databases),
                jobs=_CONFIG.jobs,
            )
        else:
            get_probe_rules(dataset, scale)  # build once, outside the loop
            results = [
                sample_one_database(dataset, sampler, scale, index)
                for index in range(len(testbed.databases))
            ]

    # Insertion order must match testbed.databases: downstream aggregation
    # (category summaries) folds floats in dict order, and bit-identical
    # serial/parallel results depend on identical fold order.
    for name, sample, classification, size in results:
        samples[name] = sample
        classifications[name] = classification
        sizes[name] = size

    _SAMPLES[key] = (samples, classifications, sizes)
    if store:
        store.save(
            "samples",
            store_key,
            store_mod.samples_to_payload(samples, classifications, sizes),
            config=config,
        )
    return _SAMPLES[key]


def _build_summaries(
    samples: Mapping[str, DocumentSample],
    sizes: Mapping[str, float],
    frequency_estimation: bool,
) -> dict[str, SampledSummary]:
    """Per-database summaries from samples (Appendix A optional).

    One :class:`Vocabulary` instance is shared by the whole summary set.
    Construction order is deterministic (samples iterate in testbed
    order), so the interned id space — and hence every downstream array —
    is identical between serial and parallel runs.
    """
    summaries: dict[str, SampledSummary] = {}
    vocab = Vocabulary()
    with span(
        "summaries.build",
        frequency_estimation=frequency_estimation,
        databases=len(samples),
    ):
        for name, sample in samples.items():
            if frequency_estimation:
                summaries[name] = build_estimated_summary(
                    sample, sizes[name], vocab=vocab
                )
            else:
                summaries[name] = build_raw_summary(
                    sample, sizes[name], vocab=vocab
                )
    return summaries


def get_cell(
    dataset: str,
    sampler: str = "qbs",
    frequency_estimation: bool = False,
    scale: str = "bench",
) -> ExperimentCell:
    """Build (or fetch) one cell of the experimental matrix."""
    key = (dataset, sampler, frequency_estimation, scale)
    if key in _CELLS:
        return _CELLS[key]

    num_universe = universe_size(dataset)
    if num_universe is not None:
        # Summary-only universe: synthesis is vectorized and cheaper than
        # any (de)serialization of 10k+ summaries, so the cell is rebuilt
        # per process instead of persisted. Sampler/frequency-estimation
        # knobs do not apply (there is no document sample).
        testbed = get_testbed(dataset, scale)
        profile = SCALES[scale]
        with span("universe.synthesize", databases=num_universe):
            _testbed, summaries, classifications = build_summary_universe(
                name=dataset,
                num_databases=num_universe,
                seed=UNIVERSE_SEED,
                doc_length_median=profile.doc_length_median,
                hierarchy=testbed.hierarchy,
                config=profile.corpus_config,
            )
        count("universe.synthesized", num_universe)
        cell = ExperimentCell(
            dataset=dataset,
            sampler=sampler,
            frequency_estimation=frequency_estimation,
            scale=scale,
            testbed=testbed,
            summaries=summaries,
            classifications=classifications,
            exact_summaries={},
        )
        _CELLS[key] = cell
        return cell

    testbed = get_testbed(dataset, scale)
    store = _CONFIG.store

    summaries: dict[str, SampledSummary] | None = None
    classifications: dict[str, tuple[str, ...]] | None = None
    summaries_key = None
    if store:
        summaries_config = _summaries_config(
            dataset, sampler, frequency_estimation, scale
        )
        summaries_key = fingerprint(summaries_config)
        loaded = store.load_artifact(
            "summaries", summaries_key, store_mod.summaries_from_payload
        )
        if loaded is not None:
            summaries, classifications = loaded

    if summaries is None:
        samples, classifications, sizes = _collect_samples(
            dataset, sampler, scale
        )
        summaries = _build_summaries(samples, sizes, frequency_estimation)
        if store:
            store.save(
                "summaries",
                summaries_key,
                store_mod.summaries_to_payload(summaries, classifications),
                config=summaries_config,
            )

    cell = ExperimentCell(
        dataset=dataset,
        sampler=sampler,
        frequency_estimation=frequency_estimation,
        scale=scale,
        testbed=testbed,
        summaries=summaries,
        classifications=classifications,
        exact_summaries=get_exact_summaries(dataset, scale),
    )
    if store:
        shrunk = store.load_artifact(
            "shrunk",
            fingerprint(
                _shrunk_config(dataset, sampler, frequency_estimation, scale)
            ),
            store_mod.shrunk_from_payload,
        )
        if shrunk is not None and set(shrunk) == set(summaries):
            cell.metasearcher.set_shrunk_summaries(shrunk)
    _CELLS[key] = cell
    return cell


def ensure_shrunk(cell: ExperimentCell):
    """Materialize the cell's shrunk summaries R(D), store- and jobs-aware.

    The metasearcher computes R(D) lazily on first use; this routes that
    computation through the artifact store (EM weights persist across
    sessions) and, with ``jobs > 1``, fans the per-database EM out over
    the process pool. Always safe to call; returns the shrunk summaries.
    """
    metasearcher = cell.metasearcher
    if metasearcher.has_shrunk_summaries():
        return metasearcher.shrunk_summaries

    store = _CONFIG.store
    config = _shrunk_config(
        cell.dataset, cell.sampler, cell.frequency_estimation, cell.scale
    )
    store_key = fingerprint(config) if store else None
    if store:
        shrunk = store.load_artifact(
            "shrunk", store_key, store_mod.shrunk_from_payload
        )
        if shrunk is not None and set(shrunk) == set(cell.summaries):
            metasearcher.set_shrunk_summaries(shrunk)
            return metasearcher.shrunk_summaries

    with span(
        "shrinkage.em",
        dataset=cell.dataset,
        sampler=cell.sampler,
        frequency_estimation=cell.frequency_estimation,
        scale=cell.scale,
        jobs=_CONFIG.jobs,
    ):
        if _CONFIG.jobs > 1:
            from repro.evaluation import parallel as parallel_mod

            shrunk = parallel_mod.shrink_cell_parallel(
                cell.dataset,
                cell.sampler,
                cell.frequency_estimation,
                cell.scale,
                jobs=_CONFIG.jobs,
            )
            metasearcher.set_shrunk_summaries(shrunk)
        else:
            shrunk = metasearcher.shrunk_summaries
    if store:
        store.save(
            "shrunk", store_key, store_mod.shrunk_to_payload(shrunk),
            config=config,
        )
    return metasearcher.shrunk_summaries


# -- workloads -------------------------------------------------------------------

_WORKLOAD_KIND = {"trec4": "long", "trec6": "short", "web": "short"}


def get_workload(dataset: str, scale: str = "bench") -> QueryWorkload:
    """The dataset's query workload (long for TREC4, short for TREC6)."""
    key = (dataset, scale)
    if key not in _WORKLOADS:
        profile = SCALES[scale]
        testbed = get_testbed(dataset, scale)
        _WORKLOADS[key] = generate_workload(
            testbed,
            kind=_WORKLOAD_KIND[dataset],
            num_queries=profile.num_queries,
            seed=555 if dataset != "trec6" else 777,
        )
    return _WORKLOADS[key]


def get_judgments(dataset: str, scale: str = "bench") -> RelevanceJudgments:
    """Relevance judgments for the dataset's workload (cached)."""
    key = (dataset, scale)
    if key not in _JUDGMENTS:
        _JUDGMENTS[key] = RelevanceJudgments.build(
            get_testbed(dataset, scale), get_workload(dataset, scale)
        )
    return _JUDGMENTS[key]


# -- experiment runners ------------------------------------------------------------


def summary_quality(cell: ExperimentCell, shrinkage: bool) -> SummaryQuality:
    """Mean Section 6.1 metrics across the cell's databases."""
    if shrinkage:
        ensure_shrunk(cell)
    metrics: list[SummaryQuality] = []
    for name, exact in cell.exact_summaries.items():
        if shrinkage:
            approx = cell.metasearcher.shrunk_summaries[name]
        else:
            approx = cell.summaries[name]
        metrics.append(evaluate_summary(approx, exact))
    total = len(metrics)
    return SummaryQuality(
        weighted_recall=sum(m.weighted_recall for m in metrics) / total,
        unweighted_recall=sum(m.unweighted_recall for m in metrics) / total,
        weighted_precision=sum(m.weighted_precision for m in metrics) / total,
        unweighted_precision=sum(m.unweighted_precision for m in metrics) / total,
        spearman=sum(m.spearman for m in metrics) / total,
        kl=sum(m.kl for m in metrics) / total,
    )


def rk_curves_per_query(
    cell: ExperimentCell,
    algorithm: str,
    strategy: SelectionStrategy | str,
    k_max: int = 20,
    queries: Sequence | None = None,
) -> list[np.ndarray]:
    """Per-query Rk curves (k = 1..k_max) over the cell's workload."""
    if SelectionStrategy(strategy) in (
        SelectionStrategy.SHRINKAGE, SelectionStrategy.UNIVERSAL
    ):
        ensure_shrunk(cell)
    workload = queries if queries is not None else get_workload(cell.dataset, cell.scale)
    judgments = get_judgments(cell.dataset, cell.scale)
    instrumentation = get_instrumentation()
    curves = []
    with span(
        "evaluate.rk",
        dataset=cell.dataset,
        algorithm=algorithm,
        strategy=str(SelectionStrategy(strategy).value),
        k_max=k_max,
    ):
        collector = get_collector()
        for query in workload:
            query_start = time.perf_counter()
            outcome = cell.metasearcher.select(
                list(query.terms), algorithm=algorithm, strategy=strategy, k=k_max
            )
            elapsed = time.perf_counter() - query_start
            instrumentation.observe("select.query_seconds", elapsed)
            if collector is not None:
                collector.leaf(
                    "select.query",
                    elapsed,
                    {
                        "qid": query.qid,
                        "algorithm": algorithm,
                        "selected": len(outcome.names),
                    },
                )
            curves.append(
                rk_curve(outcome.names, judgments.per_database(query.qid), k_max)
            )
    return curves


def rk_experiment(
    cell: ExperimentCell,
    algorithm: str,
    strategy: SelectionStrategy | str,
    k_max: int = 20,
    queries: Sequence | None = None,
) -> np.ndarray:
    """Mean Rk curve (k = 1..k_max) over the cell's query workload."""
    return mean_rk_curve(
        rk_curves_per_query(cell, algorithm, strategy, k_max, queries)
    )


def rk_significance(
    cell: ExperimentCell,
    algorithm: str,
    strategy_a: SelectionStrategy | str,
    strategy_b: SelectionStrategy | str,
    k_max: int = 20,
):
    """Paired t-test between two strategies' per-query mean Rk values.

    This is the paper's significance methodology for Section 6.2 ("a
    paired t-test shows that QBS-Shrinkage improves ... p < 0.05"): each
    query contributes its Rk averaged over k as one paired observation.
    """
    from repro.evaluation.stats import paired_t_test

    with np.errstate(invalid="ignore"):
        a = [
            float(np.nanmean(curve))
            for curve in rk_curves_per_query(cell, algorithm, strategy_a, k_max)
        ]
        b = [
            float(np.nanmean(curve))
            for curve in rk_curves_per_query(cell, algorithm, strategy_b, k_max)
        ]
    return paired_t_test(a, b)


def shrinkage_application_rate(
    cell: ExperimentCell, algorithm: str
) -> float:
    """Fraction of (query, database) pairs where shrinkage was applied (Table 10)."""
    ensure_shrunk(cell)
    workload = get_workload(cell.dataset, cell.scale)
    applications = 0
    pairs = 0
    for query in workload:
        outcome = cell.metasearcher.select(
            list(query.terms),
            algorithm=algorithm,
            strategy=SelectionStrategy.SHRINKAGE,
            k=len(cell.summaries),
        )
        applications += outcome.shrinkage_applications
        pairs += len(cell.summaries)
    return applications / pairs if pairs else 0.0
