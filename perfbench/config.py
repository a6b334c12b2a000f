"""Fixed parameters of the benchmark's workloads (see README.md)."""

from __future__ import annotations

SCALE = "bench"
TREC = "trec4"
#: 2,000 databases rather than 10,000: at 10,000 the plain-only cell's
#: dense bGlOSS and LM regimes (10,000 x 30,500 float64 each) take the
#: process to 6.8 GB resident, more than a shared 7 GB host can give.
UNIVERSE = "universe-2000"

#: Words kept per database in the prepared word lists (None keeps all).
DATASET_WORD_CAPS = {TREC: None, UNIVERSE: 300}

#: Databases returned per select.
K = 10

#: Worker processes of the served pool.
POOL_WORKERS = 2

WORKLOADS = {
    "trec4-adaptive": {
        "kind": "inprocess",
        "dataset": TREC,
        "strategy": "shrinkage",
        "prune": False,
        "ranking_limit": None,
        "strategies": ("plain", "shrinkage", "universal"),
        "warmup": 30,
        "queries": 6000,
        # One set-up per run: the store load takes ~15 s, and the run
        # budget has no room for a second one.
        "setups": 1,
    },
    "universe-pruned": {
        "kind": "inprocess",
        "dataset": UNIVERSE,
        "strategy": "plain",
        "prune": True,
        "ranking_limit": K,
        "strategies": ("plain",),
        "warmup": 60,
        "queries": 60000,
        "setups": 3,
    },
    "pool-zipf-update": {
        "kind": "pool",
        "dataset": TREC,
        "population": 1536,
        "zipf": 1.1,
        "mix": (("shrinkage", 0.5), ("plain", 0.3), ("universal", 0.2)),
        "round_selects": 300,
        "warmup": 9,
        "setups": 1,
    },
}

#: Answers per run checked bit for bit against the serial reference.
REFERENCE_SAMPLE = 12
#: Plain answers per run checked against the benchmark's own formulas.
FORMULA_SAMPLE = 6
#: Relative tolerance of the formula check (summation order differs).
FORMULA_REL_TOL = 1e-9
