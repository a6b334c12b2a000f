"""Build the benchmark's prepared inputs with the code being measured.

Run as ``python3 perfbench/prepare.py OUT_DIR`` (``run.py`` does this,
untimed, whenever the prepared directory for the current source digest is
missing). It writes:

* ``OUT_DIR/store`` -- the artifact store of the trec4/bench cell
  (testbed, samples, summaries and EM-shrunk summaries), which every run
  copies afresh before loading it;
* ``OUT_DIR/words-<dataset>.json.gz`` -- each database's sampled-summary
  words with their document-frequency probabilities, and the cell's whole
  vocabulary, from which queries are generated.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from config import DATASET_WORD_CAPS, SCALE  # noqa: E402
from queries import save_words  # noqa: E402


def word_list(summaries, cap: int | None) -> dict:
    import numpy as np

    vocab = next(iter(summaries.values())).vocab
    databases = []
    for name, summary in summaries.items():
        ids, values = summary.regime_arrays("df", vocab)
        # Most frequent first; ties in vocabulary-id order.
        order = np.lexsort((ids, -values))
        if cap is not None:
            order = order[:cap]
        words = vocab.words_of(ids[order].tolist())
        databases.append([name, [[w, p] for w, p in zip(words, values[order].tolist())]])
    return {"databases": databases, "vocabulary": sorted(vocab.words_of(range(len(vocab))))}


def main(out_dir: str) -> int:
    from repro.evaluation import harness

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for dataset, cap in DATASET_WORD_CAPS.items():
        start = time.perf_counter()
        if harness.universe_size(dataset) is None:
            harness.configure(cache_dir=out / "store")
            cell = harness.get_cell(dataset, "qbs", False, SCALE)
            harness.ensure_shrunk(cell)
        else:
            harness.configure(cache_dir=False)
            cell = harness.get_cell(dataset, "qbs", False, SCALE)
        save_words(out / f"words-{dataset}.json.gz", word_list(cell.summaries, cap))
        print(
            f"prepare: {dataset} in {time.perf_counter() - start:.1f} s",
            flush=True,
        )
        harness.clear_caches()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
