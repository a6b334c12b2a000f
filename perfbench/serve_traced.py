"""``repro serve`` with the benchmark's span wrappers installed.

Used only by the traced run of ``pool-zipf-update``:
``python3 perfbench/serve_traced.py serve ...`` takes the arguments of
``python3 -m repro``. Every server process -- the dispatcher and each
forked worker -- writes its spans to
``$PERFBENCH_TRACE_DIR/spans-<pid>.json`` as it exits.
"""

from __future__ import annotations

import atexit
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402


def main() -> int:
    out_dir = Path(os.environ["PERFBENCH_TRACE_DIR"])
    tracer = tracing.instrument(tracing.Tracer())

    def dump() -> None:
        tracer.dump(out_dir / f"spans-{os.getpid()}.json")

    # Workers are forked from the dispatcher: they start with no spans of
    # their own and leave through os._exit, which skips atexit.
    os.register_at_fork(after_in_child=tracer.forget)
    real_exit = os._exit

    def exit_with_dump(code: int) -> None:
        try:
            dump()
        finally:
            real_exit(code)

    os._exit = exit_with_dump
    atexit.register(dump)

    from repro.cli import main as repro_main

    return repro_main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
