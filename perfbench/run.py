"""Seeded benchmark of the powersched solver.

Run from the repository root:

    python3 perfbench/run.py --workload solve-small --seed 1 --seconds 30 --trace 0

Workloads are listed in BENCHMARK.json and defined in ``corpus.py``. The
solver is imported from ``src/`` of the same checkout; without it the
command exits with status 2 and prints no result.
"""
from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def require_source() -> None:
    """Put the checkout's solver source first on the import path."""
    if not (SRC / "powersched" / "__init__.py").is_file():
        print(f"perfbench: no solver source under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


def main(argv=None) -> int:
    require_source()
    start = time.perf_counter()
    import bench  # imports the solver; its cost is part of set-up time

    return bench.main(argv, import_s=time.perf_counter() - start)


if __name__ == "__main__":
    sys.exit(main())
