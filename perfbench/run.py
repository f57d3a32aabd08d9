"""Entry point of the blockecho benchmark (the harness is bench.py).

    python3 perfbench/run.py --workload gan-block --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --all --seed 1

Run from the repository root; the package is imported from ./src.
"""

import time

START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread, fixed before numpy loads BLAS: on a 2-core machine 500 MU
# steps took 0.88-1.06 s at 1 thread and 1.12-1.92 s at 2 threads.
BLAS_THREADS = "1"

if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(1, str(Path(__file__).resolve().parent.parent / "src"))
    import bench

    sys.exit(bench.main(sys.argv[1:], START))
