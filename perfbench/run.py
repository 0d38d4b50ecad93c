"""neuralbrane benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; inputs, outputs and results go under ``.perfbench_cache/``
at the repository root.  See ``perfbench/README.md``.
"""

import os
import sys

# One BLAS/OpenMP thread for this process and every child it starts.  Set
# before numpy loads, because the thread pools size themselves at import.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "NEURAL_BRANE_LOG": "warn",
}


def main(argv=None) -> int:
    os.environ.update(PINNED_ENV)
    from harness import run  # numpy loads here, after the pin
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
