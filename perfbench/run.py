"""Run one workload of the PILOTE benchmark and print its metrics.

    python3 perfbench/run.py --workload increment --seed 1 --seconds 12 --trace 0

Run from the repository root.  BLAS is pinned to one thread here, before
numpy is imported, so results do not depend on the BLAS default for the
machine.  The last line of standard output is the JSON result.
"""

import os
import sys
from pathlib import Path

for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(_ROOT / "src"), str(_ROOT)]

if __name__ == "__main__":
    from perfbench.bench import main

    sys.exit(main())
