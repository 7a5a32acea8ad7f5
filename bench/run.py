"""advectbench benchmark entry point.

    python3 bench/run.py --workload {sweep,refine,causal} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout.  The last line of standard output is one
JSON object: correct, attempted, failed, and the end-to-end metrics
(--trace 0) or the per-layer metrics (--trace 1).  See bench/README.md.
"""

import os
import sys
from pathlib import Path

# One BLAS/OpenMP thread (at most nproc), fixed before numpy is loaded, so
# that runs are steady and every pass computes bit-identical fields.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

SRC = Path(__file__).resolve().parent.parent / "src"


if __name__ == "__main__":
    if not (SRC / "advectbench" / "__init__.py").is_file():
        print(f"error: no advectbench sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import harness

    sys.exit(harness.main(sys.argv[1:]))
