"""Run one benchmark workload against the abanet sources of this checkout.

    python3 perfbench/run.py --workload predict-squad --seed 1 --seconds 25 --trace 0

Exits with code 2, printing no result, when the checkout holds no
``src/abanet`` to measure.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

if __name__ == "__main__":
    # Fixed before numpy loads: one BLAS thread (at most nproc) keeps the
    # small matmuls of this model off the second core and steadies timings.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "abanet" / "model.py").is_file():
        print(f"perfbench: no abanet sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(src), str(ROOT)]
    import abanet.model
    if Path(abanet.model.__file__).resolve().parent != src / "abanet":
        print(f"perfbench: abanet imported from {abanet.model.__file__}, "
              f"not from {src}", file=sys.stderr)
        sys.exit(2)
    from perfbench.harness import main
    sys.exit(main(sys.argv[1:]))
