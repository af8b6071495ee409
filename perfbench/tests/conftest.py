"""Make the benchmark's modules and the program under test importable.

Run with: python3 -m pytest perfbench/tests
"""

import os
import sys
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))
