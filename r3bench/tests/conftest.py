"""Make the benchmark's modules importable as top-level names, as
``r3bench/run.py`` sees them."""

import sys
from pathlib import Path

BENCH_DIR = str(Path(__file__).resolve().parent.parent)
if BENCH_DIR not in sys.path:
    sys.path.insert(0, BENCH_DIR)
