"""The ladder: one replay-based wall-clock benchmark for the whole stack.

Four workloads, seven end-to-end metrics measured untraced, and a
traced run that times the calls into each layer's public functions —
see README.md for the definitions and the measuring rule. Run it as
``python -m benchmarks.ladder``; ``BENCHMARK.json`` at the repository
root is the contract the numbers are checked against.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: The program under measurement is this checkout's, whatever else is
#: installed; the driver sets no PYTHONPATH.
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
