"""Self-tests of the end-to-end benchmark (not collected by tier-1's
``testpaths``): run with

    python3 -m pytest benchmarks/e2e/tests -q

The program under ``src/`` and the repository root go on ``sys.path``
here, as ``run.py`` does for itself.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[3]
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)
