"""Put the benchmark's modules and the checkout's ``curvsol`` on the path.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import env  # noqa: E402

env.pin_threads()
env.import_curvsol()
