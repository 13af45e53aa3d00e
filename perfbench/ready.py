"""Set-up probe: import skewlab from ``src/``, make the warm-up call, print ``ready``."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import workloads  # noqa: E402  (imports skewlab and scipy.stats)

workloads.warmup()
print("ready", flush=True)
