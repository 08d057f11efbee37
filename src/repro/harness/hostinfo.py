"""Host fingerprinting for measurement artifacts.

A wall-clock number is meaningless without the host it was measured on:
PR-6's README had to carry a "host budget drifted ~35%" caveat by hand
because nothing recorded that the baseline and the new numbers came from
different machines.  :func:`host_fingerprint` is stamped into every
document that records one (``benchmarks/e2e/run.py``, and
``benchmarks/bench_checkpoint.py`` when asked to write a file), so a
reader can tell a regression from a hardware change.
"""

from __future__ import annotations

import os
import platform
import sys
from typing import Any, Dict

__all__ = ["host_fingerprint"]


def host_fingerprint() -> Dict[str, Any]:
    """The measurement-relevant identity of this host as plain data."""
    return {
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "machine": platform.machine(),
    }
