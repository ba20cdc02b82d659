"""Host-speed calibration.

The CPU speed a process gets on a shared host drifts: on the 2-core
reference host the loop below took from 0.054 s to 0.105 s in runs a few
minutes apart, and wall times of cpshop's work moved with it. Timing this
fixed loop of small numpy operations and Python list work, which is the
kind of work cpshop's dispatching and training do, just before and just
after a timed task gives the host's speed during the task. A wall time
scaled by ``REFERENCE_S`` over the median of those loop times reads as
seconds at the reference host's speed, so it follows the program rather
than the host.
"""

from __future__ import annotations

import gc
import time

import numpy as np

# median of calibrate() on the reference host (Python 3.11.7, numpy 2.4.6)
REFERENCE_S = 0.055


def calibrate() -> float:
    """Wall seconds of one fixed loop, with the garbage collector off so
    that the program's heap does not change the figure."""
    values = np.arange(50.0)
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        total = 0.0
        for i in range(20000):
            total += float((values * i).max()) + len([j for j in range(10)])
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
