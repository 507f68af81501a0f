"""Machine-speed probe: a fresh interpreter that imports numpy and scipy.

    python3 bench/probe.py SPAWNED_AT

Prints the seconds from SPAWNED_AT, the parent's ``time.monotonic()`` just
before it started this process, until the imports are done. The probe runs
no kwmix code, so no change to kwmix can move it. On a shared machine the
speed of the same code drifts by a third over minutes; ``run.py`` divides
the times of a run by the median probe of that run to take the drift out.
"""

import sys
import time

import numpy  # noqa: F401
import scipy.optimize  # noqa: F401
import scipy.sparse  # noqa: F401
import scipy.stats  # noqa: F401

print(time.monotonic() - float(sys.argv[1]))
