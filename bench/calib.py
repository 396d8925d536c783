"""A fixed piece of work that measures how fast the machine runs now.

On a shared machine the wall time of the same run swings by up to 1.8x
over seconds to minutes, as other tenants load the cores.  The
benchmark times this kernel after every repetition and reports each
time of a run at the reference speed:

    time at reference speed = wall time * REFERENCE_S / median kernel time

The kernel does not touch sselab and never changes.  It mixes small
complex matrix products with interpreted Python, as a run does, so it
slows down with the machine much as a run does.  A change that makes sselab
faster lowers the scaled time in proportion.

Set-up is mostly importing modules, which the kernel does not track:
scaling set-up times by it made them spread more, not less.  Each
set-up sample is scaled instead by IMPORT_CODE, a fresh interpreter
importing the numpy and scipy modules sselab imports, run just before
it:

    set-up at reference speed = set-up wall time * REFERENCE_IMPORT_S / import time
"""

import time

import numpy as np

# The kernel's typical time on the 2-vCPU machine the benchmark was
# tuned on (11 to 15 ms there), so scaled times read as seconds there.
REFERENCE_S = 0.012

# The typical time of IMPORT_CODE there (0.45 to 0.55 s).
REFERENCE_IMPORT_S = 0.5

IMPORT_CODE = """\
import time
t0 = time.perf_counter()
import numpy, scipy.linalg
print(repr(time.perf_counter() - t0))
"""

_STATE = np.full((50, 2), 0.5 + 0.5j)
_STEP = np.array([[0.999, 0.001j], [0.001j, 0.999]])


def calibrate():
    """Wall time of one pass of the kernel, in seconds."""
    t0 = time.perf_counter()
    a = _STATE
    for _ in range(1500):
        a = a @ _STEP + 0.001 * a
        sum(i * i for i in range(10))
    return time.perf_counter() - t0
