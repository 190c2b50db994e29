"""Counter-based random streams.

Every stochastic component draws from a Philox generator keyed by
(seed, replicate, role), so replicate streams are independent of each
other and of evaluation order; results cannot depend on the worker count.
"""

from __future__ import annotations

import numpy as np

ROLE_OUTCOME = 0
ROLE_COVARIATE = 1
ROLE_RESAMPLE = 3
ROLE_SPIKE = 4
# bootstrap cell-mean draws keep separate streams per cell family so that
# replicate r's draws do not depend on the total replicate count
ROLE_BOOT_TREATED = 10
ROLE_BOOT_CONTROL = 11
ROLE_BOOT_EXTERNAL = 12


def stream(seed: int, replicate: int = 0, role: int = 0) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=(int(seed), int(replicate), int(role)))
    return np.random.Generator(np.random.Philox(ss))
