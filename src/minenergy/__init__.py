"""Minimum-energy steering for stable linear systems.

Reachability Gramians over finite and infinite horizons, minimum-energy
controls and their value function, the weighted state space induced by the
infinite-horizon Gramian, and the quadratic (Riccati-type) differential
identities satisfied by Gramian ratios — together with a zoo of benchmark
models (diagonal/spectral, scalar delay, nilpotent shift) on which all of
it can be cross-validated.  Independent Gramian oracles stand beside the
engine; the quadrature one, ``gramian_quadrature_sweep``, serves many
horizons with one graded sweep, since Q_t is a prefix of the integral for
any longer horizon.
"""

from .errors import *
from .linalg import *
from .systems import *
from .gramians import *
from .energy import *
from .riccati import *
from .models import *

__version__ = "0.1.0"
