"""Oracles that only the tests call, kept out of the package so that its
runtime needs numpy alone.

``gramian_infinite`` is Bartels-Stewart on the algebraic Lyapunov equation
(scipy), independent of the squared Smith iteration behind
``compute_gramian(sys, inf)``.
"""

import numpy as np
import scipy.linalg

from minenergy.gramians import _check_lyapunov_residual, _require_stable, _wrap


def gramian_infinite(sys):
    """Infinite-horizon Gramian of a stable system: Bartels-Stewart on the
    algebraic Lyapunov equation A Q + Q A^T + BB^T = 0.

    Raises UnstableSystemError when the decay margin is zero, and
    StiffnessError when the solve cannot meet the residual bound
    ``||A Q + Q A^T + BB^T|| <= 1e-10 * ||BB^T||`` that the engine's
    doubling also meets.
    """
    _require_stable(sys)
    Q = scipy.linalg.solve_continuous_lyapunov(sys.A, -sys.BBt)
    _check_lyapunov_residual(sys, Q, "algebraic solve")
    return _wrap(sys, Q, np.inf, "bartels_stewart")
