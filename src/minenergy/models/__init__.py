"""Benchmark model families, one module per kind.

Three infinite-dimensional control systems reduced to finite computations
without discretization error in the dynamics:

* ``spectral``: diagonal systems — everything is per-mode and closed form;
* ``delay``: a scalar delay equation — the fundamental solution is built by
  the method of steps on the cells of the history mesh, in time local to
  each cell, and its kernels are integrated cell by cell to roundoff; the
  only approximation anywhere is the projection of the history segment onto
  a uniform mesh;
* ``shift``: a nilpotent shift with a short control window — reachability
  defects are computed from an exactly assembled cell/interval overlap
  matrix.

``parse_model`` builds any of them from a preset string.
"""

import re

from ..errors import ScenarioError
from . import delay, shift, spectral
from .delay import *
from .shift import *
from .spectral import *

__all__ = [*spectral.__all__, *delay.__all__, *shift.__all__, "parse_model"]

_SPECTRAL_RE = re.compile(r"^spectral:([a-z\-]+)(?:\(([^)]*)\))?$")
_DELAY_RE = re.compile(r"^delay\(([^)]*)\)$")
_SHIFT_RE = re.compile(r"^shift\((\d+)\)$")


def parse_model(text, mesh=32):
    """Parse a preset string into a model object.

    Recognized forms:
      spectral:landau-ginzburg          quadratic spectrum, unit weights
      spectral:power-law(alpha)         weights b_n = lambda_n^alpha
      spectral:thin-control             doubly-exponentially thin weights
      delay(a0, a1, b0, d)              scalar delay equation, mesh cells
      shift(m)                          nilpotent shift on m cells
    """
    text = text.strip()
    m = _SPECTRAL_RE.match(text)
    if m:
        name, arg = m.group(1), m.group(2)
        if name == "landau-ginzburg":
            return landau_ginzburg(int(arg) if arg else 32)
        if name == "power-law":
            if arg is None:
                raise ScenarioError(
                    "power-law preset needs an exponent, e.g. power-law(0.5)"
                )
            parts = [p.strip() for p in arg.split(",")]
            alpha = float(parts[0])
            n_modes = int(parts[1]) if len(parts) > 1 else 32
            return power_law(alpha, n_modes)
        if name == "thin-control":
            return thin_control_example(int(arg) if arg else 16)
        raise ScenarioError(f"unknown spectral preset {name!r}")
    m = _DELAY_RE.match(text)
    if m:
        parts = [float(p) for p in m.group(1).split(",")]
        if len(parts) != 4:
            raise ScenarioError("delay preset needs four numbers: a0, a1, b0, d")
        return DelaySystem(a0=parts[0], a1=parts[1], b0=parts[2], delay=parts[3], mesh=mesh)
    m = _SHIFT_RE.match(text)
    if m:
        return ShiftSystem(m=int(m.group(1)))
    raise ScenarioError(f"unrecognized model preset {text!r}")
