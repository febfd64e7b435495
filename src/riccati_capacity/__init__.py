"""Rates of additive Gaussian channels whose noise has state-space structure.

The library propagates generalized Riccati and Lyapunov recursions for
noise and noise-plus-input filters, checks the system-theoretic
conditions under which their steady states exist, and turns the
resulting innovations covariances into finite-block and asymptotic
achievable rates. A Monte Carlo module replays the same filters on
sampled trajectories so every analytic covariance can be compared with
an empirical one.
"""

from . import capacity, lyapunov, models, riccati, simulate, systests
from .capacity import *  # noqa: F403
from .lyapunov import *  # noqa: F403
from .models import *  # noqa: F403
from .riccati import *  # noqa: F403
from .simulate import *  # noqa: F403
from .systests import *  # noqa: F403

__version__ = "0.1.0"

# each module's __all__ is the one declaration of its public names
__all__ = [name for module in (capacity, lyapunov, models, riccati, simulate, systests)
           for name in module.__all__]
