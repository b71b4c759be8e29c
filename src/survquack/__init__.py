"""Two-arm survival analysis where the overall answer must make sense.

The toolkit pairs standard machinery (product-limit curves, log-rank,
Cox and Weibull fits) with aggregation that mixes each arm's survival
over subgroup prevalences before forming any ratio, a Monte Carlo study
of directional errors made by test-then-read-the-medians reasoning, and
a rank-test confidence set for the survival-curve power parameter.

The package re-exports the ``__all__`` of each library module; reports
and the command line stay in ``survquack.report`` and ``survquack.cli``.
"""

from . import dist, errors, estim, fixtures, infer, rng, sim, sme
from ._version import __version__
from .dist import *
from .errors import *
from .estim import *
from .fixtures import *
from .infer import *
from .rng import *
from .sim import *
from .sme import *

__all__ = ["__version__"] + [
    name for module in (dist, errors, estim, fixtures, infer, rng, sim, sme) for name in module.__all__
]
