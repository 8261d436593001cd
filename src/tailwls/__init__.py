"""Reduced-bias tail-index estimation by weighted least squares.

Heavy-tailed (Pareto-type) samples admit the exponential regression
representation of their top-order-statistic log-spacings; fitting it by
weighted least squares with linearly decreasing weights gives a tail-index
estimator with the bias of a second-order correction. The paper states its
asymptotic variance as 4 gamma^2 / (3k); the estimator's actual variance,
slope fluctuation included, is gamma^2 (24/5) / k at rho = -1 (see
``asymptotics``). This package implements that
estimator alongside the classical Hill estimator and three regression
baselines, plus the sampling distributions, Monte Carlo machinery and
asymptotic diagnostics needed to study them.
"""

__version__ = "0.1.0"

# Each module lists its public names in its own __all__. __version__ is set
# before the imports because montecarlo reads it.
from .errors import *
from .spacings import *
from .asymptotics import *
from .estimators import *
from .second_order import *
from .distributions import *
from .montecarlo import *

__all__ = ["__version__", *errors.__all__, *spacings.__all__, *asymptotics.__all__,
           *estimators.__all__, *second_order.__all__, *distributions.__all__,
           *montecarlo.__all__]
