"""equifdp: false discovery proportion of the BH procedure under Gaussian
equi-correlation -- exact sampler, closed-form limit laws, and a Monte Carlo
harness that verifies the predicted convergence at desk scale.

The public names are those of each module's ``__all__``.
"""

from . import asymptotics, errors, experiment, gaussian, model, oracle, procedures
from ._version import __version__
from .asymptotics import *  # noqa: F403
from .errors import *  # noqa: F403
from .experiment import *  # noqa: F403
from .gaussian import *  # noqa: F403
from .model import *  # noqa: F403
from .oracle import *  # noqa: F403
from .procedures import *  # noqa: F403

__all__ = ["__version__"] + [
    name
    for module in (errors, gaussian, model, procedures, asymptotics, oracle, experiment)
    for name in module.__all__
]
