"""adaridge: sparse linear regression by adaptive ridge shrinkage.

The estimator places a conjugate normal prior on the coefficients whose
per-coordinate precisions carry gamma priors; iterating the closed-form
conditional maximizers shrinks and exactly zeroes weak coefficients, and
the shape hyper-parameter of the precision prior (the sparsity dial) can
be chosen by empirical Bayes using Laplace or Monte-Carlo approximations
of the marginal likelihood.  A seeded simulation harness reproduces the
reference comparison studies against least squares and GCV-tuned ridge.
"""

__version__ = "0.1.0"

from . import baselines, em, evidence, experiment, metrics, model, simulate, solver
from .baselines import *
from .em import *
from .errors import AdaRidgeError
from .evidence import *
from .experiment import *
from .metrics import *
from .model import *
from .simulate import *
from .solver import *

__all__ = ["__version__", "AdaRidgeError", *model.__all__, *solver.__all__,
           *em.__all__, *baselines.__all__, *evidence.__all__, *simulate.__all__,
           *metrics.__all__, *experiment.__all__]
