"""Straight and reflected shuffles of the unit interval, their Kendall and
Spearman concordance, the exact attainable (tau, rho) region, and
constructive inverses back from targets to shuffles.

The public surface re-exported here splits into five layers:

- ``shuffles``: the shuffle data model and interval-map operations;
- ``concordance``: exact tau and rho, the pair/triple statistics a and b,
  perturbation expansions, and an independent rank-based oracle;
- ``region``: the boundary functions, membership tests, and area;
- ``realize``: prototypes, the boundary curve, and target realization;
- ``verify``: the self-check battery with its report type.

Each layer lists its public names once, in its own ``__all__``; this
package exports their union.
"""

from . import concordance, realize as _realize, region, shuffles, verify
from .shuffles import *
from .concordance import *
from .region import *
from .realize import *
from .verify import *

__version__ = "0.1.0"

__all__ = [
    *shuffles.__all__,
    *concordance.__all__,
    *region.__all__,
    *_realize.__all__,
    *verify.__all__,
    "__version__",
]
