"""anchorlap: anchor-lattice overlap analysis for box detection.

Exact IoU geometry, expected-max-overlap (EMO) estimation, anchor lattice
construction with stride reduction and shifted sub-lattices, max-IoU
matching with jittering and hard-face compensation, annotation coverage
analytics, and an exact anchor-design optimizer.

The public names are those in each module's ``__all__``, re-exported here.
"""

from . import dataset, emo, geometry, layout, matching, optimizer, rng, specfile
from .geometry import *
from .layout import *
from .emo import *
from .matching import *
from .dataset import *
from .optimizer import *
from .specfile import *
from .rng import *

__version__ = "0.1.0"

# ``cli`` is left out: it imports ``__version__`` from here.
__all__ = [
    *geometry.__all__, *layout.__all__, *emo.__all__, *matching.__all__,
    *dataset.__all__, *optimizer.__all__, *specfile.__all__, *rng.__all__,
    "__version__",
]
