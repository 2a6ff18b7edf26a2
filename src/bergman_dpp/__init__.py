"""Exact sampler and verification toolkit for the Bergman determinantal
point process restricted to radial regions of the unit disc."""

from .bounds import *  # noqa: F403
from .errors import *  # noqa: F403
from .regions import *  # noqa: F403
from .sampler import *  # noqa: F403
from .spectral import *  # noqa: F403
from .streams import *  # noqa: F403
from .verify import *  # noqa: F403

__version__ = "0.1.0"
