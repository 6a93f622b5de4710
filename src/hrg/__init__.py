"""Hyperbolic random graphs: seeded generation, exact structural analysis,
and a desk-scale experiment harness."""

from . import analysis, geometry, graphgen, sampling
from .analysis import *  # noqa: F403
from .geometry import *  # noqa: F403
from .graphgen import *  # noqa: F403
from .sampling import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*analysis.__all__, *geometry.__all__, *graphgen.__all__, *sampling.__all__]
