"""Constructive fractal geometry at desk scale.

Builds Cantor sets with exact rational interval geometry, the natural
equal-weight measure with certified two-sided mass bounds, recursive arc
approximations of prescribed dimension threading Cantor-set products,
snowflake and rug metric spaces, and box/net dimension estimators that
compare numerical slopes against exact expected values.
"""

__version__ = "0.1.0"

from .cantor import (Address, CantorInterval, GenerationBudgetError,
                     ProductCantor, RatioCantorSet, RatioSequence,
                     SelfSimilarCantor, product_for_dimension,
                     scaling_for_dimension, uniform_perfectness_constant,
                     verify_uniform_perfectness)
from .measure import (BallMassBracket, MassBoundCertificate, NaturalMeasure,
                      mass_bound_sequence, verify_mass_bounds)
from .arc import (ArcApproximation, RoutingFailed, build_arc,
                  modulus_of_continuity, route_connectors, verify_containment,
                  verify_injectivity)
from .metric import RugSpace, SnowflakeMetric, VON_KOCH_EXPONENT
from .dimension import (BoxCountSeries, DimensionEstimate, ball_net_count,
                        box_count, box_count_series, estimate_dimension,
                        expected_dimensions)

__all__ = [name for name in dir() if not name.startswith("_")]
