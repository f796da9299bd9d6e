"""Constructive fractal geometry at desk scale.

Builds Cantor sets with exact rational interval geometry, the natural
equal-weight measure with certified two-sided mass bounds, recursive arc
approximations of prescribed dimension threading Cantor-set products,
snowflake and rug metric spaces, and box/net dimension estimators that
compare numerical slopes against exact expected values.

The names below are loaded on first use (PEP 562), so importing the
package, or ``fractarc.cli``, compiles only the engine modules a caller
reaches.
"""

import importlib

__version__ = "0.1.0"

#: The public names, by the engine module that defines them.
_EXPORTS = {
    "cantor": ("GenerationBudgetError", "ProductCantor", "RatioCantorSet", "RatioSequence",
               "SelfSimilarCantor", "product_for_dimension", "scaling_for_dimension",
               "uniform_perfectness_constant", "verify_uniform_perfectness"),
    "measure": ("BallMassBracket", "MassBoundCertificate", "NaturalMeasure",
                "mass_bound_sequence", "verify_mass_bounds"),
    "arc": ("ArcApproximation", "RoutingFailed", "build_arc", "modulus_of_continuity",
            "route_connectors", "verify_containment", "verify_injectivity"),
    "geometry": (),
    "metric": ("RugSpace", "SnowflakeMetric", "VON_KOCH_EXPONENT"),
    "dimension": ("BoxCountSeries", "DimensionEstimate", "ball_net_count", "box_count",
                  "box_count_series", "estimate_dimension", "expected_dimensions"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
