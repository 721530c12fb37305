"""Gauss quadrature rules on reference triangles and segments.

Two fixed rules cover every integral in the package: the classical
seven-point, degree-5 triangle rule (centroid plus two symmetric orbits)
for all element integrals, and three-point Gauss-Legendre for line
integrals along interface edges.

Both rules are normalised to a reference element of unit measure, so a
physical integral is ``measure(element) * sum(w_q * f(x_q))``.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["QuadRule", "triangle_rule_7pt", "edge_rule_3pt"]


@dataclass(frozen=True, eq=False)
class QuadRule:
    """A fixed set of quadrature points and weights on a reference element.

    Attributes
    ----------
    points : ndarray
        Barycentric triples (triangle rule) or coordinates in [0, 1]
        (edge rule), one row per quadrature point.
    weights : ndarray
        Positive weights summing to the reference measure (1 for both
        rules used here).
    """

    points: np.ndarray
    weights: np.ndarray


def triangle_rule_7pt():
    """Seven-point rule, exact through total degree 5 on any triangle.

    Points are barycentric; weights sum to one on a reference triangle of
    unit area, so physical integrals are ``area * sum(w * f)``.
    """
    s15 = math.sqrt(15.0)
    a1 = (9.0 - 2.0 * s15) / 21.0   # 0.0597...
    b1 = (6.0 + s15) / 21.0         # 0.4701...
    a2 = (9.0 + 2.0 * s15) / 21.0   # 0.7974...
    b2 = (6.0 - s15) / 21.0         # 0.1012...
    w1 = (155.0 + s15) / 1200.0
    w2 = (155.0 - s15) / 1200.0
    points = [
        (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0),
        (a1, b1, b1),
        (b1, a1, b1),
        (b1, b1, a1),
        (a2, b2, b2),
        (b2, a2, b2),
        (b2, b2, a2),
    ]
    weights = [9.0 / 40.0, w1, w1, w1, w2, w2, w2]
    return QuadRule(np.array(points), np.array(weights))


def edge_rule_3pt():
    """Three-point Gauss-Legendre rule on [0, 1], exact through degree 5."""
    r = math.sqrt(3.0 / 5.0)
    points = [(0.5 * (1.0 - r),), (0.5,), (0.5 * (1.0 + r),)]
    weights = [5.0 / 18.0, 4.0 / 9.0, 5.0 / 18.0]
    return QuadRule(np.array(points), np.array(weights))
