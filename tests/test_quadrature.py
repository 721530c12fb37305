"""Quadrature rules: exactness degree on random elements."""

import numpy as np
import pytest

from sdlowrank import edge_rule_3pt, triangle_rule_7pt

from _oracles import (exact_segment_integral, exact_triangle_integral,
                      map_segment, map_triangle, random_triangle)


def test_triangle_weights_sum_to_one():
    rule = triangle_rule_7pt()
    assert rule.points.shape == (7, 3)  # barycentric triples
    assert np.allclose(rule.points.sum(axis=1), 1.0)
    assert rule.weights.shape == (7,)
    assert abs(rule.weights.sum() - 1.0) < 1e-15


def test_edge_weights_sum_to_one():
    rule = edge_rule_3pt()
    assert rule.points.shape == (3, 1)
    assert np.all((rule.points >= 0.0) & (rule.points <= 1.0))
    assert rule.weights.shape == (3,)
    assert abs(rule.weights.sum() - 1.0) < 1e-15


def test_triangle_rule_exact_through_degree_five():
    rule = triangle_rule_7pt()
    rng = np.random.default_rng(42)
    for _ in range(10):
        verts = random_triangle(rng)
        pts, w = map_triangle(rule, verts)
        for p in range(6):
            for q in range(6 - p):
                approx = np.sum(w * pts[:, 0] ** p * pts[:, 1] ** q)
                exact = exact_triangle_integral(verts, p, q)
                assert approx == pytest.approx(exact, rel=1e-12, abs=1e-14), (
                    f"x^{p} y^{q} on {verts}"
                )


def test_triangle_rule_not_exact_at_degree_six():
    # negative control: a degree-6 monomial must show a real error on at
    # least one element, otherwise the exactness test proves nothing
    rule = triangle_rule_7pt()
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    pts, w = map_triangle(rule, verts)
    approx = np.sum(w * pts[:, 0] ** 6)
    exact = exact_triangle_integral(verts, 6, 0)
    assert abs(approx - exact) > 1e-8 * abs(exact)


def test_edge_rule_exact_through_degree_five():
    rule = edge_rule_3pt()
    rng = np.random.default_rng(7)
    for _ in range(10):
        p0, p1 = rng.uniform(-2, 2, size=(2, 2))
        pts, w = map_segment(rule, p0, p1)
        for p in range(6):
            for q in range(6 - p):
                approx = np.sum(w * pts[:, 0] ** p * pts[:, 1] ** q)
                exact = exact_segment_integral(p0, p1, p, q)
                assert approx == pytest.approx(exact, rel=1e-12, abs=1e-14)


def test_edge_rule_not_exact_at_degree_six():
    rule = edge_rule_3pt()
    p0, p1 = np.array([0.0, 0.0]), np.array([1.0, 0.0])
    pts, w = map_segment(rule, p0, p1)
    approx = np.sum(w * pts[:, 0] ** 6)
    exact = exact_segment_integral(p0, p1, 6, 0)
    assert abs(approx - exact) > 1e-8 * abs(exact)

