import math
import random
from fractions import Fraction as F

import pytest

from setopt.arith import DEFAULT_TOL
from setopt.cone import validate_cone


@pytest.fixture
def orthant():
    return validate_cone([[F(1), F(0)], [F(0), F(1)]], [F(1), F(1)])


@pytest.fixture
def skew_cone():
    # K = {y : y2 >= 0, y1 - y2 >= 0}, interior direction (1, 1/2)
    return validate_cone([[F(0), F(1)], [F(1), F(-1)]], [F(1), F(1, 2)])


@pytest.fixture
def orthant_float():
    return validate_cone([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])


@pytest.fixture
def boundary_cases(orthant_float):
    """Seeded float cases ``(cone, q, y, eps, tol)`` at the boundary of
    the shifted dominance test, under the orthant and the skew cone:
    ``y`` lies a few ulps from ``q - eps*e + tol*(u, v)``, u and v
    multiples of 1/2 in [-1, 1], so ``margin(y, q)`` is a few ulps from
    ``eps`` minus a small multiple of tol/2 (``+-tol`` among them), and
    ``y`` lies just within or just outside tol of ``q - eps*e``."""
    skew = validate_cone([[0.0, 1.0], [1.0, -1.0]], [1.0, 0.5])
    rng = random.Random(11)
    halves = (-1.0, -0.5, 0.0, 0.5, 1.0)
    cases = []
    for cone in (orthant_float, skew):
        for _ in range(150):
            q = tuple(rng.randint(-20, 20) / 10 for _ in range(2))
            eps = rng.choice((0.0, 1 / 7, 0.3, 0.8, 1.0))
            tol = rng.choice((DEFAULT_TOL, 0.0))
            y = []
            for qi, ei in zip(q, cone.e):
                v = qi - eps * ei + tol * rng.choice(halves)
                for _ in range(rng.randint(0, 3)):
                    v = math.nextafter(v, rng.choice((-math.inf, math.inf)))
                y.append(v)
            cases.append((cone, q, tuple(y), eps, tol))
    return cases
