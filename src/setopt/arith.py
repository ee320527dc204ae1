"""Scalar and vector arithmetic shared by every module.

Two numeric regimes coexist.  In float mode, comparisons are guarded by
an absolute tolerance (``DEFAULT_TOL``).  In exact mode every quantity
is rational and the tolerance is the integer ``0``, so every threshold
comparison is decided exactly.  A question is exact only when its cone,
its images and its own numbers are all rational.  Vectors are plain
tuples; both regimes flow through the same code paths.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence, Union

from .errors import ParseError

Num = Union[int, float, Fraction]
Vec = Sequence[Num]

DEFAULT_TOL = 1e-9


def is_exact(x: Num) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def div(a: Num, b: Num) -> Num:
    """Exact division for rational operands, float division otherwise."""
    if isinstance(a, float) or isinstance(b, float):
        return a / b
    return Fraction(a, b)


def resolve_tol(tol, *samples: Num) -> Num:
    """``tol``, else 0 when all ``samples`` are rational and ``DEFAULT_TOL``
    otherwise.  A question is exact only when its cone, its images and its
    own numbers are all rational: it resolves by ``imagesets.question_tol``."""
    if tol is not None:
        return tol
    return 0 if all(is_exact(s) for s in samples) else DEFAULT_TOL


def ge(a: Num, b: Num, tol: Num) -> bool:
    return a >= b - tol


def gt(a: Num, b: Num, tol: Num) -> bool:
    return a > b + tol


def lcd(values) -> int:
    """The least common denominator of rational ``values``."""
    # a list, not a generator: unpacking a generator into math.lcm
    # grew the heap with every call on CPython 3.11
    return math.lcm(*[v.denominator for v in values])


def ints_over(values, den) -> tuple:
    """Rational ``values`` times ``den``, a common denominator, as ints."""
    return tuple([v.numerator * (den // v.denominator) for v in values])


def num_finite(x: Num) -> bool:
    if isinstance(x, float):
        return math.isfinite(x)
    return True


def parse_number(value, exact: bool) -> Num:
    """Read one JSON scalar: int, float, or a rational string like "2/3".

    Exact mode refuses bare floats (their intended rational value is
    ambiguous); decimal strings such as "0.1" are accepted and parsed
    exactly.
    """
    if isinstance(value, bool):
        raise ParseError(f"expected a number, got boolean {value!r}")
    if isinstance(value, str):
        try:
            frac = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational literal {value!r}: {exc}") from exc
        return frac if exact else float(frac)
    if isinstance(value, int):
        return Fraction(value) if exact else float(value)
    if isinstance(value, float):
        if exact:
            raise ParseError(
                f"exact mode requires integers or rational strings, got float {value!r}"
            )
        if not math.isfinite(value):
            raise ParseError(f"non-finite number {value!r}")
        return value
    raise ParseError(f"expected a number, got {type(value).__name__}")


def format_number(x: Num):
    """JSON-friendly form: Fractions as "p/q" strings (ints stay ints)."""
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return int(x)
        return f"{x.numerator}/{x.denominator}"
    return x


def format_vector(v: Vec) -> list:
    return [format_number(x) for x in v]



def vsub(u: Vec, v: Vec) -> tuple:
    return tuple(a - b for a, b in zip(u, v))


def vscale(c: Num, v: Vec) -> tuple:
    return tuple(c * x for x in v)


def dot(u: Vec, v: Vec) -> Num:
    return sum(a * b for a, b in zip(u, v))


def norm_sq(v: Vec) -> Num:
    return sum(x * x for x in v)


def dist_sq(u: Vec, v: Vec) -> Num:
    return sum((a - b) * (a - b) for a, b in zip(u, v))


def veq(u: Vec, v: Vec, tol: Num) -> bool:
    """Componentwise equality within an absolute tolerance."""
    return len(u) == len(v) and all(abs(a - b) <= tol for a, b in zip(u, v))
