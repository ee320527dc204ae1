"""Scalar and vector arithmetic shared by every module.

The resolved tolerance alone picks the arithmetic.  At tol 0 every
number is read as its exact rational (``as_integer_ratio``; a float is
dyadic), so every threshold comparison is decided exactly.  A positive
tol compares true values within tol.  Unset, tol is 0 when a question's
cone, images and own numbers are all rational, else ``DEFAULT_TOL``.
Vectors are plain tuples.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence, Union

from .errors import ParseError, ValidationError

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


def check_number(x, name: str = "eps", positive: bool = False) -> None:
    """Refuse ``x`` (an eps, a tol, a squared radius) unless it is a finite
    number ``>= 0`` (``> 0`` with ``positive``)."""
    if (isinstance(x, bool) or not isinstance(x, (int, float, Fraction))
            or not (0 < x if positive else 0 <= x) or x == math.inf):
        sign = "positive" if positive else "nonnegative"
        raise ValidationError(f"{name} must be finite and {sign}, got {x!r}")


def resolve_tol(tol, *samples: Num) -> Num:
    """``tol``, any zero as the int 0 (``b - 0.0`` would round an exact
    ``b``), else 0 when all ``samples`` are rational and ``DEFAULT_TOL``
    otherwise.  A question is exact only when its cone, its images and its
    own numbers are all rational: it resolves by ``imagesets.question_tol``.
    An explicit ``tol`` must be a finite number ``>= 0``."""
    if tol is not None:
        check_number(tol, "tol")
        return tol or 0
    return 0 if all(is_exact(s) for s in samples) else DEFAULT_TOL


def ge(a: Num, b: Num, tol: Num) -> bool:
    return a >= b - tol


def gt(a: Num, b: Num, tol: Num) -> bool:
    return a > b + tol


def lcd(values) -> int:
    """The least common denominator of ``values``, each read exactly."""
    # a list, not a generator: unpacking a generator into math.lcm
    # grew the heap with every call on CPython 3.11
    return math.lcm(*[v.as_integer_ratio()[1] for v in values])


def ints_over(values, den) -> tuple:
    """``values`` times ``den``, a common denominator, as ints."""
    return tuple([n * (den // d)
                  for n, d in [v.as_integer_ratio() for v in values]])


def ceil_floor(x: Num, den: int) -> tuple:
    """``(ceil, floor)`` of ``x * den`` in ints, ``den`` a positive int."""
    n, d = x.as_integer_ratio()
    return -(-n * den // d), n * den // d


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
    if isinstance(value, float):
        if exact:
            raise ParseError(
                f"exact mode requires integers or rational strings, got float {value!r}"
            )
        if not math.isfinite(value):
            raise ParseError(f"non-finite number {value!r}")
        return value
    if not isinstance(value, (str, int)):
        raise ParseError(f"expected a number, got {type(value).__name__}")
    try:
        frac = Fraction(value)
        return frac if exact else float(frac)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational literal {value!r}: {exc}") from exc
    except OverflowError:
        raise ParseError(f"number {value!r} is beyond float range") from None


def format_number(x: Num):
    """JSON-friendly form: Fractions as "p/q" strings (ints stay ints)."""
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return int(x)
        return f"{x.numerator}/{x.denominator}"
    return x


def format_vector(v: Vec) -> list:
    return [format_number(x) for x in v]



# tuples from lists, not generators: a tuple built from a generator is
# resized once filled, and the freed blocks pile up in CPython's tuple
# free list, which tracemalloc counts until a full collection
def vsub(u: Vec, v: Vec) -> tuple:
    return tuple([a - b for a, b in zip(u, v)])


def vscale(c: Num, v: Vec) -> tuple:
    return tuple([c * x for x in v])


def dot(u: Vec, v: Vec) -> Num:
    return sum(a * b for a, b in zip(u, v))


def norm_sq(v: Vec) -> Num:
    return sum(x * x for x in v)


def dist_sq(u: Vec, v: Vec) -> Num:
    return sum((a - b) * (a - b) for a, b in zip(u, v))


def veq(u: Vec, v: Vec, tol: Num) -> bool:
    """Componentwise equality within an absolute tolerance."""
    return len(u) == len(v) and all(abs(a - b) <= tol for a, b in zip(u, v))
