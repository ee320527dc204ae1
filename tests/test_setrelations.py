import ast
import inspect
import itertools
import random
from dataclasses import replace
from fractions import Fraction as F

from setopt import imagesets, setrelations
from setopt.imagesets import finite_set, polytope
from setopt.instance import make_example
from setopt.setrelations import (LOWER, LOWER_STRICT, LOWER_STRONG,
                                 RELATION_KINDS, RelationWitness, set_margin,
                                 set_relation, verify_certificate)


def pts(*coords):
    return [tuple(F(c) for c in p) for p in coords]


def test_set_margin_hand_values(orthant):
    # singleton vs drifting singleton: zero margin, so the non-strict
    # relation holds at shift 0 but the strict one never does
    a = finite_set(pts((0, 0)))
    b = finite_set(pts((0, 1)))
    assert set_margin(a, b, orthant) == 0
    assert set_relation(a, b, orthant, LOWER, 0)[0]
    assert not set_relation(a, b, orthant, LOWER_STRICT, 0)[0]

    b2 = finite_set(pts((1, 1), (2, 0)))
    assert set_margin(a, b2, orthant) == 0
    assert set_relation(a, b2, orthant, LOWER, 0)[0]
    assert not set_relation(a, b2, orthant, LOWER_STRICT, 0)[0]


def test_set_margin_self_nonnegative(orthant):
    rng = random.Random(21)
    for _ in range(20):
        img = finite_set([(F(rng.randint(-5, 5)), F(rng.randint(-5, 5)))
                          for _ in range(rng.randint(1, 5))])
        assert set_margin(img, img, orthant) >= 0


def test_polytope_fan_ordering(orthant):
    # conv{(1,0),(0,1),(x,x)} shrinks downward as x decreases
    lo = make_example("t_one", {"g": 2}, exact=True)  # grid {1/4, 1/2}
    f_quarter, f_half = lo.images
    assert set_relation(f_quarter, f_half, orthant, LOWER, 0)[0]
    assert not set_relation(f_half, f_quarter, orthant, LOWER, 0)[0]
    # the shared vertex (1,0) admits no distinct dominator in any image
    assert not set_relation(f_quarter, f_half, orthant, LOWER_STRONG, 0)[0]
    assert not set_relation(f_quarter, f_quarter, orthant, LOWER_STRONG, 0)[0]


def test_strong_relation_finite(orthant):
    a = finite_set(pts((0, 0)))
    b = finite_set(pts((1, 1), (2, 0)))
    holds, cert = set_relation(a, b, orthant, LOWER_STRONG, 0)
    assert holds
    assert verify_certificate(a, b, orthant, cert)
    # shifting by the strong witness margin breaks it: (2,0)-e=(1,-1)
    holds, cert = set_relation(a, b, orthant, LOWER_STRONG, F(1))
    assert not holds and cert.failing_target is not None
    assert verify_certificate(a, b, orthant, cert)


def test_strict_threshold_law(orthant, skew_cone):
    rng = random.Random(13)
    for cone in (orthant, skew_cone):
        for _ in range(15):
            a = finite_set([(F(rng.randint(-4, 4)), F(rng.randint(-4, 4)))
                            for _ in range(rng.randint(1, 4))])
            b = finite_set([(F(rng.randint(-4, 4)), F(rng.randint(-4, 4)))
                            for _ in range(rng.randint(1, 4))])
            sm = set_margin(a, b, cone)
            probes = {sm + F(d, 3) for d in range(-6, 7)} | {sm, F(0)}
            for eps in probes:
                if eps < 0:
                    continue
                strict, _ = set_relation(a, b, cone, LOWER_STRICT, eps)
                lower, _ = set_relation(a, b, cone, LOWER, eps)
                assert strict == (eps < sm)
                assert lower == (eps <= sm)


def test_implication_chain(orthant):
    rng = random.Random(17)
    for _ in range(25):
        a = finite_set([(F(rng.randint(-3, 3)), F(rng.randint(-3, 3)))
                        for _ in range(rng.randint(1, 4))])
        b = finite_set([(F(rng.randint(-3, 3)), F(rng.randint(-3, 3)))
                        for _ in range(rng.randint(1, 4))])
        for eps in (F(0), F(1, 2), F(1)):
            strict, _ = set_relation(a, b, orthant, LOWER_STRICT, eps)
            strong, _ = set_relation(a, b, orthant, LOWER_STRONG, eps)
            lower, _ = set_relation(a, b, orthant, LOWER, eps)
            assert (not strict or strong) and (not strong or lower)


def test_transitivity_at_zero(orthant):
    rng = random.Random(19)
    sets = [finite_set([(F(rng.randint(-3, 3)), F(rng.randint(-3, 3)))
                        for _ in range(rng.randint(1, 3))])
            for _ in range(6)]
    for a, b, c in itertools.product(sets, repeat=3):
        ab = set_relation(a, b, orthant, LOWER, 0)[0]
        bc = set_relation(b, c, orthant, LOWER, 0)[0]
        if ab and bc:
            assert set_relation(a, c, orthant, LOWER, 0)[0]


def test_right_argument_encoding_agreement(orthant):
    # the same right-hand set as a polytope or as its vertex list must
    # produce identical margins against a polytope left argument
    left = polytope(pts((0, 0), (2, -1)))
    verts = pts((1, 1), (3, 0), (2, 2))
    assert set_margin(left, polytope(verts), orthant) == \
        set_margin(left, finite_set(verts), orthant)


def test_certificates_reverify(boundary_cases):
    inst = make_example("mfdvp", exact=True)
    cases = [(inst.images[i], inst.images[j], inst.cone, eps, None)
             for i, j in itertools.product(range(3), repeat=2)
             for eps in (F(0), F(1, 2))]
    # float pairs a few ulps from the boundary of the shifted test
    cases += [(finite_set([y]), finite_set([q]), cone, eps, tol)
              for cone, q, y, eps, tol in boundary_cases]
    for a, b, cone, eps, tol in cases:
        for kind in (LOWER, LOWER_STRONG, LOWER_STRICT):
            holds, cert = set_relation(a, b, cone, kind, eps, tol)
            assert cert.holds == holds
            assert verify_certificate(a, b, cone, cert, tol)


def test_strong_relation_float_shift_reverifies(orthant_float):
    # the strong test once compared margin(y, q - eps*e) with 0, and
    # the checker margin(y, q) with eps: here it held and the checker
    # rejected its certificate
    a = finite_set([(-0.699999999, 2.700000000000003)])
    b = finite_set([(0.3, 4.0)])
    holds, cert = set_relation(a, b, orthant_float, LOWER_STRONG, 1.0)
    assert verify_certificate(a, b, orthant_float, cert)


def test_polytope_certificates_reverify():
    inst = make_example("t_one", {"g": 3}, exact=True)
    for i, j in itertools.product(range(3), repeat=2):
        for kind in (LOWER, LOWER_STRONG, LOWER_STRICT):
            holds, cert = set_relation(inst.images[i], inst.images[j],
                                       inst.cone, kind, 0)
            assert verify_certificate(inst.images[i], inst.images[j],
                                      inst.cone, cert)


def test_checker_resolves_tol_over_both_images(orthant):
    # an exact left image and a float right image: the relation holds
    # within the float tolerance, so its certificate must re-verify
    a = finite_set([(0, 0)])
    b = finite_set([(1.0 - 1e-12, 1.0)])
    holds, cert = set_relation(a, b, orthant, LOWER, 1)
    assert holds
    assert verify_certificate(a, b, orthant, cert)
    # a witness falling short by more than the tolerance is still rejected
    short = finite_set([(1.0 - 1e-6, 1.0)])
    assert not set_relation(a, short, orthant, LOWER, 1)[0]
    forged = replace(cert, witnesses=(
        RelationWitness(short.points[0], point=(0, 0)),))
    assert not verify_certificate(a, short, orthant, forged)


def test_strong_polytope_certificate_reverifies(orthant):
    a = polytope(pts((0, 0), (1, 0), (0, 1)))
    b = polytope(pts((2, 2), (3, 2), (2, 3)))
    holds, cert = set_relation(a, b, orthant, LOWER_STRONG, 1)
    assert holds
    assert all(w.multipliers is not None for w in cert.witnesses)
    assert verify_certificate(a, b, orthant, cert)


def test_checker_rejects_each_corruption(orthant):
    # one target (2, 2) at eps 1, so the shifted target is (1, 1)
    fa = finite_set(pts((0, 0), (1, 1), (1, 3)))
    pa = polytope(pts((0, 0), (2, 0), (0, 2)))
    b = finite_set(pts((2, 2)))

    def lam(weights):   # convex weights over the vertices of pa
        return tuple(F(weights.get(v, 0)) for v in pa.points)

    def check(a, kind, forged):
        holds, cert = set_relation(a, b, orthant, kind, 1)
        assert holds and verify_certificate(a, b, orthant, cert)
        return verify_certificate(a, b, orthant, forged(cert))

    def witness(**changes):
        return lambda cert: replace(cert, witnesses=(
            replace(cert.witnesses[0], **changes),))

    # failing target missing or outside B
    holds, failed = set_relation(fa, b, orthant, LOWER, 3)
    assert not holds and verify_certificate(fa, b, orthant, failed)
    for target in (None, pts((5, 5))[0]):
        assert not verify_certificate(
            fa, b, orthant, replace(failed, failing_target=target))
    for kind in RELATION_KINDS:
        # target set different from B; neither a point nor multipliers
        assert not check(fa, kind, lambda c: replace(c, witnesses=()))
        assert not check(fa, kind, witness(target=pts((5, 5))[0]))
        assert not check(pa, kind, witness(point=None, multipliers=None))
        # witness point outside A
        assert not check(fa, kind, witness(point=pts((-1, -1))[0]))
        # multipliers of the wrong length, negative, not summing to 1
        assert not check(pa, kind, witness(multipliers=(F(1), F(0))))
        assert not check(pa, kind, witness(
            multipliers=lam({(0, 0): F(3, 2), (2, 0): F(-1, 2)})))
        assert not check(pa, kind, witness(
            multipliers=lam({(0, 0): F(1, 2)})))
    # margin of (1, 3) is -1: below eps for LOWER and STRONG
    for kind in (LOWER, LOWER_STRONG):
        assert not check(fa, kind, witness(point=pts((1, 3))[0]))
        # y = (2, 0) leaves slack -1 in the first row
        assert not check(pa, kind, witness(multipliers=lam({(2, 0): 1})))
    # margin of (1, 1) is exactly eps: not above it for STRICT
    assert not check(fa, LOWER_STRICT, witness(point=pts((1, 1))[0]))
    # ... and it is the shifted target itself for STRONG
    assert not check(fa, LOWER_STRONG, witness(point=pts((1, 1))[0]))
    # y = (1, 0) leaves a zero slack: fine for LOWER, not for STRICT
    half = witness(multipliers=lam({(0, 0): F(1, 2), (2, 0): F(1, 2)}))
    assert check(pa, LOWER, half)
    assert not check(pa, LOWER_STRICT, half)
    # y = (1, 1) leaves zero total slack: fine for LOWER, not for STRONG
    shifted = witness(multipliers=lam({(2, 0): F(1, 2), (0, 2): F(1, 2)}))
    assert check(pa, LOWER, shifted)
    assert not check(pa, LOWER_STRONG, shifted)


def test_setrelations_uses_no_private_name_of_imagesets():
    # finite point margins and their witnesses come from one public
    # answer of imagesets, not from a second scan of its own
    tree = ast.parse(inspect.getsource(setrelations))
    used = ({a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
             for a in n.names} |
            {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} |
            {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})
    private = {name for scope in (imagesets, imagesets.ImageSet)
               for name in vars(scope)
               if name.startswith("_") and not name.startswith("__")}
    assert private and not used & private
