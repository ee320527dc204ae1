"""Linear-program answers pinned by digest.

About 300 seeded programs are solved in three variants: rational data
at ``tol=0``, the same data as floats at the default tolerance, and
rational data at ``tol=1/1000``.  For ``lp_maximize`` the answer is
(status, value, point); for ``lp_feasible`` it is (feasible, point,
infeasibility), every number through ``format_number``.  The answers of
each variant and function are hashed with sha256 in blocks of 50
programs, so a mismatch names the block it sits in.  The digests were
recorded before rational programs at tolerance 0 moved to integer
pivoting, so the three variants pin the integer tableau and the dense
tableau alike.  To re-record after a deliberate change of semantics,
print ``_digests(_answers())``.
"""

import hashlib
import json
import random
from fractions import Fraction as F

import pytest

from setopt.arith import format_number, format_vector
from setopt.errors import IterationCapExceeded
from setopt.lp import LinearProgram, lp_feasible, lp_maximize

PROGRAMS = 300
BLOCK = 50


def _coef(rng):
    return F(rng.randint(-6, 6), rng.randint(1, 7))


def _program(rng):
    nv = rng.randint(1, 6)
    eq = [tuple(_coef(rng) for _ in range(nv)) for _ in range(rng.randint(0, 3))]
    ge = [tuple(_coef(rng) for _ in range(nv)) for _ in range(rng.randint(0, 5))]
    bounds = tuple(rng.choice((None, F(0), _coef(rng))) for _ in range(nv))
    if rng.random() < 0.3:
        # feasible through a point on many of its bounds: phase one
        # then ends degenerate, with artificials left in the basis
        point = [(lb or 0) + rng.choice((0, 0, 1)) for lb in bounds]
        eq_rhs = [sum(a * x for a, x in zip(row, point)) for row in eq]
        ge_rhs = [sum(a * x for a, x in zip(row, point)) - rng.choice((0, 1))
                  for row in ge]
    else:
        eq_rhs = [_coef(rng) for _ in eq]
        ge_rhs = [_coef(rng) for _ in ge]
    if eq and rng.random() < 0.2:
        k = rng.randrange(len(eq))
        eq.append(eq[k])
        eq_rhs.append(eq_rhs[k])
    return LinearProgram(objective=tuple(_coef(rng) for _ in range(nv)),
                         eq_lhs=tuple(eq), eq_rhs=tuple(eq_rhs),
                         ge_lhs=tuple(ge), ge_rhs=tuple(ge_rhs),
                         lower_bounds=bounds)


def _as_float(prog):
    def vec(v):
        return tuple(None if x is None else float(x) for x in v)
    return LinearProgram(objective=vec(prog.objective),
                         eq_lhs=tuple(vec(r) for r in prog.eq_lhs),
                         eq_rhs=vec(prog.eq_rhs),
                         ge_lhs=tuple(vec(r) for r in prog.ge_lhs),
                         ge_rhs=vec(prog.ge_rhs),
                         lower_bounds=vec(prog.lower_bounds))


# variant -> (program transform, tolerance passed to the solver)
VARIANTS = {
    "exact": (lambda prog: prog, 0),
    "float": (_as_float, None),
    "exact_tol": (lambda prog: prog, F(1, 1000)),
}


def _point(point):
    return None if point is None else format_vector(point)


def _maximize(prog, tol):
    try:
        out = lp_maximize(prog, tol=tol)
    except IterationCapExceeded:
        return "IterationCapExceeded"
    value = None if out.value is None else format_number(out.value)
    return [out.status, value, _point(out.point)]


def _feasible(prog, tol):
    try:
        out = lp_feasible(prog, tol=tol)
    except IterationCapExceeded:
        return "IterationCapExceeded"
    return [out.feasible, _point(out.point), format_number(out.infeasibility)]


def _answers():
    rng = random.Random(20240611)
    programs = [_program(rng) for _ in range(PROGRAMS)]
    out = {}
    for variant, (transform, tol) in VARIANTS.items():
        for name, solve in (("maximize", _maximize), ("feasible", _feasible)):
            out[(variant, name)] = [solve(transform(p), tol) for p in programs]
    return out


def _digests(answers):
    out = {}
    for (variant, name), rows in answers.items():
        for start in range(0, PROGRAMS, BLOCK):
            text = json.dumps(rows[start:start + BLOCK])
            out[f"{variant}/{name}/{start}"] = \
                hashlib.sha256(text.encode("utf-8")).hexdigest()
    return out


GOLDEN = {
    'exact/feasible/0':
        '3b4831ae4e52a3d48a38d263f510d48cf164f6e57567ba14d1acba9bd1b02910',
    'exact/feasible/100':
        '72c7aa9378866744d4acb9be5e8dbe2c27348d7e8ce9e72bfdd818b4b149c075',
    'exact/feasible/150':
        '2ced5547a28e0f1d226f0caf84d381e771e1cdb2ece45439c8e165ba0f8af11b',
    'exact/feasible/200':
        'bf898e0a8d02805a5624dbf3ee466db3b86c62f2cde13c3e2c61e75e4557a673',
    'exact/feasible/250':
        '3e0feee219911a26b5b8ac146278121082d219f71e453f93d1830acc58a88b0e',
    'exact/feasible/50':
        'ccac92000864f2626a6b29bbfb94ca95fe105dda17bc1b1cf601348e393ba946',
    'exact/maximize/0':
        'e343776fbb96bc0805264d0b6edb3d2556ed81944620c1dc901a9a305a0c36db',
    'exact/maximize/100':
        '8ebe55e1b5e3b7711cb0c524b69a607816ff3adc69d7a6b83d6a283b2a6eea96',
    'exact/maximize/150':
        'ba19767b7811d4c3789e263a4d52538843acc5c1c659347927bfb1a7f806a8a2',
    'exact/maximize/200':
        '2045c2b0e1ca09f5f10c157cba59d19732cf116288b33ab5bfc3ffa84101d543',
    'exact/maximize/250':
        '4912404ef82e2ee60d5275f3c2fd0752fdb97205644422f8cd4b89e90c7fc6c5',
    'exact/maximize/50':
        '0352f4059c60dfe082f3828eeb6455527d542dbb1f1d024aa23c0ec10ebba477',
    'exact_tol/feasible/0':
        '3b4831ae4e52a3d48a38d263f510d48cf164f6e57567ba14d1acba9bd1b02910',
    'exact_tol/feasible/100':
        '72c7aa9378866744d4acb9be5e8dbe2c27348d7e8ce9e72bfdd818b4b149c075',
    'exact_tol/feasible/150':
        '2ced5547a28e0f1d226f0caf84d381e771e1cdb2ece45439c8e165ba0f8af11b',
    'exact_tol/feasible/200':
        'bf898e0a8d02805a5624dbf3ee466db3b86c62f2cde13c3e2c61e75e4557a673',
    'exact_tol/feasible/250':
        '3e0feee219911a26b5b8ac146278121082d219f71e453f93d1830acc58a88b0e',
    'exact_tol/feasible/50':
        'ccac92000864f2626a6b29bbfb94ca95fe105dda17bc1b1cf601348e393ba946',
    'exact_tol/maximize/0':
        'e343776fbb96bc0805264d0b6edb3d2556ed81944620c1dc901a9a305a0c36db',
    'exact_tol/maximize/100':
        '8ebe55e1b5e3b7711cb0c524b69a607816ff3adc69d7a6b83d6a283b2a6eea96',
    'exact_tol/maximize/150':
        'ba19767b7811d4c3789e263a4d52538843acc5c1c659347927bfb1a7f806a8a2',
    'exact_tol/maximize/200':
        '2045c2b0e1ca09f5f10c157cba59d19732cf116288b33ab5bfc3ffa84101d543',
    'exact_tol/maximize/250':
        '4912404ef82e2ee60d5275f3c2fd0752fdb97205644422f8cd4b89e90c7fc6c5',
    'exact_tol/maximize/50':
        '0352f4059c60dfe082f3828eeb6455527d542dbb1f1d024aa23c0ec10ebba477',
    'float/feasible/0':
        '5df4b41cb9abbe45137f540ec76c6c51de455fc31941587b041fabae7f1dde2c',
    'float/feasible/100':
        '0c8fa7569890ef28fd2751d996200552308a3771fa042d0f668e47a211a6d560',
    'float/feasible/150':
        '7f4a800126012b903d1f2a8071a5b3a076862f2169cc72d576b5dd58efa92062',
    'float/feasible/200':
        'f2a69ac1878ef825e61a6dd22fbbcc4689ed9f223bf94698febe28f093d39ef1',
    'float/feasible/250':
        '3e776bf2cd59adf5cf33421bd4d41f282fc0e30d7611a32610e3deb84e5dfa8b',
    'float/feasible/50':
        '17fb0e7be8e872c5ee43f62b8dfa1c38bcc7489558dbb10e3b3aaba50d29f544',
    'float/maximize/0':
        '6f514628d85679ee9b3d93fbc5e620b2274bdd3b47cf4970e5bef722cf730f29',
    'float/maximize/100':
        'be113074d3dda78b2b17ec2900d34f0a09f87ab5bdec83db36f3f88814d158b3',
    'float/maximize/150':
        'f48858a45337e0b56648631b7e14100afec17ba20d5bf6121e05f17816954f1d',
    'float/maximize/200':
        '6445abd0fe4686d1d15ace123a0a84ce223112bf5b29093a7da1a8d9700a749f',
    'float/maximize/250':
        '34547ccf0799fe70cb5659c0dc9eb08bdf103faf1a03a5eeffe47b2662205c60',
    'float/maximize/50':
        '73dc9ffb3ae655304a6a3fcdf2cf5879059519dc50289653d44036ede97ff39a',
}


@pytest.fixture(scope="module")
def answers():
    return _answers()


@pytest.fixture(scope="module")
def digests(answers):
    return _digests(answers)


def test_programs_cover_every_status(answers):
    statuses = [a[0] for a in answers[("exact", "maximize")]]
    for status in ("optimal", "unbounded", "infeasible"):
        assert statuses.count(status) >= 50


def test_every_block_is_pinned(digests):
    assert sorted(digests) == sorted(GOLDEN)


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_answers_match_recorded_digests(key, digests):
    assert digests[key] == GOLDEN[key]
