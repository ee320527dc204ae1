"""Answers pinned by digest, and repeated questions on one instance.

Each question's ``to_json_dict()`` (or the threshold map) is hashed
with sha256.  The digests were recorded before instances memoized
their point margins and candidate pools, so a cached answer must match
the answer computed from scratch byte for byte.  To re-record after a
deliberate change of semantics, print ``_digests(_fresh_answers())``.
"""

import hashlib
import itertools
import json
import random
from fractions import Fraction as F

import pytest

from setopt.arith import format_number, format_vector
from setopt.cone import validate_cone
from setopt.errors import CapExceeded
from setopt.imagesets import (minimal_vertices, point_margin_with_multipliers,
                              polytope, strong_membership_slack)
from setopt.instance import make_example
from setopt.solver_direct import CONCEPTS, solve_direct, weak_threshold
from setopt.vectorizer import VP_KINDS, membership_vp, minimal_p

# name -> (example, params, exact, explicit tolerance); on the integer
# data of the finite examples a tolerance of 1 turns ties into verdicts
INSTANCES = {
    "mfdvp_exact": ("mfdvp", {}, True, F(1)),
    "mfdvp_float": ("mfdvp", {}, False, 1.0),
    "t_one_g5": ("t_one", {"g": 5}, True, F(1, 1000)),
    "random_finite_s3": ("random_finite", {"seed": 3}, True, F(1)),
    "convex_polyhedral_s3_g4": ("convex_polyhedral", {"seed": 3, "g": 4},
                                True, F(1, 1000)),
}


def _make(name):
    example, params, exact, _ = INSTANCES[name]
    return make_example(example, params, exact=exact)


def _questions(name, labels):
    """(question id, function of the instance) in a fixed order."""
    exact = INSTANCES[name][2]
    explicit = INSTANCES[name][3]
    seventh = F(1, 7) if exact else 1 / 7
    qs = []
    for concept in CONCEPTS:
        for eps_id, eps in (("0", 0), ("1/7", seventh)):
            qs.append((f"solve_direct/{concept}/{eps_id}",
                       lambda inst, c=concept, e=eps: solve_direct(inst, c, e)))
    qs.append(("weak_threshold", weak_threshold))
    for kind in VP_KINDS:
        for p in (1, 2, 3):
            qs.append((f"membership_vp/{kind}/{p}",
                       lambda inst, k=kind, p=p: membership_vp(inst, p, 0, k)))
    for kind in VP_KINDS:
        for lab in labels:
            qs.append((f"minimal_p/{kind}/{lab}",
                       lambda inst, k=kind, l=lab: minimal_p(inst, l, 0, k)))
    # the same questions at an explicit tolerance: the memo is per tol
    qs.append(("tol/solve_direct/type1/0",
               lambda inst: solve_direct(inst, "type1", 0, explicit)))
    qs.append(("tol/weak_threshold",
               lambda inst: weak_threshold(inst, explicit)))
    for kind in VP_KINDS:
        qs.append((f"tol/membership_vp/{kind}/2",
                   lambda inst, k=kind: membership_vp(inst, 2, 0, k,
                                                      explicit)))
        qs.append((f"tol/minimal_p/{kind}/{labels[0]}",
                   lambda inst, k=kind: minimal_p(inst, labels[0], 0, k,
                                                  explicit)))
    return qs


def _answer(fn, inst):
    try:
        out = fn(inst)
    except CapExceeded:
        return "CapExceeded"
    if isinstance(out, dict):
        return {lab: format_number(v) for lab, v in out.items()}
    return out.to_json_dict()


def _digest(answer) -> str:
    text = json.dumps(answer, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _fresh_answers():
    """Every question asked of a newly built instance."""
    out = {}
    for name in INSTANCES:
        labels = _make(name).labels
        for qid, fn in _questions(name, labels):
            out[f"{name}/{qid}"] = _answer(fn, _make(name))
    return out


def _shared_answers(rounds=2):
    """Every question asked ``rounds`` times of one instance per name."""
    out = {}
    for name in INSTANCES:
        inst = _make(name)
        for r in range(rounds):
            for qid, fn in _questions(name, inst.labels):
                out[(r, f"{name}/{qid}")] = _answer(fn, inst)
    return out


def _digests(answers):
    return {key: _digest(ans) for key, ans in answers.items()}


GOLDEN = {
    'mfdvp_exact/solve_direct/weak/0':
        'ee0e2374c2cf7b7b342d7477623b730c17c586620ce14f2e8d9baba35e22af77',
    'mfdvp_exact/solve_direct/weak/1/7':
        '06e11d10467a505ac8166c3ed5d788c6ffd08edb65ab23b1c76ee479bb917049',
    'mfdvp_exact/solve_direct/type1/0':
        '9b2e3ff9541226d05fce0434e5d1b3bc851cb227fbe284fca77c067ed69d41d7',
    'mfdvp_exact/solve_direct/type1/1/7':
        '16332286dcf27d9cfc2c1e0d97b46ea886ed564c420045f8f946b4d193d86c69',
    'mfdvp_exact/solve_direct/type2/0':
        'e02f1e5b35d2d0341019f76865458f34f52e71eb4ecf31142422b0b7557a1024',
    'mfdvp_exact/solve_direct/type2/1/7':
        'af28119d832f8033f0e65501abb6f8a94f2f5a8abc25f5e95e9b5bd30d249832',
    'mfdvp_exact/weak_threshold':
        'd34ea400253813197ce4f33059df15cb9ce2ed2c1366d578d6e599d2572d4333',
    'mfdvp_exact/membership_vp/weak/1':
        'ef888b65be59826f69ab8d95a0903b6fd9463e9dbfe68d4cba3dabab75f98b13',
    'mfdvp_exact/membership_vp/weak/2':
        '47f3443bc2da8ee3ae174eb3a012a24ea8b9c8eaccc6df722a3008105d12f959',
    'mfdvp_exact/membership_vp/weak/3':
        '1fdcb6cb60f88a0e1cb0e58ea951b8aa44e5989284536a74c56f324e2e6ff008',
    'mfdvp_exact/membership_vp/min/1':
        '01cb327d3fc05560965b6a4841b14e234c71c3dfd0f7920039183386674841ac',
    'mfdvp_exact/membership_vp/min/2':
        '0ae3d3cf284e0db7e3fb89f81edd1c4de296a623183348c9be418ed6d5979c69',
    'mfdvp_exact/membership_vp/min/3':
        '1c2d452eb4236bf12db715d7d30a6bacae84ecf4e25dd1fdf46c48c6956aae2a',
    'mfdvp_exact/minimal_p/weak/0':
        'd65d8b0a1d1e8c68248b81924555e4012e2d78368ea91501f31f2a4eb372c73c',
    'mfdvp_exact/minimal_p/weak/1':
        '3268b88bcccbc65b6390c0a70652807c4b4c9d3d7cc147018d5362a82dba3f06',
    'mfdvp_exact/minimal_p/weak/2':
        '7fcf68c7870dde27ebc011b0f336809ab1f980db4fd807bc6984d732b61b7453',
    'mfdvp_exact/minimal_p/min/0':
        'df5c28db58151a1c44f6b8859ff53a72ea6b8f31cf0405823ccf226f577289c8',
    'mfdvp_exact/minimal_p/min/1':
        '0667976e71e86239ec319a8a6e272010be84accc946ac7be396625d99d4615f6',
    'mfdvp_exact/minimal_p/min/2':
        'bdecc94c9567d56bf1d9a46dfb54f0ecccf4e3765bf52348ef80b41c7ceb0f2d',
    'mfdvp_exact/tol/solve_direct/type1/0':
        '119cd69468f97b0dea52a4384484362cda2b865349bb8a8c997f9eb9b2c69a4a',
    'mfdvp_exact/tol/weak_threshold':
        'd34ea400253813197ce4f33059df15cb9ce2ed2c1366d578d6e599d2572d4333',
    'mfdvp_exact/tol/membership_vp/weak/2':
        'f421287fcde6135878661c4c9f298a643331230e6f3200e2bc0b79c91d18f6af',
    'mfdvp_exact/tol/minimal_p/weak/0':
        'c0396fcef81de7da1945b8b81ff96faf314e9fba9e695f412ddc9fdd772d825d',
    'mfdvp_exact/tol/membership_vp/min/2':
        '650722f6d7af03e7318c7748d7cc4c2196b2474b3abd0b2ede681efa4672c6f7',
    'mfdvp_exact/tol/minimal_p/min/0':
        'df5c28db58151a1c44f6b8859ff53a72ea6b8f31cf0405823ccf226f577289c8',
    'mfdvp_float/solve_direct/weak/0':
        'd0b299139c3a3bfd8b2e57fe0f56bf1bcabb3e9da4e15db040a7ded8b478ebd6',
    'mfdvp_float/solve_direct/weak/1/7':
        'dbd3330b7f4aaf15a64ae4184d17d8859a1ce083fc86e69a1840c3c3d8030c04',
    'mfdvp_float/solve_direct/type1/0':
        'd751e23d9967bdfbe8612ec9b6ac114a36546cbe6b8d1545572ac020fa52f0af',
    'mfdvp_float/solve_direct/type1/1/7':
        'a5070658477cd9617938d292a1e0e5ddffafdbcffe2ce0dbde567fb7867d3256',
    'mfdvp_float/solve_direct/type2/0':
        'e02f1e5b35d2d0341019f76865458f34f52e71eb4ecf31142422b0b7557a1024',
    'mfdvp_float/solve_direct/type2/1/7':
        '7dab0a9acbf993cb2fb83c7873ef0bb9228d0f6e2fa02644255472fc7ad595b9',
    'mfdvp_float/weak_threshold':
        '4e021da825dd752dbf3bd4173fea886cef571c6d25edf8def3bb162e4a28947d',
    'mfdvp_float/membership_vp/weak/1':
        '317a9645dfc53d7f2322019ee043c822b6b5957fbdbe96b8b95e10209bd16d91',
    'mfdvp_float/membership_vp/weak/2':
        '4b96e6f60d5e15b5f5b67fd341f141761e09da2f700fd8729427258cd900b695',
    'mfdvp_float/membership_vp/weak/3':
        '6247038d547c7a2fa0da52fe19ebf6bf5ebafd7ea0fbc77d4fac3cf89fa5cc60',
    'mfdvp_float/membership_vp/min/1':
        '6dc07a93518ee335c3809b89b56963e9cc8e15e328bc87d7f94461ce74b60067',
    'mfdvp_float/membership_vp/min/2':
        '39f945c1dd8423d399bc89a266d00cd6fa7b14d13e73a3332fd26b63ea6b7bd7',
    'mfdvp_float/membership_vp/min/3':
        '807001ba6db35abc9688f25e5a9c881034bc0bf244a0ff06af78b6604b8d7ba6',
    'mfdvp_float/minimal_p/weak/0':
        '6f962f5fa7d35fdd723d61f6865cdb8ae917ec1be9a3ee61e9a217d5cba4a49c',
    'mfdvp_float/minimal_p/weak/1':
        '300d3e320620f164e5e9ad9b60c461494954d05a82e6a0a4e4ac65a2c19bde12',
    'mfdvp_float/minimal_p/weak/2':
        'd8a5a3438025f2c957dcebafb017521b32e8633bd59bd068805ee1f3d49dc202',
    'mfdvp_float/minimal_p/min/0':
        'df5c28db58151a1c44f6b8859ff53a72ea6b8f31cf0405823ccf226f577289c8',
    'mfdvp_float/minimal_p/min/1':
        '2a53d856602254192c81a22d9cb49ab1610322de1aa6d5485e339009c21839e2',
    'mfdvp_float/minimal_p/min/2':
        '4450a7b51eae258bbf3fa9545989b5013d57c2c20611b77960c5ae4b4772ee44',
    'mfdvp_float/tol/solve_direct/type1/0':
        '119cd69468f97b0dea52a4384484362cda2b865349bb8a8c997f9eb9b2c69a4a',
    'mfdvp_float/tol/weak_threshold':
        '4e021da825dd752dbf3bd4173fea886cef571c6d25edf8def3bb162e4a28947d',
    'mfdvp_float/tol/membership_vp/weak/2':
        '764a183ebacd8b1c2b3a316857f2880b0b8f86eb71779f673f2a14fc991dcf80',
    'mfdvp_float/tol/minimal_p/weak/0':
        'e0fc4d697503fe4e9bd0a6db35d4693d5b4777e8788fc47df20627c4bbc86c29',
    'mfdvp_float/tol/membership_vp/min/2':
        '543f452c284b7dd8ac4849ff1a3c19b63cb13aa5f68c8010ee3a195a720df356',
    'mfdvp_float/tol/minimal_p/min/0':
        'df5c28db58151a1c44f6b8859ff53a72ea6b8f31cf0405823ccf226f577289c8',
    't_one_g5/solve_direct/weak/0':
        'c34bf4ebe13aff73397edd1476ed8531a5ade0fdba6cabab3cdd8aa1ee0b5a2c',
    't_one_g5/solve_direct/weak/1/7':
        'f4f4af874f32ce9dec7057aee8aeb6df71d333b46031cf1687043601309bcbcd',
    't_one_g5/solve_direct/type1/0':
        '8b0592d6cd044f2da343147bebcc76455a5548547834d57e6b4779e28306f3a3',
    't_one_g5/solve_direct/type1/1/7':
        'b1428ff5d5b8b69d5ef45bc424842f7046b228232c1ccb6542eab57248fb3229',
    't_one_g5/solve_direct/type2/0':
        '6339a806a4d6aa3ff2049d9abdc3bcc3b797817edf5768ab4f2498d9bafdf20e',
    't_one_g5/solve_direct/type2/1/7':
        'a6f176386123a6af2f003b66845c58347911627d327034ef62bee6334d4a54d9',
    't_one_g5/weak_threshold':
        '39a2953d2857aa1627ea233ead31491b3132b005854dc0b9beca1cd47a795271',
    't_one_g5/membership_vp/weak/1':
        '7a071d581c721898fd9ce2c412890e0e4c6f549c792b39e368100f4a8e9b1d53',
    't_one_g5/membership_vp/weak/2':
        '25a2dd37df9c8452b2a0d13874ce9f76e4a1094a78f7f5dabb2e47dae451ee00',
    't_one_g5/membership_vp/weak/3':
        'a829b2bb5f86fb7f039c5172e8abeba7b96de7642cd3d9e5ae4e2101ea1abbd9',
    't_one_g5/membership_vp/min/1':
        '9e21165e11acb937f8466e1096ecfc37f8170a087a786aba12e63f5b9e5310e4',
    't_one_g5/membership_vp/min/2':
        'e970ee70f4b6e6eb56861ed28562034b076adeefbfe694c76cb09646a4cfcac3',
    't_one_g5/membership_vp/min/3':
        '6980bf018c9cc804d36a28da8e9d68b707aeb515127201adeafcf2caa104d782',
    't_one_g5/minimal_p/weak/1/4':
        '11132de9cec7bc29f41eac90b42bc9edd3fc635b16a33a61acdae303b492efe2',
    't_one_g5/minimal_p/weak/5/16':
        '681ae7b9f6ace4b92954885109a0c4ece9fa3a9899c6cd26d2a12fbc9d8a0ce6',
    't_one_g5/minimal_p/weak/3/8':
        'd684f6bda4b6bed8ff8af3cb83fcc5f564d3ecf7e92d49a323bd9ae959009929',
    't_one_g5/minimal_p/weak/7/16':
        '8f6b22144832c92c0d680d7f3d422ee071b3347840e1441eb33c0044a460823b',
    't_one_g5/minimal_p/weak/1/2':
        '7322be4c8875aa1db88ae53c4986035eaf9dd5968bf25324cea6a93e5e831cf4',
    't_one_g5/minimal_p/min/1/4':
        'a17e1c095216416c0cad4bc6303a09fe1ce0d36857a1418e76aa9a1e7e2ba272',
    't_one_g5/minimal_p/min/5/16':
        '04042d3d927ded84a2a5ec6a9dddc81bd72d4dfc6f9f36ec4cd8e6f08fe114df',
    't_one_g5/minimal_p/min/3/8':
        'f6e0a32f683f92d7f98ccd443ab6478692e2f32d566f3ded453e9868f45f80b2',
    't_one_g5/minimal_p/min/7/16':
        'b9be2d7c9718ec89cbe423dd055c59e2367af0d03273fb03f051040d65e9424d',
    't_one_g5/minimal_p/min/1/2':
        'ea44b1afab6981804b4c1513624ece4a620f3a36d59ba8233eca51283b1ea216',
    't_one_g5/tol/solve_direct/type1/0':
        '8b0592d6cd044f2da343147bebcc76455a5548547834d57e6b4779e28306f3a3',
    't_one_g5/tol/weak_threshold':
        '39a2953d2857aa1627ea233ead31491b3132b005854dc0b9beca1cd47a795271',
    't_one_g5/tol/membership_vp/weak/2':
        '25a2dd37df9c8452b2a0d13874ce9f76e4a1094a78f7f5dabb2e47dae451ee00',
    't_one_g5/tol/minimal_p/weak/1/4':
        '11132de9cec7bc29f41eac90b42bc9edd3fc635b16a33a61acdae303b492efe2',
    't_one_g5/tol/membership_vp/min/2':
        'e970ee70f4b6e6eb56861ed28562034b076adeefbfe694c76cb09646a4cfcac3',
    't_one_g5/tol/minimal_p/min/1/4':
        'a17e1c095216416c0cad4bc6303a09fe1ce0d36857a1418e76aa9a1e7e2ba272',
    'random_finite_s3/solve_direct/weak/0':
        '4c77eed898ca17002302cd1a91fb5420bb13118196fe2fa20681068777d9ffde',
    'random_finite_s3/solve_direct/weak/1/7':
        'e186a10d19c92900081a0c33fff1e91f2f4d5be1ccb475f1a60954cb6f0a14c2',
    'random_finite_s3/solve_direct/type1/0':
        '38d90ca2a04e0aaf1f048d723cc0a9e509c7f2dbaca2c16c6ae94f526730c105',
    'random_finite_s3/solve_direct/type1/1/7':
        '9f757f759eb9c4396a3d098e15e80592818d4228d9a25b545145619cdf8980c3',
    'random_finite_s3/solve_direct/type2/0':
        'c59d451ecceca1c145b10ac7686ff9f643e8787452eecfd96a28b2758b6928af',
    'random_finite_s3/solve_direct/type2/1/7':
        'ab7e3bd9a9972c7b000742215d9e74f86cfea78e2599e64d9f9e712012e1229c',
    'random_finite_s3/weak_threshold':
        'ab13ae2426bd001e737abe811e10e3b7debece2279614e1e2f158cc826b4376d',
    'random_finite_s3/membership_vp/weak/1':
        'e6282b49598f36ed105d8041580255ad64e83486cd16570e875e447309c985d0',
    'random_finite_s3/membership_vp/weak/2':
        '352b0d86cc77f3a82d3ab74cc79a909292ceb16ed55b320b34d96c2a8d21103b',
    'random_finite_s3/membership_vp/weak/3':
        'f2f01adb9d2d42e55e90b0627ddf9881d3a86dad1dbfcfedcdc4fe8f61b9a2c5',
    'random_finite_s3/membership_vp/min/1':
        '7c545eb01db4218a6bf371da905c9976f80842ed8349b164cbfe5563628fdc16',
    'random_finite_s3/membership_vp/min/2':
        '2e80627c5f5a0a778be0df6e6b53bbfd3d5ccdd69a4d279d9da972c98fbe1725',
    'random_finite_s3/membership_vp/min/3':
        '7e825f3ab7cf4651a9dc9845c31749562386c2d70f673086a98c7fd72239a70f',
    'random_finite_s3/minimal_p/weak/0':
        'abf6b2220e303a316abd9b5de4d72e86c36cc65acc239b18c67f0933ce14a2e7',
    'random_finite_s3/minimal_p/weak/1':
        '37a3608f7e41718e5caf3a0cb1539bf001d37ac66e8487bc08cfa35e5b771ddf',
    'random_finite_s3/minimal_p/weak/2':
        '3fe52651672df6212760ae5167ae48af1c33cfa2551510bf709b917910ea0e0d',
    'random_finite_s3/minimal_p/weak/3':
        '476b46dded1f9629483ccd6c97359264b8a8dda4ec2a4b4f4ef63ac7e4e46093',
    'random_finite_s3/minimal_p/weak/4':
        '199c7314278f4a90e0b5e90d83ec67f0191906572a8065ac05ddecedf6b3952e',
    'random_finite_s3/minimal_p/weak/5':
        '156aff7c8afc03837e70bf0b84f595304221bd292b2289c82c197e98ac859475',
    'random_finite_s3/minimal_p/min/0':
        'df5c28db58151a1c44f6b8859ff53a72ea6b8f31cf0405823ccf226f577289c8',
    'random_finite_s3/minimal_p/min/1':
        '7da7eeab444e236b4bf7b887ee81f80b00688ce014dce572bf58359157f940a1',
    'random_finite_s3/minimal_p/min/2':
        '31d7a376706b0f821cd03ec321b854959a3459cd7354b54519094da2f0a34849',
    'random_finite_s3/minimal_p/min/3':
        '200f668086813cc76f1e8358e420a849f88be03aa9e5d234146cbc43fbfbb2ba',
    'random_finite_s3/minimal_p/min/4':
        'a75baed8ca8ef4250d14453c01d150e4c0aa532eb4e53f5166787eec247e3fac',
    'random_finite_s3/minimal_p/min/5':
        'e2ce0143eb04958477f86592424f1ea80cab3ad6fcf1494d93c8900684428751',
    'random_finite_s3/tol/solve_direct/type1/0':
        '8c4dbcb71837a3f066a1482b1541ad745137ecda3003b2545e938ecd423f4e8a',
    'random_finite_s3/tol/weak_threshold':
        'ab13ae2426bd001e737abe811e10e3b7debece2279614e1e2f158cc826b4376d',
    'random_finite_s3/tol/membership_vp/weak/2':
        '206bb2557a87280daee0d1428bb6ba07bd33c874b6c2a7236f1fdb3db7c42f84',
    'random_finite_s3/tol/minimal_p/weak/0':
        'abf6b2220e303a316abd9b5de4d72e86c36cc65acc239b18c67f0933ce14a2e7',
    'random_finite_s3/tol/membership_vp/min/2':
        '57fea6a3af9a298f3e3c86237eff713e8b88da6bd6bcebfaa05c9205f27d27df',
    'random_finite_s3/tol/minimal_p/min/0':
        'df5c28db58151a1c44f6b8859ff53a72ea6b8f31cf0405823ccf226f577289c8',
    'convex_polyhedral_s3_g4/solve_direct/weak/0':
        '89ccab5a3f93b50fbb5ca0ef3f7ed1fe5e70087db3d64f391ad96b231cdb9858',
    'convex_polyhedral_s3_g4/solve_direct/weak/1/7':
        '676eb4e8e38a9e2921258a36b189f665eeb7a90958268c7b0a704bb1691cf6ce',
    'convex_polyhedral_s3_g4/solve_direct/type1/0':
        'b3373c067040860bdc7bb0f41bfbb5f85d9b5d867d679d717e8c7ae84019f6f2',
    'convex_polyhedral_s3_g4/solve_direct/type1/1/7':
        'b5a532c67fef723cf6cd2991ce3b7dab9b4a33cc53fdec434e10c010f97d7748',
    'convex_polyhedral_s3_g4/solve_direct/type2/0':
        '2ab82e2f08d9cb42fec61289c17191925029b7b8727b1afcd86aea8cc579165f',
    'convex_polyhedral_s3_g4/solve_direct/type2/1/7':
        'cc30f3e4d0f406bfb3a233fa24dc46c66b4c800771b95edef33c1fa875b216ec',
    'convex_polyhedral_s3_g4/weak_threshold':
        '4b1a90d17869b892c0617caf56fc4c4df488fa3b550d7cdd86d61deda250336b',
    'convex_polyhedral_s3_g4/membership_vp/weak/1':
        '02117c992c395cd5177a6312bd3efc0c7b73b37dc8f3821d7acc0106f2100fb6',
    'convex_polyhedral_s3_g4/membership_vp/weak/2':
        '4786e9ec3b0ce42c10ca263a5811af47e66363d37e20be50ce8c961d5ec37c77',
    'convex_polyhedral_s3_g4/membership_vp/weak/3':
        '2194fa7bc3622dc328ea68d5c93832edf46888fff178164db044f1ba250e803c',
    'convex_polyhedral_s3_g4/membership_vp/min/1':
        '1cf4402687250618d86eb4f1e26b7921a949e2aa6a867c3f7dda775f6d4fce47',
    'convex_polyhedral_s3_g4/membership_vp/min/2':
        '899dbae33b58cea00693dda389fc55000aff054c7d38e88cb251ef9e264d16e3',
    'convex_polyhedral_s3_g4/membership_vp/min/3':
        '69f350465bc60ccf3ff35b41d5543b134e6a514c79f64aae5a7046ec940207c6',
    'convex_polyhedral_s3_g4/minimal_p/weak/0':
        '7513e316752a5a252dde4d9454d75b50bdfe969bf92c19984a59333e78a7db1d',
    'convex_polyhedral_s3_g4/minimal_p/weak/1/3':
        '639ab140db6ed44e71c95dd94015e42254d204e27ad4ed2e4acf7250aa92ebe5',
    'convex_polyhedral_s3_g4/minimal_p/weak/2/3':
        'b5dcebdf8321469dc44a4b8e2803a000964f3dda4db760f60c24be8805024b9b',
    'convex_polyhedral_s3_g4/minimal_p/weak/1':
        '466f52714c57f9320fe513f64d301f3be7fb965517b1c04e94fdcadcd5807496',
    'convex_polyhedral_s3_g4/minimal_p/min/0':
        '788c2d1bfbedf16f24a952badaa3ab58f8142b16c47437a9a5c38faa8d8007d3',
    'convex_polyhedral_s3_g4/minimal_p/min/1/3':
        '7a8609175e7224bf4bd46e4674a82c5e6244fdc0a67e81c4cc5f0a4a8c171c49',
    'convex_polyhedral_s3_g4/minimal_p/min/2/3':
        '0b8b55369eac4e647f3d81112dd7117d10e7f8314b545abc4f41f4e434f46142',
    'convex_polyhedral_s3_g4/minimal_p/min/1':
        '3555c65ff753a661e7ea661729346909a25863e3aded265e7b4c4ec2c950093f',
    'convex_polyhedral_s3_g4/tol/solve_direct/type1/0':
        'b3373c067040860bdc7bb0f41bfbb5f85d9b5d867d679d717e8c7ae84019f6f2',
    'convex_polyhedral_s3_g4/tol/weak_threshold':
        '4b1a90d17869b892c0617caf56fc4c4df488fa3b550d7cdd86d61deda250336b',
    'convex_polyhedral_s3_g4/tol/membership_vp/weak/2':
        '4786e9ec3b0ce42c10ca263a5811af47e66363d37e20be50ce8c961d5ec37c77',
    'convex_polyhedral_s3_g4/tol/minimal_p/weak/0':
        '7513e316752a5a252dde4d9454d75b50bdfe969bf92c19984a59333e78a7db1d',
    'convex_polyhedral_s3_g4/tol/membership_vp/min/2':
        '899dbae33b58cea00693dda389fc55000aff054c7d38e88cb251ef9e264d16e3',
    'convex_polyhedral_s3_g4/tol/minimal_p/min/0':
        '788c2d1bfbedf16f24a952badaa3ab58f8142b16c47437a9a5c38faa8d8007d3',
}


@pytest.fixture(scope="module")
def fresh():
    return _fresh_answers()


def test_fresh_answers_match_recorded_digests(fresh):
    assert _digests(fresh) == GOLDEN


def test_shared_instance_answers_equal_fresh_ones(fresh):
    shared = _shared_answers()
    assert {key for _, key in shared} == set(fresh)
    for (_, key), ans in shared.items():
        assert ans == fresh[key], key


# Polytope questions under cones other than the orthant, whose float
# cone products a_j.v round; the digests were recorded before polytope
# images kept those products.  Both cones live in the plane, and every
# image is asked under one cone and then the other, so a product kept
# for the wrong cone would change an answer.
CONES = {
    "two_row": ([[2, 1], [1, 3]], [1, 1]),
    "three_row": ([[1, F(1, 3)], [F(1, 5), 1], [1, F(-1, 7)]], [1, 1]),
}
QUESTIONS = ("point_margin", "strong_slack", "minimal_vertices")


def _rational(rng):
    return F(rng.randint(-12, 12), rng.randint(1, 5))


def _polytope_answers(exact):
    cast = (lambda v: v) if exact else float
    cones = {cid: validate_cone([[cast(F(v)) for v in row] for row in rows],
                                [cast(F(v)) for v in e])
             for cid, (rows, e) in CONES.items()}
    rng = random.Random(20)
    out = {(cid, q): [] for cid in CONES for q in QUESTIONS}
    for _ in range(12):
        verts = [tuple(cast(_rational(rng)) for _ in range(2))
                 for _ in range(rng.randint(3, 7))]
        probes = verts + [tuple(cast(_rational(rng)) for _ in range(2))
                          for _ in range(4)]
        img = polytope(verts)
        for _ in range(2):
            for cid, cone in cones.items():
                for b in probes:
                    value, lam = point_margin_with_multipliers(b, img, cone)
                    out[cid, "point_margin"].append(
                        [format_number(value),
                         None if lam is None else format_vector(lam)])
                    holds, _, lam = strong_membership_slack(b, img, cone)
                    out[cid, "strong_slack"].append(
                        [holds, None if lam is None else format_vector(lam)])
                out[cid, "minimal_vertices"].append(
                    [format_vector(v) for v in minimal_vertices(img, cone)])
    return {f"{cid}/{q}": ans for (cid, q), ans in out.items()}


def _polytope_digests():
    return {f"{mode}/{key}": _digest(ans)
            for mode, exact in (("exact", True), ("float", False))
            for key, ans in _polytope_answers(exact).items()}


POLYTOPE_GOLDEN = {
    'exact/two_row/point_margin':
        '2dd56c787658733faf48f009a4b6cd728a7133685f65918ad919127ccdfe8eac',
    'exact/two_row/strong_slack':
        '9bd32e69674b844efcc3aeb63b1aca28d0c767a27f6f146a6fcc076c055cf28f',
    'exact/two_row/minimal_vertices':
        '41d851076457dbfac452e239e1e91f420368697e9f5ead797d31d50507bb24c8',
    'exact/three_row/point_margin':
        'ddc5e744cacd5e5f0522e87b26a39f8df02abdfcbe9d189354ba37b6cfbc54a4',
    'exact/three_row/strong_slack':
        '3ec3d6ca2596cf3db589d908f491af4777f498800edb3abd77ce8a3eae7b988a',
    'exact/three_row/minimal_vertices':
        '758782a0d07963cc86b46ca768e89e30ab542a335077d2d2ce4aa1b0c2353a15',
    'float/two_row/point_margin':
        'f25d470e570709c5d653bcc753b278e2de64f07b3597e1782374a9599604cd41',
    'float/two_row/strong_slack':
        'b36b9c7e813d52e1e4a62c7f52d8215b104d73f0aad6d02632a9cb8963ab0143',
    'float/two_row/minimal_vertices':
        '14fad12e4a5647a9e8b2c94fbf55a1064a028e4adeaaa566921368564654da76',
    'float/three_row/point_margin':
        'bc4fa4ca04f2b8100ac06f5cc2e9fcaf06d220f00a954fe32c470f4bea9b69f9',
    'float/three_row/strong_slack':
        'e9f684cd9a25826c8673a0bf06838d296c45437e9245baa7071b62ed67d63247',
    'float/three_row/minimal_vertices':
        'b4e17ddeb6616d89413ef238956886e16af925b281006139f66388cff9a4808e',
}


def test_polytope_answers_under_skew_cones_match_recorded_digests():
    assert _polytope_digests() == POLYTOPE_GOLDEN


# Finite answers under cones other than the orthant.  With the orthant
# and e = (1, 1) every a_j.e is 1, so a cone coordinate a_j.y / a_j.e
# is a point coordinate and no scale can go wrong; these cones have
# a_j.e of 3 and 4, and of 7/6, 7/10 and 13/14.  The images have
# fractional points, repeated points, points shared between images
# and points exactly (1/7)e below a point of another image, so ties
# and the distinct-witness test of the min kind are reached.  Both
# instances share their image objects and are asked in turn, twice.
# The digests were recorded before finite images kept cone
# coordinates.
FINITE_CONES = {
    "two_row": ([[2, 1], [1, 3]], [1, 1]),
    "three_row": ([[1, F(1, 3)], [F(1, 5), 1], [1, F(-1, 7)]], [1, F(1, 2)]),
}
FINITE_FAMILIES = ("point_margin", "strong_slack", "set_relation",
                   "min_elements", "solve_direct", "weak_threshold",
                   "membership_vp", "minimal_p", "tol")


def _finite_images(rng, scattered):
    images = []
    for _ in range(6):
        # scattered, or near the line y1 + y2 = off, along which both
        # cones leave points incomparable, so that budgets above 1 are
        # needed
        pts = []
        off = F(rng.randint(-2, 2), 2)
        for _ in range(rng.randint(3, 6)):
            t = F(rng.randint(-12, 12), rng.randint(1, 3))
            pts.append((_rational(rng), _rational(rng)) if scattered else
                       (t + F(rng.randint(-3, 3), rng.randint(1, 4)),
                        off - t + F(rng.randint(-3, 3), rng.randint(1, 4))))
        pts.append(pts[rng.randrange(len(pts))])
        if images:
            q = rng.choice(rng.choice(images))
            pts.append(q)
            pts.append((q[0] - F(1, 7), q[1] - F(1, 7)))
            pts.append((q[0] - F(1, 7), q[1] - F(1, 14)))
        rng.shuffle(pts)
        images.append(pts)
    return images


def _relation_json(holds, cert):
    return [holds, cert.kind, format_number(cert.epsilon),
            [[format_vector(w.target),
              None if w.point is None else format_vector(w.point),
              None if w.multipliers is None else format_vector(w.multipliers)]
             for w in cert.witnesses],
            None if cert.failing_target is None
            else format_vector(cert.failing_target)]


def _finite_layouts(exact):
    """The two seeded layouts: ``(images, probes, {cone id: instance})``."""
    from setopt.imagesets import finite_set
    from setopt.instance import build_instance

    cast = (lambda v: v) if exact else float
    rng = random.Random(31)
    cones = {cid: validate_cone([[cast(F(v)) for v in row] for row in rows],
                                [cast(F(v)) for v in e])
             for cid, (rows, e) in FINITE_CONES.items()}
    layouts = []
    for scattered in (False, True):
        images = [finite_set([tuple(cast(v) for v in p) for p in pts])
                  for pts in _finite_images(rng, scattered)]
        probes = [tuple(cast(_rational(rng)) for _ in range(2))
                  for _ in range(6)]
        probes += [p for img in images for p in img.points[:3]]
        decisions = [(str(i), (cast(F(i)),)) for i in range(len(images))]
        layouts.append((images, probes, {
            cid: build_instance(cone, decisions, images, exact=exact)
            for cid, cone in cones.items()}))
    return layouts


def _finite_answers(exact):
    from setopt.imagesets import min_elements
    from setopt.setrelations import RELATION_KINDS, set_relation

    seventh = F(1, 7) if exact else 1 / 7
    small = F(1, 1000) if exact else 0.001
    layouts = _finite_layouts(exact)
    cones = layouts[0][2]
    rounds = []
    for _ in range(2):
        out = {(cid, fam): [] for cid in FINITE_CONES
               for fam in FINITE_FAMILIES}
        for (images, probes, insts), cid in itertools.product(layouts, cones):
            inst = insts[cid]
            cone, labels = inst.cone, inst.labels
            add = lambda fam, ans, cid=cid: out[cid, fam].append(ans)
            for img in images:
                for b in probes:
                    value, lam = point_margin_with_multipliers(b, img, cone)
                    add("point_margin", [format_number(value), lam])
                    for eps in (0, seventh):
                        shifted = tuple(y - eps * d for y, d in zip(b, cone.e))
                        holds, point, lam = strong_membership_slack(
                            shifted, img, cone)
                        add("strong_slack", [holds, None if point is None
                                             else format_vector(point), lam])
                for weak in (False, True):
                    for tol in (None, small):
                        add("min_elements", [format_vector(p) for p in
                                             min_elements(img, cone, weak, tol)])
            for a in images:
                for b in images:
                    for kind in RELATION_KINDS:
                        for eps in (0, seventh):
                            add("set_relation", _relation_json(
                                *set_relation(a, b, cone, kind, eps)))
            for concept in CONCEPTS:
                for eps in (0, seventh):
                    add("solve_direct",
                        solve_direct(inst, concept, eps).to_json_dict())
            add("weak_threshold", {lab: format_number(v) for lab, v in
                                   weak_threshold(inst).items()})
            for kind in VP_KINDS:
                for eps in (0, seventh):
                    for p in (1, 2, 3):
                        add("membership_vp", membership_vp(
                            inst, p, eps, kind).to_json_dict())
                    for lab in labels:
                        add("minimal_p", minimal_p(
                            inst, lab, eps, kind).to_json_dict())
            for concept in CONCEPTS:
                add("tol", solve_direct(inst, concept, seventh,
                                        small).to_json_dict())
            for kind in VP_KINDS:
                add("tol", membership_vp(inst, 2, seventh, kind,
                                         small).to_json_dict())
                add("tol", minimal_p(inst, labels[-1], seventh, kind,
                                     small).to_json_dict())
        rounds.append({f"{cid}/{fam}": ans for (cid, fam), ans in out.items()})
    assert rounds[0] == rounds[1]
    return rounds[0]


def _finite_digests():
    return {f"{mode}/{key}": _digest(ans)
            for mode, exact in (("exact", True), ("float", False))
            for key, ans in _finite_answers(exact).items()}


FINITE_GOLDEN = {
    'exact/two_row/point_margin':
        '6b3dd4ed2ffd70f11e0cd1d6cc45e5a0ca491255d7c5101148d7e72c3e4d5952',
    'exact/two_row/strong_slack':
        '73fc474018dfc702954aa069e61ae764c02e7720c24d8acb388bfbd895456ed9',
    'exact/two_row/set_relation':
        '3dbcfc3ba70c8227feb372e94c61f5a0be29b021232432d4cb503ca63f5b4ac7',
    'exact/two_row/min_elements':
        'c6a718a30c04a78e5545c10dee97227d8d5dd5544a0b2e4fe369b808a6b857f5',
    'exact/two_row/solve_direct':
        '2d328cf6234e39dd8b3dc27c85b958eb2c6fe987bbf119bf9c23cc6e6b0d1d20',
    'exact/two_row/weak_threshold':
        'd2d5a202bfe33e29686cea7c544a778a37f76c1ff364ef3ec5f816532d753046',
    'exact/two_row/membership_vp':
        '71264ac0d2fb7cb140f8da6e0bbdef0b0f05ddf475e344f1d31f68aea9115d8c',
    'exact/two_row/minimal_p':
        '8d77309ba3eeec1a3f91ab8945f50643938ed6257fbf946bc5c4bb10bc2fd624',
    'exact/two_row/tol':
        '64cb63b3a8d9acde733d1a157f81a8d8bbf76b10e86d9462ced0dd58d3a1e7fa',
    'exact/three_row/point_margin':
        '02ba57992c3ba00889bcf70b1cd2ae5726081dc70afdddb49b8b68614a76a93e',
    'exact/three_row/strong_slack':
        '4575b602a7820225c22d525f3b8eefcb403fb0c53887221770570be1c18341a8',
    'exact/three_row/set_relation':
        'b06f0508f8bea40d66233e4b49a00d91a616a0015dee84ca06e16263c73576a2',
    'exact/three_row/min_elements':
        'c57c74f49d67e96044f4c8ef2f505b8d968fb424cb3c285ec484b25a6b36b693',
    'exact/three_row/solve_direct':
        '425fc9fb83bc8dd9675ab38c14eb975bbae8ada8a4dece5f4f738ed7db3fa89d',
    'exact/three_row/weak_threshold':
        '962851658f211395f5d15b2cd7831a059588f81ba8f0afd06bf691eee2b2f00a',
    'exact/three_row/membership_vp':
        '7c89660eb7b217dd85dae77c5883382a243bd318df7d6473ab5e3d783f9346a3',
    'exact/three_row/minimal_p':
        '39a18a0f9d5a721960e3a87d53f12054fc5d3fa8cc6ab03a8d0a07b2e059708c',
    'exact/three_row/tol':
        '3e5ba29ebbdbe4cf87df6806d50beae702bae57ec2ec12d00eb6e0acb07f2b5e',
    'float/two_row/point_margin':
        '2b39b792bbc95428c0f05e3707b3368af5de8926d1077477d2f9f83a598798ad',
    'float/two_row/strong_slack':
        'bba8ccb4b3ada2a6b84de14ce89e590bf3c6e9860af40935737615116b0bb691',
    'float/two_row/set_relation':
        'e460cd385a4f3ce5559fe02c7ddaaddd2dd9cdd714158b8ec39e5b381d6b7951',
    'float/two_row/min_elements':
        'e1048dd48470eea77a060992fda5ba718398c08be4222e84ab0f0a1c82b0e96a',
    'float/two_row/solve_direct':
        'a759d3fd081a4615b697e9e5cb0b87c6c794544d5420db9ccc6e625c3fc0ae2b',
    'float/two_row/weak_threshold':
        '99847e249ce76682c0b4f529baeba5223313f5742b47f0407c5dc12a73e6e5ed',
    'float/two_row/membership_vp':
        '63d1004c63e56aef8c1a2e5ccebd179f06485f8e1b985707fd22393760d2fbc6',
    'float/two_row/minimal_p':
        '80cf052b1b015cb6b9fa4acfd010bf04284807c4fad401105d599e0101c2b61b',
    'float/two_row/tol':
        '6357f2b0f2592b25058a1447d930be35bbba470643ff0795dd21bcd9e998ae69',
    'float/three_row/point_margin':
        '4616059bd31c1d627350cd49805142e75d84bae239ec007e8e95a105dad78c5e',
    'float/three_row/strong_slack':
        '5464d7506e1b4d0163188e49eaf8b27fbb033d1d826cff6c2576b92579618099',
    'float/three_row/set_relation':
        '444d5a2d1b34ad6d44ba852e420ee667f965444122c03f34cefac4d6d8cefe76',
    'float/three_row/min_elements':
        'd514d8555b1f8ca24b61762bd97afd65c3f4f33134a4ba91dbbd42a369772df4',
    'float/three_row/solve_direct':
        'd27b2c71619cf4a94972d32d77f9265aa0e0e30552929191783728f90fb3aadc',
    'float/three_row/weak_threshold':
        'f2e4150776b9444bd9b67268da13321e436409ea8b72ddb6dcf202acf96f00de',
    'float/three_row/membership_vp':
        '3fcd63a7784101012bee7ce4675438e237cdfb683f3a5e1c6535cc3609ce8e7b',
    'float/three_row/minimal_p':
        '266ac806f9bbaa46918cd69962d4b2571d1df79a9bd70e250b03e745a9a99f3e',
    'float/three_row/tol':
        'ce3ce1484d99fa7241850e37be7b967e76dca765b375837e483e9e83a2432869',
}


def test_finite_answers_under_skew_cones_match_recorded_digests():
    assert _finite_digests() == FINITE_GOLDEN


# The brute-force oracle on the same layouts and cones: its member
# tuples in both kinds, at eps 0 and 1/7, budgets 1 to 3, and at an
# explicit tolerance, where it compares ``cone.margin`` values.  The
# digests were recorded before the oracle built its own integer table.
def _oracle_answers(exact):
    from setopt.vectorizer import brute_force_vp

    seventh = F(1, 7) if exact else 1 / 7
    small = F(1, 1000) if exact else 0.001
    out = {}
    for *_, insts in _finite_layouts(exact):
        for cid, inst in insts.items():
            for kind in VP_KINDS:
                for eps in (0, seventh):
                    for p in (1, 2, 3):
                        out.setdefault(f"{cid}/oracle", []).append(
                            brute_force_vp(inst, p, eps, kind).members)
                    for p in (1, 2):
                        out.setdefault(f"{cid}/oracle_tol", []).append(
                            brute_force_vp(inst, p, eps, kind,
                                           small).members)
    return out


def _oracle_digests():
    return {f"{mode}/{key}": _digest(ans)
            for mode, exact in (("exact", True), ("float", False))
            for key, ans in _oracle_answers(exact).items()}


ORACLE_GOLDEN = {
    'exact/two_row/oracle':
        '6248e62e40ba07590ad5bf123563fb43444ce69fb0750b9d0ba1f19a735eef50',
    'exact/two_row/oracle_tol':
        'a889f99451da3060d86b603b1347f08759c653390320822158263716c45da15b',
    'exact/three_row/oracle':
        'e2e0c5f600b3eff7431ce3ed242d1c0b5a1492ba2d74186a866a577ebe72dbed',
    'exact/three_row/oracle_tol':
        '6e1c4bb3a853c310bda0dda7debd123b1a077af6e1b6e70c9304757fcc66906c',
    'float/two_row/oracle':
        '6248e62e40ba07590ad5bf123563fb43444ce69fb0750b9d0ba1f19a735eef50',
    'float/two_row/oracle_tol':
        'a889f99451da3060d86b603b1347f08759c653390320822158263716c45da15b',
    'float/three_row/oracle':
        'e2e0c5f600b3eff7431ce3ed242d1c0b5a1492ba2d74186a866a577ebe72dbed',
    'float/three_row/oracle_tol':
        '6e1c4bb3a853c310bda0dda7debd123b1a077af6e1b6e70c9304757fcc66906c',
}


def test_oracle_under_skew_cones_matches_recorded_digests():
    assert _oracle_digests() == ORACLE_GOLDEN


def test_float_layouts_at_tol_0_answer_as_their_exact_twins():
    # at tol 0 every number is read as its exact rational, so the float
    # layouts answer as their Fraction twins (the cone's too): the same
    # members, and the same numbers as rationals
    from setopt.imagesets import finite_set
    from setopt.instance import build_instance
    from setopt.vectorizer import brute_force_vp

    def exact(v):
        return tuple(map(F, v))

    for *_, insts in _finite_layouts(False):
        for inst in insts.values():
            twin = build_instance(
                validate_cone(map(exact, inst.cone.rows), exact(inst.cone.e)),
                [(d.label, exact(d.x)) for d in inst.decisions],
                [finite_set(map(exact, img.points)) for img in inst.images],
                exact=True)
            assert weak_threshold(inst, 0.0) == weak_threshold(twin, 0)
            for eps in (0, 1 / 7):
                for concept in CONCEPTS:
                    assert solve_direct(inst, concept, eps, 0.0) == \
                        solve_direct(twin, concept, F(eps), 0)
                for kind, p in itertools.product(VP_KINDS, (1, 2)):
                    assert membership_vp(inst, p, eps, kind, 0.0) == \
                        membership_vp(twin, p, F(eps), kind, 0)
                    assert brute_force_vp(inst, p, eps, kind, 0.0) == \
                        brute_force_vp(twin, p, F(eps), kind, 0)
                for kind, label in itertools.product(VP_KINDS, inst.labels):
                    assert minimal_p(inst, label, eps, kind, 0.0) == \
                        minimal_p(twin, label, F(eps), kind, 0)
