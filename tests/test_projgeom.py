import dataclasses
import hashlib
import itertools
import random
import time

import numpy as np
import pytest

from qcss.codes import LinearCode
from qcss import css, projgeom, tables
from qcss.errors import (
    DecodingFailure,
    InternalConsistencyError,
    InvalidInput,
    ResourceLimit,
    UnsupportedConfiguration,
)
from qcss.gf2 import (
    BitMatrix,
    BitVector,
    bools_as_bytes,
    bytes_as_ints,
    insert_rows,
    ints_as_bytes,
    parities,
    transpose_bytes,
)
from qcss.projgeom import (
    Configuration,
    ProjGeometry,
    RudolphDecoder,
    build_so_code,
    config_params,
    enumerate_spaces,
    field_tables,
    singer_order,
)

PLANE_ROWS = [
    "11100001",
    "10011001",
    "10000111",
    "01010101",
    "01001011",
    "00110011",
    "00101101",
]


# sha256 prefixes of the add and mul table bytes of every GF(q), q <= 111 (the
# largest q that GEOMETRY_BUDGET admits), as the list-built field tables gave
# them; they pin the element numbering and the choice of modulus
_FIELD_DIGESTS = {
    2: ("d5e2d2ac07b741be", "b40711a88c703975"),
    3: ("21b6c798a9598add", "980882caf0be6965"),
    4: ("62d40abfb721c5a0", "e5e400e15d86822c"),
    5: ("6613b9e06fc8a57b", "845bf4916f0778d3"),
    7: ("e8ca4fba8f1643a7", "8ce887078fec17f5"),
    8: ("a6b3eec73959471a", "b2439fe5028d562b"),
    9: ("258998982899a881", "e0fd6fdbf244caa6"),
    11: ("b694c4789468dfd0", "8922c99ca0107038"),
    13: ("f9c534890dc290a4", "ee72c4b75686eeae"),
    16: ("c64c6cd575049342", "c27ef6a1517571ed"),
    17: ("647fa122f2847c1a", "de9c9f7fb6a76998"),
    19: ("4dc9754c3f278957", "b3b3add66d85b581"),
    23: ("59603d0ff38e73e6", "391279798f484927"),
    25: ("a0396752f887de70", "fab51fcb6800cf5a"),
    27: ("c2efd70001108d5f", "b34bc169b5ac8495"),
    29: ("30fb2c3f3b363e79", "3e305e4fb0eb58da"),
    31: ("8a8ed78175f1847b", "24369f8ee3aacc29"),
    32: ("fcc373f055882753", "70d4f7545b05061c"),
    37: ("0607006e87a66e34", "3715afec79d4af47"),
    41: ("d9cd86297b86f9d9", "b866ff6b0b9ec4be"),
    43: ("450ddbbcdc21a57a", "6a190b4eead7b188"),
    47: ("46bd20cb33067efd", "e1cce323a590fb85"),
    49: ("2cdeb3ae2cd89b21", "85ebb1fa71de0554"),
    53: ("3da86ac3edbe4daf", "2f9d282c6db32ccf"),
    59: ("17eabbb2e510d28f", "0bf8f2dbfe9e3a72"),
    61: ("0371a4bc968a8216", "9482026f9e2c49c9"),
    64: ("f81810bac7773038", "dee2cdc21ede54ed"),
    67: ("151ddb0c65bbc5c0", "c25240d3892fb12c"),
    71: ("2ab1baa7bfb32d5b", "6bdc7e4268ad49a3"),
    73: ("6b5d6f4635083fc9", "0960293c78b6dab4"),
    79: ("46ebd8c58cfe7e06", "9ef111a0c438d613"),
    81: ("990698fd546c16b7", "f4974661680da228"),
    83: ("b339b2acae94daeb", "e2ddd61dd058a991"),
    89: ("29da40bdfdb4595f", "cc81026caf2c8d6f"),
    97: ("8f5245dc2bb7267d", "09597ffbbb48cbe3"),
    101: ("6c6fccc38545afc2", "f1bf4ad647cc9e33"),
    103: ("c044a7f7a62d1b1a", "afbe222a5567ead7"),
    107: ("74587c1e51be3acf", "e18dbcf978b6cbec"),
    109: ("d500fef4b7508275", "17c1f5e11a2074dc"),
}


def test_small_fields_multiplication_tables():
    for q, expected in _FIELD_DIGESTS.items():
        add, mul, inv = field_tables(q)
        assert all(t.dtype == np.uint8 and not t.flags.writeable for t in (add, mul, inv))
        digest = tuple(hashlib.sha256(t.tobytes()).hexdigest()[:16] for t in (add, mul))
        assert digest == expected, q
        a = np.arange(q)
        neg = (add == 0).argmax(axis=1)
        assert (add[a, neg] == 0).all()
        assert (add[:, 0] == a).all() and (mul[:, 0] == 0).all() and (mul[:, 1] == a).all()
        assert (mul[a[1:], inv[1:]] == 1).all() and inv[0] == 0
        assert (add == add.T).all() and (mul == mul.T).all()
        x, y, z = a[:, None, None], a[None, :, None], a[None, None, :]
        assert (add[add[x, y], z] == add[x, add[y, z]]).all()
        assert (mul[mul[x, y], z] == mul[x, mul[y, z]]).all()
        assert (mul[x, add[y, z]] == add[mul[x, y], mul[x, z]]).all()


def test_point_counts():
    for k, q in [(2, 2), (3, 2), (4, 2), (2, 3), (2, 4), (2, 8), (3, 4)]:
        geom = ProjGeometry(k, q)
        assert len(geom.points) == (q ** (k + 1) - 1) // (q - 1)


def test_config_params_examples():
    assert config_params(2, 2, 1) == (7, 7, 3, 3, 1)
    assert config_params(4, 2, 2) == (155, 31, 35, 7, 7)
    assert config_params(5, 2, 3) == (651, 63, 155, 15, 35)


def test_config_params_range_check():
    with pytest.raises(InvalidInput):
        config_params(3, 2, 3)


def test_enumerate_spaces_counts_match_closed_forms():
    cases = [
        (2, 2, 1),
        (3, 2, 1),
        (3, 2, 2),
        (4, 2, 2),
        (4, 2, 3),
        (2, 3, 1),
        (2, 4, 1),
        (2, 5, 1),
        (3, 3, 1),
        (3, 3, 2),
        (3, 4, 2),
        (2, 7, 1),
        (2, 9, 1),
    ]
    for k, q, l in cases:
        geom = ProjGeometry(k, q)
        cfg = enumerate_spaces(geom, l)  # constructor asserts all invariants
        assert (cfg.b, cfg.v, cfg.r, cfg.k_prime, cfg.lam) == config_params(k, q, l)


def test_fano_configuration_and_code():
    cfg = enumerate_spaces(ProjGeometry(2, 2), 1)
    assert (cfg.b, cfg.v, cfg.r, cfg.k_prime, cfg.lam) == (7, 7, 3, 3, 1)
    code = build_so_code(cfg)
    assert (code.n, code.k) == (8, 4)
    assert code.min_distance() == 4
    assert code.dual().same_code(code)
    # equivalent to the extended-incidence span: same weight distribution
    reference = LinearCode.from_spanning(BitMatrix.from_strings(PLANE_ROWS))
    assert reference.weight_enumerator().counts == code.weight_enumerator().counts


def test_pg32_code_parameters():
    code = build_so_code(enumerate_spaces(ProjGeometry(3, 2), 2))
    assert (code.n, code.k) == (16, 5)
    assert code.min_distance() == 8
    assert code.dual().min_distance() == 4


def test_pg63_basis_equals_plain_insertion():
    """The PG(6,2) 3-space code, [128,64] from 11,811 extended incidence
    rows, whose rref filters its rows in rounds: every row inserted one at a
    time, then Gauss-Jordan on the pivot columns, gives the same basis."""
    cfg = enumerate_spaces(ProjGeometry(6, 2), 3)
    code = build_so_code(cfg)
    basis = {}
    insert_rows(basis, [r | 1 << cfg.v for r in bytes_as_ints(cfg.incidence)])
    pivots = sorted(basis)
    for p in pivots:
        for q in pivots:
            if q != p and basis[q] >> p & 1:
                basis[q] ^= basis[p]
    assert (len(cfg.incidence), code.n, code.k) == (11811, 128, 64)
    assert code.pivots == tuple(pivots)
    assert code.generator == BitMatrix(code.n, [basis[p] for p in pivots])


def test_pg42_lines_rejected_planes_accepted():
    geom = ProjGeometry(4, 2)
    with pytest.raises(UnsupportedConfiguration):
        build_so_code(enumerate_spaces(geom, 1))
    planes = build_so_code(enumerate_spaces(geom, 2))
    assert (planes.n, planes.k) == (32, 16)
    assert planes.dual().same_code(planes)
    solids = build_so_code(enumerate_spaces(geom, 3))
    assert (solids.n, solids.k) == (32, 6)
    assert solids.min_distance() == 16


def test_odd_characteristic_geometries_rejected():
    cases = [
        (2, 3, 1),
        (2, 5, 1),
        (2, 7, 1),
        (2, 9, 1),
        (3, 3, 1),
        (3, 3, 2),
        (4, 3, 1),
        (4, 3, 2),
        (4, 3, 3),
    ]
    for k, q, l in cases:
        cfg = enumerate_spaces(ProjGeometry(k, q), l)
        with pytest.raises(UnsupportedConfiguration):
            build_so_code(cfg)


def test_pg24_code():
    code = build_so_code(enumerate_spaces(ProjGeometry(2, 4), 1))
    assert (code.n, code.k) == (22, 10)
    assert code.min_distance() == 6
    assert code.dual().min_distance() == 6


def test_rudolph_zero_error_fano():
    cfg = enumerate_spaces(ProjGeometry(2, 2), 1)
    code = build_so_code(cfg)
    dec = RudolphDecoder(cfg, code, radius=1)
    for word in (0, code.generator.row_bits()[0]):
        assert dec.decode_word(word) == word


def test_rudolph_corrects_single_errors_fano():
    cfg = enumerate_spaces(ProjGeometry(2, 2), 1)
    code = build_so_code(cfg)
    dec = RudolphDecoder(cfg, code, radius=1)
    rows = code.generator.row_bits()
    rng = random.Random(3)
    for _ in range(8):
        cw = 0
        for r in rows:
            if rng.random() < 0.5:
                cw ^= r
        for p in range(8):  # includes the appended coordinate 7
            out = dec.decode_word(cw ^ (1 << p))
            assert out == cw


def test_rudolph_bounds_reported():
    cfg = enumerate_spaces(ProjGeometry(2, 2), 1)
    dec = RudolphDecoder(cfg, build_so_code(cfg))
    assert dec.one_step_bound == 1
    assert dec.two_pass_bound == 2
    cfg28 = enumerate_spaces(ProjGeometry(2, 8), 1)
    dec28 = RudolphDecoder(cfg28, build_so_code(cfg28))
    assert dec28.one_step_bound == 4
    assert dec28.two_pass_bound == 5


def test_rudolph_pg32_single_errors():
    cfg = enumerate_spaces(ProjGeometry(3, 2), 2)
    code = build_so_code(cfg)
    dual = code.dual()
    dec = RudolphDecoder(cfg, code, radius=1)
    rng = random.Random(4)
    rows = dual.generator.row_bits()
    for _ in range(4):
        cw = 0
        for r in rows:
            if rng.random() < 0.5:
                cw ^= r
        for p in range(16):
            out = dec.decode_word(cw ^ (1 << p))
            assert out == cw


def test_rudolph_pg28_radius_four():
    cfg = enumerate_spaces(ProjGeometry(2, 8), 1)
    code = build_so_code(cfg)
    assert (code.n, code.k) == (74, 28)
    dual = code.dual()
    dec = RudolphDecoder(cfg, code, radius=4)
    rng = random.Random(5)
    rows = dual.generator.row_bits()
    cw = 0
    for r in rows:
        if rng.random() < 0.5:
            cw ^= r
    # exhaustive weight 1 and 2
    for p in range(74):
        assert dec.decode_word(cw ^ (1 << p)) == cw
    for a, b in itertools.combinations(rng.sample(range(74), 30), 2):
        assert dec.decode_word(cw ^ (1 << a) ^ (1 << b)) == cw
    # sampled weight 3 and 4
    for wt in (3, 4):
        for _ in range(300):
            noisy = cw
            for p in rng.sample(range(74), wt):
                noisy ^= 1 << p
            assert dec.decode_word(noisy) == cw


def test_rudolph_unextended_even_even_configuration():
    # complемented Fano incidence: rows of weight 4, column pairs in 2 rows
    fano = enumerate_spaces(ProjGeometry(2, 2), 1)
    rows = [r ^ 0x7F for r in bytes_as_ints(fano.incidence)]
    cfg = Configuration(
        incidence=ints_as_bytes(rows, 1), b=7, v=7, r=4, k_prime=4, lam=2
    )
    cfg.check_invariants()
    code = build_so_code(cfg)
    assert code.n == 7  # no appended column
    assert code.is_self_orthogonal()
    dual = code.dual()
    d_dual = dual.min_distance()
    radius = min((d_dual - 1) // 2, (cfg.r + cfg.lam - 1) // (2 * cfg.lam))
    dec = RudolphDecoder(cfg, code)
    assert dec.radius == (cfg.r + cfg.lam - 1) // (2 * cfg.lam)
    rng = random.Random(6)
    for _ in range(5):
        cw = 0
        for r in dual.generator.row_bits():
            if rng.random() < 0.5:
                cw ^= r
        assert dec.decode_word(cw) == cw
        if radius >= 1:
            for p in range(7):
                assert dec.decode_word(cw ^ (1 << p)) == cw


def test_rudolph_failure_beyond_radius():
    cfg = enumerate_spaces(ProjGeometry(2, 2), 1)
    code = build_so_code(cfg)
    dec = RudolphDecoder(cfg, code, radius=1)
    dual_d = 4
    failures = 0
    corrections = 0
    rng = random.Random(7)
    rows = code.generator.row_bits()
    for _ in range(100):
        cw = 0
        for r in rows:
            if rng.random() < 0.5:
                cw ^= r
        noisy = cw
        for p in rng.sample(range(8), 2):
            noisy ^= 1 << p
        try:
            out = dec.decode_word(noisy)
        except DecodingFailure:
            failures += 1
            continue
        corrections += 1
        assert code.contains(BitVector(8, out))  # always a codeword
    assert failures > 0  # weight-2 errors exceed the radius of this code


def test_rudolph_decoder_extended_corrects_one_flip():
    cfg = enumerate_spaces(ProjGeometry(2, 2), 1)
    code = build_so_code(cfg)
    cw = code.generator.row_bits()[1]
    out = RudolphDecoder(cfg, code).decode_word(cw ^ 1)
    assert out == cw


def test_hyperplane_oracle_for_space_enumeration():
    # independent route to the top-rank spaces: solution sets of u.x = 0, one
    # hyperplane per canonical normal vector u
    for k, q in [(3, 2), (4, 2), (2, 4), (3, 3)]:
        geom = ProjGeometry(k, q)
        add, mul, _ = (t.tolist() for t in field_tables(q))
        expected = set()
        for normal in geom.points:
            bits = 0
            for idx, pt in enumerate(geom.points):
                acc = 0
                for u, x in zip(normal, pt):
                    acc = add[acc][mul[u][x]]
                if acc == 0:
                    bits |= 1 << idx
            expected.add(bits)
        cfg = enumerate_spaces(geom, k - 1)
        assert set(bytes_as_ints(cfg.incidence)) == expected


def test_line_oracle_as_hyperplane_intersections_pg32():
    # lines of PG(3,2) as pairwise intersections of distinct planes
    geom = ProjGeometry(3, 2)
    planes = bytes_as_ints(enumerate_spaces(geom, 2).incidence)
    expected = set()
    for i, a in enumerate(planes):
        for b in planes[i + 1 :]:
            expected.add(a & b)
    lines = set(bytes_as_ints(enumerate_spaces(geom, 1).incidence))
    assert lines == expected


# -- the per-check-list majority vote as the oracle of the mask-count one ------


def _oracle_majority_pass(cfg, word_bits, hypothesis):
    """_majority_pass as it was before the column masks: one parity per
    check, then a sum over the checks through each point."""
    checks = bytes_as_ints(cfg.incidence)
    through = [[] for _ in range(cfg.v)]
    for idx, check in enumerate(checks):
        for j in range(cfg.v):
            if check >> j & 1:
                through[j].append(idx)
    violated = [((check & word_bits).bit_count() & 1) ^ hypothesis for check in checks]
    flips = 0
    for j in range(cfg.v):
        bad = sum(violated[idx] for idx in through[j])
        if 2 * bad > len(through[j]):
            flips |= 1 << j
    return flips


def _oracle_decode(dec, code, bits):
    """RudolphDecoder.decode on top of the oracle pass, with a codeword test
    by one parity per generator row of ``code``."""
    cfg, v = dec.cfg, dec.v
    rows = code.generator.row_bits()
    if not dec.extended:
        flips = _oracle_majority_pass(cfg, bits, 0)
        out = bits ^ flips
        if flips.bit_count() > dec.radius or parities(rows, out):
            raise DecodingFailure("majority vote did not reach a codeword")
        return out
    candidates = []
    for hypothesis in (0, 1):
        flips = _oracle_majority_pass(cfg, bits & ((1 << v) - 1), hypothesis)
        out = (bits & ((1 << v) - 1)) ^ flips | hypothesis << v
        weight = (out ^ bits).bit_count()
        if weight <= dec.radius and not parities(rows, out):
            candidates.append((weight, out))
    if not candidates:
        raise DecodingFailure("neither hypothesis for the appended bit decodes")
    candidates.sort()
    if len(candidates) == 2 and candidates[0][0] == candidates[1][0] \
            and candidates[0][1] != candidates[1][1]:
        raise DecodingFailure("both appended-bit hypotheses decode equally well")
    return candidates[0][1]


def _span(cfg):
    """The plain span of the incidence rows, with no parity column."""
    return LinearCode.from_spanning(BitMatrix(cfg.v, bytes_as_ints(cfg.incidence)))


def _complemented_fano():
    fano = enumerate_spaces(ProjGeometry(2, 2), 1)
    rows = [r ^ 0x7F for r in bytes_as_ints(fano.incidence)]
    return Configuration(incidence=ints_as_bytes(rows, 1), b=7, v=7, r=4, k_prime=4, lam=2)


_RUDOLPH_CASES = [
    (lambda: enumerate_spaces(ProjGeometry(2, 2), 1), True),
    (lambda: enumerate_spaces(ProjGeometry(2, 8), 1), True),
    (lambda: enumerate_spaces(ProjGeometry(3, 2), 2), True),
    (lambda: enumerate_spaces(ProjGeometry(3, 2), 1), False),
    (_complemented_fano, False),
    (lambda: enumerate_spaces(ProjGeometry(2, 4), 1), True),
]
_RUDOLPH_IDS = ["pg22", "pg28", "pg32-planes", "pg32-lines", "fano-complement", "pg24"]


def _rudolph_case(make_cfg, extended):
    """The decoder, its code and 300 words: 150 uniform, 150 dual codewords
    with up to radius + 3 flipped points (and a random appended bit)."""
    cfg = make_cfg()
    code = build_so_code(cfg) if extended else _span(cfg)
    dec = RudolphDecoder(cfg, code)
    assert dec.extended == extended
    rng = random.Random(cfg.v)
    rows = _span(cfg).dual().generator.row_bits()
    words = [rng.getrandbits(dec.n) for _ in range(150)]
    for _ in range(150):
        cw = 0
        for r in rows:
            if rng.random() < 0.5:
                cw ^= r
        for p in rng.sample(range(cfg.v), rng.randrange(dec.radius + 4)):
            cw ^= 1 << p
        words.append(cw | rng.getrandbits(1) << cfg.v if extended else cw)
    return dec, code, words


def _decode_outcome(dec, bits):
    try:
        return dec.decode_word(bits)
    except DecodingFailure as exc:
        return str(exc)


def _oracle_outcome(dec, code, bits):
    try:
        return _oracle_decode(dec, code, bits)
    except DecodingFailure as exc:
        return str(exc)


def _block_outcomes(dec, words):
    """decode_block on all the words at once, each failure code as the
    message decode_word gives it; a failed row is the received word."""
    decoded, failure = dec.decode_block(ints_as_bytes(words, (dec.n + 7) // 8))
    messages = {
        RudolphDecoder.NO_CODEWORD: "neither hypothesis for the appended bit decodes"
        if dec.extended else "majority vote did not reach a codeword",
        RudolphDecoder.TIE: "both appended-bit hypotheses decode equally well",
    }
    out = bytes_as_ints(decoded)
    assert all(w == bits for w, bits, f in zip(out, words, failure.tolist()) if f)
    return [messages[f] if f else w for w, f in zip(out, failure.tolist())]


# the two small codes decode every word: their outcomes are all codewords
@pytest.mark.parametrize("case, outcomes", list(zip(_RUDOLPH_CASES, [
    {int}, {int, str}, {int, str}, {int, str}, {int}, {int, str},
])), ids=_RUDOLPH_IDS)
def test_rudolph_matches_per_check_oracle(case, outcomes):
    dec, code, words = _rudolph_case(*case)
    cfg = dec.cfg
    points = [bits & ((1 << cfg.v) - 1) for bits in words]
    passes = dec._majority_block(ints_as_bytes(points, (cfg.v + 7) // 8))
    for hypothesis, flips in enumerate(passes):
        assert bytes_as_ints(bools_as_bytes(flips)) == [
            _oracle_majority_pass(cfg, p, hypothesis) for p in points
        ]
    want = [_oracle_outcome(dec, code, bits) for bits in words]
    assert [_decode_outcome(dec, bits) for bits in words] == want
    assert _block_outcomes(dec, words) == want
    assert {type(o) for o in want} == outcomes


@pytest.mark.parametrize("q, count, cells", [
    (4, 1024, projgeom._CHECK_CELLS), (4, 1024, 1000), (8, 200, projgeom._CHECK_CELLS),
], ids=["pg24", "pg24-slices", "pg28"])
def test_rudolph_block_picks_both_hypotheses(q, count, cells, monkeypatch):
    # codewords of the extended dual with either appended bit, and up to
    # radius + 3 flips anywhere; 1000 cells take PG(2,4)'s rows 47 at a time
    monkeypatch.setattr(projgeom, "_CHECK_CELLS", cells)
    cfg = enumerate_spaces(ProjGeometry(2, q), 1)
    code = build_so_code(cfg)
    dec = RudolphDecoder(cfg, code)
    rng = random.Random(q)
    rows = code.dual().generator.row_bits()
    words = []
    for _ in range(count):
        cw = 0
        for r in rows:
            if rng.random() < 0.5:
                cw ^= r
        for p in rng.sample(range(dec.n), rng.randrange(dec.radius + 4)):
            cw ^= 1 << p
        words.append(cw)
    want = [_oracle_outcome(dec, code, bits) for bits in words]
    assert _block_outcomes(dec, words) == want
    assert {o >> cfg.v for o in want if isinstance(o, int)} == {0, 1}
    assert any(isinstance(o, str) for o in want)


def test_rudolph_block_tie_rule():
    # r is odd, so the two passes flip complementary points and their
    # weights add up to v + 1; with no code to miss and the radius at
    # (v + 1) / 2, the hypotheses of PG(2,8) tie on some words (those of
    # PG(2,2) and PG(2,4) never reach that weight)
    cfg = enumerate_spaces(ProjGeometry(2, 8), 1)
    code = LinearCode(BitMatrix(cfg.v + 1, []))
    dec = RudolphDecoder(cfg, code, radius=(cfg.v + 1) // 2)
    rng = random.Random(9)
    words = [rng.getrandbits(dec.n) for _ in range(300)]
    want = [_oracle_outcome(dec, code, bits) for bits in words]
    assert _block_outcomes(dec, words) == want
    assert "both appended-bit hypotheses decode equally well" in want
    assert any(isinstance(o, int) for o in want)


def test_rudolph_block_of_no_rows_and_one_row():
    cfg = enumerate_spaces(ProjGeometry(2, 8), 1)
    code = build_so_code(cfg)
    dec = RudolphDecoder(cfg, code)
    decoded, failure = dec.decode_block(np.zeros((0, 10), dtype=np.uint8))
    assert decoded.shape == (0, 10) and failure.shape == (0,)
    word = code.dual().generator.row_bits()[0] ^ 1 << 5
    assert _block_outcomes(dec, [word]) == [_oracle_outcome(dec, code, word)]
    for bad in (np.zeros((1, 9), dtype=np.uint8), np.zeros((1, 10), dtype=np.uint16),
                np.full((1, 10), 0xFF, dtype=np.uint8)):
        with pytest.raises(InvalidInput):
            dec.decode_block(bad)


def _outcome_digest(outcomes):
    return hashlib.sha256(repr(outcomes).encode()).hexdigest()[:16]


# sha256 of the outcomes on the oracle test's words, as the decoder gave
# them when it applied its checks with one parity per row
@pytest.mark.parametrize("case, digest", list(zip(_RUDOLPH_CASES, [
    "e7001a86711bc065", "0f4f301d5f949c7b", "1723cdfe41d1fe8e", "48372112ad23edf8",
    "37403ce496349662", "5e0c33dbc809a019",
])), ids=_RUDOLPH_IDS)
def test_rudolph_outcomes_pinned(case, digest):
    dec, _, words = _rudolph_case(*case)
    assert _outcome_digest([_decode_outcome(dec, bits) for bits in words]) == digest


def test_rudolph_refuses_a_column_of_the_wrong_weight():
    cfg = dataclasses.replace(enumerate_spaces(ProjGeometry(2, 2), 1), r=4)
    with pytest.raises(InvalidInput):
        RudolphDecoder(cfg, build_so_code(cfg))


def test_rudolph_refuses_a_code_of_the_wrong_length():
    cfg = enumerate_spaces(ProjGeometry(2, 2), 1)
    with pytest.raises(InvalidInput):
        RudolphDecoder(cfg, LinearCode.from_spanning(BitMatrix(9, [1])))


# -- the per-vector span loop as the oracle of the block enumeration -----------


def _oracle_points(geom):
    """Canonical points by a scan of every vector, with a dict from each
    nonzero vector to the index of its point."""
    q = geom.q
    mul = field_tables(q)[1].tolist()
    points = [vec for vec in itertools.product(range(q), repeat=geom.k + 1)
              if next((x for x in vec if x), None) == 1]
    index = {}
    for i, pt in enumerate(points):
        for c in range(1, q):
            index[tuple(mul[c][x] for x in pt)] = i
    return points, index


def _oracle_echelon_matrices(k1, m, q):
    for pivots in itertools.combinations(range(m), k1):
        free_positions = [
            (i, c) for i in range(k1) for c in range(pivots[i] + 1, m) if c not in pivots
        ]
        for values in itertools.product(range(q), repeat=len(free_positions)):
            rows = [[0] * m for _ in range(k1)]
            for i, pc in enumerate(pivots):
                rows[i][pc] = 1
            for (i, c), val in zip(free_positions, values):
                rows[i][c] = val
            yield rows


def _oracle_space_rows(geom, l):
    """enumerate_spaces' rows as the per-vector loop built them."""
    q = geom.q
    add, mul, _ = (t.tolist() for t in field_tables(q))
    _, index = _oracle_points(geom)
    rows = []
    for basis in _oracle_echelon_matrices(l + 1, geom.k + 1, q):
        bits = 0
        for coeffs in itertools.product(range(q), repeat=l + 1):
            if not any(coeffs):
                continue
            vec = [0] * (geom.k + 1)
            for c, row in zip(coeffs, basis):
                for j, x in enumerate(row):
                    vec[j] = add[vec[j]][mul[c][x]]
            bits |= 1 << index[tuple(vec)]
        rows.append(bits)
    return rows


_ORACLE_GEOMETRIES = sorted(
    {(k, q, l) for _, k, q, l, *_ in tables.TABLE2_ROWS}
    | {(2, 3, 1), (3, 3, 1), (3, 3, 2), (2, 9, 1)}
)


@pytest.mark.parametrize("k, q, l", _ORACLE_GEOMETRIES)
def test_enumerate_spaces_matches_per_vector_oracle(k, q, l):
    geom = ProjGeometry(k, q)
    points, index = _oracle_points(geom)
    assert list(geom.points) == points
    for vec, i in index.items():
        number = 0
        for x in vec:
            number = number * q + x
        assert geom.lookup[number] == i
    assert geom.lookup[0] == -1
    assert bytes_as_ints(enumerate_spaces(geom, l).incidence) == _oracle_space_rows(geom, l)


def test_oversized_geometries_are_refused():
    with pytest.raises(ResourceLimit, match="8.95e\\+07 points"):
        ProjGeometry(13, 4)
    # a prime q is factored by trial division up to sqrt(q) only; up to q
    # itself it takes minutes
    start = time.perf_counter()
    with pytest.raises(ResourceLimit, match="exceeds the budget"):
        ProjGeometry(2, 2147483647)
    assert time.perf_counter() - start < 2
    with pytest.raises(ResourceLimit, match="3-spaces of PG\\(7,2\\)"):
        enumerate_spaces(ProjGeometry(7, 2), 3)


# -- the invariant check against mutated incidence ----------------------------


def _lines_of_pg28():
    """A valid configuration whose columns take two 64-bit words (73 rows)."""
    cfg = enumerate_spaces(ProjGeometry(2, 8), 1)
    cfg.check_invariants()
    return cfg, bytes_as_ints(cfg.incidence)


def test_configuration_refuses_an_incidence_that_is_not_a_packed_block():
    fano = enumerate_spaces(ProjGeometry(2, 2), 1)
    rows = bytes_as_ints(fano.incidence)
    for bad in (ints_as_bytes(rows, 2), ints_as_bytes([r | 1 << 7 for r in rows], 1)):
        with pytest.raises(InvalidInput):
            dataclasses.replace(fano, incidence=bad)
    with pytest.raises(InternalConsistencyError, match="^incidence shape mismatch$"):
        dataclasses.replace(fano, incidence=fano.incidence[:6]).check_invariants()


def _with_rows(cfg, rows):
    return dataclasses.replace(cfg, incidence=ints_as_bytes(rows, (cfg.v + 7) // 8))


def test_invariant_check_catches_a_row_of_the_wrong_weight():
    cfg, rows = _lines_of_pg28()
    rows[5] |= 1 << next(j for j in range(cfg.v) if not rows[5] >> j & 1)
    with pytest.raises(InternalConsistencyError, match="^row weight differs from k'$"):
        _with_rows(cfg, rows).check_invariants()


def test_invariant_check_catches_a_point_moved_within_a_row():
    cfg, rows = _lines_of_pg28()
    on = next(j for j in range(cfg.v) if rows[5] >> j & 1)
    off = next(j for j in range(cfg.v) if not rows[5] >> j & 1)
    rows[5] ^= 1 << on | 1 << off  # every row keeps k' points; two columns do not keep r
    mutant = _with_rows(cfg, rows)
    assert all(row.bit_count() == cfg.k_prime for row in rows)
    weights = [column.bit_count() for column in bytes_as_ints(transpose_bytes(mutant.incidence, cfg.v))]
    assert sorted(w for w in weights if w != cfg.r) == [cfg.r - 1, cfg.r + 1]
    with pytest.raises(InternalConsistencyError, match="^column weight differs from r$"):
        mutant.check_invariants()


def test_invariant_check_catches_pair_meets_in_chunks_of_one_column(monkeypatch):
    cfg, rows = _lines_of_pg28()
    a, b = cfg.v - 2, cfg.v - 1
    # a 2 x 2 switch: a row on a but not b and a row on b but not a trade
    # those points, so every row and column keeps its weight
    first = next(i for i, row in enumerate(rows) if row >> a & 1 and not row >> b & 1)
    second = next(i for i, row in enumerate(rows) if row >> b & 1 and not row >> a & 1)
    for i in (first, second):
        rows[i] ^= 1 << a | 1 << b
    mutant = _with_rows(cfg, rows)
    assert all(row.bit_count() == cfg.k_prime for row in rows)
    assert all(c.bit_count() == cfg.r for c in bytes_as_ints(transpose_bytes(mutant.incidence, cfg.v)))
    # the words of one column: one pair a chunk, through the last pair
    words = -(-cfg.b // 64)
    monkeypatch.setattr(projgeom, "_MEET_WORDS", words)
    cfg.check_invariants()
    with pytest.raises(InternalConsistencyError, match="^a column pair meets in != lambda rows$"):
        mutant.check_invariants()
    # with the points of the two switched rows relabelled last, every broken
    # pair lies in the second and last of two chunks
    moved = rows[first] | rows[second]
    order = sorted(range(cfg.v), key=lambda j: moved >> j & 1)

    def relabelled(rows):
        return _with_rows(cfg, [sum(1 << i for i, j in enumerate(order) if row >> j & 1) for row in rows])

    monkeypatch.setattr(projgeom, "_MEET_WORDS", words * -(-cfg.v * (cfg.v - 1) // 4))
    relabelled(bytes_as_ints(cfg.incidence)).check_invariants()
    with pytest.raises(InternalConsistencyError, match="^a column pair meets in != lambda rows$"):
        relabelled(rows).check_invariants()


def test_each_incidence_matrix_is_spanned_once(monkeypatch):
    spans = []
    from_spanning = LinearCode.from_spanning.__func__

    def counting(cls, rows):
        spans.append(rows.rows)
        return from_spanning(cls, rows)

    monkeypatch.setattr(LinearCode, "from_spanning", classmethod(counting))
    css.css_from_projective_geometry(2, 8, 1, distance=10)
    assert spans.count(73) == 1  # the 73 lines of PG(2,8)
    spans.clear()
    tables.verify_table2(rows=[tables.TABLE2_ROWS[0]])
    assert spans.count(7) == 1  # the 7 lines of PG(2,2)


_SINGER_GEOMETRIES = sorted(
    {(k, q, l) for _, k, q, l, *_ in tables.TABLE2_ROWS}
    | {(2, 3, 1), (2, 5, 1), (3, 3, 1), (3, 3, 2)}
)


def _spaces_in_order(cfg, order):
    """Each incidence row as the set of positions of its points in ``order``."""
    position = {point: i for i, point in enumerate(order)}
    return {
        frozenset(position[j] for j in range(cfg.v) if row >> j & 1)
        for row in bytes_as_ints(cfg.incidence)
    }


def _shift_invariant(spaces, v):
    return all(frozenset((i + 1) % v for i in space) in spaces for space in spaces)


@pytest.mark.parametrize("k, q, l", _SINGER_GEOMETRIES)
def test_singer_order_is_one_cycle_that_shifts_the_incidence_onto_itself(k, q, l):
    geom = ProjGeometry(k, q)
    cfg = enumerate_spaces(geom, l)
    order = singer_order(geom)
    assert sorted(order) == list(range(cfg.v))  # every point once: one v-cycle
    assert _shift_invariant(_spaces_in_order(cfg, order), cfg.v)
    # with two points swapped, some shifted space is no space
    swapped = list(order)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    assert not _shift_invariant(_spaces_in_order(cfg, swapped), cfg.v)
