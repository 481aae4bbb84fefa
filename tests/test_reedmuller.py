import itertools
import math
import random

import pytest

from qcss import reedmuller
from qcss.codes import LinearCode, dual_min_distance
from qcss.css import css_from_reed_muller
from qcss.errors import DecodingFailure, InvalidInput, ResourceLimit
from qcss.gf2 import BitMatrix, BitVector, parities, preimages
from qcss.reedmuller import ReedDecoder, _vote_masks, rm_generator


def test_parameters():
    for m in range(2, 8):
        for r in range(0, m):
            rm = rm_generator(m, r)
            assert rm.n == 1 << m
            assert rm.k == sum(math.comb(m, i) for i in range(r + 1))


def test_rm_16_5_8():
    rm = rm_generator(4, 1)
    assert (rm.n, rm.k) == (16, 5)
    assert rm.code.min_distance() == 8


def test_rm_order_zero_is_repetition():
    rm = rm_generator(5, 0)
    assert rm.k == 1
    assert rm.code.generator.row(0).weight() == 32


def test_rm_top_order_is_even_weight_code():
    rm = rm_generator(4, 3)
    assert rm.k == 15
    even = LinearCode(BitMatrix(16, [(1 << 16) - 1])).dual()
    assert rm.code.same_code(even)


def test_invalid_order():
    with pytest.raises(InvalidInput):
        rm_generator(4, 4)


@pytest.mark.parametrize("m, r", [(40, 1), (23, 0), (18, 1), (10**9, 3)])
def test_oversized_generator_refused_before_any_work(m, r, monkeypatch):
    # k * 2^m generator bits beyond the budget: 19 * 2^18 > 2^22 for RM(18, 1)
    def no_work(*args):
        raise AssertionError("the generator build started")

    monkeypatch.setattr(reedmuller, "combinations", no_work)
    with pytest.raises(ResourceLimit, match="exceeds the budget"):
        rm_generator(m, r)
    with pytest.raises(ResourceLimit):
        css_from_reed_muller(m, r)


@pytest.mark.parametrize("m, r", [(22, 0), (17, 1)])
def test_generator_at_the_budget_is_built(m, r):
    # 2^22 and 18 * 2^17 bits, within the budget of 2^22
    rm = rm_generator(m, r)
    assert (rm.n, rm.k) == (1 << m, sum(math.comb(m, i) for i in range(r + 1)))
    assert rm.code.generator.row(0) == BitVector.ones(1 << m)


def test_min_distance_is_power_of_two():
    for m in range(2, 7):
        for r in range(0, m):
            rm = rm_generator(m, r)
            if rm.k <= 22:
                d = rm.code.min_distance()
            else:
                # the dual is small; transform its spectrum instead
                d = dual_min_distance(rm_generator(m, m - r - 1).code)
            assert d == 1 << (m - r)


def test_dual_relation():
    for m in range(2, 7):
        for r in range(0, m):
            rm = rm_generator(m, r)
            assert rm.code.dual().same_code(rm_generator(m, m - r - 1).code)


def test_nesting():
    for m in range(3, 7):
        for r1 in range(0, m - 1):
            assert rm_generator(m, r1).code.is_subcode_of(rm_generator(m, r1 + 1).code)


def test_self_orthogonality_criterion():
    for m in range(2, 8):
        for r in range(0, m):
            rm = rm_generator(m, r)
            assert rm.code.is_self_orthogonal() == (2 * r <= m - 1)


def test_plotkin_recursion_rowspace_equality():
    # (u | u+v) span built from RM(m-1, r) and RM(m-1, r-1)
    for m in range(2, 7):
        for r in range(1, m - 1):
            upper = rm_generator(m - 1, r)
            lower = rm_generator(m - 1, r - 1)
            half = 1 << (m - 1)
            rows = [g.bits | g.bits << half for g in upper.code.generator]
            rows += [g.bits << half for g in lower.code.generator]
            stacked = LinearCode.from_spanning(BitMatrix(1 << m, rows))
            assert stacked.same_code(rm_generator(m, r).code)


def test_reed_decode_clean_codewords():
    rm = rm_generator(4, 1)
    dec = ReedDecoder(rm)
    rng = random.Random(1)
    rows = rm.code.generator.row_bits()
    # the message is the decoded codeword's preimage through the generator:
    # word j of ``preimages`` has parity 1 with row j only
    inverse = preimages(rows, rm.n)[0]
    for _ in range(30):
        msg = rng.getrandbits(rm.k)
        cw = 0
        for i, row in enumerate(rows):
            if msg >> i & 1:
                cw ^= row
        out = dec.decode_word(cw)
        assert out == cw
        assert parities(inverse, out) == msg


def test_reed_decode_corrects_up_to_three_errors_rm41():
    rm = rm_generator(4, 1)
    dec = ReedDecoder(rm)
    assert dec.radius == 3
    rng = random.Random(2)
    rows = rm.code.generator.row_bits()
    codewords = []
    for _ in range(4):
        cw = 0
        for row in rows:
            if rng.random() < 0.5:
                cw ^= row
        codewords.append(cw)
    for cw in codewords:
        for wt in (1, 2, 3):
            for pattern in itertools.combinations(range(16), wt):
                noisy = cw
                for p in pattern:
                    noisy ^= 1 << p
                out = dec.decode_word(noisy)
                assert out == cw, (cw, pattern)


def test_reed_decode_single_errors_on_dual_side():
    rm = rm_generator(4, 2)  # [16,11,4], radius 1
    dec = ReedDecoder(rm)
    assert dec.radius == 1
    rng = random.Random(3)
    rows = rm.code.generator.row_bits()
    for _ in range(5):
        cw = 0
        for row in rows:
            if rng.random() < 0.5:
                cw ^= row
        for p in range(16):
            out = dec.decode_word(cw ^ (1 << p))
            assert out == cw


def test_reed_decode_radius_sampled_m5_m6():
    rng = random.Random(4)
    for m, r in ((5, 1), (6, 2)):
        rm = rm_generator(m, r)
        dec = ReedDecoder(rm)
        rows = rm.code.generator.row_bits()
        n = rm.n
        for _ in range(200):
            cw = 0
            for row in rows:
                if rng.random() < 0.5:
                    cw ^= row
            wt = rng.randrange(1, dec.radius + 1)
            noisy = cw
            for p in rng.sample(range(n), wt):
                noisy ^= 1 << p
            assert dec.decode_word(noisy) == cw


def test_reed_decode_output_is_always_a_codeword():
    rm = rm_generator(4, 1)
    dec = ReedDecoder(rm)
    rng = random.Random(5)
    decoded = failed = 0
    for _ in range(300):
        word = rng.getrandbits(16)
        try:
            out = dec.decode_word(word)
        except DecodingFailure:
            failed += 1
            continue
        decoded += 1
        assert rm.code.contains(BitVector(16, out))
    assert decoded > 0


def test_vote_masks_partition_the_points_into_subcubes():
    for m in range(1, 8):
        for deg in range(m + 1):
            for variables in itertools.combinations(range(m), deg):
                others = [i for i in range(m) if i not in variables]
                masks = _vote_masks(m, variables)
                assert len(masks) == 1 << (m - deg)
                assert all(mask.bit_count() == 1 << deg for mask in masks)
                union = 0
                for mask in masks:
                    assert union & mask == 0
                    union |= mask
                    points = [j for j in range(1 << m) if mask >> j & 1]
                    assert len({tuple(j >> i & 1 for i in others) for j in points}) == 1
                assert union == (1 << (1 << m)) - 1
