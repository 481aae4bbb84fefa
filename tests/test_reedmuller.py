import itertools
import math
import random

import numpy as np
import pytest

from qcss import reedmuller
from qcss.codes import LinearCode, dual_min_distance
from qcss.css import css_from_reed_muller
from qcss.errors import DecodingFailure, InvalidInput, ResourceLimit
from qcss.gf2 import BitMatrix, BitVector, bytes_as_ints, ints_as_bytes, parities, preimages
from qcss.reedmuller import ReedDecoder, rm_generator


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
                d = dual_min_distance(rm_generator(m, m - r - 1).code).exact
            assert d == 1 << (m - r) == rm.design_distance()


def test_dual_relation():
    for m in range(2, 7):
        for r in range(0, m):
            rm, dual = rm_generator(m, r), rm_generator(m, m - r - 1)
            assert rm.code.dual().same_code(dual.code)
            assert rm.dual_distance() == dual.design_distance()


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


# -- the per-mask vote loop as the oracle of the block decoder ------------------


def _subsets(mask: int):
    """The submasks of ``mask`` in increasing order."""
    a = 0
    while True:
        yield a
        if a == mask:
            return
        a = (a - mask) & mask


def _vote_masks(m: int, variables: tuple[int, ...]) -> list[int]:
    """Characteristic sets of one monomial: for each assignment of the
    complementary variables, the 2^deg points where they take that value.

    ``base`` is the subcube on the monomial's variables; an assignment, read
    as the point with those bits set, shifts it into place."""
    inside = sum(1 << i for i in variables)
    base = sum(1 << t for t in _subsets(inside))
    return [base << a for a in _subsets(((1 << m) - 1) ^ inside)]


def _oracle_reed_decode(rm, bits):
    """ReedDecoder.decode_word as it was before its block form: one parity
    per characteristic set, one vote at a time, highest degree first."""
    if bits >> rm.n:
        raise InvalidInput(f"received word has bits beyond length {rm.n}")
    rows = rm.code.generator.row_bits()
    residual = bits
    for deg in range(rm.r, -1, -1):
        layer = 0
        for idx, variables in enumerate(rm.monomials):
            if len(variables) != deg:
                continue
            masks = _vote_masks(rm.m, variables)
            ones = sum((residual & mask).bit_count() & 1 for mask in masks)
            if 2 * ones == len(masks):
                raise DecodingFailure(f"tied majority vote on a degree-{deg} coefficient")
            if 2 * ones > len(masks):
                layer ^= rows[idx]
        residual ^= layer
    return bits ^ residual


def _reed_outcome(decode, bits):
    try:
        return decode(bits)
    except DecodingFailure as exc:
        return f"DecodingFailure: {exc}"


def _reed_test_words(rm, radius, rng, per_weight):
    """Dual-side codewords plus errors of each weight 0..radius+3, and
    uniform words."""
    rows = rm.code.generator.row_bits()
    words = []
    for weight in range(radius + 4):
        for _ in range(per_weight):
            cw = 0
            for row in rows:
                if rng.random() < 0.5:
                    cw ^= row
            for p in rng.sample(range(rm.n), weight):
                cw ^= 1 << p
            words.append(cw)
    return words + [rng.getrandbits(rm.n) for _ in range(per_weight)]


# the duals that Reed-decode the CSS codes of RM(4,1), RM(5,1) and RM(6,2),
# RM(5,1), and RM(7,3): layer tables of one 64-bit word and of two
@pytest.mark.parametrize("m, r", [(4, 2), (5, 2), (5, 1), (6, 3), (7, 3)])
def test_reed_block_matches_the_vote_loop_oracle(m, r):
    rm = rm_generator(m, r)
    dec = ReedDecoder(rm)
    rng = random.Random(m * 10 + r)
    words = _reed_test_words(rm, dec.radius, rng, 120)
    want = [_reed_outcome(lambda b: _oracle_reed_decode(rm, b), b) for b in words]
    assert [_reed_outcome(dec.decode_word, b) for b in words[:200]] == want[:200]
    decoded, failure = dec.decode_block(ints_as_bytes(words, rm.n // 8))
    got = [f"DecodingFailure: tied majority vote on a degree-{f - 1} coefficient" if f else w
           for w, f in zip(bytes_as_ints(decoded), failure.tolist())]
    assert got == want
    # a failed row is the received word
    assert all(w == b for w, b, f in zip(bytes_as_ints(decoded), words, failure) if f)
    kinds = {type(o) for o in want}
    assert kinds == ({int, str} if r < m - 1 else {int})


@pytest.mark.parametrize("m, r", [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)])
def test_reed_block_on_every_word_of_short_codes(m, r):
    # n = 2, 4 and 8: words narrower than a byte, and every word of each
    rm = rm_generator(m, r)
    dec = ReedDecoder(rm)
    words = list(range(1 << rm.n))
    want = [_reed_outcome(lambda b: _oracle_reed_decode(rm, b), b) for b in words]
    assert [_reed_outcome(dec.decode_word, b) for b in words] == want
    decoded, failure = dec.decode_block(ints_as_bytes(words, 1))
    assert [isinstance(o, str) for o in want] == failure.astype(bool).tolist()
    assert [w for w, f in zip(bytes_as_ints(decoded), failure) if not f] == [
        o for o in want if not isinstance(o, str)]


@pytest.mark.parametrize("cells", [reedmuller._VOTE_CELLS, 1000], ids=["one-gather", "slices"])
def test_reed_block_of_no_rows_one_row_and_1024_rows(cells, monkeypatch):
    # 1000 cells take the 1,024 rows in slices of 10
    monkeypatch.setattr(reedmuller, "_VOTE_CELLS", cells)
    rm = rm_generator(4, 2)
    dec = ReedDecoder(rm)
    decoded, failure = dec.decode_block(np.zeros((0, 2), dtype=np.uint8))
    assert decoded.shape == (0, 2) and failure.shape == (0,)
    rng = random.Random(12)
    words = [rng.getrandbits(16) for _ in range(1024)]
    decoded, failure = dec.decode_block(ints_as_bytes(words, 2))
    want = [_reed_outcome(lambda b: _oracle_reed_decode(rm, b), b) for b in words]
    got = [_reed_outcome(dec.decode_word, b) for b in words[:1]]
    assert got == want[:1]
    assert [isinstance(o, str) for o in want] == failure.astype(bool).tolist()
    assert [w for w, o in zip(bytes_as_ints(decoded), want) if not isinstance(o, str)] == [
        o for o in want if not isinstance(o, str)]


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
