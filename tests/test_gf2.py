import functools
import operator
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcss.errors import InvalidInput
from qcss.gf2 import (
    BitMatrix,
    BitVector,
    ParityMap,
    apply_packed,
    insert_rows,
    nullspace_basis,
    parities,
    preimages,
    rank,
    rref,
)

# extended incidence matrix of the 7-point plane, spanning the [8,4,4] code
PLANE_ROWS = [
    "11100001",
    "10011001",
    "10000111",
    "01010101",
    "01001011",
    "00110011",
    "00101101",
]


def dot(u, v):
    """The inner product over GF(2): the parity of the ANDed bits."""
    return (u & v).weight() & 1


def test_dot_single_overlap():
    assert dot(BitVector.from_string("1100"), BitVector.from_string("1010")) == 1


def test_dot_even_weight_self():
    v = BitVector.from_string("110110")
    assert dot(v, v) == 0


def test_dot_cyclic_shift_of_table_polynomial():
    # parity of the overlap between 0x9AF (as 15 coordinates) and its cyclic
    # shift, computed here directly from the two supports
    bits = 0x9AF
    v = BitVector(15, bits)
    shifted = BitVector(15, ((bits << 1) | (bits >> 14)) & ((1 << 15) - 1))
    overlap = len(set(v.support()) & set(shifted.support()))
    assert overlap % 2 == 0
    assert dot(v, shifted) == 0


def test_dot_length_mismatch():
    with pytest.raises(InvalidInput):
        dot(BitVector.from_string("101"), BitVector.from_string("1011"))


def test_rref_identity():
    m = BitMatrix.identity(3)
    red, pivots = rref(m)
    assert red == m
    assert pivots == (0, 1, 2)


def test_rref_plane_matrix_rank_four():
    m = BitMatrix.from_strings(PLANE_ROWS)
    # oracle: the row space has 2^4 distinct elements
    rows = m.row_bits()
    span = {0}
    for mask in range(1, 1 << len(rows)):
        acc = 0
        for i in range(len(rows)):
            if mask >> i & 1:
                acc ^= rows[i]
        span.add(acc)
    assert len(span) == 16
    assert rank(m) == 4


def test_rref_duplicate_rows_collapse():
    m = BitMatrix.from_strings(["1010", "1010"])
    red, pivots = rref(m)
    assert red.rows == 1
    assert pivots == (0,)


def test_rref_idempotent():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randrange(1, 12)
        m = BitMatrix(n, [rng.getrandbits(n) for _ in range(rng.randrange(1, 10))])
        red, _ = rref(m)
        again, _ = rref(red)
        assert again == red


def column_sweep_rref(m):
    # oracle: leftmost nonzero column first, pivot on the topmost row below
    # the ones already used, clear the column in every other row
    data, pivots = m.row_bits(), []
    for c in range(m.cols):
        r = len(pivots)
        piv = next((i for i in range(r, len(data)) if data[i] >> c & 1), None)
        if piv is None:
            continue
        data[r], data[piv] = data[piv], data[r]
        data = [x ^ data[r] if i != r and x >> c & 1 else x for i, x in enumerate(data)]
        pivots.append(c)
    return BitMatrix(m.cols, data[: len(pivots)]), tuple(pivots)


@pytest.mark.parametrize("shape", ["tall", "wide", "deficient"])
def test_rref_matches_column_sweep(shape):
    rng = random.Random(shape)
    for _ in range(200):
        cols = rng.randrange(0, 70)
        if shape == "tall":
            rows = [rng.getrandbits(cols) for _ in range(cols + rng.randrange(1, 40))]
        elif shape == "wide":
            rows = [rng.getrandbits(cols) for _ in range(rng.randrange(0, cols // 2 + 1))]
        else:  # combinations of a few rows, in random order
            base = [rng.getrandbits(cols) for _ in range(rng.randrange(1, 6))]
            rows = [
                functools.reduce(operator.xor, rng.sample(base, rng.randrange(len(base) + 1)), 0)
                for _ in range(rng.randrange(1, 20))
            ]
        m = BitMatrix(cols, rows)
        assert rref(m) == column_sweep_rref(m)


def test_nullspace_of_all_ones_row():
    m = BitMatrix.from_strings(["1111"])
    basis = nullspace_basis(m)
    assert basis.rows == 3
    for row in basis:
        assert row.weight() % 2 == 0
        assert dot(row, BitVector.from_string("1111")) == 0


def test_nullspace_of_self_dual_code_spans_same_space():
    g = BitMatrix.from_strings(["11111111", "01010101", "00110011", "00001111"])
    basis = nullspace_basis(g)
    assert basis.rows == 4
    assert rref(g)[0] == rref(basis)[0]


def test_nullspace_of_full_rank_square_matrix_is_empty():
    m = BitMatrix.identity(5)
    assert nullspace_basis(m).rows == 0


def test_rank_nullity_and_orthogonality_random():
    rng = random.Random(20)
    for _ in range(100):
        n = rng.randrange(1, 16)
        m = BitMatrix(n, [rng.getrandbits(n) for _ in range(rng.randrange(1, 12))])
        basis = nullspace_basis(m)
        assert rank(m) + basis.rows == n
        for b in basis:
            for r in m:
                assert dot(b, r) == 0


def test_dot_symmetric_bilinear():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randrange(1, 24)
        u = BitVector(n, rng.getrandbits(n))
        v = BitVector(n, rng.getrandbits(n))
        w = BitVector(n, rng.getrandbits(n))
        assert dot(u, v) == dot(v, u)
        assert dot(u ^ v, w) == dot(u, w) ^ dot(v, w)


def test_matrix_text_roundtrip():
    m = BitMatrix.from_strings(PLANE_ROWS)
    text = m.to_text()
    assert text.splitlines()[0] == "7 8"
    assert BitMatrix.from_text(text) == m


def test_vector_string_and_hex_conventions():
    # first character of the string is column 0; hex packs bit i = column i
    v = BitVector.from_string("1101")
    assert v.bits == 0b1011
    assert v.to_string() == "1101"


def test_delete_and_concat():
    v = BitVector.from_string("10110")
    assert v.delete([1, 3]).to_string() == "110"
    u = BitVector.from_string("01")
    assert v.concat(u).to_string() == "1011001"


def test_preimages_agree_with_exhaustive_search():
    # every word of up to 10 bits is tried; k = 0 and k = cols are included
    rng = random.Random(41)
    for cols in range(0, 11):
        for k in sorted({0, cols, *(rng.randrange(cols + 1) for _ in range(6))}):
            basis: dict[int, int] = {}
            rows = []
            while len(rows) < k:  # independent rows, drawn at random
                r = rng.getrandbits(cols)
                if insert_rows(basis, [r]):
                    rows.append(r)
            images, kernel = preimages(rows, cols)
            assert [parities(rows, w) for w in images] == [1 << j for j in range(k)]
            assert all(w >> cols == 0 for w in images + kernel)
            span = {0}
            for w in kernel:
                span |= {x ^ w for x in span}
            assert span == {w for w in range(1 << cols) if not parities(rows, w)}
            assert len(kernel) == cols - k and len(span) == 1 << (cols - k)


def _solve(rows, cols, rhs):
    """One w with ``parities(rows, w) == rhs``, or None: preimages of a row
    basis of M, then a check of the dependent rows' equations."""
    basis: dict[int, int] = {}
    pick = [i for i, r in enumerate(rows) if insert_rows(basis, [r])]
    images, _ = preimages([rows[i] for i in pick], cols)
    w = functools.reduce(operator.xor, (x for x, i in zip(images, pick) if rhs >> i & 1), 0)
    return w if parities(rows, w) == rhs else None


def test_solve_consistent_and_inconsistent():
    rows = BitMatrix.from_strings(["1100", "0110"]).row_bits()
    images, kernel = preimages(rows, 4)
    assert parities(rows, images[0]) == 0b01 and parities(rows, images[1]) == 0b10
    assert _solve(rows, 4, 0b01) == images[0] and len(kernel) == 2
    unsat = BitMatrix.from_strings(["1100", "1100"]).row_bits()
    assert _solve(unsat, 4, 0b01) is None
    with pytest.raises(InvalidInput):
        preimages(unsat, 4)


def test_solve_agrees_with_exhaustive_search():
    # oracle: try every x, for any M (dependent rows too); inconsistent
    # systems must come back as None
    rng = random.Random(41)
    inconsistent = 0
    for _ in range(300):
        cols = rng.randrange(1, 11)
        rows = [rng.getrandbits(cols) for _ in range(rng.randrange(0, 9))]
        rhs = rng.getrandbits(len(rows))
        solutions = {x for x in range(1 << cols) if parities(rows, x) == rhs}
        x = _solve(rows, cols, rhs)
        if not solutions:
            inconsistent += 1
            assert x is None
        else:
            assert x is not None and x in solutions
    assert inconsistent > 20


def test_preimages_refuse_dependent_rows():
    with pytest.raises(InvalidInput):
        preimages([0b0110, 0b1010, 0b1100], 4)


def test_insert_rows_returns_the_residues_added():
    basis: dict[int, int] = {}
    assert insert_rows(basis, [0b0110, 0b0011, 0b0101, 0]) == [0b0110, 0b0011]
    assert basis == {1: 0b0110, 0: 0b0011}
    # 0b1110 reduces by the row under bit 1 to 0b1000, a new key
    assert insert_rows(basis, [0b1110]) == [0b1000]
    assert basis[3] == 0b1000


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, (1 << 70) - 1), max_size=12), st.integers(0, (1 << 70) - 1))
def test_parities_matches_per_row_loop(rows, word):
    expected = sum(bin(r & word).count("1") % 2 << i for i, r in enumerate(rows))
    assert parities(rows, word) == expected


_MAP_WIDTHS = [0, 1, 7, 8, 9, 63, 64, 65, 127, 128, 129]


@pytest.mark.parametrize("cols", _MAP_WIDTHS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_parity_map_matches_parities(cols, data):
    word = st.integers(0, (1 << cols) - 1)
    rows = data.draw(st.lists(word, max_size=12), label="rows")
    words = data.draw(st.lists(word, min_size=1, max_size=6), label="words")
    if cols:
        words += [w | 1 << (cols - 1) for w in words] + [(1 << cols) - 1]
    pmap = ParityMap.from_rows(rows, cols)
    for w in words:
        assert pmap(w) == parities(rows, w)


@pytest.mark.parametrize("cols", _MAP_WIDTHS)
def test_parity_map_images_are_its_columns(cols):
    rng = random.Random(cols)
    images = [rng.getrandbits(70) for _ in range(cols)]
    pmap = ParityMap(images)
    assert [pmap(1 << j) for j in range(cols)] == images
    assert len(pmap.tables) == (cols + 7) // 8
    assert pmap(0) == 0
    rows = BitMatrix(70, images).transpose().row_bits()  # the matrix whose columns these are
    assert ParityMap.from_rows(rows, cols).tables == pmap.tables


def _packed_words(words, cols):
    width = (cols + 7) // 8
    raw = b"".join(w.to_bytes(width, "little") for w in words)
    return np.frombuffer(raw, dtype=np.uint8).reshape(len(words), width)


# input lengths on either side of the byte and word edges; output widths of
# one, two and three 64-bit words
@pytest.mark.parametrize("cols", [1, 7, 8, 9, 63, 64, 65, 127, 128])
@pytest.mark.parametrize("width", [5, 64, 65, 127, 129])
def test_packed_table_applies_the_map_to_a_block(cols, width):
    rng = random.Random(cols * 1000 + width)
    images = [rng.getrandbits(width) for _ in range(cols)]
    images[-1] |= 1 << (width - 1)  # the widest image fixes the word count
    pmap = ParityMap(images)
    table = pmap.packed_table()
    assert table.shape == (len(pmap.tables), 256, (width + 63) // 64)
    assert table.dtype == np.uint64
    words = [rng.getrandbits(cols) for _ in range(60)] + [0, (1 << cols) - 1, 1 << (cols - 1)]
    out = apply_packed(table, _packed_words(words, cols))
    assert out.shape == (len(words), table.shape[2]) and out.dtype == np.uint64
    assert [int.from_bytes(row.tobytes(), "little") for row in out] == [pmap(w) for w in words]
    assert apply_packed(table, _packed_words([], cols)).shape == (0, table.shape[2])


def test_packed_table_of_no_columns_maps_to_zero():
    table = ParityMap([]).packed_table()
    assert table.shape == (0, 256, 1)
    assert not apply_packed(table, np.zeros((3, 0), dtype=np.uint8)).any()


def test_parity_map_of_no_rows_or_no_columns_is_zero():
    assert ParityMap.from_rows([], 65)((1 << 65) - 1) == 0
    assert ParityMap.from_rows([0, 0, 0], 0)(0) == 0
    assert ParityMap([])(0) == 0


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 70).flatmap(
    lambda cols: st.lists(st.integers(0, (1 << cols) - 1), max_size=10).map(
        lambda rows: BitMatrix(cols, rows)
    )
))
def test_matrix_text_roundtrip_hypothesis(m):
    # with zero columns every row is written as a blank line
    assert BitMatrix.from_text(m.to_text()) == m


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 70).flatmap(
    lambda cols: st.lists(st.integers(0, (1 << cols) - 1), max_size=20).map(
        lambda rows: BitMatrix(cols, rows)
    )
))
@example(BitMatrix(0, []))
@example(BitMatrix(5, []))
@example(BitMatrix(0, [0, 0, 0]))
def test_transpose_matches_column_bits_hypothesis(m):
    t = m.transpose()
    assert (t.rows, t.cols) == (m.cols, m.rows)
    assert t.row_bits() == [m.column_bits(j) for j in range(m.cols)]
