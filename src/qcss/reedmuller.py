"""Reed-Muller codes and majority-vote decoding.

Evaluation points are indexed 0..2^m-1; point j assigns variable i the bit
j >> i & 1, so variable 0 follows the least significant bit.  Generator rows
are the evaluation vectors of the monomials of degree <= r, lowest degree
first and combinations in lexicographic order within a degree.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .codes import LinearCode
from .errors import DecodingFailure, InvalidInput, ResourceLimit
from .gf2 import (
    BitMatrix,
    apply_packed,
    bools_as_bytes,
    bytes_as_bools,
    bytes_as_ints,
    check_block,
    decode_in_slices,
    packed_table,
    word_block,
    words_as_bytes,
)

# Most generator bits (k rows of 2^m) `rm_generator` builds; RM(7, r) takes 2^14.
REED_MULLER_BUDGET = 1 << 22


@dataclass(frozen=True)
class RmCode:
    m: int
    r: int
    code: LinearCode
    monomials: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return 1 << self.m

    @property
    def k(self) -> int:
        return self.code.k

    def design_distance(self) -> int:
        return 1 << (self.m - self.r)

    def dual_distance(self) -> int:
        """The distance of the dual, RM(m, m - r - 1)."""
        return 1 << (self.r + 1)


def rm_generator(m: int, r: int) -> RmCode:
    """The order-r Reed-Muller code over 2^m points; the row of a monomial
    holds the points that set all of its variables."""
    if m < 1:
        raise InvalidInput(f"need m >= 1, got {m}")
    if not 0 <= r < m:
        raise InvalidInput(f"order must satisfy 0 <= r < m, got r={r}, m={m}")
    # k rows of n = 2^m bits, k summed only for an n within the budget
    n = 1 << min(m, REED_MULLER_BUDGET.bit_length())
    if n > REED_MULLER_BUDGET or n * sum(comb(m, i) for i in range(r + 1)) > REED_MULLER_BUDGET:
        raise ResourceLimit(
            f"the generator of RM({m},{r}) exceeds the budget of {REED_MULLER_BUDGET} bits"
        )
    monomials = tuple(v for deg in range(r + 1) for v in combinations(range(m), deg))
    masks = np.array([sum(1 << i for i in v) for v in monomials])[:, None]
    rows = bytes_as_ints(bools_as_bytes(np.arange(n) & masks == masks))
    return RmCode(m=m, r=r, code=LinearCode(BitMatrix(n, rows)), monomials=monomials)


# most cells (rows x characteristic-set points of one layer) that
# ReedDecoder gathers at once; a larger block is decoded in row slices
_VOTE_CELLS = 1 << 22


class ReedDecoder:
    """Majority-vote decoder; corrects up to (2^(m-r) - 1) // 2 errors.

    The votes on a monomial's coefficient are the parities of the residual
    word over its characteristic sets: for each assignment of the other
    variables, the 2^deg points where they take that value.  A layer of
    monomials of one degree keeps the points of all their sets as one
    (monomials, 2^(m-deg), 2^deg) index array, so a block's votes on the
    whole layer are one gather and one XOR reduction.  The layer's codeword
    part, the sum of the generator rows of the winning monomials, is one
    ``apply_packed`` of the packed winners through the layer's
    ``packed_table`` of those rows (4 bytes per row bit).  The votes stay a
    gather: a packed table of the vote map would take about 363 MB for the
    two top layers of RM(11,6), against 15 MB of index arrays.
    """

    def __init__(self, rm: RmCode):
        self.rm = rm
        self.radius = (rm.design_distance() - 1) // 2
        points = np.arange(rm.n)
        rows = rm.code.generator.row_bits()
        # per layer, highest degree first: the points of each monomial's
        # sets, and the packed table of the monomials' rows
        self._layers = []
        for deg in range(rm.r, -1, -1):
            picked = [i for i, v in enumerate(rm.monomials) if len(v) == deg]
            sets = []
            for i in picked:
                inside = sum(1 << j for j in rm.monomials[i])
                cube = points[points & ~inside == 0]  # the subsets of the variables
                offsets = points[points & inside == 0]  # the assignments of the others
                sets.append(offsets[:, None] | cube[None, :])
            table = packed_table([rows[i] for i in picked], rm.n)
            self._layers.append((deg, np.array(sets), table))

    def decode_block(self, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The codeword whose monomial coefficients win each majority vote,
        highest degree first, each layer's codeword part peeled off before
        the next.  Failure code deg + 1: a tied vote on a coefficient of
        degree deg, the first in that order."""
        check_block(words, self.rm.n)
        rows = max(1, _VOTE_CELLS // max(sets.size for _, sets, _ in self._layers))
        if len(words) > rows:
            return decode_in_slices(self.decode_block, words, rows)
        residual = words
        # the layers come by decreasing degree, so a row's first tie has
        # the largest code among its ties
        failure = np.zeros(len(words), dtype=np.uint8)
        for deg, sets, table in self._layers:
            votes = sets.shape[1]
            bits = bytes_as_bools(residual, self.rm.n)
            twice = 2 * np.bitwise_xor.reduce(bits[:, sets], axis=3).sum(axis=2)
            failure = np.maximum(failure, (twice == votes).any(axis=1) * np.uint8(deg + 1))
            layer = apply_packed(table, bools_as_bytes(twice > votes))
            residual = residual ^ words_as_bytes(layer, self.rm.n)
        return np.where(failure[:, None] == 0, words ^ residual, words), failure

    def decode_word(self, bits: int) -> int:
        decoded, failure = self.decode_block(word_block(bits, self.rm.n))
        if failure[0]:
            raise DecodingFailure(f"tied majority vote on a degree-{failure[0] - 1} coefficient")
        return bytes_as_ints(decoded)[0]
