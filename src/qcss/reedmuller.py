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
from .gf2 import BitMatrix, bools_as_bytes, bytes_as_ints

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


class ReedDecoder:
    """Majority-vote decoder; corrects up to (2^(m-r) - 1) // 2 errors."""

    def __init__(self, rm: RmCode):
        self.rm = rm
        self.radius = (rm.design_distance() - 1) // 2
        self._masks = [_vote_masks(rm.m, s) for s in rm.monomials]
        self._rows = rm.code.generator.row_bits()
        # monomial indices by degree, highest degree first
        self._layers = [
            (deg, [idx for idx, s in enumerate(rm.monomials) if len(s) == deg])
            for deg in range(rm.r, -1, -1)
        ]

    def decode_word(self, bits: int) -> int:
        """The codeword whose monomial coefficients win each majority vote,
        highest degree first, each layer's codeword part peeled off before
        the next."""
        if bits >> self.rm.n:
            raise InvalidInput(f"received word has bits beyond length {self.rm.n}")
        rows = self._rows
        residual = bits
        for deg, indices in self._layers:
            layer = 0
            for idx in indices:
                ones = 0
                masks = self._masks[idx]
                for mask in masks:
                    ones += (residual & mask).bit_count() & 1
                if 2 * ones == len(masks):
                    raise DecodingFailure(
                        f"tied majority vote on a degree-{deg} coefficient"
                    )
                if 2 * ones > len(masks):
                    layer ^= rows[idx]
            residual ^= layer
        return bits ^ residual
