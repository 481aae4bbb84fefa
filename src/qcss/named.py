"""A few named codes the examples and the verification harness keep reaching for."""
from __future__ import annotations

from .bch import bch_generator
from .codes import LinearCode, extend_with_parity
from .constructions import extend_parity_dual, shorten


def hamming_7_4() -> LinearCode:
    """[7,4,3] Hamming code in cyclic coordinates."""
    return bch_generator(7, 1, 3).to_code()


def simplex_dual_7_3() -> LinearCode:
    """[7,3,4] self-orthogonal dual of the Hamming code."""
    return hamming_7_4().dual()


def extended_hamming_8() -> LinearCode:
    """[8,4,4] self-dual code, via the parity extension of the [7,3] dual."""
    return extend_parity_dual(simplex_dual_7_3()).code


def steane_component() -> LinearCode:
    """[7,3,4] code obtained by shortening the [8,4,4] code at coordinate 0."""
    return shorten(extended_hamming_8(), 0).code


def golay_24() -> LinearCode:
    """[24,12,8] extended Golay code: parity extension of the length-23 code."""
    return extend_with_parity(bch_generator(23, 1, 5).to_code())
