"""CSS code assembly, symplectic Pauli errors, syndromes, and decoding.

A Pauli operator is kept as its symplectic pair (x_bits, z_bits); the global
phase never influences syndromes or logical-error analysis and is dropped.
Decoding runs the classical decoder of each constituent's dual on a word with
the observed syndrome: x-type stabilizer syndromes determine the z-type error
component and vice versa.

Each side of a code has two ``gf2.ParityMap``s, built once: a check map on
the side's error bits, whose low bits are the syndrome and whose high bits,
the checks of the other code's dual, vanish exactly on the stabilizer part;
and a preimage map from a syndrome to a word that has it.  Their ceil(n/8)
and ceil(k/8) tables of 256 n-bit ints take 0.23 MB for [[127,57,11]]; the
sides share them when C1 and C2 have one generator.  Each check map is also
kept as one numpy array (64 KB for [[127,57,11]]), through which
`CssCode.classify_block` applies it to a whole Monte Carlo block at once.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .bch import BchDecoder, CyclicCodeSpec
from .codes import LinearCode
from .errors import (
    DecodingFailure,
    InternalConsistencyError,
    InvalidInput,
    PreconditionError,
    ResourceLimit,
)
from .gf2 import BitVector, ParityMap, apply_packed, pack_rows, parities, preimages
from .gf2 import bytes_as_ints, ints_as_bytes

# largest parity-check count a LookupDecoder accepts: its table has 2^k entries
LOOKUP_MAX_ROWS = 16

# outcomes of one error under `CssCode.classify_block`
SUCCESS, LOGICAL, X_FAILURE, Z_FAILURE = range(4)

_PAULI_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}


@dataclass(frozen=True)
class PauliError:
    """n-qubit Pauli operator as (x_bits, z_bits); Y sets both bits."""

    n: int
    x_bits: int
    z_bits: int

    def __post_init__(self):
        if self.x_bits >> self.n or self.z_bits >> self.n or self.x_bits < 0 or self.z_bits < 0:
            raise InvalidInput("component bits outside the qubit range")

    @classmethod
    def identity(cls, n: int) -> "PauliError":
        return cls(n, 0, 0)

    @classmethod
    def single(cls, n: int, qubit: int, kind: str) -> "PauliError":
        if not 0 <= qubit < n:
            raise InvalidInput(f"qubit {qubit} out of range")
        x, z = _PAULI_BITS[kind]
        return cls(n, x << qubit, z << qubit)

    @classmethod
    def from_string(cls, text: str) -> "PauliError":
        x = z = 0
        for i, ch in enumerate(text):
            if ch not in _PAULI_BITS:
                raise InvalidInput(f"not a Pauli letter: {ch!r}")
            xb, zb = _PAULI_BITS[ch]
            x |= xb << i
            z |= zb << i
        return cls(len(text), x, z)

    def weight(self) -> int:
        return (self.x_bits | self.z_bits).bit_count()

    def __mul__(self, other: "PauliError") -> "PauliError":
        if self.n != other.n:
            raise InvalidInput(f"size mismatch: {self.n} != {other.n}")
        return PauliError(self.n, self.x_bits ^ other.x_bits, self.z_bits ^ other.z_bits)

    def kind(self, qubit: int) -> str:
        x = self.x_bits >> qubit & 1
        z = self.z_bits >> qubit & 1
        return {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}[(x, z)]

    def __str__(self) -> str:
        return "".join(self.kind(i) for i in range(self.n))


def symplectic_dot(e: PauliError, f: PauliError) -> int:
    """0 when the operators commute, 1 when they anticommute."""
    if e.n != f.n:
        raise InvalidInput(f"size mismatch: {e.n} != {f.n}")
    a = (e.x_bits & f.z_bits).bit_count() & 1
    b = (e.z_bits & f.x_bits).bit_count() & 1
    return a ^ b


@dataclass(frozen=True)
class Syndrome:
    """Anticommutation bits against the x-type and z-type stabilizer rows."""

    s_x: BitVector
    s_z: BitVector

    def is_zero(self) -> bool:
        return self.s_x.bits == 0 and self.s_z.bits == 0


class WordDecoder(Protocol):
    """Classical decoder interface: ``decode_word`` maps a received n-bit
    word to a codeword, raises DecodingFailure when the word is beyond the
    decoder's reach and InvalidInput when it is negative or has a bit at or
    above n.  Every error of weight at most ``radius`` is corrected."""

    radius: int

    def decode_word(self, bits: int) -> int: ...


class LookupDecoder:
    """Coset-leader table decoder for small codes.

    ``parity`` is a generator matrix of the dual of the decoded code (its rows
    are the parity checks).  Leaders are filled in order of increasing weight,
    ties resolved by enumeration order, so the table is deterministic.
    ``radius`` is the largest t such that all patterns of weight at most t
    have distinct syndromes: one less than the first weight at which a
    pattern's syndrome is already taken.
    """

    def __init__(self, parity: LinearCode, max_weight: int | None = None):
        if parity.k > LOOKUP_MAX_ROWS:
            raise ResourceLimit(
                f"a table of 2^{parity.k} syndromes exceeds the lookup budget "
                f"of 2^{LOOKUP_MAX_ROWS}"
            )
        self.parity = parity
        n = parity.n
        self._syndromes = syndromes = ParityMap.from_rows(parity.generator.row_bits(), n)
        size = 1 << parity.k
        table: dict[int, int] = {0: 0}
        cap = max_weight if max_weight is not None else n
        weight = 1
        collision = None  # the first weight at which a syndrome repeats
        while len(table) < size and weight <= cap:
            for support in itertools.combinations(range(n), weight):
                e = sum(1 << p for p in support)
                s = syndromes(e)
                if s not in table:
                    table[s] = e
                elif collision is None:
                    collision = weight
            weight += 1
        self._table = table
        self.n = n
        self.radius = (weight if collision is None else collision) - 1

    def decode_word(self, bits: int) -> int:
        if bits >> self.n:
            raise InvalidInput(f"received word has bits beyond length {self.n}")
        e = self._table.get(self._syndromes(bits))
        if e is None:
            raise DecodingFailure("syndrome outside the coset-leader table")
        return bits ^ e


class CssCode:
    """CSS pair (C1, C2) with C2 inside the dual of C1.

    x-type stabilizers carry the rows of C1's generator, z-type stabilizers
    the rows of C2's.  ``decoder1`` decodes the dual of C1 (recovers z-type
    error components from s_x) and ``decoder2`` the dual of C2.
    """

    def __init__(
        self,
        c1: LinearCode,
        c2: LinearCode,
        decoder1: WordDecoder | None = None,
        decoder2: WordDecoder | None = None,
        distance: int | None = None,
    ):
        if c1.n != c2.n:
            raise PreconditionError(f"length mismatch: {c1.n} != {c2.n}")
        rows2 = c2.generator.row_bits()
        if any(parities(rows2, a) for a in c1.generator.row_bits()):
            raise PreconditionError("the two codes are not mutually orthogonal")
        self.c1 = c1
        self.c2 = c2
        self.n = c1.n
        self.quantum_k = self.n - c1.k - c2.k
        self.decoder1 = decoder1
        self.decoder2 = decoder2
        self.distance = distance
        self._mask1, self._mask2 = (1 << c1.k) - 1, (1 << c2.k) - 1
        # z bits -> s_x, then the checks of C2's dual; x bits likewise
        self._z_checks, self._preimage1 = _check_map(c1, c2), _preimage_map(c1)
        if c1.generator == c2.generator:
            self._x_checks, self._preimage2 = self._z_checks, self._preimage1
        else:
            self._x_checks, self._preimage2 = _check_map(c2, c1), _preimage_map(c2)
        # the check maps as numpy tables, for classify_block
        self._z_table = self._z_checks.packed_table()
        self._x_table = (
            self._z_table if self._x_checks is self._z_checks else self._x_checks.packed_table()
        )

    @classmethod
    def from_self_orthogonal(
        cls,
        code: LinearCode,
        decoder: WordDecoder | None = None,
        distance: int | None = None,
    ) -> "CssCode":
        if not code.is_self_orthogonal():
            raise PreconditionError("code is not self-orthogonal")
        return cls(code, code, decoder1=decoder, decoder2=decoder, distance=distance)

    def parameters(self) -> tuple[int, int, int | None]:
        return self.n, self.quantum_k, self.distance

    def stabilizer(self, kind: str, index: int) -> PauliError:
        if kind == "x":
            return PauliError(self.n, self.c1.generator.row(index).bits, 0)
        if kind == "z":
            return PauliError(self.n, 0, self.c2.generator.row(index).bits)
        raise InvalidInput(f"stabilizer kind must be 'x' or 'z', got {kind!r}")

    def syndrome(self, error: PauliError) -> Syndrome:
        if error.n != self.n:
            raise InvalidInput(f"error size {error.n} != {self.n}")
        s_x = self._z_checks(error.z_bits) & self._mask1
        s_z = self._x_checks(error.x_bits) & self._mask2
        return Syndrome(s_x=BitVector(self.c1.k, s_x), s_z=BitVector(self.c2.k, s_z))

    def decode(self, syndrome: Syndrome) -> PauliError:
        if syndrome.s_x.n != self.c1.k or syndrome.s_z.n != self.c2.k:
            raise InvalidInput(f"syndrome lengths {syndrome.s_x.n}, {syndrome.s_z.n} do not fit")
        z_hat = self._decode_side(syndrome.s_x.bits, self._preimage1, self.decoder1, "z")
        x_hat = self._decode_side(syndrome.s_z.bits, self._preimage2, self.decoder2, "x")
        return PauliError(self.n, x_hat, z_hat)

    def _decode_side(self, s: int, preimage: ParityMap, decoder, side: str) -> int:
        if s == 0:
            return 0
        if decoder is None:
            raise DecodingFailure(f"no decoder attached for the {side} component", side=side)
        word = preimage(s)
        try:
            codeword = decoder.decode_word(word)
        except DecodingFailure as exc:
            raise DecodingFailure(f"{side}-component decoding failed: {exc}", side=side) from exc
        return word ^ codeword

    def residual_is_logical(self, error: PauliError, estimate: PauliError) -> bool:
        """True when error and estimate differ by more than a stabilizer.

        A nonzero residual syndrome means the estimate was not syndrome
        consistent, which only a broken decoder produces.  Otherwise the
        residual's x part lies in C1 exactly when the checks of C1's dual
        vanish on it, and its z part in C2 likewise.
        """
        if error.n != self.n or estimate.n != self.n:
            raise InvalidInput(f"error sizes {error.n}, {estimate.n} != {self.n}")
        z_checks = self._z_checks(error.z_bits ^ estimate.z_bits)
        x_checks = self._x_checks(error.x_bits ^ estimate.x_bits)
        if z_checks & self._mask1 or x_checks & self._mask2:
            raise InternalConsistencyError("estimate does not match the observed syndrome")
        return bool(z_checks >> self.c1.k or x_checks >> self.c2.k)

    def classify_block(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        """The outcome of each error of a block: SUCCESS, LOGICAL, X_FAILURE
        or Z_FAILURE, as `syndrome`, `decode` and `residual_is_logical`
        give it.

        Row r of ``x`` and of ``z``, (count, ceil(n/8)) uint8 arrays, holds
        the little-endian bytes of error r's x and z bits.  As in `decode`
        the z side comes first: a row on which both sides fail is a z
        failure, and the x side of a z failure is not decoded.  Each side
        decodes each distinct syndrome of the block once.
        """
        width = (self.n + 7) // 8
        for bits in (x, z):
            if bits.dtype != np.uint8 or bits.shape != (len(x), width):
                raise InvalidInput(f"a block must be two ({len(x)}, {width}) uint8 arrays")
        z_failed, z_bad, z_logical = self._classify_side(
            z, self._z_table, self.c1.k, self._preimage1, self.decoder1, "z"
        )
        rest = ~z_failed
        x_failed, x_bad, x_logical = (np.zeros_like(z_failed) for _ in range(3))
        x_failed[rest], x_bad[rest], x_logical[rest] = self._classify_side(
            x[rest], self._x_table, self.c2.k, self._preimage2, self.decoder2, "x"
        )
        if (rest & ~x_failed & (z_bad | x_bad)).any():
            raise InternalConsistencyError("estimate does not match the observed syndrome")
        return np.select(
            [z_failed, x_failed, z_logical | x_logical], [Z_FAILURE, X_FAILURE, LOGICAL], SUCCESS
        )

    def _classify_side(self, packed, table, k, preimage, decoder, side):
        """Per row of one side: (decoding failed, residual syndrome nonzero,
        residual outside the stabilizer).  The checks are linear, so a
        row's residual checks are its own XOR those of its estimate, and
        the estimate depends on the syndrome alone."""
        checks = apply_packed(table, packed)
        low = pack_rows([(1 << k) - 1], 64 * table.shape[2])
        # only the syndrome's own words, so that k <= 64 sorts one word a row
        syndromes, inverse = _unique_rows((checks & low)[:, : max(1, -(-k // 64))])
        failed = np.zeros(len(syndromes), dtype=bool)
        estimates = []
        for j, s in enumerate(bytes_as_ints(syndromes)):
            try:
                e = self._decode_side(s, preimage, decoder, side)
            except DecodingFailure:
                failed[j], e = True, 0
            estimates.append(e)
        est = ints_as_bytes(estimates, packed.shape[1])
        residual = checks ^ apply_packed(table, est)[inverse]
        return failed[inverse], (residual & low).any(axis=1), (residual & ~low).any(axis=1)


def _unique_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a (count, words) uint64 array, and the index of
    each row among them."""
    if a.shape[1] == 1:
        distinct, inverse = np.unique(a[:, 0], return_inverse=True)
        return distinct[:, None], inverse
    keys = np.ascontiguousarray(a).view(np.dtype((np.void, a.itemsize * a.shape[1])))
    _, first, inverse = np.unique(keys.ravel(), return_index=True, return_inverse=True)
    return a[first], inverse


def _check_map(syndrome_code: LinearCode, stabilizer_code: LinearCode) -> ParityMap:
    """Parities with the rows of ``syndrome_code``, then with the dual of
    ``stabilizer_code``: those high bits vanish exactly on that code."""
    rows = syndrome_code.generator.row_bits() + stabilizer_code.dual().generator.row_bits()
    return ParityMap.from_rows(rows, syndrome_code.n)


def _preimage_map(code: LinearCode) -> ParityMap:
    """The map s -> w with G w = s: bit j of s maps to ``gf2.preimages``'s
    word for e_j."""
    return ParityMap(preimages(code.generator.row_bits(), code.n)[0])


# -- assembly helpers ----------------------------------------------------------


def css_from_self_orthogonal_cyclic(spec: CyclicCodeSpec, distance: int | None = None) -> CssCode:
    """CSS code of a self-orthogonal cyclic code, decoded by Berlekamp-Massey
    on its dual."""
    code = spec.to_code()
    dual_spec = spec.dual_spec()
    decoder = BchDecoder(dual_spec)
    return CssCode.from_self_orthogonal(
        code, decoder=decoder, distance=distance if distance is not None else dual_spec.delta
    )


def css_from_reed_muller(m: int, r: int) -> CssCode:
    """CSS code of a self-orthogonal RM(m, r), Reed-decoded on the dual."""
    from .reedmuller import ReedDecoder, rm_generator

    rm = rm_generator(m, r)
    if not rm.code.is_self_orthogonal():
        raise PreconditionError(f"order {r} in {m} variables is not self-orthogonal")
    dual = rm_generator(m, m - r - 1)
    return CssCode.from_self_orthogonal(
        rm.code, decoder=ReedDecoder(dual), distance=1 << (r + 1)
    )


def css_from_projective_geometry(
    k: int, q: int, l: int, distance: int | None = None
) -> CssCode:
    """CSS code of a projective-geometry configuration with two-pass
    majority-logic decoding."""
    from .projgeom import RudolphDecoder, build_so_code, enumerate_spaces, ProjGeometry

    cfg = enumerate_spaces(ProjGeometry(k, q), l)
    code = build_so_code(cfg)
    radius = None if distance is None else min((distance - 1) // 2, cfg.two_pass_bound)
    decoder = RudolphDecoder(cfg, code, radius=radius)
    return CssCode.from_self_orthogonal(code, decoder=decoder, distance=distance)


def css_with_lookup(c1: LinearCode, c2: LinearCode, distance: int | None = None) -> CssCode:
    """CSS code of two small codes, table-lookup decoded.  One code's sides share
    one table: a leader is the first pattern of its coset, whatever the basis."""
    decoder1 = LookupDecoder(c1)
    decoder2 = decoder1 if c1.same_code(c2) else LookupDecoder(c2)
    return CssCode(c1, c2, decoder1=decoder1, decoder2=decoder2, distance=distance)
