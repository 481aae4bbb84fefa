"""CSS code assembly, symplectic Pauli errors, syndromes, and decoding.

A Pauli operator is kept as its symplectic pair (x_bits, z_bits); the global
phase never influences syndromes or logical-error analysis and is dropped.
Decoding runs the classical decoder of each constituent's dual on a word with
the observed syndrome: x-type stabilizer syndromes determine the z-type error
component and vice versa.

`syndrome` and `residual_is_logical` are the definitions themselves: the
parities of an error's components against the stabilizer rows, and whether
the residual's parts lie in C1 and C2.  They share no table with the block
path below, whose oracle they are in the tests.

Each side of a code has two ``gf2.packed_table``s, built once: a check map
on the side's error bits, whose low bits are the syndrome and whose high
bits, the checks of the other code's dual, vanish exactly on the stabilizer
part; and a preimage map from a syndrome to a word that has it.  One rule
shares them: the x side takes the z side's two maps exactly when one
decoder object decodes one code, that is ``decoder1 is decoder2`` and C1
and C2 span one code, in one basis or in two.  Either preimage of an
error's syndrome lies in its coset of the dual, and a decoder's estimate
depends on that coset alone.  `decode` keeps C2's own preimage map, which
is C1's exactly when the two generators are equal.  Through those tables
(64 KB for the check map of [[127,57,11]]) `CssCode.classify_block`
decodes a whole Monte Carlo block at once: per side, or once for both
sides when they share their maps, one gather of the check map, one of the
preimage map over the distinct nonzero syndromes of the rows, one
``decode_block`` call and one XOR for the estimates.  `CssCode.decode` is
that path on one syndrome, through the decoder's one-row ``decode_word``.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .bch import BchDecoder, CyclicCodeSpec
from .codes import LinearCode, require_mutually_orthogonal
from .errors import (
    DecodingFailure,
    InternalConsistencyError,
    InvalidInput,
    PreconditionError,
    ResourceLimit,
)
from .gf2 import (
    BitVector,
    apply_packed,
    bools_as_bytes,
    bytes_as_ints,
    check_block,
    ints_as_bytes,
    pack_rows,
    packed_parities,
    packed_table,
    parities,
    preimages,
    word_block,
    words_as_bytes,
)

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
        if self.n < 0:
            raise InvalidInput(f"negative qubit count {self.n}")
        if self.x_bits >> self.n or self.z_bits >> self.n or self.x_bits < 0 or self.z_bits < 0:
            raise InvalidInput("component bits outside the qubit range")

    @classmethod
    def identity(cls, n: int) -> "PauliError":
        return cls(n, 0, 0)

    @classmethod
    def single(cls, n: int, qubit: int, kind: str) -> "PauliError":
        if not 0 <= qubit < n:
            raise InvalidInput(f"qubit {qubit} out of range")
        if kind not in _PAULI_BITS:
            raise InvalidInput(f"not a Pauli letter: {kind!r}")
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
        if not 0 <= qubit < self.n:
            raise InvalidInput(f"qubit {qubit} out of range")
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


class BlockDecoder(Protocol):
    """Classical decoder interface.

    ``decode_block`` takes a (count, ceil(n/8)) uint8 block, row r the
    little-endian bytes of a received n-bit word (``gf2.check_block``'s
    layout), and returns the decoded block in the same layout and a (count,)
    uint8 failure code: 0 where the row decoded to a codeword, a nonzero
    decoder-specific code where it is beyond the decoder's reach, and there
    the row is the received word.  It raises InvalidInput on a block of
    another shape or dtype or with a bit at or above n.  ``decode_word`` is
    its one-row call: it maps an int to a codeword int and raises
    DecodingFailure, with the message of the row's failure code, or
    InvalidInput for a word that is negative or has a bit at or above n.
    Every error of weight at most ``radius`` is corrected.  A decoder with
    only ``decode_word`` also plugs into `CssCode`, which then decodes a
    block row by row."""

    radius: int

    def decode_block(self, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]: ...

    def decode_word(self, bits: int) -> int: ...


# patterns of one weight that LookupDecoder takes the syndromes of at once
_LEADER_CHUNK = 1 << 12


def _supports(n: int, weight: int):
    """The supports of the given weight in ``itertools.combinations`` order,
    as (count, weight) index arrays of at most _LEADER_CHUNK rows."""
    flat = itertools.chain.from_iterable(itertools.combinations(range(n), weight))
    while (chunk := np.fromiter(itertools.islice(flat, _LEADER_CHUNK * weight), np.intp)).size:
        yield chunk.reshape(-1, weight)


class LookupDecoder:
    """Coset-leader table decoder for small codes.

    ``parity`` is a generator matrix of the dual of the decoded code (its rows
    are the parity checks).  Leaders are filled in order of increasing weight,
    ties resolved by enumeration order, so the table is deterministic.
    ``radius`` is the largest t such that all patterns of weight at most t
    have distinct syndromes: one less than the first weight at which a
    pattern's syndrome is already taken.  The table is a (2^k, ceil(n/8))
    uint8 array of leaders indexed by syndrome, so a block decodes with one
    gather; a syndrome that no pattern within ``max_weight`` reaches has no
    leader, failure code 1.
    """

    def __init__(self, parity: LinearCode, max_weight: int | None = None):
        if parity.k > LOOKUP_MAX_ROWS:
            raise ResourceLimit(
                f"a table of 2^{parity.k} syndromes exceeds the lookup budget "
                f"of 2^{LOOKUP_MAX_ROWS}"
            )
        self.parity = parity
        self.n = n = parity.n
        self._syndromes = packed_parities(parity.generator.row_bits(), n)
        self._leaders = np.zeros((1 << parity.k, (n + 7) // 8), dtype=np.uint8)
        self._known = known = np.zeros(1 << parity.k, dtype=bool)
        known[0] = True
        cap = max_weight if max_weight is not None else n
        units = bools_as_bytes(np.eye(n, dtype=bool))  # row p: the word with bit p
        weight = 1
        collision = None  # the first weight at which a syndrome repeats
        while not known.all() and weight <= cap:
            for chunk in _supports(n, weight):
                patterns = np.bitwise_or.reduce(units[chunk], axis=1)
                s = apply_packed(self._syndromes, patterns)[:, 0]
                # the first pattern of each syndrome, in enumeration order
                distinct, first = np.unique(s, return_index=True)
                fresh = ~known[distinct]
                if collision is None and (len(distinct) < len(s) or not fresh.all()):
                    collision = weight
                self._leaders[distinct[fresh]] = patterns[first[fresh]]
                known[distinct[fresh]] = True
            weight += 1
        self.radius = (weight if collision is None else collision) - 1

    def decode_block(self, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        check_block(words, self.n)
        s = apply_packed(self._syndromes, words)[:, 0]
        known = self._known[s]
        return words ^ self._leaders[s], (~known).view(np.uint8)

    def decode_word(self, bits: int) -> int:
        decoded, failure = self.decode_block(word_block(bits, self.n))
        if failure[0]:
            raise DecodingFailure("syndrome outside the coset-leader table")
        return bytes_as_ints(decoded)[0]


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
        decoder1: BlockDecoder | None = None,
        decoder2: BlockDecoder | None = None,
        distance: int | None = None,
    ):
        require_mutually_orthogonal(c1, c2)
        self.c1 = c1
        self.c2 = c2
        self.n = c1.n
        self.quantum_k = self.n - c1.k - c2.k
        self.decoder1 = decoder1
        self.decoder2 = decoder2
        self.distance = distance
        self._preimage1 = _preimage_table(c1)
        same_basis = c1.generator == c2.generator
        self._preimage2 = self._preimage1 if same_basis else _preimage_table(c2)
        # z bits -> s_x, then the checks of C2's dual; x bits likewise
        self._z_block = (packed_parities(_check_rows(c1, c2), self.n), self._preimage1)
        # a preimage in either basis of one code lies in the error's coset
        # of the dual, which is all that one decoder of that code sees
        if decoder1 is decoder2 and (same_basis or c1.same_code(c2)):
            self._x_block = self._z_block
        else:
            self._x_block = (packed_parities(_check_rows(c2, c1), self.n), self._preimage2)

    @classmethod
    def from_self_orthogonal(
        cls,
        code: LinearCode,
        decoder: BlockDecoder | None = None,
        distance: int | None = None,
    ) -> "CssCode":
        if not code.is_self_orthogonal():
            raise PreconditionError("code is not self-orthogonal")
        return cls(code, code, decoder1=decoder, decoder2=decoder, distance=distance)

    def parameters(self) -> tuple[int, int, int | None]:
        return self.n, self.quantum_k, self.distance

    def stabilizer(self, kind: str, index: int) -> PauliError:
        code = {"x": self.c1, "z": self.c2}.get(kind)
        if code is None:
            raise InvalidInput(f"stabilizer kind must be 'x' or 'z', got {kind!r}")
        if not 0 <= index < code.k:
            raise InvalidInput(f"no {kind}-type stabilizer {index} among {code.k}")
        bits = code.generator.row(index).bits
        return PauliError(self.n, bits, 0) if kind == "x" else PauliError(self.n, 0, bits)

    def syndrome(self, error: PauliError) -> Syndrome:
        if error.n != self.n:
            raise InvalidInput(f"error size {error.n} != {self.n}")
        s_x = parities(self.c1.generator.row_bits(), error.z_bits)
        s_z = parities(self.c2.generator.row_bits(), error.x_bits)
        return Syndrome(s_x=BitVector(self.c1.k, s_x), s_z=BitVector(self.c2.k, s_z))

    def decode(self, syndrome: Syndrome) -> PauliError:
        """The estimate of a syndrome, z side first: the side path of
        `classify_block` on one syndrome, with the decoder's one-row
        ``decode_word`` so that a failure carries its message."""
        if syndrome.s_x.n != self.c1.k or syndrome.s_z.n != self.c2.k:
            raise InvalidInput(f"syndrome lengths {syndrome.s_x.n}, {syndrome.s_z.n} do not fit")
        z_hat = self._decode_one(syndrome.s_x, self._preimage1, self.decoder1, "z")
        x_hat = self._decode_one(syndrome.s_z, self._preimage2, self.decoder2, "x")
        return PauliError(self.n, x_hat, z_hat)

    def _decode_one(self, s: BitVector, preimage: np.ndarray, decoder, side: str) -> int:
        if s.bits == 0:
            return 0
        if decoder is None:
            raise DecodingFailure(f"no decoder attached for the {side} component", side=side)
        word = bytes_as_ints(self._preimages(word_block(s.bits, s.n), preimage))[0]
        try:
            codeword = decoder.decode_word(word)
        except DecodingFailure as exc:
            raise DecodingFailure(f"{side}-component decoding failed: {exc}", side=side) from exc
        return word ^ codeword

    def _preimages(self, syndromes: np.ndarray, preimage: np.ndarray) -> np.ndarray:
        """Words with the syndromes of a (count, ceil(k/8)) uint8 block, as a
        (count, ceil(n/8)) block."""
        return words_as_bytes(apply_packed(preimage, syndromes), self.n)

    def residual_is_logical(self, error: PauliError, estimate: PauliError) -> bool:
        """True when error and estimate differ by more than a stabilizer.

        A nonzero residual syndrome means the estimate was not syndrome
        consistent, which only a broken decoder produces.  Otherwise the
        residual is a stabilizer exactly when its x part lies in C1 and its
        z part in C2.
        """
        if error.n != self.n or estimate.n != self.n:
            raise InvalidInput(f"error sizes {error.n}, {estimate.n} != {self.n}")
        rx = BitVector(self.n, error.x_bits ^ estimate.x_bits)
        rz = BitVector(self.n, error.z_bits ^ estimate.z_bits)
        rows1, rows2 = self.c1.generator.row_bits(), self.c2.generator.row_bits()
        if parities(rows1, rz.bits) or parities(rows2, rx.bits):
            raise InternalConsistencyError("estimate does not match the observed syndrome")
        return not (self.c1.contains(rx) and self.c2.contains(rz))

    def classify_block(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        """The outcome of each error of a block: SUCCESS, LOGICAL, X_FAILURE
        or Z_FAILURE, as `syndrome`, `decode` and `residual_is_logical`
        give it.

        Row r of ``x`` and of ``z``, (count, ceil(n/8)) uint8 arrays, holds
        the little-endian bytes of error r's x and z bits.  Both sides of
        every row are decoded.  Sides that share their maps, one decoder of
        one code as in CSS(C, C), are classified as one stacked block: one
        ``decode_block`` call over the distinct nonzero syndromes of both,
        so a syndrome that both sides show decodes once.  Other sides get
        one call each.  As in `decode` the z side comes first: a row on
        which both sides fail is a z failure.  Every estimate that was
        decoded must have the observed syndrome.
        """
        width = (self.n + 7) // 8
        for bits in (x, z):
            if bits.dtype != np.uint8 or bits.shape != (len(x), width):
                raise InvalidInput(f"a block must be two ({len(x)}, {width}) uint8 arrays")
        z_side = (*self._z_block, self.c1.k, self.decoder1)
        x_side = (*self._x_block, self.c2.k, self.decoder2)
        if self._z_block is self._x_block:
            parts = self._classify_side(np.concatenate((z, x)), *z_side)
        else:
            parts = map(np.concatenate, zip(self._classify_side(z, *z_side),
                                            self._classify_side(x, *x_side)))
        (z_failed, x_failed), (z_bad, x_bad), logical = (a.reshape(2, -1) for a in parts)
        if ((~z_failed & z_bad) | (~x_failed & x_bad)).any():
            raise InternalConsistencyError("estimate does not match the observed syndrome")
        return np.select(
            [z_failed, x_failed, logical.any(axis=0)], [Z_FAILURE, X_FAILURE, LOGICAL], SUCCESS
        )

    def _classify_side(self, packed, table, preimage, k, decoder):
        """Per row of one side: (decoding failed, residual syndrome nonzero,
        residual outside the stabilizer).  The checks are linear, so a
        row's residual checks are its own XOR those of its estimate, and
        the estimate depends on the syndrome alone.  The distinct nonzero
        syndromes go to the decoder as one block; a zero syndrome's estimate
        is zero and reaches no decoder."""
        checks = apply_packed(table, packed)
        low = pack_rows([(1 << k) - 1], 64 * table.shape[2])
        # only the syndrome's own words, so that k <= 64 sorts one word a row
        syndromes, inverse = _unique_rows((checks & low)[:, : max(1, -(-k // 64))])
        live = syndromes.any(axis=1)
        words = self._preimages(words_as_bytes(syndromes[live], k), preimage)
        failed = np.zeros(len(syndromes), dtype=bool)
        estimates = np.zeros((len(syndromes), packed.shape[1]), dtype=np.uint8)
        if decoder is None:
            failed[live] = True
        elif len(words):
            decoded, failure = _decode_block(decoder, words)
            bad = failure.astype(bool)
            failed[live] = bad
            estimates[live] = np.where(bad[:, None], 0, words ^ decoded)
        residual = checks ^ apply_packed(table, estimates)[inverse]
        return failed[inverse], (residual & low).any(axis=1), (residual & ~low).any(axis=1)


def _decode_block(decoder, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``decoder.decode_block(words)``; a decoder with only ``decode_word``,
    the interface before block decoding, decodes row by row, failure code 1
    where it raises DecodingFailure."""
    if hasattr(decoder, "decode_block"):
        return decoder.decode_block(words)
    decoded, failure = [], np.zeros(len(words), dtype=np.uint8)
    for j, bits in enumerate(bytes_as_ints(words)):
        try:
            decoded.append(decoder.decode_word(bits))
        except DecodingFailure:
            decoded.append(bits)
            failure[j] = 1
    return ints_as_bytes(decoded, words.shape[1]), failure


def _unique_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a (count, words) uint64 array, and the index of
    each row among them."""
    if a.shape[1] == 1:
        distinct, inverse = np.unique(a[:, 0], return_inverse=True)
        return distinct[:, None], inverse
    keys = np.ascontiguousarray(a).view(np.dtype((np.void, a.itemsize * a.shape[1])))
    _, first, inverse = np.unique(keys.ravel(), return_index=True, return_inverse=True)
    return a[first], inverse


def _check_rows(syndrome_code: LinearCode, stabilizer_code: LinearCode) -> list[int]:
    """The rows of ``syndrome_code``, then those of the dual of
    ``stabilizer_code``: parities with the latter vanish exactly on that
    code.  A side's check map, as ``apply_packed``'s table for a block."""
    return syndrome_code.generator.row_bits() + stabilizer_code.dual().generator.row_bits()


def _preimage_table(code: LinearCode) -> np.ndarray:
    """The map s -> w with G w = s, as ``apply_packed``'s table: bit j of s
    maps to ``gf2.preimages``'s word for e_j."""
    return packed_table(preimages(code.generator.row_bits(), code.n)[0], code.n)


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
        rm.code, decoder=ReedDecoder(dual), distance=rm.dual_distance()
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
