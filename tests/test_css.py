import copy
import hashlib
import itertools
import random

import numpy as np
import pytest

from qcss import bch
from qcss.bch import (
    BchDecoder,
    is_self_orthogonal_cyclic,
    search_self_orthogonal_bch,
    spec_from_zero_set,
)
from qcss.channel import ChannelSpec, _pauli_errors, _sample_rows
from qcss.css import (
    LOGICAL,
    LOOKUP_MAX_ROWS,
    SUCCESS,
    X_FAILURE,
    Z_FAILURE,
    CssCode,
    LookupDecoder,
    PauliError,
    Syndrome,
    css_from_projective_geometry,
    css_from_reed_muller,
    css_from_self_orthogonal_cyclic,
    css_with_lookup,
    symplectic_dot,
)
from qcss import css as css_module
from qcss.codes import LinearCode, random_linear_code, random_self_orthogonal_code
from qcss.errors import (
    DecodingFailure,
    InternalConsistencyError,
    InvalidInput,
    PreconditionError,
    ResourceLimit,
)
from qcss.gf2 import BitMatrix, BitVector, bytes_as_ints, in_rowspace, ints_as_bytes, parities, rref
from qcss.named import steane_component


def steane_css():
    return css_with_lookup(steane_component(), steane_component(), distance=3)


def bch_15_css():
    hits = search_self_orthogonal_bch(15)
    hit = next(h for h in hits if h.code_spec.generator == 0x9AF)
    return css_from_self_orthogonal_cyclic(hit.code_spec, distance=3)


def test_symplectic_dot_basics():
    x0 = PauliError.single(1, 0, "X")
    z0 = PauliError.single(1, 0, "Z")
    assert symplectic_dot(x0, z0) == 1
    assert symplectic_dot(x0, x0) == 0
    xi = PauliError.from_string("XI")
    iz = PauliError.from_string("IZ")
    assert symplectic_dot(xi, iz) == 0


def test_symplectic_dot_matches_matrix_anticommutation():
    # oracle: multiply actual 2x2 Pauli matrices on a few qubits
    import numpy as np

    mats = {
        "I": np.eye(2),
        "X": np.array([[0, 1], [1, 0]]),
        "Y": np.array([[0, -1j], [1j, 0]]),
        "Z": np.array([[1, 0], [0, -1]]),
    }

    def kron_all(s):
        out = np.eye(1)
        for ch in s:
            out = np.kron(out, mats[ch])
        return out

    rng = random.Random(1)
    for _ in range(30):
        n = rng.randrange(1, 4)
        a = "".join(rng.choice("IXYZ") for _ in range(n))
        b = "".join(rng.choice("IXYZ") for _ in range(n))
        ma, mb = kron_all(a), kron_all(b)
        commute = np.allclose(ma @ mb, mb @ ma)
        assert symplectic_dot(PauliError.from_string(a), PauliError.from_string(b)) == (
            0 if commute else 1
        )


def test_pauli_weight_and_product():
    e = PauliError.from_string("XYZI")
    assert e.weight() == 3
    f = PauliError.from_string("IYXZ")
    assert str(e * f) == "XIYZ"  # Y*Y = I up to phase, Z*X = Y up to phase


_MALFORMED_PER_ERROR_INPUT = {
    "negative qubit count": lambda rm: PauliError(-1, 0, 0),
    "unknown Pauli letter": lambda rm: PauliError.single(3, 0, "Q"),
    "kind beyond the qubits": lambda rm: PauliError(3, 1, 0).kind(5),
    "negative kind qubit": lambda rm: PauliError(3, 1, 0).kind(-1),
    "stabilizer beyond the rows": lambda rm: rm.stabilizer("x", 99),
    "negative stabilizer index": lambda rm: rm.stabilizer("x", -1),
    "z stabilizer one past the rows": lambda rm: rm.stabilizer("z", rm.c2.k),
    "unknown stabilizer kind": lambda rm: rm.stabilizer("y", 0),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_PER_ERROR_INPUT))
def test_malformed_per_error_input_raises_invalid_input(case):
    rm = css_from_reed_muller(4, 1)
    with pytest.raises(InvalidInput):
        _MALFORMED_PER_ERROR_INPUT[case](rm)


def test_build_css_rejects_non_orthogonal_pair():
    from qcss.codes import LinearCode
    from qcss.gf2 import BitMatrix

    a = LinearCode(BitMatrix(3, [0b011]))
    b = LinearCode(BitMatrix(3, [0b110]))
    with pytest.raises(PreconditionError):
        CssCode(a, b)


def test_steane_parameters():
    css = steane_css()
    assert css.parameters() == (7, 1, 3)


def test_rm_css_parameters():
    css = css_from_reed_muller(4, 1)
    assert css.parameters() == (16, 6, 4)
    with pytest.raises(PreconditionError):
        css_from_reed_muller(4, 2)


def test_fano_css_parameters():
    css = css_from_projective_geometry(2, 2, 1, distance=4)
    assert css.parameters() == (8, 0, 4)


def test_syndrome_zero_for_identity_and_stabilizers():
    css = steane_css()
    assert css.syndrome(PauliError.identity(7)).is_zero()
    rng = random.Random(2)
    for _ in range(40):
        x = 0
        for row in css.c1.generator.row_bits():
            if rng.random() < 0.5:
                x ^= row
        z = 0
        for row in css.c2.generator.row_bits():
            if rng.random() < 0.5:
                z ^= row
        elem = PauliError(7, x, z)
        assert css.syndrome(elem).is_zero()


def test_syndrome_is_symplectic_dot_with_stabilizers():
    css = bch_15_css()
    rng = random.Random(3)
    for _ in range(10_000):
        err = PauliError(15, rng.getrandbits(15), rng.getrandbits(15))
        syn = css.syndrome(err)
        for i in range(css.c1.k):
            assert syn.s_x.bit(i) == symplectic_dot(css.stabilizer("x", i), err)
        for i in range(css.c2.k):
            assert syn.s_z.bit(i) == symplectic_dot(css.stabilizer("z", i), err)


def test_syndrome_single_z_reads_generator_column():
    css = steane_css()
    err = PauliError.single(7, 0, "Z")
    syn = css.syndrome(err)
    expected = css.c1.generator.column_bits(0)
    assert syn.s_x.bits == expected
    assert syn.s_x.bits != 0
    assert syn.s_z.bits == 0


def test_decode_zero_syndrome_gives_identity():
    css = steane_css()
    est = css.decode(Syndrome(BitVector(3, 0), BitVector(3, 0)))
    assert est == PauliError.identity(7)


def _assert_all_single_qubit_paulis_corrected(css):
    n = css.n
    for qubit in range(n):
        for kind in "XYZ":
            err = PauliError.single(n, qubit, kind)
            est = css.decode(css.syndrome(err))
            assert not css.residual_is_logical(err, est), (qubit, kind)


def test_steane_corrects_all_single_qubit_paulis():
    _assert_all_single_qubit_paulis_corrected(steane_css())


def test_bch15_corrects_all_single_qubit_paulis():
    _assert_all_single_qubit_paulis_corrected(bch_15_css())


def test_rm_css_corrects_all_single_qubit_paulis():
    _assert_all_single_qubit_paulis_corrected(css_from_reed_muller(4, 1))


def test_rm32_css_corrects_all_single_qubit_paulis():
    _assert_all_single_qubit_paulis_corrected(css_from_reed_muller(5, 1))


def test_pg_css_corrects_all_single_qubit_paulis():
    _assert_all_single_qubit_paulis_corrected(css_from_projective_geometry(3, 2, 2, distance=4))


def test_residual_classification():
    css = steane_css()
    err = PauliError.single(7, 0, "X")
    assert not css.residual_is_logical(err, err)
    # differing by a stabilizer element is benign
    stab = css.stabilizer("z", 0)
    assert not css.residual_is_logical(err, err * stab)
    # an estimate off by a dual word outside the stabilizer is a logical error
    dual = css.c1.dual()
    word = next(
        w.bits
        for w in (dual.generator.row(i) for i in range(dual.k))
        if not css.c1.contains(w)
    )
    est = err * PauliError(7, word, 0)
    assert css.residual_is_logical(err, est)


def test_residual_inconsistent_syndrome_raises():
    css = steane_css()
    err = PauliError.single(7, 0, "X")
    with pytest.raises(Exception):
        css.residual_is_logical(err, PauliError.single(7, 1, "Z"))


def test_decoding_failure_carries_side():
    css = CssCode(steane_component(), steane_component())  # no decoders attached
    err = PauliError.single(7, 0, "Z")
    with pytest.raises(DecodingFailure) as info:
        css.decode(css.syndrome(err))
    assert info.value.side == "z"


def test_lookup_decoder_radius_and_table():
    dec = LookupDecoder(steane_component())
    assert dec.radius == 1  # the dual [7,4,3] is perfect for single errors
    rng = random.Random(4)
    dual = steane_component().dual()
    for _ in range(30):
        cw = 0
        for row in dual.generator.row_bits():
            if rng.random() < 0.5:
                cw ^= row
        for p in range(7):
            assert dec.decode_word(cw ^ (1 << p)) == cw


def test_weight_two_errors_on_distance_three_code_never_pass_silently():
    # they either decode to something syndrome-consistent or fail; a logical
    # residual must be detected as such
    css = steane_css()
    outcomes = {"corrected": 0, "logical": 0, "failure": 0}
    for q1, q2 in itertools.combinations(range(7), 2):
        err = PauliError.single(7, q1, "X") * PauliError.single(7, q2, "X")
        try:
            est = css.decode(css.syndrome(err))
        except DecodingFailure:
            outcomes["failure"] += 1
            continue
        if css.residual_is_logical(err, est):
            outcomes["logical"] += 1
        else:
            outcomes["corrected"] += 1
    assert outcomes["logical"] + outcomes["failure"] > 0
    assert sum(outcomes.values()) == 21


def test_composite_length_css_21_9_3():
    # composite cyclic length: field GF(2^6), beta of order 21
    hits = search_self_orthogonal_bch(21)
    hit = next(h for h in hits if h.code_spec.generator == 0xA4CB)
    css = css_from_self_orthogonal_cyclic(hit.code_spec, distance=3)
    assert css.parameters() == (21, 9, 3)
    _assert_all_single_qubit_paulis_corrected(css)


def test_bch_31_11_5_css_corrects_double_errors():
    hits = search_self_orthogonal_bch(31)
    hit = next(h for h in hits if h.quantum_k == 11 and h.designed_distance == 5)
    css = css_from_self_orthogonal_cyclic(hit.code_spec, distance=5)
    assert css.parameters() == (31, 11, 5)
    rng = random.Random(31)
    for _ in range(300):
        q1, q2 = rng.sample(range(31), 2)
        err = PauliError.single(31, q1, rng.choice("XYZ")) * PauliError.single(
            31, q2, rng.choice("XYZ")
        )
        est = css.decode(css.syndrome(err))
        assert not css.residual_is_logical(err, est)


def test_bch_31_11_5_css_exhaustive_weight_two():
    # every two-qubit pauli pattern on the distance-5 code, all 36 kind pairs
    hits = search_self_orthogonal_bch(31)
    hit = next(h for h in hits if h.quantum_k == 11 and h.designed_distance == 5)
    css = css_from_self_orthogonal_cyclic(hit.code_spec, distance=5)
    errors = [PauliError.single(31, q1, k1) * PauliError.single(31, q2, k2)
              for q1, q2 in itertools.combinations(range(31), 2) for k1 in "XYZ" for k2 in "XYZ"]
    # all of them as one block, and the one-error path on a sample
    assert _classify(css, errors) == [SUCCESS] * len(errors)
    for err in random.Random(31).sample(errors, 100):
        assert not css.residual_is_logical(err, css.decode(css.syndrome(err))), err


class _ZeroCodeword:
    """Decodes every word to the zero codeword, so the estimate is the preimage."""

    radius = 0

    def decode_block(self, words):
        return np.zeros_like(words), np.zeros(len(words), dtype=np.uint8)

    def decode_word(self, bits: int) -> int:
        return 0


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_syndrome_preimage_reproduces_requested_syndrome(seed):
    rng = random.Random(seed)
    for _ in range(20):
        n = rng.randrange(4, 40)
        code = random_self_orthogonal_code(n, rng.randrange(1, n // 4 + 2), rng)
        css = CssCode.from_self_orthogonal(code, decoder=_ZeroCodeword())
        for _ in range(10):
            wanted = Syndrome(
                s_x=BitVector(code.k, rng.getrandbits(code.k)),
                s_z=BitVector(code.k, rng.getrandbits(code.k)),
            )
            assert css.syndrome(css.decode(wanted)) == wanted


def test_lookup_decoder_refuses_oversized_table():
    code = random_linear_code(40, LOOKUP_MAX_ROWS + 1, random.Random(8))
    with pytest.raises(ResourceLimit):
        LookupDecoder(code)


# -- the per-row parities and pivot walks as the oracle of the byte-table maps --


def _oracle_syndrome(css, err):
    s_x = parities(css.c1.generator.row_bits(), err.z_bits)
    s_z = parities(css.c2.generator.row_bits(), err.x_bits)
    return s_x, s_z


def _oracle_preimage(code, s):
    """A word w with G w = s, through T with rref(G) = T G and a pivot loop."""
    n = code.n
    aug = [g | 1 << (n + j) for j, g in enumerate(code.generator.row_bits())]
    red, pivots = rref(BitMatrix(n + code.k, aug))
    y = parities([r >> n for r in red.row_bits()], s)
    word = 0
    for i, p in enumerate(pivots):
        if y >> i & 1:
            word |= 1 << p
    return word


def _oracle_decode(css, s_x, s_z):
    out = []
    for s, code, decoder, side in ((s_x, css.c1, css.decoder1, "z"),
                                   (s_z, css.c2, css.decoder2, "x")):
        if s == 0:
            out.append(0)
            continue
        word = _oracle_preimage(code, s)
        try:
            out.append(word ^ decoder.decode_word(word))
        except DecodingFailure:
            return f"{side} failure"
    return PauliError(css.n, out[1], out[0])


def _oracle_residual(css, err, est):
    residual = err * est
    if any(_oracle_syndrome(css, residual)):
        return "inconsistent"
    n = css.n
    in_stab = in_rowspace(
        css.c1.rref_matrix, css.c1.pivots, BitVector(n, residual.x_bits)
    ) and in_rowspace(css.c2.rref_matrix, css.c2.pivots, BitVector(n, residual.z_bits))
    return not in_stab


def _residual_outcome(css, err, est):
    try:
        return css.residual_is_logical(err, est)
    except InternalConsistencyError:
        return "inconsistent"


def _random_word(rows, rng):
    w = 0
    for r in rows:
        if rng.random() < 0.5:
            w ^= r
    return w


def _random_css_pair(n, rng):
    """C1 random, C2 a random subcode of C1's dual: C1 != C2 and both nonzero."""
    while True:
        c1 = random_linear_code(n, rng.randrange(1, n // 2), rng)
        dual_rows = c1.dual().generator.row_bits()
        span = [_random_word(dual_rows, rng) for _ in range(rng.randrange(1, len(dual_rows)))]
        c2 = LinearCode.from_spanning(BitMatrix(n, span))
        if c2.k and c1.k + c2.k < n and c1.generator != c2.generator:
            return c1, c2


# widths on either side of a byte boundary, so a dropped last byte shows
@pytest.mark.parametrize("n", [7, 8, 9, 13, 16, 17, 23])
def test_css_maps_match_oracle_on_unequal_pairs(n):
    rng = random.Random(n)
    seen = {"logical": 0, "benign": 0, "failure": 0, "inconsistent": 0}
    for _ in range(6):
        c1, c2 = _random_css_pair(n, rng)
        # decoder1 decodes C1's dual up to weight 1 (so it can fail), decoder2
        # C2's; then the preimages alone
        lookup = CssCode(
            c1, c2, decoder1=LookupDecoder(c1, max_weight=1), decoder2=LookupDecoder(c2)
        )
        zero = CssCode(c1, c2, decoder1=_ZeroCodeword(), decoder2=_ZeroCodeword())
        c1_dual = c1.dual().generator.row_bits()
        c2_dual = c2.dual().generator.row_bits()
        for _ in range(40):
            err = PauliError(n, rng.getrandbits(n), rng.getrandbits(n))
            syn = lookup.syndrome(err)
            s_x, s_z = _oracle_syndrome(lookup, err)
            assert (syn.s_x, syn.s_z) == (BitVector(c1.k, s_x), BitVector(c2.k, s_z))
            preimage = zero.decode(syn)
            assert preimage == PauliError(n, _oracle_preimage(c2, s_z), _oracle_preimage(c1, s_x))
            assert zero.syndrome(preimage) == syn
            try:
                est = lookup.decode(syn)
            except DecodingFailure as exc:
                assert _oracle_decode(lookup, s_x, s_z) == f"{exc.side} failure"
                seen["failure"] += 1
                continue
            assert est == _oracle_decode(lookup, s_x, s_z)
            # the decoded estimate, then one off by a stabilizer, one off by a
            # word that keeps the syndrome and one that changes it
            stab = PauliError(n, _random_word(c1.generator.row_bits(), rng),
                              _random_word(c2.generator.row_bits(), rng))
            keep = PauliError(n, _random_word(c2_dual, rng), _random_word(c1_dual, rng))
            noisy = PauliError(n, rng.getrandbits(n), rng.getrandbits(n))
            for other in (est, est * stab, est * keep, est * noisy):
                want = _oracle_residual(lookup, err, other)
                assert _residual_outcome(lookup, err, other) == want
                assert _residual_outcome(zero, err, other) == want
                seen["inconsistent" if want == "inconsistent" else
                     "logical" if want else "benign"] += 1
            # a stabilizer never changes the verdict, and the error itself is benign
            assert lookup.residual_is_logical(err, est * stab) == lookup.residual_is_logical(err, est)
            assert not lookup.residual_is_logical(err, err * stab)
    # below 9 qubits weight-1 leaders cover every syndrome of C1's dual
    assert all(count or (key == "failure" and n < 9) for key, count in seen.items()), seen


@pytest.mark.parametrize("n", [7, 9, 12, 13])
def test_residual_verdict_on_every_syndrome_free_word(n):
    # a residual with zero syndrome lies in the dual of the other code; each
    # such word is benign exactly when it lies in the stabilizer code, and a
    # dropped or shifted check would misjudge some of them
    rng = random.Random(n + 100)
    for _ in range(4):
        c1, c2 = _random_css_pair(n, rng)
        css = CssCode(c1, c2)
        for code, other, make in ((c1, c2, lambda w: PauliError(n, w, 0)),
                                  (c2, c1, lambda w: PauliError(n, 0, w))):
            rows = other.dual().generator.row_bits()
            for coeffs in range(1 << len(rows)):
                word = 0
                for i, r in enumerate(rows):
                    if coeffs >> i & 1:
                        word ^= r
                benign = code.contains(BitVector(n, word))
                assert css.residual_is_logical(PauliError.identity(n), make(word)) != benign


def test_css_maps_refuse_size_mismatches():
    rng = random.Random(5)
    c1, c2 = _random_css_pair(11, rng)
    css = CssCode(c1, c2, decoder1=LookupDecoder(c1), decoder2=LookupDecoder(c2))
    err = PauliError(11, 1, 2)
    for bad in (PauliError(12, 1, 2), PauliError(10, 1, 2)):
        with pytest.raises(InvalidInput):
            css.syndrome(bad)
        with pytest.raises(InvalidInput):
            css.residual_is_logical(err, bad)
        with pytest.raises(InvalidInput):
            css.residual_is_logical(bad, err)
    with pytest.raises(InvalidInput):
        css.decode(Syndrome(BitVector(c1.k + 1, 1), BitVector(c2.k, 0)))
    with pytest.raises(InvalidInput):
        css.decode(Syndrome(BitVector(c1.k, 0), BitVector(c2.k - 1, 0)))


def test_css_sides_share_maps_only_when_one_decoder_decodes_one_code():
    rm = css_from_reed_muller(4, 1)
    assert rm._x_block is rm._z_block and rm._preimage1 is rm._preimage2
    c1, c2 = _random_css_pair(13, random.Random(6))
    pair = CssCode(c1, c2)
    assert pair._x_block is not pair._z_block and pair._preimage1 is not pair._preimage2
    # one code in two bases: one decoder shares the block maps, but decode
    # keeps C2's own preimage map; two decoders share nothing
    rebased = _rebased(rm.c1, random.Random(7))
    assert rebased.generator != rm.c1.generator
    twin = CssCode(rm.c1, rebased, decoder1=rm.decoder1, decoder2=rm.decoder1)
    assert twin._x_block is twin._z_block and twin._preimage2 is not twin._preimage1
    assert np.array_equal(twin._preimage2, css_module._preimage_table(rebased))
    apart = CssCode(rm.c1, rebased, decoder1=rm.decoder1, decoder2=copy.deepcopy(rm.decoder1))
    assert apart._x_block is not apart._z_block
    # one basis, two decoders: one preimage map, but each side has its own
    # block maps and its own decode_block call, with the outcomes of one
    # shared decoder
    z_side, x_side = (_Recording(copy.deepcopy(rm.decoder1)) for _ in range(2))
    two = CssCode(rm.c1, rm.c2, decoder1=z_side, decoder2=x_side)
    assert two._x_block is not two._z_block and two._preimage2 is two._preimage1
    _, x, z = _sample_rows(ChannelSpec.depolarizing(0.1), rm.n, np.random.default_rng(8), 300)
    want = rm.classify_block(x, z).tolist()
    assert two.classify_block(x, z).tolist() == want
    assert len(z_side.blocks) == len(x_side.blocks) == 1
    assert {SUCCESS, LOGICAL, X_FAILURE, Z_FAILURE} <= set(want)


def _x47_component():
    from qcss import constructions, reedmuller
    from qcss.bch import bch_generator

    c1 = bch_generator(31, 1, 3).to_code().dual()
    c2 = bch_generator(31, 1, 5).to_code().dual()
    return constructions.construction_x(c1, c2, reedmuller.rm_generator(4, 1).code).code


_LOOKUP_CASES = [
    (steane_component, None),
    (_x47_component, None),
    (lambda: random_linear_code(20, 9, random.Random(20)), 1),
]


def _lookup_outcomes(make_code, max_weight):
    """Outcomes on 200 words: uniform, and dual codewords with 0-3 flips."""
    code = make_code()
    dec = LookupDecoder(code, max_weight=max_weight)
    rng = random.Random(code.n)
    dual = code.dual().generator.row_bits()
    words = [rng.getrandbits(code.n) for _ in range(100)]
    for _ in range(100):
        word = _random_word(dual, rng)
        for p in rng.sample(range(code.n), rng.randrange(4)):
            word ^= 1 << p
        words.append(word)
    out = []
    for bits in words:
        try:
            out.append(dec.decode_word(bits))
        except DecodingFailure as exc:
            out.append(str(exc))
    return out


# sha256 of the outcomes, as the decoder gave them when it took its
# syndromes with one parity per row
@pytest.mark.parametrize("case, digest", list(zip(_LOOKUP_CASES, [
    "8f7062480d3d5978", "5fe90ccc1f7943c9", "8847e79a1de0e508",
])), ids=["steane", "x47", "random20-weight1"])
def test_lookup_outcomes_pinned(case, digest):
    outcomes = _lookup_outcomes(*case)
    assert len({type(o) for o in outcomes}) == (2 if case[1] else 1)
    assert hashlib.sha256(repr(outcomes).encode()).hexdigest()[:16] == digest


# -- the syndrome dict as the oracle of the leader array -----------------------


def _oracle_lookup_table(parity, max_weight=None):
    """LookupDecoder's table as it was before its array form: a dict from
    syndrome to leader, filled by weight in enumeration order."""
    rows, n = parity.generator.row_bits(), parity.n
    table = {0: 0}
    cap = max_weight if max_weight is not None else n
    weight = 1
    while len(table) < 1 << parity.k and weight <= cap:
        for support in itertools.combinations(range(n), weight):
            e = sum(1 << p for p in support)
            table.setdefault(parities(rows, e), e)
        weight += 1
    return table


def _oracle_lookup_outcome(parity, table, bits):
    e = table.get(parities(parity.generator.row_bits(), bits))
    return "syndrome outside the coset-leader table" if e is None else bits ^ e


def _rm_code(m, r):
    from qcss.reedmuller import rm_generator

    return rm_generator(m, r).code


# lookup47's component; both sides of the two-sided lookup16 code, RM(4,1)
# and RM(4,0); a random code decoded to weight 1 only
@pytest.mark.parametrize("make_code, max_weight", [
    (lambda: _x47_component(), None),
    (lambda: _rm_code(4, 1), None),
    (lambda: _rm_code(4, 0), None),
    (lambda: random_linear_code(20, 9, random.Random(20)), 1),
], ids=["x47", "rm41", "rm40", "random20-weight1"])
@pytest.mark.parametrize("chunk", [None, 7], ids=["chunks-of-4096", "chunks-of-7"])
def test_lookup_block_matches_dict_oracle(make_code, max_weight, chunk, monkeypatch):
    if chunk:  # supports taken 7 at a time: first patterns and repeats across chunks
        monkeypatch.setattr(css_module, "_LEADER_CHUNK", chunk)
    code = make_code()
    dec = LookupDecoder(code, max_weight=max_weight)
    table = _oracle_lookup_table(code, max_weight)
    known = np.flatnonzero(dec._known)
    assert dict(zip(known.tolist(), bytes_as_ints(dec._leaders[known]))) == table
    rng = random.Random(code.n + code.k)
    dual = code.dual().generator.row_bits()
    words = []
    for weight in range(dec.radius + 4):
        for _ in range(100):
            word = _random_word(dual, rng)
            for p in rng.sample(range(code.n), weight):
                word ^= 1 << p
            words.append(word)
    words = (words + [rng.getrandbits(code.n) for _ in range(1024)])[:1024]
    want = [_oracle_lookup_outcome(code, table, bits) for bits in words]
    decoded, failure = dec.decode_block(ints_as_bytes(words, (code.n + 7) // 8))
    got = ["syndrome outside the coset-leader table" if f else w
           for w, f in zip(bytes_as_ints(decoded), failure.tolist())]
    assert got == want
    assert all(w == bits for w, bits, f in zip(bytes_as_ints(decoded), words, failure) if f)
    # decode_word is the one-row call, with the oracle's message
    for bits, w in zip(words[:40], want):
        try:
            assert dec.decode_word(bits) == w
        except DecodingFailure as exc:
            assert str(exc) == w
    empty = dec.decode_block(np.zeros((0, (code.n + 7) // 8), dtype=np.uint8))
    assert empty[0].shape == (0, (code.n + 7) // 8) and empty[1].shape == (0,)
    # a full table decodes every word; one cut at weight 1 does not
    assert ({type(o) for o in want} == {int, str}) == (max_weight is not None)


def _oracle_lookup_radius(parity):
    """Largest t such that all patterns of weight <= t have distinct
    syndromes, from one parity per row."""
    rows = parity.generator.row_bits()
    seen = set()
    for t in range(parity.n + 1):
        for support in itertools.combinations(range(parity.n), t):
            s = parities(rows, sum(1 << p for p in support))
            if s in seen:
                return t - 1
            seen.add(s)
    return parity.n


def test_lookup_radius_is_the_guaranteed_radius():
    x47 = LookupDecoder(_x47_component())
    assert x47.radius == _oracle_lookup_radius(x47.parity) == 1
    rng = random.Random(18)
    radii = set()
    for _ in range(60):
        n = rng.randrange(2, 13)
        parity = random_linear_code(n, rng.randrange(1, n + 1), rng)
        dec = LookupDecoder(parity)
        assert dec.radius == _oracle_lookup_radius(parity), parity
        radii.add(dec.radius)
        # every pattern within the radius decodes to the zero codeword
        for t in range(1, dec.radius + 1):
            for support in itertools.combinations(range(n), t):
                assert dec.decode_word(sum(1 << p for p in support)) == 0
    assert {0, 1, 2} <= radii


def test_every_decoder_rejects_words_outside_its_length():
    from qcss.bch import BchDecoder, bch_generator, bm_decode
    from qcss.projgeom import ProjGeometry, RudolphDecoder, build_so_code, enumerate_spaces
    from qcss.reedmuller import ReedDecoder, rm_generator

    fano = enumerate_spaces(ProjGeometry(2, 2), 1)
    span = LinearCode.from_spanning(BitMatrix(7, bytes_as_ints(fano.incidence)))
    spec = bch_generator(15, 1, 5)
    decoders = [
        (LookupDecoder(steane_component()).decode_word, 7),
        (BchDecoder(spec).decode_word, 15),
        (lambda bits: bm_decode(spec, bits), 15),
        (ReedDecoder(rm_generator(4, 1)).decode_word, 16),
        (RudolphDecoder(fano, build_so_code(fano)).decode_word, 8),
        (RudolphDecoder(fano, span).decode_word, 7),
    ]
    for decode, n in decoders:
        assert decode(0) == 0
        for bits in (1 << n, (1 << n) | 1, -1, -(1 << n)):
            with pytest.raises(InvalidInput):
                decode(bits)


# -- the block classification against the one-error path ----------------------


def _packed(words, n):
    width = (n + 7) // 8
    raw = b"".join(w.to_bytes(width, "little") for w in words)
    return np.frombuffer(raw, dtype=np.uint8).reshape(len(words), width)


def _classify(css, errors):
    return css.classify_block(
        _packed([e.x_bits for e in errors], css.n), _packed([e.z_bits for e in errors], css.n)
    ).tolist()


def _scalar_outcome(css, err):
    """The outcome of one error through syndrome, decode and residual_is_logical."""
    try:
        est = css.decode(css.syndrome(err))
    except DecodingFailure as exc:
        return X_FAILURE if exc.side == "x" else Z_FAILURE
    return LOGICAL if css.residual_is_logical(err, est) else SUCCESS


def _sparse(n, rng, most):
    return sum(1 << p for p in rng.sample(range(n), rng.randrange(most + 1)))


def _block_of_errors(n, rng, count):
    """Uniform errors, and sparse ones drawn from a small pool, so that
    syndromes repeat within the block; identities included."""
    pool = [PauliError(n, _sparse(n, rng, 2), _sparse(n, rng, 2)) for _ in range(count // 4)]
    errors = [PauliError(n, rng.getrandbits(n), rng.getrandbits(n)) for _ in range(count // 2)]
    errors += [rng.choice(pool) for _ in range(count - len(errors) - 1)]
    errors.append(PauliError.identity(n))
    rng.shuffle(errors)
    return errors


class _RefusesOddWords:
    """Fails on a preimage of odd weight, else decodes to the zero codeword:
    deterministic in the syndrome, and defined at any length."""

    radius = 0

    def decode_block(self, words):
        odd = np.bitwise_count(words).sum(axis=1) & 1
        return np.where(odd[:, None] == 1, words, 0), odd.astype(np.uint8)

    def decode_word(self, bits: int) -> int:
        if bits.bit_count() & 1:
            raise DecodingFailure("odd word")
        return 0


def test_classify_block_matches_the_one_error_path_on_unequal_pairs():
    # C1 and C2 differ in dimension, so taking one side's syndrome, preimage
    # or decoder for the other shows as a changed outcome
    seen = set()
    for n in (7, 8, 9, 13, 16, 17, 23):
        rng = random.Random(n)
        for _ in range(6):
            c1, c2 = _random_css_pair(n, rng)
            while max(c1.k, c2.k) > LOOKUP_MAX_ROWS:
                c1, c2 = _random_css_pair(n, rng)
            for d1, d2 in ((LookupDecoder(c1, max_weight=1), LookupDecoder(c2, max_weight=1)),
                           (LookupDecoder(c1), _RefusesOddWords()),
                           (_RefusesOddWords(), LookupDecoder(c2))):
                css = CssCode(c1, c2, decoder1=d1, decoder2=d2)
                errors = _block_of_errors(n, rng, 120)
                want = [_scalar_outcome(css, e) for e in errors]
                assert _classify(css, errors) == want, (n, c1, c2)
                seen.update(want)
    assert seen == {SUCCESS, LOGICAL, X_FAILURE, Z_FAILURE}


@pytest.mark.parametrize("k1, k2", [(64, 30), (65, 30), (30, 70), (70, 66)])
def test_classify_block_on_syndromes_wider_than_a_word(k1, k2):
    n = 140
    rng = random.Random(k1 * 1000 + k2)
    c1 = random_linear_code(n, k1, rng)
    dual_rows = c1.dual().generator.row_bits()
    c2 = LinearCode(BitMatrix(n, dual_rows[:k2]))
    css = CssCode(c1, c2, decoder1=_RefusesOddWords(), decoder2=_RefusesOddWords())
    errors = _block_of_errors(n, rng, 200)
    want = [_scalar_outcome(css, e) for e in errors]
    assert _classify(css, errors) == want
    assert len(set(want)) > 1


class _Recording:
    """Passes words on to a decoder and keeps each one it was given, and
    the words of each ``decode_block`` call apart."""

    def __init__(self, decoder):
        self.decoder, self.words, self.blocks, self.radius = decoder, [], [], decoder.radius

    def decode_block(self, words):
        self.blocks.append(bytes_as_ints(words))
        self.words += self.blocks[-1]
        return self.decoder.decode_block(words)

    def decode_word(self, bits: int) -> int:
        self.words.append(bits)
        return self.decoder.decode_word(bits)


class _Refuses:
    radius = 0

    def decode_block(self, words):
        return words, np.ones(len(words), dtype=np.uint8)

    def decode_word(self, bits):
        raise DecodingFailure("refused")


def test_classify_block_decodes_each_syndrome_once_and_z_first():
    code = steane_component()
    rng = random.Random(11)
    errors = _block_of_errors(7, rng, 300)
    for z_refuses in (False, True):
        x_side = _Recording(LookupDecoder(code))
        z_side = _Refuses() if z_refuses else _Recording(LookupDecoder(code))
        css = CssCode(code, code, decoder1=z_side, decoder2=x_side)
        want = [_scalar_outcome(css, e) for e in errors]
        x_side.words.clear()
        if not z_refuses:
            z_side.words.clear()
        assert _classify(css, errors) == want
        syndromes = [css.syndrome(e) for e in errors]
        # every distinct nonzero x syndrome is decoded, also on a z failure
        x_words = {_oracle_preimage(code, s.s_z.bits) for s in syndromes if s.s_z.bits}
        assert len(x_side.blocks) == 1
        assert len(x_side.words) == len(set(x_side.words))
        assert set(x_side.words) == x_words
        if z_refuses:
            assert all((w == Z_FAILURE) == bool(s.s_x.bits) for s, w in zip(syndromes, want))
        else:
            assert sorted(z_side.words) == sorted(
                {_oracle_preimage(code, s.s_x.bits) for s in syndromes if s.s_x.bits}
            )


def _self_orthogonal_cyclic_specs(lengths):
    """Every self-orthogonal cyclic code of the given lengths, by zero set."""
    for n in lengths:
        cosets = sorted(set(bch._length_table(n).coset_of))
        for r in range(1, len(cosets)):
            for chosen in itertools.combinations(cosets, r):
                spec = spec_from_zero_set(n, sorted(itertools.chain(*chosen)))
                if is_self_orthogonal_cyclic(spec):
                    yield spec


def _one_group_codes(kind):
    """CSS(C, C) codes whose two sides share one recording decoder: random
    C with a lookup decoder, its table cut at weight 1 for odd n, or every self-orthogonal cyclic C of lengths
    7, 15 and 21 with Berlekamp-Massey on its dual.  Among the latter is
    [[21,3,3]], whose dual's zero set is wider than its window's closure."""
    if kind == "lookup":
        rng = random.Random(25)
        for n in (6, 9, 12, 16, 17, 20):
            code = random_self_orthogonal_code(n, rng.randrange(1, n // 2 + 1), rng)
            decoder = _Recording(LookupDecoder(code, max_weight=1 if n % 2 else None))
            yield CssCode.from_self_orthogonal(code, decoder=decoder)
    else:
        for spec in _self_orthogonal_cyclic_specs((7, 15, 21)):
            decoder = _Recording(BchDecoder(spec.dual_spec()))
            yield CssCode.from_self_orthogonal(spec.to_code(), decoder=decoder)


@pytest.mark.parametrize("kind", ["lookup", "bm"])
def test_classify_block_decodes_both_sides_of_one_code_in_one_call(kind):
    rng = np.random.default_rng(25)
    seen, codes = set(), 0
    for css in _one_group_codes(kind):
        codes += 1
        recorder = css.decoder1
        for channel in (ChannelSpec.pauli(0, 0.1, 0), ChannelSpec.pauli(0, 0.3, 0),
                        ChannelSpec.depolarizing(0.2)):
            _, x, z = _sample_rows(channel, css.n, rng, 400)
            errors = _pauli_errors(css.n, x, z)
            want = [_scalar_outcome(css, e) for e in errors]
            recorder.blocks.clear()
            assert css.classify_block(x, z).tolist() == want, (css.c1, channel)
            # one call over the distinct nonzero preimages of both sides, each
            # once: a Y error's two halves share theirs
            words = {_oracle_preimage(css.c1, s)
                     for e in errors for s in _oracle_syndrome(css, e) if s}
            assert [sorted(b) for b in recorder.blocks] == ([sorted(words)] if words else [])
            seen.update(want)
    assert codes >= 6 and {SUCCESS, LOGICAL, X_FAILURE, Z_FAILURE} <= seen


def _rebased(code, rng):
    """The same code in another basis: random row additions, then a shuffle."""
    rows = code.generator.row_bits()
    for _ in range(3 * len(rows) if len(rows) > 1 else 0):
        i, j = rng.sample(range(len(rows)), 2)
        rows[i] ^= rows[j]
    rng.shuffle(rows)
    return LinearCode(BitMatrix(code.n, rows))


@pytest.mark.parametrize("kind", ["lookup", "bm"])
def test_classify_block_decodes_a_rebased_pair_in_one_call(kind):
    """CSS(C, C') with C' a re-basis of C and one decoder: one decode_block
    call a block, and the outcomes of two decoders on the two bases, of
    the scalar path and of the pair in one basis."""
    rng, nprng = random.Random(26), np.random.default_rng(26)
    rebased = 0
    for css in _one_group_codes(kind):
        recorder, c1 = css.decoder1, css.c1
        c2 = _rebased(c1, rng)
        rebased += c2.generator != c1.generator
        assert c2.same_code(c1)
        shared = CssCode(c1, c2, decoder1=recorder, decoder2=recorder)
        twin = copy.deepcopy(recorder.decoder)
        apart = CssCode(c1, c2, decoder1=recorder.decoder, decoder2=twin)
        for channel in (ChannelSpec.pauli(0, 0.1, 0), ChannelSpec.depolarizing(0.2)):
            _, x, z = _sample_rows(channel, css.n, nprng, 300)
            errors = _pauli_errors(css.n, x, z)
            want = apart.classify_block(x, z).tolist()
            assert want == [_scalar_outcome(shared, e) for e in errors]
            assert want == css.classify_block(x, z).tolist()
            recorder.blocks.clear()
            assert shared.classify_block(x, z).tolist() == want, (c1, channel)
            assert len(recorder.blocks) == 1
    assert rebased >= 5


class _ReturnsTheWord:
    """A broken decoder: the received word, which is not a codeword."""

    radius = 0

    def decode_block(self, words):
        return words, np.zeros(len(words), dtype=np.uint8)

    def decode_word(self, bits: int) -> int:
        return bits


@pytest.mark.parametrize("broken", ["x", "z"])
def test_classify_block_refuses_an_estimate_off_the_syndrome(broken):
    code = steane_component()
    good, bad = LookupDecoder(code), _ReturnsTheWord()
    css = CssCode(code, code, decoder1=bad if broken == "z" else good,
                  decoder2=bad if broken == "x" else good)
    single = [PauliError.single(7, 0, "X" if broken == "x" else "Z")]
    with pytest.raises(InternalConsistencyError):
        _scalar_outcome(css, single[0])
    with pytest.raises(InternalConsistencyError):
        _classify(css, [PauliError.identity(7)] + single)
    # the other side alone and the identity never reach the broken decoder
    other = PauliError.single(7, 0, "Z" if broken == "x" else "X")
    assert _classify(css, [PauliError.identity(7), other]) == [SUCCESS, SUCCESS]


def test_classify_block_checks_the_x_estimate_of_a_z_failure():
    # the x side is decoded on every row, so a broken x decoder shows also
    # where the z side refuses, though the outcome would be a z failure
    code = steane_component()
    css = CssCode(code, code, decoder1=_Refuses(), decoder2=_ReturnsTheWord())
    y = PauliError.single(7, 0, "Y")
    assert _scalar_outcome(css, y) == Z_FAILURE
    assert _classify(css, [PauliError.single(7, 0, "Z")]) == [Z_FAILURE]
    with pytest.raises(InternalConsistencyError):
        _classify(css, [PauliError.identity(7), y])


class _WordOnly:
    """A decoder with only ``decode_word``: the interface before block
    decoding, which CssCode decodes row by row."""

    def __init__(self, decoder):
        self.decoder, self.radius = decoder, decoder.radius

    def decode_word(self, bits: int) -> int:
        return self.decoder.decode_word(bits)


def test_classify_block_with_a_decoder_that_only_decodes_words():
    rng = random.Random(47)
    for n in (9, 16, 23):
        c1, c2 = _random_css_pair(n, rng)
        while max(c1.k, c2.k) > LOOKUP_MAX_ROWS:
            c1, c2 = _random_css_pair(n, rng)
        d1, d2 = LookupDecoder(c1, max_weight=1), LookupDecoder(c2, max_weight=1)
        errors = _block_of_errors(n, rng, 200)
        want = _classify(CssCode(c1, c2, decoder1=d1, decoder2=d2), errors)
        css = CssCode(c1, c2, decoder1=_WordOnly(d1), decoder2=_WordOnly(d2))
        assert _classify(css, errors) == want == [_scalar_outcome(css, e) for e in errors]


@pytest.mark.parametrize("make_css", [
    lambda: css_from_projective_geometry(2, 8, 1, distance=10),
    lambda: CssCode(*_narrow_preimage_pair(), decoder1=_RefusesOddWords(),
                    decoder2=_RefusesOddWords()),
], ids=["pg74", "random70"])
def test_classify_block_where_preimages_are_narrower_than_a_row(make_css):
    # every preimage fits in 64 bits, the rows take two words: the preimage
    # table still yields ceil(n/8) bytes a word
    css = make_css()
    widest = max(int.from_bytes(css._preimage1[k, v].tobytes(), "little").bit_length()
                 for k in range(css._preimage1.shape[0]) for v in range(256))
    assert widest <= 64 < css.n and css._preimage1.shape[2] == 2
    rng = random.Random(css.n)
    errors = _block_of_errors(css.n, rng, 120)
    errors += [PauliError(css.n, _sparse(css.n, rng, 3), _sparse(css.n, rng, 3)) for _ in range(80)]
    want = [_scalar_outcome(css, e) for e in errors]
    assert _classify(css, errors) == want
    assert len(set(want)) > 1


def _narrow_preimage_pair():
    """C1 of length 70 whose rref pivots, and so its preimages, lie below
    bit 64, and C2 a subcode of its dual."""
    rng = random.Random(70)
    while True:
        c1, c2 = _random_css_pair(70, rng)
        if max(c1.pivots) < 64 and max(c2.pivots) < 64:
            return c1, c2


def test_classify_block_refuses_a_block_of_another_shape():
    css = steane_css()
    good = np.zeros((3, 1), dtype=np.uint8)
    for x, z in ((np.zeros((3, 2), dtype=np.uint8), good),
                 (good, np.zeros((2, 1), dtype=np.uint8)),
                 (good, good.astype(np.uint64)),
                 (np.zeros(3, dtype=np.uint8), good)):
        with pytest.raises(InvalidInput):
            css.classify_block(x, z)
    assert css.classify_block(good, good).tolist() == [SUCCESS] * 3
