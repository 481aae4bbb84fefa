import itertools
import random

import pytest

from qcss.bch import search_self_orthogonal_bch
from qcss.css import (
    LOOKUP_MAX_ROWS,
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
from qcss.codes import random_linear_code, random_self_orthogonal_code
from qcss.errors import DecodingFailure, InvalidInput, PreconditionError, ResourceLimit
from qcss.gf2 import BitVector
from qcss.named import steane_component


def steane_css():
    return css_with_lookup(steane_component(), distance=3)


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
    for q1, q2 in itertools.combinations(range(31), 2):
        for k1 in "XYZ":
            for k2 in "XYZ":
                err = PauliError.single(31, q1, k1) * PauliError.single(31, q2, k2)
                est = css.decode(css.syndrome(err))
                assert not css.residual_is_logical(err, est), (q1, q2, k1, k2)


class _ZeroCodeword:
    """Decodes every word to the zero codeword, so the estimate is the preimage."""

    radius = 0

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
