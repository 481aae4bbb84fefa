import math

import numpy as np
import pytest

from qcss.channel import (
    _BLOCK,
    ChannelSpec,
    TrialReport,
    _pauli_errors,
    _sample_rows,
    _trial_errors,
    component_weight_bound,
    monte_carlo,
    sample_error,
)
from qcss.css import CssCode, LookupDecoder, PauliError, css_from_reed_muller, css_with_lookup
from qcss.errors import DecodingFailure, InternalConsistencyError, InvalidInput
from qcss.named import steane_component


def test_channel_validation():
    with pytest.raises(InvalidInput):
        ChannelSpec(0.5, 0.5, 0.5, -0.5)
    with pytest.raises(InvalidInput):
        ChannelSpec(0.5, 0.1, 0.1, 0.1)
    dep = ChannelSpec.depolarizing(0.3)
    assert dep.p_x == dep.p_y == dep.p_z == pytest.approx(0.1)


def test_sample_error_extremes():
    rng = np.random.default_rng(0)
    zero = ChannelSpec.depolarizing(0.0)
    assert sample_error(zero, 12, rng) == PauliError.identity(12)
    full = ChannelSpec.depolarizing(1.0)
    err = sample_error(full, 12, rng)
    assert err.weight() == 12
    assert sample_error(full, 0, rng) == PauliError.identity(0)


def test_sample_error_marginals_within_three_sigma():
    # per-position frequency of each Pauli over many draws.  sample_error is
    # the one-row call of _sample_rows, so the routine under test here is
    # _sample_rows: the 200k draws of rng.random(4) go through it as one
    # (200k, 4) array (sample_error's own rows are checked bit for bit
    # against the per-qubit oracle below)
    p = 0.3
    channel = ChannelSpec.depolarizing(p)
    rng = np.random.default_rng(7)
    n = 4
    draws = 200_000
    _, errors = _rows_and_errors(channel, n, rng, draws)
    counts = {"X": 0, "Y": 0, "Z": 0}
    for err in errors:
        x, z = err.x_bits, err.z_bits
        counts["X"] += (x & ~z).bit_count()
        counts["Y"] += (x & z).bit_count()
        counts["Z"] += (z & ~x).bit_count()
    total_positions = draws * n
    expect = p / 3
    sigma = math.sqrt(expect * (1 - expect) / total_positions)
    for kind in "XYZ":
        freq = counts[kind] / total_positions
        assert abs(freq - expect) < 3.5 * sigma, (kind, freq)


def _reference_sample_error(channel, n, rng):
    # per-qubit loop over numpy scalars: sample_error and the block sampler,
    # which compare whole arrays of the same draws, must match it bit for bit
    t1, t2, t3 = channel.thresholds()
    u = rng.random(n)
    x_bits = z_bits = 0
    for j in range(n):
        v = u[j]
        if v < t1:
            continue
        if v < t2:
            x_bits |= 1 << j
        elif v < t3:
            x_bits |= 1 << j
            z_bits |= 1 << j
        else:
            z_bits |= 1 << j
    return PauliError(n, x_bits, z_bits)


_CHANNELS = [
    ChannelSpec.depolarizing(0.0),
    ChannelSpec.depolarizing(0.01),
    ChannelSpec.depolarizing(0.3),
    ChannelSpec.depolarizing(1.0),
    ChannelSpec.pauli(0.05, 0.15, 0.3),
    # one component about -5e-10, inside the tolerance of ChannelSpec: t1 is
    # below 0, t2 < t1, t3 < t2 or t3 exceeds 1
    ChannelSpec(-5e-10, 0.3, 0.3, 0.4 + 5e-10),
    ChannelSpec(0.7, -5e-10, 0.15, 0.15 + 5e-10),
    ChannelSpec(0.7, 0.15, -5e-10, 0.15 + 5e-10),
    ChannelSpec(0.7 + 5e-10, 0.15, 0.15, -5e-10),
]
_CHANNEL_IDS = ["p0", "p0.01", "p0.3", "p1", "biased", "neg-i", "neg-x", "neg-y", "neg-z"]


def _rows_and_errors(channel, n, rng, count):
    """`_sample_rows` with its rows as a list and its packed bits as errors."""
    rows, x, z = _sample_rows(channel, n, rng, count)
    assert x.shape == z.shape == (len(rows), (n + 7) // 8) and x.dtype == z.dtype == np.uint8
    return rows.tolist(), _pauli_errors(n, x, z)


def _with_identities(n, count, rows, errors):
    """The full list of `count` errors, identity rows filled in."""
    full = [PauliError.identity(n)] * count
    for r, err in zip(rows, errors):
        full[r] = err
    return full


# the lengths cover the byte edges of the packed rows
@pytest.mark.parametrize("n", [1, 7, 8, 9, 16, 63, 64, 65, 127, 128])
@pytest.mark.parametrize("channel", _CHANNELS, ids=_CHANNEL_IDS)
def test_sample_error_matches_per_qubit_oracle(n, channel):
    for seed in range(40):
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            assert sample_error(channel, n, fast) == _reference_sample_error(channel, n, slow)
    # the block sampler: successive calls of several sizes continue one
    # generator's stream, and only the non-identity rows come back
    fast, slow = np.random.default_rng(n), np.random.default_rng(n)
    for count in (1, 2, 45, 200):
        rows, errors = _rows_and_errors(channel, n, fast, count)
        assert rows == sorted(rows) and all(e.x_bits | e.z_bits for e in errors)
        full = _with_identities(n, count, rows, errors)
        assert full == [_reference_sample_error(channel, n, slow) for _ in range(count)]


class _Scripted:
    """A generator stand-in whose draws cycle through fixed values."""

    def __init__(self, values):
        self.values, self.pos = np.asarray(values, dtype=np.float64), 0

    def random(self, size):
        count = int(np.prod(size))
        idx = (self.pos + np.arange(count)) % len(self.values)
        self.pos += count
        return self.values[idx].reshape(size)


@pytest.mark.parametrize("n", [1, 7, 64, 65])
@pytest.mark.parametrize("channel", _CHANNELS, ids=_CHANNEL_IDS)
def test_sample_rows_at_the_thresholds(n, channel):
    # draws at, just below and just above each threshold and between each
    # pair of thresholds, where random draws would almost never land
    t = sorted({0.0, *channel.thresholds(), 1.0})
    values = {0.0, np.nextafter(1.0, 0.0)}
    for a, b in zip(t, t[1:]):
        values.add((a + b) / 2)
    for a in channel.thresholds():
        values.update((np.nextafter(a, -1.0), a, np.nextafter(a, 2.0)))
    values = [v for v in sorted(values) if 0.0 <= v < 1.0]
    count = 3 * len(values)
    rows, errors = _rows_and_errors(channel, n, _Scripted(values), count)
    full = _with_identities(n, count, rows, errors)
    slow = _Scripted(values)
    assert full == [_reference_sample_error(channel, n, slow) for _ in range(count)]


def _block_rng(seed, block):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(block,)))


def _stream(channel, n, seed, trials):
    """Every trial's error, identities included."""
    rows, errors = [], []
    for t, x, z in _trial_errors(channel, n, seed, trials):
        rows += t.tolist()
        errors += _pauli_errors(n, x, z)
    assert rows == sorted(rows)
    return _with_identities(n, trials, rows, errors)


def test_trial_errors_stream_is_keyed_by_seed_and_block():
    # blocks of 1024 trials are part of the stream's definition; the last
    # block is partial
    assert _BLOCK == 1024
    channel = ChannelSpec.depolarizing(0.3)
    for n in (9, 64, 128):
        errors = _stream(channel, n, 17, 2 * 1024 + 5)
        for block in range(3):
            rng = _block_rng(17, block)
            chunk = errors[block * 1024 : (block + 1) * 1024]
            assert chunk == [_reference_sample_error(channel, n, rng) for _ in chunk]


def test_trial_errors_prefix_property():
    channel = ChannelSpec.depolarizing(0.2)
    for seed in (0, 5, 2**40):
        full = _stream(channel, 11, seed, 2500)
        assert len(full) == 2500
        for t in (1, 1023, 1024, 1025, 2500):
            assert _stream(channel, 11, seed, t) == full[:t]


def _reference_report(css, channel, trials, seed, decoded=None):
    # decodes every sampled error, the identity included, one error at a
    # time; the decoders are deterministic, so each syndrome's estimate or
    # failure is taken once from `CssCode.decode` and kept in ``decoded``
    counts = {"s": 0, "x": 0, "z": 0, "l": 0}
    decoded = {} if decoded is None else decoded
    for err in _stream(channel, css.n, seed, trials):
        syndrome = css.syndrome(err)
        if syndrome not in decoded:
            try:
                decoded[syndrome] = css.decode(syndrome)
            except DecodingFailure as exc:
                decoded[syndrome] = exc.side
        estimate = decoded[syndrome]
        if isinstance(estimate, str):
            counts[estimate] += 1
            continue
        counts["l" if css.residual_is_logical(err, estimate) else "s"] += 1
    return TrialReport(
        trials=trials, successes=counts["s"], decode_failures=counts["x"] + counts["z"],
        logical_errors=counts["l"], seed=seed, channel=channel,
        x_failures=counts["x"], z_failures=counts["z"],
    )


_TRIAL_COUNTS = (1, 1023, 1024, 1025, 2500)


@pytest.mark.parametrize("p", [0.05, 0.3])
@pytest.mark.parametrize("make_code", [
    lambda: css_from_reed_muller(4, 1),
    lambda: css_with_lookup(steane_component(), steane_component(), distance=3),
], ids=["rm16", "steane"])
def test_monte_carlo_equals_decoding_every_trial(make_code, p):
    css = make_code()
    channel = ChannelSpec.depolarizing(p)
    decoded = {}
    for seed in (1, 2, 2**33 + 7):
        for trials in _TRIAL_COUNTS:
            report = monte_carlo(css, channel, trials=trials, seed=seed)
            assert report == _reference_report(css, channel, trials, seed, decoded), (seed, trials)


@pytest.mark.parametrize("z_fails, x_fails", [(True, False), (False, True), (True, True)])
def test_monte_carlo_equals_decoding_every_trial_with_refusing_decoders(z_fails, x_fails):
    code = steane_component()
    css = CssCode(
        code, code,
        decoder1=_Refuses() if z_fails else LookupDecoder(code),
        decoder2=_Refuses() if x_fails else LookupDecoder(code),
    )
    for p in (0.05, 0.3):
        channel = ChannelSpec.depolarizing(p)
        for seed in (3, 4):
            for trials in _TRIAL_COUNTS:
                report = monte_carlo(css, channel, trials=trials, seed=seed)
                assert report == _reference_report(css, channel, trials, seed), (seed, trials)
                if trials > 1:
                    assert report.successes > 0 and report.decode_failures > 0


def test_monte_carlo_on_a_bch_dual_wider_than_its_window():
    # `qcss css-build --decoder bch --decoder-args 21 0x1049`: the dual's
    # zero set has 9 exponents, the closure of its window 6, so Berlekamp-
    # Massey must refuse a word that vanishes on the window only
    from qcss.bch import spec_from_zero_set, zero_set_of_polynomial
    from qcss.css import css_from_self_orthogonal_cyclic

    spec = spec_from_zero_set(21, zero_set_of_polynomial(21, 0x1049))
    css = css_from_self_orthogonal_cyclic(spec)
    assert css.parameters() == (21, 3, 3) and len(spec.dual_spec().zero_set) == 9
    channel = ChannelSpec.depolarizing(0.1)
    report = monte_carlo(css, channel, trials=5000, seed=1)
    assert report == _reference_report(css, channel, 5000, 1)
    # the CLI's `simulate --p 0.1 --trials 5000 --seed 1` line
    got = (report.successes, report.x_failures, report.z_failures, report.logical_errors)
    assert got == (2208, 747, 1599, 446)


def test_monte_carlo_rejects_bad_trials_and_seed():
    css = css_with_lookup(steane_component(), steane_component(), distance=3)
    channel = ChannelSpec.depolarizing(0.1)
    with pytest.raises(InvalidInput):
        monte_carlo(css, channel, trials=0, seed=1)
    with pytest.raises(InvalidInput):
        monte_carlo(css, channel, trials=10, seed=-1)


def test_sample_error_deterministic_given_seed():
    channel = ChannelSpec.depolarizing(0.2)
    a = sample_error(channel, 16, np.random.default_rng(42))
    b = sample_error(channel, 16, np.random.default_rng(42))
    assert a == b


def test_trial_report_count_invariant():
    spec = ChannelSpec.depolarizing(0.1)
    with pytest.raises(InvalidInput):
        TrialReport(
            trials=10, successes=5, decode_failures=2, logical_errors=1, seed=0, channel=spec
        )


def test_trial_report_failure_split_invariant():
    spec = ChannelSpec.depolarizing(0.1)
    counts = dict(trials=10, successes=5, decode_failures=3, logical_errors=2, seed=0, channel=spec)
    assert TrialReport(**counts).x_failures is None  # a report without the split
    assert TrialReport(**counts, x_failures=1, z_failures=2).z_failures == 2
    for split in ((1, 1), (3, 1), (3, None), (None, 0)):
        with pytest.raises(InvalidInput):
            TrialReport(**counts, x_failures=split[0], z_failures=split[1])


class _Refuses:
    radius = 0

    def decode_block(self, words):
        return words, np.ones(len(words), dtype=np.uint8)

    def decode_word(self, bits):
        raise DecodingFailure("refused")


class _ReturnsTheWord:
    """A broken decoder: the received word, which is not a codeword."""

    radius = 0

    def decode_block(self, words):
        return words, np.zeros(len(words), dtype=np.uint8)

    def decode_word(self, bits):
        return bits


@pytest.mark.parametrize("broken", ["x", "z"])
def test_monte_carlo_refuses_a_decoder_that_returns_a_non_codeword(broken):
    code = steane_component()
    good, bad = LookupDecoder(code), _ReturnsTheWord()
    css = CssCode(code, code, decoder1=bad if broken == "z" else good,
                  decoder2=bad if broken == "x" else good)
    channel = ChannelSpec.depolarizing(0.05)
    with pytest.raises(InternalConsistencyError):
        _reference_report(css, channel, 300, 4)
    with pytest.raises(InternalConsistencyError):
        monte_carlo(css, channel, trials=300, seed=4)


@pytest.mark.parametrize("z_fails, x_fails", [(True, False), (False, True), (True, True)])
def test_monte_carlo_splits_failures_by_side(z_fails, x_fails):
    # decoder1 recovers the z component, decoder2 the x component; the z side
    # takes precedence, so a trial on which both fail counts as z
    code = steane_component()
    css = CssCode(
        code, code,
        decoder1=_Refuses() if z_fails else LookupDecoder(code),
        decoder2=_Refuses() if x_fails else LookupDecoder(code),
    )
    channel = ChannelSpec.depolarizing(0.1)
    report = monte_carlo(css, channel, trials=300, seed=4, workers=1)
    assert report == monte_carlo(css, channel, trials=300, seed=4, workers=3)
    expect = {"x": 0, "z": 0}
    for err in _stream(channel, 7, 4, 300):
        syndrome = css.syndrome(err)
        if z_fails and syndrome.s_x.bits:
            expect["z"] += 1
        elif x_fails and syndrome.s_z.bits:
            expect["x"] += 1
    assert (report.x_failures, report.z_failures) == (expect["x"], expect["z"])
    assert report.x_failures + report.z_failures == report.decode_failures > 0
    csv = dict(line.split(",") for line in report.to_csv().splitlines()[1:])
    assert int(csv["x_failures"]) == report.x_failures
    assert int(csv["z_failures"]) == report.z_failures


def test_monte_carlo_p_zero():
    css = css_with_lookup(steane_component(), steane_component(), distance=3)
    report = monte_carlo(css, ChannelSpec.depolarizing(0.0), trials=500, seed=1)
    assert report.logical_errors == 0
    assert report.decode_failures == 0
    assert report.successes == 500


def test_monte_carlo_reproducible_and_worker_invariant():
    css = css_with_lookup(steane_component(), steane_component(), distance=3)
    channel = ChannelSpec.depolarizing(0.05)
    a = monte_carlo(css, channel, trials=400, seed=9, workers=1)
    b = monte_carlo(css, channel, trials=400, seed=9, workers=1)
    c = monte_carlo(css, channel, trials=400, seed=9, workers=4)
    assert a == b == c


def test_monte_carlo_weight_one_errors_always_corrected():
    # distance-3 code: every trial whose error has component weights <= 1
    # must be a success; simulate at small p and cross-check the classifier
    css = css_with_lookup(steane_component(), steane_component(), distance=3)
    channel = ChannelSpec.depolarizing(0.01)
    report = monte_carlo(css, channel, trials=3000, seed=3)
    # with p = .01 on 7 qubits double component errors are rare but possible;
    # successes must dominate by far
    assert report.successes > 2900
    # and every observed failure must come from a component weight above 1
    for err in _stream(channel, 7, 3, 3000):
        if max(err.x_bits.bit_count(), err.z_bits.bit_count()) <= 1:
            syndrome = css.syndrome(err)
            est = css.decode(syndrome)
            assert not css.residual_is_logical(err, est)


def test_component_weight_bound_is_binomial_tail():
    # radius 0: probability of any error among n positions
    n, p = 5, 0.1
    assert component_weight_bound(n, p, 0) == pytest.approx(1 - (1 - p) ** n)
    # radius n: impossible to exceed
    assert component_weight_bound(n, p, n) == pytest.approx(0.0)


def test_monte_carlo_rate_below_union_bound_16_6_4():
    css = css_from_reed_muller(4, 1)
    p = 0.02
    channel = ChannelSpec.depolarizing(p)
    trials = 20_000
    report = monte_carlo(css, channel, trials=trials, seed=11)
    p_comp = 2 * p / 3
    bound = 2 * component_weight_bound(16, p_comp, 1)
    sigma = math.sqrt(bound * (1 - bound) / trials)
    bad_rate = (report.logical_errors + report.decode_failures) / trials
    assert bad_rate <= bound + 3 * sigma


def _simulate_codes():
    """The four codes of perfbench's simulate workload, built directly."""
    from qcss import bch, constructions, reedmuller, tables
    from qcss.css import css_from_projective_geometry, css_from_self_orthogonal_cyclic

    g127 = next(g for n, kq, d, g in tables.TABLE1_ROWS if (n, kq, d) == (127, 57, 11))
    spec = bch.spec_from_zero_set(127, bch.zero_set_of_polynomial(127, g127))
    c1 = bch.bch_generator(31, 1, 3).to_code().dual()
    c2 = bch.bch_generator(31, 1, 5).to_code().dual()
    x47 = constructions.construction_x(c1, c2, reedmuller.rm_generator(4, 1).code).code
    return {
        "rm16": css_from_reed_muller(4, 1),
        "lookup47": css_with_lookup(x47, x47),
        "pg74": css_from_projective_geometry(2, 8, 1, distance=10),
        "bch127": css_from_self_orthogonal_cyclic(spec, distance=11),
    }


# (code, p, seed, trials): (successes, x failures, z failures, logical errors),
# measured when syndromes, preimages and residual checks ran one parity per
# row and one pivot walk per basis row.  The trial counts are those of a
# perfbench chunk, and 1100 spans two generator blocks.
_PINNED_REPORTS = {
    ("rm16", 0.01, 3, 2000): (1984, 9, 7, 0),
    ("rm16", 0.01, 11, 2000): (1985, 5, 9, 1),
    ("rm16", 0.03, 3, 2000): (1863, 55, 79, 3),
    ("rm16", 0.03, 11, 2000): (1882, 47, 66, 5),
    ("rm16", 0.03, 2026, 1100): (1013, 38, 44, 5),
    # the CLI's `simulate --p 0.1 --trials 5000 --seed 1` line, five blocks
    ("rm16", 0.1, 1, 5000): (2899, 703, 1078, 320),
    ("lookup47", 0.01, 3, 1500): (1471, 0, 0, 29),
    ("lookup47", 0.01, 11, 1500): (1461, 0, 0, 39),
    ("lookup47", 0.03, 3, 1500): (1221, 0, 0, 279),
    ("lookup47", 0.03, 11, 1500): (1208, 0, 0, 292),
    ("lookup47", 0.03, 2026, 1100): (880, 0, 0, 220),
    ("pg74", 0.01, 3, 400): (400, 0, 0, 0),
    ("pg74", 0.01, 11, 400): (400, 0, 0, 0),
    ("pg74", 0.03, 3, 400): (389, 3, 8, 0),
    ("pg74", 0.03, 11, 400): (388, 3, 9, 0),
    ("pg74", 0.03, 2026, 1100): (1064, 19, 17, 0),
    ("bch127", 0.01, 3, 150): (150, 0, 0, 0),
    ("bch127", 0.01, 11, 150): (150, 0, 0, 0),
    ("bch127", 0.03, 3, 150): (135, 5, 10, 0),
    ("bch127", 0.03, 11, 150): (141, 3, 6, 0),
    ("bch127", 0.01, 2026, 1100): (1099, 0, 1, 0),
    ("bch127", 0.03, 2026, 1100): (995, 46, 58, 1),
}


def test_monte_carlo_reports_pinned():
    codes = _simulate_codes()
    for (name, p, seed, trials), want in _PINNED_REPORTS.items():
        r = monte_carlo(codes[name], ChannelSpec.depolarizing(p), trials, seed)
        got = (r.successes, r.x_failures, r.z_failures, r.logical_errors)
        assert got == want, (name, p, seed, trials)
