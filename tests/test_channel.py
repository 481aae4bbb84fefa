import math

import numpy as np
import pytest

from qcss.channel import (
    ChannelSpec,
    TrialReport,
    component_weight_bound,
    monte_carlo,
    sample_error,
)
from qcss.css import CssCode, LookupDecoder, PauliError, css_from_reed_muller, css_with_lookup
from qcss.errors import DecodingFailure, InvalidInput
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


def test_sample_error_marginals_within_three_sigma():
    # per-position frequency of each Pauli over many draws
    p = 0.3
    channel = ChannelSpec.depolarizing(p)
    rng = np.random.default_rng(7)
    n = 4
    draws = 200_000
    counts = {"X": 0, "Y": 0, "Z": 0}
    for _ in range(draws):
        err = sample_error(channel, n, rng)
        for q in range(n):
            kind = err.kind(q)
            if kind != "I":
                counts[kind] += 1
    total_positions = draws * n
    expect = p / 3
    sigma = math.sqrt(expect * (1 - expect) / total_positions)
    for kind in "XYZ":
        freq = counts[kind] / total_positions
        assert abs(freq - expect) < 3.5 * sigma, (kind, freq)


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

    def decode_word(self, bits):
        raise DecodingFailure("refused")


@pytest.mark.parametrize("z_fails, x_fails", [(True, False), (False, True), (True, True)])
def test_monte_carlo_splits_failures_by_side(z_fails, x_fails):
    # decoder1 recovers the z component, decoder2 the x component; the z side
    # is decoded first, so a trial on which both fail counts as z
    code = steane_component()
    css = CssCode(
        code, code,
        decoder1=_Refuses() if z_fails else LookupDecoder(code),
        decoder2=_Refuses() if x_fails else LookupDecoder(code),
    )
    channel = ChannelSpec.depolarizing(0.1)
    report = monte_carlo(css, channel, trials=300, seed=4, workers=1)
    assert report == monte_carlo(css, channel, trials=300, seed=4, workers=3)
    from qcss.channel import _trial_rng

    expect = {"x": 0, "z": 0}
    for t in range(300):
        syndrome = css.syndrome(sample_error(channel, 7, _trial_rng(4, t)))
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
    css = css_with_lookup(steane_component(), distance=3)
    report = monte_carlo(css, ChannelSpec.depolarizing(0.0), trials=500, seed=1)
    assert report.logical_errors == 0
    assert report.decode_failures == 0
    assert report.successes == 500


def test_monte_carlo_reproducible_and_worker_invariant():
    css = css_with_lookup(steane_component(), distance=3)
    channel = ChannelSpec.depolarizing(0.05)
    a = monte_carlo(css, channel, trials=400, seed=9, workers=1)
    b = monte_carlo(css, channel, trials=400, seed=9, workers=1)
    c = monte_carlo(css, channel, trials=400, seed=9, workers=4)
    assert a == b == c


def test_monte_carlo_weight_one_errors_always_corrected():
    # distance-3 code: every trial whose error has component weights <= 1
    # must be a success; simulate at small p and cross-check the classifier
    css = css_with_lookup(steane_component(), distance=3)
    channel = ChannelSpec.depolarizing(0.01)
    report = monte_carlo(css, channel, trials=3000, seed=3)
    # with p = .01 on 7 qubits double component errors are rare but possible;
    # successes must dominate by far
    assert report.successes > 2900
    # and every observed failure must come from a component weight above 1
    from qcss.channel import _trial_rng

    for t in range(3000):
        err = sample_error(channel, 7, _trial_rng(3, t))
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
