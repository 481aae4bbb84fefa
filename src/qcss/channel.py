"""Pauli and depolarizing channels with a reproducible Monte Carlo harness.

Trials are grouped into blocks of ``_BLOCK`` consecutive indices; block b
draws its errors in order from one generator keyed by (seed, b).  The stream
is a function of the seed alone, so the first t errors of any run are those
of a t-trial run.  A block is drawn as one ``(trials, n)`` array, which
equals the same number of successive ``rng.random(n)`` draws.  Its
non-identity rows stay packed in numpy and are classified together by
`CssCode.classify_block`, which decodes each distinct syndrome of the block
once.

Every trial runs on the calling thread.  `monte_carlo` still takes a
``workers`` keyword because callers pass it (among them the benchmark's
simulate gate, which checks that ``workers=1`` and ``workers=2`` agree);
a thread pool measured no faster under the GIL and was removed, so the
keyword changes nothing.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .css import LOGICAL, X_FAILURE, Z_FAILURE, CssCode, PauliError
from .errors import InvalidInput

_PROB_TOL = 1e-9
# trials per generator; part of the stream's definition, not a tuning knob
_BLOCK = 1024


@dataclass(frozen=True)
class ChannelSpec:
    p_i: float
    p_x: float
    p_y: float
    p_z: float

    def __post_init__(self):
        probs = (self.p_i, self.p_x, self.p_y, self.p_z)
        if any(p < -_PROB_TOL for p in probs):
            raise InvalidInput(f"negative probability in {probs}")
        if abs(sum(probs) - 1.0) > _PROB_TOL:
            raise InvalidInput(f"probabilities sum to {sum(probs)}, not 1")

    @classmethod
    def depolarizing(cls, p: float) -> "ChannelSpec":
        if not 0 <= p <= 1:
            raise InvalidInput(f"depolarizing parameter {p} outside [0, 1]")
        return cls(p_i=1 - p, p_x=p / 3, p_y=p / 3, p_z=p / 3)

    @classmethod
    def pauli(cls, p_x: float, p_y: float, p_z: float) -> "ChannelSpec":
        return cls(p_i=1 - p_x - p_y - p_z, p_x=p_x, p_y=p_y, p_z=p_z)

    def thresholds(self) -> tuple[float, float, float]:
        return (self.p_i, self.p_i + self.p_x, self.p_i + self.p_x + self.p_y)


def _sample_rows(
    channel: ChannelSpec, n: int, rng: np.random.Generator, count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw `count` errors at once; return the rows that are not the identity.

    Row r is the error of the r-th successive ``rng.random(n)`` draw.  Qubit j
    of a row with draw v is I if v < t1, else X if v < t2, else Y if v < t3,
    else Z, with (t1, t2, t3) the channel's cumulative thresholds.  The
    result is the increasing indices of the non-identity rows and their x
    and z bits, packed little-endian into (rows, ceil(n/8)) uint8 arrays.
    """
    t1, t2, t3 = channel.thresholds()
    v = rng.random((count, n))
    # the comparisons follow the branch order above, so they agree with it
    # also when a component within _PROB_TOL below zero unsorts t1, t2, t3
    hit = v >= t1
    rows = np.flatnonzero(hit.any(axis=1))
    if not rows.size:
        empty = np.zeros((0, (n + 7) // 8), dtype=np.uint8)
        return rows, empty, empty
    v, hit = v[rows], hit[rows]
    x = np.packbits(hit & ((v < t2) | (v < t3)), axis=1, bitorder="little")
    z = np.packbits(hit & (v >= t2), axis=1, bitorder="little")
    return rows, x, z


def _pauli_errors(n: int, x: np.ndarray, z: np.ndarray) -> list[PauliError]:
    """The rows of packed x and z bits as `PauliError`s."""
    return [
        PauliError(n, int.from_bytes(a.tobytes(), "little"), int.from_bytes(b.tobytes(), "little"))
        for a, b in zip(x, z)
    ]


def sample_error(channel: ChannelSpec, n: int, rng: np.random.Generator) -> PauliError:
    """Independent per-qubit draw: I, X, Y, Z by cumulative threshold."""
    _, x, z = _sample_rows(channel, n, rng, 1)
    return _pauli_errors(n, x, z)[0] if len(x) else PauliError.identity(n)


@dataclass(frozen=True)
class TrialReport:
    """Counts of one Monte Carlo run.

    ``x_failures`` and ``z_failures`` split ``decode_failures`` by the side
    whose classical decoder gave up.  The z side is decoded first, so a trial
    on which both sides would fail counts as a z failure.  Both are None on a
    report that does not split its failures.
    """

    trials: int
    successes: int
    decode_failures: int
    logical_errors: int
    seed: int
    channel: ChannelSpec
    x_failures: int | None = None
    z_failures: int | None = None

    def __post_init__(self):
        if self.successes + self.decode_failures + self.logical_errors != self.trials:
            raise InvalidInput("trial counts do not add up")
        split = (self.x_failures, self.z_failures)
        if split != (None, None) and (None in split or sum(split) != self.decode_failures):
            raise InvalidInput("x and z failures do not add up to the decode failures")

    @property
    def logical_rate(self) -> float:
        return self.logical_errors / self.trials

    def to_csv(self) -> str:
        lines = ["field,value"]
        for name in ("trials", "successes", "decode_failures", "x_failures", "z_failures",
                     "logical_errors", "seed"):
            value = getattr(self, name)
            lines.append(f"{name},{'' if value is None else value}")
        lines.append(f"p_i,{self.channel.p_i}")
        lines.append(f"p_x,{self.channel.p_x}")
        lines.append(f"p_y,{self.channel.p_y}")
        lines.append(f"p_z,{self.channel.p_z}")
        return "\n".join(lines) + "\n"


def _trial_errors(channel: ChannelSpec, n: int, seed: int, trials: int):
    """Yield (t, x, z) for each block of trials 0..trials-1, in order: t the
    increasing indices of the block's trials whose error is not the
    identity, and x and z their packed bits, as `_sample_rows` gives them.
    Every other trial's error is the identity.

    Each block is one `_sample_rows` call on its block's generator, so no
    per-trial function call is made for an identity trial.
    """
    for block, lo in enumerate(range(0, trials, _BLOCK)):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(block,)))
        rows, x, z = _sample_rows(channel, n, rng, min(_BLOCK, trials - lo))
        yield lo + rows, x, z


def monte_carlo(
    code: CssCode,
    channel: ChannelSpec,
    trials: int,
    seed: int,
    workers: int | None = None,
) -> TrialReport:
    """Sample, decode and classify `trials` errors; deterministic in `seed`.

    Each block of trials is classified at once by `CssCode.classify_block`,
    one decode per distinct syndrome of a side in the block; the decoders
    are deterministic, so the report equals that of decoding every trial
    through `CssCode.decode`.  An identity error is counted as a success
    without decoding it; its syndrome is zero, which decodes to the
    identity, and the zero residual lies in the stabilizer.

    Every trial runs on the calling thread.  ``workers`` is accepted for
    callers that pass it, such as the benchmark's check that ``workers=1``
    and ``workers=2`` agree, and changes nothing: the report depends only on
    the code, the channel, `trials` and `seed`.
    """
    if trials < 1:
        raise InvalidInput(f"need at least one trial, got {trials}")
    if seed < 0:
        raise InvalidInput(f"seed must be non-negative, got {seed}")
    counts = np.zeros(4, dtype=np.int64)
    for _, x, z in _trial_errors(channel, code.n, seed, trials):
        counts += np.bincount(code.classify_block(x, z), minlength=4)
    logicals, x_failures, z_failures = (int(counts[i]) for i in (LOGICAL, X_FAILURE, Z_FAILURE))
    return TrialReport(
        trials=trials,
        successes=trials - logicals - x_failures - z_failures,
        decode_failures=x_failures + z_failures,
        logical_errors=logicals,
        seed=seed,
        channel=channel,
        x_failures=x_failures,
        z_failures=z_failures,
    )


def component_weight_bound(n: int, p_component: float, radius: int) -> float:
    """P(component error weight exceeds the decoding radius), one component.

    Binomial tail: 1 - sum_{w <= radius} C(n, w) p^w (1-p)^(n-w).
    """
    import math

    acc = 0.0
    for w in range(radius + 1):
        acc += math.comb(n, w) * p_component**w * (1 - p_component) ** (n - w)
    return 1.0 - acc
