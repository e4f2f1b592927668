"""Load generator: every input the ledger feeds the system comes from here.

The program under test only ever sees the arrays built in this module.
All of them are pure functions of ``(seed, scale)`` and of a round or
operation index -- never of wall-clock time or of how many operations a
run happened to complete -- so a timed window that ends by the clock
still feeds every operation index the same values on every commit.

Common shape (ISSUE 11): period 24; per series 96 initialisation rounds
and 16 warm-up rounds, untimed; values are a sine with a random phase
plus a ``0.01 * t`` trend plus ``N(0, 0.05)`` noise.  One *operation* is
one batch of :data:`BATCH_ROUNDS` rounds times the fleet width.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PERIOD = 24
INIT_ROUNDS = 4 * PERIOD
WARM_ROUNDS = 16
#: first timed round
TIMED_START = INIT_ROUNDS + WARM_ROUNDS
BATCH_ROUNDS = 8

#: rounds of pre-drawn noise, reused cyclically: an endless stream
#: without an endless array (127 batches; coprime with the 3-batch
#: seasonal cycle, so noise and phase never realign within a window)
_NOISE_ROUNDS = 127 * BATCH_ROUNDS

#: seeds the shape of a workload (see FleetLoad), as opposed to its data
_SHAPE_SEED = 20230816

#: share of timed points that carry an injected spike (fleet_anomalous)
SPIKE_SHARE = 0.0003
#: a phase-shift episode starts every this many operations ...
EPISODE_EVERY_OPS = 6
#: ... moves one series by this many samples ...
EPISODE_SHIFT = 3
#: ... and lasts four periods (paper section 3.4 / the Syn2 scenario)
EPISODE_ROUNDS = 4 * PERIOD
#: series spiked during the untimed warm-up of served_http, so the
#: anomaly ring the reader pages through is not empty
WARM_SPIKED_SERIES = 50

#: fleet_mixed_forms: rounds every series advances per cycle, keys fed
#: one value at a time in the cycle's last phase, and point reads of
#: each kind that close a cycle
MIXED_CYCLE_ROUNDS = 48
MIXED_PROCESS_KEYS = 20
MIXED_READS = 20


@dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark scale; ``full`` is frozen in BENCHMARK.json."""

    #: fleet width of the single-engine workloads (the cluster runs
    #: twice this, so each of its two workers carries one such fleet)
    series: int
    #: default length of the timed window when ``--seconds`` is absent
    seconds: float
    #: a window never ends before this many operations (p90 needs ten
    #: samples beyond it) ...
    min_ops: int
    #: ... and the output checks and digests cover this many leading
    #: operations, which every run therefore completes
    check_ops: int
    #: operations between two checkpoints, and in the WAL tail that
    #: recovery and failover replay
    checkpoint_every: int
    tail_ops: int
    #: fleet_anomalous rewinds its fleet to the warmed state after this
    #: many operations (two turns of the spike and episode schedules)
    anomalous_ops: int
    #: timed blocks per rung of the differential ladder
    ladder_blocks: int
    #: rate of the open-loop reader of served_http
    read_hz: float
    #: Syn1/Syn2 lengths and periods of paper_scalar
    syn1: tuple[int, int]
    syn2: tuple[int, int]


SCALES = {
    # The issue sized the fleet at 1,000 series; set-up costs ~8 ms per
    # series and the driver's cap leaves ~21 s per run including set-up,
    # so the frozen width is 500 (one operation = 4,000 points).
    "full": Scale(
        series=500,
        seconds=8.0,
        min_ops=120,
        check_ops=25,
        checkpoint_every=100,
        tail_ops=50,
        anomalous_ops=60,
        ladder_blocks=24,
        read_hz=5.0,
        syn1=(7000, 500),
        syn2=(2500, 250),
    ),
    "smoke": Scale(
        series=64,
        seconds=0.4,
        min_ops=12,
        check_ops=6,
        checkpoint_every=6,
        tail_ops=4,
        anomalous_ops=12,
        ladder_blocks=4,
        read_hz=25.0,
        syn1=(1400, 100),
        syn2=(900, 90),
    ),
}


@dataclass(frozen=True)
class PaperSeries:
    """Syn1 or Syn2 with its ground truth."""

    values: np.ndarray
    trend: np.ndarray
    seasonal: np.ndarray
    period: int


def paper_series(name: str, scale: Scale, seed: int) -> PaperSeries:
    """The paper's Syn1 / Syn2, with the noise redrawn from ``seed``.

    Trend breaks, spikes and shifted periods are the dataset's shape and
    stay those of the generator's default seed (they decide how many
    updates run the shift search, i.e. the amount of work); the seed
    redraws the Gaussian residual around them.
    """
    from repro.datasets import make_syn1, make_syn2

    make, (length, period), noise = {
        "syn1": (make_syn1, scale.syn1, 0.1),
        "syn2": (make_syn2, scale.syn2, 0.05),
    }[name]
    base = make(length=length, period=period, noise=noise)
    fresh = np.random.default_rng([seed, len(name), length]).normal(0.0, noise, length)
    residual = np.where(np.abs(base.residual) > 5 * noise, base.residual, fresh)
    return PaperSeries(base.trend + base.seasonal + residual, base.trend, base.seasonal, period)


class FleetLoad:
    """Endless deterministic fleet stream, addressed by round index.

    ``kind`` selects the overlay on the clean stream:

    ``"clean"``
        none.
    ``"anomalous"``
        timed operations carry spikes (labelled) and phase-shift
        episodes (unlabelled) -- see :meth:`op`.
    ``"warm_spiked"``
        :data:`WARM_SPIKED_SERIES` series carry one spike each inside
        the untimed warm-up; the timed stream is clean.
    """

    def __init__(self, seed: int, n_series: int, kind: str = "clean"):
        if kind not in ("clean", "anomalous", "warm_spiked"):
            raise ValueError(f"unknown load kind {kind!r}")
        self.seed = int(seed)
        self.n = int(n_series)
        self.kind = kind
        #: strings, because the wire format carries strings
        self.keys = [f"s{index:05d}" for index in range(self.n)]
        # The seed redraws the data -- every series' noise -- while the
        # shape of the workload (phases, and below which operation hits
        # which series how hard) is part of its definition: seeds then
        # differ in the values the program sees, not in the amount of
        # work, and run-to-run spread measures the machine, not the dice.
        self._noise = np.random.default_rng(self.seed).normal(
            0.0, 0.05, (_NOISE_ROUNDS, self.n)
        )
        rng = np.random.default_rng(_SHAPE_SEED)
        self._phase = rng.uniform(0.0, 2 * np.pi, self.n)
        #: column visited by the e-th phase-shift episode
        self._episode_columns = rng.permutation(self.n)
        self._warm_spikes: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        if kind == "warm_spiked":
            columns = rng.permutation(self.n)[: min(WARM_SPIKED_SERIES, self.n)]
            # late in the warm-up, once every scorer has seen a few
            # online residuals; spread over rounds so no single round of
            # the warm-up batch carries them all
            rounds = INIT_ROUNDS + WARM_ROUNDS // 2 + rng.integers(
                0, WARM_ROUNDS // 2, columns.size
            )
            deltas = rng.choice([-1.0, 1.0], columns.size) * rng.uniform(
                1.0, 3.0, columns.size
            )
            for round_index in np.unique(rounds):
                mask = rounds == round_index
                self._warm_spikes[int(round_index)] = (columns[mask], deltas[mask])

    # ------------------------------------------------------------- streams

    def _clean(self, start: int, stop: int, sample_shift: np.ndarray | None = None):
        time_axis = np.arange(start, stop, dtype=float)[:, None]
        seasonal_time = time_axis if sample_shift is None else time_axis + sample_shift
        return (
            np.sin(2 * np.pi * seasonal_time / PERIOD + self._phase[None, :])
            + 0.01 * time_axis
            + self._noise[np.arange(start, stop) % _NOISE_ROUNDS]
        )

    def rounds(self, start: int, stop: int) -> np.ndarray:
        """Round-major ``(stop - start, n)`` values of the untimed prefix."""
        values = self._clean(start, stop)
        for round_index, (columns, deltas) in self._warm_spikes.items():
            if start <= round_index < stop:
                values[round_index - start, columns] += deltas
        return values

    def op(self, index: int) -> np.ndarray:
        """The ``(BATCH_ROUNDS, n)`` batch of timed operation ``index``."""
        start = TIMED_START + index * BATCH_ROUNDS
        if self.kind != "anomalous":
            return self._clean(start, start + BATCH_ROUNDS)
        shift = np.zeros((1, self.n))
        shift[0, self.episode_columns(index)] = EPISODE_SHIFT
        values = self._clean(start, start + BATCH_ROUNDS, shift)
        rows, columns, deltas = self._spikes(index)
        values[rows, columns] += deltas
        return values

    def column_series(self, column: int, ops: int) -> np.ndarray:
        """One series from round 0 to the end of timed operation ``ops - 1``."""
        parts = [self.rounds(0, TIMED_START)[:, column]]
        parts.extend(self.op(index)[:, column] for index in range(ops))
        return np.concatenate(parts)

    def spike_labels(self, index: int) -> np.ndarray:
        """Boolean ``(BATCH_ROUNDS, n)`` mask of operation ``index``'s spikes."""
        labels = np.zeros((BATCH_ROUNDS, self.n), dtype=bool)
        if self.kind == "anomalous":
            rows, columns, _deltas = self._spikes(index)
            labels[rows, columns] = True
        return labels

    # ----------------------------------------------------------- anomalies

    def _spikes(self, index: int):
        """Positions and sizes of operation ``index``'s spikes.

        The *count* per operation follows a fixed rounding pattern of the
        target share; positions, sign and the ``U(1, 3)`` magnitude are
        drawn per operation from the shape seed.
        """
        per_op = SPIKE_SHARE * BATCH_ROUNDS * self.n
        count = int((index + 1) * per_op + 0.5) - int(index * per_op + 0.5)
        rng = np.random.default_rng([_SHAPE_SEED, 1, index])
        cells = rng.choice(BATCH_ROUNDS * self.n, size=count, replace=False)
        deltas = rng.choice([-1.0, 1.0], count) * rng.uniform(1.0, 3.0, count)
        return cells // self.n, cells % self.n, deltas

    def episode_columns(self, index: int) -> np.ndarray:
        """Columns inside a phase-shift episode during operation ``index``."""
        ops_per_episode = EPISODE_ROUNDS // BATCH_ROUNDS
        newest = index // EPISODE_EVERY_OPS
        episodes = [
            episode
            for episode in range(max(0, newest - ops_per_episode), newest + 1)
            if episode * EPISODE_EVERY_OPS <= index
            < episode * EPISODE_EVERY_OPS + ops_per_episode
        ]
        return self._episode_columns[np.asarray(episodes, dtype=int) % self.n]

    # ------------------------------------------------------------- samples

    def sample_columns(self, count: int, check_ops: int) -> list[int]:
        """Columns whose outputs are replayed through the scalar path.

        Evenly spaced, but led by the columns the overlay touches inside
        the checked prefix (shifted or spiked series are where the fleet
        path and the scalar path could plausibly part ways).
        """
        chosen: list[int] = []
        if self.kind == "anomalous":
            for index in range(check_ops):
                chosen.extend(int(c) for c in self.episode_columns(index))
                chosen.extend(int(c) for c in self._spikes(index)[1])
        elif self.kind == "warm_spiked":
            for columns, _deltas in self._warm_spikes.values():
                chosen.extend(int(c) for c in columns)
        chosen = list(dict.fromkeys(chosen))[: count // 2]
        stride = max(1, self.n // count)
        for column in range(0, self.n, stride):
            if len(chosen) >= count:
                break
            if column not in chosen:
                chosen.append(column)
        return chosen
