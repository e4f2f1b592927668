"""Output checks: scalar replay, digests and point conservation.

The repository's behaviour contract is that every batched, durable,
sharded or served path produces exactly the floats of the scalar
per-series path.  The ledger holds each workload to it on a sample: the
outputs of the first ``check_ops`` operations are kept (references only,
nothing is copied inside the timed window), and after the window

* eight sampled series are replayed one value at a time through
  ``MultiSeriesEngine.process`` on a one-series engine and must match
  float for float;
* a SHA-256 over the kept arrays is recorded, so the same seed gives the
  same digest on any later commit that keeps the contract;
* point counts must be conserved end to end.

Every check is one attempted operation of the workload; a mismatch is a
failed one.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.streaming.engine import EngineRecord, IngestResult, MultiSeriesEngine

from load import PERIOD

#: per-point outputs compared and hashed, in this order
FIELDS = ("trend", "seasonal", "residual", "anomaly_score", "is_anomaly")


def output_rows(output) -> tuple[list, dict[str, np.ndarray]]:
    """Normalise any ingest output to ``(row keys, {field: array})``.

    Accepts what the public ingest forms return: an ``IngestResult``, a
    list of ``EngineRecord`` (row ingest), one ``EngineRecord``
    (``process``) or a list of ``IngestResult`` (``ingest_many``).
    """
    if isinstance(output, IngestResult):
        return output.keys, {name: getattr(output, name) for name in FIELDS}
    if isinstance(output, EngineRecord):
        output = [output]
    if output and isinstance(output[0], IngestResult):
        parts = [output_rows(part) for part in output]
        keys = [key for part_keys, _ in parts for key in part_keys]
        return keys, {
            name: np.concatenate([arrays[name] for _, arrays in parts])
            for name in FIELDS
        }
    keys = [record.key for record in output]
    return keys, {
        name: np.array([getattr(record.record, name) for record in output])
        for name in FIELDS
    }


def sha256_arrays(arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


class OutputLog:
    """Outputs of the checked prefix, per sampled key and as one digest."""

    def __init__(self, sample_keys: list):
        self.sample_keys = list(sample_keys)
        self._kept: list = []

    def keep(self, output) -> None:
        """Remember one operation's output (a reference; no work now)."""
        self._kept.append(output)

    def settle(self) -> tuple[str, dict]:
        """Digest of everything kept, and the sampled keys' output rows.

        Returns ``(hex digest, {key: {field: array over its kept points,
        in time order}})``.
        """
        hashed = []
        series: dict = {key: {name: [] for name in FIELDS} for key in self.sample_keys}
        wanted = set(self.sample_keys)
        for output in self._kept:
            keys, arrays = output_rows(output)
            hashed.extend(arrays[name] for name in FIELDS)
            for position, key in enumerate(keys):
                if key in wanted:
                    for name in FIELDS:
                        series[key][name].append(arrays[name][position])
        return sha256_arrays(hashed), {
            key: {name: np.asarray(values) for name, values in fields.items()}
            for key, fields in series.items()
        }


def scalar_replay(values: np.ndarray, online_from: int, period: int = PERIOD) -> dict[str, np.ndarray]:
    """Feed one series through the scalar per-series path of the engine.

    ``values`` is the series from its first initialisation value on;
    returns the fields of every online point from ``online_from`` on.
    """
    engine = MultiSeriesEngine.for_oneshotstl(period)
    records = [engine.process("replay", value) for value in values]
    live = [record.record for record in records[online_from:]]
    return {name: np.array([getattr(record, name) for record in live]) for name in FIELDS}


def arrays_equal(left: np.ndarray, right: np.ndarray) -> bool:
    """Exact equality, NaN matching NaN (a warming score is NaN on both)."""
    left = np.asarray(left)
    right = np.asarray(right)
    if left.shape != right.shape:
        return False
    if left.dtype == bool or right.dtype == bool:
        return bool(np.array_equal(left, right))
    return bool(np.array_equal(left, right, equal_nan=True))


class Verdict:
    """Tally of named checks: each one attempted, some perhaps failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, passed: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not passed:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return passed

    def equal(self, name: str, found, expected) -> bool:
        return self.check(name, found == expected, f"found {found!r}, expected {expected!r}")

    def replay_matches(self, log_series: dict, load_column, online_rounds: int) -> None:
        """Compare each sampled key's kept outputs with its scalar replay.

        ``load_column(key)`` returns the key's full value series, from the
        first initialisation round to the last checked round.
        """
        for key, fields in log_series.items():
            values = load_column(key)
            expected = scalar_replay(values, len(values) - online_rounds)
            wrong = [
                name for name in FIELDS if not arrays_equal(fields[name], expected[name])
            ]
            self.check(
                f"scalar replay of {key}",
                not wrong,
                f"fields {wrong} differ from the scalar path",
            )


def f1_score(flags: np.ndarray, labels: np.ndarray) -> float:
    """Point-wise F1 of boolean ``flags`` against boolean ``labels``."""
    true_positive = int(np.sum(flags & labels))
    if true_positive == 0:
        return 0.0
    precision = true_positive / int(flags.sum())
    recall = true_positive / int(labels.sum())
    return 2 * precision * recall / (precision + recall)
