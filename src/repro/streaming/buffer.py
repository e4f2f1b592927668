"""Fixed-capacity ring buffer used by the streaming components."""

from __future__ import annotations

import numpy as np

from repro.streaming.latency import LatencyReport, summarize_latencies
from repro.utils import check_positive_int

__all__ = ["RingBuffer"]


class RingBuffer:
    """A fixed-capacity float ring buffer backed by a numpy array.

    Appending is O(1); :meth:`to_array` materializes the contents in
    insertion order (oldest first), and :meth:`summary` summarizes them
    once per write.
    """

    def __init__(self, capacity: int):
        self.capacity = check_positive_int(capacity, "capacity")
        self._storage = np.zeros(self.capacity)
        self._next = 0
        self._count = 0
        #: :meth:`summary` of the contents, None until asked after a write
        self._summary: LatencyReport | None = None

    def __getstate__(self) -> dict:
        """The attributes, with the storage cut to the values it retains.

        Oldest first, so ``_next`` is where the next append lands in the
        re-padded array.  A scalar-home series carries one ring per
        segment fallback and hand-off payload: pickling the zero padding
        made a young ring cost its full capacity everywhere it travelled.
        """
        return {
            "capacity": self.capacity,
            "_storage": self.to_array(),
            "_next": self._count % self.capacity,
            "_count": self._count,
        }

    def __setstate__(self, state: dict) -> None:
        # A ring pickled with its whole backing array (every build before
        # __getstate__ existed) has the same four attributes: padding it
        # is then a plain copy.
        self.__dict__.update(state)
        storage = np.zeros(self.capacity)
        storage[: self._storage.size] = self._storage
        self._storage = storage
        self._summary = None

    def __len__(self) -> int:
        return self._count

    @property
    def is_full(self) -> bool:
        return self._count == self.capacity

    def append(self, value: float) -> None:
        self._summary = None
        self._storage[self._next] = float(value)
        self._next = (self._next + 1) % self.capacity
        self._count = min(self._count + 1, self.capacity)

    def extend(self, values) -> None:
        """Append every value in order; only the last ``capacity`` survive."""
        if not isinstance(values, np.ndarray):
            values = list(values)
        values = np.asarray(values, dtype=float).reshape(-1)[-self.capacity :]
        self._summary = None
        # At most two slice writes: up to the end of the storage, then
        # the wrapped remainder from its start.
        head = min(values.size, self.capacity - self._next)
        self._storage[self._next : self._next + head] = values[:head]
        self._storage[: values.size - head] = values[head:]
        self._next = (self._next + values.size) % self.capacity
        self._count = min(self._count + values.size, self.capacity)

    def latest(self) -> float:
        if self._count == 0:
            raise ValueError("the buffer is empty")
        return float(self._storage[(self._next - 1) % self.capacity])

    def to_array(self) -> np.ndarray:
        if self._count < self.capacity:
            return self._storage[: self._count].copy()
        return np.concatenate(
            [self._storage[self._next :], self._storage[: self._next]]
        )

    def clear(self) -> None:
        self._summary = None
        self._next = 0
        self._count = 0

    def summary(self) -> LatencyReport:
        """:func:`~repro.streaming.latency.summarize_latencies` of the
        contents, as durations in seconds, labelled ``"ring"`` (relabel
        with :func:`dataclasses.replace`).  Memoised: a ring read more
        often than written -- a group's, read once per member -- is
        summarized once per write."""
        report = self._summary
        if report is None:
            self._summary = report = summarize_latencies(self.to_array(), "ring")
        return report
