"""TSB-UAD-like anomaly-detection benchmark (substitute for Table 3's data).

The paper evaluates on seventeen dataset families of the public TSB-UAD
benchmark.  Those files cannot be downloaded in this offline environment,
so this module generates one small family of labelled series per benchmark
name, with the family's salient characteristics (rough period, noise level,
seasonality strength, dominant anomaly types) encoded in a profile table.
The generated data exercise exactly the same code paths -- initialization on
a train prefix, online scoring, VUS-ROC evaluation -- and preserve the
qualitative contrasts the paper draws (e.g. ECG-like series favour matrix
profile methods, IoT/AIOps-like series favour the STD-based detectors).

Obviously the absolute VUS-ROC numbers differ from the paper's: only the
qualitative shape carries over, and that is what
``benchmarks/bench_table3_tsad.py`` asserts (its docstring lists it).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets.anomalies import random_anomalies
from repro.datasets.synthetic import make_seasonal
from repro.datasets.types import AnomalySeries
from repro.utils import check_positive_int

__all__ = ["TSB_UAD_FAMILIES", "FamilyProfile", "make_family", "make_benchmark"]


@dataclass(frozen=True)
class FamilyProfile:
    """Generation profile of one TSB-UAD-like dataset family."""

    name: str
    period: int
    length: int
    seasonal_strength: float
    noise: float
    shape: str
    trend_drift: float
    anomaly_count: int
    anomaly_kinds: tuple[str, ...]


#: Seventeen family profiles mirroring the TSB-UAD datasets used in Table 3.
TSB_UAD_FAMILIES: tuple[FamilyProfile, ...] = (
    FamilyProfile("Daphnet", 128, 4000, 0.8, 0.30, "mixed", 0.0005, 3, ("collective", "pattern")),
    FamilyProfile("Dodgers", 288, 4500, 1.0, 0.25, "sharp", 0.0, 4, ("dip", "collective")),
    FamilyProfile("ECG", 140, 5000, 1.2, 0.10, "sharp", 0.0, 4, ("pattern", "collective")),
    FamilyProfile("Genesis", 160, 4000, 0.6, 0.15, "sine", 0.0, 2, ("spike", "flat")),
    FamilyProfile("GHL", 200, 5000, 0.7, 0.20, "mixed", 0.0008, 3, ("level_shift", "collective")),
    FamilyProfile("IOPS", 288, 5500, 1.0, 0.20, "sharp", 0.001, 4, ("spike", "dip", "level_shift")),
    FamilyProfile("MGAB", 100, 4000, 0.9, 0.05, "sine", 0.0, 3, ("pattern",)),
    FamilyProfile("MITDB", 180, 5000, 1.1, 0.15, "sharp", 0.0, 4, ("pattern", "collective")),
    FamilyProfile("NAB", 250, 4000, 0.6, 0.35, "mixed", 0.002, 3, ("spike", "level_shift")),
    FamilyProfile("NASA-MSL", 120, 3500, 0.5, 0.25, "mixed", 0.0, 2, ("collective", "flat")),
    FamilyProfile("NASA-SMAP", 130, 3500, 0.6, 0.25, "sine", 0.0, 2, ("collective", "level_shift")),
    FamilyProfile("Occupancy", 144, 4000, 0.9, 0.15, "sharp", 0.0, 3, ("spike", "collective")),
    FamilyProfile("Opportunity", 150, 4000, 0.4, 0.40, "mixed", 0.001, 3, ("collective", "pattern")),
    FamilyProfile("SensorScope", 96, 4000, 0.7, 0.30, "sine", 0.0015, 3, ("spike", "flat")),
    FamilyProfile("SMD", 288, 5500, 0.8, 0.20, "sharp", 0.0005, 4, ("spike", "level_shift", "collective")),
    FamilyProfile("SVDB", 170, 5000, 1.1, 0.12, "sharp", 0.0, 4, ("pattern", "collective")),
    FamilyProfile("YAHOO", 168, 3500, 0.9, 0.15, "mixed", 0.002, 3, ("spike", "dip", "level_shift")),
)

_PROFILES_BY_NAME = {profile.name: profile for profile in TSB_UAD_FAMILIES}


def make_family(
    name: str,
    series_per_family: int = 3,
    seed: int = 0,
    train_fraction: float = 0.4,
) -> list[AnomalySeries]:
    """Generate the labelled series of one family."""
    if name not in _PROFILES_BY_NAME:
        raise KeyError(f"unknown family {name!r}; known: {sorted(_PROFILES_BY_NAME)}")
    profile = _PROFILES_BY_NAME[name]
    series_per_family = check_positive_int(series_per_family, "series_per_family")

    family: list[AnomalySeries] = []
    for series_index in range(series_per_family):
        rng = np.random.default_rng(hash((name, seed, series_index)) % (2**32))
        length = profile.length
        time = np.arange(length)
        seasonal = profile.seasonal_strength * make_seasonal(
            length, profile.period, shape=profile.shape
        )
        trend = profile.trend_drift * time + 0.2 * np.sin(
            2 * np.pi * time / (length / 1.5)
        )
        noise = rng.normal(0.0, profile.noise, size=length)
        values = trend + seasonal + noise

        train_length = max(int(length * train_fraction), 2 * profile.period + 10)
        values, labels = random_anomalies(
            values,
            profile.period,
            count=profile.anomaly_count,
            seed=seed * 1000 + series_index,
            start_at=train_length + profile.period,
            kinds=profile.anomaly_kinds,
        )
        family.append(
            AnomalySeries(
                name=f"{name}-{series_index}",
                values=values,
                labels=labels,
                train_length=train_length,
                period=profile.period,
            )
        )
    return family


def make_benchmark(
    series_per_family: int = 3,
    seed: int = 0,
    families: tuple[str, ...] | None = None,
) -> dict[str, list[AnomalySeries]]:
    """Generate the full TSB-UAD-like benchmark as ``{family: [series, ...]}``."""
    if families is None:
        families = tuple(profile.name for profile in TSB_UAD_FAMILIES)
    return {
        name: make_family(name, series_per_family=series_per_family, seed=seed)
        for name in families
    }
