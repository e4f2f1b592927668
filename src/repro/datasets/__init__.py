"""Dataset generators and loaders for every experiment in the paper.

Synthetic substitutes are provided for all proprietary or non-downloadable
data (each module names the paper dataset it stands in for); loaders are
provided for users who have the real benchmark files locally.
"""

from repro.datasets.anomalies import (
    inject_collective,
    inject_dip,
    inject_flatline,
    inject_level_shift,
    inject_pattern_change,
    inject_spike,
    random_anomalies,
)
from repro.datasets.kdd21 import make_kdd21_like
from repro.datasets.loaders import load_csv_column, load_kdd21_file, load_tsb_uad_file
from repro.datasets.realworld import make_real1_like, make_real2_like
from repro.datasets.synthetic import make_seasonal, make_syn1, make_syn2, repeat_series
from repro.datasets.tsad_benchmark import (
    TSB_UAD_FAMILIES,
    FamilyProfile,
    make_benchmark,
    make_family,
)
from repro.datasets.tsf_benchmark import (
    TSF_DATASETS,
    TSFProfile,
    make_tsf_benchmark,
    make_tsf_dataset,
)
from repro.datasets.types import AnomalySeries, ComponentSeries, ForecastSeries

__all__ = [
    "AnomalySeries",
    "ComponentSeries",
    "ForecastSeries",
    "FamilyProfile",
    "TSB_UAD_FAMILIES",
    "TSFProfile",
    "TSF_DATASETS",
    "inject_collective",
    "inject_dip",
    "inject_flatline",
    "inject_level_shift",
    "inject_pattern_change",
    "inject_spike",
    "load_csv_column",
    "load_kdd21_file",
    "load_tsb_uad_file",
    "make_benchmark",
    "make_family",
    "make_kdd21_like",
    "make_real1_like",
    "make_real2_like",
    "make_seasonal",
    "make_syn1",
    "make_syn2",
    "make_tsf_benchmark",
    "make_tsf_dataset",
    "random_anomalies",
    "repeat_series",
]
