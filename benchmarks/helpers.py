"""Shared utilities for the benchmark harnesses.

Every benchmark module regenerates one table or figure of the paper: it
assembles the same rows/series the paper reports, prints them, and writes
them to ``benchmarks/results/<name>.txt`` so that EXPERIMENTS.md can quote
them.  Workload sizes are controlled by the ``REPRO_BENCH_SCALE``
environment variable:

* ``small`` (default) -- reduced series lengths / counts so the full suite
  finishes on a laptop in tens of minutes;
* ``paper`` -- the paper's full workload sizes.
"""

from __future__ import annotations

import os
from pathlib import Path

RESULTS_DIRECTORY = Path(__file__).parent / "results"


def bench_scale() -> str:
    """Return the configured workload scale (``small`` or ``paper``)."""
    scale = os.environ.get("REPRO_BENCH_SCALE", "small").lower()
    if scale not in ("small", "paper"):
        raise ValueError("REPRO_BENCH_SCALE must be 'small' or 'paper'")
    return scale


def is_paper_scale() -> bool:
    return bench_scale() == "paper"


def format_table(title: str, rows: list[dict]) -> str:
    """Render ``rows`` (list of dicts sharing keys) as an aligned text table."""
    if not rows:
        return f"== {title} ==\n(no rows)\n"
    columns = list(rows[0].keys())
    rendered_rows = []
    for row in rows:
        rendered_rows.append(
            {
                column: (f"{value:.4f}" if isinstance(value, float) else str(value))
                for column, value in row.items()
            }
        )
    widths = {
        column: max(len(column), *(len(row[column]) for row in rendered_rows))
        for column in columns
    }
    lines = [f"== {title} =="]
    lines.append("  ".join(column.ljust(widths[column]) for column in columns))
    lines.append("  ".join("-" * widths[column] for column in columns))
    for row in rendered_rows:
        lines.append("  ".join(row[column].ljust(widths[column]) for column in columns))
    return "\n".join(lines) + "\n"


def report(name: str, title: str, rows: list[dict]) -> str:
    """Print the table and persist it under ``benchmarks/results/``."""
    text = format_table(title, rows)
    print("\n" + text)
    RESULTS_DIRECTORY.mkdir(exist_ok=True)
    (RESULTS_DIRECTORY / f"{name}.txt").write_text(text)
    return text


def average_rank(per_key_scores: dict[str, dict[str, float]], higher_is_better: bool) -> dict[str, float]:
    """Average rank of each method across keys (datasets).

    ``per_key_scores`` maps dataset -> {method: score}.
    """
    ranks: dict[str, list[int]] = {}
    for scores in per_key_scores.values():
        ordered = sorted(
            scores.items(), key=lambda item: item[1], reverse=higher_is_better
        )
        for position, (method, _) in enumerate(ordered, start=1):
            ranks.setdefault(method, []).append(position)
    return {method: sum(values) / len(values) for method, values in ranks.items()}
