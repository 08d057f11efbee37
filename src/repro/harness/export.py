"""Export experiment results: CSV, JSON, and ASCII scatter plots.

The paper's figures are scatter/line plots; with no plotting stack
available offline, :func:`ascii_scatter` renders a serviceable terminal
figure, and :func:`to_csv`/:func:`to_json` emit machine-readable data for
external plotting.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
from typing import List, Optional, Sequence, Tuple

from repro.harness.experiments import ExperimentResult


def to_csv(result: ExperimentResult) -> str:
    """Render an experiment's rows as CSV (header line included)."""

    def cell(value) -> str:
        text = str(value)
        if "," in text or '"' in text:
            text = '"' + text.replace('"', '""') + '"'
        return text

    lines = [",".join(cell(h) for h in result.headers)]
    lines += [",".join(cell(v) for v in row) for row in result.rows]
    return "\n".join(lines)


def to_json(result: ExperimentResult) -> str:
    """Render an experiment (rows, series and claims) as pretty-printed JSON."""
    payload = {
        "name": result.name,
        "title": result.title,
        "headers": list(result.headers),
        "rows": [list(row) for row in result.rows],
        "series": {label: [list(p) for p in pts] for label, pts in result.series.items()},
        "notes": result.notes,
        "claims": [dataclasses.asdict(claim) for claim in result.claims],
    }
    return json.dumps(payload, indent=2)


_MARKERS = "ox+*#@%&"


def ascii_scatter(
    series: Sequence[Tuple[str, Sequence[Tuple[float, float]]]],
    width: int = 72,
    height: int = 20,
    x_label: str = "x",
    y_label: str = "y",
    log_x: bool = False,
    title: Optional[str] = None,
) -> str:
    """Render labelled point series as an ASCII scatter plot.

    Multiple series get distinct markers with a legend (markers cycle when
    there are more series than markers).  ``log_x`` uses a log10 x-axis
    (useful for violation rates spanning decades; non-positive x values
    are clamped to half the smallest positive x across *all* series, so
    every series shares one axis transform).
    """
    points = [(x, y) for _, pts in series for x, y in pts]
    if not points:
        return "(no data)"

    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    if log_x:
        positive = [x for x in xs if x > 0]
        floor = min(positive) / 2 if positive else 1e-9
        xs = [math.log10(max(x, floor)) for x in xs]

    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    grid = [[" "] * width for _ in range(height)]
    for (label, pts), marker in zip(series, itertools.cycle(_MARKERS)):
        for x, y in pts:
            if log_x:
                # Same global floor as the axis-range pass above: a
                # per-series floor would place equal x values in
                # different columns depending on their series.
                x = math.log10(max(x, floor))
            col = int((x - x_lo) / x_span * (width - 1))
            row = int((y - y_lo) / y_span * (height - 1))
            grid[height - 1 - row][col] = marker

    lines = []
    if title:
        lines.append(title)
    lines.append(f"{y_hi:10.4g} +" + "-" * width + "+")
    for row in grid:
        lines.append(" " * 11 + "|" + "".join(row) + "|")
    lines.append(f"{y_lo:10.4g} +" + "-" * width + "+")
    x_lo_label = f"{10 ** x_lo:.3g}" if log_x else f"{x_lo:.3g}"
    x_hi_label = f"{10 ** x_hi:.3g}" if log_x else f"{x_hi:.3g}"
    axis = f"{x_lo_label} {'<- ' + x_label + ' ->':^{width - 8}} {x_hi_label}"
    lines.append(" " * 12 + axis)
    legend = "   ".join(
        f"{marker}={label}"
        for (label, _), marker in zip(series, itertools.cycle(_MARKERS))
    )
    lines.append(" " * 12 + f"[{y_label}]  " + legend)
    return "\n".join(lines)


def figure_series(result: ExperimentResult, *labels: str) -> List[Tuple[str, list]]:
    """Pick named series out of an experiment result for plotting."""
    return [(label, result.series[label]) for label in labels]
