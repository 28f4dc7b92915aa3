"""Artifact writers: CSV at full float precision, JSON summaries with
provenance, and minimal static SVG line plots (data-only outputs are the
primary artifacts; the SVGs are display conveniences)."""

from __future__ import annotations

import csv
import hashlib
import json
import os
from pathlib import Path

import numpy as np

from ._threads import blas_threads


def format_value(x) -> str:
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    if isinstance(x, (np.integer,)):
        return str(int(x))
    return str(x)


def write_csv(path: str | Path, header: list[str], rows) -> None:
    """Write rows of mixed values; floats carry 17 significant digits so
    float64 values round-trip bit-exactly through read_csv."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_value(v) for v in row])


def read_csv(path: str | Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, [row for row in reader]


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj


def write_json(path: str | Path, obj: dict) -> None:
    with open(path, "w") as fh:
        json.dump(_jsonable(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def provenance(config_dict: dict | None, seed: int | None) -> dict:
    import scipy

    import stratapc

    blob = json.dumps(_jsonable(config_dict), sort_keys=True).encode() if config_dict else b""
    return {
        "config_hash": hashlib.sha256(blob).hexdigest() if blob else None,
        "seed": seed,
        "versions": {
            "stratapc": getattr(stratapc, "__version__", "unknown"),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "environment": {
            "cores": len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity")
            else os.cpu_count(),
            "openblas_threads": blas_threads(),
        },
    }


def svg_line_plot(
    path: str | Path,
    x: np.ndarray,
    series: dict[str, np.ndarray],
    title: str = "",
) -> None:
    """Bare-bones multi-series line plot, 640 x 400 px; one polyline per
    series."""
    width, height = 640, 400
    x = np.asarray(x, dtype=float)
    all_y = np.concatenate([np.asarray(y, dtype=float) for y in series.values()])
    finite = np.isfinite(all_y)
    y_lo, y_hi = (all_y[finite].min(), all_y[finite].max()) if finite.any() else (0.0, 1.0)
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    x_lo, x_hi = float(x.min()), float(x.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    margin = 40

    def sx(v):
        return margin + (v - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def sy(v):
        return height - margin - (v - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
               "#e377c2", "#7f7f7f", "#bcbd22", "#17becf"]
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
        f'<text x="{margin}" y="{height - margin + 16}" font-family="sans-serif" '
        f'font-size="10">{x_lo:g}</text>',
        f'<text x="{width - margin}" y="{height - margin + 16}" text-anchor="end" '
        f'font-family="sans-serif" font-size="10">{x_hi:g}</text>',
        f'<text x="{margin - 4}" y="{height - margin}" text-anchor="end" '
        f'font-family="sans-serif" font-size="10">{y_lo:.3g}</text>',
        f'<text x="{margin - 4}" y="{margin + 4}" text-anchor="end" '
        f'font-family="sans-serif" font-size="10">{y_hi:.3g}</text>',
    ]
    for idx, (label, y) in enumerate(series.items()):
        y = np.asarray(y, dtype=float)
        pts = " ".join(
            f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(x, y) if np.isfinite(b)
        )
        color = palette[idx % len(palette)]
        lines.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>'
        )
        lines.append(
            f'<text x="{width - margin + 2}" y="{margin + 14 * idx + 10}" '
            f'font-family="sans-serif" font-size="10" fill="{color}">{label}</text>'
        )
    lines.append("</svg>")
    Path(path).write_text("\n".join(lines))
