"""Deterministic 2D benchmark datasets, evaluation grids, and CSV persistence.

Two labeled binary benchmarks are provided, each with a held-out cluster of
out-of-domain points the model never trains on:

* two ovals: a pair of near-flat Gaussian clusters mirrored around x = 0,
  linearly separable.
* two moons: the usual interleaved half circles (unit radius, second moon
  shifted right and down) with isotropic Gaussian noise.

Both generators are pure functions of their parameters and seed, taken as
given: the CLI's ``RunConfig`` checks ``n_per_class`` and ``noise_sd``.  The
OOD cluster is displaced well away from the labeled data (see the module
constants) so "far from the data" is true by construction.

CSV formats (version-stable, 17 significant digits so round-trips are exact):
  dataset:  header ``x1,x2,label``; label is the class id, -1 marks OOD rows.
  surface:  header ``x1,x2,value``.
Both are written by one writer that formats ``CSV_CHUNK_ROWS`` rows at a
time, so writing holds one chunk's text, not the whole file's.
Optional ``# key=value`` comment lines may precede the header (the CLI uses
them to embed its config echo); readers skip them.  A surface can also be
written as a plain P2 (ASCII) PGM image with values mapped linearly onto
0..255 for quick visual checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .linalg import RngState

# Two-ovals geometry: cluster centers mirrored in x, elongated along x.
OVAL_CENTER_X = 1.2
OVAL_SD_LONG = 0.55
OVAL_SD_FLAT = 0.08

# OOD cluster placement shared by both benchmarks (above and between the
# classes, several cluster widths away from any labeled point).
OOD_CENTER = (0.25, 2.6)
OOD_SD = 0.12

CSV_CHUNK_ROWS = 1024  # rows formatted and written at a time


@dataclass
class Dataset2D:
    """Labeled 2D points plus an optional held-out OOD cloud."""

    points: np.ndarray
    labels: np.ndarray
    ood_points: np.ndarray | None

    def __post_init__(self):
        if self.points.shape[0] != self.labels.shape[0]:
            raise ValueError("points and labels disagree on sample count")
        if not np.all(np.isfinite(self.points)):
            raise ValueError("non-finite coordinates")


@dataclass
class EvalGrid:
    """Row-major rectangular grid of evaluation points.

    Points are ordered with x2 as the slow axis and x1 as the fast axis, so
    row r of the grid image corresponds to points [r * nx, (r + 1) * nx).
    """

    x1_min: float
    x1_max: float
    x2_min: float
    x2_max: float
    nx: int
    ny: int

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ValueError("grid resolution must be >= 2 per axis")
        if not (self.x1_min < self.x1_max and self.x2_min < self.x2_max):
            raise ValueError("grid bounds must be well ordered")
        for axis, lo, hi in (("x1", self.x1_min, self.x1_max), ("x2", self.x2_min, self.x2_max)):
            # An infinite bound or an overflowing span would make np.linspace warn.
            if not math.isfinite(hi - lo):
                raise ValueError(f"grid {axis} bounds must be finite and span a finite "
                                 f"range, got {lo!r} to {hi!r}")

    def points(self) -> np.ndarray:
        xs = np.linspace(self.x1_min, self.x1_max, self.nx)
        ys = np.linspace(self.x2_min, self.x2_max, self.ny)
        xx, yy = np.meshgrid(xs, ys)
        return np.column_stack([xx.ravel(), yy.ravel()])


def gen_two_ovals(n_per_class: int, seed: int) -> Dataset2D:
    """Two mirrored anisotropic Gaussian clusters plus a displaced OOD cluster."""
    rng = RngState(seed).derive("two_ovals")
    pts = []
    labels = []
    for cls, cx in enumerate((-OVAL_CENTER_X, OVAL_CENTER_X)):
        x = cx + OVAL_SD_LONG * rng.normal(n_per_class)
        y = OVAL_SD_FLAT * rng.normal(n_per_class)
        pts.append(np.column_stack([x, y]))
        labels.append(np.full(n_per_class, cls))
    return Dataset2D(points=np.vstack(pts), labels=np.concatenate(labels),
                     ood_points=_ood_cluster(rng, n_per_class))


def gen_two_moons(n_per_class: int, noise_sd: float, seed: int) -> Dataset2D:
    """Interleaved half-circle classes plus a displaced OOD cluster.

    Class 0 is the upper moon (cos t, sin t), class 1 the lower moon
    (1 - cos t, 0.5 - sin t), t evenly spaced on [0, pi], then Gaussian noise
    of scale ``noise_sd`` is added to both coordinates; a point that
    overflows raises ``ValueError``.
    """
    rng = RngState(seed).derive("two_moons")
    t = np.linspace(0.0, np.pi, n_per_class)
    upper = np.column_stack([np.cos(t), np.sin(t)])
    lower = np.column_stack([1.0 - np.cos(t), 0.5 - np.sin(t)])
    pts = np.vstack([upper, lower])
    if noise_sd > 0.0:
        with np.errstate(over="ignore"):  # named below, not warned about
            pts = pts + noise_sd * rng.normal(pts.size).reshape(pts.shape)
        if not np.isfinite(pts).all():
            raise ValueError(f"noise_sd = {noise_sd!r} makes a two-moons point overflow")
    labels = np.concatenate([np.zeros(n_per_class, dtype=int), np.ones(n_per_class, dtype=int)])
    return Dataset2D(points=pts, labels=labels, ood_points=_ood_cluster(rng, n_per_class))


def _ood_cluster(rng: RngState, n: int) -> np.ndarray:
    """The held-out cluster both benchmarks share, drawn after their classes."""
    return np.column_stack([OOD_CENTER[0] + OOD_SD * rng.normal(n),
                            OOD_CENTER[1] + OOD_SD * rng.normal(n)])


def gen_grid(bounds: tuple[float, float, float, float], resolution: tuple[int, int]) -> EvalGrid:
    """Grid over (x1_min, x1_max, x2_min, x2_max) at (nx, ny) points per axis."""
    x1_min, x1_max, x2_min, x2_max = bounds
    nx, ny = resolution
    return EvalGrid(x1_min=x1_min, x1_max=x1_max, x2_min=x2_min, x2_max=x2_max, nx=nx, ny=ny)


class CsvFormatError(ValueError):
    """Malformed CSV input; the message carries the offending line number."""


def _meta_lines(meta: dict | None) -> list[str]:
    if not meta:
        return []
    return [f"# {k}={v}" for k, v in meta.items()]


def _read_header(f, expected: str):
    """Skip leading comment lines, check the column header, and return the
    number of lines consumed."""
    lineno = 0
    while True:
        line = f.readline()
        lineno += 1
        if not line:
            raise CsvFormatError(f"line {lineno}: missing header {expected!r}")
        stripped = line.strip()
        if stripped.startswith("#") or not stripped:
            continue
        if stripped != expected:
            raise CsvFormatError(f"line {lineno}: expected header {expected!r}, got {stripped!r}")
        return lineno


def _write_csv(path: str, header: str, meta: dict | None,
               sections: list[tuple[str, list[np.ndarray]]]) -> None:
    """Write the ``meta`` comment lines, ``header``, then each section's rows:
    row i of a ``(row_format, columns)`` section is ``row_format`` applied to
    element i of each column.  Rows are formatted and written
    ``CSV_CHUNK_ROWS`` at a time, so no more than one chunk's text is held."""
    with open(path, "w", encoding="ascii", newline="\n") as f:
        f.writelines(line + "\n" for line in _meta_lines(meta) + [header])
        for row_format, columns in sections:
            for lo in range(0, len(columns[0]), CSV_CHUNK_ROWS):
                chunk = [c[lo:lo + CSV_CHUNK_ROWS].tolist() for c in columns]
                f.write(row_format * len(chunk[0]) % tuple(chain.from_iterable(zip(*chunk))))


def dataset_to_csv(ds: Dataset2D, path: str, meta: dict | None = None) -> None:
    sections = [("%.17g,%.17g,%d\n", [ds.points[:, 0], ds.points[:, 1], ds.labels])]
    if ds.ood_points is not None:
        sections.append(("%.17g,%.17g,-1\n", [ds.ood_points[:, 0], ds.ood_points[:, 1]]))
    _write_csv(path, "x1,x2,label", meta, sections)


def _csv_rows(path: str, header: str, third: type):
    """Yield ``(x1, x2, value)`` for each data row of a CSV with the given
    header, the third column parsed by ``third``; comment and blank lines are
    skipped, and a malformed row raises ``CsvFormatError`` naming its line."""
    with open(path, "r", encoding="ascii") as f:
        start = _read_header(f, header)
        for lineno, line in enumerate(f, start=start + 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise CsvFormatError(f"line {lineno}: expected 3 fields, got {len(parts)}")
            try:
                row = float(parts[0]), float(parts[1]), third(parts[2])
            except ValueError as exc:
                raise CsvFormatError(f"line {lineno}: {exc}") from exc
            yield row


def _label(text: str) -> int:
    """A dataset label: -1 for an OOD row, else a class id (an int64)."""
    label = int(text)
    if not -1 <= label < 2**63:
        raise ValueError(f"label {label} is neither -1 nor a class id")
    return label


def dataset_from_csv(path: str) -> Dataset2D:
    points, labels, ood = [], [], []
    for x1, x2, lab in _csv_rows(path, "x1,x2,label", _label):
        if lab == -1:
            ood.append((x1, x2))
        else:
            points.append((x1, x2))
            labels.append(lab)
    if not points:
        raise CsvFormatError("no labeled rows found")
    return Dataset2D(points=np.array(points, dtype=np.float64),
                     labels=np.array(labels, dtype=int),
                     ood_points=np.array(ood, dtype=np.float64) if ood else None)


def surface_to_csv(points: np.ndarray, values: np.ndarray, path: str,
                   meta: dict | None = None) -> None:
    if points.shape[0] != values.shape[0]:
        raise ValueError("points and values disagree on count")
    _write_csv(path, "x1,x2,value", meta,
               [("%.17g,%.17g,%.17g\n", [points[:, 0], points[:, 1], values])])


def surface_from_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    pts, vals = [], []
    for x1, x2, value in _csv_rows(path, "x1,x2,value", float):
        pts.append((x1, x2))
        vals.append(value)
    return np.array(pts, dtype=np.float64), np.array(vals, dtype=np.float64)


def surface_to_pgm(values: np.ndarray, grid: EvalGrid, path: str,
                   meta: dict | None = None) -> None:
    """Write a surface as an ASCII (P2) grayscale image, min->0, max->255."""
    img = np.asarray(values, dtype=np.float64).reshape(grid.ny, grid.nx)
    lo, hi = img.min(), img.max()
    if hi > lo:
        scaled = np.round((img - lo) / (hi - lo) * 255.0).astype(int)
    else:
        scaled = np.zeros_like(img, dtype=int)
    lines = ["P2"] + _meta_lines(meta) + [f"{grid.nx} {grid.ny}", "255"]
    for row in scaled:
        lines.append(" ".join(str(v) for v in row))
    with open(path, "w", encoding="ascii", newline="\n") as f:
        f.write("\n".join(lines) + "\n")
