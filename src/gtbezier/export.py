"""Deterministic CSV, SVG, and error-table output.

Tables are written in blocks of rows: one %-format of a repeated row
template per block, each block written as it is made. Floats are written
with 17 significant digits ("%.17g", the bytes of format(x, ".17g")), so a
written value reads back as the identical double and identical inputs
produce byte-identical files. SVG coordinates take 9 digits ("%.9g").
"""

from itertools import chain

import numpy as np

# Cells filled by one %-format: 1024 rows of a 32-column table, a block of
# text a few hundred kB long.
_BLOCK_CELLS = 2**15


def format_float(x) -> str:
    return format(float(x), ".17g")


def _write_rows(fh, row_format, width, rows):
    """Write rows, a 2-D array or a list of width-cell tuples, through the
    one-row %-template row_format, one %-format per block of rows."""
    step = max(1, _BLOCK_CELLS // max(1, width))
    for start in range(0, len(rows), step):
        block = rows[start:start + step]
        if isinstance(block, np.ndarray):
            cells = tuple(block.ravel().tolist())
        else:
            cells = tuple(chain.from_iterable(block))
        fh.write(row_format * len(block) % cells)


def write_csv(path, header, rows):
    """Write a CSV file: the header line, then one line per row.

    rows is a 2-D array or a sequence of rows of equal length. A column whose
    first cell is a string holds strings; every other cell is a number
    (int or float) and is written as a float.
    """
    if isinstance(rows, np.ndarray):
        if rows.ndim != 2:
            raise ValueError("a table array must be two-dimensional")
        width = rows.shape[1]
        formats = ["%.17g"] * width
    else:
        rows = [tuple(row) for row in rows]
        first = rows[0] if rows else ()
        width = len(first)
        if any(len(row) != width for row in rows):
            raise ValueError("rows must all have the same number of cells")
        formats = ["%s" if isinstance(cell, str) else "%.17g" for cell in first]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        _write_rows(fh, ",".join(formats) + "\n", width, rows)


def write_points_csv(path, points):
    points = np.asarray(points, dtype=float)
    write_csv(path, ("x", "y", "z")[: points.shape[1]], points)


def write_history_csv(path, history):
    """Iteration index and error per line; the index is written as a float,
    which prints as the integer itself below 2**53."""
    history = np.asarray(history, dtype=float)
    write_csv(path, ("iteration", "error"), np.column_stack([np.arange(history.size), history]))


def make_error_table(labels, histories, checkpoints) -> list:
    """Rows (label, e_1, ...): each run's errors at the given checkpoints
    (1-based iteration counts)."""
    return [(label, *(history[c - 1] for c in checkpoints))
            for label, history in zip(labels, histories)]


def format_error_table(rows, checkpoints) -> str:
    width = max(len(row[0]) for row in rows)
    lines = ["iterations".ljust(width) + "".join(f"{c:>12d}" for c in checkpoints)]
    for label, *errors in rows:
        lines.append(label.ljust(width) + "".join(f"{e:>12.3e}" for e in errors))
    return "\n".join(lines)


def write_svg(path, curves, markers=(), title=None):
    """Plot 2D polylines as an SVG document.

    curves: sequence of (label, points, style) where style is a dict with
    optional keys stroke and dasharray. The viewBox fits the joint
    bounding box plus a 5% margin; the y axis points up.
    """
    all_pts = [np.asarray(pts, dtype=float) for _, pts, _ in curves]
    all_pts += [np.asarray(m, dtype=float) for m in markers]
    stacked = np.vstack(all_pts)
    if stacked.shape[1] != 2:
        raise ValueError("SVG export supports 2D points only")
    lo = stacked.min(axis=0)
    hi = stacked.max(axis=0)
    span = np.maximum(hi - lo, 1e-30)
    lo = lo - 0.05 * span
    hi = hi + 0.05 * span
    width, height = hi - lo
    stroke_w = 0.004 * max(width, height)
    with open(path, "w", newline="") as fh:
        fh.write('<?xml version="1.0" encoding="UTF-8"?>\n'
                 '<svg xmlns="http://www.w3.org/2000/svg" viewBox="%.9g %.9g %.9g %.9g">\n'
                 % (lo[0], -hi[1], width, height))
        if title:
            fh.write(f"  <title>{title}</title>\n")
        for label, pts, style in curves:
            stroke = style.get("stroke", "black")
            dash = style.get("dasharray")
            dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
            xy = np.asarray(pts, dtype=float) * (1.0, -1.0)
            fh.write('  <path d="')
            _write_rows(fh, "M %.9g %.9g", 2, xy[:1])
            _write_rows(fh, " L %.9g %.9g", 2, xy[1:])
            fh.write(f'" fill="none" stroke="{stroke}" stroke-width="{stroke_w:.9g}"'
                     f"{dash_attr}><title>{label}</title></path>\n")
        marker_format = '  <circle cx="%%.9g" cy="%%.9g" r="%.9g" fill="black"/>\n' % (1.8 * stroke_w)
        for mset in markers:
            _write_rows(fh, marker_format, 2, np.asarray(mset, dtype=float) * (1.0, -1.0))
        fh.write("</svg>\n")
