"""Deterministic CSV, SVG, and error-table output.

CSV floats are the bytes of format(x, ".17g"), so values read back as the
same doubles and files are reproducible; SVG takes "%.9g". Table arrays of
_CROSSOVER cells or more go through one numpy kernel: y = |x| 10^(16-E) as an
unrounded double-double (Dekker 1971), E from log10 corrected on y, rounds to
the 17 digits of x where y is farther than _TIE_MARGIN from a half (it is
within 2**-46). Other cells, smaller tables, lists and SVG go per cell: a
%-format of a repeated row template per block of rows.
"""

import functools
from itertools import chain

import numpy as np

_BLOCK_CELLS = 2**15  # cells of one per-cell %-format: a few hundred kB of text
# Cells the kernel formats at a time: its temporaries, about 220 bytes a
# cell (0.9 MB), stay well below a per-cell block's (2 MB).
_KERNEL_CELLS = 2**12
# Smaller table arrays go per cell: the kernel repays its fixed cost from
# about 400 cells, but its first use pages in about 1 MB of numpy and tables.
_CROSSOVER = 1024

_K_LOW, _K_HIGH = -280, 300  # the powers 10^k in the table
_X_LOW, _X_HIGH = 1e-280, 1e290  # |x| whose 10^(16-E) is in the table and splits
_TIE_MARGIN = 2.0**-40


def format_float(x) -> str:
    return format(float(x), ".17g")


def _split(a):
    """Dekker's halves of a: head + tail == a, each of at most 26 bits."""
    head = a * 134217729.0  # 2**27 + 1
    head -= head - a
    return head, a - head


def _two_product(a, b, b_halves):
    """p = fl(a * b) and a * b - p, exactly."""
    p = a * b
    (a_head, a_tail), (b_head, b_tail) = _split(a), b_halves
    return p, ((a_head * b_head - p) + a_head * b_tail + a_tail * b_head) + a_tail * b_tail


@functools.cache
def _tables():
    """The kernel's tables, built on first use in about a millisecond. Column
    j is for 10^k, k = _K_LOW + j, and exponent E = 16 - k: powers holds hi,
    hi's halves and lo of 10^k ~ hi + lo (exact 10^r, r < 32, times correctly
    rounded 10^(k - r): within 2**-104); layout the masks of row words A and
    P, P's point, the masks of the integer digits in digit words 1-4 and their
    complements, two suffix words; before the digits before the point.
    groups: "%04d" % g as a word at g, trailing zeros as NULs at g + 10000."""
    def power(j):  # 10^j as hi + lo, both correctly rounded
        num, den = (10**j, 1) if j >= 0 else (1, 10**-j)
        hi = num / den  # int / int rounds correctly
        top, two = hi.as_integer_ratio()
        return hi, (num * two - top * den) / (den * two)

    k = np.arange(_K_LOW, _K_HIGH + 1)
    c_hi, c_lo = np.array([power(j) for j in range(_K_LOW, _K_HIGH + 1, 32)]).T[:, (k - _K_LOW) // 32]
    f_hi, f_lo = np.array([power(r) for r in range(32)]).T[:, (k - _K_LOW) % 32]
    p, lo = _two_product(c_hi, f_hi, _split(f_hi))
    lo += c_hi * f_lo + c_lo * f_hi
    hi = p + lo
    powers = np.array([hi, *_split(hi), lo - (hi - p)])
    d = np.arange(100)  # groups from pairs of digits
    pair = 48 + d // 10 | 48 + d % 10 << 8
    bare = (48 + d // 10 | (48 + d % 10) * (d % 10 > 0) << 8) * (d > 0)
    groups = [pair[:, None] | pair << 16, np.where(d > 0, pair[:, None] | bare << 16, bare[:, None])]
    e = 16 - k
    small, fixed = (-4 <= e) & (e < 0), (-4 <= e) & (e < 17)
    before = np.where(fixed, e + 1, 1) * ~small
    integer = (1 << 8 * np.clip(before - np.arange(1, 14, 4)[:, None], 0, 4)) - 1
    layout = [np.where(small, 0x00FFFF00, 0xFF000000),
              small * (0xFF000000 | (e <= -2) * 0xFF | (e <= -3) * 0xFF00 | (e <= -4) * 0xFF0000),
              ~small * ord("."), *integer, *(0xFFFFFFFF - integer),
              ~fixed * (ord("e") | np.where(e < 0, 45, 43) << 8 | pair[abs(e) // 10**(abs(e) >= 100)] << 16),
              (abs(e) >= 100) * (48 + abs(e) % 10)]
    return powers, np.array(groups).astype("<u4").ravel(), np.array(layout).astype("<u4"), before


def _scaled(a, col, powers):
    """y = a 10^k, k = _K_LOW + col, as the unrounded double-double p + lo, and
    +1 where y >= 1e17, -1 where y < 1e16 (p - bound is exact near a bound)."""
    hi, head, tail, lo = (row.take(col) for row in powers)
    p, err = _two_product(a, hi, (head, tail))
    lo = err + a * lo
    return p, lo, ((p - 1e17) + lo >= 0).astype(np.int8) - ((p - 1e16) + lo < 0)


def _format_cells(x, seps):
    """format(v, ".17g") and a separator for each double v of the 1-D array x, as
    bytes (seps, a row's separator words, repeats). A row: word A (sign, "0." or
    first digit), integer digits, P ("000" and first digit, or "."), fraction, suffix."""
    powers, groups, layout, before = _tables()
    a = np.abs(x)
    sure = (a >= _X_LOW) & (a < _X_HIGH)
    a[~sure] = 1.0
    col = 16 - _K_LOW - np.floor(np.log10(a)).astype(np.int64)  # of 10^(16-E)
    p, lo, shift = _scaled(a, col, powers)
    moved = np.flatnonzero(shift)
    if moved.size:  # log10 missed by one next to a power of ten
        col[moved] -= shift[moved]
        p[moved], lo[moved], shift = _scaled(a[moved], col[moved], powers)
        sure[moved] &= shift == 0
    whole = np.rint(lo)
    sure &= np.abs(lo - whole) < 0.5 - _TIE_MARGIN
    d = p.astype(np.int64) + whole.astype(np.int64)
    carry = d == 10**17  # rounded up to the next power of ten
    d[carry] = 10**16
    col -= carry
    mask = lambda j: layout[j].take(col)  # noqa: E731
    upper = (d // 10**8).astype(np.int32)  # digits 1-9, then 10-17 (% is slow)
    lower = (d - upper * np.int64(10**8)).astype(np.int32)
    first, high, low = upper // 10**8, upper // 10**4, lower // 10**4
    group = [high - first * 10**4, upper - high * 10**4, low, lower - low * 10**4]
    # fractional digit words: trailing zeros as NULs where all later groups are 0
    later = (lower == 0) & (group[1] == 0), lower == 0, group[3] == 0, 1
    frac = [groups.take(g + 10000 * z) for g, z in zip(group, later)]
    width = 1 + (int(before.take(col).max()) + 2) // 4  # A and the integer digit words
    integer = [groups.take(g) & mask(3 + k) for k, g in enumerate(group[:width - 1])]
    frac = [f & mask(7 + k) if k < width - 1 else f for k, f in enumerate(frac)]
    lead = (first + 48).astype("<u4") << 24
    point = mask(2) * ((frac[0] | frac[1] | frac[2] | frac[3]) != 0)
    rows = np.stack([(lead | 0x2E3000) & mask(0) | (x < 0) * np.uint32(ord("-")), *integer,
                     (lead | 0x303030) & mask(1) | point, *frac, mask(11),
                     (mask(12).reshape(-1, seps.size) | seps).ravel()], axis=1)
    unsure = np.flatnonzero(~sure)
    rows[unsure, :-1] = 0
    rows[unsure, 0] = ord("%") | ord("s") << 8  # filled in below
    rows[unsure, -1] &= 0xFF000000  # the separator
    text = rows.astype("<u4", copy=False).tobytes().translate(None, b"\0")
    return text % tuple(format(v, ".17g").encode() for v in x[unsure].tolist()) if unsure.size else text


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
        formats = ["%.17g"] * rows.shape[1]
    else:
        rows = [tuple(row) for row in rows]
        formats = ["%s" if isinstance(cell, str) else "%.17g" for cell in (rows[0] if rows else ())]
        if any(len(row) != len(formats) for row in rows):
            raise ValueError("rows must all have the same number of cells")
    width = len(formats)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        if isinstance(rows, np.ndarray) and rows.size >= _CROSSOVER and rows.dtype.kind in "biuf":
            seps = (np.array([ord(",")] * (width - 1) + [ord("\n")]) << 24).astype("<u4")
            step = max(1, _KERNEL_CELLS // width)
            fh.flush()  # the kernel's bytes go straight to the file's buffer
            for start in range(0, len(rows), step):
                fh.buffer.write(_format_cells(rows[start:start + step].astype(float).ravel(), seps))
        else:
            _write_rows(fh, ",".join(formats) + "\n", width, rows)


def write_points_csv(path, points):
    points = np.asarray(points, dtype=float)
    write_csv(path, ("x", "y", "z")[: points.shape[1]], points)


def write_history_csv(path, history):
    """Iteration index and error per line; the index is written as a float,
    which prints as the integer itself below 2**53."""
    history = np.asarray(history, dtype=float)
    write_csv(path, ("iteration", "error"), np.column_stack([np.arange(history.size), history]))


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
