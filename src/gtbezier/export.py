"""Deterministic CSV, SVG, and error-table output.

CSV floats are the bytes of format(x, ".17g"), so values read back as the
same doubles and files are reproducible; SVG takes "%.9g". Table arrays, or
blocks of a table written block by block, of _CROSSOVER cells or more go
through one numpy kernel, whole rows a pass: y = |x| 10^(16-E) as an
unrounded double-double (Dekker 1971), E from log10 corrected on y, rounds to
the 17 digits of x where y is farther than _TIE_MARGIN from a half (it is
within 2**-46). Other cells, smaller tables, lists and SVG go per cell: a
%-format of a repeated row template per block of rows.
"""

import functools
from collections.abc import Iterator
from itertools import chain

import numpy as np

_BLOCK_CELLS = 2**15  # cells of one per-cell %-format: a few hundred kB of text
# Cells the kernel formats at a time, whole rows. A pass holds about 140 bytes
# a cell (1.1 MB traced), within a per-cell block's 2 MB: a work array of 9
# doubles a cell, which a table's passes share, and the pass's text. On the
# 10001-row circle and helix tables, passes of 2**12, 2**14 and 2**15 cells
# took 1.16, 1.11 and 1.16 times as long.
_KERNEL_CELLS = 2**13
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


@functools.cache
def _tables():
    """The kernel's tables, built on first use in about 3 ms. Column
    j is for 10^k, k = _K_LOW + j, and exponent E = 16 - k: powers holds hi,
    hi's halves and lo of 10^k ~ hi + lo (both correctly rounded: within
    2**-106); layouts[w - 1], for a pass of w words A and integer digits, a
    row of each cell's word masks in row order (A, integer digits, P, four
    fraction words, two suffix words); points P's point; before the digits
    before the point. groups: "%04d" % g as a word at g, trailing zeros as
    NULs at g + 10000."""
    def power(j):  # 10^j as hi + lo, both correctly rounded
        num, den = (10**j, 1) if j >= 0 else (1, 10**-j)
        hi = num / den  # int / int rounds correctly
        top, two = hi.as_integer_ratio()
        return hi, (num * two - top * den) / (den * two)

    k = np.arange(_K_LOW, _K_HIGH + 1)
    hi, lo = np.array([power(j) for j in k.tolist()]).T
    powers = np.array([hi, *_split(hi), lo])
    d = np.arange(100)  # groups from pairs of digits
    pair = 48 + d // 10 | 48 + d % 10 << 8
    bare = (48 + d // 10 | (48 + d % 10) * (d % 10 > 0) << 8) * (d > 0)
    groups = [pair[:, None] | pair << 16, np.where(d > 0, pair[:, None] | bare << 16, bare[:, None])]
    e = 16 - k
    small, fixed = (-4 <= e) & (e < 0), (-4 <= e) & (e < 17)
    before = (np.where(fixed, e + 1, 1) * ~small).astype(np.int8)
    integer = (1 << 8 * np.clip(before - np.arange(1, 14, 4)[:, None], 0, 4)) - 1
    ones = np.full_like(e, 0xFFFFFFFF)  # the fraction words past the integer digits
    masks = np.array([np.where(small, 0x00FFFFFF, 0xFF0000FF),  # byte 0 the sign
                      small * (0xFF000000 | (e <= -2) * 0xFF | (e <= -3) * 0xFF00 | (e <= -4) * 0xFF0000),
                      *integer, *(0xFFFFFFFF - integer), ones, ones, ones, ones,
                      ~fixed * (ord("e") | np.where(e < 0, 45, 43) << 8
                                | pair[abs(e) // 10**(abs(e) >= 100)] << 16),
                      (abs(e) >= 100) * (48 + abs(e) % 10)]).astype("<u4").T
    layouts = [np.ascontiguousarray(masks[:, [0, *range(2, 1 + w), 1, *range(6, 5 + w),
                                              *range(10, 15 - w), 14, 15]]) for w in range(1, 6)]
    points = (~small * ord(".")).astype("<u4")
    return powers, np.array(groups).astype("<u4").ravel(), layouts, points, before


def _scaled(a, col, work):
    """y = a 10^k, k = _K_LOW + col, as the unrounded double-double p + lo in
    work[0] and work[1] (work[2:6] is scratch), by Dekker's product of a and
    10^k's hi; the indices where y >= 1e17 or y < 1e16, and there +1 or -1.
    p is within a few ulps of y, and p - bound is exact near a bound."""
    hi, hi_head, hi_tail, lo_k = _tables()[0]
    p, lo, head, tail, t, u = work[:6]

    def take(row, out):
        return row.take(col, out=out, mode="clip")  # clip: no buffered copy

    np.multiply(a, take(hi, t), out=p)
    np.multiply(a, 134217729.0, out=head)  # a's halves, as _split takes them
    np.subtract(head, a, out=tail)
    head -= tail
    np.subtract(a, head, out=tail)
    # Dekker's a hi - p, exact, then a lo_k:
    # lo = ((head hi_head - p) + head hi_tail + tail hi_head) + tail hi_tail + a lo_k
    np.multiply(head, take(hi_head, t), out=lo)
    lo -= p
    head *= take(hi_tail, u)
    lo += head
    t *= tail
    lo += t
    u *= tail
    lo += u
    take(lo_k, t)
    t *= a
    lo += t
    near = np.flatnonzero((p < 1.0000001e16) | (p >= 0.9999999e17))
    p_near, lo_near = p[near], lo[near]
    shift = ((p_near - 1e17) + lo_near >= 0).astype(np.intp) - ((p_near - 1e16) + lo_near < 0)
    return p, lo, near[shift != 0], shift[shift != 0]


def _digits(x, work):
    """(d, col, sure) for the doubles x: d the 17 digits of |x| rounded, an
    integer in [1e16, 1e17), col the column of 10^(16-E), E the exponent of d's
    first digit, and sure where the rounding is certified. d and col are
    work[8] and work[7] as integers; the other rows are scratch."""
    a, col, d = work[6], work[7].view(np.intp), work[8].view(np.int64)
    np.abs(x, out=a)
    sure = (a >= _X_LOW) & (a < _X_HIGH)
    a[~sure] = 3.0
    e = np.log10(a, out=work[0])
    np.floor(e, out=e)
    np.subtract(16 - _K_LOW, e, out=e)
    col[...] = e
    p, lo, moved, shift = _scaled(a, col, work)
    if moved.size:  # log10 missed by one next to a power of ten
        col[moved] -= shift
        p[moved], lo[moved], again, _ = _scaled(a[moved], col[moved], np.empty((6, moved.size)))
        sure[moved[again]] = False
    whole = np.rint(lo, out=work[2])
    lo -= whole
    sure &= np.abs(lo, out=lo) < 0.5 - _TIE_MARGIN
    d[...] = p
    whole_digits = work[3].view(np.int64)
    whole_digits[...] = whole
    d += whole_digits
    carry = d == 10**17  # rounded up to the next power of ten
    d[carry] = 10**16
    col -= carry
    return d, col, sure


def _words(x, seps, work):
    """The words of format(v, ".17g") and a separator for each double v of x,
    a row of words per cell in work[:6] (seps, a table row's separator words,
    repeats), and the indices of the cells left as "%s". A row: word A (sign,
    "0." or first digit), integer digits, P ("000" and first digit, or "."),
    fraction, suffix. NULs pad the words."""
    _, groups, layouts, points, before = _tables()
    d, col, sure = _digits(x, work)
    index = work[6].view(np.intp)  # group indices into groups
    np.floor_divide(d, 10**8, out=index)
    upper = index.astype(np.int32)  # digits 1-9, then 10-17 (% is slow)
    index *= 10**8
    d -= index
    lower = d.astype(np.int32)
    first, high, low = upper // 10**8, upper // 10**4, lower // 10**4
    upper -= high * 10**4
    high -= first * 10**4
    lower -= low * 10**4
    group = high, upper, low, lower  # digits 2-17 in fours
    width = 1 + (int(before.take(col).max()) + 2) // 4  # A and the integer digit words
    rows = work[:6].reshape(-1).view("<u4")[:x.size * (width + 7)].reshape(x.size, width + 7)
    layouts[width - 1].take(col, axis=0, out=rows, mode="clip")  # each word's mask
    lead = first.astype("<u4")
    lead += 48
    lead <<= 24
    rows[:, 0] &= lead | 0x2E3000 | (x < 0) * np.uint32(ord("-"))
    for k in range(width - 1):
        index[...] = group[k]
        rows[:, 1 + k] &= groups.take(index)
    # fractional digit words: trailing zeros as NULs where all later groups are 0
    last = lower == 0
    later = last & (low == 0) & (upper == 0), last & (low == 0), last, True
    frac = rows[:, width + 1:width + 5]
    for k, (g, z) in enumerate(zip(group, later)):
        np.multiply(z, 10000, out=index)
        index += g
        frac[:, k] &= groups.take(index)
    rows[:, width] &= lead | 0x303030
    rows[:, width] |= points.take(col) * ((frac[:, 0] | frac[:, 1] | frac[:, 2] | frac[:, 3]) != 0)
    rows.reshape(-1, seps.size, width + 7)[:, :, -1] |= seps
    unsure = np.flatnonzero(~sure)
    rows[unsure, :-1] = 0
    rows[unsure, 0] = ord("%") | ord("s") << 8  # filled in below
    rows[unsure, -1] &= 0xFF000000  # the separator
    return rows, unsure


def _format_cells(x, seps, work=None):
    """format(v, ".17g") and a separator for each double v of the 1-D array
    x, as bytes: the words of _words without their NULs. work, a float
    array of at least 9 x.size values, holds the pass's large arrays."""
    work = (np.empty(9 * x.size) if work is None else work[:9 * x.size]).reshape(9, x.size)
    rows, unsure = _words(x, seps, work)
    text = rows.tobytes().translate(None, b"\0")
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


def _write_blocks(fh, blocks):
    """Write each 2-D array of blocks as lines of %.17g cells: a numeric one of
    _CROSSOVER cells or more through the kernel, _KERNEL_CELLS // width whole
    rows a pass, any other per cell.

    The passes share one work array. Passes that allocated their arrays anew
    made glibc hand the heap back after every pass and fault it in again:
    7200 page faults for basis-eval's 10001-row circle and helix tables,
    against 240 with the shared array."""
    work = None
    for block in blocks:
        if block.ndim != 2:
            raise ValueError("a table array must be two-dimensional")
        width = block.shape[1]
        if block.size < _CROSSOVER or block.dtype.kind not in "biuf":
            _write_rows(fh, ",".join(["%.17g"] * width) + "\n", width, block)
            continue
        seps = (np.array([ord(",")] * (width - 1) + [ord("\n")]) << 24).astype("<u4")
        step = max(1, _KERNEL_CELLS // width)
        if work is None or work.size < 9 * step * width:
            work = np.empty(9 * step * width)
        fh.flush()  # the kernel's bytes go straight to the file's buffer
        for start in range(0, len(block), step):
            cells = block[start:start + step].astype(float, copy=False).ravel()
            fh.buffer.write(_format_cells(cells, seps, work))


def write_csv(path, header, rows):
    """Write a CSV file: the header line, then one line per row.

    rows is a 2-D array, an iterator of 2-D arrays (blocks of rows, each
    written before the next is drawn, so a caller may refill one buffer), or
    a sequence of rows of equal length. A column whose first cell is a string
    holds strings; every other cell is a number (int or float) and is written
    as a float.
    """
    if isinstance(rows, np.ndarray):
        blocks = [rows]
    elif isinstance(rows, Iterator):
        blocks = rows
    else:
        blocks = None
        rows = [tuple(row) for row in rows]
        formats = ["%s" if isinstance(cell, str) else "%.17g" for cell in (rows[0] if rows else ())]
        if any(len(row) != len(formats) for row in rows):
            raise ValueError("rows must all have the same number of cells")
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        if blocks is None:
            _write_rows(fh, ",".join(formats) + "\n", len(formats), rows)
        else:
            _write_blocks(fh, blocks)


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
