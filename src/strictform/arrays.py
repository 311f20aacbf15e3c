"""Core data model: alphabet sizes, the canonical amalgamation, windows,
rectangles.

Binary lifting builds every array, so its rows form the one chain that
``canonical_sizes`` and ``amalgamate`` state; a window holds its row sizes.
A window is a finite K-rows-by-N-columns slab of a two-sided array.  Columns
carry absolute indices (``origin`` is the index of the first column), so the
horizontal shift is pure coordinate bookkeeping and never mutates cells.
"""

from __future__ import annotations

from operator import add, sub
from pathlib import Path
from typing import Iterable, Sequence

from ._value import Value, _set

INVERSE_LIMIT = "inverse_limit"
INDEPENDENT = "independent"

_MAX_CANONICAL_ROWS = 20

# a 0/1 word as ASCII to its row-1 cells (1 + bit), and to 1 - bit
_ROW_ONE = bytes.maketrans(b"01", b"\1\2")
_COMPLEMENT = bytes.maketrans(b"01", b"\1\0")


def canonical_sizes(rows: int) -> tuple[int, ...]:
    """Alphabet sizes 2, 4, ..., 2^rows of the canonical chain."""
    if not 1 <= rows <= _MAX_CANONICAL_ROWS:
        raise ValueError(f"rows must be in [1, {_MAX_CANONICAL_ROWS}]")
    return tuple(2**k for k in range(1, rows + 1))


def amalgamate(m: int) -> int:
    """The canonical map from row k+1 onto row k: symbol m to ceil(m/2)."""
    return (m + 1) // 2


def _check_sizes(sizes: tuple[int, ...], mode: str) -> None:
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError("alphabet sizes must be positive")
    # an inverse-limit window is judged by the canonical map, which fixes
    # its sizes; an independent window is judged by its sizes only
    if mode == INVERSE_LIMIT and tuple(sizes) != canonical_sizes(len(sizes)):
        canonical = " ".join(map(str, canonical_sizes(len(sizes))))
        raise ValueError(
            f"inverse_limit mode needs the canonical alphabet sizes "
            f"{canonical}, got {' '.join(map(str, sizes))}"
        )


class ArrayWindow(Value):
    """K x N slab of an array; cells[k-1][j] is the symbol at (k, origin+j)."""

    __slots__ = ("sizes", "origin", "cells", "mode")

    def __init__(self, sizes, origin, cells, mode=INVERSE_LIMIT):
        _set(self, "sizes", sizes)
        _set(self, "origin", origin)
        _set(self, "cells", cells)
        _set(self, "mode", mode)
        if mode not in (INVERSE_LIMIT, INDEPENDENT):
            raise ValueError(f"unknown mode {mode!r}")
        _check_sizes(sizes, mode)
        if len(cells) != len(sizes):
            raise ValueError("cell grid does not match the alphabet sizes")
        widths = {len(row) for row in cells}
        if len(widths) != 1 or widths == {0}:
            raise ValueError("rows must share a positive width")

    @property
    def rows(self) -> int:
        return len(self.cells)

    @property
    def columns(self) -> int:
        return len(self.cells[0])

    def column(self, n: int) -> tuple[int, ...]:
        """Cells of the absolute column n, rows 1..K."""
        j = n - self.origin
        if not 0 <= j < self.columns:
            raise IndexError(f"column {n} outside the window")
        return tuple(row[j] for row in self.cells)


def validate_window(w: ArrayWindow) -> bool:
    """True iff every cell is in its alphabet and, in inverse-limit mode,
    every symbol amalgamates to the one above it."""
    for row, size in zip(w.cells, w.sizes):
        if any(not 1 <= v <= size for v in row):
            return False
    if w.mode == INDEPENDENT:
        return True
    return all(
        tuple(map(amalgamate, upper)) == tuple(lower)
        for lower, upper in zip(w.cells, w.cells[1:])
    )


def shift(w: ArrayWindow, t: int) -> ArrayWindow:
    """Horizontal left shift by t: the origin decreases, cells do not move."""
    return ArrayWindow(w.sizes, w.origin - t, w.cells, w.mode)


class Rectangle(Value):
    """A k x w block of symbols.  Identity is cellwise; horizontal position
    is not part of a rectangle."""

    __slots__ = ("cells",)

    def __init__(self, cells):
        _set(self, "cells", cells)
        if not cells or not cells[0]:
            raise ValueError("rectangle must be nonempty")
        w = len(cells[0])
        if any(len(r) != w for r in cells):
            raise ValueError("ragged rectangle")

    @property
    def rows(self) -> int:
        return len(self.cells)

    @property
    def width(self) -> int:
        return len(self.cells[0])

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "Rectangle":
        return cls(tuple(tuple(r) for r in rows))

    # no caller in the package: perfbench/tracer.py keys classify calls by it
    def without_marks(self) -> "Rectangle":
        return self

    def sub(self, rows: int, col: int, width: int) -> "Rectangle":
        """Sub-rectangle over rows 1..rows and relative columns [col, col+width)."""
        if not 1 <= rows <= self.rows or not 0 <= col <= self.width - width:
            raise ValueError("sub-rectangle out of range")
        return Rectangle(tuple(r[col : col + width] for r in self.cells[:rows]))


def extract_rectangle(w: ArrayWindow, k: int, first: int, last: int) -> Rectangle:
    """Rectangle over rows 1..k and absolute columns [first, last]."""
    if not 1 <= k <= w.rows:
        raise ValueError(f"row range [1,{k}] outside the window")
    lo, hi = w.origin, w.origin + w.columns - 1
    if first > last or first < lo or last > hi:
        raise ValueError(f"columns [{first},{last}] outside [{lo},{hi}]")
    a, b = first - w.origin, last - w.origin + 1
    return Rectangle(tuple(row[a:b] for row in w.cells[:k]))


def lift_binary(word: str, rows: int) -> ArrayWindow:
    """Embed a 0/1 word into the canonical chain: cell (k, n) is one plus the
    value of the binary block word[n .. n+k-1].  The result is always valid in
    inverse-limit mode."""
    data = word.encode()
    if data.translate(None, b"01"):
        raise ValueError("word must be over {0,1}")
    if len(data) < rows:
        raise ValueError("word shorter than the row count")
    n = len(data) - rows + 1
    sizes = canonical_sizes(rows)
    # the block of cell (k, j) is that of cell (k-1, j) with bit j+k-1
    # appended, so the cell is twice the one above it, minus 1, plus that
    # bit: 2v - 1 + b = 2v - (1 - b), with 1 - b read from the complement
    row = tuple(data[:n].translate(_ROW_ONE))
    cells = [row]
    flips = memoryview(data.translate(_COMPLEMENT))
    for k in range(2, rows + 1):
        row = tuple(map(sub, map(add, row, row), flips[k - 1 :]))
        cells.append(row)
    return ArrayWindow(sizes, 0, tuple(cells), INVERSE_LIMIT)


def window_to_rectangle(w: ArrayWindow) -> Rectangle:
    """Full-window extraction: the rectangle shares the window's cells."""
    return Rectangle(w.cells)


def replace_cells(
    w: ArrayWindow, k: int, placements: Iterable[tuple[int, Rectangle]]
) -> ArrayWindow:
    """Write each ``(first, block)`` placement over rows 1..k, the block from
    absolute column ``first`` on; the output is in independent mode."""
    cells = [list(row) for row in w.cells]
    for first, block in placements:
        a = first - w.origin
        if a < 0 or a + block.width > w.columns or block.rows != k:
            raise ValueError("replacement block out of range")
        for i in range(k):
            cells[i][a : a + block.width] = block.cells[i]
    return ArrayWindow(
        w.sizes, w.origin, tuple(tuple(r) for r in cells), INDEPENDENT
    )


# --- .arr text format -------------------------------------------------------
#
# line 1: K N origin mode
# line 2: K alphabet sizes
# then K lines of N tokens; a token is a decimal symbol, optionally suffixed
# with "|" meaning "marker after this cell".


def write_arr(path: str | Path, w: ArrayWindow, markers=None) -> None:
    lines = [
        f"{w.rows} {w.columns} {w.origin} {w.mode}",
        " ".join(str(s) for s in w.sizes),
    ]
    for k, row in enumerate(w.cells, start=1):
        flags = bytes(w.columns)
        if markers is not None and k <= markers.row_count:
            flags = markers.flags(k, w.origin, w.columns)
        toks = [f"{v}|" if flag else str(v) for v, flag in zip(row, flags)]
        lines.append(" ".join(toks))
    Path(path).write_text("\n".join(lines) + "\n")


def read_arr(path: str | Path):
    """Returns (window, marker positions per row or None).  Blank lines are
    skipped.  A malformed line, or any line after the K rows, raises
    ValueError naming the file and line."""
    lines = [
        (n, line.split())
        for n, line in enumerate(Path(path).read_text().splitlines(), 1)
        if line.strip()
    ]
    n = lines[0][0] if lines else 1
    try:
        if len(lines) < 3:
            raise ValueError("truncated .arr file")
        k, cols, origin, mode = lines[0][1]
        rows, cols, origin = int(k), int(cols), int(origin)
        if mode not in (INVERSE_LIMIT, INDEPENDENT):
            raise ValueError(f"unknown mode {mode!r}")
        if rows < 1:
            raise ValueError(f"header claims {rows} rows, need at least 1")
        if len(lines) < 2 + rows:
            raise ValueError(f"header claims {rows} rows, found {len(lines) - 2}")
        if len(lines) > 2 + rows:
            n, toks = lines[2 + rows]
            raise ValueError(f"a line after row {rows}: {' '.join(toks)!r}")
        n, toks = lines[1]
        sizes = tuple(int(s) for s in toks)
        if len(sizes) != rows:
            raise ValueError("alphabet line does not match row count")
        _check_sizes(sizes, mode)
        cells, positions = [], []
        for k_idx, (n, toks) in enumerate(lines[2 : 2 + rows], start=1):
            if len(toks) != cols:
                raise ValueError(f"row {k_idx} has {len(toks)} tokens")
            row, cuts = [], []
            for j, tok in enumerate(toks):
                if tok.endswith("|"):
                    cuts.append(origin + j)
                    tok = tok[:-1]
                row.append(int(tok))
            cells.append(tuple(row))
            positions.append(tuple(cuts))
    except ValueError as exc:
        raise ValueError(f"{path}: line {n}: {exc}") from None
    window = ArrayWindow(sizes, origin, tuple(cells), mode)
    if any(positions):
        # imported here: a file without marker flags needs no markers module
        from .markers import MarkerSystem

        gaps = tuple(
            (min(b - a for a, b in zip(ps, ps[1:])) if len(ps) > 1 else 1)
            for ps in positions
        )
        markers = MarkerSystem.from_positions(
            positions, gaps, origin, origin + cols - 1
        )
        return window, markers
    return window, None

