"""Stitching machinery over a base subshift: base rectangles, transition
lengths, tabbed rectangle pairs, embeddings of periodic and markered models,
and language-level convergence checks.

The base oracle must be binary.  Rectangles interface with it through their
generating 0/1 word: a k-row rectangle of width w is in the lifted language
iff it is the lift of a language word of length w + k - 1.
"""

from __future__ import annotations

from bisect import bisect_right
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .arrays import (
    INVERSE_LIMIT,
    ArrayWindow,
    Rectangle,
    amalgamate,
    extract_rectangle,
    lift_binary,
    replace_cells,
    window_to_rectangle,
)
from .generators import LanguageOracle

if TYPE_CHECKING:
    from .markers import MarkerSystem


class NotFoundWithinHorizon(ValueError):
    """No transition length is certified at this horizon."""


class NoWitness(ValueError):
    """No language word realizes the requested gap."""

    def __init__(self, l: int):
        super().__init__(f"no witness word for gap {l}")
        self.l = l


# --- binary-word bridge ------------------------------------------------------


def rectangle_to_binary_word(rect: Rectangle) -> str | None:
    """The 0/1 word whose lift is this rectangle, or None when the cells are
    not lift-consistent."""
    w, rows = rect.width, rect.rows
    bits = [rect.cells[0][j] - 1 for j in range(w)]
    if any(b not in (0, 1) for b in bits):
        return None
    for i in range(1, rows):
        bits.append((rect.cells[i][w - 1] - 1) & 1)
    word = "".join(str(b) for b in bits)
    lifted = lift_binary(word, rows)
    if lifted.cells != rect.cells:
        return None
    return word


def _bit_alphabet(oracle: LanguageOracle) -> tuple[str, str]:
    if len(oracle.alphabet) != 2:
        raise ValueError("assembly requires a binary base oracle")
    lo, hi = sorted(oracle.alphabet)
    return lo, hi


def _to_oracle_word(oracle: LanguageOracle, bits: str) -> str:
    lo, hi = _bit_alphabet(oracle)
    return bits.translate(str.maketrans("01", lo + hi))


def _to_bits(oracle: LanguageOracle, word: str) -> str:
    lo, hi = _bit_alphabet(oracle)
    return word.translate(str.maketrans(lo + hi, "01"))


def lifted_contains(oracle: LanguageOracle, rect: Rectangle) -> bool:
    """Membership of a rectangle in the lifted language of the base oracle."""
    bits = rectangle_to_binary_word(rect)
    if bits is None:
        return False
    return oracle.contains(_to_oracle_word(oracle, bits))


# --- transition lengths and kits --------------------------------------------


def _overlaps(bits: str, l: int) -> bool:
    """Whether one word can hold ``bits`` at offsets 0 and l >= 1."""
    return l >= len(bits) or bits[l:] == bits[: len(bits) - l]


def transition_length(
    x0: LanguageOracle, B: Rectangle, horizon: int
) -> int:
    """Smallest l0 such that for every l in [l0, horizon] some language word
    contains B both at offset 0 and at offset l.  The certificate is bounded
    by the horizon; tail behaviour beyond it is not claimed."""
    bits = rectangle_to_binary_word(B)
    if bits is None or not x0.contains(_to_oracle_word(x0, bits)):
        raise ValueError("base rectangle not in the language")
    if x0.text is None:
        def witnessed(l: int) -> bool:
            return _overlaps(bits, l)
    else:
        # bit i of the mask is set iff B occurs at offset i of the text
        hits = bytearray(b"0") * len(x0.text)
        for i in x0.occurrences(_to_oracle_word(x0, bits)):
            hits[i] = ord("1")
        mask = int(hits[::-1], 2)

        def witnessed(l: int) -> bool:
            return mask & (mask >> l) != 0
    l0 = horizon + 1
    while l0 > 1 and witnessed(l0 - 1):
        l0 -= 1
    if l0 > horizon:
        raise NotFoundWithinHorizon(
            f"no transition length certified up to horizon {horizon}"
        )
    return l0


class StitchKit:
    """Base rectangles per level, their transition lengths, and the derived
    per-length tabbed pairs, all certified up to one horizon."""

    __slots__ = ("x0", "horizon", "bases", "tabbed")

    def __init__(self, x0, horizon, bases, tabbed=None):
        self.x0: LanguageOracle = x0
        self.horizon: int = horizon
        # (B^(k), l(B^(k))) for k = 1..K
        self.bases: list[tuple[Rectangle, int]] = bases
        self.tabbed: dict[int, tuple[Rectangle, Rectangle]] = (
            {} if tabbed is None else tabbed
        )

    @property
    def level_count(self) -> int:
        return len(self.bases)

    @property
    def l_sequence(self) -> list[int]:
        """l_k = k + max transition length among levels up to k."""
        out, best = [], 0
        for k, (_, lb) in enumerate(self.bases, start=1):
            best = max(best, lb)
            out.append(k + best)
        return out

    def level_for(self, l: int) -> int:
        """The level k with l_k <= l < l_{k+1} (the last level is unbounded)."""
        ls = self.l_sequence
        if l < ls[0]:
            raise ValueError(f"gap {l} below the smallest level length {ls[0]}")
        # each level adds at least 1, so the l_k strictly increase and k is
        # the number of them at most l
        return bisect_right(ls, l)


def _min_language_word(x0: LanguageOracle, n: int) -> str:
    if n > x0.horizon:
        raise NotFoundWithinHorizon(f"length {n} beyond oracle horizon")
    try:
        word = next(iter(x0.words(n)))
    except StopIteration:
        raise NotFoundWithinHorizon(f"language empty at length {n}") from None
    return word


def build_stitch_kit(
    x0: LanguageOracle, k_max: int, horizon: int
) -> StitchKit:
    """Per level k: the lexicographically smallest k x 2k rectangle of the
    lifted language and its transition length."""
    if k_max < 1:
        raise ValueError("need at least one level")
    bases = []
    for k in range(1, k_max + 1):
        word = _to_bits(x0, _min_language_word(x0, 3 * k - 1))
        B = window_to_rectangle(lift_binary(word, k))
        bases.append((B, transition_length(x0, B, horizon)))
    return StitchKit(x0, horizon, bases)


def _witness(x0: LanguageOracle, bits: str, l: int) -> str:
    """Lexicographically smallest language word (as bits) containing the base
    word at offsets 0 and l."""
    n = len(bits)
    if x0.text is None:
        if not _overlaps(bits, l):
            raise NoWitness(l)
        return bits[:l] + "0" * (l - n) + bits
    if l + n > x0.horizon:
        raise NoWitness(l)
    u = _to_oracle_word(x0, bits)
    for word in x0.words(l + n):
        if word.startswith(u) and word.endswith(u):
            return _to_bits(x0, word)
    raise NoWitness(l)


def tabbed_rectangles(
    kit: StitchKit, l: int
) -> tuple[Rectangle, Rectangle]:
    """The pair (R_l, R-bar_l) of widths l and l+1: central cuts of witnesses
    realizing the base rectangle of the level of l at gaps l and l+1.  Both
    start with the right half of the base rectangle and end with its left
    half."""
    if l in kit.tabbed:
        return kit.tabbed[l]
    k = kit.level_for(l)
    B, _ = kit.bases[k - 1]
    bits = rectangle_to_binary_word(B)
    pair = []
    for gap in (l, l + 1):
        witness = _witness(kit.x0, bits, gap)
        window = lift_binary(witness, k)
        pair.append(
            extract_rectangle(window, k, k, gap + k - 1)
        )
    kit.tabbed[l] = (pair[0], pair[1])
    return kit.tabbed[l]


def check_stitchable(
    kit: StitchKit, l: int
) -> tuple[bool, list[Rectangle]]:
    """Every k_l x k_l sub-rectangle of the four concatenations of the tabbed
    pair must lie in the lifted language.  Returns the verdict and the
    offending sub-rectangles."""
    R, Rbar = tabbed_rectangles(kit, l)
    k = R.rows
    # the distinct offending sub-rectangles, in the order first found
    bad: dict[Rectangle, None] = {}
    for left in (R, Rbar):
        for right in (R, Rbar):
            cells = tuple(
                a + b for a, b in zip(left.cells, right.cells)
            )
            glued = Rectangle.from_rows(cells)
            for i in range(glued.width - k + 1):
                sub = glued.sub(k, i, k)
                if not lifted_contains(kit.x0, sub):
                    bad[sub] = None
    return not bad, list(bad)


# --- embeddings --------------------------------------------------------------


def _replace_gaps(
    w: ArrayWindow, cuts: Sequence[int], l: int, kit: StitchKit
) -> ArrayWindow:
    """Overwrite rows 1..k_l of each gap between consecutive cuts with the
    tabbed rectangle of its width, l or l+1."""
    k = kit.level_for(l)
    if k >= w.rows:
        raise ValueError("model window needs rows above the embedding level")
    blocks = {r.width: r for r in tabbed_rectangles(kit, l)}
    placements = []
    for a, b in zip(cuts, cuts[1:]):
        if b - a not in blocks:
            raise NoWitness(b - a)
        placements.append((a + 1, blocks[b - a]))
    return replace_cells(w, k, placements)


def embed_periodic(
    w: ArrayWindow, cuts: Sequence[int], p: int, kit: StitchKit
) -> ArrayWindow:
    """Replace rows 1..k_p of every complete p-gap between consecutive cuts
    with the tabbed rectangle R_p.  Rows above k_p are untouched; the output
    is in independent mode."""
    if any(b - a != p for a, b in zip(cuts, cuts[1:])):
        raise ValueError("cut positions are not p-periodic")
    return _replace_gaps(w, cuts, p, kit)


def embed_aperiodic(
    w: ArrayWindow, ms: MarkerSystem, row: int, kit: StitchKit
) -> ArrayWindow:
    """As embed_periodic over a two-gap marker row: each gap is replaced by
    the tabbed rectangle of matching width (R for l, R-bar for l+1)."""
    cuts = ms.cuts(row, w.origin, w.columns)
    return _replace_gaps(w, cuts, ms.gaps[row - 1], kit)


def convergence_check(
    systems: Sequence[tuple[str, ArrayWindow, int, int]],
    x0: LanguageOracle,
    size: int,
) -> dict:
    """For each (name, window, first, last): every size x size rectangle of
    the window's first ``size`` rows, within the column span [first, last],
    must appear in the lifted language of x0.  Lists every violation."""
    report: dict = {"size": size, "systems": [], "ok": True}
    for name, w, first, last in systems:
        if w.rows < size:
            raise ValueError(f"{name}: window has fewer than {size} rows")
        violations = []
        for col in range(first, last - size + 2):
            rect = extract_rectangle(w, size, col, col + size - 1)
            if not lifted_contains(x0, rect):
                violations.append(
                    {"column": col, "cells": rect.cells}
                )
        report["systems"].append(
            {
                "name": name,
                "span": [first, last],
                "checked": max(0, last - size + 2 - first),
                "violations": violations,
            }
        )
        if violations:
            report["ok"] = False
    return report


def reconstruct(w: ArrayWindow, k: int) -> ArrayWindow:
    """Recompute rows 1..k from row k+1 by repeated amalgamation.  Rows above
    k must already be inverse-limit consistent among themselves."""
    if not 1 <= k < w.rows:
        raise ValueError("need at least one intact row above the target")
    for j in range(k + 1, w.rows):
        if tuple(map(amalgamate, w.cells[j])) != tuple(w.cells[j - 1]):
            raise ValueError(f"rows {j} and {j + 1} are not amalgamation-consistent")
    cells = list(map(tuple, w.cells))
    for j in range(k, 0, -1):
        cells[j - 1] = tuple(map(amalgamate, cells[j]))
    return ArrayWindow(w.sizes, w.origin, tuple(cells), INVERSE_LIMIT)


# --- .kit output format -----------------------------------------------------
#
# header: "K horizon"; per level: "level k lB" then k rows of 2k symbols;
# per tabbed length: "tab l" then k_l rows of l symbols, "tabbar l" then
# k_l rows of l+1 symbols.


def write_kit(path: str | Path, kit: StitchKit) -> None:
    lines = [f"{kit.level_count} {kit.horizon}"]
    for k, (B, lb) in enumerate(kit.bases, start=1):
        lines.append(f"level {k} {lb}")
        lines.extend(" ".join(str(v) for v in row) for row in B.cells)
    for l in sorted(kit.tabbed):
        R, Rbar = kit.tabbed[l]
        lines.append(f"tab {l}")
        lines.extend(" ".join(str(v) for v in row) for row in R.cells)
        lines.append(f"tabbar {l}")
        lines.extend(" ".join(str(v) for v in row) for row in Rbar.cells)
    Path(path).write_text("\n".join(lines) + "\n")
