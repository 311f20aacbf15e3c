"""Array helpers that only the tests use: the amalgamation image of one
symbol and the one-row rectangle of a digit word.  The program reads a
chain's maps whole and builds rectangles from windows; these keep the tests
short."""

from strictform.arrays import AmalgamationChain, Rectangle, SymbolError


def amalgamate(chain: AmalgamationChain, k: int, m: int) -> int:
    """Image of row-(k+1) symbol m in row k."""
    if not 1 <= k < chain.row_count:
        raise ValueError(f"no amalgamation below row {k}")
    table = chain.maps[k - 1]
    if not 1 <= m <= len(table):
        raise SymbolError(f"symbol {m} outside the row-{k + 1} alphabet")
    return table[m - 1]


def from_word(word) -> Rectangle:
    """One-row rectangle of a word of digits or ints."""
    return Rectangle.from_rows([[int(c) for c in word]])
