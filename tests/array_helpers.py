"""Array helpers that only the tests use: the one-row rectangle of a digit
word.  The program builds rectangles from windows; this keeps the tests
short."""

from strictform.arrays import Rectangle


def from_word(word) -> Rectangle:
    """One-row rectangle of a word of digits or ints."""
    return Rectangle.from_rows([[int(c) for c in word]])
