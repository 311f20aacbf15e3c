import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from strictform.arrays import (
    INDEPENDENT,
    INVERSE_LIMIT,
    ArrayWindow,
    Rectangle,
    amalgamate,
    canonical_sizes,
    extract_rectangle,
    lift_binary,
    read_arr,
    replace_cells,
    shift,
    validate_window,
    window_to_rectangle,
    write_arr,
)
from strictform.assemble import reconstruct
from strictform.generators import sturmian_word
from strictform.markers import MarkerSystem

from array_helpers import from_word

binary_words = st.text(alphabet="01", min_size=4, max_size=12)


def canonical_window(cells, mode=INVERSE_LIMIT):
    return ArrayWindow(canonical_sizes(len(cells)), 0,
                       tuple(tuple(r) for r in cells), mode)


class TestAmalgamationChain:
    def test_canonical_sizes(self):
        assert canonical_sizes(4) == (2, 4, 8, 16)

    @pytest.mark.parametrize("rows", [0, 21])
    def test_canonical_row_cap(self, rows):
        with pytest.raises(ValueError, match=r"rows must be in \[1, 20\]"):
            canonical_sizes(rows)

    def test_amalgamate_examples(self):
        assert amalgamate(1) == 1
        assert amalgamate(4) == 2
        assert amalgamate(5) == 3

    def test_canonical_preimages(self):
        # each row-k symbol s has exactly the preimages {2s-1, 2s}, so the
        # map is onto the row-k alphabet
        for k in range(1, 4):
            for s in range(1, 2**k + 1):
                pre = [m for m in range(1, 2 ** (k + 1) + 1)
                       if amalgamate(m) == s]
                assert pre == [2 * s - 1, 2 * s]

    def test_symbol_out_of_range(self):
        # symbol 5 of row 2 amalgamates to the 3 below it, but neither lies
        # in its row's alphabet
        assert amalgamate(5) == 3
        assert not validate_window(canonical_window([[3], [5]]))


class TestWindowSizes:
    def test_sizes_field(self):
        assert lift_binary("0110", 3).sizes == (2, 4, 8)

    def test_noncanonical_inverse_limit_rejected(self):
        with pytest.raises(ValueError, match="canonical alphabet sizes 2 4, got 2 3"):
            ArrayWindow((2, 3), 0, ((1,), (1,)))

    @pytest.mark.parametrize("sizes", [(4, 2), (2, 3), (1, 1), (2,) * 21])
    def test_independent_takes_any_positive_sizes(self, sizes):
        cells = tuple((1,) for _ in sizes)
        w = ArrayWindow(sizes, 0, cells, INDEPENDENT)
        assert w.sizes == sizes and validate_window(w)

    @pytest.mark.parametrize("sizes", [(), (2, 0), (-1,)])
    def test_nonpositive_sizes_rejected(self, sizes):
        cells = tuple((1,) for _ in sizes) or ((1,),)
        for mode in (INVERSE_LIMIT, INDEPENDENT):
            with pytest.raises(ValueError, match="sizes must be positive"):
                ArrayWindow(sizes, 0, cells, mode)

    def test_row_count_must_match_sizes(self):
        with pytest.raises(ValueError, match="does not match the alphabet sizes"):
            ArrayWindow((2, 4), 0, ((1,),))


class TestValidateWindow:
    def test_valid_column(self):
        assert validate_window(canonical_window([[1], [2], [3]]))

    def test_invalid_column(self):
        assert not validate_window(canonical_window([[1], [2], [5]]))

    def test_independent_mode_unconstrained(self):
        w = canonical_window([[1], [2], [5]], INDEPENDENT)
        assert validate_window(w)

    def test_out_of_alphabet_cell(self):
        assert not validate_window(canonical_window([[3], [1], [1]],
                                                    INDEPENDENT))


class TestShift:
    def test_identity(self):
        w = canonical_window([[1, 2]])
        assert shift(w, 0) == w

    def test_inverse(self):
        w = canonical_window([[1, 2]])
        assert shift(shift(w, 3), -3) == w

    def test_origin_moves(self):
        w = canonical_window([[1, 2]])
        assert shift(w, 1).origin == w.origin - 1

    @given(binary_words, st.integers(-20, 20))
    def test_extract_commutes_with_shift(self, word, t):
        w = lift_binary(word, 2)
        lo, hi = w.origin, w.origin + w.columns - 1
        a = extract_rectangle(w, 2, lo, hi)
        b = extract_rectangle(shift(w, t), 2, lo - t, hi - t)
        assert a == b


class TestLiftBinary:
    def test_single_column_01(self):
        w = lift_binary("01", 2)
        assert w.columns == 1 and w.column(0) == (1, 2)

    def test_single_column_11(self):
        w = lift_binary("11", 2)
        assert w.column(0) == (2, 4)

    def test_three_rows(self):
        w = lift_binary("0100", 3)
        assert w.columns == 2
        assert w.column(0) == (1, 2, 3)

    def test_word_too_short(self):
        with pytest.raises(ValueError):
            lift_binary("01", 3)

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            lift_binary("012", 2)

    # "\u0660\u0661" are Arabic-Indic 0 and 1, which int() reads as digits
    @pytest.mark.parametrize("word", ["012", "2", " ", "01\n", "\u0660\u0661"])
    def test_non_binary_symbols_rejected(self, word):
        with pytest.raises(ValueError, match="word must be over"):
            lift_binary(word, 1)

    def test_always_inverse_limit_valid_exhaustive(self):
        # all binary words up to length 10, all row counts up to 4
        for n in range(4, 11):
            for v in range(2**n):
                word = format(v, f"0{n}b")
                for rows in range(1, 5):
                    assert validate_window(lift_binary(word, rows))


def reference_lift_cells(word, rows):
    # the per-cell block evaluation that lift_binary used before the row
    # recurrence
    bits = [int(c) for c in word]
    n = len(bits) - rows + 1
    cells = []
    for k in range(1, rows + 1):
        row = []
        for j in range(n):
            v = 0
            for b in bits[j : j + k]:
                v = (v << 1) | b
            row.append(1 + v)
        cells.append(tuple(row))
    return tuple(cells)


def reference_lift_rows(word, rows):
    # the row recurrence that lift_binary ran as a Python step per cell
    # before its byte passes
    bits = [int(c) for c in word]
    n = len(bits) - rows + 1
    row = tuple(1 + b for b in bits[:n])
    cells = [row]
    for k in range(2, rows + 1):
        row = tuple(2 * v - 1 + b for v, b in zip(row, bits[k - 1 :]))
        cells.append(row)
    return tuple(cells)


class TestLiftBinaryDifferential:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6), st.data())
    def test_matches_reference(self, rows, data):
        word = data.draw(st.text(alphabet="01", min_size=rows, max_size=40))
        w = lift_binary(word, rows)
        assert w.cells == reference_lift_cells(word, rows)
        assert w.sizes == canonical_sizes(rows)
        assert (w.origin, w.mode) == (0, INVERSE_LIMIT)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 8), st.data())
    def test_matches_row_recurrence(self, rows, data):
        word = data.draw(st.text(alphabet="01", min_size=rows, max_size=300))
        assert lift_binary(word, rows).cells == reference_lift_rows(word, rows)

    @settings(max_examples=200, deadline=None)
    @given(st.text(min_size=1, max_size=20).filter(lambda w: set(w) - {"0", "1"}))
    def test_rejects_any_word_with_another_symbol(self, word):
        with pytest.raises(ValueError, match="word must be over"):
            lift_binary(word, 1)

    def test_heap_peak_of_a_purify_lift(self):
        # a 2-row lift of a 5,187-symbol word peaks at about 104 KB of traced
        # heap, of which the two 5,186-cell rows are 83 KB.  The per-cell
        # loop over a list of ints read 176 KB.
        word = sturmian_word(Fraction(309017, 500000), Fraction(1, 3), 5187)
        lift_binary(word, 2)
        tracemalloc.start()
        try:
            w = lift_binary(word, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert w.columns == 5186
        assert peak < 112 * 1024


class TestExtractRectangle:
    def test_full_window_identity(self):
        w = lift_binary("0110", 2)
        rect = window_to_rectangle(w)
        assert rect.cells == w.cells

    def test_full_window_shares_cells(self):
        # the full-window rectangle is the window's own cell grid: it copies
        # no row and builds no per-cell flag row
        w = lift_binary("01" * 2594, 2)
        window_to_rectangle(w)
        tracemalloc.start()
        try:
            rect = window_to_rectangle(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rect.cells is w.cells
        assert peak < 1024

    def test_single_cell(self):
        w = lift_binary("0110", 2)
        rect = extract_rectangle(w, 1, 1, 1)
        assert rect.rows == 1 and rect.width == 1
        assert rect.cells == ((2,),)

    def test_range_violation(self):
        w = lift_binary("0110", 2)
        with pytest.raises(ValueError):
            extract_rectangle(w, 2, 0, 99)


class TestRectangle:
    def test_sub(self):
        r = Rectangle.from_rows([[1, 2, 1], [3, 4, 3]])
        s = r.sub(1, 1, 2)
        assert s.cells == ((2, 1),)

    def test_from_word(self):
        assert from_word("121").cells == ((1, 2, 1),)

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            Rectangle(((1, 2), (1,)))


class TestReplaceCells:
    def test_rows_above_unchanged(self):
        w = lift_binary("010010", 3)
        block = Rectangle.from_rows([[2, 2], [1, 1]])
        out = replace_cells(w, 2, [(1, block)])
        assert out.mode == INDEPENDENT
        assert out.cells[2] == w.cells[2]
        assert out.cells[0][1:3] == (2, 2)
        assert out.cells[1][1:3] == (1, 1)

    def test_several_placements(self):
        w = shift(lift_binary("00000000", 2), -10)
        a = Rectangle.from_rows([[2], [3]])
        b = Rectangle.from_rows([[2, 2, 2], [4, 4, 4]])
        out = replace_cells(w, 2, [(10, a), (13, b)])
        assert out.cells == ((2, 1, 1, 2, 2, 2, 1), (3, 1, 1, 4, 4, 4, 1))
        assert w.cells == ((1,) * 7, (1,) * 7)

    @pytest.mark.parametrize(
        "first, block",
        [
            (9, Rectangle.from_rows([[2], [2]])),
            (15, Rectangle.from_rows([[2, 2], [2, 2]])),
            (12, from_word("2")),
        ],
    )
    def test_placement_out_of_range(self, first, block):
        w = shift(lift_binary("000000", 2), -10)
        ok = Rectangle.from_rows([[2], [2]])
        with pytest.raises(ValueError):
            replace_cells(w, 2, [(10, ok), (first, block)])


class TestArrFormat:
    def test_roundtrip_plain(self, tmp_path):
        w = lift_binary("0110100", 3)
        p = tmp_path / "a.arr"
        write_arr(p, w)
        back, ms = read_arr(p)
        assert back == w and ms is None

    def test_roundtrip_with_markers(self, tmp_path):
        w = lift_binary("0110100", 2)
        ms = MarkerSystem(0, (5,), (((5, (3, 2)),),), (3, 5))
        p = tmp_path / "a.arr"
        write_arr(p, w, ms)
        back, rows = read_arr(p)
        assert back == w
        assert rows == ((0, 3, 5), (0, 5))

    @given(binary_words)
    def test_roundtrip_random(self, word):
        import tempfile
        from pathlib import Path

        w = lift_binary(word, 2)
        with tempfile.TemporaryDirectory() as d:
            p = Path(d) / "w.arr"
            write_arr(p, w)
            back, _ = read_arr(p)
        assert back == w

    def test_noncanonical_sizes_rejected_in_inverse_limit_mode(self, tmp_path):
        p = tmp_path / "a.arr"
        p.write_text("2 3 0 inverse_limit\n2 3\n1 2 2\n1 3 2\n")
        with pytest.raises(ValueError, match="canonical alphabet sizes 2 4, got 2 3"):
            read_arr(p)

    def test_noncanonical_sizes_read_in_independent_mode(self, tmp_path):
        p = tmp_path / "a.arr"
        p.write_text("2 3 0 independent\n2 3\n1 2 2\n1 3 2\n")
        back, _ = read_arr(p)
        assert back.sizes == (2, 3)
        assert validate_window(back)

    @pytest.mark.parametrize("mode", [INVERSE_LIMIT, INDEPENDENT])
    def test_row_cap_only_in_inverse_limit_mode(self, tmp_path, mode):
        # 21 rows with the canonical sizes: an independent window is judged
        # by its sizes alone, so only the canonical chain caps the rows
        p = tmp_path / "a.arr"
        sizes = " ".join(str(2**k) for k in range(1, 22))
        p.write_text(f"21 1 0 {mode}\n{sizes}\n" + "1\n" * 21)
        if mode == INVERSE_LIMIT:
            with pytest.raises(ValueError, match=r"line 2: rows must be in \[1, 20\]"):
                read_arr(p)
        else:
            back, _ = read_arr(p)
            assert back.rows == 21 and validate_window(back)

    def test_missing_row_lines_rejected(self, tmp_path):
        p = tmp_path / "a.arr"
        write_arr(p, lift_binary("0110100", 3))
        lines = p.read_text().splitlines()
        p.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError, match="header claims 3 rows"):
            read_arr(p)


# The map tables that windows held before they held only their sizes: the
# canonical chain's table k - 1 sends symbol m of row k + 1 to
# table[m - 1] in row k.  validate_window and reconstruct read them so.
def reference_tables(rows):
    return tuple(
        tuple((m + 1) // 2 for m in range(1, 2 ** (k + 1) + 1))
        for k in range(1, rows)
    )


def reference_validate(w):
    tables = reference_tables(w.rows)
    for k, row in enumerate(w.cells, start=1):
        size = w.sizes[k - 1]
        if any(not 1 <= v <= size for v in row):
            return False
    if w.mode == INDEPENDENT:
        return True
    for k in range(1, w.rows):
        lower, upper = w.cells[k - 1], w.cells[k]
        table = tables[k - 1]
        if any(table[m - 1] != v for v, m in zip(lower, upper)):
            return False
    return True


def reference_reconstruct(w, k):
    if not 1 <= k < w.rows:
        raise ValueError("need at least one intact row above the target")
    tables = reference_tables(w.rows)
    for j in range(k + 1, w.rows):
        table = tables[j - 1]
        if any(
            table[m - 1] != v for v, m in zip(w.cells[j - 1], w.cells[j])
        ):
            raise ValueError(f"rows {j} and {j + 1} are not amalgamation-consistent")
    cells = [list(row) for row in w.cells]
    for j in range(k, 0, -1):
        table = tables[j - 1]
        cells[j - 1] = [table[m - 1] for m in cells[j]]
    return tuple(tuple(r) for r in cells)


def outcome(f, *args):
    try:
        return f(*args)
    except Exception as exc:
        return type(exc), str(exc)


@st.composite
def canonical_windows(draw):
    """A canonical window in either mode: a consistent column stack, from a
    random top row, with a few cells overwritten by values in 0..2^k + 1,
    so some leave their alphabet or break the amalgamation."""
    rows, width = draw(st.integers(1, 6)), draw(st.integers(1, 20))
    top = draw(st.lists(st.integers(1, 2**rows), min_size=width, max_size=width))
    cells = [top]
    for _ in range(rows - 1):
        cells.insert(0, [(m + 1) // 2 for m in cells[0]])
    for _ in range(draw(st.integers(0, 4))):
        k = draw(st.integers(1, rows))
        cells[k - 1][draw(st.integers(0, width - 1))] = draw(
            st.integers(0, 2**k + 1)
        )
    mode = draw(st.sampled_from([INVERSE_LIMIT, INDEPENDENT]))
    return ArrayWindow(
        canonical_sizes(rows), 0, tuple(map(tuple, cells)), mode
    )


class TestCanonicalMapDifferential:
    @settings(max_examples=400, deadline=None)
    @given(canonical_windows())
    def test_validate_window_matches_tables(self, w):
        assert validate_window(w) == reference_validate(w)

    @settings(max_examples=400, deadline=None)
    @given(canonical_windows(), st.data())
    def test_reconstruct_matches_tables(self, w, data):
        # a target row below the top one; a one-row window has none, so
        # its k = 1 takes the "no intact row above" error path
        k = data.draw(st.integers(1, max(1, w.rows - 1)))
        got = outcome(reconstruct, w, k)
        if all(
            1 <= v <= size
            for row, size in zip(w.cells[k:], w.sizes[k:])
            for v in row
        ):
            want = outcome(reference_reconstruct, w, k)
            assert (got.cells if isinstance(got, ArrayWindow) else got) == want
        else:
            # a table read at a symbol outside its alphabet wrapped round or
            # raised IndexError; the map keeps such a symbol in the window,
            # so the result is never a valid window
            if isinstance(got, ArrayWindow):
                assert not validate_window(got)
            else:
                assert got[0] is ValueError
