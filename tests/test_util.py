"""The CSV writer against the cell-by-cell oracle.

``write_csv`` formats each distinct value of a column once when the
column's distinct values number at most half the rows of a write block,
and every other value in place; these tables put columns on both sides of
that rule, so either path that drifts from ``%.17g`` shows here.
"""

import math

import numpy as np
import pytest

from mixedmop._util import CSV_BLOCK_ROWS, write_csv

from conftest import csv_oracle_bytes


def written(tmp_path, header, rows) -> bytes:
    path = tmp_path / "table.csv"
    write_csv(str(path), header, rows)
    return path.read_bytes()


class TestWriteCsv:
    def test_signed_zeros_stay_apart_in_a_repeated_column(self, tmp_path):
        rows = [(z, float(i)) for i, z in enumerate([0.0, -0.0] * 4)]
        got = written(tmp_path, ("z", "i"), rows)
        assert got == csv_oracle_bytes(("z", "i"), rows)
        assert got.decode().splitlines()[1:3] == ["0,0", "-0,1"]

    def test_repeated_nonfinite_values(self, tmp_path):
        cycle = [math.nan, math.inf, -math.inf, 1.5]
        rows = [(v, -v) for v in cycle * 3]
        got = written(tmp_path, ("a", "b"), rows)
        assert got == csv_oracle_bytes(("a", "b"), rows)
        assert got.decode().splitlines()[1:4] == ["nan,nan", "inf,-inf",
                                                  "-inf,inf"]

    def test_integer_valued_index_columns(self, tmp_path):
        # the oracle prints ints by str; the writer gets them as doubles
        rows = [(b, w, 0.25 * b - w, 2 ** 53)
                for b in range(6) for w in range(3)]
        header = ("bundle", "walker", "position", "big")
        assert written(tmp_path, header, np.array(rows, dtype=float)) == \
            csv_oracle_bytes(header, rows)

    @pytest.mark.parametrize("count", [CSV_BLOCK_ROWS + 1, 2 * CSV_BLOCK_ROWS + 7])
    def test_repeats_straddle_block_seams(self, tmp_path, count):
        # the last block holds one row when count is CSV_BLOCK_ROWS + 1
        i = np.arange(count)
        rows = np.column_stack([i % 5 - 2.0, (i // 3) / 7.0, np.sqrt(i),
                                np.where(i % 2, -0.0, 0.0)])
        header = ("period", "runs", "distinct", "zero")
        assert written(tmp_path, header, rows) == csv_oracle_bytes(
            header, rows.tolist())

    @pytest.mark.parametrize("rows", [[], np.empty((0, 3))])
    def test_empty_table_is_the_header(self, tmp_path, rows):
        assert written(tmp_path, ("a", "b", "c"), rows) == b"a,b,c\n"

    def test_one_row_table(self, tmp_path):
        rows = [(-0.0, 1e-300, 7.0)]
        got = written(tmp_path, ("a", "b", "c"), rows)
        assert got == csv_oracle_bytes(("a", "b", "c"), rows)
        assert got == b"a,b,c\n-0,1e-300,7\n"

    def test_columns_at_the_repeat_boundary(self, tmp_path):
        # 10 rows: 5 distinct values is at most half the rows (formatted
        # once each), 6 is one more (formatted in place)
        half = [1.0 / (k + 2) for k in range(5)] * 2
        over = [1.0 / (k + 2) for k in range(6)] + [0.5, 0.5, 0.5, 0.5]
        rows = list(zip(half, over))
        assert len(set(half)) == 5 and len(set(over)) == 6
        assert written(tmp_path, ("half", "over"), rows) == csv_oracle_bytes(
            ("half", "over"), rows)
