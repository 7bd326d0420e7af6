"""The CSV writer against the cell-by-cell oracle.

``write_csv`` prints a block of fewer than ``CSV_ARRAY_MIN_CELLS`` cells by
one ``%`` operation, and a larger block by exact decimal arithmetic in
numpy, once per distinct value, with ``%.17g`` itself for the cells that
arithmetic cannot certify.  A block holds ``CSV_BLOCK_CELLS // width`` rows
(``block_rows``).  The small tables below take the ``%`` path; the tables
of several blocks and the exactness tests take the array path, so either
path that drifts from ``%.17g`` shows here.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from mixedmop import _util
from mixedmop._util import CSV_ARRAY_MIN_CELLS, CSV_BLOCK_CELLS, write_csv

from conftest import csv_oracle_bytes


def block_rows(width: int) -> int:
    """Rows per block of a table of this width at the default budget."""
    return CSV_BLOCK_CELLS // width


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

    @pytest.mark.parametrize("count", [2 * block_rows(4) + 1,
                                       3 * block_rows(4) + 7],
                             ids=["last_block_1_row", "last_block_7_rows"])
    def test_repeats_straddle_block_seams(self, tmp_path, count):
        # several full blocks, then a last block of 1 or 7 rows
        assert count > block_rows(4) and count % block_rows(4) in (1, 7)
        i = np.arange(count)
        rows = np.column_stack([i % 5 - 2.0, (i // 3) / 7.0, np.sqrt(i),
                                np.where(i % 2, -0.0, 0.0)])
        header = ("period", "runs", "distinct", "zero")
        assert written(tmp_path, header, rows) == csv_oracle_bytes(
            header, rows.tolist())

    @pytest.mark.parametrize("rows", [[], np.empty((0, 3))])
    def test_empty_table_is_the_header(self, tmp_path, rows):
        assert written(tmp_path, ("a", "b", "c"), rows) == b"a,b,c\n"

    @pytest.mark.parametrize("rows", [np.zeros((4, 2)), np.zeros((4, 4)),
                                      np.empty((0, 2)), [1.0, 2.0, 3.0],
                                      np.zeros((2, 3, 1))])
    def test_rows_not_a_table_of_the_header_width(self, tmp_path, rows):
        # a width other than the header's would print misaligned rows
        path = tmp_path / "table.csv"
        with pytest.raises(ValueError, match="table of 3 columns"):
            write_csv(str(path), ("a", "b", "c"), rows)
        assert not path.exists()

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


@pytest.fixture(scope="module")
def shaped_tables():
    """(header, table, oracle bytes) for tables shaped like the artifacts:
    kernel_grid.csv (x and y by repeat and tile, with signed zeros and
    non-finite cells), paths.csv and samples.csv."""
    rng = np.random.default_rng(28)
    xs = np.linspace(-3.0, 3.0, 71)
    Kd = np.exp(-np.add.outer(xs ** 2, xs ** 2)) * rng.standard_normal((71, 71))
    Kcd = Kd + 1e-16 * rng.standard_normal((71, 71))
    Kd[0, :5], Kcd[1, :5] = 0.0, -0.0
    Kd[2, :3] = Kcd[3, :3] = [math.nan, math.inf, -math.inf]
    kernel = np.column_stack([np.repeat(xs, 71), np.tile(xs, 71), Kd.ravel(),
                              Kcd.ravel(), np.abs(Kd - Kcd).ravel()])
    count, walkers, steps = 6, 3, 150
    times = np.linspace(0.0, 1.0, steps)
    paths = np.column_stack([
        np.tile(times, count * walkers),
        np.tile(np.repeat(np.arange(walkers), steps), count),
        rng.standard_normal(count * walkers * steps),
        np.repeat(np.arange(count), walkers * steps)])
    samples = np.sort(rng.standard_normal((3500, 3)), axis=1)
    samples[::500, 0] = -0.0
    tables = [(("x", "y", "K_direct", "K_cd", "abs_diff"), kernel),
              (("time", "path_index", "position", "bundle"), paths),
              (("x1", "x2", "x3"), samples)]
    return [(header, table, csv_oracle_bytes(header, table.tolist()))
            for header, table in tables]


class TestBlockBudget:
    @pytest.mark.parametrize("budget", [512, 4096, CSV_BLOCK_CELLS, 10 ** 7])
    def test_block_budget_never_changes_bytes(self, tmp_path, monkeypatch,
                                              shaped_tables, budget):
        # 512 cells of width 5 is a block under CSV_ARRAY_MIN_CELLS (the %
        # path); 10^7 is one block per table
        monkeypatch.setattr(_util, "CSV_BLOCK_CELLS", budget)
        for header, table, oracle in shaped_tables:
            assert written(tmp_path, header, table) == oracle


def _exponent(f: Fraction) -> int:
    """floor(log10 f) of a positive rational, exactly."""
    k = len(str(math.floor(f))) - 1 if f >= 1 else -1
    while Fraction(10) ** k > f:
        k -= 1
    return k


def _is_tie(x: float) -> bool:
    """Whether x lies exactly halfway between two 17-digit decimals."""
    f = abs(Fraction(x))
    return (f * Fraction(10) ** (16 - _exponent(f))).denominator == 2


def _exactness_values() -> np.ndarray:
    """Over a million doubles across every branch of the array printer."""
    rng = np.random.default_rng(20)
    bits = rng.integers(-2 ** 63, 2 ** 63 - 1, 300_000, dtype=np.int64)
    subnormal = rng.integers(1, 2 ** 52, 20_000, dtype=np.int64)
    dyadic = rng.integers(1, 2 ** 24, 150_000) * np.exp2(
        rng.integers(-60, 61, 150_000))
    powers = np.array([float(f"1e{j}") for j in range(-300, 301)])
    edges = np.array([1e-280, 1e280, *np.exp2(np.arange(53, 61)),
                      99999999999999999.0, 1e16, 1e17, 1e-4, 1e-5])
    ties = [x for x in [c / 2 ** 24 for c in range(1, 64, 2)]
            + [c / 2 ** 25 for c in range(1, 64, 2)]
            + [1e15 + j / 8 for j in range(8)]
            + [2 ** 53 + 2.0 * j for j in range(8)] if _is_tie(x)]
    assert any(x < 1e-6 for x in ties) and any(x > 1 for x in ties)
    signed = np.concatenate([
        dyadic,
        rng.standard_normal(150_000) * 10.0 ** rng.integers(-20, 21, 150_000),
        np.arange(-25_000, 25_000) * 0.1, np.arange(-25_000, 25_000) / 8,
        np.round(rng.standard_normal(50_000) * 100, 6),
        powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
        edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf), ties])
    signs = (subnormal & 1) << 63  # the lowest mantissa bit picks the sign
    values = np.concatenate([bits.view(np.float64),
                             (subnormal | signs).view(np.float64),
                             signed, -signed, [0.0, -0.0, np.nan, np.inf, -np.inf]])
    return rng.permutation(values)


class TestArrayPrinter:
    def test_every_cell_is_percent_17g(self, tmp_path):
        values = _exactness_values()
        assert len(values) >= 10 ** 6
        path = tmp_path / "cells.csv"
        chunk = 16 * block_rows(4)  # rows of four cells per file
        for start in range(0, len(values), 4 * chunk):
            cells = values[start:start + 4 * chunk]
            cells = np.concatenate([cells, np.zeros(-len(cells) % 4)])
            write_csv(str(path), ("a", "b", "c", "d"), cells.reshape(-1, 4))
            got = path.read_bytes().split(b"\n")[1:-1]
            want = ["%.17g" % v for v in cells.tolist()]
            got = [c.decode() for line in got for c in line.split(b",")]
            wrong = [(v, g, w) for v, g, w in zip(cells.tolist(), got, want)
                     if g != w]
            assert len(got) == len(want) and not wrong, wrong[:5]

    @staticmethod
    def count_fallback(monkeypatch) -> list:
        """Sizes of the blocks handed to the % printer from here on."""
        printed = []
        percent_lines = _util._percent_lines

        def counted(block):
            printed.append(block.size)
            return percent_lines(block)

        monkeypatch.setattr(_util, "_percent_lines", counted)
        return printed

    def test_fallback_is_rare_on_normals(self, tmp_path, monkeypatch):
        # every block here is at least CSV_ARRAY_MIN_CELLS cells, so each
        # cell handed to the % printer is a fallback of the array path
        assert 4 * block_rows(4) >= CSV_ARRAY_MIN_CELLS
        table = np.random.default_rng(7).standard_normal((10 * block_rows(4), 4))
        assert table.size >= 10 ** 5
        printed = self.count_fallback(monkeypatch)
        got = written(tmp_path, ("a", "b", "c", "d"), table)
        assert sum(printed) < 1e-4 * table.size
        assert got == csv_oracle_bytes(("a", "b", "c", "d"), table.tolist())

    def test_inexact_powers_near_a_tie_fall_back(self, tmp_path):
        # 10^(16 - k) is no double for these, so r may be off by about
        # 1e-14; each lies within _CERTAIN of a rounding tie or a decade end
        # and is printed by % itself (found by scanning 10^6 random doubles)
        values = np.array([4.1035889349340572e+208, 8.20441860184292e+261,
                           1.3464370978065617e-120, 2.301719946256581e-172])
        assert not _util._decimal_digits(values)[2].any()
        assert not _util._decimal_digits(-values)[2].any()
        table = np.resize(np.concatenate([values, -values]),
                          (block_rows(8), 8))
        got = written(tmp_path, tuple("abcdefgh"), table)
        line = ",".join("%.17g" % v for v in table[0].tolist())
        assert got.split(b"\n")[1] == line.encode()
        assert got == csv_oracle_bytes(tuple("abcdefgh"), table.tolist())

    def test_powers_of_ten_need_no_fallback(self, tmp_path, monkeypatch):
        # log10 puts many of these in the next decade; once the decade is
        # corrected, 10^(16 - k) is a double for all of them and every cell
        # prints by exact arithmetic
        powers = np.array([float(f"1e{j}") for j in range(-6, 17)])
        values = np.concatenate([powers, np.nextafter(powers, 0),
                                 np.nextafter(powers, np.inf)])
        table = np.resize(values, (block_rows(4), 4))
        printed = self.count_fallback(monkeypatch)
        got = written(tmp_path, ("a", "b", "c", "d"), table)
        assert sum(printed) == 0
        assert got == csv_oracle_bytes(("a", "b", "c", "d"), table.tolist())
