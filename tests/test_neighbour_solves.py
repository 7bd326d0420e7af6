"""Property tests of the defining systems, the stacked neighbour solves
and the shared CD and RH grid evaluation.

For all-gaussian families with 1 to 3 weights per side and multi-index
parts <= 3, square_systems gives every neighbour's system bit for bit as
the conftest oracle writes it out, stacked by kind or alone, read from the
table with the swap flag or from the swapped table without it; every
neighbour solve of build_cd_data (coefficients, residual, precision)
equals solve_mixed on that neighbour alone, bit for bit, or both raise the
same NotNormalizable; and kernel_cd_rh_grids gives kernel_cd_grid and
kernel_rh_grid bit for bit, on a grid whose band is the diagonal and on
one whose band holds every cell.
"""

import itertools

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from mixedmop import (MultiIndexPair, Normalization,  # noqa: E402
                      NotNormalizable, Weight, WeightFamily, build_cd_data,
                      kernel_cd_grid, kernel_rh_grid)
from mixedmop.mop import moment_table_for, square_systems  # noqa: E402
from mixedmop.rh import kernel_cd_rh_grids  # noqa: E402

from conftest import (assert_same_solutions,  # noqa: E402
                      neighbour_solves_oracle, square_system_oracle)

# every m with 1 to 3 parts <= 3, by its total
M_BY_TOTAL = {}
for q in (1, 2, 3):
    for m in itertools.product((1, 2, 3), repeat=q):
        M_BY_TOTAL.setdefault(sum(m), []).append(list(m))
GRIDS = (np.linspace(-2.0, 2.0, 13), np.linspace(-1e-5, 1e-5, 5))


@st.composite
def problems(draw):
    n = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    m = draw(st.sampled_from(M_BY_TOTAL[sum(n)]))
    # centres and variances from a few values, so that repeated weights
    # (singular neighbours) are drawn too
    weight = st.builds(Weight.gaussian, st.sampled_from([-0.9, -0.3, 0.0, 0.4, 1.1]),
                       st.sampled_from([0.4, 0.8, 1.0, 1.5]))
    w1 = WeightFamily(draw(st.lists(weight, min_size=len(n), max_size=len(n))))
    w2 = WeightFamily(draw(st.lists(weight, min_size=len(m), max_size=len(m))))
    return w1, w2, MultiIndexPair.balanced(n, m)


# a repeated weight: the 60-digit solve of a neighbour finds no provably
# nonzero pivot, which both routes must refuse alike
REPEATED = (WeightFamily([Weight.gaussian(-0.9, 0.4)] * 2 + [Weight.gaussian(-0.3, 0.4)]),
            WeightFamily([Weight.gaussian(-0.9, 0.4)]),
            MultiIndexPair.balanced([1, 1, 1], [3]))


@settings(max_examples=60, deadline=None)
@given(problems())
@example(REPEATED)
def test_stacked_solves_and_shared_grids_bitwise(problem):
    w1, w2, pair = problem
    table = moment_table_for(pair, w1, w2)
    try:
        want = neighbour_solves_oracle(pair, table)
    except NotNormalizable as exc:
        with pytest.raises(NotNormalizable) as got:
            build_cd_data(pair, w1, w2, table)
        assert str(got.value) == str(exc)
        assert got.value.report == exc.report
        return
    data = build_cd_data(pair, w1, w2, table)
    assert_same_solutions(data.solutions, want)
    for xs in GRIDS:
        K_cd, K_rh = kernel_cd_rh_grids(data, xs, xs)
        assert K_cd.tobytes() == kernel_cd_grid(data, xs, xs).tobytes()
        assert K_rh.tobytes() == kernel_rh_grid(data, xs, xs).tobytes()


def neighbour_terms(pair):
    """The CD route's 2(p+q) terms (swap, normalization, defining pair) in
    term order, as build_cd_data lists them."""
    n, m = pair.n, pair.m
    return ([(False, Normalization.type2(j), MultiIndexPair(n.bumped(j, 1), m))
             for j in range(len(n))]
            + [(False, Normalization.type1(k), MultiIndexPair(n, m.bumped(k, -1)))
               for k in range(len(m))]
            + [(True, Normalization.type1(j), MultiIndexPair(m, n.bumped(j, -1)))
               for j in range(len(n))]
            + [(True, Normalization.type2(k), MultiIndexPair(m.bumped(k, 1), n))
               for k in range(len(m))])


def assert_systems_equal(got, want):
    """(A, b, lead) of a stack against the oracle's systems, bit for bit."""
    A, b, lead = got
    assert A.tobytes() == np.stack([w[0] for w in want]).tobytes()
    assert b.tobytes() == np.stack([w[1] for w in want]).tobytes()
    leads = [w[2] for w in want]
    assert (lead is None) if leads[0] is None else (lead.tolist() == leads)


@settings(max_examples=60, deadline=None)
@given(problems())
def test_square_systems_match_oracle_bitwise(problem):
    w1, w2, pair = problem
    table = moment_table_for(pair, w1, w2)
    tables = (table, table.swapped())
    scale = table.scale
    terms = neighbour_terms(pair)
    want = [square_system_oracle(tables[swap].values, scale, norm,
                                 pair.n.parts, pair.m.parts)
            for swap, norm, pair in terms]
    for kind in ("I", "II"):
        group = [r for r, t in enumerate(terms) if t[1].kind == kind]
        assert_systems_equal(
            square_systems(table.values, scale, [terms[r] for r in group]),
            [want[r] for r in group])
    for (swap, norm, pair), w in zip(terms, want):
        assert_systems_equal(square_systems(table.values, scale,
                                            [(swap, norm, pair)]), [w])
        assert_systems_equal(square_systems(tables[swap].values, scale,
                                            [(False, norm, pair)]), [w])
