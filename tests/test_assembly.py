"""One assembly of the defining systems, in two arithmetics.

mop.square_systems builds the double systems of solve_mixed and the
stacked neighbour solves from the moment table, and the 60-digit systems of
the extended fallback from the mpf table that weights.gaussian_pair_moments
gives in mpmath arithmetic.  Here both are
built for the same pairs and compared entry by entry; the reduced type I
closing row is checked against the binomially expanded one at 60 digits;
the library-level refusal of a normalization index past its side, and the
gather's refusal of a weight index past its family, are pinned as well.
"""

import mpmath
import numpy as np
import pytest

from mixedmop import (MultiIndexPair, Normalization, Weight, WeightFamily,
                      solve_mixed)
from mixedmop.mop import (EXTENDED_DPS, column_layout, moment_matrix,
                          moment_stack, moment_table_for, solve_terms,
                          square_systems)
from mixedmop.weights import build_moment_table, gaussian_pair_moments

from conftest import expanded_type1_row

G = Weight.gaussian
FAMILIES = {
    "wp": (WeightFamily([G(-0.5, 0.8), G(0.6, 1.2)]),
           WeightFamily([G(0.0, 1.0), G(0.3, 0.6)]), (3, 3), (2, 3)),
    "p3": (WeightFamily([G(-0.8, 0.7), G(0.1, 1.1), G(0.9, 0.9)]),
           WeightFamily([G(-0.4, 1.0), G(0.3, 0.6), G(0.7, 1.3)]),
           (2, 2, 3), (2, 2, 2)),
    "hermite5": (WeightFamily([G(0.0, 1.0)]), WeightFamily([G(0.0, 1.0)]),
                 (6,), (5,)),
}
CASES = [(name, kind, k) for name, (_, _, n, m) in FAMILIES.items()
         for kind, side in (("I", m), ("II", n)) for k in range(len(side))]

# Each double moment ends a three-term recursion of at most kmax <= 15 steps
# from a correctly rounded start, and a type I closing entry is one such
# moment times scale^(m_k): a few units of 2^-53 of the row's largest entry
# (measured: at most 4.6 on these cases).  32 units leave room for a libm
# that rounds exp or sqrt the other way; a wrong order, weight pair or
# power of the scale is off by O(1) of the row.
ROW_RTOL = 2.0 ** -48


@pytest.mark.parametrize("name, kind, k", CASES,
                         ids=[f"{n}-{kind}{k}" for n, kind, k in CASES])
def test_double_and_60_digit_systems_agree(name, kind, k):
    w1, w2, n, m = FAMILIES[name]
    pair = MultiIndexPair.defining(n, m)
    table = moment_table_for(pair, w1, w2)
    terms = [(False, Normalization(kind, k), pair)]
    A, b, lead = square_systems(table.values, table.scale, terms)
    with mpmath.workdps(EXTENDED_DPS):
        c, s = mpmath.mpf(table.center), mpmath.mpf(table.scale)
        values = np.array([[gaussian_pair_moments(a, b, table.kmax, c, s, mpmath)
                            for b in w2] for a in w1])
        A_mp, b_mp, lead_mp = square_systems(values, s, terms)
    assert A.dtype == b.dtype == float
    assert A_mp.dtype == b_mp.dtype == object
    assert {type(v) for v in A_mp[A_mp != 0]} <= {mpmath.mpf, int}
    # the same zero pattern, and the same closing row position for type II
    assert np.array_equal(A == 0, np.array(A_mp == 0, dtype=bool))
    if kind == "II":
        assert lead.tolist() == lead_mp.tolist() == [sum(n[:k + 1]) - 1]
        assert np.flatnonzero(A[0, -1]).tolist() == lead.tolist()
    else:
        assert lead is None and lead_mp is None
    A_near, b_near = A_mp.astype(float), b_mp.astype(float)
    row_size = np.abs(A_near).max(axis=-1, keepdims=True)
    assert np.all(np.abs(A - A_near) <= ROW_RTOL * row_size)
    assert np.all(np.abs(b - b_near) <= ROW_RTOL * np.abs(b_near))


def _shifted(family, s):
    return WeightFamily([G(w.center + s, w.variance) for w in family])


REDUCED_FAMILIES = dict(
    wp=FAMILIES["wp"], p3=FAMILIES["p3"],
    wp_shift_1e3=(_shifted(FAMILIES["wp"][0], 1e3), _shifted(FAMILIES["wp"][1], 1e3),
                  *FAMILIES["wp"][2:]))
REDUCED_CASES = [(name, k) for name, (_, _, _, m) in REDUCED_FAMILIES.items()
                 for k in range(len(m))]


@pytest.mark.parametrize("name, k", REDUCED_CASES,
                         ids=[f"{name}-I{k}" for name, k in REDUCED_CASES])
def test_reduced_type1_row_solves_as_the_expanded_one(name, k):
    # integral Q x^{m_k} w2_k dx expands into shifted moments of orders
    # t <= m_k, and the conditions zero every one with t < m_k: the reduced
    # and the expanded systems have one solution, up to 60-digit rounding
    w1, w2, n, m = REDUCED_FAMILIES[name]
    pair = MultiIndexPair.defining(n, m)
    table = moment_table_for(pair, w1, w2)
    with mpmath.workdps(EXTENDED_DPS):
        c, s = mpmath.mpf(table.center), mpmath.mpf(table.scale)
        values = np.array([[gaussian_pair_moments(a, b, table.kmax, c, s, mpmath)
                            for b in w2] for a in w1])
        A, b, _ = square_systems(values, s, [(False, Normalization.type1(k), pair)])
        expanded = A[0].copy()
        expanded[-1] = expanded_type1_row(values, c, s, n, m, k)
        rhs = mpmath.matrix(b[0].tolist())
        x = mpmath.lu_solve(mpmath.matrix(A[0].tolist()), rhs)
        want = mpmath.lu_solve(mpmath.matrix(expanded.tolist()), rhs)
        assert mpmath.norm(x - want, mpmath.inf) <= \
            mpmath.mpf(1e-40) * mpmath.norm(want, mpmath.inf)


@pytest.mark.parametrize("kind, index, label", [
    ("I", 2, "type I index out of range"),
    ("II", 2, "type II index out of range"),
])
def test_normalization_index_past_its_side_refused(kind, index, label):
    w1, w2, n, m = FAMILIES["wp"]
    pair = MultiIndexPair.defining(n, m)
    table = moment_table_for(pair, w1, w2)
    with pytest.raises(ValueError, match=label):
        solve_mixed(pair, table, Normalization(kind, index))


def test_weight_index_past_its_family_refused():
    # w1 has two weights and w2 one: m = (1, 1) asks for a condition on a
    # second w2 weight, whose flat offset would land on w1[1] w2[0]
    w1, w2 = WeightFamily([G(-0.5, 0.8), G(0.6, 1.2)]), WeightFamily([G(0.0, 1.0)])
    table = build_moment_table(w1, w2, 8)
    pair = MultiIndexPair.defining((3,), (1, 1))
    with pytest.raises(ValueError, match="weight index"):
        solve_terms(table, [(False, Normalization.type2(0), pair)])
    cols, rows = column_layout((3,)), column_layout((1, 1))
    with pytest.raises(ValueError, match="weight index"):
        moment_matrix(table.values, cols, rows)
    # a swapped layout's columns run over w2 and its rows over w1
    with pytest.raises(ValueError, match="weight index"):
        moment_stack(table.values, [(True, rows, cols)])
    assert moment_stack(table.values, [(True, cols, rows)]).tobytes() == \
        moment_matrix(table.swapped().values, cols, rows)[None].tobytes()
