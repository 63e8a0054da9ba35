"""Rank-one landmark computations: first invariant degree, witnesses,
lowest non-nilpotent degree, square-free checks."""

import pytest

from liecoh import invalg
from liecoh.errors import InputError
from liecoh.gl2 import gl2_algebra, gl2_landmarks, sl2_algebra, sl2_landmarks
from liecoh.invalg import EXTERIOR, POLYNOMIAL, dimension_series


def test_gl2_algebra_small_odd():
    alg = gl2_algebra(3, 1)
    assert alg.moduli == (2,)
    assert [(g.id, g.parity, g.degree, g.weight) for g in alg.generators] == [
        ("x0", EXTERIOR, 1, (1,)),
        ("y0", POLYNOMIAL, 2, (1,)),
    ]


def test_gl2_algebra_char2():
    alg = gl2_algebra(2, 3)
    assert alg.moduli == (7,)
    assert alg.char2_mode
    assert [(g.id, g.parity, g.degree, g.weight) for g in alg.generators] == [
        ("x0", POLYNOMIAL, 1, (1,)),
        ("x1", POLYNOMIAL, 1, (2,)),
        ("x2", POLYNOMIAL, 1, (4,)),
    ]


def test_gl2_algebra_5_2():
    alg = gl2_algebra(5, 2)
    assert alg.moduli == (24,)
    parities = [g.parity for g in alg.generators]
    assert parities == [EXTERIOR, EXTERIOR, POLYNOMIAL, POLYNOMIAL]
    assert [g.weight for g in alg.generators] == [(1,), (5,), (1,), (5,)]


def test_sl2_algebra_moduli():
    assert sl2_algebra(5, 1).moduli == (2,)
    assert sl2_algebra(3, 2).moduli == (4,)
    # degenerate but allowed: trivial torus
    assert sl2_algebra(3, 1).moduli == (1,)


def test_sl2_rejects_even_characteristic():
    with pytest.raises(InputError):
        sl2_algebra(2, 1)
    with pytest.raises(InputError):
        sl2_landmarks(2, 2)


def test_gl2_landmarks_p3_r1():
    rep = gl2_landmarks(3, 1)
    assert rep["first_positive_degree"] == 3
    assert rep["first_dim"] == 1
    assert rep["witness"]["str"] == "x0*y0"
    assert rep["lowest_nonnilpotent_degree"] == 4
    assert rep["nonnilpotent_witness"]["str"] == "y0^2"
    assert rep["square_free_check"] is None
    assert rep["match"] is True
    assert rep["expected"]["first_positive_degree"] == 3
    assert rep["expected"]["witness"] == "x0*y0"
    assert rep["expected"]["lowest_nonnilpotent_degree"] == 4


def test_gl2_landmarks_p2_r2():
    rep = gl2_landmarks(2, 2)
    assert rep["first_positive_degree"] == 2
    assert rep["first_dim"] == 1
    assert rep["witness"]["str"] == "x0*x1"
    # in characteristic 2 nothing is nilpotent, so the landmarks coincide
    assert rep["lowest_nonnilpotent_degree"] == 2
    assert rep["nonnilpotent_witness"]["str"] == "x0*x1"
    assert rep["square_free_check"] is True
    assert rep["match"] is True


@pytest.mark.parametrize("r", [16, 20])
def test_gl2_landmarks_p2_large_r_keep_exact_pruning(r):
    # the suffix sets of modulus 2^r - 1 fit the rows budget, so the count
    # prunes exactly: one entry per degree 0..r, x0 * ... * x_k, is born
    stats = {}
    invalg.invariant_monomials_by_degree(gl2_algebra(2, r), 1, r, stats=stats)
    assert (stats["peak"], stats["births"]) == (2, r + 1)
    assert stats["leaves"] == [0] * (r - 1) + [1]
    rep = gl2_landmarks(2, r)
    assert rep["first_positive_degree"] == r and rep["first_dim"] == 1
    assert rep["match"] is True


def test_gl2_landmarks_p5_r1():
    rep = gl2_landmarks(5, 1)
    assert rep["first_positive_degree"] == 7
    assert rep["witness"]["str"] == "x0*y0^3"
    assert rep["lowest_nonnilpotent_degree"] == 8
    assert rep["nonnilpotent_witness"]["str"] == "y0^4"
    assert rep["match"] is True


def test_gl2_landmarks_p3_r2():
    rep = gl2_landmarks(3, 2)
    assert rep["first_positive_degree"] == 6
    assert rep["first_dim"] == 1
    assert rep["witness"]["str"] == "x0*x1*y0*y1"
    assert rep["lowest_nonnilpotent_degree"] == 8
    assert rep["nonnilpotent_witness"]["str"] == "y0^2*y1^2"
    assert rep["match"] is True


GRID = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1)]


def test_gl2_landmark_grid_matches_formulas():
    for p, r in GRID:
        rep = gl2_landmarks(p, r)
        assert rep["match"] is True, (p, r)
        assert rep["first_positive_degree"] == r * (2 * p - 3), (p, r)
        assert rep["first_dim"] == 1, (p, r)
        dims = dimension_series(gl2_algebra(p, r), r * (2 * p - 3),
                                filter="invariant")
        assert all(d == 0 for d in dims[1:-1]), (p, r)
        assert dims[-1] == 1, (p, r)


def test_gl2_nonnilpotent_grid_odd():
    for p, r in [(3, 1), (3, 2), (5, 1), (7, 1)]:
        rep = gl2_landmarks(p, r)
        low = rep["lowest_nonnilpotent_degree"]
        assert low == r * (2 * p - 2), (p, r)
        want = {f"y{k}": p - 1 for k in range(r)}
        assert rep["nonnilpotent_witness"]["exps"] == want, (p, r)
        alg = gl2_algebra(p, r)
        inv = dimension_series(alg, low, filter="invariant")
        nil = dimension_series(alg, low, filter="invariant_nilpotent")
        assert nil[low] < inv[low], (p, r)


def test_gl2_char2_square_free():
    for r in (1, 2, 3):
        rep = gl2_landmarks(2, r)
        assert rep["square_free_check"] is True, r
        assert rep["first_positive_degree"] == r
        assert rep["witness"]["exps"] == {f"x{k}": 1 for k in range(r)}


def test_sl2_landmarks_examples():
    rep = sl2_landmarks(5, 1)
    assert rep["first_positive_degree"] == 3
    assert rep["first_dim"] == 1
    assert rep["witness"]["str"] == "x0*y0"
    assert rep["match"] is True

    rep = sl2_landmarks(7, 1)
    assert rep["first_positive_degree"] == 5
    assert rep["witness"]["str"] == "x0*y0^2"
    assert rep["match"] is True

    rep = sl2_landmarks(3, 2)
    assert rep["first_positive_degree"] == 2
    assert rep["witness"]["str"] == "x0*x1"
    assert rep["match"] is True


def test_sl2_degenerate_trivial_torus():
    rep = sl2_landmarks(3, 1)
    assert rep["first_positive_degree"] == 1
    assert rep["first_dim"] == 1
    assert rep["witness"]["str"] == "x0"
    assert rep["match"] is True


def test_landmark_report_shape():
    rep = gl2_landmarks(3, 1)
    assert rep["group"] == "GL2"
    assert rep["p"] == 3 and rep["r"] == 1
    assert len(rep["spec_hash"]) == 12
    assert set(rep["witness"]) == {"exps", "str"}
    srep = sl2_landmarks(5, 1)
    assert srep["group"] == "SL2"
    # SL2 expectations cover only the first landmark
    assert set(srep["expected"]) == {
        "first_positive_degree", "first_dim", "witness"}


def test_landmarks_large_p_frozen_in_one_walk(monkeypatch):
    walks = []
    count = invalg._count_invariants

    def record(alg, lo, hi, *args):
        walks.append((lo, hi))
        return count(alg, lo, hi, *args)

    monkeypatch.setattr(invalg, "_count_invariants", record)
    rep = gl2_landmarks(1021, 1)
    # one listing over degrees 1..r(2p-2), the square-free check included
    assert walks == [(1, 2040)]
    assert rep["match"] is True
    assert rep["spec_hash"] == "7bb1b1a956a3"
    assert (rep["first_positive_degree"], rep["first_dim"]) == (2039, 1)
    assert rep["witness"] == {"exps": {"x0": 1, "y0": 1019},
                              "str": "x0*y0^1019"}
    assert rep["lowest_nonnilpotent_degree"] == 2040
    assert rep["nonnilpotent_witness"] == {"exps": {"y0": 1020},
                                           "str": "y0^1020"}
    assert rep["square_free_check"] is None

    walks.clear()
    rep = sl2_landmarks(1021, 1)
    assert walks == [(1, 1020)]
    assert rep["match"] is True
    assert rep["spec_hash"] == "a281b160e972"
    assert (rep["first_positive_degree"], rep["first_dim"]) == (1019, 1)
    assert rep["witness"] == {"exps": {"x0": 1, "y0": 509},
                              "str": "x0*y0^509"}
    assert rep["lowest_nonnilpotent_degree"] == 1020
    assert rep["nonnilpotent_witness"] == {"exps": {"y0": 510},
                                           "str": "y0^510"}

    # in characteristic 2 the listing stops at degree r: x_0 ... x_{r-1}
    walks.clear()
    assert gl2_landmarks(2, 12)["match"] is True
    assert walks == [(1, 12)]
