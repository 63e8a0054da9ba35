"""Root-system combinatorics: positive-root generation, Coxeter numbers,
good primes, highest-root witnesses, lattice quotients, divisibility and
action indices, characteristic-2 vanishing bounds."""

import math
import time
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liecoh import invalg, rootsys, verifygrid
from liecoh.errors import InputError, ResourceGuardError
from liecoh.invalg import EXTERIOR, POLYNOMIAL, dimension_series
from liecoh.rootsys import (
    LatticeSpec,
    _inverse,
    _root_lattice_coords,
    bad_primes,
    build_root_system,
    char2_vanishing_bound,
    character_lattice,
    cocharacter_lattice,
    cofundamental_exponent,
    coweight_one_witness,
    coxeter_number,
    highest_roots,
    is_good_prime,
    lie_gr_algebra,
    root_action_index,
    root_divisibility,
    smith_invariant_factors,
)

POSITIVE_COUNTS = {
    ("A", 1): 1, ("A", 2): 3, ("A", 5): 15,
    ("B", 2): 4, ("B", 3): 9,
    ("C", 3): 9,
    ("D", 3): 6, ("D", 4): 12, ("D", 5): 20,
    ("E", 6): 36, ("E", 7): 63, ("E", 8): 120,
    ("F", 4): 24,
    ("G", 2): 6,
}

COXETER = {
    ("A", 1): 2, ("A", 2): 3, ("A", 3): 4, ("A", 5): 6,
    ("B", 2): 4, ("B", 3): 6,
    ("C", 3): 6,
    ("D", 4): 6, ("D", 5): 8,
    ("E", 6): 12, ("E", 7): 18, ("E", 8): 30,
    ("F", 4): 12,
    ("G", 2): 6,
}


def test_positive_root_counts():
    for (t, n), want in POSITIVE_COUNTS.items():
        rs = build_root_system([(t, n)])
        assert len(rs.positive_roots) == want, (t, n)


def test_rank_guard_trips_before_the_closure():
    assert len(build_root_system([("B", 32), ("D", 32)]).positive_roots) \
        == 32 ** 2 + 32 * 31
    for comps in ([("A", 600)], [("A", 40), ("C", 25)]):
        with pytest.raises(ResourceGuardError, match="over the cap 64"):
            build_root_system(comps)
    # an impossible component is bad input, whatever the total rank
    with pytest.raises(InputError, match="E100"):
        build_root_system([("E", 100)])


def test_weight_table_guard_for_root_systems():
    # D64 at p = 2, r = 20: 4,032 roots x 20 twists = 80,640 generators of
    # 64 weights, over the 2^22 entries a graded model may hold
    d64 = build_root_system([("D", 64)])
    start = time.perf_counter()
    with pytest.raises(ResourceGuardError,
                       match="root system D64, p = 2, r = 20 would hold "
                             "80640 generators x 64 weights = 5160960 "
                             "entries, over the cap 4194304"):
        lie_gr_algebra(d64, cocharacter_lattice(d64, "adjoint"), 2, 20)
    assert time.perf_counter() - start < 0.1
    # A64 (2,080 roots) holds 2,662,400 entries and passes, as does a
    # table of exactly the cap; one pair more does not
    a64 = build_root_system([("A", 64)])
    invalg.graded_model_guard("A64", 2, 20, len(a64.positive_roots), 64)
    invalg.graded_model_guard("edge", 3, 1, 1 << 20, 2)
    with pytest.raises(ResourceGuardError, match="= 4194308 entries"):
        invalg.graded_model_guard("edge", 3, 1, (1 << 20) + 1, 2)


def test_simple_roots_are_unit_vectors():
    rs = build_root_system([("B", 3)])
    simples = [r.coords for r in rs.positive_roots if r.height == 1]
    assert sorted(simples) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_closure_under_simple_reflections():
    for t, n in [("A", 3), ("B", 3), ("C", 3), ("G", 2), ("D", 4)]:
        rs = build_root_system([(t, n)])
        plus = {r.coords for r in rs.positive_roots}
        cartan = rs.cartan
        for r in rs.positive_roots:
            for s in range(rs.simple_count):
                img = list(r.coords)
                img[s] -= sum(cartan[s][j] * r.coords[j]
                              for j in range(rs.simple_count))
                img = tuple(img)
                neg = tuple(-c for c in img)
                assert img in plus or neg in plus, (t, n, r.coords, s)


def test_all_coords_nonnegative():
    rs = build_root_system([("F", 4)])
    assert all(min(r.coords) >= 0 for r in rs.positive_roots)


def test_heights_and_coxeter():
    rs = build_root_system([("A", 2)])
    assert sorted(r.height for r in rs.positive_roots) == [1, 1, 2]
    for (t, n), want in COXETER.items():
        rs = build_root_system([(t, n)])
        assert coxeter_number(rs) == [want], (t, n)


def test_highest_roots():
    assert highest_roots(build_root_system([("G", 2)]))[0].coords == (3, 2)
    assert highest_roots(build_root_system([("C", 3)]))[0].coords == (2, 2, 1)
    assert highest_roots(build_root_system([("B", 3)]))[0].coords == (1, 2, 2)
    assert highest_roots(build_root_system([("F", 4)]))[0].coords \
        == (2, 3, 4, 2)


def test_cartan_conventions():
    a2 = build_root_system([("A", 2)]).cartan
    assert a2 == ((2, -1), (-1, 2))
    b3 = build_root_system([("B", 3)]).cartan
    assert b3[2][1] == -2 and b3[1][2] == -1
    c3 = build_root_system([("C", 3)]).cartan
    assert c3[1][2] == -2 and c3[2][1] == -1
    g2 = build_root_system([("G", 2)]).cartan
    assert g2 == ((2, -3), (-1, 2))
    f4 = build_root_system([("F", 4)]).cartan
    assert f4[2][1] == -2 and f4[1][2] == -1


def test_length_classes():
    rs = build_root_system([("A", 3)])
    assert all(r.length_class == "long" for r in rs.positive_roots)
    rs = build_root_system([("B", 3)])
    counts = [sum(1 for r in rs.positive_roots if r.length_class == c)
              for c in ("long", "short")]
    assert counts == [6, 3]
    rs = build_root_system([("C", 3)])
    counts = [sum(1 for r in rs.positive_roots if r.length_class == c)
              for c in ("long", "short")]
    assert counts == [3, 6]
    rs = build_root_system([("G", 2)])
    assert sorted(r.length_class for r in rs.positive_roots) \
        == ["long"] * 3 + ["short"] * 3


def test_invalid_components_rejected():
    for bad in [("A", 0), ("B", 1), ("C", 1), ("D", 2), ("E", 5), ("E", 9),
                ("F", 3), ("G", 3), ("H", 2)]:
        with pytest.raises(InputError):
            build_root_system([bad])
    with pytest.raises(InputError):
        build_root_system([])


def test_invalid_lattices_and_roots_rejected():
    rs = build_root_system([("A", 2)])
    lat = character_lattice(rs, "adjoint")
    for make, message in (
            (lambda: cocharacter_lattice(rs, "weight"),
             "unknown lattice kind 'weight'"),
            (lambda: cocharacter_lattice(rs, "custom"),
             "custom lattice needs an explicit basis"),
            (lambda: character_lattice(rs, "custom", basis=[[1, 0, 0],
                                                            [0, 1, 0]]),
             "lattice basis must be square of full rank size"),
            (lambda: _root_lattice_coords(rs, lat, (1, 1, 0)),
             "root coordinate length mismatch"),
            (lambda: _root_lattice_coords(rs, lat, (2, 1)),
             "(2, 1) is not a root of this system"),
            (lambda: root_divisibility(rs, lat, (1, 1), 0),
             "divisor must be positive"),
            (lambda: char2_vanishing_bound(rs, lat, 0),
             "r must be at least 1")):
        with pytest.raises(InputError) as exc:
            make()
        assert str(exc.value) == message


def test_good_primes():
    a5 = build_root_system([("A", 5)])
    assert all(is_good_prime(a5, p) for p in (2, 3, 5, 7))
    g2 = build_root_system([("G", 2)])
    assert not is_good_prime(g2, 2)
    assert not is_good_prime(g2, 3)
    assert is_good_prime(g2, 5)
    b3 = build_root_system([("B", 3)])
    assert not is_good_prime(b3, 2)
    assert is_good_prime(b3, 3)
    with pytest.raises(InputError):
        is_good_prime(b3, 4)


def test_bad_primes_classical():
    assert bad_primes(build_root_system([("A", 4)])) == []
    assert bad_primes(build_root_system([("B", 3)])) == [2]
    assert bad_primes(build_root_system([("D", 5)])) == [2]
    assert bad_primes(build_root_system([("E", 6)])) == [2, 3]
    assert bad_primes(build_root_system([("E", 8)])) == [2, 3, 5]
    assert bad_primes(build_root_system([("F", 4)])) == [2, 3]
    assert bad_primes(build_root_system([("G", 2)])) == [2, 3]


def test_coweight_one_witness():
    assert coweight_one_witness(build_root_system([("A", 3)])) == [1]
    assert coweight_one_witness(build_root_system([("C", 3)])) == [3]
    assert coweight_one_witness(build_root_system([("B", 3)])) == [1]
    assert coweight_one_witness(build_root_system([("D", 4)])) == [1]
    assert coweight_one_witness(build_root_system([("E", 7)])) == [7]
    for t, n in [("E", 8), ("F", 4), ("G", 2)]:
        assert coweight_one_witness(build_root_system([(t, n)])) == [None]


def test_multi_component():
    rs = build_root_system([("A", 1), ("A", 2)])
    assert rs.simple_count == 3
    assert len(rs.positive_roots) == 4
    assert coxeter_number(rs) == [2, 3]
    assert coweight_one_witness(rs) == [1, 2]
    for r in rs.positive_roots:
        assert len(r.coords) == 3


def test_smith_invariant_factors():
    assert smith_invariant_factors([[2, -1], [-1, 2]]) == [1, 3]
    assert smith_invariant_factors([[1, 0], [0, 1]]) == [1, 1]
    assert smith_invariant_factors([[2, 0], [0, 2]]) == [2, 2]
    d4 = build_root_system([("D", 4)]).cartan
    assert smith_invariant_factors(d4) == [1, 1, 2, 2]
    d5 = build_root_system([("D", 5)]).cartan
    assert smith_invariant_factors(d5) == [1, 1, 1, 1, 4]


def test_lattice_exponent():
    # the largest invariant factor, read off the inverse's denominator
    def exponent(basis):
        return LatticeSpec("custom", "character", tuple(map(tuple, basis))) \
            .exponent

    assert exponent([[2, -1], [-1, 2]]) == 3
    assert exponent([[1, 0], [0, 1]]) == 1
    assert exponent([[2, 0], [0, 2]]) == 2
    assert exponent(build_root_system([("D", 4)]).cartan) == 2
    assert exponent(build_root_system([("D", 5)]).cartan) == 4


def fraction_inverse(basis):
    """Reference: (m, d) by Gauss-Jordan over Fractions on the transposed
    basis, d the least common denominator; None for a singular basis."""
    n = len(basis)
    aug = [[Fraction(row[i]) for row in basis]
           + [Fraction(int(i == k)) for k in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((i for i in range(col, n) if aug[i][col]), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [v / aug[col][col] for v in aug[col]]
        for i in range(n):
            if i != col:
                f = aug[i][col]
                aug[i] = [v - f * w for v, w in zip(aug[i], aug[col])]
    d = math.lcm(*(v.denominator for row in aug for v in row[n:]))
    return tuple(tuple(int(v * d) for v in row[n:]) for row in aug), d


def cofactor_det(mat):
    """Determinant by cofactor expansion along the first row."""
    if not mat:
        return 1
    return sum((-1) ** j * v * cofactor_det([row[:j] + row[j + 1:]
                                             for row in mat[1:]])
               for j, v in enumerate(mat[0]) if v)


def minors_gcd(mat, k):
    """gcd of all k x k minors of the matrix (0 when all vanish)."""
    return math.gcd(*(cofactor_det([[mat[i][j] for j in cols] for i in rows])
                      for rows in combinations(range(len(mat)), k)
                      for cols in combinations(range(len(mat[0])), k)))


@st.composite
def int_matrices(draw, square=True, max_n=5):
    n = draw(st.integers(1, max_n))
    m = n if square else draw(st.integers(1, max_n))
    rows = [[draw(st.integers(-4, 4)) for _ in range(m)] for _ in range(n)]
    if n > 1 and draw(st.booleans()):     # a row copied, scaled: singular
        rows[-1] = [draw(st.integers(-2, 2)) * v for v in rows[0]]
    return tuple(map(tuple, rows))


@settings(max_examples=300, deadline=None)
@given(int_matrices())
@example(((0, 1), (1, 0)))      # negative determinant, pivot row swapped
@example(((1, 1), (1, 1)))
@example(((0, 0), (0, 0)))
def test_inverse_matches_a_fraction_gauss_jordan(basis):
    want = fraction_inverse(basis)
    if want is None:
        with pytest.raises(InputError, match="lattice basis is singular"):
            _inverse(basis)
        return
    assert _inverse(basis) == want


@settings(max_examples=200, deadline=None)
@given(int_matrices(max_n=4))
@example(((0, 1), (1, 0)))
def test_exponent_is_det_over_the_minors_gcd(basis):
    # independent of any elimination: the largest invariant factor is
    # |det| / gcd of the (n-1)-minors, both by cofactor expansion
    det = cofactor_det([list(row) for row in basis])
    lat = LatticeSpec("custom", "character", basis)
    if det == 0:
        with pytest.raises(InputError, match="lattice basis is singular"):
            lat.exponent
        return
    n = len(basis)
    assert lat.exponent == abs(det) // minors_gcd(basis, n - 1)


@settings(max_examples=200, deadline=None)
@given(int_matrices(square=False, max_n=4))
def test_smith_factors_match_the_determinantal_divisors(mat):
    # d_1 ... d_k is the gcd of the k x k minors, for every k
    factors = smith_invariant_factors(mat)
    assert len(factors) == min(len(mat), len(mat[0]))
    for k in range(1, len(factors) + 1):
        assert math.prod(factors[:k]) == minors_gcd(mat, k), k


def test_lattices_invert_without_fractions(monkeypatch):
    # the coordinate map and the exponent come from integer elimination
    # only: with Fraction unusable in rootsys, D64's four standard lattices
    # still invert, and m . basis^T = d I holds exactly
    d64 = build_root_system([("D", 64)])

    def no_fractions(*args):
        raise AssertionError("rational arithmetic in a lattice inverse")

    monkeypatch.setattr(rootsys, "Fraction", no_fractions)
    for side, kind, want in [(character_lattice, "adjoint", 2),
                             (character_lattice, "sc", 1),
                             (cocharacter_lattice, "adjoint", 1),
                             (cocharacter_lattice, "sc", 2)]:
        lat = side(d64, kind)
        m, d = lat.coordinate_map
        assert lat.exponent == d == want, (side.__name__, kind)
        for i, row in enumerate(m):
            assert [sum(a * b for a, b in zip(row, col))
                    for col in lat.basis] == [d * (i == j) for j in range(64)]


def test_cofundamental_exponent():
    for t, n in [("A", 3), ("B", 3), ("E", 6), ("G", 2)]:
        rs = build_root_system([(t, n)])
        assert cofundamental_exponent(rs, cocharacter_lattice(rs)) == 1
    for n in (2, 3, 4, 5):
        rs = build_root_system([("A", n - 1)])
        lat = cocharacter_lattice(rs, "simply_connected")
        assert cofundamental_exponent(rs, lat) == n
    for t, n, want in [("B", 3, 2), ("C", 3, 2), ("D", 4, 2), ("D", 5, 4),
                       ("E", 6, 3), ("E", 7, 2)]:
        rs = build_root_system([(t, n)])
        lat = cocharacter_lattice(rs, "simply_connected")
        assert cofundamental_exponent(rs, lat) == want, (t, n)


def test_singular_lattice_rejected():
    rs = build_root_system([("A", 2)])
    lat = cocharacter_lattice(rs, "custom", basis=[[1, 1], [1, 1]])
    with pytest.raises(InputError):
        cofundamental_exponent(rs, lat)
    # a failed exponent is not cached: the next call raises again
    with pytest.raises(InputError):
        cofundamental_exponent(rs, lat)


def test_lie_gr_algebra_rejects_a_singular_lattice(monkeypatch):
    rs = build_root_system([("A", 2)])
    built = []
    pair = invalg.graded_pair
    monkeypatch.setattr(rootsys, "graded_pair",
                        lambda *args: built.append(args) or pair(*args))
    for basis in ([[0, 0], [0, 0]], [[1, 1], [1, 1]]):
        lat = cocharacter_lattice(rs, "custom", basis=basis)
        with pytest.raises(InputError, match="lattice basis is singular"):
            lie_gr_algebra(rs, lat, 3, 1)
    assert built == []
    lat = cocharacter_lattice(rs, "custom", basis=[[1, 1], [0, 1]])
    assert len(lie_gr_algebra(rs, lat, 3, 1).generators) == 6


def test_lie_gr_algebra_rejects_a_hand_built_singular_lattice():
    # every lattice is checked, not only those of kind "custom"
    rs = build_root_system([("A", 2)])
    lat = LatticeSpec("adjoint", "cocharacter", ((0, 0), (0, 0)))
    with pytest.raises(InputError, match="lattice basis is singular"):
        lie_gr_algebra(rs, lat, 3, 1)


def test_c11_inverts_each_lattice_once(monkeypatch):
    # c11 checks 9 types, each on its adjoint and simply connected
    # cocharacter lattice, and bounds r = 1, 2, 3 on both: 18 lattices; it
    # then builds the A2, A3 and B2 adjoint algebras for r = 1, 2, 3 on one
    # lattice each: 3 more.  Each lattice is inverted once and its exponent
    # read again for every bound and algebra
    calls = []
    inverse = rootsys._inverse

    def counting(basis):
        calls.append(basis)
        return inverse(basis)

    monkeypatch.setattr(rootsys, "_inverse", counting)
    assert verifygrid.c11()["pass"] is True
    assert len(calls) == 21


def test_root_divisibility_adjoint_primitive():
    for t, n in [("A", 3), ("B", 3), ("C", 3)]:
        rs = build_root_system([(t, n)])
        lat = character_lattice(rs, "adjoint")
        for root in rs.positive_roots:
            for d in (2, 3):
                assert not root_divisibility(rs, lat, root, d), (t, n, root)


def test_root_divisibility_weight_lattice():
    rs = build_root_system([("C", 3)])
    lat = character_lattice(rs, "simply_connected")
    for root in rs.positive_roots:
        want = root.length_class == "long"
        assert root_divisibility(rs, lat, root, 2) == want, root
    rs = build_root_system([("A", 2)])
    lat = character_lattice(rs, "simply_connected")
    for root in rs.positive_roots:
        assert not root_divisibility(rs, lat, root, 2), root


LATTICE_TYPES = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
                 ("B", 4), ("C", 2), ("C", 3), ("C", 4), ("D", 4), ("D", 5),
                 ("G", 2), ("F", 4), ("E", 6), ("E", 7), ("E", 8)]


@pytest.mark.parametrize("t,n", LATTICE_TYPES,
                         ids=[f"{t}{n}" for t, n in LATTICE_TYPES])
def test_lattice_coords_match_a_fraction_solve(t, n):
    rs = build_root_system([(t, n)])
    for side in (character_lattice, cocharacter_lattice):
        for kind in ("adjoint", "sc"):
            lat = side(rs, kind)
            m, d = fraction_inverse(lat.basis)
            for root in rs.positive_roots:
                fw = [sum(rs.cartan[i][s] * root.coords[s] for s in range(n))
                      for i in range(n)]
                want = [Fraction(sum(a * b for a, b in zip(row, fw)), d)
                        for row in m]
                if all(v.denominator == 1 for v in want):
                    assert _root_lattice_coords(rs, lat, root) == want
                    continue
                # off the lattice: the same message, exact coordinates
                with pytest.raises(InputError) as exc:
                    _root_lattice_coords(rs, lat, root)
                assert str(exc.value) == (
                    f"root {root.coords} is not in the given lattice "
                    f"(coords {want})")


def test_one_lattice_composes_a_map_per_root_system():
    # A2 and G2 share a rank, so one unimodular lattice serves both: each
    # system gets its own composed map, made on its first root
    a2, g2 = build_root_system([("A", 2)]), build_root_system([("G", 2)])
    lat = character_lattice(a2, "custom", basis=[[2, 1], [1, 1]])
    m, d = fraction_inverse(lat.basis)
    for rs in (a2, g2, a2):
        for root in rs.positive_roots:
            fw = [sum(a * c for a, c in zip(row, root.coords))
                  for row in rs.cartan]
            assert _root_lattice_coords(rs, lat, root) == [
                Fraction(sum(a * b for a, b in zip(row, fw)), d) for row in m]
    assert list(lat._root_maps) == [id(a2), id(g2)]


def test_singular_lattice_rejected_for_root_coords():
    rs = build_root_system([("A", 2)])
    lat = character_lattice(rs, "custom", basis=[[1, 1], [1, 1]])
    for _ in range(2):      # a failed map is not cached as a result
        with pytest.raises(InputError, match="lattice basis is singular"):
            root_divisibility(rs, lat, rs.positive_roots[0], 2)


def test_root_not_in_lattice_reported():
    rs = build_root_system([("A", 2)])
    lat = character_lattice(rs, "custom", basis=[[2, 0], [0, 2]])
    root = rs.positive_roots[0]
    with pytest.raises(InputError):
        root_divisibility(rs, lat, root, 2)


def test_action_index_adjoint_all_one():
    for t, n in [("A", 3), ("B", 3), ("C", 3)]:
        rs = build_root_system([(t, n)])
        lat = character_lattice(rs, "adjoint")
        for q in (3, 4, 5, 7, 8, 9):
            for root in rs.positive_roots:
                assert root_action_index(rs, lat, root, q) == 1


def test_action_index_weight_lattice_long_roots():
    for n in (2, 3):
        rs = build_root_system([("C", n)])
        lat = character_lattice(rs, "simply_connected")
        longs = [r for r in rs.positive_roots if r.length_class == "long"]
        assert len(longs) == n
        for root in longs:
            for q in (3, 5, 7, 9):
                assert root_action_index(rs, lat, root, q) == 2, (n, q)
            for q in (2, 4, 8):
                assert root_action_index(rs, lat, root, q) == 1, (n, q)
    with pytest.raises(InputError):
        root_action_index(rs, lat, rs.positive_roots[0], 6)


def test_char2_vanishing_bound():
    rs = build_root_system([("D", 4)])
    assert char2_vanishing_bound(rs, cocharacter_lattice(rs), 3) \
        == Fraction(3)
    rs = build_root_system([("A", 2)])
    lat = cocharacter_lattice(rs, "simply_connected")
    assert char2_vanishing_bound(rs, lat, 2) == Fraction(2, 3)
    rs = build_root_system([("C", 4)])
    lat = cocharacter_lattice(rs, "simply_connected")
    assert char2_vanishing_bound(rs, lat, 5) == Fraction(5)
    rs = build_root_system([("B", 3)])
    assert char2_vanishing_bound(rs, cocharacter_lattice(rs), 1) \
        == Fraction(1)
    for t, n in [("E", 8), ("F", 4), ("G", 2)]:
        rs = build_root_system([(t, n)])
        with pytest.raises(InputError):
            char2_vanishing_bound(rs, cocharacter_lattice(rs), 2)


def test_lie_gr_algebra_adjoint_a2():
    rs = build_root_system([("A", 2)])
    lat = cocharacter_lattice(rs)
    alg = lie_gr_algebra(rs, lat, 2, 1)
    assert alg.torus_rank == 2
    assert alg.moduli == (1, 1)
    assert len(alg.generators) == 3
    assert all(g.parity == POLYNOMIAL and g.degree == 1
               for g in alg.generators)

    alg = lie_gr_algebra(rs, lat, 2, 2)
    assert len(alg.generators) == 6
    assert alg.moduli == (3, 3)
    weights = sorted(g.weight for g in alg.generators)
    assert weights == [(0, 1), (0, 2), (1, 0), (1, 1), (2, 0), (2, 2)]


def test_lie_gr_algebra_counts_and_odd_p():
    rs = build_root_system([("B", 2)])
    alg = lie_gr_algebra(rs, cocharacter_lattice(rs), 2, 2)
    assert len(alg.generators) == 8

    rs = build_root_system([("A", 2)])
    alg = lie_gr_algebra(rs, cocharacter_lattice(rs), 3, 1)
    assert len(alg.generators) == 6
    assert alg.moduli == (2, 2)
    parities = sorted(g.parity for g in alg.generators)
    assert parities == [EXTERIOR] * 3 + [POLYNOMIAL] * 3


def test_adjoint_char2_vanishing_below_r():
    for t, n in [("A", 2), ("A", 3), ("B", 2)]:
        rs = build_root_system([(t, n)])
        for r in (1, 2, 3):
            alg = lie_gr_algebra(rs, cocharacter_lattice(rs), 2, r)
            dims = dimension_series(alg, r, filter="invariant")
            assert all(d == 0 for d in dims[1:r]), (t, n, r)
            assert dims[r] > 0, (t, n, r)


def test_f4_series_at_p13_frozen():
    # F4 (Coxeter number 12) at p = 13 to degree 2p - 3 = 23: counted by
    # state, since the top degree alone holds 82,501,299 invariants
    rs = build_root_system([("F", 4)])
    alg = lie_gr_algebra(rs, cocharacter_lattice(rs, "adjoint"), 13, 1)
    dims = dimension_series(alg, 23, "invariant")
    assert dims == [1] + [0] * 16 + [671, 12685, 129091, 913950, 4974573,
                                     22031060, 82501299]
