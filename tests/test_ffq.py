import gc
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liecoh import ffq
from liecoh.errors import InputError, ResourceGuardError
from liecoh.ffq import (
    ENUMERATION_CAP,
    Fq,
    FqMatrix,
    find_irreducible,
    is_prime,
    mat_pow,
    multiplicative_generator,
    prime_power,
    unitriangular_elements,
)


# ---------------------------------------------------------------------------
# helpers independent of the library internals
# ---------------------------------------------------------------------------

def poly_mul_naive(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def all_monic(p, degree):
    def rec(prefix):
        if len(prefix) == degree:
            yield tuple(prefix) + (1,)
            return
        for c in range(p):
            yield from rec(prefix + [c])
    yield from rec([])


def reducible_by_product(f, p):
    """True iff f factors as a product of two lower-degree monic polynomials."""
    deg = len(f) - 1
    for d in range(1, deg // 2 + 1):
        for g in all_monic(p, d):
            for h in all_monic(p, deg - d):
                if poly_mul_naive(g, h, p) == tuple(f):
                    return True
    return False


# ---------------------------------------------------------------------------
# prime powers and irreducible moduli
# ---------------------------------------------------------------------------

def test_prime_power_validation():
    assert prime_power(3, 2) == 9
    assert prime_power(2, 20) == 2 ** 20
    with pytest.raises(InputError, match="p = 4 is not prime"):
        prime_power(4, 1)
    with pytest.raises(InputError, match="r = 0 must be positive"):
        prime_power(3, 0)
    with pytest.raises(ResourceGuardError):
        prime_power(2, 21)
    with pytest.raises(ResourceGuardError):
        prime_power(3, 10 ** 9)
    # is_prime(2.0) holds, so a float must be refused before it is asked
    for p, r in ((2.0, 1), (2, 1.0), (True, 1), (3, True), ("3", 1)):
        with pytest.raises(InputError, match="must be an integer"):
            prime_power(p, r)
        with pytest.raises(InputError, match="must be an integer"):
            Fq(p, r)


def is_irreducible_by_trial_division(f, p):
    """True when no monic polynomial of degree 1 .. deg // 2 divides f."""
    deg = len(f) - 1
    return all(any(poly_rem_naive(f, g, p))
               for d in range(1, deg // 2 + 1) for g in all_monic(p, d))


def test_irreducibility_test_matches_trial_division():
    # every monic polynomial of degree 1 .. 6 over F_2 and 1 .. 4 over F_3
    # and F_5, reducible or not
    for p, top in ((2, 6), (3, 4), (5, 4)):
        for deg in range(1, top + 1):
            for f in all_monic(p, deg):
                assert ffq._is_irreducible(f, p) == \
                    is_irreducible_by_trial_division(f, p), (p, f)


def test_find_irreducible_frozen_values():
    assert find_irreducible(2, 1) == (0, 1)
    assert find_irreducible(3, 1) == (0, 1)
    assert find_irreducible(2, 2) == (1, 1, 1)
    assert find_irreducible(3, 2) == (1, 0, 1)


def test_find_irreducible_is_irreducible_small_degrees():
    for p in (2, 3, 5):
        for r in (2, 3, 4):
            f = find_irreducible(p, r)
            assert len(f) == r + 1 and f[-1] == 1
            assert not reducible_by_product(f, p)


def test_find_irreducible_is_lex_smallest():
    # every monic polynomial lexicographically below the chosen one factors
    for p, r in ((2, 2), (2, 3), (3, 2), (5, 2)):
        f = find_irreducible(p, r)
        for g in all_monic(p, r):
            if g < f:
                assert reducible_by_product(g, p)


def test_find_irreducible_frozen_large_fields():
    # values returned by the full lexicographic search, before it skipped
    # candidates with a zero constant term
    assert find_irreducible(2, 20) == (1,) + (0,) * 16 + (1, 0, 0, 1)
    assert find_irreducible(3, 12) == (1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 1)
    assert find_irreducible(5, 8) == (1, 0, 0, 0, 0, 1, 1, 0, 1)
    assert find_irreducible(7, 7) == (1, 0, 0, 0, 0, 0, 6, 1)
    assert find_irreducible(1021, 2) == (1, 5, 1)


def lex_smallest_irreducible(p, r):
    """First monic polynomial of degree r, in all_monic order, that is not a
    product of two lower-degree monic polynomials."""
    products = {poly_mul_naive(g, h, p)
                for d in range(1, r // 2 + 1)
                for g in all_monic(p, d)
                for h in all_monic(p, r - d)}
    f = next(f for f in all_monic(p, r) if f not in products)
    assert not reducible_by_product(f, p)
    return f


def test_find_irreducible_matches_brute_force_up_to_3000():
    cases = [(p, r) for p in range(2, 3001) if is_prime(p)
             for r in range(1, 12) if p ** r <= 3000]
    assert len(cases) == 466
    for p, r in cases:
        assert find_irreducible(p, r) == lex_smallest_irreducible(p, r), (p, r)


# ---------------------------------------------------------------------------
# field arithmetic
# ---------------------------------------------------------------------------

def test_from_int_round_trip():
    k9 = Fq(3, 2)
    seen = set()
    for k in range(9):
        e = k9.from_int(k)
        assert e.to_int() == k
        seen.add(e)
    assert len(seen) == 9


def test_element_order_of_listing():
    # elements() runs in lexicographic coefficient order, constant term first
    k4 = Fq(2, 2)
    assert [e.coeffs for e in k4.elements()] == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_field_axioms_exhaustive_small():
    for p, r in ((2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)):
        k = Fq(p, r)
        elems = list(k.elements())
        one, zero = k.one(), k.zero()
        for a in elems:
            assert a + zero == a
            assert a * one == a
            assert a * zero == zero
            assert a - a == zero
            if not a.is_zero():
                assert a * a.inverse() == one
        for a in elems:
            for b in elems:
                assert a + b == b + a
                assert a * b == b * a


def test_field_axioms_random_medium():
    rng = random.Random(20260818)
    for p, r in ((2, 4), (3, 3), (5, 2), (7, 2)):
        k = Fq(p, r)
        for _ in range(200):
            a = k.from_int(rng.randrange(k.q))
            b = k.from_int(rng.randrange(k.q))
            c = k.from_int(rng.randrange(k.q))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            if not a.is_zero():
                assert (a * b) * a.inverse() == b


def test_pow_matches_repeated_multiplication():
    k = Fq(3, 2)
    a = k.from_int(5)
    acc = k.one()
    for e in range(12):
        assert a ** e == acc
        acc = acc * a
    assert a ** (-1) == a.inverse()
    assert a ** (-2) == (a * a).inverse()


def digits(k, p, r):
    return tuple(k // p ** i % p for i in range(r))


def poly_rem_naive(a, f, p):
    """a modulo monic f over F_p, as deg f coefficients."""
    r = len(f) - 1
    a = list(a) + [0] * r
    for i in range(len(a) - 1, r - 1, -1):
        c = a[i] % p
        for j, fj in enumerate(f):
            a[i - r + j] = (a[i - r + j] - c * fj) % p
    return tuple(c % p for c in a[:r])


def test_number_arithmetic_matches_naive_reference():
    # every field with q <= 3000: all pairs up to q = 64, else a sample
    rng = random.Random(20261018)
    cases = [(p, r) for p in range(2, 3001) if is_prime(p)
             for r in range(1, 12) if p ** r <= 3000]
    for p, r in cases:
        f = Fq(p, r)

        def ref_mul(a, b):
            prod = poly_mul_naive(digits(a, p, r), digits(b, p, r), p)
            rem = poly_rem_naive(prod, f.modulus, p)
            return sum(c * p ** i for i, c in enumerate(rem))

        def ref_pow(a, e):
            acc = 1
            while e:
                if e & 1:
                    acc = ref_mul(acc, a)
                a, e = ref_mul(a, a), e >> 1
            return acc

        pairs = ([(a, b) for a in range(f.q) for b in range(f.q)]
                 if f.q <= 64 else
                 [(rng.randrange(f.q), rng.randrange(f.q)) for _ in range(30)])
        for a, b in pairs:
            assert f.mul(a, b) == ref_mul(a, b), (p, r, a, b)
        for a in [1, f.q - 1] + [rng.randrange(1, f.q) for _ in range(3)]:
            inv = f.inv(a)
            assert ref_mul(a, inv) == 1, (p, r, a)
            for e in (0, 1, 2, 3, f.q - 2, f.q - 1, f.q, 3 * f.q + 4):
                assert f.pow(a, e) == ref_pow(a, e), (p, r, a, e)
                assert f.pow(a, -e) == ref_pow(inv, e), (p, r, a, -e)
        assert f.pow(0, 0) == 1 and f.pow(0, 5) == 0
        with pytest.raises(ZeroDivisionError):
            f.inv(0)
        with pytest.raises(ZeroDivisionError):
            f.pow(0, -1)
    assert len(cases) == 466


def test_multiplicative_generator_frozen_values():
    # F_4: coefficients (0, 1), the element t; F_9: (1, 1), 1 + t
    assert multiplicative_generator(Fq(3, 1)) == 2
    assert multiplicative_generator(Fq(5, 1)) == 2
    assert multiplicative_generator(Fq(7, 1)) == 3
    assert multiplicative_generator(Fq(2, 2)) == 2
    assert multiplicative_generator(Fq(3, 2)) == 4
    assert multiplicative_generator(Fq(2, 1)) == 1
    # element numbers of the generator, as `field info` reports them
    frozen = {(2, 3): 4, (2, 4): 4, (2, 8): 160, (2, 10): 256, (3, 3): 18,
              (3, 6): 324, (5, 2): 16, (5, 3): 50, (7, 2): 15, (11, 2): 45,
              (13, 2): 79, (2, 20): 524288}
    for (p, r), k in frozen.items():
        field = Fq(p, r)
        assert multiplicative_generator(field) == k, (p, r)
        assert field.generator == k, (p, r)


def test_multiplicative_generator_has_full_order():
    for p, r in ((2, 2), (3, 2), (5, 1), (7, 1), (2, 4), (3, 3), (13, 1)):
        k = Fq(p, r)
        g = k.from_int(multiplicative_generator(k))
        n = k.q - 1
        acc = k.one()
        seen = set()
        for _ in range(n):
            acc = acc * g
            seen.add(acc)
        assert acc == k.one()
        assert len(seen) == n


def test_multiplicative_generator_is_lex_smallest():
    # in F_8 and F_25 the smallest element number of full order (2 and 7)
    # is not the lexicographically smallest coefficient vector (4 and 16)
    for p, r, by_number in ((3, 2, 4), (2, 3, 2), (5, 2, 7)):
        k = Fq(p, r)
        g = multiplicative_generator(k)
        for e in k.elements():
            if e.coeffs >= k.from_int(g).coeffs:
                break
            if e.is_zero():
                continue
            assert k.multiplicative_order(e.to_int()) < k.q - 1
        assert k.multiplicative_order(g) == k.q - 1
        assert by_number == next(
            x for x in range(1, k.q)
            if k.multiplicative_order(x) == k.q - 1)
    with pytest.raises(InputError):
        Fq(5, 1).multiplicative_order(0)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

def test_mat_pow_identity_and_jordan():
    k3 = Fq(3, 1)
    eye = FqMatrix.identity(k3, 3)
    assert mat_pow(eye, 5) == eye
    jordan = FqMatrix.from_ints(k3, [[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    assert mat_pow(jordan, 3) == eye
    assert mat_pow(jordan, 2) != eye

    k2 = Fq(2, 1)
    j2 = FqMatrix.from_ints(k2, [[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    assert mat_pow(j2, 2) != FqMatrix.identity(k2, 3)
    assert mat_pow(j2, 4) == FqMatrix.identity(k2, 3)


def test_mat_pow_zero_exponent():
    k = Fq(2, 2)
    m = FqMatrix.from_ints(k, [[1, 3], [0, 1]])
    assert mat_pow(m, 0) == FqMatrix.identity(k, 2)


def test_mat_pow_product_count(monkeypatch):
    k = Fq(3, 2)
    m = FqMatrix.from_ints(k, [[1, 4, 7], [0, 1, 2], [0, 0, 1]])
    calls = []
    product = FqMatrix.__mul__

    def counting(a, b):
        calls.append(1)
        return product(a, b)

    monkeypatch.setattr(FqMatrix, "__mul__", counting)
    for e in range(41):
        calls.clear()
        mat_pow(m, e)
        want = e.bit_length() - 1 + bin(e).count("1") - 1 if e > 1 else 0
        assert len(calls) == want, e
        # the count the matrix checks' work guard uses
        assert e == 0 or ffq.mat_pow_products(e) == want, e


def entrywise_product(x, y):
    """Matrix product from FqElement * and + alone."""
    f, n = x.field, x.n
    xs, ys = ([[f.from_int(v) for v in row] for row in m.to_int_rows()]
              for m in (x, y))
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = f.zero()
            for k in range(n):
                acc = acc + xs[i][k] * ys[k][j]
            row.append(acc.to_int())
        rows.append(row)
    return FqMatrix.from_ints(f, rows)


PRODUCT_FIELDS = [Fq(p, r) for p, r in
                  ((2, 1), (2, 3), (2, 8), (3, 2), (3, 6), (5, 1), (7, 2),
                   (1021, 2))]


@pytest.mark.parametrize("f", PRODUCT_FIELDS + [Fq(2, 20), Fq(1021, 1)],
                         ids=repr)
def test_matrix_product_fills_every_slot(f):
    # every entry is q - 1 (all r coefficients p - 1), so each slot of a
    # product entry's sum reaches n*r*(p-1)^2, the bound its width is set by
    for n in range(1, 9):
        x = FqMatrix.from_ints(f, [[f.q - 1] * n] * n)
        assert x * x == entrywise_product(x, x)


@pytest.mark.parametrize("f", [Fq(5, 1), Fq(3, 2), Fq(2, 8), Fq(2, 20)],
                         ids=repr)
def test_matrix_from_elements_equals_from_ints(f):
    ints = [[(7919 * i + 104729 * j + 1) % f.q for j in range(3)]
            for i in range(3)]
    a = FqMatrix.from_ints(f, ints)
    # entries are taken mod q, so a second build from shifted numbers
    b = FqMatrix.from_ints(f, [[v + f.q for v in row] for row in ints])
    assert a == b
    assert hash(a) == hash(b)
    assert b.to_int_rows() == ints
    assert [[f.from_int(v).to_int() for v in row]
            for row in a.to_int_rows()] == ints
    assert a != FqMatrix.identity(f, 3)


@st.composite
def field_matrices(draw):
    f = draw(st.sampled_from(PRODUCT_FIELDS))
    n = draw(st.integers(1, 4))
    entries = st.integers(0, f.q - 1)

    def matrix():
        return FqMatrix.from_ints(f, [[draw(entries) for _ in range(n)]
                                      for _ in range(n)])
    return matrix(), matrix()


@settings(max_examples=150, deadline=None)
@given(field_matrices())
def test_matrix_product_matches_entrywise_reference(pair):
    x, y = pair
    assert x * y == entrywise_product(x, y)
    assert y * x == entrywise_product(y, x)


@settings(max_examples=60, deadline=None)
@given(field_matrices(), st.integers(0, 12))
def test_mat_pow_matches_repeated_product(pair, e):
    x, _ = pair
    acc = FqMatrix.identity(x.field, x.n)
    for _ in range(e):
        acc = acc * x
    assert mat_pow(x, e) == acc


MEMO_FIELDS = ((5, 2), (3, 6), (2, 20))


@pytest.mark.parametrize("budget", [0, None], ids=["no_memo", "memo"])
def test_reduction_memo_is_transparent(budget):
    # products over fresh fields, once storing no reduction and once with
    # the default budget, equal the entrywise reference
    with pytest.MonkeyPatch.context() as mp:
        if budget is not None:
            mp.setattr(ffq, "_REDUCE_BUDGET", budget)
        fields = [Fq(p, r) for p, r in MEMO_FIELDS]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def check(data):
        f = data.draw(st.sampled_from(fields))
        n = data.draw(st.integers(1, 4))
        entries = st.lists(st.lists(st.integers(0, f.q - 1), min_size=n,
                                    max_size=n), min_size=n, max_size=n)
        x, y = (FqMatrix.from_ints(f, data.draw(entries)) for _ in "xy")
        assert x * y == entrywise_product(x, y)
        assert mat_pow(x, 3) == \
            entrywise_product(entrywise_product(x, x), x)
        if budget == 0:
            assert not any(f._memos.values())

    check()


def test_reduction_memo_stays_within_budget(monkeypatch):
    monkeypatch.setattr(ffq, "_REDUCE_BUDGET", 40)
    f = Fq(3, 6)
    # n = 2, 3 and 6 give three slot widths, 6, 7 and 8 bits
    draws = [m for n in (2, 3, 6) for m in unitriangular_elements(
        n, f, "sample", 30, seed=n)]
    for m in draws:
        assert mat_pow(m, 3) == \
            entrywise_product(entrywise_product(m, m), m)
    stored = [len(memo) for memo in f._memos.values()]
    assert len(stored) == 3 and sum(stored) == 40
    # one kernel per slot width: the three matrix widths and Fq.mul's 5 bits
    assert sorted(f._kernels) == [5, 6, 7, 8]
    # a fresh field stores nothing until it multiplies
    assert not Fq(3, 6)._memos and not Fq(3, 6)._kernels
    # the memos and the kernels' tables hold no reference back to their
    # field: with one memo and every kernel still held, reference counting
    # alone frees it, with the cyclic collector off
    held = f._memos[6], list(f._kernels.values())
    ref = weakref.ref(f)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del f, draws, m
        assert ref() is None and all(held)
    finally:
        if enabled:
            gc.enable()


KERNEL_FIELDS = ((2, 3), (2, 8), (2, 20), (3, 6), (5, 2), (1021, 2))


@pytest.mark.parametrize("p, r", KERNEL_FIELDS)
def test_kernel_matches_poly_rem_reference(p, r):
    # every slot width that n = 1..8 gives, with the largest slot value
    # n*r*(p-1)^2 of that width: each slot alone at every position (every
    # value up to 4096, else 0..2p, the top and a seeded sample), then
    # seeded sums over all 2r - 1 slots, against `_poly_rem`
    f, rng = Fq(p, r), random.Random(1000 * p + r)
    tops = {(n * r * (p - 1) ** 2).bit_length(): n * r * (p - 1) ** 2
            for n in range(1, 9)}
    for w, top in tops.items():
        pack, reduce, number = f._kernel(w)

        def code(coeffs):
            return sum(c << j * w for j, c in enumerate(coeffs))

        def want(slots):
            return code(ffq._poly_rem(slots, f.modulus, p, f._low))

        values = range(top + 1) if top <= 4096 else sorted(
            {*range(2 * p + 1), top, *rng.sample(range(top), 500)})
        for i in range(2 * r - 1):
            for v in values:
                assert reduce(v << i * w) == want([0] * i + [v]), (w, i, v)
        for _ in range(300):
            slots = [rng.randint(0, top) for _ in range(2 * r - 1)]
            assert reduce(code(slots)) == want(slots), (w, slots)
        # packing is the digits in w-bit slots, and `number` reads it back
        ks = range(f.q) if f.q <= 4096 else rng.sample(range(f.q), 2000)
        for k in ks:
            digits = [k // p ** j % p for j in range(r)]
            assert pack(k) == code(digits) and number(code(digits)) == k


def test_unitriangular_enumeration_counts():
    k2 = Fq(2, 1)
    mats = list(unitriangular_elements(2, k2))
    assert len(mats) == 2
    for n, f in [(3, Fq(3, 1)), (3, Fq(2, 2)), (4, Fq(2, 1)), (2, Fq(3, 3))]:
        mats = list(unitriangular_elements(n, f))
        order = f.q ** (n * (n - 1) // 2)
        assert len(mats) == order
        assert len(set(mats)) == order
        for m in mats:
            assert m.is_unitriangular()


def test_unitriangular_enumeration_order():
    # odometer order: position (0,1) moves fastest, then (0,2), then (1,2)
    k2 = Fq(2, 1)
    mats = list(unitriangular_elements(3, k2))
    sig = [(rows[0][1], rows[0][2], rows[1][2])
           for rows in (m.to_int_rows() for m in mats)]
    assert sig[0] == (0, 0, 0)
    assert sig[1] == (1, 0, 0)
    assert sig[2] == (0, 1, 0)
    assert sig[5] == (1, 0, 1)


def test_unitriangular_sampling_reproducible():
    k5 = Fq(5, 1)
    a = list(unitriangular_elements(4, k5, mode="sample", count=100, seed=7))
    b = list(unitriangular_elements(4, k5, mode="sample", count=100, seed=7))
    assert a == b
    assert len(a) == 100
    for m in a:
        assert m.is_unitriangular()
    c = list(unitriangular_elements(4, k5, mode="sample", count=100, seed=8))
    assert a != c


def test_unitriangular_size_guard():
    k7 = Fq(7, 1)
    with pytest.raises(ResourceGuardError):
        list(unitriangular_elements(6, k7))
    k5 = Fq(5, 1)
    draws = unitriangular_elements(4, k5, mode="sample",
                                   count=ENUMERATION_CAP + 1)
    with pytest.raises(ResourceGuardError,
                       match=f"{ENUMERATION_CAP + 1} .*n = 4, p = 5, r = 1 "
                             f".*cap {ENUMERATION_CAP}"):
        next(draws)


def test_invalid_arguments_rejected():
    k5 = Fq(5, 1)
    for make, message in (
            (lambda: k5.from_int(5), "element index 5 out of range for q = 5"),
            (lambda: k5.from_int(-1),
             "element index -1 out of range for q = 5"),
            (lambda: FqMatrix.from_ints(k5, [[1, 0], [0]]),
             "matrix must be square"),
            (lambda: mat_pow(FqMatrix.identity(k5, 2), -1),
             "negative matrix powers are not supported"),
            (lambda: next(unitriangular_elements(0, k5)),
             "matrix size must be at least 1"),
            (lambda: next(unitriangular_elements(3, k5, "every")),
             "unknown mode 'every'")):
        with pytest.raises(InputError) as exc:
            make()
        assert str(exc.value) == message


def test_mixed_field_arithmetic_rejected():
    a = Fq(3, 1).from_int(2)
    b = Fq(5, 1).from_int(2)
    with pytest.raises(InputError):
        _ = a + b
    with pytest.raises(InputError):
        _ = FqMatrix.identity(Fq(3, 1), 2) * FqMatrix.identity(Fq(5, 1), 2)
