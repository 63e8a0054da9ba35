import dataclasses
import functools
import gc
import itertools
import random
import unittest.mock
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liecoh.cli import main
from liecoh.errors import InputError, ResourceGuardError
from liecoh.ffq import Fq, multiplicative_generator
from liecoh import ffq, invalg
from liecoh.gl2 import gl2_algebra, sl2_algebra
from liecoh.grgln import build_gr_un, subgroup_support
from liecoh.rootsys import build_root_system, cocharacter_lattice, \
    lie_gr_algebra
from liecoh.invalg import (
    EXTERIOR,
    POLYNOMIAL,
    AlgebraSpec,
    GeneratorSpec,
    Monomial,
    canonical_sort,
    detection_kernel,
    dimension_series,
    enumerate_monomials,
    invariant_monomials,
    invariant_monomials_by_degree,
    invariant_monomials_oracle,
    invariant_monomials_oracle_by_degree,
    monomial_json,
    quillen_verify,
    random_algebra_spec,
)


# ---------------------------------------------------------------------------
# model algebras used across the tests
# ---------------------------------------------------------------------------

def rank1_pair_algebra(p, r):
    """One exterior/polynomial generator pair per twist, weights p^k mod q-1."""
    q = p ** r
    gens = []
    for k in range(r):
        w = (pow(p, k, q - 1) if q > 2 else 0,)
        gens.append(GeneratorSpec(f"x{k}", EXTERIOR, 1, w))
        gens.append(GeneratorSpec(f"y{k}", POLYNOMIAL, 2, w))
    return AlgebraSpec.make(p, r, 1, gens)


def char2_rank1_algebra(r):
    q = 2 ** r
    gens = [GeneratorSpec(f"x{k}", POLYNOMIAL, 1, (pow(2, k, q - 1) if q > 2 else 0,))
            for k in range(r)]
    return AlgebraSpec.make(2, r, 1, gens)


def pair_weight(n, i, j):
    w = [0] * n
    w[i - 1] = 1
    w[j - 1] = -1
    return tuple(w)


def gr_u3_p3():
    gens = []
    for i, j in ((1, 2), (1, 3), (2, 3)):
        w = pair_weight(3, i, j)
        gens.append(GeneratorSpec(f"x{i}{j}", EXTERIOR, 1, w))
        gens.append(GeneratorSpec(f"y{i}{j}", POLYNOMIAL, 2, w))
    return AlgebraSpec.make(3, 1, 3, gens)


def hook_algebra_n4_p5():
    """Generators supported on the positions (1,j) and (i,4) only."""
    gens = []
    for i, j in ((1, 2), (1, 3), (1, 4), (2, 4), (3, 4)):
        w = pair_weight(4, i, j)
        gens.append(GeneratorSpec(f"x{i}{j}", EXTERIOR, 1, w))
        gens.append(GeneratorSpec(f"y{i}{j}", POLYNOMIAL, 2, w))
    return AlgebraSpec.make(5, 1, 4, gens)


def mono(**exps):
    return Monomial(tuple(exps.items()))


@functools.lru_cache(maxsize=8)
def generators_by_id(alg):
    return {g.id: g for g in alg.generators}


def generator(alg, gid):
    """The generator of `alg` with id `gid`; InputError for an unknown id."""
    try:
        return generators_by_id(alg)[gid]
    except KeyError:
        raise InputError(f"unknown generator id {gid!r}") from None


def monomial_weight(alg, m):
    """Coordinatewise exponent-weighted sum of generator weights, reduced:
    the plain filter's invariance test, written here so that it shares no
    code with either route."""
    total = [0] * alg.torus_rank
    for gid, e in m.exps:
        g = generator(alg, gid)
        if g.parity == EXTERIOR and e > 1:
            raise InputError(f"exterior generator {gid!r} squares to zero")
        for c, w in enumerate(g.weight):
            total[c] += e * w
    return tuple(t % m for t, m in zip(total, alg.moduli))


def plain_invariants(alg, lo, hi):
    """Per degree lo..hi, every monomial of that degree filtered to weight
    zero: no pruning table, walk order or final-factor index of the route."""
    zero = (0,) * alg.torus_rank
    return [[m for m in enumerate_monomials(alg, d)
             if monomial_weight(alg, m) == zero] for d in range(lo, hi + 1)]


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_make_reduces_weights_and_sets_char2():
    alg = gr_u3_p3()
    assert not alg.char2_mode
    for g in alg.generators:
        assert all(0 <= w < m for w, m in zip(g.weight, alg.moduli))
    assert char2_rank1_algebra(2).char2_mode


def test_validation_errors():
    with pytest.raises(InputError):  # duplicate id
        AlgebraSpec.make(3, 1, 1, [GeneratorSpec("a", EXTERIOR, 1, (0,)),
                                   GeneratorSpec("a", POLYNOMIAL, 2, (0,))])
    with pytest.raises(InputError):  # exterior generators must be degree 1
        AlgebraSpec.make(3, 1, 1, [GeneratorSpec("a", EXTERIOR, 2, (0,))])
    with pytest.raises(InputError):  # polynomial degree is 2 away from char 2
        AlgebraSpec.make(3, 1, 1, [GeneratorSpec("a", POLYNOMIAL, 1, (0,))])
    with pytest.raises(InputError):  # no exterior generators in char-2 mode
        AlgebraSpec.make(2, 2, 1, [GeneratorSpec("a", EXTERIOR, 1, (0,))])
    with pytest.raises(InputError):  # modulus must divide q - 1
        AlgebraSpec.make(3, 1, 1, [GeneratorSpec("a", EXTERIOR, 1, (0,))],
                         moduli=(3,))
    with pytest.raises(InputError):  # weight length must match the rank
        AlgebraSpec.make(3, 1, 2, [GeneratorSpec("a", EXTERIOR, 1, (0,))])
    with pytest.raises(InputError):  # a tag is a string
        GeneratorSpec("a", EXTERIOR, 1, (0,), 5)


def test_monomial_normalization():
    m = Monomial((("y0", 2), ("x0", 1)))
    assert m.exps == (("x0", 1), ("y0", 2))
    assert m.format() == "x0*y0^2"
    assert Monomial(()).format() == "1"
    with pytest.raises(InputError, match="exponents must be positive"):
        Monomial((("x0", 0),))
    with pytest.raises(InputError, match="repeated generator id in monomial"):
        Monomial((("x0", 1), ("y0", 2), ("x0", 3)))


def test_monomial_carries_no_instance_dict():
    m = Monomial((("y0", 2), ("x0", 1)))
    assert not hasattr(m, "__dict__")
    for name in ("exps", "extra"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(m, name, ())
    # equality, hashing and the canonical order still read `exps` alone
    assert m == Monomial((("x0", 1), ("y0", 2))) == mono(x0=1, y0=2)
    assert hash(m) == hash((m.exps,)) == hash(mono(x0=1, y0=2))
    assert len({m, mono(y0=2, x0=1), mono(x0=1)}) == 2
    shuffled = [mono(y0=1), mono(x0=1, y0=1), mono(x0=2), Monomial(()),
                mono(x0=1)]
    assert canonical_sort(shuffled) == [Monomial(()), mono(x0=2), mono(x0=1),
                                        mono(x0=1, y0=1), mono(y0=1)]


def code_width(alg):
    """One width per spec: DEGREE_CAP // (number of generators)."""
    return invalg.DEGREE_CAP // len(alg.generators)


def encode(alg, exps):
    """Walker codes of (id, exponent) pairs: rank * w + w - 1 - e, w the
    spec's `code_width` and rank the id's place in the sorted ids."""
    rank, w = sorted(alg.ids).index, code_width(alg)
    return tuple(rank(i) * w + w - 1 - e for i, e in exps)


def test_walker_output_is_sorted_and_checked():
    # traced codes skip the str/int coercion, not the two checks; both
    # routes' set-ups code a factor g^e as base - e, as `encode` does
    alg = rank1_pair_algebra(3, 1)
    for state in (alg._residue_state, alg._oracle_state):
        gens = state[0]
        base = {g.id: b for g, b in zip(gens, invalg._codes(alg, gens))}

        def traced(*exps):
            return tuple(base[i] - e for i, e in exps)
        assert traced(("y0", 2), ("x0", 1)) == \
            encode(alg, [("y0", 2), ("x0", 1)])
        top = code_width(alg) - 1       # the largest exponent a code holds
        got = invalg._as_monomials([traced(("y0", 2), ("x0", 1)),
                                    traced(("x0", 3)), (),
                                    traced(("y0", top))], alg)
        want = [Monomial(()), mono(x0=3), mono(x0=1, y0=2), mono(y0=top)]
        assert got == want
        assert [m.exps for m in got] == [m.exps for m in want]
        assert [hash(m) for m in got] == [hash(m) for m in want]
        # every code of the spec lies below DEGREE_CAP
        assert max(base.values()) < invalg.DEGREE_CAP
        with pytest.raises(InputError, match="repeated generator id"):
            invalg._as_monomials(
                [traced(("x0", 1), ("y0", 1), ("x0", 2))], alg)
        with pytest.raises(InputError, match="positive"):
            invalg._as_monomials([traced(("x0", 0))], alg)


@st.composite
def coded_monomials(draw):
    """A spec whose ids sort differently as strings and as numbers (x10
    before x2) and code tuples over distinct generators with exponents
    from 1 to the largest a code holds, each with a prefix of itself in the
    canonical order."""
    numbers = draw(st.lists(st.integers(0, 30), min_size=2, max_size=8,
                            unique=True))
    ids = [f"x{n}" for n in numbers] + ["x2", "x10"]
    ids = list(dict.fromkeys(ids))
    alg = AlgebraSpec.make(3, 1, 1, [GeneratorSpec(i, POLYNOMIAL, 2, (0,))
                                     for i in draw(st.permutations(ids))])
    top = code_width(alg) - 1
    exps = st.integers(1, top) | st.sampled_from([1, 2, top - 1, top])
    monomials = []
    for _ in range(draw(st.integers(0, 12))):
        support = draw(st.lists(st.sampled_from(ids), unique=True,
                                max_size=len(ids)))
        pairs = sorted((i, draw(exps)) for i in support)
        monomials += [pairs, pairs[:draw(st.integers(0, len(pairs)))]]
    return alg, [draw(st.permutations(pairs)) for pairs in monomials]


@settings(max_examples=100, deadline=None)
@given(coded_monomials())
def test_code_order_is_canonical_order(case):
    alg, monomials = case
    got = invalg._as_monomials([encode(alg, pairs) for pairs in monomials],
                               alg)
    want = canonical_sort([Monomial(pairs) for pairs in monomials])
    assert [m.exps for m in got] == [m.exps for m in want]
    assert got == want


def test_walks_build_no_sort_key(monkeypatch):
    # traced output becomes Monomials by one sort of code tuples: no listing
    # builds a per-monomial key, sorts Monomials or normalizes their pairs
    def lists(alg):
        return [(invariant_monomials(alg, d), invariant_monomials_oracle(
            alg, d), enumerate_monomials(alg, d)) for d in (3, 6)]

    want = lists(gr_u3_p3())
    assert all(monos for row in want for monos in row)

    def refuse(*args, **kwargs):
        raise AssertionError("per-monomial key building on a walk's output")

    monkeypatch.setattr(Monomial, "sort_key", refuse)
    monkeypatch.setattr(invalg, "canonical_sort", refuse)
    monkeypatch.setattr(invalg, "_entries", refuse)
    assert lists(gr_u3_p3()) == want


def test_json_round_trip_and_hash():
    alg = rank1_pair_algebra(3, 2)
    blob = alg.to_json_dict()
    again = AlgebraSpec.from_json_dict(blob)
    assert again == alg
    h = alg.spec_hash()
    assert h == alg.spec_hash() and len(h) == 12
    assert h != gr_u3_p3().spec_hash()


def test_spec_hash_is_held_and_agrees_with_equality():
    # the hash is the dataclass hash of the four fields, computed once
    alg = build_gr_un(5, 3, 1).algebra
    fields = (alg.field, alg.torus_rank, alg.moduli, alg.generators)
    assert hash(alg) == hash(fields) and vars(alg)["_hash"] == hash(fields)
    # equal specs built apart, restricted or read back hash equal
    twin = build_gr_un(5, 3, 1).algebra
    assert twin is not alg and twin == alg and hash(twin) == hash(alg)
    for other in (AlgebraSpec.from_json_dict(alg.to_json_dict()),
                  alg.restrict(alg.ids), twin.restrict(reversed(alg.ids))):
        assert other == alg and hash(other) == hash(alg)
    sub = alg.restrict(alg.ids[1:])
    again = AlgebraSpec.from_json_dict(sub.to_json_dict())
    assert again == sub != alg and hash(again) == hash(sub)
    assert len({alg, twin, sub, again}) == 2


def test_restrict_keeps_order_and_context():
    alg = gr_u3_p3()
    sub = alg.restrict(["x12", "y12", "x23"])
    assert [g.id for g in sub.generators] == ["x12", "y12", "x23"]
    assert sub.torus_rank == 3 and sub.moduli == alg.moduli
    assert sub.field is alg.field
    with pytest.raises(InputError):
        alg.restrict(["nope"])


def test_each_generator_is_validated_once(monkeypatch):
    calls = []
    validate = GeneratorSpec.__post_init__
    monkeypatch.setattr(GeneratorSpec, "__post_init__",
                        lambda g: calls.append(g.id) or validate(g))
    rs = build_root_system([("E", 8)])
    alg = lie_gr_algebra(rs, cocharacter_lattice(rs, "adjoint"), 3, 1)
    assert len(alg.generators) == 240
    assert len(calls) == 240
    sub = alg.restrict(alg.ids[:100])
    assert len(calls) == 240
    # the reduced weights, and so the hashes, are what they were
    assert (alg.spec_hash(), sub.spec_hash()) == ("56cd0cf0258a",
                                                  "aabdb1ab72e0")


def test_graded_pair():
    x, y = invalg.graded_pair(3, 2, "[1,2,2]", (1, -1, 0), "t")
    assert (x.id, x.parity, x.degree, x.weight, x.tag) == \
        ("x[1,2,2]", EXTERIOR, 1, (9, -9, 0), "t")
    assert (y.id, y.parity, y.degree, y.weight, y.tag) == \
        ("y[1,2,2]", POLYNOMIAL, 2, (9, -9, 0), "t")
    (x,) = invalg.graded_pair(2, 3, 0, (1,))
    assert (x.id, x.parity, x.degree, x.weight, x.tag) == \
        ("x0", POLYNOMIAL, 1, (8,), "")


def test_graded_builders_pinned_above_r_one():
    """Generator ids, order, weights and tags of the graded builders at
    r = 2 and 3, pinned by spec hash; the other pinned hashes are r = 1."""
    gl = gl2_algebra(3, 2)
    assert (gl.spec_hash(), gl.ids) == ("5aacd0625337",
                                        ("x0", "x1", "y0", "y1"))
    assert gl2_algebra(2, 3).spec_hash() == "832bf99e9e6f"
    assert sl2_algebra(5, 2).spec_hash() == "88f2aa34ba83"
    u3 = build_gr_un(3, 3, 2)
    assert u3.algebra.spec_hash() == "63047feb1ede"
    assert build_gr_un(3, 2, 2).algebra.spec_hash() == "e2b2354d4860"
    rs = build_root_system([("B", 2)])
    b2 = lie_gr_algebra(rs, cocharacter_lattice(rs, "sc"), 3, 2)
    assert b2.spec_hash() == "f5a915e2b7fa"
    assert b2.generators[0].tag == "root=0,1"
    assert subgroup_support(u3, "hook", 1, 3).ids == frozenset(
        f"{v}[{i},{j},{k}]" for v in "xy" for i, j in ((1, 2), (1, 3), (2, 3))
        for k in range(2))


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def test_monomial_weight_examples():
    gl2 = rank1_pair_algebra(3, 1)
    assert monomial_weight(gl2, Monomial(())) == (0,)
    assert monomial_weight(gl2, mono(x0=1, y0=1)) == (0,)
    u3 = gr_u3_p3()
    assert monomial_weight(u3, mono(x12=1, x13=1, x23=1)) == (0, 0, 0)
    with pytest.raises(InputError):
        monomial_weight(gl2, mono(zz=1))
    with pytest.raises(InputError):  # exterior exponent above 1
        monomial_weight(gl2, mono(x0=2))


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_enumerate_degree_zero():
    assert enumerate_monomials(rank1_pair_algebra(3, 1), 0) == [Monomial(())]


def test_enumerate_gl2_degree_three():
    assert enumerate_monomials(rank1_pair_algebra(3, 1), 3) == [
        mono(x0=1, y0=1)]


def test_enumerate_char2_degree_two_order():
    # canonical order: generator id ascending, exponent descending
    alg = char2_rank1_algebra(2)
    assert enumerate_monomials(alg, 2) == [
        mono(x0=2), mono(x0=1, x1=1), mono(x1=2)]


def test_enumerate_against_generating_function():
    # coefficient-wise check of the free-algebra Hilbert series
    def series_coeffs(alg, max_degree):
        coeffs = [1] + [0] * max_degree
        for g in alg.generators:
            if g.parity == EXTERIOR:
                factor = [0] * (max_degree + 1)
                factor[0] = 1
                if g.degree <= max_degree:
                    factor[g.degree] = 1
            else:
                factor = [1 if d % g.degree == 0 else 0
                          for d in range(max_degree + 1)]
            coeffs = [sum(coeffs[i] * factor[d - i] for i in range(d + 1))
                      for d in range(max_degree + 1)]
        return coeffs

    for alg in (rank1_pair_algebra(3, 2), gr_u3_p3(), char2_rank1_algebra(3)):
        have = [len(enumerate_monomials(alg, d)) for d in range(7)]
        assert have == series_coeffs(alg, 6)


def test_enumeration_resource_guard(monkeypatch):
    alg = gr_u3_p3()
    monkeypatch.setattr(invalg, "MONOMIAL_CAP", 5)
    with pytest.raises(ResourceGuardError):
        enumerate_monomials(alg, 10)
    # the exact boundary: a cap of H(d) lists all H(d) monomials, one less
    # refuses from the Hilbert count before anything is counted
    n = invalg._hilbert(alg.generators, 10)[10]
    monkeypatch.setattr(invalg, "MONOMIAL_CAP", n)
    assert len(enumerate_monomials(alg, 10)) == n
    monkeypatch.setattr(invalg, "MONOMIAL_CAP", n - 1)

    def refuse(*args, **kwargs):
        raise AssertionError("counted before refusing")

    monkeypatch.setattr(invalg, "_count_invariants", refuse)
    with pytest.raises(ResourceGuardError, match=(
            f"^{n} monomials in degree 10, more than the cap {n - 1}$")):
        enumerate_monomials(alg, 10)


def test_enumerate_against_brute_force():
    # every exponent vector in range (each once), kept when its degree
    # is d
    rng = random.Random(20240528)
    for _ in range(40):
        alg = random_algebra_spec(rng)
        gens = alg.generators
        ranges = [range(2 if g.parity == EXTERIOR else 8 // g.degree + 1)
                  for g in gens]
        by_degree = [[] for _ in range(9)]
        for exps in itertools.product(*ranges):
            d = sum(e * g.degree for e, g in zip(exps, gens))
            if d <= 8:
                by_degree[d].append(exps)
        for d, vectors in enumerate(by_degree):
            want = canonical_sort(
                Monomial(tuple((g.id, e) for g, e in zip(gens, exps) if e))
                for exps in vectors)
            assert enumerate_monomials(alg, d) == want


# ---------------------------------------------------------------------------
# invariants, both routes
# ---------------------------------------------------------------------------

def test_invariant_monomials_gl2_p3():
    alg = rank1_pair_algebra(3, 1)
    expected = {
        0: [Monomial(())],
        1: [], 2: [],
        3: [mono(x0=1, y0=1)],
        4: [mono(y0=2)],
        5: [], 6: [],
        7: [mono(x0=1, y0=3)],
        8: [mono(y0=4)],
    }
    for d, want in expected.items():
        assert invariant_monomials(alg, d) == want


def test_invariant_monomials_char2():
    alg = char2_rank1_algebra(2)
    assert invariant_monomials(alg, 2) == [mono(x0=1, x1=1)]


def test_invariant_monomials_gr_u3():
    alg = gr_u3_p3()
    got = invariant_monomials(alg, 3)
    assert got == canonical_sort([
        mono(x12=1, y12=1), mono(x13=1, y13=1), mono(x23=1, y23=1),
        mono(x12=1, x13=1, x23=1)])
    assert got[0] == mono(x12=1, x13=1, x23=1)


def test_pruning_does_not_change_results():
    rng = random.Random(11)
    for _ in range(25):
        alg = random_algebra_spec(rng)
        for d in range(6):
            assert [invariant_monomials(alg, d)] == \
                plain_invariants(alg, d, d)


def _hook_spec(n, p, r, left, right):
    spec = build_gr_un(n, p, r)
    hook = subgroup_support(spec, "hook", left, right)
    return spec.algebra.restrict(hook.ids)


HOOK_SPECS = [(n, p, r, left, right)
              for n, p, r in ((3, 3, 1), (4, 3, 1), (4, 5, 1), (5, 5, 1),
                              (5, 7, 1), (3, 3, 2), (3, 2, 2), (4, 2, 1))
              for left in range(1, n) for right in range(left + 1, n + 1)]


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    st.builds(lambda seed: random_algebra_spec(random.Random(seed)),
              st.integers(0, 2 ** 32)),
    st.sampled_from(HOOK_SPECS).map(lambda args: _hook_spec(*args))),
    st.lists(st.integers(0, 8), min_size=2, max_size=2).map(sorted))
def test_degree_aware_pruning_is_exact(alg, window):
    top = 10
    plain = plain_invariants(alg, 0, top)
    for d in range(top + 1):
        assert invariant_monomials(alg, d) == plain[d]
    exterior = {g.id for g in alg.generators if g.parity == EXTERIOR}
    assert dimension_series(alg, top, "invariant") == [len(ms) for ms in plain]
    assert dimension_series(alg, top, "invariant_nilpotent") == [
        sum(1 for m in ms if m.support() & exterior) for ms in plain]
    # windows that start above degree 0, and any lo <= hi <= 8
    for lo, hi in ((3, 7), (6, 10), window):
        assert invariant_monomials_by_degree(alg, lo, hi) == plain[lo:hi + 1]


@st.composite
def weighted_specs(draw, sparse=False):
    """Specs of rank 1..3 over small fields, exterior and polynomial
    generators (polynomial only in characteristic 2), about half of them of
    weight zero; `sparse` ones act on one or two coordinates each, so that
    the oracle closes some coordinates before its last generator."""
    p, r = draw(st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2),
                                 (5, 1), (7, 1), (13, 1)]))
    qm1 = p ** r - 1
    divisors = [d for d in range(1, qm1 + 1) if qm1 % d == 0]
    rank = draw(st.integers(1, 3))
    moduli = draw(st.lists(st.sampled_from(divisors), min_size=rank,
                           max_size=rank))
    gens = []
    for i in range(draw(st.integers(0, 7))):
        acting = draw(st.sets(st.integers(0, rank - 1), min_size=1,
                              max_size=2)) if sparse else range(rank)
        weight = (0,) * rank if draw(st.booleans()) else \
            tuple(draw(st.integers(0, m - 1)) if c in acting else 0
                  for c, m in enumerate(moduli))
        if p != 2 and draw(st.booleans()):
            gens.append(GeneratorSpec(f"g{i}", EXTERIOR, 1, weight))
        else:
            gens.append(GeneratorSpec(f"g{i}", POLYNOMIAL, 1 if p == 2 else 2,
                                      weight))
    return AlgebraSpec.make(p, r, rank, gens, moduli)


@settings(max_examples=80, deadline=None)
@given(weighted_specs(),
       st.lists(st.integers(0, 8), min_size=2, max_size=2).map(sorted))
def test_walk_order_routes_agree(alg, window):
    gens = alg.generators
    order = invalg._walk_order(gens)
    assert sorted(order, key=gens.index) == list(gens)
    zero = [g for g in gens if not any(g.weight)]
    assert list(order[:len(zero)]) == zero
    lo, hi = window
    found = invariant_monomials_by_degree(alg, lo, hi)
    assert found == plain_invariants(alg, lo, hi)
    assert found == invariant_monomials_oracle_by_degree(alg, lo, hi)


def test_walk_with_nothing_to_find_pops_nothing():
    # degree 5 of the GL_2(F_3) model holds x0*y0^2 alone, of odd weight:
    # the count keeps no entry past the monomial 1, so there is nothing to
    # trace back and not one birth is probed
    stats = {}
    assert invariant_monomials_by_degree(rank1_pair_algebra(3, 1), 5, 5,
                                         stats=stats) == [[]]
    assert stats == {"peak": 1, "births": 1, "probes": 0, "leaves": [0],
                     "cap": invalg.SERIES_CAP}


def _e8_algebra():
    rs = build_root_system([("E", 8)])
    return lie_gr_algebra(rs, cocharacter_lattice(rs, "adjoint"), 3, 1)


def test_final_factor_lookup_e8():
    # 240 generators, modulus 2 in eight coordinates: every suffix set past
    # degree 0 is full, so nothing prunes; the listing walk popped 2,413
    # nodes for the 1,240 leaves of degree 3, where the traceback probes a
    # birth per (node, generator, exponent) tried
    alg = _e8_algebra()
    found = invariant_monomials_by_degree(alg, 1, 3)
    assert [len(ms) for ms in found] == [0, 0, 1240]
    assert found == invariant_monomials_oracle_by_degree(alg, 1, 3)
    stats = {}
    invariant_monomials_by_degree(alg, 3, 3, stats=stats)
    assert stats == {"peak": 239, "births": 304, "probes": 26484,
                     "leaves": [1240], "cap": invalg.SERIES_CAP}


def test_listing_cap_on_the_exact_count_e8(monkeypatch):
    # degree 3 of E8 holds 1,240 invariants: the count knows it before any
    # is listed, so a cap below it refuses with no traceback at all
    alg = _e8_algebra()
    trace_back = invalg._trace_back

    def refuse(*args):
        raise AssertionError("traced back over the cap")

    monkeypatch.setattr(invalg, "MONOMIAL_CAP", 1239)
    monkeypatch.setattr(invalg, "_trace_back", refuse)
    for lo in (3, 0):
        with pytest.raises(ResourceGuardError) as exc:
            invariant_monomials_by_degree(alg, lo, 3)
        assert str(exc.value) == \
            "1240 monomials in degree 3, more than the cap 1239"
    monkeypatch.setattr(invalg, "MONOMIAL_CAP", 1240)
    monkeypatch.setattr(invalg, "_trace_back", trace_back)
    assert len(invariant_monomials(alg, 3)) == 1240


def test_listing_charges_births_to_the_series_cap(monkeypatch):
    # the single-degree listing of the (1,6) hook of U_6 at p = 7 in degree
    # 11 holds at most 95 live entries and births at once
    alg = _hook_spec(6, 7, 1, 1, 6)
    want = plain_invariants(alg, 11, 11)
    monkeypatch.setattr(invalg, "SERIES_CAP", 95)
    assert invariant_monomials_by_degree(alg, 11, 11) == want
    monkeypatch.setattr(invalg, "SERIES_CAP", 94)
    with pytest.raises(ResourceGuardError) as exc:
        invariant_monomials(alg, 11)
    assert str(exc.value) == (
        "16 live (state, degree) entries and 79 births at generator "
        "'x[1,6,0]', position 14 of 18 in walk order, more than the cap 94")
    # the series of the same spec records no births: 21 live entries pass
    monkeypatch.setattr(invalg, "SERIES_CAP", 21)
    assert dimension_series(alg, 11, "invariant")[11] == len(want[0])


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32),
       st.lists(st.integers(0, 10), min_size=2, max_size=2).map(sorted))
@example(0, [0, 0])
@example(7, [0, 10])
@example(11, [4, 9])
def test_traceback_lists_what_the_plain_filter_keeps(seed, window):
    alg = random_algebra_spec(random.Random(seed))
    lo, hi = window
    stats = {}
    found = invariant_monomials_by_degree(alg, lo, hi, stats=stats)
    assert found == plain_invariants(alg, lo, hi)
    assert stats["leaves"] == [len(ms) for ms in found]


def test_final_factor_lookup_char2_exponents():
    # degree-1 polynomial generators: a last factor y^e closes e degrees
    # at once, and equal weights share a step table
    for r, moduli, weights in ((2, (3,), [(1,), (1,), (2,)]),
                               (3, (7, 7), [(1, 3), (2, 0), (4, 5), (2, 0)]),
                               (4, (15,), [(5,), (3,), (0,), (12,)])):
        gens = [GeneratorSpec(f"y{i}", POLYNOMIAL, 1, w)
                for i, w in enumerate(weights)]
        alg = AlgebraSpec.make(2, r, len(moduli), gens, moduli)
        found = invariant_monomials_by_degree(alg, 1, 9)
        assert found == plain_invariants(alg, 1, 9)
        assert found == invariant_monomials_oracle_by_degree(alg, 1, 9)
        order = [g.id for g in invalg._walk_order(alg.generators)]
        finals = [dict(m.exps)[max(m.support(), key=order.index)]
                  for ms in found for m in ms]
        assert max(finals) >= 2


def test_suffix_rows_match_their_definition():
    # rows[rem] of generator j holds residue v when some monomial of the
    # generators j onward, of degree in [max(0, rem - (hi - lo)), rem],
    # adds -v; None when every exact-degree set past degree 0 is empty or
    # full, and then only
    def brute(gens, m, lo, hi):
        out = []
        for j in range(len(gens)):
            ahead = gens[j:]
            sets = [0] * (hi + 1)
            tops = [1 if g.parity == EXTERIOR else hi // g.degree
                    for g in ahead]
            for exps in itertools.product(*(range(t + 1) for t in tops)):
                t = sum(e * g.degree for e, g in zip(exps, ahead))
                if t <= hi:
                    w = sum(e * g.weight[0] for e, g in zip(exps, ahead))
                    sets[t] |= 1 << (-w % m)
            full = (1 << m) - 1
            if all(x in (0, full) for x in sets[1:]):
                out.append(None)
            else:
                out.append(tuple(
                    functools.reduce(int.__or__,
                                     sets[max(0, rem - (hi - lo)):rem + 1])
                    for rem in range(hi + 1)))
        return out

    rng = random.Random(17)
    kinds = set()
    for _ in range(300):
        m = rng.randint(1, 12)
        gens = [GeneratorSpec(f"g{i}", *rng.choice(
                    [(EXTERIOR, 1), (POLYNOMIAL, 1), (POLYNOMIAL, 2)]),
                    (rng.randrange(m),))
                for i in range(rng.randint(1, 4))]
        hi = rng.randint(0, 9)
        lo = rng.choice([0, hi, rng.randint(0, hi)])
        kinds.add("lo = 0" if lo == 0 else "lo = hi" if lo == hi else "inner")
        assert invalg._suffix_rows(gens, 0, m, lo, hi, True) == \
            brute(gens, m, lo, hi)
    assert kinds == {"lo = 0", "lo = hi", "inner"}


def test_walk_order_closes_coordinates_early():
    # the full U_n model keeps its row-major order, twists included
    for n, p, r in ((5, 7, 1), (4, 3, 2), (4, 2, 2)):
        gens = build_gr_un(n, p, r).algebra.generators
        assert invalg._walk_order(gens) == gens
    # on the (1,5) hook each middle column is closed as soon as it opens
    order = invalg._walk_order(_hook_spec(5, 7, 1, 1, 5).generators)
    positions = [(1, 2), (2, 5), (1, 3), (3, 5), (1, 4), (1, 5), (4, 5)]
    assert [g.id for g in order] == [f"{v}[{i},{j},0]" for i, j in positions
                                     for v in "xy"]


def test_pruning_collapses_to_gcd_outside_the_table_budget(monkeypatch):
    exact = []
    suffix_rows = invalg._suffix_rows

    def record(gens, c, m, lo, hi, is_exact):
        exact.append(is_exact)
        return suffix_rows(gens, c, m, lo, hi, is_exact)

    monkeypatch.setattr(invalg, "_suffix_rows", record)
    # q = 2^20 with weights in a proper subgroup: the degree-aware sets of
    # the one coordinate take 20 generators * 4 degrees * 139,848 bytes,
    # within the rows budget but over a patched one of 1 MiB
    gens = [GeneratorSpec(f"x{k}", POLYNOMIAL, 1, (3 * 2 ** k,))
            for k in range(20)]
    big = AlgebraSpec.make(2, 20, 1, gens)
    assert invalg._row_bytes(2 ** 20 - 1) == 139848
    assert dimension_series(big, 3, "invariant") == [1, 0, 0, 0]
    assert exact == [True]
    exact.clear()
    monkeypatch.setattr(invalg, "_ROWS_BUDGET", 1 << 20)
    assert dimension_series(big, 3, "invariant") == [1, 0, 0, 0]
    assert exact == [False]
    assert [invariant_monomials(big, 3)] == plain_invariants(big, 3, 3)
    # with no budget at all every coordinate takes the degree-free check
    monkeypatch.setattr(invalg, "_ROWS_BUDGET", 0)
    rng = random.Random(5)
    for _ in range(20):
        alg = random_algebra_spec(rng)
        exact.clear()
        for d in range(7):
            assert [invariant_monomials(alg, d)] == \
                plain_invariants(alg, d, d)
        assert not any(exact)


def test_invariants_subset_of_enumeration():
    alg = gr_u3_p3()
    for d in range(5):
        allm = enumerate_monomials(alg, d)
        inv = invariant_monomials(alg, d)
        assert set(inv) <= set(allm)
        # agreement with the naive filter
        naive = [m for m in allm
                 if all(w == 0 for w in monomial_weight(alg, m))]
        assert canonical_sort(naive) == inv


def test_oracle_agreement_frozen_models():
    gl2 = rank1_pair_algebra(3, 1)
    for d in range(9):
        assert invariant_monomials_oracle(gl2, d) == invariant_monomials(gl2, d)
    u3 = gr_u3_p3()
    for d in range(5):
        assert invariant_monomials_oracle(u3, d) == invariant_monomials(u3, d)


def test_oracle_agreement_random_specs():
    rng = random.Random(5)
    for _ in range(30):
        alg = random_algebra_spec(rng)
        for d in range(6):
            assert invariant_monomials_oracle(alg, d) == \
                invariant_monomials(alg, d)


def test_oracle_object_path_large_field():
    # q = 625: the oracle's product table is filled lazily, never in full
    gens = [GeneratorSpec("x0", EXTERIOR, 1, (1,)),
            GeneratorSpec("y0", POLYNOMIAL, 2, (1,))]
    alg = AlgebraSpec.make(5, 4, 1, gens, moduli=(4,))
    for d in range(7):
        assert invariant_monomials_oracle(alg, d) == invariant_monomials(alg, d)


@pytest.mark.parametrize("alg", [gl2_algebra(5, 2), sl2_algebra(7, 2)],
                         ids=["gl2(5,2)", "sl2(7,2)"])
def test_oracle_odd_extension_fields(alg):
    # odd p with r = 2 multiplies by the packed path, not by % p.
    # Degrees 1..8 hold no invariants here; the first ones are in degree
    # 14 = r(2p-3) for gl2(5,2) and 10 for sl2(7,2), so the range goes on.
    oracle = invariant_monomials_oracle_by_degree(alg, 1, 24)
    assert oracle == invariant_monomials_by_degree(alg, 1, 24)
    assert not any(oracle[:8])
    found = [d for d, monos in enumerate(oracle, 1) if monos]
    assert found[0] in (14, 10) and len(found) == 6
    for d in found:
        assert oracle[d - 1] == eigenvalue_reference(alg, d)


def test_oracle_reuses_the_spec_field(monkeypatch):
    # the spec carries its field: no oracle call searches for a modulus,
    # and the generator is found once for the field object
    alg = gl2_algebra(5, 2)
    calls = {"multiplicative_generator": 0, "find_irreducible": 0}
    for name in calls:
        def counting(*args, real=getattr(ffq, name), name=name):
            calls[name] += 1
            return real(*args)
        for module in (ffq, invalg):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting)
    for d in range(1, 9):
        assert invariant_monomials_oracle(alg, d) == []
    assert invariant_monomials_oracle_by_degree(alg, 1, 8) == [[]] * 8
    assert calls == {"multiplicative_generator": 1, "find_irreducible": 0}


def test_each_route_sets_up_once_per_spec(monkeypatch):
    # the scalars, eigenvalues and walk order are the spec's own: made on
    # its first call, and again only for another spec, an equal one too;
    # each route orders its generators once
    alg = gl2_algebra(5, 2)
    calls = {"pow": 0, "inv": 0, "_walk_order": 0}
    for owner, name in ((Fq, "pow"), (Fq, "inv"), (invalg, "_walk_order")):
        def counting(*args, real=getattr(owner, name), name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(owner, name, counting)

    def run(spec, degrees):
        spec.field.generator        # the field's own, counted elsewhere
        for d in degrees:
            assert invariant_monomials_oracle(spec, d) == []
            assert invariant_monomials(spec, d) == []

    run(alg, [1])
    first = dict(calls)
    assert first["pow"] and first["inv"] and first["_walk_order"] == 2
    run(alg, range(2, 9))
    assert invariant_monomials_oracle_by_degree(alg, 1, 8) == [[]] * 8
    assert invariant_monomials_by_degree(alg, 1, 8) == [[]] * 8
    assert calls == first
    twin = AlgebraSpec.from_json_dict(alg.to_json_dict())
    assert twin == alg
    run(twin, range(1, 9))
    assert calls == {name: 2 * n for name, n in first.items()}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32), st.randoms(use_true_random=False),
       st.sampled_from([None, 0]))
def test_held_setup_changes_no_output(seed, rnd, budget):
    with pytest.MonkeyPatch.context() as mp:
        if budget is not None:
            mp.setattr(invalg, "_TABLE_BUDGET", budget)
        alg = random_algebra_spec(random.Random(seed))
        before = (hash(alg), alg.spec_hash(), alg.to_json_dict(), repr(alg))
        degrees = list(range(9))
        rnd.shuffle(degrees)
        for d in degrees:
            fresh = random_algebra_spec(random.Random(seed))
            assert invariant_monomials(alg, d) == invariant_monomials(fresh, d)
            assert invariant_monomials_oracle(alg, d) == \
                invariant_monomials_oracle(fresh, d)
        lo, hi = sorted(degrees[:2])
        fresh = random_algebra_spec(random.Random(seed))
        assert invariant_monomials_by_degree(alg, lo, hi) == \
            invariant_monomials_by_degree(fresh, lo, hi)
        assert invariant_monomials_oracle_by_degree(alg, lo, hi) == \
            invariant_monomials_oracle_by_degree(fresh, lo, hi)
        # the held state is no part of the spec's value
        assert {"_residue_state", "_oracle_state"} <= vars(alg).keys()
        assert alg == fresh
        assert (hash(alg), alg.spec_hash(), alg.to_json_dict(),
                repr(alg)) == before
        # a restricted spec builds its own
        sub = alg.restrict(alg.ids[1:])
        assert not {"_residue_state", "_oracle_state"} & vars(sub).keys()
        assert invariant_monomials(sub, 4) == \
            invariant_monomials_oracle(sub, 4)
        assert sub._residue_state is not alg._residue_state
        assert sub._oracle_state is not alg._oracle_state


def stored(tables):
    """Entries stored by the distinct tables among `tables` (None skipped)."""
    return sum(len(t) for t in {id(t): t for t in tables
                                if t is not None}.values())


def test_held_tables_draw_on_one_budget_per_spec_and_route(monkeypatch):
    monkeypatch.setattr(invalg, "_TABLE_BUDGET", 7)
    # weights of gcd 2 with the modulus 48, so a budget too small for the
    # suffix sets still leaves each walk pruning tables
    gens = [GeneratorSpec("x0", EXTERIOR, 1, (2,)),
            GeneratorSpec("y0", POLYNOMIAL, 2, (6,)),
            GeneratorSpec("x1", EXTERIOR, 1, (10,)),
            GeneratorSpec("y1", POLYNOMIAL, 2, (4,))]
    alg = AlgebraSpec.make(7, 2, 1, gens)
    for d in range(1, 25):
        assert invariant_monomials_oracle(alg, d) == invariant_monomials(alg, d)

    def oracle_budget(spec):
        # the budget the oracle's step tables draw on; its product and
        # closing tables sit inside the steps and the tests
        steps, backs = spec._oracle_state[1:3]
        budgets = {id(t.budget): t.budget for t in steps + backs if t}
        assert len(budgets) == 1
        return budgets.popitem()[1], stored(steps + backs)

    # the step tables store fewer than 7, so the product and closing tables
    # take the rest of the spec's one budget
    budget, steps_stored = oracle_budget(alg)
    assert budget == [0] and steps_stored < 7
    # the divisibility route's step and inverse step tables draw on the
    # spec's one budget; its pruning tests are plain functions that store
    # nothing
    _, steps, backs, _, _ = alg._residue_state
    assert stored(steps + backs) == 7
    allowed, fresh = invalg._residue_route(alg, 14, 14)[5:]
    assert all(allowed) and not any(isinstance(test, ffq._Table)
                                    for test in allowed + fresh)
    # the oracle's closing tests are the spec's and draw on its one budget:
    # on the (1,5) hook coordinates close before the last generator, and
    # the step, product and closing tables store 7 entries in all
    hook = _hook_spec(5, 7, 1, 1, 5)
    for d in (9, 5, 9):
        assert [invariant_monomials_oracle(hook, d)] == \
            plain_invariants(hook, d, d)
    closing = hook._oracle_state[5]
    assert {t is None for t in closing} == {False, True}
    budget, steps_stored = oracle_budget(hook)
    assert budget == [0] and steps_stored < 7
    # the held tables make no cycle back to their spec: with the cyclic
    # collector off, reference counting alone frees it
    ref = weakref.ref(alg)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del alg
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_oracle_builds_its_tables_once_per_spec(monkeypatch):
    # the closing test reads the state alone: one entry per state reached,
    # in tables the spec holds, so a later call builds none
    built = []

    class Counted(ffq._Table):
        def __init__(self, fill, budget):
            built.append(fill)
            super().__init__(fill, budget)

    monkeypatch.setattr(invalg, "_Table", Counted)
    alg = _hook_spec(8, 7, 1, 1, 8)
    expected = invariant_monomials_by_degree(alg, 1, 9)
    built.clear()
    assert invariant_monomials_oracle(alg, 9) == expected[-1]
    assert built
    # the step, inverse step, product and closing tables store 458 entries
    budget = next(t for t in alg._oracle_state[1] if t).budget
    assert invalg._TABLE_BUDGET - budget[0] == 458
    built.clear()
    assert invariant_monomials_oracle_by_degree(alg, 1, 9) == expected
    assert invariant_monomials_oracle(alg, 9) == expected[-1]
    assert built == []


def eigenvalue_reference(alg, degree):
    """Every monomial of the degree whose eigenvalues, multiplied out one
    factor at a time in F_q, give 1 in every torus coordinate."""
    field = Fq(alg.field.p, alg.field.r)
    gen = field.from_int(multiplicative_generator(field))
    q = field.q
    scalars = [gen ** ((q - 1) // m if q > 2 else 0) for m in alg.moduli]
    keep = []
    for m in enumerate_monomials(alg, degree):
        products = [field.from_int(1)] * alg.torus_rank
        for gid, e in m.exps:
            weight = generator(alg, gid).weight
            for _ in range(e):
                products = [v * x ** w
                            for v, x, w in zip(products, scalars, weight)]
        if all(v == field.from_int(1) for v in products):
            keep.append(m)
    return keep


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(0, 8), st.integers(0, 8))
def test_oracle_matches_divisibility_and_reference(seed, degree, other):
    alg = random_algebra_spec(random.Random(seed))
    oracle = invariant_monomials_oracle(alg, degree)
    assert oracle == invariant_monomials(alg, degree)
    assert oracle == eigenvalue_reference(alg, degree)
    # the range forms give the per-degree lists of any lo <= hi <= 8
    lo, hi = sorted((degree, other))
    per_degree = [invariant_monomials(alg, d) for d in range(lo, hi + 1)]
    assert invariant_monomials_oracle_by_degree(alg, lo, hi) == per_degree
    assert invariant_monomials_by_degree(alg, lo, hi) == per_degree
    # the range guard is exact and names the lowest degree over the cap
    counts = [len(enumerate_monomials(alg, d)) for d in range(lo, hi + 1)]
    most = max(counts)
    assert invariant_monomials_oracle_by_degree(
        alg, lo, hi, max_count=most) == per_degree
    if most:
        with pytest.raises(ResourceGuardError) as exc:
            invariant_monomials_oracle_by_degree(alg, lo, hi,
                                                 max_count=most - 1)
        assert f"{most} monomials in degree {lo + counts.index(most)}," \
            in str(exc.value)


def test_oracle_edge_cases():
    empty = AlgebraSpec.make(5, 1, 1, [])
    assert invariant_monomials_oracle(empty, 0) == [Monomial(())]
    assert invariant_monomials_oracle(empty, 3) == []
    single = AlgebraSpec.make(5, 1, 1,
                              [GeneratorSpec("y", POLYNOMIAL, 2, (2,))])
    # eigenvalue of order 2 under a scalar of order 4
    assert invariant_monomials_oracle(single, 4) == [mono(y=2)]
    assert invariant_monomials_oracle(single, 2) == []
    assert invariant_monomials_oracle(single, 0) == [Monomial(())]
    for by_degree in (invariant_monomials_by_degree,
                      invariant_monomials_oracle_by_degree):
        for lo, hi in ((3, 2), (-1, 2)):
            with pytest.raises(InputError):
                by_degree(single, lo, hi)
    # every non-identity eigenvalue in one half, the other half all ones
    trivial = [GeneratorSpec(f"a{i}", EXTERIOR, 1, (0, 0)) for i in range(3)]
    acting = [GeneratorSpec("b0", EXTERIOR, 1, (1, 2)),
              GeneratorSpec("b1", POLYNOMIAL, 2, (5, 4)),
              GeneratorSpec("b2", POLYNOMIAL, 2, (3, 0))]
    for gens in (trivial + acting, acting + trivial):
        alg = AlgebraSpec.make(7, 1, 2, gens)
        for d in range(9):
            oracle = invariant_monomials_oracle(alg, d)
            assert oracle == invariant_monomials(alg, d)
            assert oracle == eigenvalue_reference(alg, d)


def test_oracle_cap_exact_when_a_half_degree_has_no_partner():
    # left half polynomial only (even degrees), right half exterior only
    # (degrees 0..4): many degrees of one half have no partner in the other
    gens = [GeneratorSpec(f"y{i}", POLYNOMIAL, 2, (i + 1,)) for i in range(4)]
    gens += [GeneratorSpec(f"x{i}", EXTERIOR, 1, (2 * i + 1,))
             for i in range(4)]
    alg = AlgebraSpec.make(7, 1, 1, gens)
    left = alg.restrict([g.id for g in gens[:4]])
    right = alg.restrict([g.id for g in gens[4:]])
    unpartnered = 0
    for d in range(13):
        for a in range(d + 1):
            if enumerate_monomials(left, a) and \
                    not enumerate_monomials(right, d - a):
                unpartnered += 1
        n = len(enumerate_monomials(alg, d))
        assert invariant_monomials_oracle(alg, d, max_count=n) == \
            invariant_monomials(alg, d)
        with pytest.raises(ResourceGuardError):
            invariant_monomials_oracle(alg, d, max_count=n - 1)
    assert unpartnered > 0


@settings(max_examples=80, deadline=None)
@given(weighted_specs(sparse=True),
       st.lists(st.integers(0, 8), min_size=2, max_size=2).map(sorted),
       st.sampled_from([None, 0]))
def test_oracle_closing_coordinates_is_exact(alg, window, budget):
    lo, hi = window
    expected = plain_invariants(alg, lo, hi)
    with pytest.MonkeyPatch.context() as mp:
        if budget is not None:      # no closing, step or product table kept
            mp.setattr(invalg, "_TABLE_BUDGET", budget)
        assert invariant_monomials_oracle_by_degree(alg, lo, hi) == expected


@pytest.mark.parametrize("n, p", [(n, p) for n in range(3, 7) for p in (5, 7)])
def test_oracle_matches_the_plain_filter_on_hooks(n, p):
    alg = _hook_spec(n, p, 1, 1, n)
    top = 2 * p - 3
    assert invariant_monomials_oracle_by_degree(alg, 1, top) == \
        plain_invariants(alg, 1, top)


def engine_work(monkeypatch):
    """Patch the count and the traceback to record, per call, the count's
    peak live entries and births and the traceback's probes."""
    work, count, trace = [], invalg._count_invariants, invalg._trace_back

    def counted(setup, lo, hi, births=None):
        counts, peak, most = count(setup, lo, hi, births)
        work.append({"peak": peak, "births": len(births or ())})
        return counts, peak, most

    def traced(setup, bases, lo, counts, births):
        found, probes = trace(setup, bases, lo, counts, births)
        work[-1]["probes"] = probes
        return found, probes

    monkeypatch.setattr(invalg, "_count_invariants", counted)
    monkeypatch.setattr(invalg, "_trace_back", traced)
    return work


def test_oracle_count_closes_coordinates(monkeypatch):
    # hook (8,7) in degree 9 has no invariant: the oracle's count holds at
    # most 65 live entries and traces nothing back; without its closing
    # tests the same count holds 27,329
    alg = _hook_spec(8, 7, 1, 1, 8)
    setup = alg._oracle_state
    none = [None] * len(setup[0])
    assert invalg._count_invariants(setup[:5] + (none, none), 9, 9)[1] == \
        27329
    work = engine_work(monkeypatch)
    assert invariant_monomials_oracle(alg, 9) == []
    assert work == [{"peak": 65, "births": 291, "probes": 0}]


def test_walks_make_children_only_that_reach_the_degrees(monkeypatch):
    # 20 zero-weight exterior generators in degree 20 have one monomial:
    # the traceback tries only exponents that leave a degree the generators
    # before reach, so it probes one birth per factor, where a walk making
    # children with every generator popped 1,048,575 nodes
    gens = [GeneratorSpec(f"x{i:02}", EXTERIOR, 1, (0,)) for i in range(20)]
    alg = AlgebraSpec.make(3, 1, 1, gens)
    work = engine_work(monkeypatch)
    listing = enumerate_monomials(alg, 20)
    assert invariant_monomials_oracle(alg, 20) == listing
    assert len(listing) == 1
    assert work == [{"peak": 20, "births": 21, "probes": 20}] * 2


def test_oracle_count_cap_on_live_entries_and_births(tmp_path, capsys,
                                                     monkeypatch):
    # the oracle's count of the (1,6) hook of U_6 at p = 7 in degree 11
    # holds at most 361 live entries and births at once; the divisibility
    # route's series and listings of the same spec need fewer
    alg = _hook_spec(6, 7, 1, 1, 6)
    want = plain_invariants(alg, 11, 11)
    monkeypatch.setattr(invalg, "SERIES_CAP", 361)
    assert invariant_monomials_oracle_by_degree(alg, 11, 11) == want
    monkeypatch.setattr(invalg, "SERIES_CAP", 360)
    with pytest.raises(ResourceGuardError) as exc:
        invariant_monomials_oracle(alg, 11)
    assert str(exc.value) == (
        "82 live (state, degree) entries and 279 births at generator "
        "'y[1,6,0]', position 15 of 18 in walk order, more than the cap 360")
    assert invariant_monomials(alg, 11) == want[0]
    # `invariants run --oracle` to degree 11: exit 0 at 361, 3 at 360
    spec = tmp_path / "hook.json"
    spec.write_text(invalg.canonical_json(alg.to_json_dict()))
    argv = ["invariants", "run", "--spec", str(spec), "--max-degree", "11",
            "--oracle"]
    assert main(argv) == 3
    assert "more than the cap 360" in capsys.readouterr().err
    monkeypatch.setattr(invalg, "SERIES_CAP", 361)
    assert main(argv) == 0


@pytest.mark.parametrize("n, p, degree, count", [(8, 11, 19, 76),
                                                 (7, 13, 23, 42)])
def test_oracle_reaches_the_large_hooks(n, p, degree, count):
    # degree 2p - 3 of the (1,n) hook holds more monomials than the default
    # cap (141,120,525 and 92,561,040), so the cap is raised
    alg = _hook_spec(n, p, 1, 1, n)
    with pytest.raises(ResourceGuardError):
        invariant_monomials_oracle(alg, degree)
    found = invariant_monomials_oracle(alg, degree, max_count=10 ** 9)
    assert len(found) == count
    assert found == invariant_monomials(alg, degree)


def test_rescaling_by_a_unit_preserves_invariants():
    alg = rank1_pair_algebra(7, 1)  # modulus 6, units 1 and 5
    for unit in (1, 5):
        gens = [GeneratorSpec(g.id, g.parity, g.degree,
                              tuple(unit * w for w in g.weight), g.tag)
                for g in alg.generators]
        scaled = AlgebraSpec.make(7, 1, 1, gens)
        for d in range(12):
            assert invariant_monomials(scaled, d) == invariant_monomials(alg, d)


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------

def test_dimension_series_gl2_p3():
    alg = rank1_pair_algebra(3, 1)
    assert dimension_series(alg, 8, "invariant") == [1, 0, 0, 1, 1, 0, 0, 1, 1]
    assert dimension_series(alg, 8, "invariant_nilpotent") == \
        [0, 0, 0, 1, 0, 0, 0, 1, 0]
    assert dimension_series(alg, 0, "all") == [1]


def test_nilpotent_series_bounded_by_invariant_series():
    rng = random.Random(99)
    for _ in range(10):
        alg = random_algebra_spec(rng)
        inv = dimension_series(alg, 5, "invariant")
        nil = dimension_series(alg, 5, "invariant_nilpotent")
        assert all(a <= b for a, b in zip(nil, inv))
        if alg.char2_mode:
            assert nil[1:] == [0] * 5


def test_dimension_series_matches_per_degree_enumeration():
    # the one-pass series against one single-degree walk per degree
    rng = random.Random(23)
    for _ in range(50):
        alg = random_algebra_spec(rng)
        exterior = {g.id for g in alg.generators if g.parity == EXTERIOR}
        every = [enumerate_monomials(alg, d) for d in range(9)]
        inv = [invariant_monomials(alg, d) for d in range(9)]
        assert dimension_series(alg, 8, "all") == [len(ms) for ms in every]
        assert dimension_series(alg, 8, "invariant") == [len(ms) for ms in inv]
        assert dimension_series(alg, 8, "invariant_nilpotent") == [
            sum(1 for m in ms if m.support() & exterior) for ms in inv]


def test_oracle_cap_is_exact_at_the_requested_degree():
    # the oracle counts the degree's monomials from the Hilbert series
    # before anything else, so the cap trips exactly above that count
    rng = random.Random(31)
    for _ in range(20):
        alg = random_algebra_spec(rng)
        for d in (0, 3, 6):
            n = len(enumerate_monomials(alg, d))
            invariant_monomials_oracle(alg, d, max_count=n)
            if n:
                with pytest.raises(ResourceGuardError):
                    invariant_monomials_oracle(alg, d, max_count=n - 1)


def test_dimension_series_all_cap_is_exact(monkeypatch):
    rng = random.Random(41)
    specs = [gr_u3_p3(), char2_rank1_algebra(3)] + \
        [random_algebra_spec(rng) for _ in range(20)]
    for alg in specs:
        dims = dimension_series(alg, 8, "all")
        assert dims == [len(enumerate_monomials(alg, d)) for d in range(9)]
        top = max(dims)
        monkeypatch.setattr(invalg, "MONOMIAL_CAP", top)
        assert dimension_series(alg, 8, "all") == dims
        lowest = dims.index(top)
        monkeypatch.setattr(invalg, "MONOMIAL_CAP", top - 1)
        with pytest.raises(ResourceGuardError,
                           match=f"^{top} monomials in degree {lowest},"):
            dimension_series(alg, 8, "all")
        monkeypatch.undo()


def test_invariant_series_cap_on_live_entries(monkeypatch):
    # the (1,6) hook of U_6 at p = 7 to degree 11 holds at most 21
    # (state, degree) entries at once; the cap trips on the 21st, naming the
    # generator, its walk position, the live count and the cap
    alg = _hook_spec(6, 7, 1, 1, 6)
    want = [1] + [0] * 10 + [24]
    monkeypatch.setattr(invalg, "SERIES_CAP", 21)
    stats = {}
    assert dimension_series(alg, 11, "invariant", stats=stats) == want
    assert stats["peak"] == 21 and stats["cap"] == 21
    monkeypatch.setattr(invalg, "SERIES_CAP", 20)
    for flt in ("invariant", "invariant_nilpotent"):
        with pytest.raises(ResourceGuardError) as exc:
            dimension_series(alg, 11, flt)
        assert str(exc.value) == (
            "21 live (state, degree) entries at generator 'x[3,6,0]', "
            "position 6 of 18 in walk order, more than the cap 20")
    # the Hilbert series is not held to it
    assert dimension_series(alg, 11, "all")[11] == 75582


def test_series_counts_list_nothing(monkeypatch):
    # an invariant series makes no factor code, records no births and
    # traces nothing back, and counts what the listing lists
    alg = _hook_spec(4, 5, 1, 1, 4)
    found = invariant_monomials_by_degree(alg, 0, 9)
    exterior = {g.id for g in alg.generators if g.parity == EXTERIOR}
    listed = {"invariant": [len(ms) for ms in found],
              "invariant_nilpotent": [
                  sum(any(i in exterior for i, _ in m.exps) for m in ms)
                  for ms in found]}
    assert listed["invariant"] != listed["invariant_nilpotent"]

    def refuse(*args, **kwargs):
        raise AssertionError("a series count listed monomials")

    for name in ("_codes", "_as_monomials", "_trace_back",
                 "invariant_monomials_by_degree"):
        monkeypatch.setattr(invalg, name, refuse)
    count = invalg._count_invariants

    def no_births(alg, lo, hi, births=None):
        assert births is None
        return count(alg, lo, hi)

    monkeypatch.setattr(invalg, "_count_invariants", no_births)
    for flt, want in listed.items():
        assert dimension_series(_hook_spec(4, 5, 1, 1, 4), 9, flt) == want


def test_dimension_series_far_out_closed_form():
    # gl2(3,1): x0 * y0^b is invariant for b odd, y0^b for b even, so
    # degree d has one invariant exactly when d = 0 or 3 mod 4; the pruning
    # tables for 60,000 degrees are built in time linear in the top degree
    series = dimension_series(gl2_algebra(3, 1), 60000, "invariant")
    assert series == [1 if d % 4 in (0, 3) else 0 for d in range(60001)]


def test_degree_cap_trips_before_anything_is_built(monkeypatch):
    alg = gl2_algebra(3, 1)
    top = invalg.DEGREE_CAP // 2     # 2 generators: one cell over the cap
    calls = [lambda: enumerate_monomials(alg, top),
             lambda: invariant_monomials_by_degree(alg, 0, top),
             lambda: invariant_monomials_oracle_by_degree(alg, top, top)] + \
        [lambda f=f: dimension_series(alg, top, f) for f in invalg.FILTERS]
    for name in ("_hilbert", "_walk_order", "_tables"):
        monkeypatch.setattr(invalg, name, None)    # a call would fail
    for call in calls:
        with pytest.raises(ResourceGuardError) as exc:
            call()
        for part in (f"degree {top} ", "2 generators", f"{2 * top + 2} ",
                     f"cap {invalg.DEGREE_CAP}"):
            assert part in str(exc.value)
    invalg._degree_range(alg.generators, 0, top - 1)
    # no generators still walk one table per degree
    with pytest.raises(ResourceGuardError):
        invalg._degree_range((), 0, invalg.DEGREE_CAP)
    # the largest gl2/sl2 landmark with q <= 2^20, p = 1048573 and r = 1,
    # walks 2 generators to degree r(2p - 2)
    invalg._degree_range(alg.generators, 0, 2 * 1048573 - 2)
    # a negative or inverted range is still invalid input, message kept
    with pytest.raises(InputError, match="^max_degree must be nonnegative$"):
        dimension_series(alg, -1)
    with pytest.raises(InputError, match=r"^degree range 3\.\.2 is not"):
        invariant_monomials_by_degree(alg, 3, 2)


def test_dimension_series_rejects_unknown_filter():
    with pytest.raises(InputError):
        dimension_series(rank1_pair_algebra(3, 1), 2, "weird")


# ---------------------------------------------------------------------------
# detection kernels
# ---------------------------------------------------------------------------

def test_detection_kernel_gr_u3_hooks():
    alg = gr_u3_p3()
    hooks = [{"x12", "y12"}, {"x13", "y13"}, {"x23", "y23"}]
    # the hook through (1,3) contains all three positions for n = 3
    hooks[1] = {"x12", "y12", "x13", "y13", "x23", "y23"}
    rep = detection_kernel(alg, 3, hooks)
    assert rep["kernel_dim"] == 0
    assert rep["cokernel_dim"] == 0
    assert rep["kernel_basis"] == []


def test_detection_kernel_empty_family():
    rep = detection_kernel(gr_u3_p3(), 3, [])
    assert rep["kernel_dim"] == 4
    assert rep["invariant_dim"] == 4


def test_detection_kernel_full_family_property():
    rng = random.Random(3)
    for _ in range(10):
        alg = random_algebra_spec(rng)
        full = [set(g.id for g in alg.generators)]
        for d in range(1, 5):
            assert detection_kernel(alg, d, full)["kernel_dim"] == 0


def test_detection_kernel_hook_n4():
    alg = hook_algebra_n4_p5()
    edge2 = {"x13", "y13", "x14", "y14", "x34", "y34"}
    edge3 = {"x12", "y12", "x14", "y14", "x24", "y24"}
    rep = detection_kernel(alg, 7, [edge2, edge3])
    assert rep["kernel_dim"] == 1
    assert rep["cokernel_dim"] == 1
    assert rep["kernel_basis"] == [monomial_json(
        mono(x12=1, x13=1, x14=1, x24=1, x34=1, y14=1))]


def test_detection_kernel_unknown_id():
    with pytest.raises(InputError):
        detection_kernel(gr_u3_p3(), 3, [{"bogus"}])


@dataclasses.dataclass(frozen=True)
class Support:
    ids: frozenset


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(0, 8), st.data())
def test_detection_kernel_bits_match_the_support_definition(seed, degree,
                                                            data):
    alg = random_algebra_spec(random.Random(seed))
    ids = sorted(alg.ids)
    members = data.draw(st.lists(st.frozensets(st.sampled_from(ids)),
                                 max_size=4))
    objects = data.draw(st.lists(st.booleans(), min_size=len(members),
                                 max_size=len(members)))
    drawn = [Support(m) if o else set(m) for m, o in zip(members, objects)]
    inv = invariant_monomials(alg, degree)
    # the drawn family, an empty one, one with a member holding every id,
    # and one with every member twice
    for family in (drawn, [], drawn + [Support(frozenset(ids))],
                   drawn + drawn):
        sets = [set(getattr(f, "ids", f)) for f in family]
        kernel = [m for m in inv
                  if not any(m.support() <= ids for ids in sets)]
        rep = detection_kernel(alg, degree, family)
        assert rep["kernel_basis"] == [monomial_json(m) for m in kernel]
        assert rep["kernel_dim"] == rep["cokernel_dim"] == len(kernel)
        assert rep["invariant_dim"] == len(inv)
        assert rep["family"] == [sorted(ids) for ids in sets]
    # an unknown id is refused before anything is counted
    with unittest.mock.patch.object(invalg, "_count_invariants") as count:
        with pytest.raises(InputError):
            detection_kernel(alg, degree, drawn + [{ids[0], "bogus"}])
    assert not count.called


# ---------------------------------------------------------------------------
# the digit-sum divisibility check
# ---------------------------------------------------------------------------

def test_quillen_verify_small_cases():
    rep = quillen_verify(3, 1)
    assert rep["pass"] and rep["equality_witness"] == [2]
    rep = quillen_verify(2, 2)
    assert rep["pass"] and rep["equality_witness"] == [1, 1]
    assert quillen_verify(5, 2)["pass"]


def test_quillen_verify_counts():
    rep = quillen_verify(2, 2)
    # tuples with 1 <= a0 + a1 <= 2: (1,0),(0,1),(2,0),(1,1),(0,2)
    assert rep["tuples_checked"] == 5
    assert rep["equality_matches"] == 1
    assert rep["failures"] == []


def test_quillen_verify_bad_input():
    with pytest.raises(InputError):
        quillen_verify(4, 1)
