"""Upper-unitriangular specialization: the graded weight model, hook/edge
supports, detection kernels, theorem reporters, and matrix-level checks."""

import itertools
import json
import time
from pathlib import Path

import pytest

from liecoh import grgln, invalg, verifygrid
from liecoh.errors import InputError, ResourceGuardError
from liecoh.ffq import Fq, FqMatrix, mat_pow
from liecoh.grgln import (
    build_gr_un,
    chern_coefficient,
    commuting_regular_subgroup,
    essential_kernel,
    exponent_check,
    hook_detection,
    max_rank,
    regular_unipotent_check,
    subgroup_support,
    theorem_borel_char2,
    theorem_lowest_gl,
)
from liecoh.invalg import EXTERIOR, POLYNOMIAL, Monomial, monomial_json


def test_build_gr_un_odd():
    spec = build_gr_un(3, 3, 1)
    alg = spec.algebra
    assert spec.n == 3
    assert alg.torus_rank == 3
    assert alg.moduli == (2, 2, 2)
    ids = [g.id for g in alg.generators]
    assert ids == ["x[1,2,0]", "y[1,2,0]", "x[1,3,0]", "y[1,3,0]",
                   "x[2,3,0]", "y[2,3,0]"]
    parities = {g.id: g.parity for g in alg.generators}
    assert parities["x[1,2,0]"] == EXTERIOR
    assert parities["y[1,2,0]"] == POLYNOMIAL
    # weight of (1,2) is e_1 - e_2 reduced mod 2
    assert alg.by_id("x[1,2,0]").weight == (1, 1, 0)
    assert alg.by_id("x[1,2,0]").weight == alg.by_id("y[1,2,0]").weight


def test_build_gr_un_char2():
    spec = build_gr_un(3, 2, 2)
    alg = spec.algebra
    assert alg.char2_mode
    assert len(alg.generators) == 6
    assert all(g.parity == POLYNOMIAL and g.degree == 1
               for g in alg.generators)
    assert alg.moduli == (3, 3, 3)
    assert alg.by_id("x[1,2,0]").weight == (1, 2, 0)
    assert alg.by_id("x[1,2,1]").weight == (2, 1, 0)


def test_build_gr_un_counts_and_errors():
    spec = build_gr_un(4, 5, 1)
    assert len(spec.algebra.generators) == 12
    assert spec.algebra.moduli == (4, 4, 4, 4)
    with pytest.raises(InputError):
        build_gr_un(1, 3, 1)


def test_weight_table_guard():
    # 161 * 160 generators of 161 weights each fit under 2^22 entries
    assert len(build_gr_un(161, 3, 1).algebra.generators) == 161 * 160
    for n, p, count in ((162, 3, 26082), (300, 2, 44850)):
        start = time.perf_counter()
        with pytest.raises(ResourceGuardError,
                           match=f"n = {n}, p = {p}, r = 1 .* {count} "
                                 f"generators x {n} weights .*cap 4194304"):
            build_gr_un(n, p, 1)
        assert time.perf_counter() - start < 0.1


def test_triangle_weight_additivity():
    spec = build_gr_un(4, 3, 1)
    alg = spec.algebra
    m = alg.moduli[0]
    for i in range(1, 5):
        for j in range(i + 1, 5):
            for loong in range(j + 1, 5):
                wij = alg.by_id(f"x[{i},{j},0]").weight
                wjl = alg.by_id(f"x[{j},{loong},0]").weight
                wil = alg.by_id(f"x[{i},{loong},0]").weight
                assert tuple((a + b) % m for a, b in zip(wij, wjl)) == wil


def test_subgroup_supports():
    spec = build_gr_un(3, 3, 1)
    hook = subgroup_support(spec, "hook", 1, 3)
    assert hook.name == "hook(1,3)"
    assert hook.ids == {"x[1,2,0]", "y[1,2,0]", "x[1,3,0]", "y[1,3,0]",
                        "x[2,3,0]", "y[2,3,0]"}
    edge = subgroup_support(spec, "edge", 2)
    assert edge.name == "edge_L(2)"
    assert edge.ids == {"x[1,3,0]", "y[1,3,0]"}

    spec4 = build_gr_un(4, 5, 1)
    edge3 = subgroup_support(spec4, "edge", 3)
    positions = {i[:6] for i in edge3.ids}
    assert positions == {"x[1,2,", "y[1,2,", "x[1,4,", "y[1,4,",
                         "x[2,4,", "y[2,4,"}

    root = subgroup_support(spec4, "root", 1, 2)
    assert root.ids == {"x[1,2,0]", "y[1,2,0]"}
    sup = subgroup_support(spec4, "root", 2, 3)
    assert sup.ids == {"x[2,3,0]", "y[2,3,0]"}


def test_subgroup_support_twist_closure():
    spec = build_gr_un(3, 2, 2)
    root = subgroup_support(spec, "root", 1, 2)
    assert root.ids == {"x[1,2,0]", "x[1,2,1]"}


def test_subgroup_support_errors():
    spec = build_gr_un(3, 3, 1)
    for args, message in [
            (("hook", 2, 2), "need 1 <= i < j <= 3, got (2, 2)"),
            (("hook", 0, 3), "need 1 <= i < j <= 3, got (0, 3)"),
            (("hook", 1), "hook support takes two indices"),
            (("hook", 1, 2, 3), "hook support takes two indices"),
            (("edge", 1), "edge index must satisfy 1 < i < 3"),
            (("edge", 3), "edge index must satisfy 1 < i < 3"),
            (("edge", 1, 2), "edge support takes one index"),
            (("edge",), "edge support takes one index"),
            (("root", 3, 2), "need 1 <= i < j <= 3, got (3, 2)"),
            (("root", 1, 4), "need 1 <= i < j <= 3, got (1, 4)"),
            (("root", 2), "root support takes two indices"),
            (("superdiag", 3), "unknown support kind 'superdiag'"),
            (("superdiag", 0), "unknown support kind 'superdiag'"),
            (("nonsense", 1), "unknown support kind 'nonsense'")]:
        with pytest.raises(InputError) as exc:
            subgroup_support(spec, *args)
        assert str(exc.value) == message, args


def test_edges_inside_hook():
    spec = build_gr_un(5, 5, 1)
    hook = subgroup_support(spec, "hook", 1, 5)
    for i in (2, 3, 4):
        edge = subgroup_support(spec, "edge", i)
        assert edge.ids < hook.ids


def test_hook_detection_odd():
    rep = hook_detection(build_gr_un(3, 3, 1))
    assert rep["degree"] == 3
    assert rep["series"] == [1, 0, 0, 4]
    assert rep["vanishing_ok"] is True
    assert rep["kernel_dim"] == 0
    assert rep["dim_at_degree"] == 4
    assert rep["pass"] is True


def test_hook_detection_char2():
    rep = hook_detection(build_gr_un(3, 2, 2))
    assert rep["degree"] == 2
    assert rep["series"] == [1, 0, 3]
    assert rep["kernel_dim"] == 0
    assert rep["dim_at_degree"] == 3  # C(3,2)
    assert rep["pass"] is True

    rep = hook_detection(build_gr_un(4, 2, 1))
    assert rep["degree"] == 1
    assert rep["kernel_dim"] == 0
    assert rep["dim_at_degree"] == 6


def test_hook_detection_walks_each_degree_once(monkeypatch):
    # degrees below d are counted by the series, degree d by the kernel's
    # listing: each degree 0..d is counted by exactly one of them
    windows = []
    count = invalg._count_invariants

    def record_count(alg, lo, hi, *args):
        windows.append((lo, hi))
        return count(alg, lo, hi, *args)

    monkeypatch.setattr(invalg, "_count_invariants", record_count)
    for spec, degree in ((build_gr_un(3, 3, 1), None),
                         (build_gr_un(4, 3, 2), 5)):
        windows.clear()
        rep = hook_detection(spec, degree)
        walked = [d for lo, hi in windows for d in range(lo, hi + 1)]
        assert sorted(walked) == list(range(rep["degree"] + 1))
    assert rep["series"] == [1, 0, 0, 0, 0, 0]


def test_essential_kernel_unique_witness():
    rep = essential_kernel(4, 5)
    assert rep["degree"] == 7
    assert rep["kernel_dim"] == 1
    witness = Monomial((("x[1,2,0]", 1), ("x[1,3,0]", 1), ("x[1,4,0]", 1),
                        ("x[2,4,0]", 1), ("x[3,4,0]", 1), ("y[1,4,0]", 1)))
    assert rep["kernel_basis"] == [monomial_json(witness)]
    assert rep["discrepancy"] is False
    assert rep["caution"] is False


def test_essential_kernel_vanishes_beyond_p():
    rep = essential_kernel(6, 5)
    assert rep["kernel_dim"] == 0
    assert rep["discrepancy"] is False
    rep = essential_kernel(5, 3)
    assert rep["kernel_dim"] == 0
    assert rep["discrepancy"] is False


def test_essential_kernel_large_p_hooks():
    # invariant dimensions as computed with the degree-free (suffix-gcd)
    # pruning, where these two walks took a few seconds together
    for n, p, invariant_dim in ((8, 11, 76), (7, 13, 42)):
        rep = essential_kernel(n, p)
        assert rep["degree"] == 2 * p - 3
        assert rep["invariant_dim"] == invariant_dim
        assert rep["kernel_dim"] == 1
        assert rep["discrepancy"] is False


def test_essential_kernel_walk_counts(monkeypatch):
    # the listing walk popped 990 nodes and pruned 7,251 children on (8,11),
    # 367 and 3,682 on (7,13); the traceback probes a birth per (node,
    # generator, exponent) tried and prunes nothing
    walks = []
    listing = invalg.invariant_monomials_by_degree

    def record(alg, lo, hi):
        found = listing(alg, lo, hi, stats=(stats := {}))
        walks.append(stats)
        return found

    monkeypatch.setattr(invalg, "invariant_monomials_by_degree", record)
    cap = invalg.SERIES_CAP
    for (n, p), want in (
            ((8, 11), {"peak": 42, "births": 240, "probes": 841,
                       "leaves": [76], "cap": cap}),
            ((7, 13), {"peak": 38, "births": 208, "probes": 455,
                       "leaves": [42], "cap": cap})):
        walks.clear()
        assert essential_kernel(n, p)["kernel_dim"] == 1
        assert walks == [want]


def _closed_form_kernel(n, p):
    exps = [(f"x[1,{j},0]", 1) for j in range(2, n + 1)]
    exps += [(f"x[{i},{n},0]", 1) for i in range(2, n)]
    if p > n:
        exps.append((f"y[1,{n},0]", p - n))
    return [monomial_json(Monomial(tuple(exps)))]


def test_essential_kernel_every_hook_up_to_13():
    # the whole range 2 <= n <= p that the GL_n(F_p) statement rests on;
    # in the spec's order (12,13) alone ran past 60 s
    frozen = {(11, 13): 530, (12, 13): 1044, (13, 13): 2070}
    for p in (3, 5, 7, 11, 13):
        for n in range(2, p + 1):
            start = time.perf_counter()
            rep = essential_kernel(n, p)
            elapsed = time.perf_counter() - start
            assert elapsed < 10, f"({n},{p}) took {elapsed:.1f}s"
            assert rep["degree"] == 2 * p - 3
            if n == 3:
                assert rep["caution"] is True
                continue
            assert rep["discrepancy"] is False
            assert rep["kernel_dim"] == 1
            assert rep["kernel_basis"] == _closed_form_kernel(n, p)
            if (n, p) in frozen:
                assert rep["invariant_dim"] == frozen[n, p]


def test_essential_kernel_rank_one():
    rep = essential_kernel(2, 5)
    assert rep["kernel_dim"] == 1
    assert rep["kernel_basis"][0]["str"] == "x[1,2,0]*y[1,2,0]^3"
    assert rep["discrepancy"] is False


def test_essential_kernel_n3_reports_discrepancy():
    rep = essential_kernel(3, 3)
    assert rep["kernel_dim"] == 3
    assert rep["discrepancy"] is True
    assert rep["caution"] is True
    got = [b["str"] for b in rep["kernel_basis"]]
    assert got == ["x[1,2,0]*x[1,3,0]*x[2,3,0]", "x[1,2,0]*y[1,2,0]",
                   "x[2,3,0]*y[2,3,0]"]

    rep = essential_kernel(3, 5)
    assert rep["kernel_dim"] == 3
    assert rep["discrepancy"] is True
    got = [b["str"] for b in rep["kernel_basis"]]
    assert got == ["x[1,2,0]*x[1,3,0]*x[2,3,0]*y[1,3,0]^2",
                   "x[1,2,0]*y[1,2,0]^3", "x[2,3,0]*y[2,3,0]^3"]


def test_essential_kernel_domain():
    with pytest.raises(InputError):
        essential_kernel(4, 2)
    with pytest.raises(InputError):
        essential_kernel(1, 5)


def test_theorem_lowest_gl_values():
    ones = [(2, 3, 1), (4, 5, 1), (2, 2, 3)]
    zeros = [(5, 3, 1), (6, 5, 1), (3, 2, 1), (3, 2, 2), (4, 2, 1)]
    for n, p, r in ones:
        rep = theorem_lowest_gl(n, p, r)
        assert rep["dim"] == 1, (n, p, r)
        assert rep["discrepancy"] is False, (n, p, r)
    for n, p, r in zeros:
        rep = theorem_lowest_gl(n, p, r)
        assert rep["dim"] == 0, (n, p, r)
        assert rep["discrepancy"] is False, (n, p, r)


def test_theorem_lowest_gl_flags_n3():
    rep = theorem_lowest_gl(3, 5, 1)
    assert rep["dim"] == 1
    assert rep["discrepancy"] is True
    assert rep["caution"] is True


def test_theorem_lowest_gl_grid_to_p7():
    # every odd p <= 7 and 2 <= n <= p + 1; n = 3 carries the caution flag
    # of its degenerate edge family (see test_theorem_lowest_gl_flags_n3)
    for p in (3, 5, 7):
        for n in range(2, p + 2):
            rep = theorem_lowest_gl(n, p, 1)
            assert rep["caution"] is (n == 3), (n, p)
            assert rep["discrepancy"] is (n == 3), (n, p)
            assert rep["dim"] == (1 if n <= p else 0), (n, p)


def test_theorem_lowest_gl_ingredient_labels():
    rep = theorem_lowest_gl(4, 5, 1)
    statuses = {i["status"] for i in rep["ingredients"]}
    assert statuses == {"computed", "cited"}
    for ing in rep["ingredients"]:
        assert ing["fact"]
        if ing["status"] == "cited":
            assert ing["quote"]
        else:
            assert ing["ok"] is True


def test_theorem_lowest_gl_domain():
    with pytest.raises(InputError):
        theorem_lowest_gl(3, 3, 2)
    with pytest.raises(InputError):
        theorem_lowest_gl(1, 3, 1)


def test_theorem_borel_char2():
    assert theorem_borel_char2(2, 1)["dim"] == 1
    assert theorem_borel_char2(5, 1)["dim"] == 4
    rep = theorem_borel_char2(4, 2)
    assert rep["dim"] == 3
    assert rep["discrepancy"] is False
    gr = next(i for i in rep["ingredients"]
              if i["status"] == "computed" and "C(n,2)" in i["fact"])
    assert gr["ok"] is True
    assert gr["detail"]["dim_at_degree"] == 6
    with pytest.raises(InputError):
        theorem_borel_char2(1, 1)


def test_regular_unipotent_check():
    f3 = Fq(3, 1)
    jordan = FqMatrix.from_ints(f3, [[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    assert regular_unipotent_check(jordan) is True
    assert regular_unipotent_check(FqMatrix.identity(f3, 3)) is False
    f5 = Fq(5, 1)
    m = FqMatrix.from_ints(f5, [[1, 2, 1], [0, 1, 0], [0, 0, 1]])
    assert regular_unipotent_check(m) is False
    lower = FqMatrix.from_ints(f3, [[1, 0, 0], [1, 1, 0], [0, 0, 1]])
    with pytest.raises(InputError):
        regular_unipotent_check(lower)


def test_commuting_regular_subgroup():
    rep = commuting_regular_subgroup(3, 3, 1)
    assert len(rep["generators"]) == 1
    assert rep["order"] == 3
    assert rep["nontrivial_count"] == 2
    assert rep["pass"] is True

    rep = commuting_regular_subgroup(3, 5, 2)
    assert len(rep["generators"]) == 2
    assert rep["order"] == 25
    assert rep["nontrivial_count"] == 24
    assert rep["all_regular"] is True
    assert rep["commuting"] is True
    assert rep["exponent_p"] is True
    assert rep["pass"] is True

    assert commuting_regular_subgroup(5, 5, 1)["pass"] is True

    with pytest.raises(InputError):
        commuting_regular_subgroup(4, 3, 1)


def regular_subgroup_reference(n, p, r):
    """`commuting_regular_subgroup`'s report, each element built on its own
    by multiplying its generator powers left to right."""
    field = Fq(p, r)
    gens = [FqMatrix.from_ints(field, [[int(a == b) + p ** i * (b == a + 1)
                                        for b in range(n)] for a in range(n)])
            for i in range(r)]
    ident = FqMatrix.identity(field, n)
    elements = []
    for cs in itertools.product(range(p), repeat=r):
        m = ident
        for g, c in zip(gens, cs):
            m = m * mat_pow(g, c)
        elements.append(m)
    commuting = all(a * b == b * a for a in gens for b in gens)
    exponent_p = all(g != ident and mat_pow(g, p) == ident for g in gens)
    distinct = len(set(elements)) == p ** r
    nontrivial = [m for m in elements if m != ident]
    all_regular = all(regular_unipotent_check(m) for m in nontrivial)
    return {
        "op": "commuting_regular_subgroup",
        "params": {"n": n, "p": p, "r": r},
        "generators": [g.to_int_rows() for g in gens],
        "order": p ** r,
        "nontrivial_count": len(nontrivial),
        "commuting": commuting,
        "exponent_p": exponent_p,
        "distinct": distinct,
        "all_regular": all_regular,
        "pass": commuting and exponent_p and distinct and all_regular,
    }


@pytest.mark.parametrize("n,p,r", [(3, 3, 1), (3, 5, 2), (5, 5, 1),
                                   (3, 3, 4), (2, 2, 6)])
def test_commuting_regular_subgroup_matches_reference(n, p, r):
    assert commuting_regular_subgroup(n, p, r) == \
        regular_subgroup_reference(n, p, r)


def test_commuting_regular_subgroup_product_count(monkeypatch):
    calls = []
    product = FqMatrix.__mul__

    def counting(a, b):
        calls.append(1)
        return product(a, b)

    monkeypatch.setattr(FqMatrix, "__mul__", counting)
    commuting_regular_subgroup(3, 3, 6)
    # q = 729 elements built level by level: a nonempty prefix of level k
    # (3^k - 1 of them) times each of 2 powers, 716 products; 6 squarings
    # for the powers, 2 per pair of the 6 generators for commuting (30), and
    # g^3 = g^2 * g for each generator (6)
    assert len(calls) == 716 + 6 + 30 + 6


def test_matrix_work_guard_trips_before_building_matrices():
    for check, args, products in (
            (exponent_check, (1500, 2, 1, "sample", 1), 12),
            (commuting_regular_subgroup, (600, 601, 1), 6452)):
        n, p, r = args[:3]
        start = time.perf_counter()
        with pytest.raises(ResourceGuardError,
                           match=f"n = {n}, p = {p}, r = {r} .* {products} "
                                 f"matrix products of {n}\\^3 .*, "
                                 f"{products * n ** 3} in all, over the cap "
                                 f"1000000000"):
            check(*args)
        assert time.perf_counter() - start < 0.1


def test_matrix_work_guard_counts_every_product(monkeypatch):
    # the regular subgroup check of (3, 3, 6) makes exactly 758 products
    # of 27 multiply-adds (counted above), the exponent check of (3, 3, 1)
    # 27 p-th powers of 2 products each, and the guard counts no fewer
    monkeypatch.setattr(grgln, "MATRIX_WORK_CAP", 758 * 27)
    assert commuting_regular_subgroup(3, 3, 6)["pass"] is True
    for products, check, args in ((758, commuting_regular_subgroup, (3, 3, 6)),
                                  (54, exponent_check, (3, 3, 1))):
        monkeypatch.setattr(grgln, "MATRIX_WORK_CAP", products * 27 - 1)
        with pytest.raises(ResourceGuardError):
            check(*args)


def test_exponent_check_all():
    rep = exponent_check(3, 3, 1)
    assert rep["pass"] is True
    assert rep["elements_checked"] == 27
    assert rep["witness"] is None

    rep = exponent_check(3, 2, 1)
    assert rep["pass"] is False
    assert rep["witness"] == [[1, 1, 0], [0, 1, 1], [0, 0, 1]]
    assert rep["witness_order"] == 4


def test_exponent_check_sample():
    rep = exponent_check(4, 5, 1, mode="sample", count=1000, seed=1)
    assert rep["pass"] is True
    assert rep["elements_checked"] == 1000
    again = exponent_check(4, 5, 1, mode="sample", count=1000, seed=1)
    assert again == rep


def test_chern_coefficient():
    for n, p in [(2, 3), (3, 3), (2, 5), (3, 5), (2, 7), (4, 2)]:
        assert chern_coefficient(n, p) == 1, (n, p)
    with pytest.raises(InputError):
        chern_coefficient(1, 3)
    with pytest.raises(InputError):
        chern_coefficient(2, 4)


def test_max_rank():
    assert max_rank(2, 1) == 1
    assert max_rank(4, 1) == 4
    assert max_rank(5, 3) == 18
    with pytest.raises(InputError):
        max_rank(0, 1)


def test_exponent_order_matches_matrix_power():
    f2 = Fq(2, 1)
    m = FqMatrix.from_ints(f2, [[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    assert mat_pow(m, 2) != FqMatrix.identity(f2, 3)
    assert mat_pow(m, 4) == FqMatrix.identity(f2, 3)


def test_matrix_check_reports_frozen():
    """The matrix checks' reports, witnesses and generators included, must
    not move when the matrix representation or the sampler changes.  The
    (4,3,1) and (3,2,3) samples have n > p, so their witnesses come from
    the seeded draws."""
    frozen = json.loads(
        Path(__file__).with_name("frozen_matrix_reports.json").read_text())
    reports = {"exponent_3_2_1": exponent_check(3, 2, 1),
               "regular_3_3_6": commuting_regular_subgroup(3, 3, 6),
               "regular_5_5_1": commuting_regular_subgroup(5, 5, 1)}
    for s in (11, 29):
        for n, p, r, count in [(4, 5, 1, 500), (2, 2, 20, 200),
                               (4, 3, 1, 50), (3, 2, 3, 50)]:
            reports[f"exponent_{n}_{p}_{r}_sample_{s}"] = \
                exponent_check(n, p, r, "sample", count, s)
    assert sorted(reports) == sorted(frozen)
    for name, rep in reports.items():
        assert invalg.canonical_json(rep) == invalg.canonical_json(frozen[name])


# ---------------------------------------------------------------------------
# results shared within one verification run
# ---------------------------------------------------------------------------

BENCH_GRID = ["c01", "c02", "c03", "c04", "c05", "c06", "c07", "c09", "c10",
              "c11", "c13", "c14"]


def _count_detection_kernels(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return invalg.detection_kernel(*args, **kwargs)
    monkeypatch.setattr(grgln, "detection_kernel", counted)
    return calls


def test_shared_counts_on_the_benchmark_grid_and_same_bytes():
    rep = verifygrid.run_grid(BENCH_GRID)
    assert rep["shared"] == {"build_gr_un": [29, 33],
                             "hook_detection": [21, 23],
                             "essential_kernel": [13, 4]}
    assert grgln._store is None
    direct = [dict(verifygrid.CRITERIA)[name]() for name in BENCH_GRID]
    assert invalg.canonical_json(rep["criteria"]) == \
        invalg.canonical_json(direct)


def test_shared_counts_on_the_full_grid():
    assert verifygrid.run_grid()["shared"] == {"build_gr_un": [29, 59],
                                    "hook_detection": [21, 23],
                                    "essential_kernel": [13, 4]}


def test_nothing_is_shared_outside_a_run(monkeypatch):
    calls = _count_detection_kernels(monkeypatch)
    first = hook_detection(build_gr_un(3, 3, 1))
    second = hook_detection(build_gr_un(3, 3, 1))
    assert len(calls) == 2
    assert first == second and first is not second
    assert build_gr_un(3, 3, 1) is not build_gr_un(3, 3, 1)
    assert essential_kernel(4, 5) is not essential_kernel(4, 5)
    assert len(calls) == 4


def test_equal_calls_share_one_result_inside_a_run(monkeypatch):
    calls = _count_detection_kernels(monkeypatch)
    with grgln.shared_run() as counts:
        spec = build_gr_un(3, 3, 1)
        assert build_gr_un(3, 3, 1) is spec
        first = hook_detection(spec)
        assert hook_detection(build_gr_un(3, 3, 1)) is first
        assert hook_detection(spec, 2) is not first    # a different call
        for _ in range(2):
            with pytest.raises(InputError):
                build_gr_un(1, 3, 1)
    assert len(calls) == 2
    assert counts == {"build_gr_un": [1, 2], "hook_detection": [2, 1]}
    assert grgln._store is None
    assert hook_detection(spec) is not first
    assert len(calls) == 3


def test_a_raising_criterion_leaves_no_store(monkeypatch):
    def broken():
        hook_detection(build_gr_un(3, 3, 1))
        raise RuntimeError("criterion failed")
    monkeypatch.setattr(verifygrid, "CRITERIA",
                        [("c05", verifygrid.c05), ("c06", broken)])
    with pytest.raises(RuntimeError):
        verifygrid.run_grid()
    assert grgln._store is None
    calls = _count_detection_kernels(monkeypatch)
    hook_detection(build_gr_un(3, 3, 1))
    hook_detection(build_gr_un(3, 3, 1))
    assert len(calls) == 2
