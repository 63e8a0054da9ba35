"""Unitriangular groups over F_q: the graded weight model, detection against
hook / edge / root supports, the lowest-cohomology reporters, and exact
matrix-level sanity checks.

The graded model of the upper unitriangular group U_n(F_q) has one generator
pair per matrix position (i, j), i < j, and per Frobenius twist k < r:
an exterior class x[i,j,k] of degree 1 and a polynomial class y[i,j,k] of
degree 2 (in characteristic 2 only a polynomial x[i,j,k] of degree 1).  The
diagonal torus acts on both through the character p^k (e_i - e_j), reduced
mod q - 1 in every coordinate.

The theorem reporters separate what this package recomputes from what it
takes as given: every ingredient in a report is labelled `computed` (with an
`ok` flag the caller can trust) or `cited` (with the bare statement being
relied on).  A failed computed ingredient sets `discrepancy` on the report;
it never silently flips the reported dimension.
"""

import contextlib
import functools
import itertools
import math
from dataclasses import dataclass

from .errors import InputError, ResourceGuardError
from .ffq import ENUMERATION_CAP, Fq, FqMatrix, mat_pow, mat_pow_products, \
    prime_power, unitriangular_elements
from .gl2 import gl2_landmarks
from .invalg import (
    AlgebraSpec,
    Monomial,
    _detection,
    detection_kernel,
    dimension_series,
    graded_model_guard,
    graded_pair,
    monomial_json,
)


MATRIX_WORK_CAP = 10 ** 9    # products x n^3 multiply-adds of one check


# ---------------------------------------------------------------------------
# results shared within one verification run
# ---------------------------------------------------------------------------

# (results by call, {function name: [computed, reused]}) while a
# `shared_run` is open; None otherwise, and then every call computes
_store = None


@contextlib.contextmanager
def shared_run():
    """Equal `_shared` calls inside the block compute once and return one
    read-only result; yields the [computed, reused] counts per function.
    Everything is dropped on exit, also when the block raises."""
    global _store
    _store = ({}, {})
    try:
        yield _store[1]
    finally:
        _store = None


def _shared(fn):
    @functools.wraps(fn)
    def call(*args, **kwargs):
        if _store is None:
            return fn(*args, **kwargs)
        results, counts = _store
        key = (fn.__name__, args, tuple(kwargs.items()))
        if key in results:
            counts[fn.__name__][1] += 1
            return results[key]
        out = results[key] = fn(*args, **kwargs)    # a raise stores nothing
        counts.setdefault(fn.__name__, [0, 0])[0] += 1
        return out
    return call


# ---------------------------------------------------------------------------
# the graded weight model
# ---------------------------------------------------------------------------

def _positions(n):
    """The positions (i, j), 1 <= i < j <= n, row by row."""
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


@dataclass(frozen=True)
class GrUnSpec:
    """The graded model of U_n(F_q): matrix size and weighted algebra."""
    n: int
    algebra: AlgebraSpec

    @property
    def field(self) -> Fq:
        return self.algebra.field

    @functools.cached_property
    def position_ids(self) -> dict:
        """Each position's generator ids, read off the algebra, which holds
        one equal run of generators per position in `_positions` order."""
        gens = self.algebra.generators
        run = len(gens) // math.comb(self.n, 2)
        return {pos: tuple(g.id for g in gens[s * run:(s + 1) * run])
                for s, pos in enumerate(_positions(self.n))}


@_shared
def build_gr_un(n: int, p: int, r: int) -> GrUnSpec:
    """Weighted algebra for the graded unitriangular group, one generator
    pair per position (i, j), i < j, and twist k, ordered by (i, j, k).
    A weight table over `invalg.WEIGHT_TABLE_CAP` is refused before any
    generator is built."""
    if n < 2:
        raise InputError("matrix size must be at least 2")
    prime_power(p, r)     # before any generator is built
    graded_model_guard(f"n = {n}", p, r, math.comb(n, 2), n)
    gens = []
    for i, j in _positions(n):
        char = [(a == i) - (a == j) for a in range(1, n + 1)]    # e_i - e_j
        for k in range(r):
            gens += graded_pair(p, k, f"[{i},{j},{k}]", char)
    return GrUnSpec(n, AlgebraSpec.make(p, r, n, gens))


# ---------------------------------------------------------------------------
# supports of the standard subgroups
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubgroupSupport:
    """Named set of generator ids spanning a subgroup's graded image."""
    name: str
    ids: frozenset


def _hook_positions(n, left, right):
    pos = {(left, j) for j in range(left + 1, right + 1)}
    pos |= {(i, right) for i in range(left, right)}
    return pos


def subgroup_support(spec: GrUnSpec, kind: str, *indices) -> SubgroupSupport:
    """Generator ids for the standard subgroups, closed under twists.

    kind "hook" (two indices l < m): positions in row l up to column m plus
    column m from row l down — the elements fixing everything outside the
    (l, m) hook.  kind "edge" (one index i, 1 < i < n): the full (1, n) hook
    with positions (1, i) and (i, n) removed.  kind "root" (two indices):
    a single position.
    """
    n = spec.n

    def check(i, j):
        if not (1 <= i < j <= n):
            raise InputError(f"need 1 <= i < j <= {n}, got ({i}, {j})")

    if kind == "hook":
        if len(indices) != 2:
            raise InputError("hook support takes two indices")
        left, right = indices
        check(left, right)
        positions = _hook_positions(n, left, right)
        name = f"hook({left},{right})"
    elif kind == "edge":
        if len(indices) != 1:
            raise InputError("edge support takes one index")
        (i,) = indices
        if not 1 < i < n:
            raise InputError(f"edge index must satisfy 1 < i < {n}")
        positions = _hook_positions(n, 1, n) - {(1, i), (i, n)}
        name = f"edge_L({i})"
    elif kind == "root":
        if len(indices) != 2:
            raise InputError("root support takes two indices")
        i, j = indices
        check(i, j)
        positions = {(i, j)}
        name = f"root({i},{j})"
    else:
        raise InputError(f"unknown support kind {kind!r}")
    ids = frozenset(gid for pos in positions for gid in spec.position_ids[pos])
    return SubgroupSupport(name, ids)


# ---------------------------------------------------------------------------
# detection reports
# ---------------------------------------------------------------------------

@_shared
def hook_detection(spec: GrUnSpec, degree=None) -> dict:
    """Invariant dimension series up to the first interesting degree and the
    kernel of restriction to a detecting family (all hooks for p odd, all
    root supports in characteristic 2), from one count over degrees
    0..degree that traces back the kernel's degree alone."""
    p, r = spec.field.p, spec.field.r
    if degree is None:
        degree = r * (2 * p - 3)
    if degree < 1:
        raise InputError("degree must be at least 1")
    n, kind = spec.n, "root" if p == 2 else "hook"
    family = [subgroup_support(spec, kind, i, j) for i, j in _positions(n)]
    alg = spec.algebra
    series, det = _detection(alg, 0, degree, family)
    vanishing_ok = all(d == 0 for d in series[1:degree])
    return {
        "op": "hook_detection",
        "params": {"n": spec.n, "p": p, "r": r},
        "spec_hash": det["spec_hash"],
        "degree": degree,
        "series": series,
        "vanishing_ok": vanishing_ok,
        "dim_at_degree": series[degree],
        "kernel_dim": det["kernel_dim"],
        "cokernel_dim": det["cokernel_dim"],
        "kernel_basis": det["kernel_basis"],
        "family_names": [s.name for s in family],
        "pass": vanishing_ok and det["kernel_dim"] == 0,
    }


@_shared
def essential_kernel(n: int, p: int) -> dict:
    """Restrict the prime-field graded model to the full (1, n) hook and cut
    out everything the edge subgroups see, in degree 2p - 3.

    The closed form predicts a single surviving monomial for 2 <= n <= p
    (the product of the hook's exterior classes times y[1,n,0]^(p-n)) and
    nothing for n > p.  Whatever the enumeration finds is reported as-is;
    `discrepancy` records a mismatch with the closed form.  n = 3 carries a
    `caution` flag: with no middle column the edge family degenerates to a
    single member and the kernel comes out strictly larger.
    """
    if n < 2:
        raise InputError("matrix size must be at least 2")
    if p == 2:
        raise InputError("essential kernel needs an odd prime")
    spec = build_gr_un(n, p, 1)     # checks p through prime_power
    hook = subgroup_support(spec, "hook", 1, n)
    alg = spec.algebra.restrict(hook.ids)
    degree = 2 * p - 3
    edges = [subgroup_support(spec, "edge", i) for i in range(2, n)]
    det = detection_kernel(alg, degree, edges)

    expected = []
    if n <= p:
        ids = spec.position_ids     # (x, y) of each position at r = 1
        exps = [(ids[1, j][0], 1) for j in range(2, n + 1)]
        exps += [(ids[i, n][0], 1) for i in range(2, n)]
        if p > n:
            exps.append((ids[1, n][1], p - n))
        expected = [Monomial(tuple(exps))]
    expected_json = [monomial_json(m) for m in expected]
    return {
        "op": "essential_kernel",
        "params": {"n": n, "p": p, "r": 1},
        "spec_hash": det["spec_hash"],
        "degree": degree,
        "invariant_dim": det["invariant_dim"],
        "kernel_dim": det["kernel_dim"],
        "kernel_basis": det["kernel_basis"],
        "expected_dim": len(expected_json),
        "expected_basis": expected_json,
        "family_names": [e.name for e in edges],
        "discrepancy": det["kernel_basis"] != expected_json,
        "caution": n == 3,
    }


# ---------------------------------------------------------------------------
# theorem reporters
# ---------------------------------------------------------------------------

def _computed(fact: str, ok: bool, detail=None) -> dict:
    return {"fact": fact, "status": "computed", "ok": bool(ok),
            "detail": detail}


def _cited(fact: str, quote: str) -> dict:
    return {"fact": fact, "status": "cited", "quote": quote}


def _theorem_report(op, params, degree, dim, ingredients, caution) -> dict:
    """A theorem reporter's report; a computed ingredient that fails is a
    discrepancy."""
    return {"op": op, "params": params, "degree": degree, "dim": dim,
            "ingredients": ingredients,
            "discrepancy": any(i["status"] == "computed" and not i["ok"]
                               for i in ingredients),
            "caution": caution}


def theorem_lowest_gl(n: int, p: int, r: int) -> dict:
    """First potentially nonzero mod-p cohomology of GL_n(F_q) in degree
    r(2p - 3): dimension 1 for 2 <= n <= p, 0 beyond, with the supporting
    chain of computed and cited ingredients.

    Covered parameter ranges: characteristic 2 (any r) and odd p with r = 1;
    odd p with r > 1 is out of scope and rejected.
    """
    prime_power(p, r)
    if n < 2:
        raise InputError("matrix size must be at least 2")
    if p != 2 and r != 1:
        raise InputError("odd characteristic is only covered for r = 1")
    degree = r * (2 * p - 3)
    ingredients = []
    caution = False

    if p == 2:
        hd = hook_detection(build_gr_un(n, 2, r))
        ingredients.append(_computed(
            "graded invariants vanish strictly between degrees 0 and r, and "
            "at degree r have dimension C(n,2) with zero kernel against the "
            "root supports",
            hd["pass"] and hd["dim_at_degree"] == math.comb(n, 2),
            {"series": hd["series"], "dim_at_degree": hd["dim_at_degree"],
             "kernel_dim": hd["kernel_dim"]}))
        ingredients.append(_cited(
            "torus-invariant classes of the unitriangular group are detected "
            "on the root subgroups in degree r",
            "res: H^r(U_n(F_q))^T -> prod_(i<j) H^r(E_(i,j))^T is injective"))
        if n == 2:
            lm = gl2_landmarks(2, r)
            ingredients.append(_computed(
                "rank-one landmark: first positive degree r, dimension 1",
                lm["match"] and lm["first_positive_degree"] == r
                and lm["first_dim"] == 1,
                {"first_positive_degree": lm["first_positive_degree"],
                 "first_dim": lm["first_dim"]}))
        else:
            ingredients.append(_cited(
                "every root subgroup restriction vanishes through degree r "
                "once n > 2",
                "res: H^i(GL_n(F_q)) -> H^i(E_(l,m)) = 0 "
                "for 0 < i < r(n-1)(2p-3)"))
        dim = 1 if n == 2 else 0
    else:
        spec = build_gr_un(n, p, 1)
        series = dimension_series(spec.algebra, degree - 1, "invariant")
        ingredients.append(_computed(
            "graded invariants of the full unitriangular model vanish "
            "strictly between degrees 0 and 2p-3",
            all(d == 0 for d in series[1:]),
            {"series": series}))
        ingredients.append(_cited(
            "the full hook subgroup detects degree 2p-3",
            "res: H^(2p-3)(GL_n(F_p)) -> H^(2p-3)(hook(1,n)) is injective"))
        ingredients.append(_cited(
            "inside the hook, every edge subgroup receives zero",
            "res: H^(2p-3)(GL_n(F_p)) -> H^(2p-3)(edge_L(i)) = 0 "
            "for 1 < i < n"))
        es = essential_kernel(n, p)
        ingredients.append(_computed(
            "the hook invariants surviving every edge restriction match the "
            "closed-form basis",
            not es["discrepancy"],
            {"kernel_dim": es["kernel_dim"],
             "expected_dim": es["expected_dim"]}))
        caution = es["caution"]
        if n <= p:
            ingredients.append(_cited(
                "the surviving class restricts nontrivially, giving the "
                "lower bound",
                "dim H^(2p-3)(GL_n(F_p)) >= 1 for 2 <= n <= p"))
        dim = 1 if n <= p else 0

    return _theorem_report("theorem_lowest_gl", {"n": n, "p": p, "r": r},
                           degree, dim, ingredients, caution)


def theorem_borel_char2(n: int, r: int) -> dict:
    """Lowest positive mod-2 cohomology of the Borel subgroup of GL_n(F_2^r):
    dimension n - 1 in degree r, one line per superdiagonal position."""
    if n < 2:
        raise InputError("matrix size must be at least 2")
    spec = build_gr_un(n, 2, r)
    hd = hook_detection(spec)
    ingredients = [_computed(
        "graded invariants vanish below degree r and at degree r have "
        "dimension C(n,2) with zero kernel against the root supports",
        hd["pass"] and hd["dim_at_degree"] == math.comb(n, 2),
        {"series": hd["series"], "dim_at_degree": hd["dim_at_degree"],
         "kernel_dim": hd["kernel_dim"]})]
    sd_dims = []
    for k in range(1, n):
        sub = subgroup_support(spec, "root", k, k + 1)
        sd_dims.append(dimension_series(spec.algebra.restrict(sub.ids),
                                        r, "invariant")[r])
    ingredients.append(_computed(
        "each superdiagonal support carries a one-dimensional invariant "
        "line at degree r",
        all(d == 1 for d in sd_dims),
        {"superdiagonal_dims": sd_dims}))
    ingredients.append(_cited(
        "restriction to the superdiagonal root subgroups is surjective "
        "(each one is a retract of the Borel subgroup)",
        "res: H^r(B_n(F_q)) -> prod_k H^r(E_(k,k+1)) is surjective"))
    ingredients.append(_cited(
        "root subgroups strictly above the superdiagonal receive zero: "
        "they sit inside the center and the commutator subgroup at once, "
        "so degree-r classes restrict to perfect squares",
        "res: H^r(B_n(F_q)) -> H^r(E_(i,j)) = 0 for j > i + 1"))
    return _theorem_report("theorem_borel_char2", {"n": n, "p": 2, "r": r},
                           r, n - 1, ingredients, False)


# ---------------------------------------------------------------------------
# matrix-level checks
# ---------------------------------------------------------------------------

def _guard_matrix_work(check: str, n: int, p: int, r: int, products: int):
    """Refuse a check of this many n x n products, n^3 multiply-adds each,
    past MATRIX_WORK_CAP, before any matrix is built."""
    work = products * n ** 3
    if work > MATRIX_WORK_CAP:
        raise ResourceGuardError(
            f"{check} for n = {n}, p = {p}, r = {r} would make up to "
            f"{products} matrix products of {n}^3 multiply-adds, {work} in "
            f"all, over the cap {MATRIX_WORK_CAP}")


def regular_unipotent_check(m: FqMatrix) -> bool:
    """True when every superdiagonal entry of the unitriangular matrix is
    nonzero (single Jordan block); InputError if not unitriangular."""
    if not m.is_unitriangular():
        raise InputError("matrix must be upper unitriangular")
    return all(m.codes[k][k + 1] for k in range(m.n - 1))


def commuting_regular_subgroup(n: int, p: int, r: int) -> dict:
    """The subgroup generated by I + t^i J (J the nilpotent Jordan block,
    t^i running over the power basis of F_q over F_p), checked to be
    elementary abelian of order q with every nontrivial element regular.

    Needs n <= p: beyond that (I + J)^p picks up a J^p term and the
    generators no longer have order p.  Groups of order above
    ENUMERATION_CAP, and checks of more than MATRIX_WORK_CAP multiply-adds,
    are refused before any matrix is built.
    """
    if n < 2:
        raise InputError("matrix size must be at least 2")
    order = prime_power(p, r)
    if n > p:
        raise InputError("regular unipotents of order p need n <= p")
    if order > ENUMERATION_CAP:
        raise ResourceGuardError(
            f"regular subgroup check for n = {n}, p = {p}, r = {r} would "
            f"build {order} elements, over the cap {ENUMERATION_CAP}")
    # each generator's powers 1 .. p-1; each element past the first level,
    # its prefix times a power; two per pair of generators for commuting,
    # and g^(p-1) * g for each
    _guard_matrix_work(
        "regular subgroup check", n, p, r,
        r * sum(mat_pow_products(c) for c in range(1, p))
        + order - 1 - r * (p - 1) + r * (r - 1) + r)
    field = Fq(p, r)
    # I + t^i J, where t^i is element number p^i
    gens = [FqMatrix.from_ints(field, [[int(a == b) + p ** i * (b == a + 1)
                                        for b in range(n)] for a in range(n)])
            for i in range(r)]
    ident = FqMatrix.identity(field, n)
    powers = [[mat_pow(g, c) for c in range(1, p)] for g in gens]
    # g_0^c_0 ... g_(r-1)^c_(r-1) in itertools.product order (c_(r-1)
    # fastest), one generator per level: each element is its prefix times
    # one power, multiplied left to right, and c = 0 keeps the prefix
    elements = [ident]
    for pw in powers:
        elements = [m for pre in elements
                    for m in (pre, *(f if pre is ident else pre * f
                                     for f in pw))]
    commuting = all(a * b == b * a for a, b in itertools.combinations(gens, 2))
    exponent_p = all(g != ident and pw[-1] * g == ident
                     for g, pw in zip(gens, powers))
    distinct = len(set(elements)) == order
    nontrivial = [m for m in elements if m != ident]
    all_regular = all(regular_unipotent_check(m) for m in nontrivial)
    return {
        "op": "commuting_regular_subgroup",
        "params": {"n": n, "p": p, "r": r},
        "generators": [g.to_int_rows() for g in gens],
        "order": order,
        "nontrivial_count": len(nontrivial),
        "commuting": commuting,
        "exponent_p": exponent_p,
        "distinct": distinct,
        "all_regular": all_regular,
        "pass": commuting and exponent_p and distinct and all_regular,
    }


def exponent_check(n: int, p: int, r: int, mode: str = "all",
                   count=None, seed: int = 0) -> dict:
    """Does every unitriangular matrix satisfy m^p = I?  True only for
    n <= p; the first counterexample found is reported with its actual
    p-power order.  A check of more than MATRIX_WORK_CAP multiply-adds is
    refused before any matrix is built."""
    field = Fq(p, r)
    # the enumeration refuses more than ENUMERATION_CAP elements itself, and
    # 20 positions hold at least 2^20 > ENUMERATION_CAP of them
    size = min((count or 0) if mode == "sample"
               else field.q ** min(n * (n - 1) // 2, 20), ENUMERATION_CAP)
    # m^p per element, and for a witness at most ceil(log_p n) <=
    # n.bit_length() more p-th powers to find its order
    _guard_matrix_work("exponent check", n, p, r,
                       (size + n.bit_length()) * mat_pow_products(p))
    ident = FqMatrix.identity(field, n)
    checked = 0
    witness = None
    witness_order = None
    for m in unitriangular_elements(n, field, mode, count, seed):
        checked += 1
        if mat_pow(m, p) != ident:
            witness = m
            t, k = m, 0
            while t != ident:
                t = mat_pow(t, p)
                k += 1
            witness_order = p ** k
            break
    return {
        "op": "exponent_check",
        "params": {"n": n, "p": p, "r": r, "mode": mode,
                   "count": count, "seed": seed},
        "elements_checked": checked,
        "pass": witness is None,
        "witness": witness.to_int_rows() if witness is not None else None,
        "witness_order": witness_order,
    }


def chern_coefficient(n: int, p: int) -> int:
    """Leading coefficient (-1) * C(p^(n-1) - 1, 1) mod p of the Euler class
    expansion used to compare unitriangular and diagonal contributions; it
    always reduces to 1."""
    if n < 2:
        raise InputError("matrix size must be at least 2")
    prime_power(p, 1)
    return (-math.comb(p ** (n - 1) - 1, 1)) % p


def max_rank(n: int, r: int) -> int:
    """Largest rank of an elementary abelian p-subgroup of U_n(F_q):
    r * floor(n^2 / 4), attained by a maximal block of commuting positions."""
    if n < 1 or r < 1:
        raise InputError("need n >= 1 and r >= 1")
    return r * (n * n // 4)
