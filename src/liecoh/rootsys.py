"""Root-system combinatorics for the classical and exceptional families.

Roots live in simple-root coordinates: a positive root is an integer vector
of nonnegative coefficients.  The Cartan matrix rows are indexed by coroots,
`cartan[i][j] = 2(a_i, a_j)/(a_i, a_i)`, so the simple reflection s changes
only coordinate s of a root:

    sigma_s(b)_s = b_s - sum_j cartan[s][j] b_j.

Positive roots are generated by closing the simple roots under all simple
reflections and keeping the nonnegative vectors; counts, heights, and length
classes are then read off.  Lattices (character or cocharacter side) are
integer bases in fundamental-(co)weight coordinates: identity for the lattice
the side calls "full", Cartan rows/columns for the other extreme, arbitrary
integer bases for intermediate isogeny types.
"""

from dataclasses import dataclass
from fractions import Fraction
import functools
import math

from .errors import InputError, ResourceGuardError, require_int
from .ffq import is_prime, prime_factors, prime_power
from .invalg import AlgebraSpec, graded_model_guard, graded_pair

LONG = "long"
SHORT = "short"
RANK_CAP = 64      # total rank of one root system; the closure grows as rank^4

_RANK_RANGE = {
    "A": (1, None), "B": (2, None), "C": (2, None), "D": (3, None),
    "E": (6, 8), "F": (4, 4), "G": (2, 2),
}


@dataclass(frozen=True)
class Root:
    coords: tuple[int, ...]
    height: int
    length_class: str
    component: int


@dataclass(frozen=True)
class RootSystem:
    components: tuple[tuple[str, int], ...]
    cartan: tuple[tuple[int, ...], ...]
    positive_roots: tuple[Root, ...]
    simple_count: int
    ranges: tuple[tuple[int, int], ...]  # simple-index span per component

    @functools.cached_property
    def _positive_coords(self) -> frozenset:
        return frozenset(r.coords for r in self.positive_roots)

    def component_roots(self, ci: int):
        return [r for r in self.positive_roots if r.component == ci]


def _component_cartan(ctype: str, rank: int):
    a = [[2 * (i == j) for j in range(rank)] for i in range(rank)]

    def bond(i, j, aij=-1, aji=-1):
        a[i][j] = aij
        a[j][i] = aji

    if ctype in ("A", "B", "C"):
        for i in range(rank - 1):
            bond(i, i + 1)
        if ctype == "B" and rank >= 2:
            bond(rank - 2, rank - 1, -1, -2)   # last simple root short
        if ctype == "C" and rank >= 2:
            bond(rank - 2, rank - 1, -2, -1)   # last simple root long
    elif ctype == "D":
        for i in range(rank - 2):
            bond(i, i + 1)
        bond(rank - 3, rank - 1)
    elif ctype == "E":
        edges = [(0, 2), (1, 3), (2, 3), (3, 4), (4, 5)]
        if rank >= 7:
            edges.append((5, 6))
        if rank == 8:
            edges.append((6, 7))
        for i, j in edges:
            bond(i, j)
    elif ctype == "F":
        bond(0, 1)
        bond(1, 2, -1, -2)   # first two long, last two short
        bond(2, 3)
    elif ctype == "G":
        bond(0, 1, -3, -1)   # first simple root short
    return a


def _nonzero(cartan):
    """Per row i, the (j, cartan[i][j]) with a nonzero entry."""
    return [[(j, a) for j, a in enumerate(row) if a] for row in cartan]


def _reflection_closure(cartan, n):
    roots = {tuple(int(i == s) for i in range(n)) for s in range(n)}
    rows = _nonzero(cartan)
    frontier = list(roots)
    while frontier:
        fresh = []
        for beta in frontier:
            for s, row in enumerate(rows):
                coord = beta[s] - sum(a * beta[j] for j, a in row)
                if coord == beta[s]:
                    continue
                img = beta[:s] + (coord,) + beta[s + 1:]
                if min(img) >= 0 and img not in roots:
                    roots.add(img)
                    fresh.append(img)
        frontier = fresh
    return sorted(roots, key=lambda c: (sum(c), c))


def _symmetrizer(cartan, n):
    """Minimal positive integers d with d_i*cartan[i][j] symmetric."""
    d = [None] * n
    d[0] = Fraction(1)
    queue = [0]
    while queue:
        i = queue.pop()
        for j in range(n):
            if i != j and cartan[i][j] and d[j] is None:
                d[j] = d[i] * Fraction(cartan[i][j], cartan[j][i])
                queue.append(j)
    scale = math.lcm(*(x.denominator for x in d))
    ints = [int(x * scale) for x in d]
    g = math.gcd(*ints)
    return [x // g for x in ints]


def build_root_system(components) -> RootSystem:
    """Direct sum of simple components, each given as a (type, rank) pair.
    A total rank over RANK_CAP is refused before anything is built."""
    comps = [(str(t).upper(), int(n)) for t, n in components]
    if not comps:
        raise InputError("need at least one component")
    for t, n in comps:
        lo, hi = _RANK_RANGE.get(t, (None, None))
        if lo is None or n < lo or (hi is not None and n > hi):
            raise InputError(f"no root system of type {t}{n}")
    total = sum(n for _, n in comps)
    if total > RANK_CAP:
        raise ResourceGuardError(
            f"root system {' + '.join(f'{t}{n}' for t, n in comps)} has "
            f"total rank {total}, over the cap {RANK_CAP}")
    cartans = [_component_cartan(t, n) for t, n in comps]
    cartan = [[0] * total for _ in range(total)]
    roots = []
    ranges = []
    offset = 0
    for ci, ((_t, n), block) in enumerate(zip(comps, cartans)):
        for i in range(n):
            for j in range(n):
                cartan[offset + i][offset + j] = block[i][j]
        local = _reflection_closure(block, n)
        d = _symmetrizer(block, n)
        terms = [(i, j, d[i] * a) for i, row in enumerate(_nonzero(block))
                 for j, a in row]
        norms = [sum(c[i] * c[j] * da for i, j, da in terms) for c in local]
        top = max(norms)
        for c, norm in zip(local, norms):
            coords = (0,) * offset + c + (0,) * (total - offset - n)
            roots.append(Root(coords, sum(c),
                              LONG if norm == top else SHORT, ci))
        ranges.append((offset, offset + n))
        offset += n
    return RootSystem(tuple(comps), tuple(tuple(row) for row in cartan),
                      tuple(roots), total, tuple(ranges))


def highest_roots(rs: RootSystem):
    """The unique maximal-height root of each component."""
    out = []
    for ci in range(len(rs.components)):
        comp = rs.component_roots(ci)
        out.append(max(comp, key=lambda r: r.height))
    return out


def coxeter_number(rs: RootSystem):
    """Per component: one more than the height of the highest root."""
    return [hr.height + 1 for hr in highest_roots(rs)]


def is_good_prime(rs: RootSystem, p: int) -> bool:
    """True when p divides no (nonzero) coefficient of any positive root."""
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    return all(c % p for r in rs.positive_roots for c in r.coords if c)


def bad_primes(rs: RootSystem):
    top = max(c for r in rs.positive_roots for c in r.coords)
    return [p for p in range(2, top + 1)
            if is_prime(p) and not is_good_prime(rs, p)]


def coweight_one_witness(rs: RootSystem):
    """Per component: smallest simple index (1-based, global numbering)
    whose coefficient in the highest root is 1, or None."""
    out = []
    for hr, (lo, hi) in zip(highest_roots(rs), rs.ranges):
        found = None
        for s in range(lo, hi):
            if hr.coords[s] == 1:
                found = s + 1
                break
        out.append(found)
    return out


# ---------------------------------------------------------------------------
# lattices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatticeSpec:
    kind: str            # adjoint | simply_connected | custom
    side: str            # character | cocharacter
    basis: tuple[tuple[int, ...], ...]

    @functools.cached_property
    def coordinate_map(self):
        """(m, d) with m / d the inverse of the transposed basis and d its
        least common denominator, found on first use: a vector's coordinates
        in this basis are m . v / d."""
        return _inverse(self.basis)

    @functools.cached_property
    def _root_maps(self) -> dict:
        """id(rs) -> (rs, columns of m . cartan), composed on a root
        system's first `_root_lattice_coords`; holding rs keeps its id its
        own."""
        return {}

    @functools.cached_property
    def exponent(self) -> int:
        """Largest invariant factor of the basis: the least e with e times
        the inverse integral, which is the map's denominator (see
        `cofundamental_exponent`)."""
        return self.coordinate_map[1]


def _inverse(basis):
    """(adj / g, |det| / g) for the transposed basis, g = gcd(det, adjugate
    entries) signed like det.  Fraction-free Gauss-Jordan (Bareiss) on
    [basis^T | I] over ints: each step divides exactly by the previous
    pivot, and ends with det times I on the left and the adjugate, up to
    det's sign, on the right.  A row the step leaves unchanged (zero in the
    pivot column, pivot equal to the previous one) is skipped, so an
    identity basis costs O(n^2)."""
    n = len(basis)
    aug = [[row[i] for row in basis] + [int(i == k) for k in range(n)]
           for i in range(n)]
    prev = 1
    for col in range(n):
        piv = next((i for i in range(col, n) if aug[i][col]), None)
        if piv is None:
            raise InputError("lattice basis is singular")
        aug[piv], aug[col] = aug[col], aug[piv]
        pivot = aug[col]
        p = pivot[col]
        for i, row in enumerate(aug):
            f = row[col]
            if i != col and (f or p != prev):
                aug[i] = [(p * v - f * w) // prev for v, w in zip(row, pivot)]
        prev = p
    g = math.gcd(prev, *(v for row in aug for v in row[n:]))
    g = g if prev > 0 else -g
    return tuple(tuple(v // g for v in row[n:]) for row in aug), prev // g


def _normalize_kind(kind):
    k = str(kind).lower()
    if k in ("sc", "simply_connected", "simplyconnected"):
        return "simply_connected"
    if k in ("adjoint", "custom"):
        return k
    raise InputError(f"unknown lattice kind {kind!r}")


def _custom_basis(rs, basis):
    if basis is None:
        raise InputError("custom lattice needs an explicit basis")
    if not isinstance(basis, (list, tuple)) \
            or not all(isinstance(row, (list, tuple)) for row in basis):
        raise InputError("lattice basis must be a list of rows")
    rows = tuple(tuple(require_int(v, "lattice basis entry") for v in row)
                 for row in basis)
    if len(rows) != rs.simple_count or any(len(r) != rs.simple_count
                                           for r in rows):
        raise InputError("lattice basis must be square of full rank size")
    return rows


def cocharacter_lattice(rs: RootSystem, kind="adjoint",
                        basis=None) -> LatticeSpec:
    """Basis in fundamental-coweight coordinates: the adjoint group has the
    full coweight lattice (identity), the simply connected one the coroot
    lattice (Cartan rows)."""
    kind = _normalize_kind(kind)
    n = rs.simple_count
    if kind == "adjoint":
        rows = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    elif kind == "simply_connected":
        rows = rs.cartan
    else:
        rows = _custom_basis(rs, basis)
    return LatticeSpec(kind, "cocharacter", rows)


def character_lattice(rs: RootSystem, kind="adjoint",
                      basis=None) -> LatticeSpec:
    """Basis in fundamental-weight coordinates: the adjoint group has the
    root lattice (Cartan columns), the simply connected one the full weight
    lattice (identity)."""
    kind = _normalize_kind(kind)
    n = rs.simple_count
    if kind == "adjoint":
        rows = tuple(tuple(rs.cartan[i][j] for i in range(n))
                     for j in range(n))
    elif kind == "simply_connected":
        rows = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    else:
        rows = _custom_basis(rs, basis)
    return LatticeSpec(kind, "character", rows)


def smith_invariant_factors(mat):
    """Invariant factors d_1 | d_2 | ... of an integer matrix (zeros at the
    end signal rank deficiency).  Each pass reduces the column and the row
    of a least nonzero entry modulo it and splits the entry off once both
    are clear; gcd/lcm swaps then order the diagonal into a divisibility
    chain.  No lattice computation uses it: a lattice's exponent is the
    denominator of `LatticeSpec.coordinate_map`."""
    a = [[int(v) for v in row] for row in mat]
    if any(len(row) != len(a[0]) for row in a):
        raise InputError("matrix rows must have equal length")
    size = min(len(a), len(a[0])) if a else 0
    diag = []
    while any(map(any, a)):
        _, i, j = min((abs(v), i, j) for i, row in enumerate(a)
                      for j, v in enumerate(row) if v)
        top = a.pop(i)
        p = top[j]
        for row in a:
            q = row[j] // p
            row[:] = [v - q * w for v, w in zip(row, top)]
        for k in range(len(top)):
            if k != j:
                q = top[k] // p
                for row in [top] + a:
                    row[k] -= q * row[j]
        if any(top[:j] + top[j + 1:]) or any(row[j] for row in a):
            a.insert(i, top)
            continue
        diag.append(abs(p))
        for row in a:
            del row[j]
    diag += [0] * (size - len(diag))
    for i in range(size):
        for j in range(i + 1, size):
            g = math.gcd(diag[i], diag[j])
            if g:
                diag[i], diag[j] = g, diag[i] * diag[j] // g
    return diag


def cofundamental_exponent(rs: RootSystem, lattice: LatticeSpec) -> int:
    """Exponent (largest invariant factor) of the quotient of the full
    fundamental-side lattice by the span of the given basis."""
    return lattice.exponent


def _root_lattice_coords(rs: RootSystem, lattice: LatticeSpec, root):
    """Coordinates of the root in the given lattice basis (integer): m / d
    applied to its fundamental-weight vector cartan . c, with m . cartan
    composed once per (root system, lattice) and applied column by column
    over the root's nonzero simple coordinates."""
    coords = tuple(int(c) for c in getattr(root, "coords", root))
    if len(coords) != rs.simple_count:
        raise InputError("root coordinate length mismatch")
    plus = rs._positive_coords
    if coords not in plus and tuple(-c for c in coords) not in plus:
        raise InputError(f"{coords} is not a root of this system")
    m, d = lattice.coordinate_map
    held = lattice._root_maps.get(id(rs))
    if held is None:
        mcols = list(zip(*m))
        columns = []
        for cartan_col in zip(*rs.cartan):
            col = [0] * len(m)
            for a, mcol in zip(cartan_col, mcols):
                if a:
                    col = [v + a * b for v, b in zip(col, mcol)]
            columns.append(col)
        held = lattice._root_maps[id(rs)] = (rs, columns)
    x = [0] * len(m)
    for c, col in zip(coords, held[1]):
        if c:
            x = [v + c * b for v, b in zip(x, col)]
    if any(v % d for v in x):
        raise InputError(f"root {coords} is not in the given lattice "
                         f"(coords {[Fraction(v, d) for v in x]})")
    return [v // d for v in x]


def root_divisibility(rs: RootSystem, char_lattice: LatticeSpec, root,
                      n: int) -> bool:
    """Is the root divisible by n in the given character lattice?"""
    if n < 1:
        raise InputError("divisor must be positive")
    x = _root_lattice_coords(rs, char_lattice, root)
    return all(v % n == 0 for v in x)


def root_action_index(rs: RootSystem, char_lattice: LatticeSpec, root,
                      q: int) -> int:
    """Index of the image of the root character on the F_q-points of the
    torus: gcd(q-1, gcd of the root's lattice coordinates)."""
    if q < 2 or len(prime_factors(q)) != 1:
        raise InputError(f"{q} is not a prime power")
    x = _root_lattice_coords(rs, char_lattice, root)
    g = 0
    for v in x:
        g = math.gcd(g, abs(v))
    return math.gcd(q - 1, g)


def char2_vanishing_bound(rs: RootSystem, lattice: LatticeSpec,
                          r: int) -> Fraction:
    """r / gcd(e, 2^r - 1) with e the cofundamental exponent.  Components of
    type E8, F4, G2 are rejected (no simple index pairs to 1 against the
    highest root there)."""
    if r < 1:
        raise InputError("r must be at least 1")
    for t, n in rs.components:
        if t in ("F", "G") or (t == "E" and n == 8):
            raise InputError(f"type {t}{n} component excluded")
    e = cofundamental_exponent(rs, lattice)
    return Fraction(r, math.gcd(e, 2 ** r - 1))


def lie_gr_algebra(rs: RootSystem, lattice: LatticeSpec, p: int,
                   r: int) -> AlgebraSpec:
    """Weighted algebra with one generator pair per positive root and twist:
    the torus coordinate i acts on the root-alpha, twist-k generators with
    weight p^k * <alpha, basis row i>, read modulo q-1.  A singular basis
    and a weight table over `invalg.WEIGHT_TABLE_CAP` are refused before any
    generator is built."""
    prime_power(p, r)     # before any generator is built
    name = " + ".join(f"{t}{n}" for t, n in rs.components)
    graded_model_guard(f"root system {name}", p, r, len(rs.positive_roots),
                       rs.simple_count)
    lattice.exponent      # InputError for a singular basis
    gens = []
    for ridx, root in enumerate(rs.positive_roots):
        char = [sum(a * c for a, c in zip(row, root.coords))
                for row in lattice.basis]
        tag = "root=" + ",".join(map(str, root.coords))
        for k in range(r):
            gens += graded_pair(p, k, f"[{ridx},{k}]", char, tag)
    return AlgebraSpec.make(p, r, rs.simple_count, gens)
