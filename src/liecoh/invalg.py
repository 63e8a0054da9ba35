"""Monomial bases of weighted free graded-commutative algebras and their
torus invariants.

An algebra is a tensor product of exterior generators (degree 1, exponent at
most 1) and polynomial generators (degree 2, or degree 1 in characteristic-2
mode, unbounded exponents).  Each generator carries an integer weight vector,
one coordinate per torus factor, read modulo that coordinate's modulus.  A
monomial is invariant when its total weight vanishes in every coordinate.

Two independent routes decide invariance, each over a degree range in one
pass:

* `invariant_monomials_by_degree` sums weights coordinatewise and tests
  divisibility by the modulus;
* `invariant_monomials_oracle_by_degree` realizes the action literally: it
  picks, for each coordinate, a field element whose multiplicative order is
  that coordinate's modulus, multiplies actual eigenvalues in F_q (as
  element numbers, `Fq.mul`) along the monomial, and accepts when every
  product is 1.

The two deliberately share no invariance logic, so each checks the other.
Each sets up what no degree changes once per spec, on its first call, by
its own function, and the spec holds the result: the divisibility route
its walk order and step tables, forward and inverse, the oracle the same
over eigenvalue products, with its scalars, eigenvalues, product tables
and closing tests.  A call builds only what depends on its degrees.  Both
order the generators by a minimum-degree elimination order (`_walk_order`,
a permutation that holds no invariance test), which closes torus
coordinates early, so fewer stay open at once and the tests prune sooner;
the spec and its hash keep the given order.

Both routes, and `enumerate_monomials`, list on one engine: they count,
then trace back.  `_count_invariants` runs the transfer-matrix method over
a route's states: one count per (state, degree), each generator added in
place, an entry kept only while the route's tests pass it.  A series reads
its counts at the origin state, which the monomial 1 starts from and an
accepted monomial ends in.  A listing also records each entry's birth, the
number of generators added when it first became nonzero, and traces each
accepted monomial back from (degree, origin) through entries born early
enough (`_trace_back`), so it makes nothing that it prunes later.  The
engine knows degrees only: each route hands it its set-up, the steps and
inverse steps over its own states and its own tests.

The divisibility route's state is the packed weight residue vector.  An
entry is kept only while every coordinate's residue lies in the suffix
residue sets of the generators ahead (`_suffix_rows`: for each generator
j, coordinate and completion degree t, the residues from which the
generators j onward bring that coordinate back to 0 with a monomial of
degree exactly t) for a degree that lands in the requested range.  The
sets are charged by their bytes against one budget per count
(_ROWS_BUDGET); past the budget a coordinate goes untested.  The test is a
necessary condition, so it never drops an entry that an invariant passes
through.  A detection report counts once, traces back its
top degree alone and tests family membership on the factor codes
(`_detection`).

The oracle's state is the vector of eigenvalue products.  Its test closes
a coordinate once no generator ahead acts on it: from then on an entry is
kept only if its product there is 1, the acceptance test applied early.
That test reads the state alone, no degree, residue or suffix set, so its
tables are built once per spec.

Monomial lists are capped per degree (MONOMIAL_CAP, default 10^7), and
every listing refuses from an exact count before it makes anything: the
oracle and `enumerate_monomials` count each degree from the Hilbert series,
the divisibility route its invariants before it traces back.  A count
holds at most SERIES_CAP live (state, degree) entries, births included.  A
degree range whose tables would pass DEGREE_CAP cells is refused before any
is built.

All list outputs are sorted in a canonical order (generator id ascending,
exponent descending) so repeated runs are byte-identical.  The traceback
carries each factor as an integer code in that order, of one width per
spec (`_codes`).
"""

from __future__ import annotations

import copy
import functools
import hashlib
import itertools
import json
import math
import operator
from dataclasses import dataclass

from .errors import InputError, ResourceGuardError, require_int
from .ffq import Fq, _Table, prime_power

EXTERIOR = "exterior"
POLYNOMIAL = "polynomial"
MONOMIAL_CAP = 10 ** 7
DEGREE_CAP = 1 << 22        # generators x (top degree + 1) of one walk
SERIES_CAP = 10 ** 7        # live (state, degree) entries of one series count
QUILLEN_CAP = 10 ** 6       # tuples enumerated by quillen_verify
WEIGHT_TABLE_CAP = 1 << 22  # generators x torus rank of one graded model


@dataclass(frozen=True)
class GeneratorSpec:
    id: str
    parity: str
    degree: int
    weight: tuple[int, ...]
    tag: str = ""

    def __post_init__(self):
        if not self.id or not isinstance(self.id, str):
            raise InputError("generator id must be a nonempty string")
        if not isinstance(self.tag, str):
            raise InputError(f"generator {self.id!r}: tag must be a string")
        if self.parity not in (EXTERIOR, POLYNOMIAL):
            raise InputError(f"unknown parity {self.parity!r}")
        weight = tuple(self.weight)
        if not all(type(v) is int for v in (self.degree, *weight)):
            raise InputError(f"generator {self.id!r}: degree and weight "
                             "entries must be integers")
        object.__setattr__(self, "weight", weight)


def graded_pair(p: int, k: int, index, character, tag: str = ""):
    """The generators of one character at Frobenius twist k in the graded
    models, each of weight p^k * c for every c in `character`: an exterior
    x<index> of degree 1 and a polynomial y<index> of degree 2, or for
    p = 2 a polynomial x<index> of degree 1 alone."""
    weight = tuple(p ** k * c for c in character)
    if p == 2:
        return (GeneratorSpec(f"x{index}", POLYNOMIAL, 1, weight, tag),)
    return (GeneratorSpec(f"x{index}", EXTERIOR, 1, weight, tag),
            GeneratorSpec(f"y{index}", POLYNOMIAL, 2, weight, tag))


def graded_model_guard(model: str, p: int, r: int, characters: int,
                       rank: int) -> None:
    """ResourceGuardError when a graded model with a `graded_pair` per
    character and twist k < r would hold a weight table (generators x
    torus rank entries) over WEIGHT_TABLE_CAP; call it before building."""
    count = characters * r * (1 if p == 2 else 2)
    if count * rank > WEIGHT_TABLE_CAP:
        raise ResourceGuardError(
            f"graded model for {model}, p = {p}, r = {r} would hold "
            f"{count} generators x {rank} weights = {count * rank} entries, "
            f"over the cap {WEIGHT_TABLE_CAP}")


@dataclass(frozen=True)
class AlgebraSpec:
    field: Fq
    torus_rank: int
    moduli: tuple[int, ...]
    generators: tuple[GeneratorSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "moduli", tuple(
            require_int(m, "modulus") for m in self.moduli))
        object.__setattr__(self, "generators", tuple(self.generators))
        if require_int(self.torus_rank, "torus rank") < 1:
            raise InputError("torus rank must be at least 1")
        if len(self.moduli) != self.torus_rank:
            raise InputError("need one modulus per torus coordinate")
        qm1 = self.field.q - 1
        for m in self.moduli:
            if m < 1 or qm1 % m:
                raise InputError(f"modulus {m} does not divide q-1 = {qm1}")
        seen = set()
        reduced = []
        char2 = self.char2_mode
        for g in self.generators:
            if g.id in seen:
                raise InputError(f"duplicate generator id {g.id!r}")
            seen.add(g.id)
            if len(g.weight) != self.torus_rank:
                raise InputError(f"generator {g.id!r}: weight length mismatch")
            if g.parity == EXTERIOR:
                if char2:
                    raise InputError("no exterior generators in char-2 mode")
                if g.degree != 1:
                    raise InputError("exterior generators have degree 1")
            else:
                want = 1 if char2 else 2
                if g.degree != want:
                    raise InputError(
                        f"polynomial generators have degree {want} here")
            weight = tuple(w % m for w, m in zip(g.weight, self.moduli))
            if weight != g.weight:      # a copy that is not validated again
                g = copy.copy(g)
                object.__setattr__(g, "weight", weight)
            reduced.append(g)
        object.__setattr__(self, "generators", tuple(reduced))

    @classmethod
    def make(cls, p, r, torus_rank, generators, moduli=None):
        field = Fq(p, r)
        if moduli is None:
            moduli = (field.q - 1,) * torus_rank
        return cls(field=field, torus_rank=torus_rank, moduli=tuple(moduli),
                   generators=tuple(generators))

    @property
    def char2_mode(self) -> bool:
        return self.field.p == 2

    @property
    def ids(self):
        return tuple(g.id for g in self.generators)

    def restrict(self, ids) -> "AlgebraSpec":
        """Sub-algebra on the given generator ids, order preserved."""
        keep = set(ids)
        unknown = keep - set(self.ids)
        if unknown:
            raise InputError(f"unknown generator ids {sorted(unknown)}")
        gens = tuple(g for g in self.generators if g.id in keep)
        return AlgebraSpec(self.field, self.torus_rank, self.moduli, gens)

    def to_json_dict(self) -> dict:
        return {
            "field": {"p": self.field.p, "r": self.field.r},
            "torus_rank": self.torus_rank,
            "moduli": list(self.moduli),
            "char2_mode": self.char2_mode,
            "generators": [
                {"id": g.id, "parity": g.parity, "degree": g.degree,
                 "weight": list(g.weight), "tag": g.tag}
                for g in self.generators],
        }

    @classmethod
    def from_json_dict(cls, blob: dict) -> "AlgebraSpec":
        try:
            gens = tuple(
                GeneratorSpec(g["id"], g["parity"], g["degree"],
                              tuple(g["weight"]), g.get("tag", ""))
                for g in blob["generators"])
            field = Fq(blob["field"]["p"], blob["field"]["r"])
            if blob["char2_mode"] is not (field.p == 2):
                raise InputError("char2_mode must hold exactly when p = 2")
            return cls(field, blob["torus_rank"], tuple(blob["moduli"]), gens)
        except InputError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed algebra spec: {exc}") from exc

    def spec_hash(self) -> str:
        blob = canonical_json(self.to_json_dict())
        return hashlib.sha256(blob.encode()).hexdigest()[:12]

    def __hash__(self):
        return self._hash

    # the dataclass hash, once per spec: it would rehash every generator
    @functools.cached_property
    def _hash(self) -> int:
        return hash((self.field, self.torus_rank, self.moduli,
                     self.generators))

    # Each invariance route's degree-free set-up, built on first use and
    # held by the spec (not a field, so ==, hash and repr never see it).
    @functools.cached_property
    def _residue_state(self) -> tuple:
        return _residue_setup(self)

    @functools.cached_property
    def _oracle_state(self) -> tuple:
        return _oracle_setup(self)

    @functools.cached_property
    def _id_ranks(self) -> dict:    # each id's place in the sorted ids
        return {gid: rank for rank, gid in enumerate(sorted(self.ids))}


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class Monomial:
    # no instance dict; a frozen dataclass's own `slots=True` rebuilds the
    # class and turns assignment's FrozenInstanceError into a TypeError
    __slots__ = ("exps",)
    exps: tuple[tuple[str, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "exps", _entries(
            (str(i), int(e)) for i, e in self.exps))

    def support(self) -> frozenset:
        return frozenset(i for i, _ in self.exps)

    def sort_key(self):
        return tuple([(i, -e) for i, e in self.exps])

    def format(self) -> str:
        if not self.exps:
            return "1"
        return "*".join(i if e == 1 else f"{i}^{e}" for i, e in self.exps)

    def __str__(self):
        return self.format()


def _entries(pairs) -> tuple:
    """The (id, exponent) pairs sorted; no id may repeat, no exponent be 0."""
    entries = tuple(sorted(pairs))
    unique = dict(entries)
    if len(unique) < len(entries):
        raise InputError("repeated generator id in monomial")
    if entries and min(unique.values()) < 1:
        raise InputError("exponents must be positive")
    return entries


def monomial_json(m: Monomial) -> dict:
    return {"exps": dict(m.exps), "str": m.format()}


def canonical_sort(monomials) -> list[Monomial]:
    return sorted(monomials, key=Monomial.sort_key)


# ---------------------------------------------------------------------------
# enumeration: one listing engine, two invariance routes
# ---------------------------------------------------------------------------

# Entries a table budget lets its tables store, at most about 14 MB; later
# misses are computed and not stored, so memory stays bounded however many
# distinct states are reached.  Each spec holds one budget per route for
# the tables it keeps: step and inverse step tables, and the oracle's
# product and closing tables too.
_TABLE_BUDGET = 1 << 17
# Bytes the divisibility route's suffix residue sets may take in one count
# (`_row_bytes`); a coordinate whose sets would pass what is left goes
# untested.
_ROWS_BUDGET = 1 << 26


def _tables(keys, make) -> list:
    """One `make(key)` per distinct key, shared by equal keys; None for an
    empty key."""
    shared = {}
    for key in keys:
        if key and key not in shared:
            shared[key] = make(key)
    return [shared.get(key) for key in keys]


def _degree_range(gens, lo: int, hi: int, refusal: str = "") -> None:
    """InputError (`refusal` if given) unless 0 <= lo <= hi, and
    ResourceGuardError when tables with a cell per generator (at least one)
    and degree 0..hi would pass DEGREE_CAP."""
    if not 0 <= lo <= hi:
        raise InputError(refusal
                         or f"degree range {lo}..{hi} is not 0 <= lo <= hi")
    cells = max(len(gens), 1) * (hi + 1)
    if cells > DEGREE_CAP:
        raise ResourceGuardError(
            f"degree {hi} with {len(gens)} generators makes {cells} "
            f"generator-degree cells, more than the cap {DEGREE_CAP}")


def _refuse_over(counts, lo: int, cap) -> None:
    """ResourceGuardError naming the lowest degree lo + i whose count
    counts[i] is more than `cap`."""
    for d, n in enumerate(counts, lo):
        if n > cap:
            raise ResourceGuardError(
                f"{n} monomials in degree {d}, more than the cap {cap}")


def _code_width(alg: AlgebraSpec) -> int:
    return DEGREE_CAP // max(len(alg.generators), 1)


def _codes(alg: AlgebraSpec, gens) -> list:
    """Per generator in `gens`, the base of its factor codes: (g, e) is
    rank * w + w - 1 - e, rank the place of g.id in the sorted ids, so
    sorted code tuples sort as `Monomial.sort_key` does (id ascending,
    exponent descending, a prefix first).  The width w is one per spec
    (`_code_width`): `_degree_range` keeps every exponent below it."""
    rank, w = alg._id_ranks, _code_width(alg)
    return [rank[g.id] * w + w - 1 for g in gens]


def _as_monomials(found, alg: AlgebraSpec) -> list[Monomial]:
    """Traced monomials (`_codes` tuples) as canonically sorted Monomials, by
    one sort and one decode per distinct code; as in `Monomial`, exponents
    must be positive and no id repeat."""
    ids, w = list(alg._id_ranks), _code_width(alg)
    pairs, out = {}, []
    new, set_exps = object.__new__, Monomial.exps.__set__  # frozen class
    for codes in sorted(map(sorted, found)):
        exps, prev = [], None
        for code in codes:
            pair = pairs.get(code)
            if pair is None:
                rank, v = divmod(code, w)
                if v >= w - 1:
                    raise InputError("exponents must be positive")
                pair = pairs[code] = (ids[rank], w - 1 - v)
            if pair[0] == prev:
                raise InputError("repeated generator id in monomial")
            prev = pair[0]
            exps.append(pair)
        m = new(Monomial)
        set_exps(m, tuple(exps))
        out.append(m)
    return out


def enumerate_monomials(alg: AlgebraSpec, degree: int) -> list[Monomial]:
    """All monomials of total degree exactly `degree`, canonically sorted.

    More than MONOMIAL_CAP of them, counted by the Hilbert series, raise
    ResourceGuardError before anything is listed.  They are counted and
    traced back (`_count_invariants`, `_trace_back`) with no step and no
    test, so every monomial ends in the one state."""
    gens = alg.generators
    _degree_range(gens, degree, degree)
    _refuse_over(_hilbert(gens, degree)[degree:], degree, MONOMIAL_CAP)
    none, births = [None] * len(gens), {}
    setup = (gens, none, none, 1, 0, none, none)
    counts = _count_invariants(setup, degree, degree, births)[0]
    (found,), _ = _trace_back(setup, _codes(alg, gens), degree, counts, births)
    return _as_monomials(found, alg)


def _suffix_rows(gens, c: int, m: int, lo: int, hi: int) -> list:
    """Per generator position j, the residues of coordinate c (modulus m)
    from which generators j onward can still bring it to 0, as bitsets:
    rows[rem] holds the residue v (bit v) when a monomial in them of some
    degree in [max(0, rem - (hi - lo)), rem] adds -v to the coordinate.
    None where each set past degree 0 is empty or full: then the coordinate
    cannot prune a branch that has a monomial of the degrees ahead.

    The sets are built per completion degree t: sets[t] for generators j
    onward is sets[t] for j + 1 onward joined with sets[t - d] (of j + 1
    onward for an exterior generator, of j onward for a polynomial one)
    rotated by generator j's weight; the rows follow the same recurrence
    from residue 0 for rem <= hi - lo, since that factor takes the window
    of rem to the window of rem - d.  Both only grow as j falls, so equal
    rows are shared between neighbours.
    """
    full = (1 << m) - 1
    out = [None] * len(gens)
    sets = [1] + [0] * hi       # no generators: degree 0 from residue 0 only
    # and the rows: the same list when lo == hi
    tables = (sets,) if lo == hi else (sets, [1] * (hi - lo + 1) + [0] * lo)
    last = None
    for j in range(len(gens) - 1, -1, -1):
        gen = gens[j]
        d, shift = gen.degree, -gen.weight[c] % m
        degrees = (range(hi, d - 1, -1) if gen.parity == EXTERIOR
                   else range(d, hi + 1))
        # v completes with one more factor of generator j when v + w
        # completes without it: rotate by -w
        for table in tables:
            for t in degrees:
                bits = table[t - d]
                table[t] |= (bits << shift | bits >> (m - shift)) & full
        if sets != last:
            last = sets[:]
            rows = None if set(sets[1:]) <= {0, full} else tuple(tables[-1])
        out[j] = rows
    return out


def _row_bytes(m: int) -> int:
    """The most bytes one suffix set of modulus m takes: an m-bit CPython
    int (a 28-byte header and a 4-byte digit per 30 bits, as
    `sys.getsizeof` counts it) and the 8-byte slot that holds it."""
    return 36 + 4 * -(-m // 30)


def _walk_order(gens) -> tuple:
    """The routes' walk order, a permutation of `gens` (a minimum-degree
    elimination order on the coordinate-generator incidence):
    zero-weight generators first, then, repeatedly, the remaining generators
    (in the given order) acting on the open coordinate that the fewest of
    them act on, lowest index on ties.  On a (1,n) hook each (1,j) lands
    next to (j,n); the full U_n model keeps its row-major order."""
    order = [g for g in gens if not any(g.weight)]
    rest = [g for g in gens if any(g.weight)]
    while rest:
        counts = [sum(map(bool, ws)) for ws in zip(*(g.weight for g in rest))]
        c = min((n, c) for c, n in enumerate(counts) if n)[1]
        order += [g for g in rest if g.weight[c]]
        rest = [g for g in rest if not g.weight[c]]
    return tuple(order)


def _residue_setup(alg: AlgebraSpec) -> tuple:
    """The divisibility route's degree-free set-up, held by the spec
    (`AlgebraSpec._residue_state`): the engine's set-up
    (`_count_invariants`) less its tests.  The state is the weight residue
    vector packed into one integer, digit c in base moduli[c], so the
    origin, the monomial 1 and the accepted state, is 0 and the stride is
    the product of the moduli.  The walk order is `_walk_order`, and each
    generator's step table adds its weight to the coordinates it acts on
    (`fill(s, e)`: e times the weight), its inverse step table subtracts
    it.  The tables are filled on lookup, from one budget for the spec."""
    gens, moduli = _walk_order(alg.generators), alg.moduli
    # one running product: places[c] = moduli[0] * ... * moduli[c - 1]
    *places, stride = itertools.accumulate(moduli, operator.mul, initial=1)
    budget = [_TABLE_BUDGET]

    def add(move):
        def fill(s, e=1):       # s plus e times the weight
            for place, m, w in move:
                v = s // place % m
                s += ((v + e * w) % m - v) * place
            return s
        return _Table(fill, budget)

    moves = tuple(tuple((place, m, w) for place, m, w
                        in zip(places, moduli, g.weight) if w) for g in gens)
    backs = tuple(tuple((place, m, -w % m) for place, m, w in move)
                  for move in moves)
    steps = _tables(moves + backs, add)
    return gens, steps[:len(gens)], steps[len(gens):], stride, 0


def _residue_route(alg: AlgebraSpec, lo: int, hi: int) -> tuple:
    """The divisibility route's engine set-up over degrees lo..hi: the
    spec's (`_residue_setup`) and the `allowed` and `fresh` tests of the
    divisibility test, one per generator in walk order, None where there is
    nothing to test.  fresh[j] tests the coordinates of allowed[j] whose
    rows are not the very object that allowed[j - 1] tests (`_suffix_rows`
    shares unchanged rows), and all of them for j <= 1.

    `allowed[j](rem, s)` passes when, in every coordinate, generators j
    onward can bring the residue of state s to 0 with a monomial whose
    degree lands rem degrees below hi in lo..hi (`_suffix_rows`).  The
    sets of a coordinate take `_row_bytes` per degree and generator from
    the call's _ROWS_BUDGET bytes, charged in coordinate order; past the
    budget a coordinate goes untested, at every generator.
    """
    _degree_range(alg.generators, lo, hi)
    gens = alg._residue_state[0]
    # digit c of a packed state sits at moduli[0] * ... * moduli[c - 1]
    places = itertools.accumulate(alg.moduli, operator.mul, initial=1)

    def completable(checks):
        def test(rem, s):
            for place, m, rows in checks:
                if not rows[rem] >> (s // place % m) & 1:
                    return False
            return True
        return test

    checks, fresh, left = [[] for _ in gens], [[] for _ in gens], _ROWS_BUDGET
    for c, (place, m) in enumerate(zip(places, alg.moduli)):
        size = len(gens) * (hi + 1) * _row_bytes(m)
        if size > left:
            continue
        left -= size
        out = _suffix_rows(gens, c, m, lo, hi)
        for j, rows in enumerate(out):
            if rows is not None:
                checks[j].append((place, m, rows))
                if j <= 1 or rows is not out[j - 1]:
                    fresh[j].append((place, m, rows))
    tests = _tables([tuple(check) for check in checks + fresh], completable)
    return alg._residue_state + (tests[:len(gens)], tests[len(gens):])


def _count_invariants(setup, lo: int, hi: int, births=None) -> tuple:
    """Number of the monomials of each degree lo..hi that end in a route's
    origin state, counted without listing one: the transfer-matrix method
    (Stanley, Enumerative Combinatorics I, 4.7) run over the route's
    set-up, which holds all of its invariance logic.

    The set-up is (generators in walk order, step tables, inverse step
    tables, stride, origin, allowed, fresh).  steps[j][s] is the state
    after one more factor of generator j and backs[j][s] the state before
    it (None: the state is unchanged), every state lies below the stride,
    and the origin is both the state of the monomial 1 and the one
    accepted.  The tests are functions of (degrees left, state), None where
    there is nothing to test: allowed[j](rem, s) holds whenever generators
    j onward take s to the origin with a monomial whose degree lands rem
    degrees below hi in lo..hi, and past generator 1 a state that passes
    allowed[j - 1] passes allowed[j] exactly when it passes fresh[j].

    layers[t] maps a state to the number of monomials of degree t < hi in
    the generators added so far that reach it.  Generator j is added in
    place: an exterior one from the top layer down, so no monomial takes it
    twice, a polynomial one from the bottom up, so a layer it has extended
    is extended again.  An entry (t, s) new to its layer is kept only if
    `allowed` passes (hi - t, s) for the generators that may still follow
    (j onward for a polynomial generator, j + 1 onward for an exterior one),
    and once j is added every entry that generators j + 1 onward cannot
    complete is dropped, by fresh[j + 1] alone, since every live entry
    passes allowed[j] already.  Degree hi is never stored: before generator
    j is added, each of its final factors g^e adds the count filed in degree
    hi - e * degree under the one state that g^e takes to the origin (by
    the inverse step table).

    A `births` dict receives the birth of each entry (t, s) kept and of
    (hi, origin), keyed t * stride + s: the number of generators added when
    it became nonzero.  Counts only grow, and no entry that an accepted
    monomial passes through is dropped, so such an entry is reached by the
    first k generators exactly when its birth is at most k.

    Returns the counts, the most live entries held at once and, per degree
    below hi, the most entries its layer held.  More than SERIES_CAP live
    entries, births included, raise ResourceGuardError.
    """
    gens, steps, backs, stride, origin, allowed, fresh = setup
    after, prune = [*allowed[1:], None], [*fresh[1:], None]
    layers = [{} for _ in range(hi)]
    if hi:
        layers[0][origin] = 1
    top = 0 if hi else 1    # the monomial 1: in layer 0, or itself degree hi
    if births is not None:
        births[origin] = 0
    most = [len(layer) for layer in layers]
    live = peak = sum(most)
    for j, g in enumerate(gens):
        d, step, back, u = g.degree, steps[j], backs[j], origin
        cap = 1 if g.parity == EXTERIOR else hi
        for e in range(1, min(hi // d, cap) + 1):
            u = u if back is None else back[u]
            top += layers[hi - e * d].get(u, 0)
        if top and births is not None:
            births.setdefault(hi * stride + origin, j + 1)
        if g.parity == POLYNOMIAL:
            ok, degrees = allowed[j], range(d, hi)
        else:
            ok, degrees = after[j], range(hi - 1, d - 1, -1)
        for t in degrees:
            layer, rem, born = layers[t], hi - t, t * stride
            size, get = len(layer), layer.get
            for s, c in layers[t - d].items():
                u = s if step is None else step[s]
                old = get(u)
                if old is not None:
                    layer[u] = old + c
                elif ok is None or ok(rem, u):
                    layer[u] = c
                    # an entry dropped and made again keeps its birth
                    if births is not None:
                        births.setdefault(born + u, j + 1)
            if len(layer) == size:
                continue
            live += len(layer) - size
            most[t] = max(most[t], len(layer))
            if live + len(births or ()) > SERIES_CAP:
                also = f" and {len(births)} births" if births else ""
                raise ResourceGuardError(
                    f"{live} live (state, degree) entries{also} at generator "
                    f"{g.id!r}, position {j} of {len(gens)} in walk order, "
                    f"more than the cap {SERIES_CAP}")
        peak = max(peak, live)
        ok = prune[j]
        if ok is not None and after[j] is not allowed[j]:
            for t, layer in enumerate(layers):
                dead = [s for s in layer if not ok(hi - t, s)]
                for s in dead:
                    del layer[s]
                live -= len(dead)
    return ([layer.get(origin, 0) for layer in layers[lo:]] + [top], peak,
            most)


def _trace_back(setup, bases, lo: int, counts, births) -> tuple:
    """Per degree lo..lo + len(counts) - 1, the monomials that end in the
    set-up's origin as tuples of factor codes, g_j^e coded bases[j] - e
    (`_codes`), traced back through the births of the count that gave
    `counts` (`_count_invariants`, same set-up), and the number of births
    probed.

    A node (k, t, s) stands for the monomials of degree t and state s in the
    first k generators (walk order), from (all, t, origin) down.  Each ends
    in a factor g_j^e, birth(t, s) <= j + 1 <= k, after a monomial of the
    node (j, t - e * degree, s before e factors of g_j) (inverse step
    tables), which has one exactly when its birth is at most j.  So every
    node lies on the path of an output monomial, and none is pruned.
    Exponents start at the first that leaves a degree the generators before
    j reach, by degree alone, so the first generator takes its one exponent
    at once.  The nodes are visited by falling k, each once: a node holds
    the tails (the factors taken so far) of every monomial through it, and
    its births are probed once for all of them.
    """
    gens, steps, backs, stride, origin, _, _ = setup
    hi = lo + len(counts) - 1
    factors, reach = [], 0
    for g, step, back, base in zip(gens, steps, backs, bases):
        cap = 1 if g.parity == EXTERIOR else hi
        factors.append((g.degree, cap, reach, step, back, base))
        reach = min(reach + cap * g.degree, hi)
    get, probes = births.get, 0
    found = [[] for _ in counts]
    for degree, count in enumerate(counts, lo):
        if not count:
            continue
        out = found[degree - lo]
        if not degree:          # the monomial 1
            out.append(())
            continue
        # nodes[k]: t * stride + s -> the tails of node (k, t, s)
        nodes = [{} for _ in gens] + [{degree * stride + origin: [()]}]
        for k in range(len(gens), 0, -1):
            for key, tails in nodes[k].items():
                t, s = divmod(key, stride)
                for j in range(births[key] - 1, k):
                    d, cap, reach, step, back, base = factors[j]
                    top = t // d
                    if top > cap:
                        top = cap
                    low = 1 if t - d <= reach else -(-(t - reach) // d)
                    if low > top:
                        continue
                    probes += top - low + 1
                    r, u = t - (low - 1) * d, s
                    if low > 1 and back is not None:
                        u = step.fill(s, 1 - low)
                    for e in range(low, top + 1):
                        r -= d
                        if back is not None:
                            u = back[u]
                        below = r * stride + u
                        if get(below, k) > j:   # unborn reads k > j
                            continue
                        code = (base - e,)
                        made = [tail + code for tail in tails]
                        if not r:       # a one-factor completion
                            out += made
                        elif below in nodes[j]:
                            nodes[j][below] += made
                        else:
                            nodes[j][below] = made
            nodes[k] = None
    return found, probes


def invariant_monomials_by_degree(
        alg: AlgebraSpec, lo: int, hi: int,
        stats=None) -> list[list[Monomial]]:
    """Per degree lo..hi, the monomials whose weight is zero everywhere.

    Invariance is the divisibility test: each weight coordinate must vanish
    modulo that coordinate's modulus.  The invariants are counted with
    births (`_count_invariants`) on the route's set-up (`_residue_route`),
    so more than MONOMIAL_CAP in one degree raise ResourceGuardError before
    any is listed, and then traced back (`_trace_back`).  A `stats` dict
    receives the count's `peak` live entries and `births`, the traceback's
    `probes`, the monomials listed per degree (`leaves`) and the `cap` on
    entries live and born.
    """
    setup, births = _residue_route(alg, lo, hi), {}
    counts, peak, _ = _count_invariants(setup, lo, hi, births)
    _refuse_over(counts, lo, MONOMIAL_CAP)
    found, probes = _trace_back(setup, _codes(alg, setup[0]), lo, counts,
                                births)
    if stats is not None:
        stats.update(peak=peak, births=len(births), probes=probes,
                     leaves=counts, cap=SERIES_CAP)
    return [_as_monomials(monos, alg) if monos else [] for monos in found]


def invariant_monomials(alg: AlgebraSpec, degree: int) -> list[Monomial]:
    """`invariant_monomials_by_degree` for the one degree."""
    return invariant_monomials_by_degree(alg, degree, degree)[0]


def _hilbert(gens, top: int) -> list[int]:
    """Number of monomials in the generators `gens` of each degree 0..top:
    the coefficients of the product of (1 + t^d) over exterior generators and
    1/(1 - t^d) over polynomial ones, d the generator's degree."""
    coeffs = [1] + [0] * top
    for g in gens:
        d = g.degree
        if g.parity == EXTERIOR:
            for k in range(top, d - 1, -1):
                coeffs[k] += coeffs[k - d]
        else:
            for k in range(d, top + 1):
                coeffs[k] += coeffs[k - d]
    return coeffs


def _oracle_setup(alg: AlgebraSpec) -> tuple:
    """The eigenvalue oracle's engine set-up (`_count_invariants`), held by
    the spec (`AlgebraSpec._oracle_state`); it reads no degree, so it is
    built once per spec.

    The generators run in a minimum-degree elimination order
    (`_walk_order`, a permutation).  A state is the vector of eigenvalue
    products, their element numbers packed as base-q digits, so the origin
    is 1 in every digit and the stride is q to the torus rank.  A step
    table multiplies each digit by the generator's eigenvalue there, an
    inverse step table by its inverse (`fill(s, e)`: by the e-th power).
    The tests close coordinates: allowed[j] passes a state whose product is
    1 on every coordinate that some generator acts on and none of
    generators j onward does, and fresh[j] tests those that generator
    j - 1 acts on last.  They read the state alone, and are looked up in
    tables keyed by it.  Products are `Fq.mul` tables, one per eigenvalue.
    All tables are filled on lookup, from one budget for the spec.
    """
    gens, field = _walk_order(alg.generators), alg.field
    q = field.q
    scalars = [field.pow(field.generator, (q - 1) // m) for m in alg.moduli]
    # one running product: places[c] = q ** c
    *places, stride = itertools.accumulate([q] * alg.torus_rank,
                                           operator.mul, initial=1)
    budget = [_TABLE_BUDGET]

    @functools.cache
    def eigenvalue(x, w):
        return field.pow(x, w)

    def move(weight):       # (place, eigenvalue) where it is not 1
        eig = [eigenvalue(x, w) for x, w in zip(scalars, weight)]
        return tuple((place, ev) for place, ev in zip(places, eig) if ev != 1)

    moves = [move(g.weight) for g in gens]
    inverse = {ev: field.inv(ev) for ev in {ev for m in moves for _, ev in m}}
    backs = [tuple((place, inverse[ev]) for place, ev in move)
             for move in moves]
    products = {ev: _Table(functools.partial(field.mul, ev), budget)
                for ev in {*inverse, *inverse.values()}}

    def act(move):
        def fill(s, e=1):       # s times the e-th power of the eigenvalues
            for place, ev in move:
                v = s // place % q
                w = products[ev][v] if e == 1 else \
                    field.mul(field.pow(ev, e), v)
                s += (w - v) * place
            return s
        return _Table(fill, budget)

    def closes(places):     # is the product 1 in each of these places?
        table = _Table(lambda s: all(s // place % q == 1 for place in places),
                       budget)
        return lambda rem, s: table[s]

    last = {place: j for j, move in enumerate(moves) for place, _ in move}
    closed = [tuple(place for place, k in last.items() if k < j)
              for j in range(len(gens))]
    new = [tuple(place for place, k in last.items() if k == j - 1)
           for j in range(len(gens))]
    steps, tests = _tables(moves + backs, act), _tables(closed + new, closes)
    return (gens, steps[:len(gens)], steps[len(gens):], stride, sum(places),
            tests[:len(gens)], tests[len(gens):])


def invariant_monomials_oracle_by_degree(
        alg: AlgebraSpec, lo: int, hi: int,
        max_count: int = MONOMIAL_CAP) -> list[list[Monomial]]:
    """Per degree lo..hi, the invariant monomials found by acting with
    explicit field scalars.

    For each torus coordinate a scalar of multiplicative order equal to the
    coordinate's modulus is fixed (a power of the canonical generator of
    F_q^x).  Each generator then has a concrete eigenvalue per coordinate, and
    a monomial is kept exactly when multiplying its eigenvalues out in F_q
    gives 1 in every coordinate.  No weight-residue arithmetic is used.
    Scalars, eigenvalues and products are element numbers of the spec's
    own field, `alg.field`, whose generator is found once per field object.
    Each eigenvalue is a field power of its scalar, computed once per
    (scalar, weight) pair; every product is an actual field multiplication,
    `Fq.mul`, made on the first lookup of an (eigenvalue, element) pair and
    kept in a table while the budget lasts.

    The monomials are counted with births and traced back by the engine
    that the divisibility route runs too (`_count_invariants`,
    `_trace_back`), on the oracle's own set-up (`_oracle_setup`): states
    are eigenvalue products, and a coordinate is closed, its product
    required to be 1, once no generator ahead acts on it.  The count is
    held to SERIES_CAP live entries and births.

    The number of monomials of each degree is known from the Hilbert series
    before anything is counted; when a degree has more than `max_count`,
    the call raises ResourceGuardError naming the lowest one.
    """
    gens = alg.generators
    _degree_range(gens, lo, hi)
    _refuse_over(_hilbert(gens, hi)[lo:], lo, max_count)   # before any count
    setup, births = alg._oracle_state, {}
    counts = _count_invariants(setup, lo, hi, births)[0]
    found = _trace_back(setup, _codes(alg, setup[0]), lo, counts, births)[0]
    return [_as_monomials(codes, alg) for codes in found]


def invariant_monomials_oracle(alg: AlgebraSpec, degree: int,
                               max_count: int = MONOMIAL_CAP
                               ) -> list[Monomial]:
    """`invariant_monomials_oracle_by_degree` for the one degree."""
    return invariant_monomials_oracle_by_degree(alg, degree, degree,
                                                max_count)[0]


# ---------------------------------------------------------------------------
# series, kernels, digit sums
# ---------------------------------------------------------------------------

FILTERS = ("all", "invariant", "invariant_nilpotent")


def dimension_series(alg: AlgebraSpec, max_degree: int, filter: str = "all",
                     stats=None) -> list[int]:
    """dims[d] = number of monomials passing the filter in degree d <= D.

    Without an invariance filter the counts are the Hilbert series, and the
    cap trips exactly when some degree has more than MONOMIAL_CAP monomials;
    a `stats` dict then receives the series as `leaves` and the `cap`.  The
    invariant filters count by state (`_count_invariants`),
    "invariant_nilpotent" as the count over all generators minus the count
    over the polynomial ones alone; their guard is SERIES_CAP live entries,
    and `stats` receives the `peak` live entries, the most each degree below
    D held (`live`) and the `cap`.
    """
    if filter not in FILTERS:
        raise InputError(f"filter must be one of {FILTERS}")
    _degree_range(alg.generators, 0, max_degree,
                  "max_degree must be nonnegative")
    if filter == "all":
        dims = _hilbert(alg.generators, max_degree)
        _refuse_over(dims, 0, MONOMIAL_CAP)
        if stats is not None:
            stats.update(leaves=dims, cap=MONOMIAL_CAP)
        return dims
    dims, peak, live = _count_invariants(_residue_route(alg, 0, max_degree),
                                         0, max_degree)
    if filter == "invariant_nilpotent":
        polynomial = [g.id for g in alg.generators if g.parity == POLYNOMIAL]
        even = dims         # without exterior generators, all of them
        if len(polynomial) < len(alg.generators):
            even, even_peak, even_live = _count_invariants(_residue_route(
                alg.restrict(polynomial), 0, max_degree), 0, max_degree)
            peak, live = max(peak, even_peak), list(map(max, live, even_live))
        dims = [a - b for a, b in zip(dims, even)]
    if stats is not None:
        stats.update(peak=peak, live=live, cap=SERIES_CAP)
    return dims


def _detection(alg: AlgebraSpec, lo: int, degree: int, family) -> tuple:
    """The invariant counts of degrees lo..degree, from one count with
    births, and the `detection_kernel` report of `degree`, traced back
    alone.  Each generator rank carries one bit per family member holding
    it, so a code tuple lies inside some member exactly when the AND over
    its factors is nonzero.  Unknown ids raise InputError before anything
    is counted."""
    ranks, id_sets = alg._id_ranks, []
    bits = [0] * len(ranks)
    for i, member in enumerate(family):
        ids = set(getattr(member, "ids", member))
        unknown = ids.difference(ranks)
        if unknown:
            raise InputError(f"unknown generator ids {sorted(unknown)}")
        id_sets.append(ids)
        for gid in ids:
            bits[ranks[gid]] |= 1 << i
    setup, births = _residue_route(alg, lo, degree), {}
    counts = _count_invariants(setup, lo, degree, births)[0]
    _refuse_over(counts[-1:], degree, MONOMIAL_CAP)
    (found,), _ = _trace_back(setup, _codes(alg, setup[0]), degree,
                              counts[-1:], births)
    w, every, kernel = _code_width(alg), (1 << len(id_sets)) - 1, []
    for codes in found:
        inside = every      # the members that hold each factor so far
        for code in codes:
            inside &= bits[code // w]
        if not inside:
            kernel.append(codes)
    kernel = _as_monomials(kernel, alg)     # only the kernel's Monomials
    return counts, {
        "spec_hash": alg.spec_hash(),
        "degree": degree,
        "invariant_dim": counts[-1],
        "kernel_dim": len(kernel),
        "cokernel_dim": len(kernel),
        "kernel_basis": [monomial_json(m) for m in kernel],
        "family": [sorted(ids) for ids in id_sets],
    }


def detection_kernel(alg: AlgebraSpec, degree: int, family) -> dict:
    """Invariant monomials of `degree` supported inside no family member,
    each member a set of generator ids (or anything with an `ids` attribute).

    An invariant monomial restricts nontrivially to the member subalgebras
    containing its support; the kernel of the joint restriction is spanned
    by the monomials contained in none of them, and the cokernel of the
    corresponding sum-of-subspaces map has the same dimension.  The degree
    is counted alone and its invariants traced back as factor codes, whose
    membership is one AND of per-generator member bits (`_detection`), so
    only the kernel's monomials are made.
    """
    return _detection(alg, degree, degree, family)[1]


def quillen_verify(p: int, r: int) -> dict:
    """Exhaustive check of the digit-sum divisibility bound.

    Over all tuples (a_0, ..., a_{r-1}) of nonnegative integers with
    0 < sum <= r(p-1): if (p^r - 1) divides sum a_k p^k then the digit sum is
    at least r(p-1), with equality exactly for the all-(p-1) tuple.
    There are C(r(p-1) + r, r) such tuples with sum <= r(p-1), counting the
    zero tuple; above QUILLEN_CAP the check is refused before it starts.
    """
    modulus = prime_power(p, r) - 1
    bound = r * (p - 1)
    total = math.comb(bound + r, r)
    if total > QUILLEN_CAP:
        raise ResourceGuardError(
            f"quillen check for p = {p}, r = {r} would enumerate {total} "
            f"tuples, over the cap {QUILLEN_CAP}")
    failures = []
    equality_matches = 0
    checked = 0

    def tuples(prefix, remaining):
        if len(prefix) == r:
            yield tuple(prefix)
            return
        for a in range(remaining + 1):
            yield from tuples(prefix + [a], remaining - a)

    for a in tuples([], bound):
        s = sum(a)
        if s == 0:
            continue
        checked += 1
        value = sum(ak * p ** k for k, ak in enumerate(a))
        divisible = value % modulus == 0
        if s < bound and divisible:
            failures.append({"tuple": list(a), "value": value})
        if s == bound:
            is_flat = all(ak == p - 1 for ak in a)
            if divisible != is_flat:
                failures.append({"tuple": list(a), "value": value})
            if divisible:
                equality_matches += 1
    return {
        "p": p, "r": r,
        "modulus": modulus,
        "weight_bound": bound,
        "tuples_checked": checked,
        "equality_matches": equality_matches,
        "equality_witness": [p - 1] * r,
        "failures": failures,
        "pass": not failures and equality_matches == 1,
    }


def random_algebra_spec(rng) -> AlgebraSpec:
    """Seeded random spec for cross-checking the two invariance routes."""
    p, r = rng.choice([(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2),
                       (5, 1), (7, 1), (11, 1), (13, 1)])
    rank = rng.randint(1, 3)
    qm1 = p ** r - 1
    divisors = [d for d in range(1, qm1 + 1) if qm1 % d == 0] or [1]
    moduli = tuple(rng.choice(divisors) for _ in range(rank))
    gens = []
    for i in range(rng.randint(1, 6)):
        weight = tuple(rng.randrange(m) for m in moduli)
        if p == 2:
            gens.append(GeneratorSpec(f"g{i}", POLYNOMIAL, 1, weight))
        elif rng.random() < 0.5:
            gens.append(GeneratorSpec(f"g{i}", EXTERIOR, 1, weight))
        else:
            gens.append(GeneratorSpec(f"g{i}", POLYNOMIAL, 2, weight))
    return AlgebraSpec.make(p, r, rank, gens, moduli)
