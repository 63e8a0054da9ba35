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
its walk order and step tables, forward and inverse, the oracle its
halves, scalars, eigenvalues, product tables, step tables and closing
tables.  A call builds only what depends on its degrees.  Both order the
generators by a minimum-degree elimination order (`_walk_order`, a
permutation that holds no invariance test), which closes torus coordinates
early, so fewer stay open at once and the tests prune sooner; the spec and
its hash keep the given order.

The divisibility route counts, then traces back.  `_count_invariants` runs
the transfer-matrix method over the packed weight residues: one count per
(state, degree), each generator added in place.  An entry is kept only
while every coordinate's residue lies in the suffix residue sets of the
generators ahead (`_suffix_rows`: for each generator j, coordinate and
completion degree t, the residues from which the generators j onward bring
that coordinate back to 0 with a monomial of degree exactly t) for a degree
that lands in the requested range.  The test is a necessary condition, so
it never drops an entry that an invariant passes through.  A series reads
its counts at state 0.  A listing also records each entry's birth, the
number of generators added when it first became nonzero, and traces each
invariant back from (degree, state 0) through entries born early enough
(`_trace_back`), so it makes nothing that it prunes later.  A detection
report counts once, traces back its top degree alone and tests family
membership on the factor codes (`_detection`).

The other enumerations run on one walker: a depth-first descent over a
list of generators, kept on an explicit stack, that reaches each monomial
of the requested degrees at most once, in one pass over a whole degree
range.  The walker knows degrees only; its caller hands it per-generator
step tables over its own state and the tables it prunes by.

The oracle meets in the middle (the Horowitz-Sahni subset-sum split): it
cuts the ordered generators in two, walks each half once with the walker
grouping every monomial by its eigenvalue products, the right half's
inverted, and hash-joins the two halves on equal products in each requested
degree.  Each half walk prunes on the oracle's own test, applied early: once
no generator ahead in the half and none in the other half acts on a
coordinate, a branch is kept only if its product there is 1.  That test
reads the state alone, no degree, residue or suffix set, so its tables are
built once per spec.

Monomial lists are capped per degree (MONOMIAL_CAP, default 10^7), and
every listing refuses from its exact count, before it makes anything: the
oracle and `enumerate_monomials` count each degree from the Hilbert series,
the divisibility route its invariants before it traces back.  The walker
holds no guard of its own.  A count holds at most SERIES_CAP live (state,
degree) entries, births included.  A degree range whose tables would pass
DEGREE_CAP cells is refused before any is built.

All list outputs are sorted in a canonical order (generator id ascending,
exponent descending) so repeated runs are byte-identical.  The walker
carries each factor as an integer code in that order, of one width per
spec (`_codes`).
"""

from __future__ import annotations

import copy
import functools
import gc
import hashlib
import itertools
import json
import math
import operator
from collections import defaultdict
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
# enumeration: one descent walker, two invariance routes
# ---------------------------------------------------------------------------

# Entries a table budget lets its tables store, at most about 14 MB; later
# misses are computed and not stored, so memory stays bounded however many
# distinct states are reached.  Each spec holds one budget per route for
# the tables it keeps (the oracle's closing tables too).
_TABLE_BUDGET = 1 << 17
# Bytes the divisibility route's suffix residue sets may take in one count
# (`_row_bytes`); a coordinate whose sets would pass what is left is checked
# against the gcd of its weights instead.
_ROWS_BUDGET = 1 << 26


def _tables(keys, make) -> list:
    """One `make(key)` per distinct key, shared by equal keys; None for an
    empty key."""
    shared = {}
    for key in keys:
        if key and key not in shared:
            shared[key] = make(key)
    return [shared.get(key) for key in keys]


def _stops(gens, lo: int, hi: int) -> list:
    """stop[rem]: a node with rem degrees left makes children with the
    generators j < stop[rem] only.  Generator j is kept when one of its
    children lands in lo..hi or has a descendant there, by degree alone:
    the child adds e * degree (1 <= e, once for an exterior generator) and
    leaves a rem in `ahead`, the bitset of the rem from which the generators
    past j reach lo..hi.  Past the last generator those are rem <= hi - lo."""
    full = (1 << (hi + 1)) - 1
    stop = [0] * (hi + 1)
    ahead, kept = (1 << (hi - lo + 1)) - 1, 0
    for j in range(len(gens) - 1, -1, -1):
        d = gens[j].degree
        reach = ahead << d      # ahead holds rem 0, so e = 1 alone is in it
        if gens[j].parity == POLYNOMIAL:
            shift = d
            while shift < hi:
                reach |= reach << shift
                shift *= 2
        reach &= full
        ahead |= reach
        new = reach & ~kept
        kept |= new
        bits = bin(new)[:1:-1] if new else ""   # bit rem at index rem
        rem = bits.find("1")
        while rem >= 0:
            stop[rem] = j + 1
            rem = bits.find("1", rem + 1)
    return stop


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


def _walk(gens, lo: int, hi: int, bases, steps=None, start=0, allowed=None,
          stats=None):
    """Walk the monomials in the generators `gens` (a tuple of
    GeneratorSpec) of degree lo..hi depth first on an explicit stack.

    A node is a monomial; its children multiply in generators after its last
    factor, so each monomial is reached at most once.  `start` is the state
    of the monomial 1 and `steps[j][s]` the state after one more factor of
    generator j (None: unchanged); the walker only looks states up.  The
    factor e of generator j is the code `bases[j] - e` (`_codes`).

    Every monomial of degree lo..hi that is not pruned is accepted.  Pruning
    reads `allowed`, a table keyed by state or None (no test) per
    generator, and happens at push time: a child made with generator j is
    pushed only if `allowed[j]` passes its state, and a popped node does not
    look its state up again; a node moves past generator j only while
    `allowed[j]` passes its own state.  A child of degree hi (a final child)
    is never pushed, but kept when made if `allowed[j]` passes it.

    Returns one mapping per degree lo..hi from each final state to the
    accepted monomials reaching it, as tuples of factor codes in walk order.
    The caller checks the degree range (`_degree_range`) and the size of
    what it lists before it walks; the walker holds no cap.  A `stats` dict
    receives the walk's work: `nodes` popped and children `pruned` (at push,
    or final children when made).
    """
    steps = steps or [None] * len(gens)
    allowed = allowed or [None] * len(gens)
    factors = [(g.degree, 1 if g.parity == EXTERIOR else hi, step, base, ok)
               for g, base, step, ok in zip(gens, bases, steps, allowed)]
    span = hi - lo
    stop = _stops(gens, lo, hi)

    found = [defaultdict(list) for _ in range(span + 1)]
    nodes = pruned = 0
    stack = [(0, hi, start, ())]
    push, pop = stack.append, stack.pop
    while stack:
        k, rem, s, exps = pop()
        nodes += 1
        if rem <= span:
            found[span - rem][s].append(exps)
        for j in range(k, stop[rem]):
            d, cap, step, base, ok = factors[j]
            top = rem // d
            if top > cap:
                top = cap
            t = s
            r = rem
            for e in range(1, top + 1):
                r -= d
                if step is not None:
                    t = step[t]
                if ok is not None and not ok[t]:
                    pruned += 1
                elif r:
                    push((j + 1, r, t, exps + (base - e,)))
                else:
                    found[span][t].append(exps + (base - e,))
            if ok is not None and not ok[s]:
                break
    if stats is not None:
        stats.update(nodes=nodes, pruned=pruned)
    return found


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
    """Walker output (`_codes` tuples) as canonically sorted Monomials, by
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
    ResourceGuardError before anything is walked.  The walk prunes nothing
    and reaches each monomial once, so no depth holds more nodes than the
    degree has monomials."""
    gens = alg.generators
    _degree_range(gens, degree, degree)
    _refuse_over(_hilbert(gens, degree)[degree:], degree, MONOMIAL_CAP)
    found = _walk(gens, degree, degree, _codes(alg, gens))
    return _as_monomials(found[0][0], alg)


def _suffix_rows(gens, c: int, m: int, lo: int, hi: int, exact: bool) -> list:
    """Per generator position j, the residues of coordinate c (modulus m)
    from which generators j onward can still bring it to 0, as bitsets:
    rows[rem] holds the residue v (bit v) when a monomial in them of some
    degree in [max(0, rem - (hi - lo)), rem] adds -v to the coordinate.
    None where each set past degree 0 is empty or full: then the coordinate
    cannot prune a branch that has a monomial of the degrees ahead.

    With `exact` the sets are built per completion degree t: sets[t] for
    generators j onward is sets[t] for j + 1 onward joined with sets[t - d]
    (of j + 1 onward for an exterior generator, of j onward for a
    polynomial one) rotated by generator j's weight; the rows follow the
    same recurrence from residue 0 for rem <= hi - lo, since that factor
    takes the window of rem to the window of rem - d.  Otherwise rows[rem]
    are the multiples of the gcd of m and the weights ahead, for every rem.
    Both only grow as j falls, so equal rows are shared between neighbours.
    """
    full = (1 << m) - 1
    out = [None] * len(gens)
    rows = None
    if not exact:
        g, last = m, None
        for j in range(len(gens) - 1, -1, -1):
            g = math.gcd(g, gens[j].weight[c])
            if g != last:
                last = g
                rows = (full // ((1 << g) - 1),) * (hi + 1) if g > 1 else None
            out[j] = rows
        return out
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
    (`AlgebraSpec._residue_state`): the walk order (`_walk_order`), the
    place of each coordinate's digit in the packed state (digit c in base
    moduli[c]), the stride (the product of the moduli, above every packed
    state) and, per generator in walk order, its step table and its
    inverse step table (the state before one more factor), each adding its
    weight to the coordinates it acts on.  The step tables are filled on
    lookup, from one budget for the spec."""
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
    return gens, places, stride, steps[:len(gens)], steps[len(gens):]


def _residue_route(alg: AlgebraSpec, lo: int, hi: int) -> tuple:
    """The `allowed` tests of the divisibility test over degrees lo..hi,
    one per generator in the spec's walk order (`_residue_setup`), None
    where there is nothing to test, and the `fresh` tests: fresh[j] tests
    the coordinates of allowed[j] whose rows are not the very object that
    allowed[j - 1] tests (`_suffix_rows` shares unchanged rows), and all of
    them for j <= 1.  So past generator 1, a state that passes allowed[j - 1]
    passes allowed[j] exactly when it passes fresh[j].

    The state is the weight residue vector packed into one integer, digit c
    in base moduli[c], so the monomial 1 and the accepted state are both 0.
    `allowed[j](rem, s)` passes when, in every coordinate, generators j
    onward can bring the residue of state s to 0 with a monomial whose
    degree lands rem degrees below hi in lo..hi (`_suffix_rows`).  The
    sets of a coordinate take `_row_bytes` per degree and generator from
    the call's _ROWS_BUDGET bytes; a coordinate whose sets do not fit is
    checked against the gcd of the weights ahead, for all degrees.
    """
    _degree_range(alg.generators, lo, hi)
    gens, places = alg._residue_state[:2]

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
        exact = size <= left
        if exact:
            left -= size
        out = _suffix_rows(gens, c, m, lo, hi, exact)
        for j, rows in enumerate(out):
            if rows is not None:
                checks[j].append((place, m, rows))
                if j <= 1 or rows is not out[j - 1]:
                    fresh[j].append((place, m, rows))
    tests = _tables([tuple(check) for check in checks + fresh], completable)
    return tests[:len(gens)], tests[len(gens):]


def _count_invariants(alg: AlgebraSpec, lo: int, hi: int,
                      births=None) -> tuple:
    """Number of invariant monomials of each degree lo..hi, counted without
    listing one: the transfer-matrix method (Stanley, Enumerative
    Combinatorics I, 4.7) run over the divisibility route's walk order and
    step tables (`_residue_setup`) and its tests over lo..hi
    (`_residue_route`), which hold all of its invariance logic.

    layers[t] maps a packed residue state to the number of monomials of
    degree t < hi in the generators added so far that reach it.  Generator j
    is added in place: an exterior one from the top layer down, so no
    monomial takes it twice, a polynomial one from the bottom up, so a layer
    it has extended is extended again.  An entry (t, s) new to its layer is
    kept only if `allowed` passes (hi - t, s) for the generators that may
    still follow (j onward for a polynomial generator, j + 1 onward for an
    exterior one), and once j is added every entry that generators j + 1
    onward cannot complete is dropped, by fresh[j + 1] alone, since every
    live entry passes allowed[j] already.  Degree hi is never stored: before
    generator j is added, each of its final factors g^e adds the count filed
    in degree hi - e * degree under the state -e * weight, the one state
    that g^e takes to 0 (by the inverse step table).

    A `births` dict receives the birth of each entry (t, s) kept and of
    (hi, 0), keyed t * stride + s (the spec's stride, `_residue_setup`):
    the number of generators added when it became nonzero.  Counts only
    grow, and no entry that an invariant passes through is dropped, so such
    an entry is reached by the first k generators exactly when its birth is
    at most k.

    Returns the counts, the most live entries held at once and, per degree
    below hi, the most entries its layer held.  More than SERIES_CAP live
    entries, births included, raise ResourceGuardError.
    """
    allowed, fresh = _residue_route(alg, lo, hi)
    gens, _, stride, steps, backs = alg._residue_state
    after, prune = [*allowed[1:], None], [*fresh[1:], None]
    layers = [{} for _ in range(hi)]
    if hi:
        layers[0][0] = 1
    top = 0 if hi else 1    # the monomial 1: in layer 0, or itself degree hi
    if births is not None:
        births[0] = 0
    most = [len(layer) for layer in layers]
    live = peak = sum(most)
    for j, g in enumerate(gens):
        d, step, back, u = g.degree, steps[j], backs[j], 0
        cap = 1 if g.parity == EXTERIOR else hi
        for e in range(1, min(hi // d, cap) + 1):
            u = u if back is None else back[u]
            top += layers[hi - e * d].get(u, 0)
        if top and births is not None:
            births.setdefault(hi * stride, j + 1)
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
    return [layer.get(0, 0) for layer in layers[lo:]] + [top], peak, most


def _trace_back(alg: AlgebraSpec, lo: int, counts, births) -> tuple:
    """Per degree lo..lo + len(counts) - 1, the invariant monomials as
    `_codes` tuples, traced back through the births of the count that gave
    `counts` (`_count_invariants`), and the number of births probed.

    A node (k, t, s) stands for the monomials of degree t and state s in the
    first k generators (walk order), from (all, t, 0) down.  Each ends in a
    factor g_j^e, birth(t, s) <= j + 1 <= k, after a monomial of the node
    (j, t - e * degree, s - e * weight) (inverse step tables), which has
    one exactly when its birth is at most j.  So every node lies on the
    path of an output monomial, and none is pruned.  Exponents start at
    the first that leaves a degree the generators before j reach, by degree
    alone, so the first generator takes its one exponent at once.
    """
    gens, _, stride, steps, backs = alg._residue_state
    hi = lo + len(counts) - 1
    factors, reach = [], 0
    for g, step, back, base in zip(gens, steps, backs, _codes(alg, gens)):
        cap = 1 if g.parity == EXTERIOR else hi
        factors.append((g.degree, cap, reach, step, back, base))
        reach = min(reach + cap * g.degree, hi)
    get, probes = births.get, 0
    found = [[] for _ in counts]
    for degree, count in enumerate(counts, lo):
        out = found[degree - lo]
        stack = [(len(gens), degree, 0, ())] if degree and count else []
        if count and not degree:
            out.append(())
        push, pop = stack.append, stack.pop
        while stack:
            k, t, s, exps = pop()
            for j in range(births[t * stride + s] - 1, k):
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
                    if get(r * stride + u, k) > j:  # unborn reads k > j
                        continue
                    if r:
                        push((j, r, u, exps + (base - e,)))
                    else:       # a one-factor completion: kept at once
                        out.append(exps + (base - e,))
    return found, probes


def invariant_monomials_by_degree(
        alg: AlgebraSpec, lo: int, hi: int,
        stats=None) -> list[list[Monomial]]:
    """Per degree lo..hi, the monomials whose weight is zero everywhere.

    Invariance is the divisibility test: each weight coordinate must vanish
    modulo that coordinate's modulus.  The invariants are counted with
    births (`_count_invariants`), so more than MONOMIAL_CAP in one degree
    raise ResourceGuardError before any is listed, and then traced back
    (`_trace_back`).  A `stats` dict receives the count's `peak` live
    entries and `births`, the traceback's `probes`, the monomials listed
    per degree (`leaves`) and the `cap` on entries live and born.
    """
    births = {}
    counts, peak, _ = _count_invariants(alg, lo, hi, births)
    _refuse_over(counts, lo, MONOMIAL_CAP)
    found, probes = _trace_back(alg, lo, counts, births)
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
    """The eigenvalue oracle's degree-free set-up, held by the spec
    (`AlgebraSpec._oracle_state`): the left and right halves of the
    generators in a minimum-degree elimination order (`_walk_order`, a
    permutation), each as (generators, step tables, closing tables), then
    the state of the monomial 1 and the product table of each eigenvalue.
    The closing table of the half's generator j maps a state to whether its
    product is 1 on every coordinate that the half's generators up to j act
    on and no other generator does, in either half: those products are
    final once j is added (None where there is no such coordinate).  The step,
    product and closing tables are filled on lookup, from one budget for
    the spec."""
    gens, field = _walk_order(alg.generators), alg.field
    q = field.q
    half = len(gens) // 2
    scalars = [field.pow(field.generator, (q - 1) // m) for m in alg.moduli]
    inverted = [field.inv(x) for x in scalars]
    # one running product: places[c] = q ** c
    places = list(itertools.accumulate([q] * (alg.torus_rank - 1),
                                       operator.mul, initial=1))
    budget = [_TABLE_BUDGET]

    def act(moves):
        tables = [(place, products[ev]) for place, ev in moves]

        def fill(s):
            for place, table in tables:
                v = s // place % q
                s += (table[v] - v) * place
            return s
        return _Table(fill, budget)

    @functools.cache
    def eigenvalue(x, w):
        return field.pow(x, w)

    def closes(places):     # is the product 1 in each of these places?
        return _Table(lambda s: all(s // place % q == 1 for place in places),
                      budget)

    def move(xs, weight):
        eig = [eigenvalue(x, w) for x, w in zip(xs, weight)]
        return tuple((place, ev) for place, ev in zip(places, eig) if ev != 1)

    # The right half runs from the far end of the order, where its
    # coordinates close sooner (hook (8,7) in degree 9 pops 780 nodes there
    # against 1,280 walked forward), and its eigenvalues come inverted:
    # (x^-1)^w = (x^w)^-1.
    left, right = gens[:half], gens[half:][::-1]
    lmoves = [move(scalars, g.weight) for g in left]
    rmoves = [move(inverted, g.weight) for g in right]
    products = {ev: _Table(functools.partial(field.mul, ev), budget)
                for ev in {ev for m in lmoves + rmoves for _, ev in m}}
    steps = _tables(lmoves + rmoves, act)

    def closed(own, other):
        outside = {place for m in other for place, _ in m}
        last = {place: j for j, m in enumerate(own) for place, _ in m}
        return [tuple(place for place, k in last.items()
                      if k <= j and place not in outside)
                for j in range(len(own))]

    allowed = _tables(closed(lmoves, rmoves) + closed(rmoves, lmoves), closes)
    return ((left, steps[:half], allowed[:half]),
            (right, steps[half:], allowed[half:]), sum(places), products)


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

    The search meets in the middle (Horowitz and Sahni, 1974).  The
    generators, in a minimum-degree elimination order (`_walk_order`), are
    cut in two halves, and the right half is walked from the far end.  Each
    half is walked once, over the degrees a whose partner degree `d - a`
    has monomials in the other half for some d in lo..hi, and its monomials
    are grouped by degree and by their state: the vector of eigenvalue
    products, their element numbers packed as base-q digits.  The right
    half multiplies by inverted eigenvalues, so a left monomial and a right
    one multiply to 1 exactly when their states are equal, and a hash join
    on the state pairs them in each degree d.  A half walk closes a
    coordinate once no generator ahead in the half and none in the other
    half acts on it: from then on it keeps a branch only if the product
    there is 1, the element number 1, which is the acceptance test applied
    early.  That test reads the state alone, so its tables are the spec's.
    Scalars, eigenvalues and products are element numbers of the spec's
    own field, `alg.field`, whose generator is found once per field object.
    Each eigenvalue is a field power of its scalar, computed once per
    (scalar, weight) pair; every product is an actual field multiplication,
    `Fq.mul`, made on the first lookup of an (eigenvalue, element) pair and
    kept in a table while the budget lasts.  All of this, closing tables
    included, is set up once per spec (`_oracle_setup`) and held by it; a
    call counts, walks the halves and joins.

    The number of monomials of each degree is known from the two halves'
    Hilbert series before anything is walked; when a degree has more than
    `max_count`, the call raises ResourceGuardError naming the lowest one.
    """
    gens = alg.generators
    _degree_range(gens, lo, hi)
    _refuse_over(_hilbert(gens, hi)[lo:], lo, max_count)   # before any walk
    lhalf, rhalf, identity, _ = alg._oracle_state
    lcount, rcount = _hilbert(lhalf[0], hi), _hilbert(rhalf[0], hi)
    degrees = range(lo, hi + 1)
    # (d, a): degree d takes degree a from the left half, d - a from the right
    pairs = [(d, a) for d in degrees for a in range(d + 1)
             if lcount[a] and rcount[d - a]]
    if not pairs:
        return [[] for _ in degrees]

    llo, lhi = min(a for _, a in pairs), max(a for _, a in pairs)
    rlo, rhi = min(d - a for d, a in pairs), max(d - a for d, a in pairs)
    # The walks and the join make a tuple per monomial and no reference
    # cycles.  The cyclic collector is held off until they are done, so it
    # never scans the groups while they live, however its counters stand.
    enabled = gc.isenabled()
    gc.disable()
    try:
        lgroups, rgroups = [
            _walk(gens, bottom, top, _codes(alg, gens), steps, identity,
                  allowed)
            for (gens, steps, allowed), bottom, top
            in ((lhalf, llo, lhi), (rhalf, rlo, rhi))]
        found = {d: [] for d in degrees}
        for d, a in pairs:
            rstates = rgroups[d - a - rlo]
            for s, lexps in lgroups[a - llo].items():
                rexps = rstates.get(s)
                if rexps:
                    found[d].extend(x + y for x in lexps for y in rexps)
        return [_as_monomials(found[d], alg) for d in degrees]
    finally:
        if enabled:
            gc.enable()


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
    a `stats` dict then receives 0 `nodes`, 0 `pruned`, the series as
    `leaves` and the `cap`.  The invariant filters count by state
    (`_count_invariants`), "invariant_nilpotent" as the count over all
    generators minus the count over the polynomial ones alone; their guard
    is SERIES_CAP live entries, and `stats` receives the `peak` live
    entries, the most each degree below D held (`live`) and the `cap`.
    """
    if filter not in FILTERS:
        raise InputError(f"filter must be one of {FILTERS}")
    _degree_range(alg.generators, 0, max_degree,
                  "max_degree must be nonnegative")
    if filter == "all":
        dims = _hilbert(alg.generators, max_degree)
        _refuse_over(dims, 0, MONOMIAL_CAP)
        if stats is not None:
            stats.update(nodes=0, pruned=0, leaves=dims, cap=MONOMIAL_CAP)
        return dims
    dims, peak, live = _count_invariants(alg, 0, max_degree)
    if filter == "invariant_nilpotent":
        polynomial = [g.id for g in alg.generators if g.parity == POLYNOMIAL]
        even = dims         # without exterior generators, all of them
        if len(polynomial) < len(alg.generators):
            even, even_peak, even_live = _count_invariants(
                alg.restrict(polynomial), 0, max_degree)
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
    births = {}
    counts = _count_invariants(alg, lo, degree, births)[0]
    _refuse_over(counts[-1:], degree, MONOMIAL_CAP)
    (found,), _ = _trace_back(alg, degree, counts[-1:], births)
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
