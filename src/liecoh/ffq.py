"""Arithmetic in small finite fields F_q, q = p^r, and unitriangular matrices.

Elements are residues of F_p[t] modulo a fixed monic irreducible polynomial of
degree r.  Coefficient vectors are little-endian: (c0, c1, ..., c_{r-1}) stands
for c0 + c1*t + ... + c_{r-1}*t^{r-1}.  Polynomials use the same convention
with the leading coefficient last.  The element number of that element is
the int c0 + c1*p + ... + c_{r-1}*p^{r-1}, its base-p digits.

Two canonical choices make every run reproducible:

* the modulus is the lexicographically smallest monic irreducible polynomial
  of degree r, comparing coefficient vectors (c0, ..., c_{r-1}) from the left;
  for r >= 2 the search starts at c0 = 1, since t divides every c0 = 0 case,
  and each candidate f gets Ben-Or's exact test, gcd(f, t^(p^d) - t) = 1
  for d = 1 .. r // 2 (M. Ben-Or, Probabilistic algorithms in finite
  fields, FOCS 1981);
* the distinguished generator of the multiplicative group is the
  lexicographically smallest element of multiplicative order q - 1 under the
  same coefficient ordering.

`Fq` is the one field type, and an algebra spec carries its own.  Elements
leave this module only as element numbers: in and out of `Fq.mul`, `Fq.pow`,
`Fq.inv`, `multiplicative_generator` and `FqMatrix`.  (`FqElement` is a
naive coefficient-tuple reference over them.)  A product is one `% p` for
r = 1.  For r >= 2 an element's code holds its r coefficients little-endian
in w-bit slots, w = (n*r*(p-1)**2).bit_length() for n x n matrices, so a
sum of n code products never carries between slots (Kronecker
substitution); `Fq.mul` packs, multiplies and reduces as for n = 1.  Each
field builds one table-driven `_kernel` per slot width, on first use: it
packs by ORing in the codes of base-p^c digit chunks (p^c <= 2**10), and
folds each product slot t^i above r - 1 back in through the packed
residue R_i = t^i mod the modulus, for p = 2 by one AND with the slots'
parity bits and an XOR of R_i per set high bit, for odd p by adding the
pre-scaled (slot mod p) * R_i and one `% p` per low slot.  A matrix entry
is one code (for r = 1, the residue); a product entry is an int sum,
reduced through a memo per slot width, all bounded by `_REDUCE_BUDGET`
entries, since unitriangular products repeat a few sums (mostly 0 and 1).
`mat_pow(m, e)` takes bit_length(e) - 1 + popcount(e) - 1 products for e >= 1.

All arithmetic is exact.  Field sizes are capped at q <= 2**20, matrix
enumerations and samples at 10**6 matrices; the caps fail loudly.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from operator import mul

from .errors import InputError, ResourceGuardError, require_int

Q_CAP = 2 ** 20
ENUMERATION_CAP = 10 ** 6
# Entries the reduction memos of one field may store, at most about 5 MB
# (measured for 8 x 8 matrices over F_2^20); later misses are reduced and
# not stored.
_REDUCE_BUDGET = 1 << 15


class _Table(dict):
    """Mapping filled by `fill(key)` on first lookup; values are stored while
    the shared `budget` (a one-item list) lasts."""

    def __init__(self, fill, budget):
        super().__init__()
        self.fill, self.budget = fill, budget

    def __missing__(self, key):
        value = self.fill(key)
        if self.budget[0] > 0:
            self.budget[0] -= 1
            self[key] = value
        return value


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def prime_power(p: int, r: int) -> int:
    """q = p^r, once p is checked to be a prime int, r an int >= 1 and q at
    most the field size cap Q_CAP.  A p above the cap is refused by the cap,
    prime or not, before trial division would take sqrt(p) steps."""
    require_int(p, "p")
    require_int(r, "r")
    if p <= Q_CAP and not is_prime(p):
        raise InputError(f"p = {p} is not prime")
    if r < 1:
        raise InputError(f"r = {r} must be positive")
    # p^r >= 2^r, so an r past the cap's bit length needs no power computed
    if p > Q_CAP or r >= Q_CAP.bit_length() or p ** r > Q_CAP:
        raise ResourceGuardError(
            f"q = {p}^{r} exceeds the field size cap {Q_CAP}")
    return p ** r


# ---------------------------------------------------------------------------
# dense little-endian polynomial arithmetic over F_p
# ---------------------------------------------------------------------------

def _low_terms(b) -> tuple:
    """The nonzero terms (j, b_j) of monic b below its leading one."""
    return tuple((j, bj) for j, bj in enumerate(b[:-1]) if bj)


def _poly_rem(a, b, p, low):
    """Remainder of a (any integer coefficients) modulo monic b, mod p;
    `low` is `_low_terms(b)`."""
    db = len(b) - 1
    if len(a) > db:
        a = list(a)
        for i in range(len(a) - 1, db - 1, -1):
            c = a[i] % p
            if c:
                for j, bj in low:
                    a[i - db + j] -= c * bj
    return [x % p for x in a[:db]]


def _mulmod(a, b, f, p, low):
    """a * b modulo monic f over F_p, for a and b of degree below deg f."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    return _poly_rem(prod, f, p, low)


def _coprime(a, b, p) -> bool:
    """True when the polynomials a and b over F_p have gcd 1 (Euclid, each
    divisor made monic first); a must not be zero."""
    while any(b):
        b = b[:max(i for i, c in enumerate(b) if c) + 1]
        lead = pow(b[-1], -1, p)
        b = [c * lead % p for c in b]
        a, b = b, _poly_rem(a, b, p, _low_terms(b))
    return len(a) == 1


def _power(x, e: int, mul):
    """x ** e for e >= 1 under the product `mul`, by repeated squaring:
    bit_length(e) - 1 squarings and popcount(e) - 1 more products, none by
    an identity."""
    result = None
    while True:
        if e & 1:
            result = x if result is None else mul(result, x)
        e >>= 1
        if not e:
            return result
        x = mul(x, x)


def _is_irreducible(f, p) -> bool:
    """Ben-Or's test: monic f of degree r is irreducible over F_p exactly
    when gcd(f, t^(p^d) - t) = 1 for every d = 1 .. r // 2."""
    r, low = len(f) - 1, _low_terms(f)
    h = [0, 1] + [0] * (r - 2)      # t mod f; r >= 2 whenever the loop runs
    for _ in range(r // 2):
        h = _power(h, p, lambda a, b: _mulmod(a, b, f, p, low))
        if not _coprime(f, [h[0], h[1] - 1] + h[2:], p):
            return False
    return True


def find_irreducible(p: int, r: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree r over F_p.

    For r = 1 this is the polynomial t itself, (0, 1).
    """
    prime_power(p, r)
    for c0 in range(p) if r == 1 else range(1, p):
        for rest in itertools.product(range(p), repeat=r - 1):
            f = (c0,) + rest + (1,)
            if _is_irreducible(f, p):
                return f
    raise AssertionError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------
# field context and elements
# ---------------------------------------------------------------------------

class Fq:
    """Field context F_p[t] / (modulus), with the canonical modulus
    `find_irreducible(p, r)`."""

    def __init__(self, p: int, r: int):
        self.q = prime_power(p, r)
        self.p = p
        self.r = r
        self.modulus = find_irreducible(p, r)
        self._low = _low_terms(self.modulus)
        # the slot width of one product of two element numbers
        self._w = _slot_width(self, 1)
        # slot width -> `_kernel`, and -> matrix product memo (one budget)
        self._kernels, self._memos, self._budget = {}, {}, [_REDUCE_BUDGET]

    # the modulus is the canonical one, so (p, r) names the field
    def __eq__(self, other):
        return isinstance(other, Fq) and (self.p, self.r) == (other.p, other.r)

    def __hash__(self):
        return hash((self.p, self.r))

    def __repr__(self):
        return f"Fq({self.p}, {self.r})"

    @functools.cached_property
    def generator(self) -> int:
        """`multiplicative_generator` of this field, found on first use."""
        return multiplicative_generator(self)

    def from_int(self, k: int) -> "FqElement":
        """Element number k, 0 <= k < q, little-endian base-p digits."""
        if not 0 <= k < self.q:
            raise InputError(f"element index {k} out of range for q = {self.q}")
        digits = []
        for _ in range(self.r):
            digits.append(k % self.p)
            k //= self.p
        return FqElement(self, tuple(digits))

    # coefficient-tuple addition; FqElement operators delegate here
    def _add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def _neg(self, a):
        return tuple((-x) % self.p for x in a)

    # multiplicative arithmetic on element numbers (see `from_int`)
    def mul(self, a: int, b: int) -> int:
        """Product of the elements numbered a and b."""
        if self.r == 1:
            return a * b % self.p
        pack, reduce, number = self._kernel(self._w)
        return number(reduce(pack(a) * pack(b)))

    def pow(self, a: int, e: int) -> int:
        """Element number of a ** e; a negative e inverts a first."""
        if e < 0:
            a, e = self.inv(a), -e
        if self.r == 1:
            return pow(a, e, self.p)
        return _power(a, e, self.mul) if e else 1

    def inv(self, a: int) -> int:
        """Element number of 1 / a; zero raises ZeroDivisionError."""
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return self.pow(a, self.q - 2)

    def _kernel(self, w: int):
        """`_kernel` of this field for w-bit slots, built on first use."""
        if w not in self._kernels:
            self._kernels[w] = _kernel(self.p, self.r, self.modulus,
                                       self._low, w)
        return self._kernels[w]

    def _memo(self, w: int) -> _Table:
        """Memo from an unreduced product entry in w-bit slots to its
        reduced code (see `FqMatrix.__mul__`), filled by the kernel."""
        memo = self._memos.get(w)
        if memo is None:
            memo = self._memos[w] = _Table(self._kernel(w)[1], self._budget)
        return memo

    def multiplicative_order(self, k: int) -> int:
        if not k:
            raise InputError("zero has no multiplicative order")
        order = self.q - 1
        for ell in prime_factors(self.q - 1):
            while order % ell == 0 and self.pow(k, order // ell) == 1:
                order //= ell
        return order


@dataclass(frozen=True)
class FqElement:
    field: Fq
    coeffs: tuple[int, ...]

    def _check(self, other):
        if not isinstance(other, FqElement) or other.field != self.field:
            raise InputError("operands belong to different fields")

    def __add__(self, other):
        self._check(other)
        return FqElement(self.field, self.field._add(self.coeffs, other.coeffs))

    def __sub__(self, other):
        self._check(other)
        return FqElement(self.field,
                         self.field._add(self.coeffs, self.field._neg(other.coeffs)))

    def __neg__(self):
        return FqElement(self.field, self.field._neg(self.coeffs))

    def __mul__(self, other):
        self._check(other)
        f = self.field
        return f.from_int(f.mul(self.to_int(), other.to_int()))

    def __pow__(self, e: int):
        return self.field.from_int(self.field.pow(self.to_int(), e))

    def __bool__(self):
        return any(self.coeffs)

    def to_int(self) -> int:
        k = 0
        for c in reversed(self.coeffs):
            k = k * self.field.p + c
        return k

    def __repr__(self):
        return f"FqElement{self.coeffs}"


def multiplicative_generator(field: Fq) -> int:
    """Element number of the lexicographically smallest element of
    multiplicative order q - 1, coefficient vectors compared from c0."""
    for coeffs in itertools.product(range(field.p), repeat=field.r):
        k = 0
        for c in reversed(coeffs):
            k = k * field.p + c
        if k and field.multiplicative_order(k) == field.q - 1:
            return k
    raise AssertionError("no generator found")  # unreachable


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

def _slot_width(field: Fq, n: int) -> int:
    return (n * field.r * (field.p - 1) ** 2).bit_length()


def _kernel(p: int, r: int, modulus, low, w: int):
    """(pack, reduce, number) for codes in w-bit slots (module docstring;
    for r = 1 the code is the number).  The closures hold tables, not the
    field, so the memo that `reduce` fills holds no reference to it."""
    if r == 1:
        return int, lambda acc: acc % p, int
    mask, top, chunk = (1 << w) - 1, r * w, [0]

    def code_of(coeffs):
        return sum(x << j * w for j, x in enumerate(coeffs))

    c = next(c for c in range(r, 0, -1) if p ** c <= 1 << 10)
    base, cmask, spans = p ** c, (1 << c * w) - 1, range(0, top, c * w)
    for s in range(0, c * w, w):
        chunk = [x | d << s for d in range(p) for x in chunk]
    digits = {code: d for d, code in enumerate(chunk)}
    rems = [_poly_rem([0] * i + [1], modulus, p, low)
            for i in range(r, 2 * r - 1)]

    def pack(k):
        code = 0
        for s in spans:
            k, d = divmod(k, base)
            code |= chunk[d] << s
        return code

    def number(code):
        k = 0
        for s in reversed(spans):
            k = k * base + digits[code >> s & cmask]
        return k

    if p == 2:
        parity, low_mask = code_of([1] * (2 * r - 1)), (1 << top) - 1
        fold = {1 << j * w: code_of(rem) for j, rem in enumerate(rems)}

        def reduce(acc):
            acc &= parity
            code, acc = acc & low_mask, acc >> top
            while acc:
                code ^= fold[acc & -acc]
                acc &= acc - 1
            return code
        return pack, reduce, number
    # sum (slot mod p) * R_i, each slot at most (r - 1)(p - 1) < 2^w
    scaled = [(top + j * w, [code_of(v * x % p for x in rem)
                             for v in range(p)]) for j, rem in enumerate(rems)]

    def reduce(acc):
        extra = 0
        for s, row in scaled:
            extra += row[(acc >> s & mask) % p]
        code = 0
        for s in range(0, top, w):
            code |= ((acc >> s & mask) + (extra >> s & mask)) % p << s
        return code
    return pack, reduce, number


class FqMatrix:
    """Square matrix over F_q, each entry one int code; immutable by
    convention.  Built from element numbers (`from_ints`, `identity`) and
    read back as element numbers (`to_int_rows`)."""

    __slots__ = ("field", "codes")

    @classmethod
    def _of(cls, field: Fq, codes) -> "FqMatrix":
        m = object.__new__(cls)
        m.field, m.codes = field, codes
        return m

    @classmethod
    def identity(cls, field: Fq, n: int) -> "FqMatrix":
        return cls._of(field, tuple(tuple(int(i == j) for j in range(n))
                                    for i in range(n)))

    @classmethod
    def from_ints(cls, field: Fq, rows) -> "FqMatrix":
        """Matrix of element numbers (see `Fq.from_int`), taken mod q."""
        if any(len(row) != len(rows) for row in rows):
            raise InputError("matrix must be square")
        pack, q = field._kernel(_slot_width(field, len(rows)))[0], field.q
        return cls._of(field, tuple(tuple(pack(v % q) for v in row)
                                    for row in rows))

    @property
    def n(self) -> int:
        return len(self.codes)

    def __eq__(self, other):
        return isinstance(other, FqMatrix) and \
            (self.field, self.codes) == (other.field, other.codes)

    def __hash__(self):
        return hash((self.field, self.codes))

    def __repr__(self):
        return f"FqMatrix({self.field!r}, {self.to_int_rows()})"

    def __mul__(self, other: "FqMatrix") -> "FqMatrix":
        f, n = self.field, self.n
        if not isinstance(other, FqMatrix) or other.n != n \
                or other.field is not f and other.field != f:
            raise InputError("matrix product needs matching shapes and fields")
        p, cols = f.p, tuple(zip(*other.codes))
        if f.r == 1:
            return FqMatrix._of(f, tuple([
                tuple([sum(map(mul, row, col)) % p for col in cols])
                for row in self.codes]))
        memo = f._memo(_slot_width(f, n))
        return FqMatrix._of(f, tuple([
            tuple([memo[sum(map(mul, row, col))] for col in cols])
            for row in self.codes]))

    def to_int_rows(self) -> list[list[int]]:
        number = self.field._kernel(_slot_width(self.field, self.n))[2]
        return [list(map(number, row)) for row in self.codes]

    def is_unitriangular(self) -> bool:
        return all(row[i] == 1 and not any(row[:i])
                   for i, row in enumerate(self.codes))


def mat_pow(m: FqMatrix, e: int) -> FqMatrix:
    """m ** e by repeated squaring (`_power`), e >= 0."""
    if e < 0:
        raise InputError("negative matrix powers are not supported")
    return _power(m, e, mul) if e else FqMatrix.identity(m.field, m.n)


def mat_pow_products(e: int) -> int:
    """The matrix products `mat_pow(m, e)` makes for e >= 1: a squaring per
    bit below the top one and a product per set bit after the first."""
    return e.bit_length() + e.bit_count() - 2


def unitriangular_elements(n: int, field: Fq, mode: str = "all",
                           count: int | None = None, seed: int = 0):
    """Upper unitriangular n x n matrices over the field.

    mode "all" enumerates the whole group in odometer order (the (0,1) entry
    moves fastest, positions in row-major order).  mode "sample" draws `count`
    matrices from the seeded RNG; repeats are possible, the stream is
    reproducible.  Either count is capped at ENUMERATION_CAP.
    """
    if n < 1:
        raise InputError("matrix size must be at least 1")
    m = n * (n - 1) // 2
    p, r, q = field.p, field.r, field.q
    if mode == "all":
        size = q ** m
        draws = (ks[::-1] for ks in itertools.product(range(q), repeat=m))
    elif mode == "sample":
        if count is None or count < 1:
            raise InputError("sample mode needs a positive count")
        size, rng = count, random.Random(seed)
        draws = ([rng.randrange(q) for _ in range(m)] for _ in range(count))
    else:
        raise InputError(f"unknown mode {mode!r}")
    if size > ENUMERATION_CAP:
        raise ResourceGuardError(
            f"{size} unitriangular matrices (mode {mode}) for n = {n}, "
            f"p = {p}, r = {r} exceed the enumeration cap {ENUMERATION_CAP}")
    pack = field._kernel(_slot_width(field, n))[0]
    heads = [(0,) * i + (1,) for i in range(n)]    # identity up to diagonal
    cuts = list(itertools.accumulate(range(n - 1, -1, -1), initial=0))
    for ks in draws:
        codes = tuple(map(pack, ks))
        yield FqMatrix._of(field, tuple([head + codes[a:b] for head, a, b
                                         in zip(heads, cuts, cuts[1:])]))
