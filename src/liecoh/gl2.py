"""Rank-one specializations: the two-by-two general and special linear
landmark computations.

The algebra has generators x_0..x_{r-1} (exterior, or polynomial of degree 1
when p = 2) and y_0..y_{r-1} (polynomial of degree 2, absent when p = 2),
with x_k and y_k both carrying weight p^k on a one-dimensional torus.  The
modulus is q - 1 for the full group of units and (q - 1)/2 for the
index-two subgroup of squares (p odd).

Landmarks are computed by enumeration first and only then compared with the
closed-form expectations; a mismatch is reported (`match: false`), never
silently patched.
"""

from .errors import InputError
from .ffq import prime_power
from .invalg import (
    EXTERIOR,
    AlgebraSpec,
    Monomial,
    graded_pair,
    invariant_monomials_by_degree,
    monomial_json,
)


def _rank_one_algebra(p, r, moduli=None):
    pairs = [graded_pair(p, k, k, (1,)) for k in range(r)]
    # all x's, then all y's
    gens = [g for col in zip(*pairs) for g in col]
    return AlgebraSpec.make(p, r, 1, gens, moduli)


def gl2_algebra(p, r) -> AlgebraSpec:
    """Weighted algebra whose invariants give the rank-one dimensions with
    the full group of units acting."""
    prime_power(p, r)     # before any generator is built
    return _rank_one_algebra(p, r)


def sl2_algebra(p, r) -> AlgebraSpec:
    """Same generators, but only the squares of units act: modulus (q-1)/2.

    p = 3, r = 1 yields modulus 1 (trivial torus) and is allowed.
    """
    if p == 2:
        raise InputError("the squares-of-units variant needs p odd")
    return _rank_one_algebra(p, r, ((prime_power(p, r) - 1) // 2,))


def _expected_witness(alg, r, xexp, yexp):
    """Every x to the power xexp times every y to the power yexp, formatted,
    with the ids read off the spec: the r x's come first, then the r y's."""
    ids = [g.id for g in alg.generators]
    return Monomial(tuple([(i, xexp) for i in ids[:r] if xexp]
                          + [(i, yexp) for i in ids[r:] if yexp])).format()


def _landmark_report(group, alg, p, r, expected, top):
    # top: the degree of some non-nilpotent invariant, so no landmark is above
    by_degree = invariant_monomials_by_degree(alg, 1, top)
    # first positive hit, first fully polynomial (non-nilpotent) hit
    first = next((d for d, monos in enumerate(by_degree, 1) if monos), None)
    first_monos = by_degree[first - 1] if first else []
    witness = first_monos[0] if len(first_monos) == 1 else None
    exterior_ids = {g.id for g in alg.generators if g.parity == EXTERIOR}
    nonnilp, nonnilp_witness = next(
        ((d, m) for d, monos in enumerate(by_degree, 1) for m in monos
         if not m.support() & exterior_ids), (None, None))

    square_free = None
    if p == 2:
        square_free = not any(
            all(e % 2 == 0 for _, e in m.exps) for m in by_degree[r - 1])

    rep = {
        "group": group,
        "p": p,
        "r": r,
        "spec_hash": alg.spec_hash(),
        "first_positive_degree": first,
        "first_dim": len(first_monos),
        "witness": monomial_json(witness) if witness else None,
        "lowest_nonnilpotent_degree": nonnilp,
        "nonnilpotent_witness":
            monomial_json(nonnilp_witness) if nonnilp_witness else None,
        "square_free_check": square_free,
        "expected": expected,
    }
    ok = (first == expected["first_positive_degree"]
          and len(first_monos) == expected["first_dim"]
          and witness is not None
          and witness.format() == expected["witness"])
    if "lowest_nonnilpotent_degree" in expected:
        ok = (ok and nonnilp == expected["lowest_nonnilpotent_degree"]
              and nonnilp_witness is not None
              and nonnilp_witness.format() == expected["nonnilpotent_witness"])
    if p == 2:
        ok = ok and square_free is True
    rep["match"] = ok
    return rep


def gl2_landmarks(p, r) -> dict:
    """First positive invariant degree (expected r(2p-3), dimension 1) and
    lowest degree with a non-nilpotent invariant (expected r(2p-2) for p odd;
    for p = 2 nothing is nilpotent, so it coincides with the first landmark).
    """
    alg = gl2_algebra(p, r)
    if p == 2:
        expected = {
            "first_positive_degree": r,
            "first_dim": 1,
            "witness": _expected_witness(alg, r, 1, 0),
            "lowest_nonnilpotent_degree": r,
            "nonnilpotent_witness": _expected_witness(alg, r, 1, 0),
        }
    else:
        expected = {
            "first_positive_degree": r * (2 * p - 3),
            "first_dim": 1,
            "witness": _expected_witness(alg, r, 1, p - 2),
            "lowest_nonnilpotent_degree": r * (2 * p - 2),
            "nonnilpotent_witness": _expected_witness(alg, r, 0, p - 1),
        }
    top = r if p == 2 else r * (2 * p - 2)     # prod x_k, prod y_k^(p-1)
    return _landmark_report("GL2", alg, p, r, expected, top)


def sl2_landmarks(p, r) -> dict:
    """First positive invariant degree with only squares of units acting:
    expected r(p-2), dimension 1.  Non-nilpotent landmarks are computed and
    reported but carry no closed-form expectation here."""
    alg = sl2_algebra(p, r)
    expected = {
        "first_positive_degree": r * (p - 2),
        "first_dim": 1,
        "witness": _expected_witness(alg, r, 1, (p - 3) // 2),
    }
    # prod y_k^((p-1)/2)
    return _landmark_report("SL2", alg, p, r, expected, r * (p - 1))
