"""The full verification grid: one function per numbered check, each returning
a small deterministic report, plus a driver that runs any subset in order.

Reports deliberately carry no wall-clock data so that repeated runs serialize
to identical bytes; time budgets live in the acceptance tests.
"""

import math
import random
import time
from fractions import Fraction

from . import __version__
from .errors import InputError
from .gl2 import gl2_algebra, gl2_landmarks, sl2_algebra, sl2_landmarks
from .grgln import (
    build_gr_un,
    chern_coefficient,
    commuting_regular_subgroup,
    essential_kernel,
    exponent_check,
    hook_detection,
    shared_run,
    subgroup_support,
    theorem_borel_char2,
    theorem_lowest_gl,
)
from .invalg import (
    dimension_series,
    invariant_monomials_by_degree,
    invariant_monomials_oracle_by_degree,
    quillen_verify,
    random_algebra_spec,
)
from .rootsys import (
    build_root_system,
    char2_vanishing_bound,
    character_lattice,
    cocharacter_lattice,
    cofundamental_exponent,
    coweight_one_witness,
    coxeter_number,
    lie_gr_algebra,
    root_action_index,
    root_divisibility,
)

RANDOM_SPEC_SEED = 80808

GL2_GRID = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1)]
GL2_ODD_GRID = [(3, 1), (3, 2), (5, 1), (7, 1)]
SL2_GRID = [(5, 1), (7, 1), (3, 2)]
QUILLEN_GRID = [(p, r) for p in (2, 3, 5, 7) for r in (1, 2, 3)] \
    + [(2, 4), (2, 5), (2, 6)]
GR_GRID = [(p, r, n)
           for (p, r, nmax) in [(3, 1, 5), (5, 1, 4), (3, 2, 3),
                                (2, 2, 4), (2, 3, 3)]
           for n in range(2, nmax + 1)]
ESSENTIAL_ONES = [(4, 5), (5, 5), (4, 7), (5, 7), (6, 7), (7, 7)]
ESSENTIAL_ZEROS = [(4, 3), (5, 3), (6, 5), (7, 5), (8, 7)]
ESSENTIAL_SMALL = (3, 5)

COXETER_TABLE = {
    ("A", 1): 2, ("A", 2): 3, ("A", 3): 4, ("A", 4): 5, ("A", 5): 6,
    ("B", 2): 4, ("B", 3): 6, ("B", 4): 8,
    ("C", 2): 4, ("C", 3): 6, ("C", 4): 8,
    ("D", 4): 6, ("D", 5): 8,
    ("E", 6): 12, ("E", 7): 18, ("E", 8): 30,
    ("F", 4): 12, ("G", 2): 6,
}
NO_SMALL_COWEIGHT = {("E", 8), ("F", 4), ("G", 2)}


def _positive_count(ctype, n):
    return {"A": n * (n + 1) // 2, "B": n * n, "C": n * n,
            "D": n * (n - 1), "E": {6: 36, 7: 63, 8: 120}.get(n, 0),
            "F": 24, "G": 6}[ctype]


def _result(name, label, ok, details):
    return {"criterion": name, "label": label, "pass": bool(ok),
            "details": details}


def c01():
    cases = []
    for p, r in GL2_GRID:
        rep = gl2_landmarks(p, r)
        landmark = r * (2 * p - 3)
        ok = (rep["match"] and rep["first_positive_degree"] == landmark
              and rep["first_dim"] == 1)
        cases.append({"p": p, "r": r, "degree": rep["first_positive_degree"],
                      "witness": rep["witness"]["str"] if rep["witness"]
                      else None, "ok": ok})
    return _result("c01", "rank-one landmark grid",
                   all(c["ok"] for c in cases), {"cases": cases})


def c02():
    cases = []
    for p, r in GL2_ODD_GRID:
        rep = gl2_landmarks(p, r)
        ok = (rep["match"]
              and rep["lowest_nonnilpotent_degree"] == r * (2 * p - 2))
        cases.append({"p": p, "r": r,
                      "degree": rep["lowest_nonnilpotent_degree"],
                      "witness": rep["nonnilpotent_witness"]["str"],
                      "ok": ok})
    return _result("c02", "rank-one non-nilpotence grid",
                   all(c["ok"] for c in cases), {"cases": cases})


def c03():
    cases = []
    for p, r in SL2_GRID:
        rep = sl2_landmarks(p, r)
        ok = (rep["match"] and rep["first_positive_degree"] == r * (p - 2)
              and rep["first_dim"] == 1)
        cases.append({"p": p, "r": r, "degree": rep["first_positive_degree"],
                      "ok": ok})
    return _result("c03", "squares-of-units landmark grid",
                   all(c["ok"] for c in cases), {"cases": cases})


def c04():
    cases = []
    total = 0
    for p, r in QUILLEN_GRID:
        rep = quillen_verify(p, r)
        total += rep["tuples_checked"]
        cases.append({"p": p, "r": r, "ok": rep["pass"]})
    return _result("c04", "digit-sum divisibility bound",
                   all(c["ok"] for c in cases),
                   {"cases": cases, "tuples_checked": total})


def c05():
    cases = []
    for p, r, n in GR_GRID:
        rep = hook_detection(build_gr_un(n, p, r))
        cases.append({"p": p, "r": r, "n": n, "series": rep["series"],
                      "ok": rep["vanishing_ok"]})
    return _result("c05", "graded unitriangular low-degree vanishing",
                   all(c["ok"] for c in cases), {"cases": cases})


def c06():
    cases = []
    for p, r, n in GR_GRID:
        rep = hook_detection(build_gr_un(n, p, r))
        ok = rep["kernel_dim"] == 0
        if p == 2:
            ok = ok and rep["dim_at_degree"] == math.comb(n, 2)
        cases.append({"p": p, "r": r, "n": n,
                      "kernel_dim": rep["kernel_dim"],
                      "dim_at_degree": rep["dim_at_degree"], "ok": ok})
    return _result("c06", "hook and root support detection",
                   all(c["ok"] for c in cases), {"cases": cases})


def c07():
    cases = []
    for n, p in ESSENTIAL_ONES:
        rep = essential_kernel(n, p)
        ok = rep["kernel_dim"] == 1 and not rep["discrepancy"]
        cases.append({"n": n, "p": p, "kernel_dim": rep["kernel_dim"],
                      "ok": ok})
    for n, p in ESSENTIAL_ZEROS:
        rep = essential_kernel(n, p)
        ok = rep["kernel_dim"] == 0 and not rep["discrepancy"]
        cases.append({"n": n, "p": p, "kernel_dim": rep["kernel_dim"],
                      "ok": ok})
    n, p = ESSENTIAL_SMALL
    rep = essential_kernel(n, p)
    ok = rep["discrepancy"] and rep["caution"] and rep["kernel_dim"] > 0
    cases.append({"n": n, "p": p, "kernel_dim": rep["kernel_dim"],
                  "discrepancy": rep["discrepancy"],
                  "basis": [b["str"] for b in rep["kernel_basis"]],
                  "ok": ok})
    return _result("c07", "essential kernel against the edge family",
                   all(c["ok"] for c in cases), {"cases": cases})


def _c08_grid_specs():
    """(algebra, max degree) pairs for every spec the landmark criteria use."""
    out = []
    for p, r in GL2_GRID:
        out.append((gl2_algebra(p, r), r * (2 * p - 3)))
    for p, r in SL2_GRID:
        out.append((sl2_algebra(p, r), r * (2 * p - 3)))
    for p, r, n in GR_GRID:
        out.append((build_gr_un(n, p, r).algebra, r * (2 * p - 3)))
    for n, p in ESSENTIAL_ONES + ESSENTIAL_ZEROS + [ESSENTIAL_SMALL]:
        spec = build_gr_un(n, p, 1)
        hook = subgroup_support(spec, "hook", 1, n)
        out.append((spec.algebra.restrict(hook.ids), 2 * p - 3))
    return out


def c08():
    rng = random.Random(RANDOM_SPEC_SEED)
    specs = [(random_algebra_spec(rng), 8) for _ in range(100)]
    grid = _c08_grid_specs()
    agree = [a == b for alg, top in specs + grid for a, b in zip(
        invariant_monomials_by_degree(alg, 1, top),
        invariant_monomials_oracle_by_degree(alg, 1, top))]
    return _result("c08", "divisibility route equals eigenvalue oracle",
                   all(agree),
                   {"random_specs": 100, "grid_specs": len(grid),
                    "comparisons": len(agree),
                    "mismatches": agree.count(False)})


def c09():
    cases = []
    for (t, n), h in sorted(COXETER_TABLE.items()):
        rs = build_root_system([(t, n)])
        witness = coweight_one_witness(rs)[0]
        ok = (coxeter_number(rs) == [h]
              and len(rs.positive_roots) == _positive_count(t, n)
              and (witness is None) == ((t, n) in NO_SMALL_COWEIGHT))
        cases.append({"type": f"{t}{n}", "coxeter": coxeter_number(rs)[0],
                      "positive_roots": len(rs.positive_roots),
                      "coweight_one_witness": witness, "ok": ok})
    return _result("c09", "classical root-system table",
                   all(c["ok"] for c in cases), {"cases": cases})


def c10():
    cases = []
    for t, n in [("A", 3), ("B", 3), ("C", 3)]:
        rs = build_root_system([(t, n)])
        lat = character_lattice(rs, "adjoint")
        ok = all(root_action_index(rs, lat, root, q) == 1
                 for q in (3, 4, 5, 7, 8, 9) for root in rs.positive_roots)
        cases.append({"type": f"{t}{n}", "lattice": "adjoint",
                      "all_indices_one": ok, "ok": ok})
    for t, n in [("C", 2), ("C", 3)]:
        rs = build_root_system([(t, n)])
        lat = character_lattice(rs, "sc")
        long_roots = [r for r in rs.positive_roots
                      if r.length_class == "long"]
        ok = bool(long_roots)
        for root in long_roots:
            ok = ok and root_divisibility(rs, lat, root, 2)
            ok = ok and all(root_action_index(rs, lat, root, q) == 2
                            for q in (3, 5, 7, 9))
            ok = ok and all(root_action_index(rs, lat, root, q) == 1
                            for q in (2, 4, 8))
        cases.append({"type": f"{t}{n}", "lattice": "sc",
                      "long_roots": len(long_roots), "ok": ok})
    return _result("c10", "root divisibility and action index",
                   all(c["ok"] for c in cases), {"cases": cases})


def c11():
    cases = []
    exponent_table = [("A", 1, 2), ("A", 2, 3), ("A", 3, 4), ("A", 4, 5),
                      ("A", 5, 6), ("B", 3, 2), ("C", 3, 2), ("D", 4, 2),
                      ("D", 5, 4)]
    for t, n, expect in exponent_table:
        rs = build_root_system([(t, n)])
        adj = cocharacter_lattice(rs, "adjoint")
        sc = cocharacter_lattice(rs, "sc")
        e_adj = cofundamental_exponent(rs, adj)
        e_sc = cofundamental_exponent(rs, sc)
        bounds_ok = all(
            char2_vanishing_bound(rs, sc, r)
            == Fraction(r, math.gcd(expect, 2 ** r - 1))
            and char2_vanishing_bound(rs, adj, r) == Fraction(r, 1)
            for r in (1, 2, 3))
        ok = e_adj == 1 and e_sc == expect and bounds_ok
        cases.append({"type": f"{t}{n}", "adjoint_exponent": e_adj,
                      "sc_exponent": e_sc, "ok": ok})
    for t, n in [("A", 2), ("A", 3), ("B", 2)]:
        rs = build_root_system([(t, n)])
        lat = cocharacter_lattice(rs, "adjoint")
        for r in (1, 2, 3):
            alg = lie_gr_algebra(rs, lat, 2, r)
            dims = dimension_series(alg, r, "invariant")[1:]
            ok = all(d == 0 for d in dims[:-1]) and dims[-1] > 0
            cases.append({"type": f"{t}{n}", "lattice": "adjoint", "r": r,
                          "dims": dims, "ok": ok})
    return _result("c11", "characteristic-2 vanishing bounds",
                   all(c["ok"] for c in cases), {"cases": cases})


def c12():
    reps = {
        "exponent_3_3_1": exponent_check(3, 3, 1),
        "exponent_3_2_1": exponent_check(3, 2, 1),
        "exponent_4_5_1": exponent_check(4, 5, 1),
        "regular_3_3_1": commuting_regular_subgroup(3, 3, 1),
        "regular_3_5_2": commuting_regular_subgroup(3, 5, 2),
        "regular_5_5_1": commuting_regular_subgroup(5, 5, 1),
    }
    checks = {
        "exponent_3_3_1": reps["exponent_3_3_1"]["pass"]
        and reps["exponent_3_3_1"]["elements_checked"] == 27,
        "exponent_3_2_1": not reps["exponent_3_2_1"]["pass"]
        and reps["exponent_3_2_1"]["witness_order"] == 4,
        "exponent_4_5_1": reps["exponent_4_5_1"]["pass"]
        and reps["exponent_4_5_1"]["elements_checked"] == 5 ** 6,
        "regular_3_3_1": reps["regular_3_3_1"]["pass"],
        "regular_3_5_2": reps["regular_3_5_2"]["pass"],
        "regular_5_5_1": reps["regular_5_5_1"]["pass"],
    }
    details = {name: {"ok": ok} for name, ok in checks.items()}
    details["exponent_3_2_1"]["witness"] = reps["exponent_3_2_1"]["witness"]
    return _result("c12", "matrix exponent and regular subgroup checks",
                   all(checks.values()), details)


def c13():
    cases = []
    for n, p, r in [(2, 3, 1), (4, 5, 1), (2, 2, 3)]:
        rep = theorem_lowest_gl(n, p, r)
        ok = rep["dim"] == 1 and not rep["discrepancy"]
        cases.append({"n": n, "p": p, "r": r, "dim": rep["dim"], "ok": ok})
    rep = theorem_lowest_gl(3, 5, 1)
    cases.append({"n": 3, "p": 5, "r": 1, "dim": rep["dim"],
                  "discrepancy": rep["discrepancy"],
                  "ok": rep["dim"] == 1 and rep["discrepancy"]
                  and rep["caution"]})
    for n, p, r in [(5, 3, 1), (6, 5, 1), (3, 2, 1), (3, 2, 2), (4, 2, 1)]:
        rep = theorem_lowest_gl(n, p, r)
        labelled = all(
            i["status"] in ("computed", "cited")
            and (i["status"] == "computed" or i["quote"])
            for i in rep["ingredients"])
        ok = rep["dim"] == 0 and not rep["discrepancy"] and labelled
        cases.append({"n": n, "p": p, "r": r, "dim": rep["dim"], "ok": ok})
    for n in range(2, 6):
        for r in (1, 2, 3):
            rep = theorem_borel_char2(n, r)
            gr = rep["ingredients"][0]
            ok = (rep["dim"] == n - 1 and not rep["discrepancy"]
                  and gr["status"] == "computed"
                  and gr["detail"]["dim_at_degree"] == math.comb(n, 2))
            cases.append({"borel_n": n, "r": r, "dim": rep["dim"], "ok": ok})
    return _result("c13", "lowest-cohomology theorem reporters",
                   all(c["ok"] for c in cases), {"cases": cases})


def c14():
    cases = []
    for n, p in [(2, 3), (3, 3), (2, 5), (3, 5), (2, 7)]:
        value = chern_coefficient(n, p)
        cases.append({"n": n, "p": p, "value": value, "ok": value == 1})
    return _result("c14", "Euler class leading coefficient",
                   all(c["ok"] for c in cases), {"cases": cases})


CRITERIA = [
    ("c01", c01), ("c02", c02), ("c03", c03), ("c04", c04), ("c05", c05),
    ("c06", c06), ("c07", c07), ("c08", c08), ("c09", c09), ("c10", c10),
    ("c11", c11), ("c12", c12), ("c13", c13), ("c14", c14),
]


def run_grid(names=None, report_time=None) -> dict:
    """Run the named checks (all by default, in order) and collect reports;
    `report_time(name, seconds)`, if given, gets each check's wall time.
    Equal U_n specs, hook detections and essential kernels are computed once
    per run and shared between the checks; "shared" holds each such
    function's [computed, reused] counts."""
    known = dict(CRITERIA)
    if names is None:
        selected = [name for name, _ in CRITERIA]
    else:
        selected = list(names)
        unknown = [n for n in selected
                   if not isinstance(n, str) or n not in known]
        if unknown:
            raise InputError(f"unknown criteria {unknown}")
    results = []
    with shared_run() as shared:
        for name in selected:
            start = time.perf_counter()
            results.append(known[name]())
            if report_time is not None:
                report_time(name, time.perf_counter() - start)
    return {
        "op": "verify_all",
        "tool_version": __version__,
        "criteria": results,
        "pass": all(r["pass"] for r in results),
        "shared": shared,
    }
