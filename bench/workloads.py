"""The benchmark's four workloads as lists of tasks built from a seed.

A task is one call a user would wait on.  `call` is the timed part; `view`
turns its output into JSON-ready data whose sha256 is the task's digest.
Seed-independent tasks compare that digest with the one frozen in
digests.json (captured from the package as first benchmarked).  A task may
also carry a `check` that verifies the output another way, and for seeded
tasks, which have no frozen digest, it is the only check: the two
invariance routes agree, pass flags and sample counts are as expected, and
kernel monomials lie in no family member.  Every (spec, degree) task of
oracle_crosscheck checks route agreement, and its view holds both routes.

Every call goes through a module attribute (``invalg.invariant_monomials``,
not a name bound here) so the traced run sees it.

Degree ranges and sample counts are cut down from the verification grid so
that one pass takes a few seconds; every group of README.md is kept.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Any, Callable, NamedTuple

from liecoh import cli, gl2, grgln, invalg, verifygrid
from liecoh.invalg import canonical_json

WORKLOADS = ("oracle_crosscheck", "matrix_checks", "detection_sweep",
             "series_cli")

GROUPS = {
    "oracle_crosscheck": ("random", "grid", "essential_hooks", "mid_q",
                          "large_q"),
    "matrix_checks": ("small_q", "ext_q", "cap_q"),
    "detection_sweep": ("hook_detection", "essential_kernel",
                        "detection_kernel", "reporters"),
    "series_cli": ("narrow_deep", "wide_shallow", "random_nilpotent",
                   "verify_grid"),
}

RANDOM_SPECS = 100          # oracle_crosscheck/random, degrees 1..8
HOOK_DEGREE_CAP = 9         # essential hooks: degrees 1..min(2p-3, cap)
MID_Q_DEGREES = (1, 9)      # each oracle call rebuilds the q = 256 table;
                            # degree 9 has eight invariants to check
LARGE_Q_DEGREES = range(1, 8)   # gl2(2,10): no invariants below degree 10
SL2_LARGE_Q_DEGREES = range(1, 13)   # sl2(3,6), q = 729: invariants from 6
SMALL_Q_SAMPLES = 500       # 4x4 over F_5
EXT_Q_SAMPLES = 300         # 3x3 over F_729
CAP_Q_SAMPLES = 2000        # 2x2 over F_2^20
KERNEL_TASKS = 8            # seeded detection_kernel subfamilies
NILPOTENT_SPECS = 10        # seeded spec files for the nilpotent filter
NILPOTENT_DEGREE = 8

# check quillen --p 2 --r 14 is not benchmarked: it has no resource guard
# and runs past 20 s; it can join series_cli once it has one.
GRID_CRITERIA = ["c01", "c02", "c03", "c04", "c05", "c06", "c07", "c09",
                 "c10", "c11", "c13", "c14"]
# a deep generator list (1,200 generators); it should exit 0 or 3
PROBE_ARGV = ["rootsys", "algebra", "--type", "E", "--rank", "8", "--p", "3",
              "--r", "5", "--max-degree", "1", "--format", "json"]


class Task(NamedTuple):
    group: str
    key: str
    call: Callable[[], Any]
    view: Callable[[Any], Any]
    check: Callable[[Any], str | None] | None = None
    seeded: bool = False    # built from the seed, so no frozen digest


def _exps(monomials):
    return [m.exps for m in monomials]


def _identity(out):
    return out


# ---------------------------------------------------------------------------
# oracle_crosscheck
# ---------------------------------------------------------------------------

def _routes(alg, d):
    return (invalg.invariant_monomials(alg, d),
            invalg.invariant_monomials_oracle(alg, d))


def _routes_agree(out):
    if out[0] != out[1]:
        return "divisibility route and eigenvalue oracle disagree"
    return None


def _routes_view(out):
    return [_exps(out[0]), _exps(out[1])]


def _route_tasks(group, label, alg, degrees, seeded=False):
    return [Task(group, f"{label}/d{d}", lambda a=alg, d=d: _routes(a, d),
                 _routes_view, _routes_agree, seeded)
            for d in degrees]


def grid_specs():
    """(label, spec, top degree) for the gl2/sl2/GR_GRID landmark specs."""
    out = []
    for p, r in verifygrid.GL2_GRID:
        out.append((f"gl2({p},{r})", gl2.gl2_algebra(p, r), r * (2 * p - 3)))
    for p, r in verifygrid.SL2_GRID:
        out.append((f"sl2({p},{r})", gl2.sl2_algebra(p, r), r * (2 * p - 3)))
    for p, r, n in verifygrid.GR_GRID:
        out.append((f"gr({n},{p},{r})", grgln.build_gr_un(n, p, r).algebra,
                    r * (2 * p - 3)))
    return out


def _oracle_crosscheck(seed, workdir):
    tasks = []
    rng = random.Random(seed)
    for i in range(RANDOM_SPECS):
        tasks += _route_tasks("random", f"spec{i}",
                              invalg.random_algebra_spec(rng), range(1, 9),
                              seeded=True)
    for label, alg, top in grid_specs():
        tasks += _route_tasks("grid", label, alg, range(1, top + 1))
    for n, p in (verifygrid.ESSENTIAL_ONES + verifygrid.ESSENTIAL_ZEROS
                 + [verifygrid.ESSENTIAL_SMALL]):
        spec = grgln.build_gr_un(n, p, 1)
        hook = grgln.subgroup_support(spec, "hook", 1, n)
        top = min(2 * p - 3, HOOK_DEGREE_CAP)
        tasks += _route_tasks("essential_hooks", f"hook({n},{p})",
                              spec.algebra.restrict(hook.ids),
                              range(1, top + 1))
    tasks += _route_tasks("mid_q", "gl2(2,8)", gl2.gl2_algebra(2, 8),
                          MID_Q_DEGREES)
    tasks += _route_tasks("large_q", "gl2(2,10)", gl2.gl2_algebra(2, 10),
                          LARGE_Q_DEGREES)
    tasks += _route_tasks("large_q", "sl2(3,6)", gl2.sl2_algebra(3, 6),
                          SL2_LARGE_Q_DEGREES)
    return tasks


# ---------------------------------------------------------------------------
# matrix_checks
# ---------------------------------------------------------------------------

def _sample_check(count, seed):
    def check(rep):
        if not rep["pass"]:
            return "sampled exponent check failed"
        if rep["elements_checked"] != count or rep["params"]["seed"] != seed:
            return f"checked {rep['elements_checked']} of {count} samples"
        return None
    return check


def _exponent_task(group, n, p, r, count=None, seed=0):
    if count is None:
        return Task(group, f"exponent({n},{p},{r})",
                    lambda: grgln.exponent_check(n, p, r), _identity)
    return Task(group, f"exponent({n},{p},{r})/sample",
                lambda: grgln.exponent_check(n, p, r, "sample", count, seed),
                _identity, _sample_check(count, seed), seeded=True)


def _regular_task(group, n, p, r):
    return Task(group, f"regular({n},{p},{r})",
                lambda: grgln.commuting_regular_subgroup(n, p, r), _identity)


def _matrix_checks(seed, workdir):
    return [
        _exponent_task("small_q", 3, 3, 1),
        _exponent_task("small_q", 3, 2, 1),
        _exponent_task("small_q", 4, 5, 1, SMALL_Q_SAMPLES, seed),
        _regular_task("small_q", 3, 3, 1),
        _regular_task("small_q", 3, 5, 2),
        _regular_task("small_q", 5, 5, 1),
        _exponent_task("ext_q", 3, 3, 6, EXT_Q_SAMPLES, seed),
        _regular_task("ext_q", 3, 3, 6),
        _exponent_task("cap_q", 2, 2, 20, CAP_Q_SAMPLES, seed),
    ]


# ---------------------------------------------------------------------------
# detection_sweep
# ---------------------------------------------------------------------------

def _family(spec, p):
    """The default detecting family: hooks for p odd, root supports for 2."""
    kind = "root" if p == 2 else "hook"
    n = spec.n
    return [grgln.subgroup_support(spec, kind, i, j)
            for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def _kernel_check(alg, degree, family):
    """The kernel must be exactly the oracle-route invariants supported in
    no family member."""
    def check(rep):
        inv = invalg.invariant_monomials_oracle(alg, degree)
        want = [invalg.monomial_json(m) for m in inv
                if not any(m.support() <= f.ids for f in family)]
        if rep["invariant_dim"] != len(inv):
            return "invariant dimension differs from the oracle route"
        if rep["kernel_basis"] != want or rep["kernel_dim"] != len(want):
            return "kernel differs from the oracle-route invariants " \
                   "outside every family member"
        return None
    return check


def _detection_sweep(seed, workdir):
    tasks = []
    for p, r, n in verifygrid.GR_GRID:
        tasks.append(Task("hook_detection", f"hook_detection({n},{p},{r})",
                          lambda n=n, p=p, r=r: grgln.hook_detection(
                              grgln.build_gr_un(n, p, r)), _identity))
    for n, p, r, degree in [(5, 5, 1, 12), (4, 3, 2, 10)]:
        tasks.append(Task("hook_detection",
                          f"hook_detection({n},{p},{r})/d{degree}",
                          lambda n=n, p=p, r=r, d=degree: grgln.hook_detection(
                              grgln.build_gr_un(n, p, r), degree=d),
                          _identity))
    for n, p in (verifygrid.ESSENTIAL_ONES + verifygrid.ESSENTIAL_ZEROS
                 + [verifygrid.ESSENTIAL_SMALL, (8, 11), (7, 13)]):
        tasks.append(Task("essential_kernel", f"essential_kernel({n},{p})",
                          lambda n=n, p=p: grgln.essential_kernel(n, p),
                          _identity))
    rng = random.Random(seed)
    for i in range(KERNEL_TASKS):
        p, r, n = rng.choice(verifygrid.GR_GRID)
        spec = grgln.build_gr_un(n, p, r)
        family = _family(spec, p)
        members = rng.sample(family, rng.randint(1, max(1, len(family) - 1)))
        degree = r * (2 * p - 3)
        tasks.append(Task(
            "detection_kernel", f"detection_kernel{i}",
            lambda a=spec.algebra, d=degree, f=members:
                invalg.detection_kernel(a, d, f),
            _identity, _kernel_check(spec.algebra, degree, members),
            seeded=True))
    for n, p, r in [(2, 3, 1), (4, 5, 1), (2, 2, 3), (3, 5, 1), (5, 3, 1),
                    (6, 5, 1), (3, 2, 1), (3, 2, 2), (4, 2, 1)]:
        tasks.append(Task("reporters", f"theorem_lowest_gl({n},{p},{r})",
                          lambda n=n, p=p, r=r: grgln.theorem_lowest_gl(
                              n, p, r), _identity))
    for n in range(2, 6):
        for r in (1, 2, 3):
            tasks.append(Task("reporters", f"theorem_borel_char2({n},{r})",
                              lambda n=n, r=r: grgln.theorem_borel_char2(n, r),
                              _identity))
    for p, r in verifygrid.GL2_GRID:
        tasks.append(Task("reporters", f"gl2_landmarks({p},{r})",
                          lambda p=p, r=r: gl2.gl2_landmarks(p, r), _identity))
    for p, r in verifygrid.SL2_GRID:
        tasks.append(Task("reporters", f"sl2_landmarks({p},{r})",
                          lambda p=p, r=r: gl2.sl2_landmarks(p, r), _identity))
    for name in ("c09", "c10", "c11"):
        tasks.append(Task("reporters", name,
                          lambda name=name: getattr(verifygrid, name)(),
                          _identity))
    return tasks


# ---------------------------------------------------------------------------
# series_cli
# ---------------------------------------------------------------------------

def run_cli(argv, out_path):
    """One in-process command; returns its exit code and JSON report."""
    code = cli.main(argv + ["--out", str(out_path)])
    return code, json.loads(Path(out_path).read_text())


def _cli_view(out):
    # params may hold a temporary path; the digest covers everything else
    code, env = out
    return {"code": code, "op": env["op"], "results": env["results"],
            "pass": env["pass"]}


def _nilpotent_check(alg):
    """The series must equal the oracle-route count of invariant monomials
    touching an exterior generator."""
    exterior = {g.id for g in alg.generators if g.parity == invalg.EXTERIOR}

    def check(out):
        code, env = out
        want = [sum(1 for m in invalg.invariant_monomials_oracle(alg, d)
                    if m.support() & exterior)
                for d in range(NILPOTENT_DEGREE + 1)]
        if code != 0 or env["results"]["series"] != want:
            return "nilpotent series differs from the oracle route"
        return None
    return check


def _cli_task(group, key, argv, out_path, check=None, seeded=False):
    return Task(group, key, lambda: run_cli(argv, out_path), _cli_view, check,
                seeded)


def _series_cli(seed, workdir):
    workdir = Path(workdir)
    tasks = []
    spec_path = workdir / "gr_un_5_3_1.json"
    spec_path.write_text(canonical_json(
        grgln.build_gr_un(5, 3, 1).algebra.to_json_dict()))
    tasks.append(_cli_task(
        "narrow_deep", "invariants_all(gr_un(5,3,1))/d10",
        ["invariants", "run", "--spec", str(spec_path), "--filter", "all",
         "--max-degree", "10", "--format", "json"], workdir / "out.json"))
    tasks.append(_cli_task(
        "wide_shallow", "rootsys_algebra(E8,3,1)/d3",
        ["rootsys", "algebra", "--type", "E", "--rank", "8", "--p", "3",
         "--r", "1", "--max-degree", "3", "--format", "json"],
        workdir / "out.json"))
    rng = random.Random(seed)
    for i in range(NILPOTENT_SPECS):
        alg = invalg.random_algebra_spec(rng)
        path = workdir / f"random{i}.json"
        path.write_text(canonical_json(alg.to_json_dict()))
        tasks.append(_cli_task(
            "random_nilpotent", f"invariants_nilpotent(random{i})",
            ["invariants", "run", "--spec", str(path), "--filter",
             "invariant_nilpotent", "--max-degree", str(NILPOTENT_DEGREE),
             "--format", "json"], workdir / "out.json", _nilpotent_check(alg),
            seeded=True))
    grid_path = workdir / "grid.json"
    grid_path.write_text(json.dumps({"criteria": GRID_CRITERIA}))
    tasks.append(_cli_task(
        "verify_grid", "verify_all(grid)",
        ["verify", "all", "--grid", str(grid_path), "--format", "json"],
        workdir / "out.json"))
    return tasks


def robustness_probe(workdir) -> str:
    """Run the deep-generator-list command once; returns how it ended."""
    try:
        code = cli.main(PROBE_ARGV + ["--out", str(Path(workdir) / "probe.json")])
    except Exception as exc:   # the outcome is the measurement
        return type(exc).__name__
    return f"exit {code}"


BUILDERS = {
    "oracle_crosscheck": _oracle_crosscheck,
    "matrix_checks": _matrix_checks,
    "detection_sweep": _detection_sweep,
    "series_cli": _series_cli,
}


def build(workload: str, seed: int, workdir) -> list[Task]:
    """The workload's inputs: seeded specs, spec files and task closures."""
    return BUILDERS[workload](seed, workdir)
