"""Command-line front end.

Every library operation is reachable through exactly one subcommand; each
run produces a single report in table, JSON, or CSV form.  Reports are pure
functions of the flags (plus --seed where sampling is involved), and JSON
output is canonical — sorted keys, compact separators — so identical runs
emit identical bytes.

Exit codes: 0 computed and all embedded expectation checks passed; 1 a
verification check failed or a discrepancy flag is set; 2 invalid input;
3 a resource guard tripped; 4 an internal error, reported on stderr.
"""

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .errors import InputError, ResourceGuardError
from .ffq import Fq, prime_power
from .gl2 import gl2_algebra, gl2_landmarks, sl2_algebra, sl2_landmarks
from .grgln import (
    build_gr_un,
    chern_coefficient,
    commuting_regular_subgroup,
    essential_kernel,
    exponent_check,
    hook_detection,
    max_rank,
    theorem_borel_char2,
    theorem_lowest_gl,
)
from .invalg import (
    FILTERS,
    AlgebraSpec,
    canonical_json,
    dimension_series,
    invariant_monomials,
    invariant_monomials_oracle,
    quillen_verify,
)
from .rootsys import (
    bad_primes,
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
from .verifygrid import run_grid


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def _envelope(op, params, results, ok):
    env = {
        "tool_version": __version__,
        "op": op,
        "params": params,
        "results": results,
        "pass": bool(ok),
    }
    if isinstance(results, dict) and "ingredients" in results:
        env["ingredients"] = results["ingredients"]
    return env


def _fraction_json(x: Fraction) -> dict:
    return {"numerator": x.numerator, "denominator": x.denominator,
            "str": f"{x.numerator}/{x.denominator}" if x.denominator != 1
            else str(x.numerator)}


def _render_table(env) -> str:
    rows = [("op", env["op"]), ("version", env["tool_version"])]
    for k, v in env["params"].items():
        rows.append((f"params.{k}", v))
    results = env["results"]
    series = None
    if env["op"] == "verify_all":
        lines = [f"{k}  {v}" for k, v in rows]
        for crit in results["criteria"]:
            word = "PASS" if crit["pass"] else "FAIL"
            lines.append(f"{crit['criterion']}  {word}  {crit['label']}")
        lines.append(f"pass  {env['pass']}")
        return "\n".join(lines) + "\n"
    if isinstance(results, dict):
        for k, v in results.items():
            if k == "series" and isinstance(v, list):
                series = v
                continue
            if k in ("op", "params"):
                continue  # already shown from the envelope
            rows.append((k, v))
    else:
        rows.append(("results", results))
    rows.append(("pass", env["pass"]))
    width = max(len(k) for k, _ in rows)
    lines = []
    for k, v in rows:
        text = canonical_json(v) if isinstance(v, (dict, list)) else str(v)
        lines.append(f"{k.ljust(width)}  {text}")
    if series is not None:
        lines.append("")
        lines.append("degree  dim")
        for d, v in enumerate(series):
            lines.append(f"{d:>6}  {v}")
    return "\n".join(lines) + "\n"


def emit_report(env, fmt: str, out_path=None) -> None:
    if fmt == "json":
        text = canonical_json(env) + "\n"
    elif fmt == "csv":
        series = env["results"].get("series") \
            if isinstance(env["results"], dict) else None
        if series is None:
            raise InputError("csv output needs a report with a series")
        text = "\n".join(["degree,dim"]
                         + [f"{d},{v}" for d, v in enumerate(series)]) + "\n"
    elif fmt == "table":
        text = _render_table(env)
    else:
        raise InputError(f"unknown format {fmt!r}")
    if out_path:
        try:
            Path(out_path).write_text(text)
        except OSError as exc:
            print(f"error: cannot write {out_path}: {exc}", file=sys.stderr)
            raise SystemExit(2)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# shared argument helpers
# ---------------------------------------------------------------------------

def _add_output_flags(sp):
    sp.add_argument("--format", choices=("table", "json", "csv"),
                    default="table", help="output format (default table)")
    sp.add_argument("--out", default=None, metavar="PATH",
                    help="write the report to a file instead of stdout")


def _read_json(path, what):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {what} file {path!r}: {exc}") from exc


def _root_system(args):
    return build_root_system([(args.type, args.rank)])


def _lattice(args, rs, side):
    builder = cocharacter_lattice if side == "cocharacter" \
        else character_lattice
    kind = args.lattice
    if kind in ("adjoint", "sc"):
        return builder(rs, kind)
    blob = _read_json(kind, "lattice")
    if not isinstance(blob, dict) or "basis" not in blob:
        raise InputError("lattice file must be a JSON object with a 'basis'")
    return builder(rs, "custom", basis=blob["basis"])


def _load_algebra(path):
    return AlgebraSpec.from_json_dict(_read_json(path, "spec"))


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (op, params, results, ok)
# ---------------------------------------------------------------------------

def _run_field_info(args):
    field = Fq(args.p, args.r)
    results = {
        "q": field.q,
        "modulus": list(field.modulus),
        "multiplicative_generator": field.generator,
    }
    return "field_info", {"p": args.p, "r": args.r}, results, True


def _run_invariants(args):
    if args.oracle and args.filter != "invariant":
        raise InputError("--oracle applies to the 'invariant' filter")
    alg = _load_algebra(args.spec)
    stats = {}
    series = dimension_series(alg, args.max_degree, args.filter, stats=stats)
    results = {"spec_hash": alg.spec_hash(), "filter": args.filter,
               "max_degree": args.max_degree, "series": series}
    if args.stats:
        results["stats"] = stats
    ok = True
    if args.oracle:
        mismatch = [d for d in range(args.max_degree + 1)
                    if invariant_monomials(alg, d)
                    != invariant_monomials_oracle(alg, d)]
        results["oracle_mismatch_degrees"] = mismatch
        results["oracle_match"] = not mismatch
        ok = not mismatch
    params = {"spec": args.spec, "max_degree": args.max_degree,
              "filter": args.filter, "oracle": bool(args.oracle)}
    return "invariants_run", params, results, ok


def _run_check_quillen(args):
    rep = quillen_verify(args.p, args.r)
    return "check_quillen", {"p": args.p, "r": args.r}, rep, rep["pass"]


def _run_check_exponent(args):
    mode = "all" if args.samples is None else "sample"
    rep = exponent_check(args.n, args.p, args.r, mode,
                         args.samples, args.seed)
    return "check_exponent", rep["params"], rep, rep["pass"]


def _run_check_regular(args):
    rep = commuting_regular_subgroup(args.n, args.p, args.r)
    return "check_regular", rep["params"], rep, rep["pass"]


def _run_landmarks(args, which):
    rep = gl2_landmarks(args.p, args.r) if which == "gl2" \
        else sl2_landmarks(args.p, args.r)
    return f"{which}_landmarks", {"p": args.p, "r": args.r}, rep, rep["match"]


def _run_rank_one_series(args, which):
    alg = gl2_algebra(args.p, args.r) if which == "gl2" \
        else sl2_algebra(args.p, args.r)
    series = dimension_series(alg, args.max_degree, args.filter)
    results = {"spec_hash": alg.spec_hash(), "filter": args.filter,
               "series": series}
    params = {"p": args.p, "r": args.r, "max_degree": args.max_degree,
              "filter": args.filter}
    return f"{which}_series", params, results, True


def _run_rootsys_info(args):
    rs = _root_system(args)
    long_count = sum(1 for root in rs.positive_roots
                     if root.length_class == "long")
    results = {
        "simple_count": rs.simple_count,
        "positive_roots": len(rs.positive_roots),
        "coxeter_numbers": coxeter_number(rs),
        "coweight_one_witness": coweight_one_witness(rs),
        "bad_primes": bad_primes(rs),
        "long_roots": long_count,
        "short_roots": len(rs.positive_roots) - long_count,
        "highest_root": list(max(rs.positive_roots,
                                 key=lambda root: root.height).coords),
    }
    params = {"type": args.type.upper(), "rank": args.rank}
    return "rootsys_info", params, results, True


def _run_rootsys_bound(args):
    rs = _root_system(args)
    lat = _lattice(args, rs, "cocharacter")
    bound = char2_vanishing_bound(rs, lat, args.r)
    results = {
        "lattice": lat.kind,
        "cofundamental_exponent": cofundamental_exponent(rs, lat),
        "r": args.r,
        "bound": _fraction_json(bound),
    }
    params = {"type": args.type.upper(), "rank": args.rank, "r": args.r,
              "lattice": args.lattice}
    return "rootsys_bound", params, results, True


def _run_rootsys_divisibility(args):
    rs = _root_system(args)
    lat = _lattice(args, rs, "character")
    roots = []
    for root in rs.positive_roots:
        roots.append({"root": list(root.coords),
                      "length": root.length_class,
                      "divisible": root_divisibility(rs, lat, root, args.n)})
    results = {"lattice": lat.kind, "divisor": args.n, "roots": roots,
               "count_divisible": sum(r["divisible"] for r in roots)}
    params = {"type": args.type.upper(), "rank": args.rank, "n": args.n,
              "lattice": args.lattice}
    return "rootsys_divisibility", params, results, True


def _run_rootsys_action_index(args):
    rs = _root_system(args)
    lat = _lattice(args, rs, "character")
    q = prime_power(args.p, args.r)
    roots = []
    for root in rs.positive_roots:
        roots.append({"root": list(root.coords),
                      "length": root.length_class,
                      "index": root_action_index(rs, lat, root, q)})
    results = {"lattice": lat.kind, "q": q, "roots": roots,
               "distinct_indices": sorted({r["index"] for r in roots})}
    params = {"type": args.type.upper(), "rank": args.rank, "p": args.p,
              "r": args.r, "lattice": args.lattice}
    return "rootsys_action_index", params, results, True


def _run_rootsys_algebra(args):
    rs = _root_system(args)
    lat = _lattice(args, rs, "cocharacter")
    alg = lie_gr_algebra(rs, lat, args.p, args.r)
    stats = {}
    series = dimension_series(alg, args.max_degree, args.filter, stats=stats)
    results = {"lattice": lat.kind, "spec_hash": alg.spec_hash(),
               "generator_count": len(alg.generators),
               "filter": args.filter, "series": series}
    if args.stats:
        results["stats"] = stats
    params = {"type": args.type.upper(), "rank": args.rank, "p": args.p,
              "r": args.r, "max_degree": args.max_degree,
              "filter": args.filter, "lattice": args.lattice}
    return "rootsys_algebra", params, results, True


def _run_grun_build(args):
    spec = build_gr_un(args.n, args.p, args.r)
    results = {
        "spec_hash": spec.algebra.spec_hash(),
        "generator_count": len(spec.algebra.generators),
        "moduli": list(spec.algebra.moduli),
        "max_elementary_rank": max_rank(args.n, args.r),
        "chern_coefficient": chern_coefficient(args.n, args.p),
    }
    params = {"n": args.n, "p": args.p, "r": args.r}
    return "grun_build", params, results, True


def _run_grun_detect(args):
    spec = build_gr_un(args.n, args.p, args.r)
    rep = hook_detection(spec, degree=args.degree)
    params = {"n": args.n, "p": args.p, "r": args.r, "degree": rep["degree"]}
    return "grun_detect", params, rep, rep["pass"]


def _run_grun_essential(args):
    rep = essential_kernel(args.n, args.p)
    params = {"n": args.n, "p": args.p}
    return "grun_essential", params, rep, not rep["discrepancy"]


def _run_theorem_lowest_gl(args):
    rep = theorem_lowest_gl(args.n, args.p, args.r)
    params = {"n": args.n, "p": args.p, "r": args.r}
    return "theorem_lowest_gl", params, rep, not rep["discrepancy"]


def _run_theorem_borel2(args):
    rep = theorem_borel_char2(args.n, args.r)
    params = {"n": args.n, "r": args.r}
    return "theorem_borel2", params, rep, not rep["discrepancy"]


def _run_verify_all(args):
    names = None
    if args.grid:
        blob = _read_json(args.grid, "grid")
        names = blob.get("criteria") if isinstance(blob, dict) else blob
        if not isinstance(names, list):
            raise InputError("grid file must hold a list of criterion names")
    def report_time(name, seconds):
        print(f"{name} {seconds:.3f}", file=sys.stderr)
    rep = run_grid(names, report_time if args.timings else None)
    params = {"criteria": names if names is not None else "all"}
    results = {"criteria": rep["criteria"]}
    return "verify_all", params, results, rep["pass"]


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="liecoh",
        description="Torus-invariant monomial bases, root-system "
                    "combinatorics, and unipotent matrix checks.")
    parser.add_argument("--version", action="version", version=__version__)
    top = parser.add_subparsers(dest="command", required=True)

    def leaf(group, name, handler, **kwargs):
        sp = group.add_parser(name, **kwargs)
        sp.set_defaults(handler=handler)
        _add_output_flags(sp)
        return sp

    def flag_p(sp):
        sp.add_argument("--p", type=int, required=True,
                        help="field characteristic (prime)")

    def flag_r(sp):
        sp.add_argument("--r", type=int, required=True,
                        help="field degree, q = p^r")

    def flag_n(sp, help="matrix size n"):
        sp.add_argument("--n", type=int, required=True, help=help)

    def flag_filter(sp):
        sp.add_argument("--filter", choices=FILTERS, default="invariant",
                        help="which monomials to count (default invariant)")

    def flag_stats(sp):
        sp.add_argument("--stats", action="store_true",
                        help="attach the series walk's work counts")

    def flag_lattice(sp):
        sp.add_argument("--lattice", default="adjoint",
                        help="adjoint | sc | path to a JSON basis file")

    def flag_rootsys(sp):
        sp.add_argument("--type", required=True,
                        help="component type: A B C D E F G")
        sp.add_argument("--rank", type=int, required=True,
                        help="component rank")

    field = top.add_parser("field", help="finite field facts") \
        .add_subparsers(dest="sub", required=True)
    sp = leaf(field, "info", _run_field_info,
              help="modulus polynomial and multiplicative generator")
    flag_p(sp), flag_r(sp)

    inv = top.add_parser("invariants", help="invariant dimension series") \
        .add_subparsers(dest="sub", required=True)
    sp = leaf(inv, "run", _run_invariants,
              help="dimension series of an algebra spec file")
    sp.add_argument("--spec", required=True, metavar="FILE",
                    help="JSON algebra spec")
    sp.add_argument("--max-degree", type=int, required=True)
    flag_filter(sp)
    sp.add_argument("--oracle", action="store_true",
                    help="cross-check against the eigenvalue oracle")
    flag_stats(sp)

    chk = top.add_parser("check", help="elementary verification checks") \
        .add_subparsers(dest="sub", required=True)
    sp = leaf(chk, "quillen", _run_check_quillen,
              help="digit-sum divisibility bound, exhaustive")
    flag_p(sp), flag_r(sp)
    sp = leaf(chk, "exponent", _run_check_exponent,
              help="does every unitriangular matrix have order dividing p")
    flag_n(sp), flag_p(sp), flag_r(sp)
    sp.add_argument("--samples", type=int, default=None,
                    help="sample this many matrices instead of enumerating")
    sp.add_argument("--seed", type=int, default=0)
    sp = leaf(chk, "regular", _run_check_regular,
              help="commuting subgroup of regular unipotent elements")
    flag_n(sp), flag_p(sp), flag_r(sp)

    gl2 = top.add_parser("gl2", help="rank-one landmarks, full unit group") \
        .add_subparsers(dest="sub", required=True)
    sp = leaf(gl2, "landmarks", lambda a: _run_landmarks(a, "gl2"),
              help="first landmark degrees and witnesses")
    flag_p(sp), flag_r(sp)
    sp = leaf(gl2, "series", lambda a: _run_rank_one_series(a, "gl2"),
              help="invariant dimension series")
    flag_p(sp), flag_r(sp)
    sp.add_argument("--max-degree", type=int, required=True)
    flag_filter(sp)

    sl2 = top.add_parser("sl2", help="rank-one landmarks, squares of units") \
        .add_subparsers(dest="sub", required=True)
    sp = leaf(sl2, "landmarks", lambda a: _run_landmarks(a, "sl2"),
              help="first landmark degree and witness")
    flag_p(sp), flag_r(sp)
    sp = leaf(sl2, "series", lambda a: _run_rank_one_series(a, "sl2"),
              help="invariant dimension series")
    flag_p(sp), flag_r(sp)
    sp.add_argument("--max-degree", type=int, required=True)
    flag_filter(sp)

    rsys = top.add_parser("rootsys", help="root-system combinatorics") \
        .add_subparsers(dest="sub", required=True)
    sp = leaf(rsys, "info", _run_rootsys_info,
              help="roots, Coxeter number, witnesses, bad primes")
    flag_rootsys(sp)
    sp = leaf(rsys, "bound", _run_rootsys_bound,
              help="characteristic-2 vanishing bound r/gcd(e, 2^r - 1)")
    flag_rootsys(sp), flag_r(sp), flag_lattice(sp)
    sp = leaf(rsys, "divisibility", _run_rootsys_divisibility,
              help="divisibility of each root in a character lattice")
    flag_rootsys(sp), flag_lattice(sp)
    sp.add_argument("--n", type=int, required=True, help="divisor")
    sp = leaf(rsys, "action-index", _run_rootsys_action_index,
              help="index of each root character on the F_q torus points")
    flag_rootsys(sp), flag_p(sp), flag_r(sp), flag_lattice(sp)
    sp = leaf(rsys, "algebra", _run_rootsys_algebra,
              help="invariant series of the root-graded weight algebra")
    flag_rootsys(sp), flag_p(sp), flag_r(sp), flag_lattice(sp)
    sp.add_argument("--max-degree", type=int, required=True)
    flag_filter(sp), flag_stats(sp)

    grun = top.add_parser("grun", help="graded unitriangular computations") \
        .add_subparsers(dest="sub", required=True)
    sp = leaf(grun, "build", _run_grun_build,
              help="build the weight model and report its shape")
    flag_n(sp), flag_p(sp), flag_r(sp)
    sp = leaf(grun, "detect", _run_grun_detect,
              help="vanishing series and detection kernel")
    flag_n(sp), flag_p(sp), flag_r(sp)
    sp.add_argument("--degree", type=int, default=None,
                    help="override the default degree r(2p-3)")
    sp = leaf(grun, "essential", _run_grun_essential,
              help="hook invariants killed by every edge subgroup (r = 1)")
    flag_n(sp), flag_p(sp)

    thm = top.add_parser("theorem", help="theorem reporters") \
        .add_subparsers(dest="sub", required=True)
    sp = leaf(thm, "lowest-gl", _run_theorem_lowest_gl,
              help="first cohomology landmark for the general linear group")
    flag_n(sp), flag_p(sp), flag_r(sp)
    sp = leaf(thm, "borel2", _run_theorem_borel2,
              help="first cohomology landmark for the Borel subgroup, p = 2")
    flag_n(sp), flag_r(sp)

    ver = top.add_parser("verify", help="acceptance verification grid") \
        .add_subparsers(dest="sub", required=True)
    sp = leaf(ver, "all", _run_verify_all,
              help="run the verification grid (optionally a subset)")
    sp.add_argument("--grid", default=None, metavar="FILE",
                    help="JSON file naming the criteria to run")
    sp.add_argument("--timings", action="store_true",
                    help="print each criterion's seconds on stderr")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        op, params, results, ok = args.handler(args)
        env = _envelope(op, params, results, ok)
        emit_report(env, args.format, args.out)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceGuardError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:    # a bug: report it, never as "check failed"
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
