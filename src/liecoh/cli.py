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
import functools
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

def _envelope(args, results, ok, params=None):
    """One command's report: op is its words joined by "_", and params its
    declared flags other than output flags, unless the handler gave its own."""
    if params is None:
        params = {dest: getattr(args, dest) for dest in args.param_dests}
    env = {
        "tool_version": __version__,
        "op": f"{args.command}_{args.sub}".replace("-", "_"),
        "params": params,
        "results": results,
        "pass": bool(ok),
    }
    if "ingredients" in results:
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
    for k, v in results.items():
        if k == "series" and isinstance(v, list):
            series = v
            continue
        if k in ("op", "params"):
            continue  # already shown from the envelope
        rows.append((k, v))
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
        series = env["results"].get("series")
        if series is None:
            raise InputError("csv output needs a report with a series")
        text = "\n".join(["degree,dim"]
                         + [f"{d},{v}" for d, v in enumerate(series)]) + "\n"
    else:
        text = _render_table(env)
    if out_path:
        try:
            Path(out_path).write_text(text)
        except OSError as exc:
            raise InputError(f"cannot write {out_path}: {exc}") from exc
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# shared argument helpers
# ---------------------------------------------------------------------------

def _read_json(path, what):
    # ValueError covers bytes that are not UTF-8, text that is not JSON and
    # integers over Python's digit limit; RecursionError, deep nesting
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"cannot read {what} file {path!r}: {exc}") from exc


def _root_system(args):
    return build_root_system([(args.type, args.rank)])


def _lattice(args, rs, builder):
    kind = args.lattice
    if kind in ("adjoint", "sc"):
        return builder(rs, kind)
    blob = _read_json(kind, "lattice")
    if not isinstance(blob, dict) or "basis" not in blob:
        raise InputError("lattice file must be a JSON object with a 'basis'")
    return builder(rs, "custom", basis=blob["basis"])


def _roots_with(rs, key, value):
    """One entry per positive root, carrying `value(root)` under `key`."""
    return [{"root": list(root.coords), "length": root.length_class,
             key: value(root)} for root in rs.positive_roots]


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (results, ok) or (results, ok, params)
# ---------------------------------------------------------------------------

def _run_field_info(args):
    field = Fq(args.p, args.r)
    results = {
        "q": field.q,
        "modulus": list(field.modulus),
        "multiplicative_generator": field.generator,
    }
    return results, True


def _run_invariants(args):
    if args.oracle and args.filter != "invariant":
        raise InputError("--oracle applies to the 'invariant' filter")
    alg = AlgebraSpec.from_json_dict(_read_json(args.spec, "spec"))
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
    return results, ok


def _run_check_quillen(args):
    rep = quillen_verify(args.p, args.r)
    return rep, rep["pass"]


def _run_check_exponent(args):
    mode = "all" if args.samples is None else "sample"
    rep = exponent_check(args.n, args.p, args.r, mode, args.samples, args.seed)
    return rep, rep["pass"], rep["params"]


def _run_check_regular(args):
    rep = commuting_regular_subgroup(args.n, args.p, args.r)
    return rep, rep["pass"]


def _run_landmarks(args):
    landmarks = gl2_landmarks if args.command == "gl2" else sl2_landmarks
    rep = landmarks(args.p, args.r)
    return rep, rep["match"]


def _run_rank_one_series(args):
    algebra = gl2_algebra if args.command == "gl2" else sl2_algebra
    alg = algebra(args.p, args.r)
    series = dimension_series(alg, args.max_degree, args.filter)
    results = {"spec_hash": alg.spec_hash(), "filter": args.filter,
               "series": series}
    return results, True


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
    return results, True


def _run_rootsys_bound(args):
    rs = _root_system(args)
    lat = _lattice(args, rs, cocharacter_lattice)
    bound = char2_vanishing_bound(rs, lat, args.r)
    results = {
        "lattice": lat.kind,
        "cofundamental_exponent": cofundamental_exponent(rs, lat),
        "r": args.r,
        "bound": _fraction_json(bound),
    }
    return results, True


def _run_rootsys_divisibility(args):
    rs = _root_system(args)
    lat = _lattice(args, rs, character_lattice)
    roots = _roots_with(rs, "divisible",
                        lambda root: root_divisibility(rs, lat, root, args.n))
    results = {"lattice": lat.kind, "divisor": args.n, "roots": roots,
               "count_divisible": sum(r["divisible"] for r in roots)}
    return results, True


def _run_rootsys_action_index(args):
    rs = _root_system(args)
    lat = _lattice(args, rs, character_lattice)
    q = prime_power(args.p, args.r)
    roots = _roots_with(rs, "index",
                        lambda root: root_action_index(rs, lat, root, q))
    results = {"lattice": lat.kind, "q": q, "roots": roots,
               "distinct_indices": sorted({r["index"] for r in roots})}
    return results, True


def _run_rootsys_algebra(args):
    rs = _root_system(args)
    lat = _lattice(args, rs, cocharacter_lattice)
    alg = lie_gr_algebra(rs, lat, args.p, args.r)
    stats = {}
    series = dimension_series(alg, args.max_degree, args.filter, stats=stats)
    results = {"lattice": lat.kind, "spec_hash": alg.spec_hash(),
               "generator_count": len(alg.generators),
               "filter": args.filter, "series": series}
    if args.stats:
        results["stats"] = stats
    return results, True


def _run_grun_build(args):
    spec = build_gr_un(args.n, args.p, args.r)
    results = {
        "spec_hash": spec.algebra.spec_hash(),
        "generator_count": len(spec.algebra.generators),
        "moduli": list(spec.algebra.moduli),
        "max_elementary_rank": max_rank(args.n, args.r),
        "chern_coefficient": chern_coefficient(args.n, args.p),
    }
    return results, True


def _run_grun_detect(args):
    spec = build_gr_un(args.n, args.p, args.r)
    rep = hook_detection(spec, degree=args.degree)
    return rep, rep["pass"], {**rep["params"], "degree": rep["degree"]}


def _run_grun_essential(args):
    rep = essential_kernel(args.n, args.p)
    return rep, not rep["discrepancy"]


def _run_theorem_lowest_gl(args):
    rep = theorem_lowest_gl(args.n, args.p, args.r)
    return rep, not rep["discrepancy"]


def _run_theorem_borel2(args):
    rep = theorem_borel_char2(args.n, args.r)
    return rep, not rep["discrepancy"]


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
    if args.timings:
        for fname, (computed, reused) in rep["shared"].items():
            print(f"shared {fname} computed {computed} reused {reused}",
                  file=sys.stderr)
    params = {"criteria": names if names is not None else "all"}
    return {"criteria": rep["criteria"]}, rep["pass"], params


# ---------------------------------------------------------------------------
# command and flag tables
# ---------------------------------------------------------------------------

# each flag's argparse keywords
FLAGS = {
    "--format": dict(choices=("table", "json", "csv"), default="table",
                     help="output format (default table)"),
    "--out": dict(metavar="PATH",
                  help="write the report to a file instead of stdout"),
    "--p": dict(type=int, required=True, help="field characteristic (prime)"),
    "--r": dict(type=int, required=True, help="field degree, q = p^r"),
    "--n": dict(type=int, required=True, help="matrix size n"),
    "--type": dict(type=str.upper, required=True,
                   help="component type: A B C D E F G"),
    "--rank": dict(type=int, required=True, help="component rank"),
    "--lattice": dict(default="adjoint",
                      help="adjoint | sc | path to a JSON basis file"),
    "--spec": dict(required=True, metavar="FILE", help="JSON algebra spec"),
    "--max-degree": dict(type=int, required=True),
    "--filter": dict(choices=FILTERS, default="invariant",
                     help="which monomials to count (default invariant)"),
    "--oracle": dict(action="store_true",
                     help="cross-check against the eigenvalue oracle"),
    "--stats": dict(action="store_true",
                    help="attach the series count's work counters"),
    "--samples": dict(type=int,
                      help="sample this many matrices instead of enumerating"),
    "--seed": dict(type=int, default=0),
    "--degree": dict(type=int, help="override the default degree r(2p-3)"),
    "--grid": dict(metavar="FILE",
                   help="JSON file naming the criteria to run"),
    "--timings": dict(action="store_true",
                      help="print each criterion's seconds and the shared "
                      "results' reuse counts on stderr"),
}

# flags that shape the output, not the computation: never in a report's params
OUTPUT_FLAGS = ("--format", "--out", "--stats", "--grid", "--timings")

# group -> (help, {command -> (handler, flags in params order, help)}); a
# flag given as (flag, help) replaces that flag's help on one command
COMMANDS = {
    "field": ("finite field facts", {
        "info": (_run_field_info, ("--p", "--r"),
                 "modulus polynomial and multiplicative generator"),
    }),
    "invariants": ("invariant dimension series", {
        "run": (_run_invariants,
                ("--spec", "--max-degree", "--filter", "--oracle", "--stats"),
                "dimension series of an algebra spec file"),
    }),
    "check": ("elementary verification checks", {
        "quillen": (_run_check_quillen, ("--p", "--r"),
                    "digit-sum divisibility bound, exhaustive"),
        "exponent": (_run_check_exponent,
                     ("--n", "--p", "--r", "--samples", "--seed"),
                     "does every unitriangular matrix have order dividing p"),
        "regular": (_run_check_regular, ("--n", "--p", "--r"),
                    "commuting subgroup of regular unipotent elements"),
    }),
    "gl2": ("rank-one landmarks, full unit group", {
        "landmarks": (_run_landmarks, ("--p", "--r"),
                      "first landmark degrees and witnesses"),
        "series": (_run_rank_one_series,
                   ("--p", "--r", "--max-degree", "--filter"),
                   "invariant dimension series"),
    }),
    "sl2": ("rank-one landmarks, squares of units", {
        "landmarks": (_run_landmarks, ("--p", "--r"),
                      "first landmark degree and witness"),
        "series": (_run_rank_one_series,
                   ("--p", "--r", "--max-degree", "--filter"),
                   "invariant dimension series"),
    }),
    "rootsys": ("root-system combinatorics", {
        "info": (_run_rootsys_info, ("--type", "--rank"),
                 "roots, Coxeter number, witnesses, bad primes"),
        "bound": (_run_rootsys_bound, ("--type", "--rank", "--r", "--lattice"),
                  "characteristic-2 vanishing bound r/gcd(e, 2^r - 1)"),
        "divisibility": (_run_rootsys_divisibility,
                         ("--type", "--rank", ("--n", "divisor"), "--lattice"),
                         "divisibility of each root in a character lattice"),
        "action-index": (_run_rootsys_action_index,
                         ("--type", "--rank", "--p", "--r", "--lattice"),
                         "index of each root character on the F_q torus "
                         "points"),
        "algebra": (_run_rootsys_algebra,
                    ("--type", "--rank", "--p", "--r", "--max-degree",
                     "--filter", "--lattice", "--stats"),
                    "invariant series of the root-graded weight algebra"),
    }),
    "grun": ("graded unitriangular computations", {
        "build": (_run_grun_build, ("--n", "--p", "--r"),
                  "build the weight model and report its shape"),
        "detect": (_run_grun_detect, ("--n", "--p", "--r", "--degree"),
                   "vanishing series and detection kernel"),
        "essential": (_run_grun_essential, ("--n", "--p"),
                      "hook invariants killed by every edge subgroup (r = 1)"),
    }),
    "theorem": ("theorem reporters", {
        "lowest-gl": (_run_theorem_lowest_gl, ("--n", "--p", "--r"),
                      "first cohomology landmark for the general linear "
                      "group"),
        "borel2": (_run_theorem_borel2, ("--n", "--r"),
                   "first cohomology landmark for the Borel subgroup, p = 2"),
    }),
    "verify": ("acceptance verification grid", {
        "all": (_run_verify_all, ("--grid", "--timings"),
                "run the verification grid (optionally a subset)"),
    }),
}


@functools.cache     # built on first use, once per process, never at import
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="liecoh",
        description="Torus-invariant monomial bases, root-system "
                    "combinatorics, and unipotent matrix checks.")
    parser.add_argument("--version", action="version", version=__version__)
    top = parser.add_subparsers(dest="command", required=True)
    for group, (group_help, commands) in COMMANDS.items():
        sub = top.add_parser(group, help=group_help) \
            .add_subparsers(dest="sub", required=True)
        for name, (handler, flags, command_help) in commands.items():
            sp = sub.add_parser(name, help=command_help)
            dests = []
            for flag in ("--format", "--out") + flags:
                flag, kwargs = (flag, FLAGS[flag]) if isinstance(flag, str) \
                    else (flag[0], {**FLAGS[flag[0]], "help": flag[1]})
                action = sp.add_argument(flag, **kwargs)
                if flag not in OUTPUT_FLAGS:
                    dests.append(action.dest)
            sp.set_defaults(handler=handler, param_dests=tuple(dests))
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        env = _envelope(args, *args.handler(args))
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
    return 0 if env["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
