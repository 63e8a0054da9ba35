"""End-to-end command-line tests: exit codes, JSON/CSV/table output,
determinism, and error mapping."""

import hashlib
import json
import shlex
import time
from pathlib import Path

import pytest

from liecoh import cli, invalg
from liecoh.cli import main
from liecoh.gl2 import gl2_algebra
from liecoh.grgln import build_gr_un, subgroup_support
from liecoh.invalg import canonical_json


def run_json(capsys, argv):
    code = main(argv + ["--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_field_info(capsys):
    code, env = run_json(capsys, ["field", "info", "--p", "3", "--r", "2"])
    assert code == 0
    assert env["op"] == "field_info"
    assert env["results"]["q"] == 9
    assert len(env["results"]["modulus"]) == 3
    assert env["pass"] is True


def test_invariants_run(tmp_path, capsys):
    spec = tmp_path / "alg.json"
    spec.write_text(canonical_json(gl2_algebra(3, 1).to_json_dict()))
    code, env = run_json(capsys, ["invariants", "run", "--spec", str(spec),
                                  "--max-degree", "4"])
    assert code == 0
    assert env["results"]["series"] == [1, 0, 0, 1, 1]

    code, env = run_json(capsys, ["invariants", "run", "--spec", str(spec),
                                  "--max-degree", "4", "--oracle"])
    assert code == 0
    assert env["results"]["oracle_match"] is True
    assert env["results"]["oracle_mismatch_degrees"] == []


def test_invariants_oracle_reports_the_degrees_it_disagrees_on(
        tmp_path, capsys, monkeypatch):
    spec = tmp_path / "alg.json"
    spec.write_text(canonical_json(gl2_algebra(5, 1).to_json_dict()))
    argv = ["invariants", "run", "--spec", str(spec), "--max-degree", "9",
            "--oracle"]
    code, env = run_json(capsys, argv)
    assert code == 0
    assert env["results"]["oracle_mismatch_degrees"] == []
    # series 1 0 0 0 0 0 0 1 1 0: an oracle that finds nothing disagrees
    # wherever the series is nonzero
    monkeypatch.setattr(cli, "invariant_monomials_oracle",
                        lambda alg, d: [])
    code, env = run_json(capsys, argv)
    assert code == 1
    assert env["results"]["oracle_mismatch_degrees"] == [0, 7, 8]
    assert env["results"]["oracle_match"] is False


def test_invariants_run_stats(tmp_path, capsys):
    spec = tmp_path / "hook.json"
    u6 = build_gr_un(6, 7, 1)
    hook = subgroup_support(u6, "hook", 1, 6)
    spec.write_text(canonical_json(u6.algebra.restrict(hook.ids).to_json_dict()))
    argv = ["invariants", "run", "--spec", str(spec), "--max-degree", "11",
            "--format", "json"]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    assert main(argv + ["--stats"]) == 0
    env = json.loads(capsys.readouterr().out)
    # the counts ride in a block of their own; without --stats the report
    # is the same bytes as before
    stats = env["results"].pop("stats")
    assert canonical_json(env) + "\n" == plain
    assert env["results"]["series"] == [1] + [0] * 10 + [24]
    # the count by state: at most 21 (state, degree) entries at once
    assert stats == {"peak": 21, "live": [1, 2, 3, 4, 4, 4, 3, 2, 1, 1, 1],
                     "cap": 10 ** 7}
    # --filter all reads the Hilbert series and walks nothing; its plain
    # report too is unchanged by --stats
    assert main(argv + ["--filter", "all"]) == 0
    plain = capsys.readouterr().out
    assert main(argv + ["--filter", "all", "--stats"]) == 0
    env = json.loads(capsys.readouterr().out)
    stats = env["results"].pop("stats")
    assert canonical_json(env) + "\n" == plain
    assert stats == {"nodes": 0, "pruned": 0,
                     "leaves": env["results"]["series"], "cap": 10 ** 7}


def test_series_live_entry_cap_exits_three(tmp_path, capsys, monkeypatch):
    # E8 at p = 3 to degree 3 holds at most 239 live entries, the (1,6)
    # hook of U_6 at p = 7 to degree 11 at most 21
    spec = tmp_path / "hook.json"
    u6 = build_gr_un(6, 7, 1)
    hook = subgroup_support(u6, "hook", 1, 6)
    spec.write_text(canonical_json(u6.algebra.restrict(hook.ids).to_json_dict()))
    hook_run = ["invariants", "run", "--spec", str(spec), "--max-degree", "11"]
    e8 = ["rootsys", "algebra", "--type", "E", "--rank", "8", "--p", "3",
          "--r", "1", "--max-degree", "3"]
    monkeypatch.setattr(invalg, "SERIES_CAP", 239)
    for argv in (e8, hook_run, hook_run + ["--filter", "invariant_nilpotent"]):
        assert main(argv) == 0, argv
        capsys.readouterr()
    monkeypatch.setattr(invalg, "SERIES_CAP", 20)
    for argv in (e8, hook_run, hook_run + ["--filter", "invariant_nilpotent"]):
        assert main(argv) == 3, argv
        err = capsys.readouterr().err
        assert err.startswith("resource guard: ")
        assert "live (state, degree) entries at generator" in err
        assert "in walk order, more than the cap 20" in err
    # the Hilbert series keeps its monomial cap, and computes here
    assert main(hook_run + ["--filter", "all"]) == 0


def test_invariants_oracle_flags_checked_before_computing(tmp_path, capsys):
    spec = tmp_path / "u5.json"
    spec.write_text(canonical_json(build_gr_un(5, 3, 1).algebra.to_json_dict()))
    # degree 20 alone has 10,015,005 monomials: the series would trip the
    # cap (exit 3) before the flags are rejected
    for flt, top in (("all", "40"), ("invariant_nilpotent", "12")):
        code = main(["invariants", "run", "--spec", str(spec), "--max-degree",
                     top, "--filter", flt, "--oracle"])
        assert code == 2
        assert "--oracle applies" in capsys.readouterr().err


def test_invariants_huge_degree_range_trips_the_degree_cap(tmp_path, capsys):
    # 2 generators to degree 10^8 used to end in a MemoryError (exit 4)
    spec = tmp_path / "alg.json"
    spec.write_text(canonical_json(gl2_algebra(3, 1).to_json_dict()))
    for flags in (["--filter", "all"], ["--filter", "invariant"],
                  ["--oracle"]):
        start = time.perf_counter()
        code = main(["invariants", "run", "--spec", str(spec),
                     "--max-degree", "100000000"] + flags)
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == 3, (flags, err)
        assert elapsed < 1.0
        assert err.startswith("resource guard: degree 100000000 ")
        assert "200000002" in err and "4194304" in err


def test_invariants_missing_file(capsys):
    code = main(["invariants", "run", "--spec", "/nonexistent.json",
                 "--max-degree", "2"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


# each edit of a well-formed gl2(3,1) spec file: (path into the blob, value)
DELETE = object()   # an edit that removes the key
BAD_SPEC_EDITS = {
    "p_float": (("field", "p"), 3.0),
    "r_float": (("field", "r"), 1.0),
    "r_bool": (("field", "r"), True),
    "torus_rank_float": (("torus_rank",), 1.0),
    "modulus_float": (("moduli", 0), 2.5),
    "weight_float": (("generators", 0, "weight", 0), 1.7),
    "weight_string": (("generators", 0, "weight", 0), "x"),
    "degree_float": (("generators", 1, "degree"), 2.0),
    "degree_and_weight_float": (("generators", 0), {
        "id": "x0", "parity": "exterior", "degree": 1.0, "weight": [1.7]}),
    "char2_mode_int": (("char2_mode",), 0),
    "tag_int": (("generators", 0, "tag"), 5),
    "id_empty": (("generators", 0, "id"), ""),
    "parity_unknown": (("generators", 0, "parity"), "odd"),
    "torus_rank_zero": (("torus_rank",), 0),
    "moduli_count": (("moduli",), [2, 2]),
    "no_generators": (("generators",), DELETE),
}


@pytest.mark.parametrize("edit", BAD_SPEC_EDITS.values(), ids=BAD_SPEC_EDITS)
def test_invariants_run_rejects_non_integer_spec(tmp_path, capsys, edit):
    blob = gl2_algebra(3, 1).to_json_dict()
    path, value = edit
    target = blob
    for key in path[:-1]:
        target = target[key]
    if value is DELETE:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps(blob))
    for flags in (["--filter", "all"], ["--filter", "invariant", "--oracle"],
                  ["--filter", "invariant_nilpotent"]):
        code = main(["invariants", "run", "--spec", str(spec),
                     "--max-degree", "4"] + flags)
        err = capsys.readouterr().err
        assert code == 2, (flags, err)
        assert err.startswith("error: ")


def test_check_quillen(capsys):
    code, env = run_json(capsys, ["check", "quillen", "--p", "3", "--r", "1"])
    assert code == 0
    assert env["results"]["pass"] is True


def test_check_quillen_guard_trips_before_enumerating(capsys):
    # C(28, 14) = 40,116,600 tuples; without the guard this ran past 20 s
    start = time.perf_counter()
    code = main(["check", "quillen", "--p", "2", "--r", "14"])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 3
    assert elapsed < 1.0
    assert "resource guard" in err
    for part in ("p = 2", "r = 14", "40116600", "1000000"):
        assert part in err


def test_unexpected_exception_exit_four(monkeypatch, capsys):
    def broken(p, r):
        raise RuntimeError("boom")
    monkeypatch.setattr(cli, "quillen_verify", broken)
    code = main(["check", "quillen", "--p", "3", "--r", "1"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err == "internal error: RuntimeError: boom\n"
    assert "Traceback" not in captured.err


def test_check_exponent_exit_codes(capsys):
    code, env = run_json(capsys, ["check", "exponent", "--n", "3",
                                  "--p", "3", "--r", "1"])
    assert code == 0
    assert env["results"]["elements_checked"] == 27

    code, env = run_json(capsys, ["check", "exponent", "--n", "3",
                                  "--p", "2", "--r", "1"])
    assert code == 1
    assert env["results"]["witness_order"] == 4

    # enumeration guard: 5^10 unitriangular matrices is over the cap
    code = main(["check", "exponent", "--n", "5", "--p", "5", "--r", "1"])
    assert code == 3
    assert "resource guard" in capsys.readouterr().err


def test_check_exponent_sample_count_checked(capsys):
    for samples in ("0", "-1"):
        code = main(["check", "exponent", "--n", "3", "--p", "3", "--r", "1",
                     "--samples", samples])
        assert code == 2
        assert "positive count" in capsys.readouterr().err

    # without the cap this sample ran until it was killed
    start = time.perf_counter()
    code = main(["check", "exponent", "--n", "4", "--p", "5", "--r", "1",
                 "--samples", "100000000"])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 3
    assert elapsed < 1.0
    assert "100000000" in err and "n = 4, p = 5, r = 1" in err
    assert "cap 1000000" in err


def test_check_regular(capsys):
    code, env = run_json(capsys, ["check", "regular", "--n", "3",
                                  "--p", "5", "--r", "2"])
    assert code == 0
    assert env["results"]["order"] == 25

    code = main(["check", "regular", "--n", "4", "--p", "3", "--r", "1"])
    assert code == 2


def test_check_regular_guard_trips_before_building_matrices(capsys):
    # q = 2^20 elements; without the guard this ran for minutes
    start = time.perf_counter()
    code = main(["check", "regular", "--n", "2", "--p", "2", "--r", "20"])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 3
    assert elapsed < 1.0
    assert "resource guard" in err
    for part in ("n = 2", "p = 2", "r = 20", "1048576", "1000000"):
        assert part in err


def test_gl2_landmarks(capsys):
    code, env = run_json(capsys, ["gl2", "landmarks", "--p", "3", "--r", "1"])
    assert code == 0
    assert env["results"]["first_positive_degree"] == 3
    assert env["pass"] is True

    code, env = run_json(capsys, ["sl2", "landmarks", "--p", "7", "--r", "1"])
    assert code == 0
    assert env["results"]["first_positive_degree"] == 5


def test_gl2_series_csv(capsys):
    argv = ["gl2", "series", "--p", "3", "--r", "1", "--max-degree", "4",
            "--format", "csv"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    lines = first.strip().splitlines()
    assert lines[0] == "degree,dim"
    assert lines[1] == "0,1"
    assert lines[4] == "3,1"


def test_csv_needs_series(capsys):
    code = main(["field", "info", "--p", "2", "--r", "1",
                 "--format", "csv"])
    assert code == 2
    assert "series" in capsys.readouterr().err


def test_rootsys_info(capsys):
    code, env = run_json(capsys, ["rootsys", "info", "--type", "G",
                                  "--rank", "2"])
    assert code == 0
    assert env["results"]["positive_roots"] == 6
    assert env["results"]["coxeter_numbers"] == [6]
    assert env["results"]["coweight_one_witness"] == [None]


def test_rootsys_bound(capsys):
    code, env = run_json(capsys, ["rootsys", "bound", "--type", "A",
                                  "--rank", "2", "--r", "2",
                                  "--lattice", "sc"])
    assert code == 0
    assert env["results"]["cofundamental_exponent"] == 3
    assert env["results"]["bound"]["str"] == "2/3"


def test_rootsys_divisibility_and_index(capsys):
    code, env = run_json(capsys, ["rootsys", "divisibility", "--type", "C",
                                  "--rank", "2", "--n", "2",
                                  "--lattice", "sc"])
    assert code == 0
    assert env["results"]["count_divisible"] == 2  # the two long roots

    code, env = run_json(capsys, ["rootsys", "action-index", "--type", "A",
                                  "--rank", "2", "--p", "3", "--r", "1"])
    assert code == 0
    assert env["results"]["distinct_indices"] == [1]


def test_rootsys_action_index_checks_the_field(capsys):
    # p and r are checked as for every other --p: prime, r >= 1, q capped
    for p, r, want in (("4", "1", 2), ("3", "0", 2), ("1", "2", 2),
                       ("2", "21", 3)):
        code = main(["rootsys", "action-index", "--type", "A", "--rank", "2",
                     "--p", p, "--r", r])
        assert code == want, (p, r)
        assert capsys.readouterr().out == ""


@pytest.mark.parametrize("basis", [[[1, "a"], [0, 1]], [[1.5, 0], [0, 1]],
                                   [[True, 0], [0, 1]], 5, [[1, 0], 1]],
                         ids=["string", "float", "bool", "int", "row_int"])
def test_rootsys_lattice_file_rejects_non_integers(tmp_path, capsys, basis):
    lattice = tmp_path / "lattice.json"
    lattice.write_text(json.dumps({"basis": basis}))
    code = main(["rootsys", "bound", "--type", "A", "--rank", "2", "--r", "2",
                 "--lattice", str(lattice)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_rootsys_root_outside_custom_lattice(tmp_path, capsys):
    lattice = tmp_path / "lattice.json"
    lattice.write_text(json.dumps({"basis": [[2, 0], [0, 2]]}))
    for argv in (["rootsys", "divisibility", "--n", "2"],
                 ["rootsys", "action-index", "--p", "3", "--r", "1"]):
        code = main(argv + ["--type", "A", "--rank", "2",
                            "--lattice", str(lattice)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: root (0, 1) is not in the given lattice "
            "(coords [Fraction(-1, 2), Fraction(1, 1)])\n")


def test_rootsys_singular_custom_lattice_exits_two(tmp_path, capsys):
    lattice = tmp_path / "lattice.json"
    lattice.write_text(json.dumps({"basis": [[0, 0], [0, 0]]}))
    for argv in (["algebra", "--p", "3", "--r", "1", "--max-degree", "2"],
                 ["bound", "--r", "1"], ["divisibility", "--n", "2"],
                 ["action-index", "--p", "3", "--r", "1"]):
        code = main(["rootsys", *argv, "--type", "A", "--rank", "2",
                     "--lattice", str(lattice)])
        assert code == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: lattice basis is singular\n"


def test_rootsys_algebra(capsys):
    code, env = run_json(capsys, ["rootsys", "algebra", "--type", "A",
                                  "--rank", "2", "--p", "2", "--r", "2",
                                  "--max-degree", "2"])
    assert code == 0
    assert env["results"]["series"] == [1, 0, 3]


def test_rootsys_algebra_deep_generator_list(capsys):
    # 1,200 generators, more than the default recursion limit of 1,000
    code, env = run_json(capsys, ["rootsys", "algebra", "--type", "E",
                                  "--rank", "8", "--p", "3", "--r", "5",
                                  "--max-degree", "1"])
    assert code == 0
    assert env["results"]["generator_count"] == 1200
    assert env["results"]["series"] == [1, 0]


def test_rootsys_algebra_stats(capsys):
    argv = ["rootsys", "algebra", "--type", "E", "--rank", "8", "--p", "3",
            "--r", "1", "--max-degree", "3", "--format", "json"]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    assert main(argv + ["--stats"]) == 0
    env = json.loads(capsys.readouterr().out)
    stats = env["results"].pop("stats")
    assert canonical_json(env) + "\n" == plain
    assert env["results"]["series"] == [1, 0, 0, 1240]
    # degree 3 is read off the final-factor keys, never stored in a layer
    assert stats == {"peak": 239, "live": [1, 56, 182], "cap": 10 ** 7}


def test_grun_build(capsys):
    code, env = run_json(capsys, ["grun", "build", "--n", "4", "--p", "5",
                                  "--r", "1"])
    assert code == 0
    assert env["results"]["generator_count"] == 12
    assert env["results"]["max_elementary_rank"] == 4
    assert env["results"]["chern_coefficient"] == 1


def test_grun_detect_and_essential(capsys):
    code, env = run_json(capsys, ["grun", "detect", "--n", "3", "--p", "3",
                                  "--r", "1"])
    assert code == 0
    assert env["results"]["series"] == [1, 0, 0, 4]

    code, env = run_json(capsys, ["grun", "essential", "--n", "6",
                                  "--p", "5"])
    assert code == 0
    assert env["results"]["kernel_dim"] == 0

    code, env = run_json(capsys, ["grun", "essential", "--n", "3",
                                  "--p", "5"])
    assert code == 1
    assert env["results"]["discrepancy"] is True


def test_theorem_subcommands(capsys):
    code, env = run_json(capsys, ["theorem", "lowest-gl", "--n", "4",
                                  "--p", "2", "--r", "1"])
    assert code == 0
    assert env["results"]["dim"] == 0
    assert env["ingredients"]

    code, env = run_json(capsys, ["theorem", "borel2", "--n", "4",
                                  "--r", "2"])
    assert code == 0
    assert env["results"]["dim"] == 3
    statuses = {i["status"] for i in env["ingredients"]}
    assert statuses == {"computed", "cited"}


def test_verify_subset(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(["c09", "c14"]))
    code, env = run_json(capsys, ["verify", "all", "--grid", str(grid)])
    assert code == 0
    names = [c["criterion"] for c in env["results"]["criteria"]]
    assert names == ["c09", "c14"]

    code = main(["verify", "all", "--grid", str(grid), "--format", "table"])
    out = capsys.readouterr().out
    assert code == 0
    assert "c09  PASS" in out


def test_verify_subset_determinism(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(["c01", "c04", "c09", "c14"]))
    argv = ["verify", "all", "--grid", str(grid), "--format", "json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_verify_timings_go_to_stderr(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(["c01", "c09", "c14"]))
    argv = ["verify", "all", "--grid", str(grid), "--format", "json"]
    assert main(argv) == 0
    plain = capsys.readouterr()
    assert main(argv + ["--timings"]) == 0
    timed = capsys.readouterr()
    assert timed.out == plain.out
    assert plain.err == ""
    lines = [line.split() for line in timed.err.splitlines()]
    assert [name for name, _ in lines] == ["c01", "c09", "c14"]
    assert all(float(seconds) >= 0 for _, seconds in lines)


def test_verify_timings_report_the_shared_results(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(["c05", "c06"]))
    argv = ["verify", "all", "--grid", str(grid), "--format", "json"]
    assert main(argv) == 0
    plain = capsys.readouterr()
    assert main(argv + ["--timings"]) == 0
    timed = capsys.readouterr()
    assert timed.out == plain.out
    lines = timed.err.splitlines()
    assert [line.split()[0] for line in lines[:2]] == ["c05", "c06"]
    assert lines[2:] == ["shared build_gr_un computed 14 reused 14",
                         "shared hook_detection computed 14 reused 14"]


def test_verify_grid_rejects_names_that_are_not_strings(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    for names in ([["c01"]], [{"c01": 1}, "c09"]):
        grid.write_text(json.dumps({"criteria": names}))
        start = time.perf_counter()
        code = main(["verify", "all", "--grid", str(grid)])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown criteria ") and "c01" in err


def test_out_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["gl2", "landmarks", "--p", "3", "--r", "1",
                 "--format", "json", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    env = json.loads(out.read_text())
    assert env["results"]["match"] is True


def test_size_guards_exit_three_at_once(capsys):
    # each of these ran for more than 15 s before its guard
    for argv, part in (
            ("check exponent --n 1500 --p 2 --r 1 --samples 1",
             "exponent check for n = 1500, p = 2, r = 1"),
            ("check regular --n 600 --p 601 --r 1",
             "regular subgroup check for n = 600, p = 601, r = 1"),
            ("rootsys info --type A --rank 600", "total rank 600"),
            ("rootsys algebra --type A --rank 300 --p 2 --r 1 "
             "--max-degree 1", "total rank 300"),
            ("theorem borel2 --n 300 --r 1",
             "n = 300, p = 2, r = 1 would hold 44850 generators"),
            ("rootsys algebra --type D --rank 64 --p 2 --r 20 "
             "--max-degree 1", "root system D64, p = 2, r = 20 would hold "
             "80640 generators x 64 weights = 5160960 entries")):
        start = time.perf_counter()
        code = main(argv.split())
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == 3, (argv, err)
        assert elapsed < 1.0
        assert err.startswith("resource guard: ") and part in err


def test_bad_input_exit_two(tmp_path, capsys):
    files = {"list": [1, 2], "wide": {"basis": [[1, 0]]},
             "names": {"names": ["c01"]}, "number": 5}
    for name, blob in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(blob))
    a2 = "--type A --rank 2"
    for argv, message in (
            ("gl2 landmarks --p 4 --r 1", "p = 4 is not prime"),
            ("rootsys info --type H --rank 2", "no root system of type H2"),
            ("grun essential --n 4 --p 2",
             "essential kernel needs an odd prime"),
            (f"rootsys bound {a2} --r 1 --lattice {tmp_path}/list.json",
             "lattice file must be a JSON object with a 'basis'"),
            (f"rootsys bound {a2} --r 1 --lattice {tmp_path}/wide.json",
             "lattice basis must be square of full rank size"),
            (f"verify all --grid {tmp_path}/names.json",
             "grid file must hold a list of criterion names"),
            (f"verify all --grid {tmp_path}/number.json",
             "grid file must hold a list of criterion names"),
            ("grun detect --n 3 --p 3 --r 1 --degree 0",
             "degree must be at least 1"),
            ("check regular --n 1 --p 3 --r 1",
             "matrix size must be at least 2"),
            (f"rootsys divisibility {a2} --n 0", "divisor must be positive"),
            (f"rootsys bound {a2} --r 0", "r must be at least 1")):
        assert main(argv.split()) == 2, argv
        assert capsys.readouterr().err == f"error: {message}\n"


def test_field_checked_before_generators_are_built(capsys):
    # r = 10**6 would otherwise build 10**6 generators per root or position,
    # with weights up to p^r, before the field size cap is looked at
    big = ["--r", "1000000"]
    for argv in (["gl2", "landmarks", "--p", "3"] + big,
                 ["sl2", "landmarks", "--p", "3"] + big,
                 ["grun", "build", "--n", "3", "--p", "3"] + big,
                 ["theorem", "borel2", "--n", "3"] + big,
                 ["rootsys", "algebra", "--type", "A", "--rank", "2", "--p",
                  "3", "--max-degree", "1"] + big):
        assert main(argv) == 3, argv
        assert "exceeds the field size cap" in capsys.readouterr().err


def test_unwritable_out_path_exits_two(capsys):
    code = main(["field", "info", "--p", "3", "--r", "1",
                 "--out", "/nonexistent/dir/x"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write /nonexistent/dir/x: ")


def test_parser_is_built_once_and_holds_no_run_state(tmp_path, capsys):
    spec = tmp_path / "alg.json"
    spec.write_text(canonical_json(gl2_algebra(3, 1).to_json_dict()))
    stats_run = ["invariants", "run", "--spec", str(spec), "--max-degree",
                 "4", "--stats", "--format", "json"]
    algebra = ["rootsys", "algebra", "--type", "A", "--rank", "2", "--p",
               "3", "--r", "1", "--max-degree", "3", "--format", "json"]
    cli._build_parser.cache_clear()
    assert main(algebra) == 0
    fresh = capsys.readouterr().out
    cli._build_parser.cache_clear()
    outs = []
    for argv in (stats_run, algebra, stats_run):
        assert main(argv) == 0
        outs.append(capsys.readouterr().out)
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    assert outs[2] == outs[0]
    assert outs[1] == fresh
    first, second = json.loads(outs[0]), json.loads(outs[1])
    assert "stats" in first["results"]
    assert "stats" not in second["results"]
    assert second["params"] == {"type": "A", "rank": 2, "p": 3, "r": 1,
                                "max_degree": 3, "filter": "invariant",
                                "lattice": "adjoint"}


def test_missing_flag_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["gl2", "landmarks", "--p", "3"])
    assert exc.value.code == 2


def test_table_format(capsys):
    code = main(["gl2", "landmarks", "--p", "3", "--r", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "first_positive_degree" in out
    assert "pass" in out


def test_huge_p_trips_the_field_cap_at_once(capsys):
    # trial division would take ~10^10 steps on this prime before the cap
    for argv in (["field", "info", "--p", "100000000000000000039", "--r", "1"],
                 ["grun", "essential", "--n", "4",
                  "--p", "100000000000000000039"],
                 ["field", "info", "--p", str(2 ** 21), "--r", "1"]):
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
        assert code == 3, argv
        assert elapsed < 1.0
        assert "exceeds the field size cap" in capsys.readouterr().err


README = Path(__file__).resolve().parent.parent / "README.md"
FROZEN_REPORTS = Path(__file__).with_name("frozen_cli_reports.json")


def readme_command_lines():
    """The `liecoh ...` lines of the README's Command line block."""
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    lines = [line.split("#")[0].strip() for line in block.splitlines()]
    return [line for line in lines if line]


def test_readme_shows_every_command():
    shown = {tuple(shlex.split(line)[1:3]) for line in readme_command_lines()}
    assert shown == {(group, name) for group, (_, commands)
                     in cli.COMMANDS.items() for name in commands}


def test_readme_reports_frozen(tmp_path, monkeypatch, capsys):
    # Every README command line in table and json format, and in csv when
    # the report has a series: exit code and sha256 of stdout, frozen from
    # the reports the hand-built parser and params dicts emitted.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "algebra.json").write_text(
        canonical_json(gl2_algebra(3, 1).to_json_dict()))
    got = {}
    for line in readme_command_lines():
        argv = shlex.split(line)[1:]
        if "--format" in argv:
            at = argv.index("--format")
            del argv[at:at + 2]
        for fmt in ("table", "json", "csv"):
            if fmt == "csv" and "series" not in report["results"]:
                continue
            code = main(argv + ["--format", fmt])
            out = capsys.readouterr().out
            if fmt == "json":
                report = json.loads(out)
            key = " ".join(argv + ["--format", fmt])
            got[key] = [code, hashlib.sha256(out.encode()).hexdigest()]
    assert got == json.loads(FROZEN_REPORTS.read_text())
