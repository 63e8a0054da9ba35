"""The benchmark's traced run reports every per-layer metric it declares.

`bench/run.py --trace 1` looks each `per_layer` name of BENCHMARK.json up in
the values it collected, so a name the tracer no longer produces (a public
function turned into a non-function by a decorator, a traced method moved
out of its class dict) stops the traced run with a KeyError.  This test
reads BENCHMARK.json and the bench modules and changes neither.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_per_layer_metric_is_produced():
    tracer, workloads = _bench_module("tracer"), _bench_module("workloads")
    produced = set(tracer.Tracer().values())
    # the names bench/run.py adds to the tracer's values
    produced |= {f"group.{g}.s" for groups in workloads.GROUPS.values()
                 for g in groups}
    produced |= {"trace.overhead_s", "cli.probe_failures"}
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [entry["name"] for entry in config["per_layer"]]
    assert declared and [n for n in declared if n not in produced] == []
