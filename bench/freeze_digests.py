"""Write digests.json: the sha256 of every seed-independent task's output.

    python3 bench/freeze_digests.py

The file records the outputs of the package at the commit where the
benchmark was defined; regenerate it only where a change is meant to alter
a report, and say so in CHANGES.md.
"""

import json
import shutil
import sys
from pathlib import Path

import run

if __name__ == "__main__":
    error = run.import_package()
    if error is not None:
        sys.exit(f"error: {error}")
    import workloads

    digests = {}
    workdir = run.OUT_DIR / "freeze"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for workload in workloads.WORKLOADS:
            digests[workload] = {
                task.key: run.output_digest(task.view(task.call()))
                for task in workloads.build(workload, 0, workdir)
                if not task.seeded}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (run.HERE / "digests.json").write_text(
        json.dumps(digests, indent=1, sort_keys=True) + "\n")
