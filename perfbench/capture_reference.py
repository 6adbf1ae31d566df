"""Regenerate the output references in ``perfbench/reference/``.

Usage (from the root of a checkout of the commit whose outputs are the
reference)::

    python3 perfbench/capture_reference.py

Runs ``repro compare all`` and ``repro reproduce fN`` for every catalog
case, cold, and writes ``compare_cells.json`` (every table cell) and
``reproduce.json`` (every script and round count).  Takes ~2 minutes on
2 CPUs.  Only regenerate when a change is meant to alter outputs.
"""

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from pb import check, workloads  # noqa: E402
from pb.program import WorkTree, host_cpus, launch, repro_argv  # noqa: E402


def main() -> int:
    checkout = os.getcwd()
    work = os.path.join(checkout, ".perfbench_work", "reference")
    shutil.rmtree(work, ignore_errors=True)
    tree = WorkTree(checkout, work)
    try:
        run = launch(repro_argv("compare", "all", "--jobs", str(host_cpus())),
                     tree, timeout=900)
        if run.returncode != 0:
            print(run.stderr, file=sys.stderr)
            return 1
        cells = check.parse_compare_table(run.stdout)
        scripts = {}
        for case_id in workloads.catalog():
            tree.reset_state()
            run = launch(repro_argv("reproduce", case_id), tree, timeout=300)
            parsed = check.parse_reproduce(run.stdout)
            if run.returncode != 0 or parsed is None:
                print(f"{case_id}: not reproduced", file=sys.stderr)
                return 1
            scripts[case_id] = {"rounds": parsed[0], "script": parsed[1]}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    out = os.path.join(HERE, "reference")
    with open(os.path.join(out, "compare_cells.json"), "w") as handle:
        json.dump(cells, handle, indent=1, sort_keys=True)
        handle.write("\n")
    with open(os.path.join(out, "reproduce.json"), "w") as handle:
        json.dump(scripts, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"{len(cells)} compare rows, {len(scripts)} scripts -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
