"""The tracer leaves one trace file per program process."""

import json
import os
import subprocess
import sys

CHECKOUT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SCRIPT = """
import sys
from pb import tracer
tracer.install(sys.argv[1])
from repro.failures import get_case
from repro.sim.checkpoint import Checkpoint
case = get_case("f1")
checkpoint = Checkpoint(case.workload, case.horizon, case.seed, None, 8)
print(checkpoint._pid)
checkpoint.close()
"""


def test_holder_closed_without_forking_leaves_its_trace(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(CHECKOUT, "src"), os.path.join(CHECKOUT, "perfbench")]
    ))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    holder = int(proc.stdout.split()[-1])
    assert len(os.listdir(tmp_path)) == 2   # the main process and the holder
    with open(tmp_path / f"trace.{holder}.json") as handle:
        trace = json.load(handle)
    assert trace["pid"] == holder
    # the holder ran the prefix: simulator time is in its profile
    assert sum(v for k, v in trace["profile"].items() if k.startswith("sim.")) > 0
