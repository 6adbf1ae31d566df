"""Run the ``repro`` CLI with the benchmark's tracer installed.

Usage: ``python perfbench/traced.py OUT_DIR <repro arguments...>``

Behaves like ``python -m repro <arguments>`` (same output, same exit
code) and leaves one ``trace.<pid>.json`` per program process in
OUT_DIR; ``perfbench/pb/layers.py`` folds them into per-layer metrics.
"""

import os
import sys


def main() -> int:
    out_dir = sys.argv[1]
    os.makedirs(out_dir, exist_ok=True)
    from pb import tracer

    active = tracer.install(out_dir)
    from repro.__main__ import main as repro_main

    try:
        return repro_main(sys.argv[2:])
    finally:
        active.dump()


if __name__ == "__main__":
    sys.exit(main())
