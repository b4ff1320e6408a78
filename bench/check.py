"""Check one command's outputs in a process of its own.

    python3 bench/check.py <workload> <scale> <out_dir> <returncode>

Prints one JSON object: ``{"digest": ..., "values": ...}`` for good
outputs, ``{"error": ...}`` for bad ones.  The end-to-end loop checks
outputs here rather than in its own process because reading back an
export can take hundreds of MB, and a child's peak RSS, as ``wait4``
reports it, starts from the RSS of the process that forked it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from workloads import SCALES, WORKLOADS, CheckFailed

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv) -> int:
    workload, scale, out_dir, returncode = argv
    sys.path.insert(0, str(SRC))
    try:
        digest, values = WORKLOADS[workload].check(out_dir, int(returncode), SCALES[scale])
    except CheckFailed as exc:
        print(json.dumps({"error": str(exc)}))
    else:
        print(json.dumps({"digest": digest, "values": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
