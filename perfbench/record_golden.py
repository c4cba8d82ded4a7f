#!/usr/bin/env python3
"""Record golden.json: the outputs every benchmark pass is checked against.

    python3 perfbench/record_golden.py

Run from the repository root on the commit whose outputs are the
reference.  Each workload variant computes its outputs once; the file
is rewritten only when every variant succeeds.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402


def main():
    golden = {}
    for name in workloads.VARIANTS:
        golden[name] = workloads.make(name, 0, None).outputs()
        print("recorded", name, file=sys.stderr)
    with open(os.path.join(HERE, "golden.json"), "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
