"""Regenerate ``perfbench/reference.json``, the committed digests that
every timed call is checked against.

Each entry is the virtual-time digest of one workload at its full size
and one seed, simulated with ``backend="engine"`` (the reference
simulator) and confirmed equal on the default backend routing.  Run it
only when a change is meant to move virtual-time outputs::

    python3 perfbench/record_reference.py --seeds 64 [--workload NAME ...]
"""

from __future__ import annotations

import argparse
import json
import sys

from run import REFERENCE, SRC
from workloads import WORKLOADS, check_invariants, digest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=64)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))

    table = json.loads(REFERENCE.read_text())
    for name in args.workload or WORKLOADS:
        workload = WORKLOADS[name]
        server = workload.make_server()
        try:
            for seed in range(args.seeds):
                inputs = workload.make_inputs(seed, workload.n_jobs)
                oracle = server.call(inputs, backend="engine")
                problems = check_invariants(inputs, oracle)
                routed = digest(server.call(inputs))
                if problems or routed != digest(oracle):
                    print(f"{name} seed {seed}: {problems or 'backends disagree'}")
                    return 1
                table[f"{name}/{workload.n_jobs}/{seed}"] = routed
                print(name, seed, routed, flush=True)
        finally:
            server.close()
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
