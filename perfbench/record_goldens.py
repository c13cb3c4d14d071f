"""Record the golden digest of every output the benchmark checks.

    python3 perfbench/record_goldens.py

Run from the root of a checkout at the commit whose outputs are the
reference; it rewrites perfbench/goldens.json.  A later commit must not
re-record: its outputs are what the goldens check.
"""

import json
import sys

import workloads


def main() -> int:
    binsys = workloads.import_binsys()
    gate = workloads.Gate({}, record=True)

    workloads.Exhaustive(binsys, seed=0).run(None, gate)

    sampled = workloads.Sampled(binsys, seed=0)
    for op in workloads.sampled_pool() + workloads.sampled_pool(tiny=True):
        sampled.run(op, gate)

    cli = workloads.CliRequests(binsys, seed=0)
    try:
        cli.setup()
        for request in [r for kind in cli.fast.values() for r in kind] + cli.inverse:
            cli.run(request, gate)
    finally:
        cli.close()

    if gate.failed:
        print(f"{gate.failed} operations failed; goldens not written", file=sys.stderr)
        return 1
    with open(workloads.GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(gate.goldens.items())), fh, indent=0)
        fh.write("\n")
    print(f"recorded {len(gate.goldens)} goldens in {workloads.GOLDENS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
