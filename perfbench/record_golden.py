"""Record the seed-0 goldens the benchmark checks every item against.

    python3 perfbench/record_golden.py

Run from the root of a checkout whose outputs are trusted (the goldens in
golden.json were recorded on the commit that added the benchmark). For each
item of every workload it stores, at seed 0: a CLI item's exit code, the
sha256 of its stdout and the verdict, dimensions, hypotheses and assertion
name/pass lists; a ladder rung's dimensions (derivations, centroid) and the
sha256 of each canonical RREF basis.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    import inputs
    import run
    golden = {}
    for workload in inputs.WORKLOADS:
        runner, items = run.prepare(root, workload, 0, golden={})
        results = runner.run_pass(items, "plain")["results"]
        for item, res in zip(items, results):
            if "crash" in res or "wall" not in res:
                raise SystemExit(f"{item['id']} did not run: {res.get('crash') or res['detail']}")
            golden[item["id"]] = run.output_record(item, res)
            print(f"{res['item']:8.3f} s  {item['id']}", file=sys.stderr)
    with open(run.GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
