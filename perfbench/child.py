"""Run one benchmark item in a fresh interpreter and report its timings.

Usage (from the benchmark's runner): python3 perfbench/child.py '<job json>'

The job names the item, the pass mode ("plain", "spans", "counts" or
"import"), the seed, the checkout's src directory and the result file. The
child imports dertensor, builds the item's inputs, notes the time, runs the
item, notes the time again and writes a JSON result: the two CLOCK_MONOTONIC
stamps, peak RSS, and the item's output (exit code and stdout for a CLI
item, dimensions and a basis digest for a ladder rung). Checking the output
against the goldens is left to the runner.
"""

import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stdout


def basis_digest(space) -> str:
    """sha256 of the canonical RREF basis rows of a Subspace."""
    f = space.field
    rows = [[f.format(x) for x in row] for row in space.rows]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def ladder_output(seed: int, change, der, cen) -> dict:
    """Dimensions and basis digests, rewritten into the seed-0 basis first."""
    from dertensor.exactla import Subspace
    from inputs import endo_to_old_basis
    perm, scales = change
    digests = []
    for es in (der, cen):
        space = es.space
        if seed:
            f = space.field
            space = Subspace.from_vectors(
                f, space.ambient, [endo_to_old_basis(f, list(r), perm, scales) for r in space.rows])
        digests.append(basis_digest(space))
    return {"dims": [der.dim, cen.dim], "digests": digests}


def main() -> int:
    job = json.loads(sys.argv[1])
    item, mode = job["item"], job["mode"]
    sys.path.insert(0, job["src"])
    import dertensor.cli as cli  # imports every layer module
    from dertensor import invariants
    if not os.path.abspath(cli.__file__).startswith(job["src"] + os.sep):
        raise SystemExit(f"dertensor imported from {cli.__file__}, not from {job['src']}")
    result = {}
    if mode == "import":
        result["t_ready"] = result["t_done"] = time.monotonic()
        return _write(job, result)

    ts = change = None
    if item["kind"] == "ladder":
        from dertensor.algebra import tensor_product
        from inputs import ladder_algebras
        a, s, change = ladder_algebras(item["field"], item["k"], job["seed"])
        ts = tensor_product(a, s)

    rec = counts = None
    if mode == "spans":
        from spans import SpanRecorder
        rec = SpanRecorder()
        rec.install()
    elif mode == "counts":
        from spans import install_counters
        counts = install_counters()

    buf = io.StringIO()
    t_ready = time.monotonic()
    try:
        with rec.item_span() if rec else nullcontext():
            if item["kind"] == "cli":
                with redirect_stdout(buf):
                    rc = cli.run(item["argv"])
            else:
                # looked up at call time, so the traced pass sees the wrappers
                der = invariants.derivation_space(ts)
                cen = invariants.centroid(ts)
    except Exception:
        result["crash"] = traceback.format_exc()
    t_done = time.monotonic()
    result.update(t_ready=t_ready, t_done=t_done,
                  rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    # freeze what was measured before the output checks call into dertensor
    if rec is not None:
        rec.dump(job["spans_out"], item["id"])
    if counts is not None:
        result["counts"] = dict(counts)
    if "crash" not in result:
        if item["kind"] == "cli":
            result.update(rc=rc, stdout=buf.getvalue())
        else:
            result.update(ladder_output(job["seed"], change, der, cen))
    return _write(job, result)


def _write(job, result) -> int:
    with open(job["out"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
