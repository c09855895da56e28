"""dertensor benchmark: three workloads, each item in its own child process.

    python3 perfbench/run.py --workload claims-sweep --seed 3 --seconds 36 --trace 0

Run from the root of a checkout. The runner builds the workload's seeded
inputs, runs one import-only child to compile the package, runs every item
once, and then runs items again, longest first, while --seconds lasts. Every
item runs in a fresh interpreter, one at a time, and its output is checked
against the goldens recorded at seed 0. The last line of stdout is one JSON
object: correct, attempted, failed and the metrics.

--trace 0 reports the end-to-end metrics (from the median run of each item,
scaled to a reference host speed).
--trace 1 runs one untraced pass, one pass with spans and one counting pass,
and reports the per-layer metrics. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden.json")
ITEM_TIMEOUT = 120
CALIB_SAMPLES = 30
# untraced runs: host loops after each item run, and the loop time that end-to-end
# times are scaled to (about the median loop of an untraced run on a shared
# 2-core cloud host, so scaled times read close to seconds there)
CALIB_PER_RUN = 3
CALIB_REF_S = 0.055
RUN_DEADLINE = 165  # seconds after start; later items count as failed, so a run ends within 180 s

END_TO_END = (
    # name, unit, better, bound
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
)

GROUP_METRICS = ("thm1", "lemma21", "thm2", "lemma", "phi", "loop",
                 "ladder_q", "ladder_fp", "ladder_cyc")

PER_LAYER = (
    # name, unit, better
    ("fail_ratio", "ratio", "lower"),
    ("host.calib_s", "s", "lower"),
    *((f"{g}_s", "s", "lower") for g in GROUP_METRICS),
    ("exactla.rref_s", "s", "lower"),
    ("exactla.rref_calls", "count", "lower"),
    ("exactla.kernel_s", "s", "lower"),
    ("exactla.rows_in", "count", "lower"),
    ("exactla.nnz_in", "count", "lower"),
    ("exactla.density", "ratio", "higher"),
    ("exactla.rank_out", "count", "lower"),
    ("exactla.pivot_yield", "ratio", "higher"),
    ("exactla.self_s", "s", "lower"),
    ("invariants.self_s", "s", "lower"),
    ("invariants.derivation_s", "s", "lower"),
    ("invariants.centroid_s", "s", "lower"),
    ("invariants.psi_s", "s", "lower"),
    ("exactla.matmul_s", "s", "lower"),
    ("exactla.matmul_calls", "count", "lower"),
    ("exactla.member_s", "s", "lower"),
    ("exactla.intersect_s", "s", "lower"),
    ("decomposition.self_s", "s", "lower"),
    ("decomposition.embed_s", "s", "lower"),
    ("decomposition.split_s", "s", "lower"),
    ("decomposition.split_calls", "count", "lower"),
    ("decomposition.setup_build_s", "s", "lower"),
    ("decomposition.phi_s", "s", "lower"),
    ("decomposition.phi_calls", "count", "lower"),
    ("gradings.self_s", "s", "lower"),
    ("laurent.self_s", "s", "lower"),
    ("laurent.calls", "count", "lower"),
    ("scalars.ops.rational", "count", "lower"),
    ("scalars.ops.prime", "count", "lower"),
    ("scalars.ops.cyclotomic", "count", "lower"),
    ("scalars.inv_calls", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("catalog.self_s", "s", "lower"),
    ("algebra.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


# ---------------------------------------------------------------------------
# host calibration


def host_calibration() -> float:
    """Time of a fixed pure-Python Fraction/int loop (about 30 ms at full speed)."""
    t = time.perf_counter()
    acc, n = Fraction(0), 0
    for i in range(1, 12000):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
        n = (n * 31 + i) % 1000003
    return time.perf_counter() - t


# ---------------------------------------------------------------------------
# running items


class Runner:
    """Spawns one child per item and checks its output against the goldens."""

    def __init__(self, root: str, seed: int, work: str, golden: dict):
        self.deadline = time.monotonic() + RUN_DEADLINE
        self.root = root
        self.src = os.path.join(root, "src")
        self.seed = seed
        self.work = work
        self.golden = golden
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        # children import src/ only, and load the bytecode the warm-up child wrote,
        # as an installed package would, whatever the caller's environment says
        for name in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE"):
            self.env.pop(name, None)
        self._jobs = 0
        self.calib = []

    def spawn(self, item: dict, mode: str) -> dict:
        self._jobs += 1
        out = os.path.join(self.work, f"job{self._jobs}.json")
        job = {"item": item, "mode": mode, "seed": self.seed, "src": self.src, "out": out,
               "spans_out": os.path.join(self.work, f"job{self._jobs}.spans")}
        t_spawn = time.monotonic()
        timeout = min(ITEM_TIMEOUT, self.deadline - t_spawn)
        if timeout <= 0:
            return {"ok": False, "detail": "not run: the run's deadline had passed"}
        try:
            proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), json.dumps(job)],
                                  cwd=self.root, env=self.env, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"ok": False, "detail": f"timed out after {timeout:.0f} s"}
        if proc.returncode != 0 or not os.path.exists(out):
            return {"ok": False, "detail": f"child exited {proc.returncode}: {proc.stderr[-2000:]}"}
        with open(out) as fh:
            res = json.load(fh)
        if mode == "import":
            return res
        res["setup"] = res["t_ready"] - t_spawn
        res["item"] = res["t_done"] - res["t_ready"]
        res["wall"] = res["t_done"] - t_spawn
        res["spans_path"] = job["spans_out"] if mode == "spans" else None
        res["ok"], res["detail"] = self.check(item, res)
        return res

    def check(self, item: dict, res: dict):
        if "crash" in res:
            return False, res["crash"]
        want = self.golden.get(item["id"])
        if want is None:
            return False, "no golden recorded"
        got = output_record(item, res)
        if item["kind"] == "ladder" or self.seed == 0:
            keys = want.keys()
        else:  # seeded CLI items keep exit code, verdict, dimensions and assertion lists
            keys = ("rc", "summary")
        bad = [k for k in keys if got.get(k) != want[k]]
        return (not bad), (f"mismatch in {', '.join(bad)}" if bad else "")

    def run_item(self, item: dict, mode: str, calib_runs: int) -> dict:
        """One item, then calib_runs host loops, whose times go to self.calib."""
        res = dict(self.spawn(item, mode), id=item["id"], group=item["group"])
        if "wall" in res:
            print(f"{mode:6s} {res['setup']:7.3f} s setup {res['item']:8.3f} s  {item['id']}",
                  file=sys.stderr)
        self.calib += [host_calibration() for _ in range(calib_runs)]
        return res

    def run_pass(self, items: list, mode: str) -> dict:
        """Every item once. After each item the host loop runs enough times to
        total about CALIB_SAMPLES per pass; the fastest loop tracks the host's
        clock and, unlike the median, not momentary contention."""
        self.calib = []
        per_item = -(-CALIB_SAMPLES // len(items))
        results = [self.run_item(item, mode, per_item) for item in items]
        print(f"{mode:6s} host.calib_s {min(self.calib):.4f} s", file=sys.stderr)
        return {"results": results, "calib": min(self.calib)}

    def run_for(self, items: list, seconds: float) -> list:
        """Untraced runs for `seconds`: a first round runs every item, then
        rounds over the items, longest first, start an item only while its
        last run (with its host loop) still fits. The long items, which carry
        most of a pass's noise, get the most repeats. Returns every result."""
        t0 = time.monotonic()
        limit = min(seconds, self.deadline - t0)
        self.calib, cost, results = [], {}, []
        order = items
        while True:
            ran = False
            for item in order:
                if item["id"] in cost and time.monotonic() - t0 + cost[item["id"]] > limit:
                    continue
                t = time.monotonic()
                results.append(self.run_item(item, "plain", CALIB_PER_RUN))
                cost[item["id"]] = time.monotonic() - t
                ran = True
            if not ran:
                break
            order = sorted(items, key=lambda it: -cost[it["id"]])
        print(f"plain  host.calib_s {min(self.calib):.4f} s, median {statistics.median(self.calib):.4f}"
              f" s, over {len(results)} runs", file=sys.stderr)
        return results


def output_record(item: dict, res: dict) -> dict:
    """What the goldens pin for one item."""
    if item["kind"] == "ladder":
        return {"dims": res["dims"], "digests": res["digests"]}
    out = res["stdout"]
    summary = None
    if out.strip():
        rep = json.loads(out)
        summary = {
            "verdict": rep.get("verdict"),
            "dimensions": rep.get("dimensions"),
            "hypotheses": rep.get("hypotheses"),
            "assertions": [[a["name"], a["pass"]] for a in rep.get("assertions", [])],
        }
    return {"rc": res["rc"], "digest": hashlib.sha256(out.encode()).hexdigest(),
            "summary": summary}


# ---------------------------------------------------------------------------
# metrics


def _timed(p):
    """Results of one pass whose child ran to the end (checked or not)."""
    return [r for r in p["results"] if "wall" in r]


def end_to_end(results: list, calib: list) -> dict:
    """Each item's median run; wall_s sums them into one pass. Taking the
    median per item keeps the item mix fixed, however many runs each got.
    Times are scaled by CALIB_REF_S over the median host loop of the run, so
    that drift in the host's speed over minutes cancels."""
    runs = {}
    for r in results:
        if "wall" in r:
            runs.setdefault(r["id"], []).append(r)

    def med(key):
        return [statistics.median(r[key] for r in rs) for rs in runs.values()] or [0.0]

    setup, wall = statistics.median(med("setup")), sum(med("wall"))
    scale = CALIB_REF_S / statistics.median(calib)
    print(f"plain  unscaled setup_s {setup:.4f} s, wall_s {wall:.3f} s; scale {scale:.4f}",
          file=sys.stderr)
    return {
        "setup_s": setup * scale,
        "wall_s": wall * scale,
        "peak_rss_mb": max(med("rss_kb")) / 1024,
    }


def per_layer(plain: dict, spanned: dict, counted: dict) -> dict:
    traced = _timed(spanned)
    s = spans.summarize([r["spans_path"] for r in traced])
    incl, calls = s["incl"], s["calls"]
    c = {}
    for r in _timed(counted):
        for k, v in r["counts"].items():
            c[k] = c.get(k, 0) + v
    rows, cells = c.get("rows_in", 0), c.get("cells_in", 0)
    wall_plain = sum(r["wall"] for r in _timed(plain))
    out = {f"{g}_s": sum(r["item"] for r in _timed(plain) if r["group"] == g)
           for g in GROUP_METRICS}
    out.update({
        "exactla.rref_s": incl["exactla.rref_rows"],
        "exactla.rref_calls": calls["exactla.rref_rows"],
        "exactla.kernel_s": incl["exactla.kernel_of_rows"],
        "exactla.rows_in": rows,
        "exactla.nnz_in": c.get("nnz_in", 0),
        "exactla.density": c.get("nnz_in", 0) / cells if cells else 0.0,
        "exactla.rank_out": c.get("rank_out", 0),
        "exactla.pivot_yield": c.get("rank_out", 0) / rows if rows else 0.0,
        "invariants.derivation_s": incl["invariants.derivation_space"],
        "invariants.centroid_s": incl["invariants.centroid"],
        "invariants.psi_s": incl["invariants.psi_map"],
        "exactla.matmul_s": incl["exactla.Matrix.mul"],
        "exactla.matmul_calls": calls["exactla.Matrix.mul"],
        "exactla.member_s": s["member_s"],
        "exactla.intersect_s": incl["exactla.Subspace.intersect"],
        "decomposition.embed_s": incl["decomposition.embed_tensor_derivations"],
        "decomposition.split_s": incl["decomposition.split_derivation"],
        "decomposition.split_calls": calls["decomposition.split_derivation"],
        "decomposition.setup_build_s": incl["decomposition.Setup.__init__"],
        "decomposition.phi_s": incl["decomposition.extend_phi"],
        "decomposition.phi_calls": calls["decomposition.extend_phi"],
        "laurent.calls": s["entries"]["laurent"],
        "scalars.ops.rational": c.get("rational", 0),
        "scalars.ops.prime": c.get("prime", 0),
        "scalars.ops.cyclotomic": c.get("cyclotomic", 0),
        "scalars.inv_calls": c.get("inv", 0),
        "host.calib_s": min(p["calib"] for p in (plain, spanned, counted)),
        "trace.overhead_ratio": sum(r["wall"] for r in traced) / wall_plain if wall_plain else 0.0,
    })
    for layer in ("exactla", "invariants", "decomposition", "gradings", "laurent", "cli",
                  "catalog", "algebra"):
        out[f"{layer}.self_s"] = s["self_s"][layer]
    return out


# ---------------------------------------------------------------------------
# entry point


def load_golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


def prepare(root: str, workload: str, seed: int, golden: dict | None = None):
    """Work directory, seeded items and a runner whose package is compiled."""
    import inputs
    work = os.path.join(HERE, "_work", workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    items = inputs.build_items(workload, seed, os.path.join(work, "inputs"))
    runner = Runner(root, seed, work, load_golden() if golden is None else golden)
    warm = runner.spawn({"id": "import", "kind": "import"}, "import")
    if "t_ready" not in warm:
        raise SystemExit(f"the package does not import: {warm['detail']}")
    return runner, items


def measure(runner: Runner, items: list, seconds: float, trace: bool):
    """Run the passes; returns (metrics, attempted, failed, failures)."""
    if trace:
        passes = [runner.run_pass(items, mode) for mode in ("plain", "spans", "counts")]
        metrics = per_layer(*passes)
        results = [r for p in passes for r in p["results"]]
    else:
        results = runner.run_for(items, seconds)
        metrics = end_to_end(results, runner.calib)
    failures = [f"{r['id']}: {r['detail']}" for r in results if not r["ok"]]
    if trace:
        metrics["fail_ratio"] = len(failures) / len(results)
    return metrics, len(results), len(failures), failures


def result(metrics: dict, attempted: int, failed: int) -> dict:
    """The benchmark's result object, each metric with its unit."""
    units = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind: subprocess.run then kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "dertensor", "__init__.py")):
        print(f"error: {root} holds no src/dertensor; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import inputs
    if args.workload not in inputs.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(inputs.WORKLOADS)}")
    runner, items = prepare(root, args.workload, args.seed)
    metrics, attempted, failed, failures = measure(runner, items, args.seconds, bool(args.trace))
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps(result(metrics, attempted, failed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
