"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (or, with `--workload all`, each workload in turn in its
own process, one result line each) against the quiverrep sources in ./src,
checks every output against the benchmark's own computations, and prints as
its last stdout line one JSON object with `correct`, `attempted`, `failed`
and `metrics` (end-to-end metrics with --trace 0, per-layer metrics with
--trace 1).  With --trace 1 the recorded spans are written to
.bench_work/trace-<workload>-<seed>.json.  Exits 2 when ./src/quiverrep is
missing.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import subprocess
import sys

from common import WORK, add_program_to_path, end_to_end, program_present

WORKLOADS = ("verify_catalog", "generic_hom_ext", "cli_queries")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not program_present():
        print("error: quiverrep sources not found under ./src; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    add_program_to_path()
    workload = importlib.import_module(args.workload)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        tally, out = workload.run(args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in tally.failures[:20] + tally.problems[:20]:
        print(f"{args.workload}: {line}", file=sys.stderr)
    if args.trace:
        trace_file = WORK / f"trace-{args.workload}-{args.seed}.json"
        fields = ["name", "field", "start", "end", "parent", "op", "extra"]
        trace_file.write_text(json.dumps({"fields": fields, "spans": out["spans"]}))
        metrics = out["layers"]
    else:
        metrics = end_to_end(tally, out["setup_s"])
    result = {"correct": not tally.problems, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Run every workload in a fresh process, so that peak RSS and caches stay apart."""
    code = 0
    for name in WORKLOADS:
        argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run([sys.executable, __file__, *argv], stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            code = proc.returncode or 1
            continue
        print(json.dumps({"workload": name, **json.loads(lines[-1])}))
    return code


if __name__ == "__main__":
    sys.exit(main())
