"""Paths, CLI process launching, the round loop and the tally every workload shares."""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# No console script is installed and `python -m quiverrep` has no __main__,
# so a CLI call is `python -c` running quiverrep.cli.main on the argv.
CLI_CODE = "import sys; from quiverrep.cli import main; sys.exit(main(sys.argv[1:]))"
CALL_TIMEOUT_S = 60
SETUP_REPEATS = 5


def program_present() -> bool:
    return (SRC / "quiverrep" / "cli.py").is_file()


def add_program_to_path() -> None:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class CliCall:
    code: int
    stdout: str
    stderr: str
    wall: float
    trace: dict | None = None  # {"import_s", "spans"} from a traced child


class Cli:
    """Runs one quiverrep CLI process at a time, optionally under the span tracer."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = child_env()
        self._calls = 0

    def __call__(self, argv: list[str], traced: bool = False) -> CliCall:
        spans_file = None
        if traced:
            self._calls += 1
            spans_file = self.workdir / f"spans-{self._calls}.json"
            cmd = [sys.executable, str(HERE / "tracecli.py"), str(spans_file), *argv]
        else:
            cmd = [sys.executable, "-c", CLI_CODE, *argv]
        t0 = time.perf_counter()
        proc = subprocess.run(
            cmd, capture_output=True, text=True, env=self.env, cwd=ROOT, timeout=CALL_TIMEOUT_S
        )
        wall = time.perf_counter() - t0
        trace = None
        if spans_file is not None:
            trace = json.loads(spans_file.read_text())
            spans_file.unlink()
        return CliCall(proc.returncode, proc.stdout, proc.stderr, wall, trace)


@dataclass
class Tally:
    """Operations run and failed, and the checks that did not hold."""

    ops: list = field(default_factory=list)  # (kind, wall seconds, traced) per operation that ran
    failed: int = 0
    problems: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.ops) + self.failed

    def record(self, kind, wall: float, traced: bool = False) -> None:
        """`kind` is "Q", "Fp", or None for an operation that takes no field."""
        self.ops.append((kind, wall, traced))

    def fail(self, what: str) -> None:
        self.failed += 1
        self.failures.append(what)

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.problems.append(what)
        return ok


def report_result(tally: Tally, call: CliCall, what: str):
    """The `result` of a JSON report on stdout, or None (and a check failure) if there is none."""
    try:
        return json.loads(call.stdout)["result"]
    except (ValueError, KeyError, TypeError):
        tally.check(False, f"{what}: stdout is not a JSON report: {call.stdout[:80]!r}")
        return None


def run_rounds(seconds: float, one_round, trace: bool) -> None:
    """Run whole rounds until `seconds` have passed.

    `one_round(r, key, traced)` draws its inputs from `key`.  With tracing,
    rounds come in pairs on the same inputs, the first traced and the second
    not, so the difference between the two is the tracing overhead.
    """
    start = time.perf_counter()
    r = 0
    while (trace and r % 2) or time.perf_counter() - start < seconds:
        one_round(r, r // 2 if trace else r, trace and r % 2 == 0)
        r += 1


def timed_setups(setup):
    """Run `setup` SETUP_REPEATS times; returns (last result, median seconds)."""
    times = []
    result = None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        result = setup()
        times.append(time.perf_counter() - t0)
    return result, statistics.median(times)


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for, in MB."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def end_to_end(tally: Tally, setup_s: float) -> dict:
    def metric(value, unit):
        return {"value": value, "unit": unit}

    def walls(kind):
        return [w for k, w, _ in tally.ops if k == kind]

    return {
        "setup_s": metric(setup_s, "s"),
        "op_q_s": metric(statistics.median(walls("Q")), "s"),
        "op_fp_s": metric(statistics.median(walls("Fp")), "s"),
        "ops_per_s": metric(tally.attempted / sum(w for _, w, _ in tally.ops), "1/s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }


def field_kind(token: str) -> str:
    return "Q" if token == "Q" else "Fp"
