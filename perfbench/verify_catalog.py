"""verify_catalog: `verify-udr --format json` over the whole E8 catalog, one process per call.

A round runs the three E8 orientations over Q and over F3, six processes,
in a seeded order.  Each report must list exactly the benchmark's own root
enumeration with end=1, ext=0 and the verdict R(kQ,M) = k.
"""

from __future__ import annotations

import json
import random

import oracle
from common import Cli, Tally, field_kind, report_result, run_rounds, timed_setups
from inputs import ORIENTATIONS, dynkin_quiver
from layertrace import Tracer, layer_metrics

FIELDS = ("Q", "F3")


def _check_report(tally: Tally, call, spec, token: str, roots) -> None:
    what = f"verify-udr {spec.name} {token}"
    if not tally.check(call.code == 0, f"{what}: exit {call.code}: {call.stderr.strip()}"):
        return
    res = report_result(tally, call, what)
    if res is None:
        return
    doc = json.loads(call.stdout)
    tally.check(
        (doc["command"], doc["quiver"], doc["field"]) == ("verify-udr", spec.name, token),
        f"{what}: wrong envelope",
    )
    expected = oracle.root_count("E", 8)
    tally.check(
        res["total"] == res["verified"] == expected == len(roots) and res["theorem_holds"] is True,
        f"{what}: total/verified {res['total']}/{res['verified']}, expected {expected}",
    )
    tally.check([tuple(e["root"]) for e in res["entries"]] == roots, f"{what}: roots differ from enumeration")
    bad = [e["root"] for e in res["entries"] if (e["end_dim"], e["ext_dim"], e["verdict"]) != (1, 0, "isomorphic_to_k")]
    tally.check(not bad, f"{what}: end/ext/verdict wrong at {bad[:3]}")


def run(seed: int, seconds: float, trace: bool, workdir) -> tuple[Tally, dict]:
    rng = random.Random(f"verify_catalog:{seed}")
    specs = [dynkin_quiver(rng, "E", 8, scheme) for scheme in ORIENTATIONS]
    cli = Cli(workdir)
    tally = Tally()

    def setup():
        paths, expected = {}, {}
        for spec in specs:
            path = workdir / f"{spec.name}.quiver"
            path.write_text(spec.text())
            paths[spec.name] = str(path)
            expected[spec.name] = oracle.positive_roots(spec.n, spec.arrows)
            call = cli(["classify", paths[spec.name], "--format", "json"])
            what = f"classify {spec.name}"
            if tally.check(call.code == 0, f"{what}: exit {call.code}"):
                res = report_result(tally, call, what)
                tally.check(res == {"finite": True, "components": ["E8"]}, f"{what}: got {res}")
        return paths, expected

    (paths, expected), setup_s = timed_setups(setup)

    tracer = Tracer()
    processes = []

    def one_round(r: int, key: int, traced: bool) -> None:
        jobs = [(spec, token) for spec in specs for token in FIELDS]
        random.Random(f"verify_catalog:{seed}:{key}").shuffle(jobs)
        for spec, token in jobs:
            argv = ["verify-udr", paths[spec.name], "--field", token, "--format", "json"]
            try:
                call = cli(argv, traced=traced)
            except Exception as exc:  # a crashed or hung call is a failed operation
                tally.fail(f"verify-udr {spec.name} {token}: {exc!r}")
                continue
            tally.record(field_kind(token), call.wall, traced)
            if traced:
                tracer.merge(call.trace["spans"], tally.attempted)
                processes.append((call.wall, call.trace["import_s"]))
            _check_report(tally, call, spec, token, expected[spec.name])

    run_rounds(seconds, one_round, trace)
    layers = {}
    if trace:
        layers = layer_metrics(tracer.spans, tally, processes)
    return tally, {"setup_s": setup_s, "layers": layers, "spans": tracer.spans}
