"""cli_queries: a seeded mix of short CLI processes across A/D/E quivers in three orientations.

A round has twelve calls.  For each of Q and a prime field drawn from F2,
F3, F5: `indec --dim` twice (its `.rep` output is saved), `ext` reading
those two files back, and `verify-udr --dim`.  Then `classify` and
`roots --format json` on random Dynkin quivers, `classify` on an
infinite-type control (documented exit 2), and `indec` on twice a root,
which is not a root (documented exit 3).
"""

from __future__ import annotations

import random

import oracle
from common import Cli, Tally, field_kind, report_result, run_rounds, timed_setups
from inputs import DYNKIN, ORIENTATIONS, dynkin_quiver, infinite_controls
from layertrace import Tracer, layer_metrics

OWN_HOM_MAX_DOMAIN = 40  # recompute dim Hom independently when the Hom domain is at most this


def run(seed: int, seconds: float, trace: bool, workdir) -> tuple[Tally, dict]:
    rng = random.Random(f"cli_queries:{seed}")
    finite = [dynkin_quiver(rng, letter, rank, scheme) for letter, rank in DYNKIN for scheme in ORIENTATIONS]
    controls = infinite_controls(rng)
    cli = Cli(workdir)
    tally = Tally()
    tracer = Tracer()
    processes = []

    def setup():
        paths = {}
        for spec in finite + controls:
            path = workdir / f"{spec.name}.quiver"
            path.write_text(spec.text())
            paths[spec.name] = str(path)
        roots = {spec.name: oracle.positive_roots(spec.n, spec.arrows) for spec in finite}
        call = cli(["roots", paths[finite[-1].name], "--format", "json"])
        tally.check(call.code == 0, f"set-up roots call exited {call.code}")
        return paths, roots

    (paths, roots), setup_s = timed_setups(setup)

    def call(kind, traced, argv, what, expect_code=0):
        """One CLI operation; returns the finished call when it exited as expected, else None."""
        try:
            c = cli(argv, traced=traced)
        except Exception as exc:  # a crashed or hung call is a failed operation
            tally.fail(f"{what}: {exc!r}")
            return None
        tally.record(kind, c.wall, traced)
        if traced:
            tracer.merge(c.trace["spans"], tally.attempted)
            processes.append((c.wall, c.trace["import_s"]))
        if not tally.check(c.code == expect_code, f"{what}: exit {c.code}, expected {expect_code}: {c.stderr.strip()[:120]}"):
            return None
        return c

    def field_block(rr, token, traced, r):
        kind = field_kind(token)
        spec = rr.choice(finite)
        rs = roots[spec.name]
        reps = []
        for tag in ("a", "b"):
            d = rr.choice(rs)
            what = f"indec {spec.name} {d} {token}"
            c = call(kind, traced, ["indec", paths[spec.name], "--dim", ",".join(map(str, d)), "--field", token], what)
            if c is None:
                return
            fld, dims, maps = oracle.parse_rep_text(c.stdout, spec.labels, spec.arrow_ids)
            tally.check((fld, tuple(dims)) == (token, d), f"{what}: emitted {fld} {dims}")
            path = workdir / f"r{r}-{token}-{tag}.rep"
            path.write_text(c.stdout)
            reps.append((path, dims, maps))
        (pa, da, ma), (pb, db, mb) = reps
        what = f"ext {spec.name} {da} -> {db} {token}"
        c = call(kind, traced, ["ext", paths[spec.name], "--from", str(pa), "--to", str(pb), "--format", "json"], what)
        res = c and report_result(tally, c, what)
        if res:
            euler = oracle.euler_form(spec.n, spec.arrows, da, db)
            tally.check(
                res["hom_dim"] - res["ext_dim"] == euler == res["euler_form"],
                f"{what}: hom {res['hom_dim']} - ext {res['ext_dim']} vs <d,e> {euler}",
            )
            if sum(x * y for x, y in zip(da, db)) <= OWN_HOM_MAX_DOMAIN:
                p = 0 if token == "Q" else int(token[1:])

                def mats(maps, dims):
                    return [maps.get(aid, [[0] * dims[s] for _ in range(dims[t])]) for aid, (s, t) in zip(spec.arrow_ids, spec.arrows)]

                own, _ = oracle.hom_dim(spec.arrows, mats(ma, da), mats(mb, db), da, db, spec.n, p)
                tally.check(own == res["hom_dim"], f"{what}: own Gauss rank gives hom {own}")
        d = rr.choice(rs)
        what = f"verify-udr {spec.name} {d} {token}"
        c = call(kind, traced, ["verify-udr", paths[spec.name], "--field", token, "--dim", ",".join(map(str, d)), "--format", "json"], what)
        res = c and report_result(tally, c, what)
        if res:
            tally.check(
                (tuple(res["root"]), res["end_dim"], res["ext_dim"], res["verdict"]) == (d, 1, 0, "isomorphic_to_k"),
                f"{what}: got {res}",
            )

    def one_round(r: int, key: int, traced: bool) -> None:
        rr = random.Random(f"cli_queries:{seed}:{key}")
        field_block(rr, "Q", traced, r)
        field_block(rr, rr.choice(("F2", "F3", "F5")), traced, r)

        spec = rr.choice(finite)
        what = f"classify {spec.name}"
        c = call(None, traced, ["classify", paths[spec.name], "--format", "json"], what)
        res = c and report_result(tally, c, what)
        if res:
            tally.check(res == {"finite": True, "components": [spec.dynkin]}, f"{what}: got {res}")

        spec = rr.choice(finite)
        what = f"roots {spec.name}"
        c = call(None, traced, ["roots", paths[spec.name], "--format", "json"], what)
        res = c and report_result(tally, c, what)
        if res:
            letter, rank = spec.dynkin[0], int(spec.dynkin[1:])
            expected = roots[spec.name]
            tally.check(
                res["count"] == oracle.root_count(letter, rank) == len(expected)
                and [tuple(x) for x in res["roots"]] == expected,
                f"{what}: count {res['count']} or roots differ from enumeration",
            )

        spec = rr.choice(controls)
        what = f"classify {spec.name}"
        c = call(None, traced, ["classify", paths[spec.name], "--format", "json"], what, expect_code=2)
        res = c and report_result(tally, c, what)
        if res:
            tally.check(res["finite"] is False, f"{what}: reported finite")

        spec = rr.choice(finite)
        d = tuple(2 * x for x in rr.choice(roots[spec.name]))
        tally.check(oracle.euler_form(spec.n, spec.arrows, d, d) != 1, f"{d} is a root of {spec.name}")
        what = f"indec {spec.name} {d} (not a root)"
        call("Q", traced, ["indec", paths[spec.name], "--dim", ",".join(map(str, d)), "--field", "Q"], what, expect_code=3)

    run_rounds(seconds, one_round, trace)
    layers = {}
    if trace:
        layers = layer_metrics(tracer.spans, tally, processes)
    return tally, {"setup_s": setup_s, "layers": layers, "spans": tracer.spans}
