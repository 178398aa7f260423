"""generic_hom_ext: in-process Hom/Ext on seeded random representations, plus lift checks.

A round makes, for each of Q and F101 and each of E7 and E8, one pair of
representations per height in PAIR_HEIGHTS: random roots of that height
with random arrow maps (entries in [-5, 5] over Q, uniform residues over
F101).  One operation is hom_ext_dims + hom_space + ext1_space on a pair.
It then runs, over Q and over F3, one lift check per height in LIFT_HEIGHTS
on a random perturbation of an E8 catalog indecomposable of that height
(each must be the trivial lift), and one negative control: a representation
with zero arrow maps, whose nonzero perturbations are never trivial.
Set-up parses the quivers and builds both E8 catalogs with cold lru_caches.

The seed picks roots and entries, never heights or orientations (both
quivers are linear): over Q the fraction-free elimination grows steeply with
height, so a seed that drew taller roots would measure different work.
Every round therefore does the same amount of work, from about 1 ms to
150 ms per operation.
"""

from __future__ import annotations

import random
import time

import oracle
from common import Tally, run_rounds, timed_setups
from inputs import dynkin_quiver, random_matrix
from layertrace import Tracer, clear_program_caches, layer_metrics

import quiverrep as qr
import quiverrep.formats

PAIR_HEIGHTS = {"E7": (9, 11, 13), "E8": (10, 13, 16)}
LIFT_HEIGHTS = (4, 8, 12, 16)
CONTROL_HEIGHT = 8
PAIR_FIELDS = (("Q", 0), ("Fp", 101))
LIFT_FIELDS = (("Q", 0), ("Fp", 3))


def _rows(m) -> list[list]:
    return [list(m.entries[i * m.cols : (i + 1) * m.cols]) for i in range(m.rows)]


def _field(p: int):
    return qr.Field(p) if p else qr.QQ


def _random_rep(rng, Q, spec, d, p):
    F = _field(p)
    mats = []
    for s, t in spec.arrows:
        rows = random_matrix(rng, d[t], d[s], p)
        mats.append(qr.Matrix(F, d[t], d[s], [x for r in rows for x in r]))
    return qr.Representation(Q, F, tuple(d), tuple(mats))


def _check_pair(tally, spec, M, N, hom, ext, hs, es, p, sampled) -> None:
    what = f"{spec.name} F{p} {M.dims} -> {N.dims}"
    n, arrows = spec.n, spec.arrows
    euler = oracle.euler_form(n, arrows, M.dims, N.dims)
    tally.check(hom - ext == euler, f"{what}: hom {hom} - ext {ext} != <d,e> {euler}")
    tally.check(hs.dimension == hom and es.dimension == ext, f"{what}: basis sizes differ from dims")
    m_maps, n_maps = [_rows(f) for f in M.maps], [_rows(g) for g in N.maps]
    for u in hs.basis:
        u_rows = [_rows(x) for x in u]
        tally.check(oracle.commutes(arrows, m_maps, n_maps, u_rows, M.dims, p), f"{what}: hom element does not commute")
    flat = [[x for m in u for x in m.entries] for u in hs.basis]
    tally.check(oracle.rank(flat, p) == hom, f"{what}: hom basis is dependent")
    if sampled:
        rows = oracle.commutation_rows(arrows, m_maps, n_maps, M.dims, N.dims, n)
        r = oracle.rank(rows, p)
        own_hom = sum(a * b for a, b in zip(M.dims, N.dims)) - r
        tally.check(own_hom == hom, f"{what}: own Gauss rank gives hom {own_hom}, program {hom}")
        image = [list(col) for col in zip(*rows)]
        cocycles = [[x for m in c for x in m.entries] for c in es.cocycles]
        tally.check(
            len(rows) - r == ext and oracle.rank(image + cocycles, p) == len(rows),
            f"{what}: Ext cocycles do not span the cokernel",
        )


def run(seed: int, seconds: float, trace: bool, workdir) -> tuple[Tally, dict]:
    rng = random.Random(f"generic_hom_ext:{seed}")
    specs = {name: dynkin_quiver(rng, "E", int(name[1]), "linear") for name in PAIR_HEIGHTS}
    e8 = specs["E8"]
    tally = Tally()
    tracer = Tracer()
    if trace:
        tracer.install()

    def setup():
        clear_program_caches()
        quivers = {name: qr.formats.parse_quiver_file(spec.text()) for name, spec in specs.items()}
        catalogs = {p: qr.all_indecomposables(quivers["E8"], _field(p)) for _, p in LIFT_FIELDS}
        return quivers, catalogs

    (quivers, catalogs), setup_s = timed_setups(setup)
    own_roots = {name: oracle.positive_roots(spec.n, spec.arrows) for name, spec in specs.items()}
    for p, cat in catalogs.items():
        tally.check(
            [r for r, _ in cat.entries] == own_roots["E8"] and all(M.dims == r for r, M in cat.entries),
            f"E8 catalog over F{p}: roots or dimensions differ from enumeration",
        )
    by_height = {name: {} for name in specs}
    for name, rs in own_roots.items():
        for d in rs:
            by_height[name].setdefault(sum(d), []).append(d)
    catalog_index = {p: {r: M for r, M in cat.entries} for p, cat in catalogs.items()}

    def timed(kind, traced, fn):
        tracer.op = tally.attempted + 1
        t0 = time.perf_counter()
        out = fn()
        wall = time.perf_counter() - t0
        tracer.op = None
        tally.record(kind, wall, traced)
        return out

    def one_round(r: int, key: int, traced: bool) -> None:
        rr = random.Random(f"generic_hom_ext:{seed}:{key}")
        if trace and not traced:
            tracer.uninstall()
        for kind, p in PAIR_FIELDS:
            for name, spec in specs.items():
                sample = rr.choice(PAIR_HEIGHTS[name])
                for h in PAIR_HEIGHTS[name]:
                    d, e = rr.choice(by_height[name][h]), rr.choice(by_height[name][h])
                    M = _random_rep(rr, quivers[name], spec, d, p)
                    N = _random_rep(rr, quivers[name], spec, e, p)
                    hom, ext, hs, es = timed(
                        kind, traced, lambda: (*qr.hom_ext_dims(M, N), qr.hom_space(M, N), qr.ext1_space(M, N))
                    )
                    _check_pair(tally, spec, M, N, hom, ext, hs, es, p, h == sample)
        for kind, p in LIFT_FIELDS:
            F = _field(p)
            for k, h in enumerate(LIFT_HEIGHTS):
                root = rr.choice(by_height["E8"][h])
                M = catalog_index[p][root]
                g = [qr.Matrix(F, f.rows, f.cols, [x for row in random_matrix(rr, f.rows, f.cols, p) for x in row]) for f in M.maps]
                iso = timed(kind, traced, lambda: qr.lifts_isomorphic(qr.make_lift(M, g), qr.trivial_lift(M)))
                tally.check(iso is True, f"E8 F{p} lift of indecomposable {root} is not trivial")
                if k == 0:
                    maps = [_rows(f) for f in M.maps]
                    end, rk = oracle.hom_dim(e8.arrows, maps, maps, root, root, e8.n, p)
                    cod = sum(root[s] * root[t] for s, t in e8.arrows)
                    tally.check((end, cod - rk) == (1, 0), f"E8 F{p} {root}: own End/Ext are {end}/{cod - rk}")
            # Negative control: zero arrow maps make every coboundary zero.
            d = rr.choice(by_height["E8"][CONTROL_HEIGHT])
            Z = qr.Representation.from_maps(quivers["E8"], F, d)
            g = [random_matrix(rr, d[t], d[s], p) for s, t in e8.arrows]
            k = next(k for k, (s, t) in enumerate(e8.arrows) if d[s] and d[t])
            g[k][0][0] = 1
            g = [qr.Matrix(F, d[t], d[s], [x for row in m for x in row]) for m, (s, t) in zip(g, e8.arrows)]
            iso = timed(kind, traced, lambda: qr.lifts_isomorphic(qr.make_lift(Z, g), qr.trivial_lift(Z)))
            tally.check(iso is False, f"E8 F{p} negative control {d}: nonzero perturbation of zero maps called trivial")
        if trace and not traced:
            tracer.install()

    run_rounds(seconds, one_round, trace)
    layers = {}
    if trace:
        tracer.uninstall()
        layers = layer_metrics(tracer.spans, tally, [])
    return tally, {"setup_s": setup_s, "layers": layers, "spans": tracer.spans}
