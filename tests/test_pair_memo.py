"""The rank slot of `rep`: Hom/Ext questions about one (M, N) share one rank.

Every answer is checked against the memo-free path, the linalg engine
called directly on fresh `_phi_rows`, and the rank eliminations a question
or a run of three questions makes are counted against the routines as they
ran before the slot, one rank (or full-rank check) per question.
"""

from __future__ import annotations

import itertools
import random
import sys
import threading
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import quiverrep.linalg as linalg
import quiverrep.rep as rep
from quiverrep.dynkin import build_quiver, kronecker_quiver
from quiverrep.linalg import QQ, Field, Matrix, _RESIDUE_PRIME
from quiverrep.quiver import Quiver
from quiverrep.rep import Representation, ext1_space, hom_ext_dims, hom_space, is_coboundary

F2, F3 = Field(2), Field(3)
A2 = build_quiver("A", 2)
QUIVERS = [
    A2,
    build_quiver("A", 3, "alternating"),
    build_quiver("D", 4),
    kronecker_quiver(),
    Quiver.from_edges(("1", "2"), (("a1", 0, 0), ("a2", 0, 1), ("a3", 1, 0))),
]
QUESTIONS = ("dims", "hom", "ext", "coboundary")


def _residue_pair() -> tuple[Representation, Representation]:
    """S = k at vertex 1 of A2 and N = (k^2, k^2) with the arrow map
    [[1, 2], [3, 6 + q]], q the residue prime: Phi is that matrix, of rank 2
    over Q and 1 mod q, so the rank needs the pipeline over Z."""
    q = _RESIDUE_PRIME
    S = Representation.simple(A2, QQ, 0)
    N = Representation(A2, QQ, (2, 2), [Matrix(QQ, 2, 2, [1, 2, 3, 6 + q])])
    return S, N


def _copy(M: Representation) -> Representation:
    """A representation equal to M that is not M."""
    return Representation(M.quiver, M.field, M.dims, M.maps)


def _cocycle(M, N, kind: str, rng: random.Random) -> tuple[Matrix, ...]:
    """A zero cocycle, a random one, or the coboundary of a random u."""
    cod, dom = rep._phi_size(M, N)
    p = M.field.char
    if kind == "zero":
        vec = [0] * cod
    elif kind == "random":
        vec = [rng.randrange(p) if p else rng.randint(-3, 3) for _ in range(cod)]
    else:
        u = [rng.randrange(p) if p else Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(dom)]
        vec = [sum(x * u[c] for c, x in row.items()) for row in rep._phi_rows(M, N)]
    return rep._split(vec, rep._arrow_shapes(M, N), M.field)


def _flat(mats) -> tuple:
    return tuple(x for m in mats for x in m.entries)


def _memo_free(question: str, M, N, eta):
    """The answer from the linalg engine on fresh rows, with no slot and no
    full-rank shortcut: bases and cocycles as flat coordinate tuples."""
    field = M.field
    cod, dom = rep._phi_size(M, N)
    rows = rep._phi_rows(M, N)
    if question == "dims":
        r = linalg._rank_of(field, rows, min(cod, dom))
        return dom - r, cod - r
    rows = linalg._dense(rows, range(dom))
    if question == "hom":
        return linalg._kernel_of_rows(field, rows, dom)
    if question == "ext":
        return linalg._cokernel_of_rows(field, rows)
    return linalg._solve_rows(field, rows, dom, [x for m in eta for x in m.entries]) is not None


def _ask(question: str, M, N, eta):
    """The same answer, through the slot."""
    if question == "dims":
        return hom_ext_dims(M, N)
    if question == "hom":
        return [_flat(u) for u in hom_space(M, N).basis]
    if question == "ext":
        return [_flat(c) for c in ext1_space(M, N).cocycles]
    return is_coboundary(M, N, eta)


def _random_rep(draw, q: Quiver, field: Field) -> Representation:
    dims = tuple(draw(st.lists(st.integers(0, 2), min_size=q.vertex_count, max_size=q.vertex_count)))
    p = field.char
    entry = st.integers(0, p - 1) if p else st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)])
    maps = []
    for a in q.arrows:
        r, c = dims[a.target], dims[a.source]
        maps.append(Matrix(field, r, c, draw(st.lists(entry, min_size=r * c, max_size=r * c))))
    return Representation(q, field, dims, maps)


@st.composite
def pair_traffic(draw):
    """A pool of representations on one quiver and field, and runs of
    questions, each about one pair from it, in drawn order.

    The pool holds random representations (zero dimensions and fractions
    included), one with the same dimensions and zero maps, and a copy equal
    to the first that is not the same object; or, over Q, the residue pair
    and a copy of its N.  Pairs are drawn with repetition, so M is N and M
    equal to N both occur.
    """
    field = draw(st.sampled_from([QQ, F2, F3]))
    if field == QQ and draw(st.booleans()):
        pool = list(_residue_pair())
        pool.append(_copy(pool[1]))
    else:
        q = draw(st.sampled_from(QUIVERS))
        pool = [_random_rep(draw, q, field) for _ in range(draw(st.integers(1, 3)))]
        pool += [Representation.from_maps(q, field, pool[0].dims), _copy(pool[0])]
    k = len(pool) - 1
    run = st.tuples(st.integers(0, k), st.integers(0, k), st.lists(st.sampled_from(QUESTIONS), min_size=1, max_size=4))
    runs = draw(st.lists(run, min_size=1, max_size=6))
    return pool, runs, draw(st.integers(0, 2**16))


@settings(max_examples=250, deadline=None)
@given(data=pair_traffic())
def test_interleaved_questions_match_the_memo_free_path(data):
    """Every answer, bases and cocycles entry for entry, whatever the slot
    held before it: runs of questions about one pair, as a caller asks them,
    with the pair changing between runs."""
    pool, runs, seed = data
    rng = random.Random(seed)
    for i, j, questions in runs:
        M, N = pool[i], pool[j]
        for question in questions:
            eta = _cocycle(M, N, rng.choice(["zero", "random", "image"]), rng) if question == "coboundary" else None
            assert _ask(question, M, N, eta) == _memo_free(question, M, N, eta), (question, i, j)


def test_the_residue_pair_in_every_order():
    """Each order of the four questions about the residue pair: a full-rank
    question first leaves the rank mod q (1, short of the bound 2) in the
    slot, and hom_ext_dims still answers the rank over Z."""
    rng = random.Random(3)
    for order in itertools.permutations(QUESTIONS):
        S, N = _residue_pair()
        for question in order:
            eta = _cocycle(S, N, "random", rng) if question == "coboundary" else None
            assert _ask(question, S, N, eta) == _memo_free(question, S, N, eta), order
        assert hom_ext_dims(S, N) == (0, 0)


def test_the_slot_is_keyed_by_both_objects():
    """Pairs that share N, or M, or are equal to the last pair, never read
    another pair's facts."""
    q = build_quiver("A", 3)
    one = Matrix(QQ, 1, 1, [1])
    simple = [Representation.simple(q, QQ, i) for i in range(3)]
    p12 = Representation.from_maps(q, QQ, (1, 1, 0), {"a1": one})
    for M, N in [(simple[0], p12), (simple[1], p12), (p12, simple[1]), (p12, simple[0]), (p12, _copy(p12))]:
        assert hom_ext_dims(M, N) == _memo_free("dims", M, N, None)
        assert hom_space(M, N).dimension == hom_ext_dims(M, N)[0]


# --- elimination counts against the routines without the slot -------------


def _before_the_slot(question: str, M, N, eta) -> None:
    """The question as it ran without the slot: hom_ext_dims ranks at its
    bound; the other three check full rank on a copy of the rows when Phi's
    shape allows it, and eliminate the rows when the check fails."""
    field = M.field
    cod, dom = rep._phi_size(M, N)
    rows = rep._phi_rows(M, N)

    def full(bound: int) -> bool:
        return linalg._rank_lower_bound(field, [r.copy() for r in rows], bound) == bound

    if question == "dims":
        linalg._rank_of(field, rows, min(cod, dom - 1 if dom and M == N else dom))
    elif question == "hom":
        if not (dom <= cod and full(dom)):
            linalg._kernel_of_rows(field, linalg._dense(rows, range(dom)), dom)
    elif not (cod <= dom and full(cod)):
        if question == "ext":
            linalg._cokernel_of_rows(field, linalg._dense(rows, range(dom)))
        else:
            linalg._solve_rows(field, linalg._dense(rows, range(dom)), dom, [x for m in eta for x in m.entries])


def _counting(monkeypatch) -> dict:
    counts = {"_bareiss_echelon": 0, "_unit_phase": 0}
    for name in counts:
        original = getattr(linalg, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(linalg, name, counted)
    return counts


def _count_pairs() -> list[tuple[Representation, Representation]]:
    """The residue pair, and on D5 and the quiver with a loop and a 2-cycle,
    over Q and F3: random modules against themselves, an equal copy, the
    same dimensions with zero maps, and the module drawn before them."""
    rng = random.Random(22)
    pairs = [_residue_pair()]
    for field in (QQ, F3):
        for q in (build_quiver("D", 5, "alternating"), QUIVERS[-1]):
            last = None
            for _ in range(3):
                dims = [rng.randint(0, 2) for _ in range(q.vertex_count)]
                shapes = {a.name: (dims[a.target], dims[a.source]) for a in q.arrows}
                maps = {name: Matrix(field, r, c, [rng.randint(-2, 2) for _ in range(r * c)]) for name, (r, c) in shapes.items()}
                M = Representation.from_maps(q, field, dims, maps)
                pairs += [(M, M), (M, _copy(M)), (M, Representation.from_maps(q, field, dims))]
                pairs += [(M, last), (last, M)] if last else []
                last = M
    return pairs


def test_no_question_or_run_of_three_eliminates_more_than_before(monkeypatch):
    """Each single question and each run of three questions (any of the four,
    repeats allowed) calls `_bareiss_echelon` and `_unit_phase` no more often
    than the same questions without the slot, on fresh copies of each pair."""
    rng = random.Random(5)
    counts = _counting(monkeypatch)
    fewer = 0
    for M0, N0 in _count_pairs():
        for run in itertools.chain(((q,) for q in QUESTIONS), itertools.product(QUESTIONS, repeat=3)):
            etas = [_cocycle(M0, N0, "random", rng) for _ in run]
            tallies = []
            for ask in (_before_the_slot, _ask):
                M = _copy(M0)
                N = M if N0 is M0 else _copy(N0)
                counts.update(dict.fromkeys(counts, 0))
                for question, eta in zip(run, etas):
                    ask(question, M, N, eta)
                tallies.append(dict(counts))
            before, now = tallies
            assert all(now[k] <= before[k] for k in counts), (run, M0.dims, N0.dims, before, now)
            fewer += now != before
    assert fewer > 0


def test_threads_asking_about_different_pairs_get_their_own_answers():
    """Four threads, more than the cores, each ask the three questions about
    their own pairs in a loop, with the interpreter switching threads every
    microsecond: no answer is another pair's."""
    rng = random.Random(8)
    q = build_quiver("D", 5, "alternating")
    pairs = []
    for field in (QQ, F3, QQ, F2):
        dims = [rng.randint(1, 2) for _ in range(5)]
        maps = {a.name: Matrix(field, dims[a.target], dims[a.source], [rng.randint(-2, 2) for _ in range(dims[a.target] * dims[a.source])]) for a in q.arrows}
        M = Representation.from_maps(q, field, dims, maps)
        pairs.append((M, Representation.from_maps(q, field, dims[::-1])))
    want = [(_memo_free("dims", M, N, None), _memo_free("hom", M, N, None), _memo_free("ext", M, N, None)) for M, N in pairs]
    wrong = []

    def ask(k: int) -> None:
        M, N = pairs[k]
        for _ in range(60):
            got = (_ask("dims", M, N, None), _ask("hom", M, N, None), _ask("ext", M, N, None))
            if got != want[k]:
                wrong.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask, args=(k,)) for k in range(len(pairs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
