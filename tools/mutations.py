"""Rerun the recorded mutation checks: each mutation must make its tests fail.

MUTATIONS lists one entry per mutation: a name, the file it changes, the
exact old text (which must occur exactly once in that file), the new text,
and the ids of the tests expected to fail on it.  For each mutation the
harness copies the tree (src, tests, tools, quivers, pyproject.toml) to a
temporary directory, applies the mutation there and runs only its listed
tests, under the Hypothesis profile `no-shrink` of tests/conftest.py, which
reports the first failing example without shrinking it.  A mutation is
killed when pytest reports failures (exit 1); it survives when the tests
pass, and any other pytest exit (a test id that is not found, a collection
error), or a run longer than TIMEOUT_S seconds, is reported as an error.
Nothing in the checkout is modified.  Run from the repository root:

    python tools/mutations.py

The exit status is 0 when every old text matches exactly once and every
mutation is killed, else 1.  Only the standard library is used, apart
from the pytest that the tests run under.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "tools", "quivers", "pyproject.toml")

CLI = "src/quiverrep/cli.py"
LINALG = "src/quiverrep/linalg.py"
REP = "src/quiverrep/rep.py"
QUIVER = "src/quiverrep/quiver.py"
ROOTS = "src/quiverrep/roots.py"
INDEC = "src/quiverrep/indec.py"
FORMATS = "src/quiverrep/formats.py"
CLI_GOLDEN = "tests/test_cli.py::TestDeterminism::test_transcript_matches_the_golden_file"
MEMO = "tests/test_pair_memo.py"
CLOSED_FORM = "tests/test_closed_form.py"
VALUE = "src/quiverrep/value.py"
VALUES = "tests/test_values.py::test_value_semantics"
KERNEL = "tests/test_linalg.py::test_kernel_exactness_and_rref_idempotence"
SOLVE = "tests/test_linalg.py::test_solve_verifies_by_substitution"
ENGINE = "tests/test_linalg.py::test_rank_engine_matches_the_direct_elimination"
SHARED_WALKS = "tests/test_indec.py::TestSharedWalks::test_catalog_equals_per_root_rebuild"

# Seconds one mutation's test run may take.  The slowest run, mutated or
# not, takes 4 to 7 s on two cores of a Xeon.
TIMEOUT_S = 120

# (name, file, old text, new text, test ids expected to fail)
MUTATIONS = [
    (
        "report-json-table-swapped",
        CLI,
        'if args.format == "json":',
        'if args.format != "json":',
        ["tests/test_cli.py::TestClassify", CLI_GOLDEN],
    ),
    (
        "udr-failure-count-inverted",
        CLI,
        "verified += report.verdict is UDRVerdict.ISOMORPHIC_TO_K",
        "verified += report.verdict is not UDRVerdict.ISOMORPHIC_TO_K",
        ["tests/test_cli.py::TestVerifyUDR", CLI_GOLDEN],
    ),
    (
        "udr-theorem-line-dropped",
        CLI,
        '        lines.append(f"THEOREM VERIFIED: {verified}/{total} indecomposables have R(kQ,M) ≅ k")\n',
        "",
        ["tests/test_cli.py::TestVerifyUDR", CLI_GOLDEN],
    ),
    (
        "udr-dim-result-as-list",
        CLI,
        "result = entries[0]",
        "result = entries",
        [CLI_GOLDEN],
    ),
    (
        "seed-type-int",
        CLI,
        '"--seed", type=_seed,',
        '"--seed", type=int,',
        ["tests/test_cli.py::TestUsageErrors::test_usage_error_exit_6_one_line"],
    ),
    (
        "seed-overlong-not-caught",
        CLI,
        "with suppress(ValueError):",
        "with suppress():",
        ["tests/test_cli.py::TestUsageErrors::test_overlong_seed_is_an_invalid_int_value"],
    ),
    (
        "coboundary-without-full-rank-answer",
        REP,
        "phi_rows, dom = _phi_unless_full(M, N, onto=True)",
        "dom = _phi_size(M, N)[1]\n    phi_rows = _dense(_phi_rows(M, N), range(dom))",
        ["tests/test_rep.py::test_is_coboundary_builds_phi_once_when_phi_is_not_onto"],
    ),
    (
        "pair-slot-keyed-on-n-alone",
        REP,
        "if facts[0] is M and facts[1] is N:",
        "if facts[1] is N:",
        [f"{MEMO}::test_the_slot_is_keyed_by_both_objects", f"{MEMO}::test_interleaved_questions_match_the_memo_free_path"],
    ),
    (
        "pair-slot-lower-bound-taken-for-the-rank",
        REP,
        "facts[5] = r if M.field.char or r == bound else None",
        "facts[5] = r",
        [f"{MEMO}::test_the_residue_pair_in_every_order", f"{MEMO}::test_interleaved_questions_match_the_memo_free_path"],
    ),
    (
        "pair-slot-ranks-a-shape-that-cannot-be-full",
        REP,
        "if r is None and n == bound:",
        "if r is None:",
        [f"{MEMO}::test_no_question_or_run_of_three_eliminates_more_than_before"],
    ),
    (
        "z-pipeline-without-bareiss",
        LINALG,
        "if done >= bound or not rest:",
        "if done >= bound or not rest or not p:",
        [
            "tests/test_linalg.py::test_rank_engine_matches_the_direct_elimination",
            "tests/test_linalg.py::test_rank_lost_mod_the_residue_prime_comes_from_bareiss",
        ],
    ),
    (
        "z-fallback-on-every-rational-rank",
        LINALG,
        "return r if field.char or r == bound else _rank_mod(rows, 0, bound)",
        "return r if field.char else _rank_mod(rows, 0, bound)",
        ["tests/test_rep.py::test_full_rank_rational_pair_needs_no_bareiss"],
    ),
    (
        "bareiss-skipped-pivot-row-not-caught-up",
        LINALG,
        "            piv_row[c:] = [a * prev // then for a in piv_row[c:]]\n",
        "            pass\n",
        [
            "tests/test_linalg.py::test_deferred_bareiss_leaves_the_eager_echelon",
            "tests/test_linalg.py::test_a_skipped_row_is_caught_up_when_it_becomes_the_pivot_row",
        ],
    ),
    (
        "bareiss-update-skips-the-division",
        LINALG,
        "ri[c:] = [(a * piv - f * b) // then for a, b in zip(ri[c:], piv_tail)]",
        "ri[c:] = [(a * piv - f * b) for a, b in zip(ri[c:], piv_tail)]",
        ["tests/test_linalg.py::test_deferred_bareiss_leaves_the_eager_echelon"],
    ),
    (
        "unit-phase-reads-stale-indices",
        LINALG,
        "targets = [i for i in colrows.pop(pc, ()) if pc in rows[i]]",
        "targets = list(colrows.pop(pc, ()))",
        ["tests/test_linalg.py::test_rank_engine_matches_the_direct_elimination"],
    ),
    (
        "pair-size-from-m-alone",
        FORMATS,
        "cod, dom = _phi_size(M, N)",
        "cod, dom = _phi_size(M, M)",
        ["tests/test_formats.py::test_pair_size_is_phi_size"],
    ),
    (
        "ragged-literal-reports-first-row-length",
        FORMATS,
        """        if any(len(r) != len(data[0]) for r in data):  # ragged: name the first row that does not fit
            got = next(f"row {i} of length {len(r)}" for i, r in enumerate(data, 1) if len(r) != cols)
""",
        "",
        ["tests/test_formats.py::TestRepFile::test_wrong_shape_names_what_is_wrong"],
    ),
    (
        "sink-reads-incoming",
        QUIVER,
        "return not self.outgoing[i]",
        "return not self.incoming[i]",
        ["tests/test_indec.py::TestReflectAtSink"],
    ),
    (
        "component-edges-from-the-whole-quiver",
        QUIVER,
        "    in_comp = set(comp)\n",
        "    in_comp = set(range(Q.vertex_count))\n",
        [f"{CLOSED_FORM}::test_the_tables_cover_the_shipped_finite_quivers", f"{CLOSED_FORM}::test_three_questions_on_sampled_pairs"],
    ),
    (
        "legs-counted-from-zero",
        QUIVER,
        "        length = 1\n",
        "        length = 0\n",
        ["tests/test_quiver.py::TestClassify"],
    ),
    (
        "parallel-arrows-counted-once",
        QUIVER,
        "if cnt > 1:",
        "if cnt > 2:",
        ["tests/test_quiver.py::TestClassify"],
    ),
    (
        "rebuild-keeps-every-phase",
        INDEC,
        "if s % n == 0:",
        "if True:",
        [SHARED_WALKS],
    ),
    (
        "catalog-keeps-thread-simples",
        INDEC,
        "sum(d) > 1",
        "sum(d) > 0",
        [SHARED_WALKS],
    ),
    (
        "quiver-equality-reads-name",
        QUIVER,
        '_key = attrgetter("labels", "arrows")',
        '_key = attrgetter("labels", "arrows", "name")',
        [VALUES],
    ),
    (
        "value-ignores-a-class-key",
        VALUE,
        'if "_key" not in cls.__dict__:',
        "if True:",
        [VALUES],
    ),
    (
        # The kronecker test of `roots` would not end under this mutation: the
        # closure of its real roots is infinite.  A loop's closure is finite.
        "finite-type-gate-open",
        QUIVER,
        "if not verdict.finite:",
        "if False:",
        ["tests/test_cli.py::TestRoots::test_loop_exit_2", "tests/test_cli.py::TestIndec::test_infinite_type_exit_2"],
    ),
    (
        "finite-type-reason-names-enumeration",
        QUIVER,
        '; quiver has infinite representation type")',
        '; root enumeration would not terminate")',
        ["tests/test_cli.py::TestInfiniteTypeRefusal"],
    ),
    (
        "positive-roots-returns-a-list",
        ROOTS,
        "return tuple(sorted(seen))",
        "return sorted(seen)",
        ["tests/test_roots.py"],
    ),
    (
        "reflected-neighbour-sum-sign",
        ROOTS,
        "return -d[i] - sum(b * d[j] for j, b in Q.neighbours[i])",
        "return -d[i] + sum(b * d[j] for j, b in Q.neighbours[i])",
        ["tests/test_roots.py::TestSimpleReflection", "tests/test_indec.py::TestConstructIndecomposable"],
    ),
    (
        "setattr-does-not-refuse",
        VALUE,
        'raise AttributeError(f"cannot assign to field {name!r}")',
        "object.__setattr__(self, name, value)",
        [VALUES],
    ),
    (
        # isinstance(other, self.__class__) would be equivalent here: no value
        # class has a subclass.
        "value-equality-isinstance-class-test",
        VALUE,
        "if other.__class__ is self.__class__:",
        "if isinstance(other, Value):",
        [VALUES],
    ),
    (
        "classification-default-changed",
        QUIVER,
        "witness: str | None = None):",
        'witness: str | None = ""):',
        [VALUES],
    ),
    (
        "repr-without-field-names",
        VALUE,
        'args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)',
        'args = ", ".join(repr(getattr(self, f)) for f in self._fields)',
        [VALUES],
    ),
    (
        "quiver-imports-dataclasses",
        QUIVER,
        "from functools import cached_property\n",
        "import dataclasses\nfrom functools import cached_property\n",
        ["tests/test_cli.py::TestModuleEntry::test_import_loads_no_dataclass_machinery"],
    ),
    (
        # The key dropping `maps` alone survives test_values.py, whose changed
        # Representation also differs in `dims`; this drops every class's last
        # field, `Representation.maps` among them.
        "value-key-drops-the-last-field",
        VALUE,
        "cls._key = attrgetter(*cls._fields)",
        "cls._key = attrgetter(*cls._fields[:-1] or cls._fields)",
        [VALUES],
    ),
    (
        "value-equality-always-true",
        VALUE,
        "return self._key(self) == self._key(other)",
        "return True",
        [VALUES],
    ),
    (
        "canon-int-unreduced-mod-p",
        LINALG,
        "return x % p if p else x",
        "return x",
        ["tests/test_linalg.py::test_prime_field_entries_reduced", "tests/test_linalg.py::test_bulk_canonicalization_equals_canon_per_entry"],
    ),
    (
        "pair-slot-keeps-the-residue-rank",
        REP,
        "r = facts[5] = _rank_of(M.field, _phi_rows(M, N), bound)",
        "r = facts[5] = _rank_lower_bound(M.field, _phi_rows(M, N), bound)",
        [f"{MEMO}::test_the_residue_pair_in_every_order"],
    ),
    (
        "cochain-check-skips-the-field",
        REP,
        "if m.rows != rows or m.cols != cols or m.field != M.field:",
        "if m.rows != rows or m.cols != cols:",
        ["tests/test_rep.py::TestIsCoboundary::test_shape_mismatch", "tests/test_deform.py::TestMakeLift::test_wrong_field"],
    ),
    # The back substitution (8291752).
    (
        "back-substitution-sign",
        LINALG,
        "acc = [a - f * b for a, b in zip(acc, ys[l])]",
        "acc = [a + f * b for a, b in zip(acc, ys[l])]",
        [KERNEL, SOLVE],
    ),
    (
        "back-substitution-without-mod-p",
        LINALG,
        "            acc = [a % p for a in acc]\n",
        "            pass\n",
        ["tests/test_linalg.py::test_rational_elimination_matches_textbook_gauss_jordan", SOLVE],
    ),
    (
        "back-substitution-wrong-d",
        LINALG,
        "big_d = rows_[r - 1][pivots[-1]] if r else 1",
        "big_d = rows_[0][pivots[0]] if r else 1",
        [KERNEL, SOLVE],
    ),
    (
        "back-substitution-skips-a-row",
        LINALG,
        "for l in range(k + 1, r):",
        "for l in range(k + 2, r):",
        [KERNEL, SOLVE],
    ),
    (
        "kernel-entries-not-negated",
        LINALG,
        "v[pc] = (-row[t]) % p if p else -row[t]",
        "v[pc] = row[t] % p if p else row[t]",
        [KERNEL, "tests/test_linalg.py::TestKernel"],
    ),
    # The rank engine (374ffc5).
    (
        "unit-phase-any-nonzero-pivot-over-z",
        LINALG,
        "units = targets if p else [i for i in targets if rows[i][pc] in (1, -1)]",
        "units = targets",
        [ENGINE],
    ),
    (
        "residue-rank-without-bareiss-fallback",
        LINALG,
        "return r if field.char or r == bound else _rank_mod(rows, 0, bound)",
        "return r",
        [ENGINE, "tests/test_linalg.py::test_rank_lost_mod_the_residue_prime_comes_from_bareiss"],
    ),
    (
        "pair-slot-without-the-end-bound",
        REP,
        "min(cod, dom - 1 if dom and M == N else dom)",
        "min(cod, dom)",
        [f"{MEMO}::test_no_question_or_run_of_three_eliminates_more_than_before", "tests/test_rep.py::test_end_bound_spares_bareiss"],
    ),
    # Phi read once (a76dc36).
    (
        "cokernel-without-transpose",
        LINALG,
        "_echelon(field, [list(c) for c in zip(*rows_)], m)",
        "_echelon(field, rows_, m)",
        ["tests/test_linalg.py::TestCokernel", "tests/test_rep.py::test_basis_digests_match_the_golden_file"],
    ),
    (
        "full-rank-check-consumes-the-rows",
        REP,
        "_rank_lower_bound(M.field, [row.copy() for row in rows], bound)",
        "_rank_lower_bound(M.field, rows, bound)",
        [f"{MEMO}::test_interleaved_questions_match_the_memo_free_path", "tests/test_rep.py::test_is_coboundary_builds_phi_once_when_phi_is_not_onto"],
    ),
    (
        "integer-grammar-reads-any-digit",
        LINALG,
        'r"[+-]?[0-9]+"',
        'r"[+-]?\\d+"',
        ["tests/test_formats.py::TestRepFile::test_entries_outside_the_grammar_rejected"],
    ),
]


def check_texts(mutations=MUTATIONS) -> dict[str, str]:
    """By mutation name, what is wrong with each mutation whose old text does
    not occur exactly once in its file, or equals its new text."""
    problems = {}
    for name, path, old, new, _ in mutations:
        count = (ROOT / path).read_text(encoding="utf-8").count(old)
        if count != 1:
            problems[name] = f"old text occurs {count} times in {path}"
        elif old == new:
            problems[name] = "old and new text are equal"
    return problems


def run_mutation(path: str, old: str, new: str, tests: list[str]) -> tuple[str, str]:
    """Apply one mutation to a fresh copy of the tree and run its tests:
    ('killed' | 'survived' | 'error', pytest's last output line or the
    timeout)."""
    with tempfile.TemporaryDirectory(prefix="mutation-") as tmp:
        for part in COPIED:
            src, dst = ROOT / part, Path(tmp) / part
            if src.is_dir():
                shutil.copytree(src, dst, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(src, dst)
        target = Path(tmp) / path
        target.write_text(target.read_text(encoding="utf-8").replace(old, new, 1), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(Path(tmp) / "src"), PYTHONDONTWRITEBYTECODE="1")
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--hypothesis-profile=no-shrink", *tests],
                cwd=tmp,
                env=env,
                capture_output=True,
                text=True,
                timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return "error", f"timed out after {TIMEOUT_S} s"
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    outcome = {0: "survived", 1: "killed"}.get(proc.returncode, "error")
    return outcome, last


def main() -> int:
    problems = check_texts()
    for name, problem in problems.items():
        print(f"MISMATCH {name}: {problem}")
    chosen = [m for m in MUTATIONS if m[0] not in problems]
    bad = bool(problems)
    start = time.perf_counter()
    for name, path, old, new, tests in chosen:
        t = time.perf_counter()
        outcome, last = run_mutation(path, old, new, tests)
        bad |= outcome != "killed"
        print(f"{outcome.upper():8s} {name} ({time.perf_counter() - t:.1f} s): {last}", flush=True)
    print(f"{len(chosen)} mutations in {time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
