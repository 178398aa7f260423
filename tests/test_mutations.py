"""tools/mutations.py: each recorded mutation still applies to the tree, and
names tests that exist.  The harness itself, which runs the tests on each
mutated copy, stays out of this suite because of its runtime; only its
timeout is checked, on a test run that is replaced."""

from __future__ import annotations

from pathlib import Path

from conftest import load_tool

ROOT = Path(__file__).parent.parent
mutations = load_tool("mutations")


def test_each_old_text_occurs_exactly_once():
    assert mutations.check_texts() == {}
    stale = [("stale", "src/quiverrep/cli.py", "no such text", "x", [])]
    assert mutations.check_texts(stale) == {"stale": "old text occurs 0 times in src/quiverrep/cli.py"}


def test_each_mutation_names_tests_that_exist():
    names = [m[0] for m in mutations.MUTATIONS]
    assert len(set(names)) == len(names)
    for name, _, _, _, tests in mutations.MUTATIONS:
        assert tests, name
        for test_id in tests:
            path, *parts = test_id.split("::")
            source = (ROOT / path).read_text(encoding="utf-8")
            for part in parts:
                assert f"class {part}" in source or f"def {part}(" in source, (name, test_id)


def test_a_run_that_times_out_is_an_error(monkeypatch):
    def timed_out(args, **kwargs):
        raise mutations.subprocess.TimeoutExpired(args, kwargs["timeout"])

    monkeypatch.setattr(mutations.subprocess, "run", timed_out)
    _, path, old, new, tests = mutations.MUTATIONS[0]
    assert mutations.run_mutation(path, old, new, tests) == ("error", f"timed out after {mutations.TIMEOUT_S} s")
