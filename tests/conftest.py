"""Shared fixtures: quiver files on disk and cached verify-udr runs."""

from __future__ import annotations

import importlib.util
import io
import json
import sys
from contextlib import redirect_stdout, redirect_stderr
from pathlib import Path

import pytest
from hypothesis import Phase, settings, strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from quiverrep.cli import main
from quiverrep.dynkin import build_quiver
from quiverrep.formats import quiver_file_text
from quiverrep.quiver import Quiver

DIAGRAMS = (
    [("A", r) for r in range(1, 9)]
    + [("D", r) for r in range(4, 9)]
    + [("E", r) for r in (6, 7, 8)]
)


# Hypothesis without the shrink phase (and the explain phase, which reads the
# shrunk example): a failing test still fails, on the first example found
# rather than the smallest.  tools/mutations.py selects it with
# --hypothesis-profile, since it needs only whether its tests fail; every
# other run keeps the default profile.
settings.register_profile("no-shrink", phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target])


SHIPPED_QUIVERS = sorted((Path(__file__).parent.parent / "quivers").glob("*.quiver"))
# ranks, up to 40, on which the Sylvester pass and the root closure meet their oracles
A_AND_D_RANKS = {"A": list(range(1, 13)) + [16, 24, 32, 40], "D": list(range(4, 13)) + [16, 24, 32, 40]}


@st.composite
def quiver_st(draw):
    """Random quivers on 1 to 5 vertices with up to 6 arrows, loops and
    parallel arrows included."""
    n = draw(st.integers(1, 5))
    labels = tuple(f"v{i}" for i in range(n))
    n_arrows = draw(st.integers(0, 6))
    arrows = []
    for k in range(n_arrows):
        s = draw(st.integers(0, n - 1))
        t = draw(st.integers(0, n - 1))
        arrows.append((f"a{k}", s, t))
    return Quiver.from_edges(labels, arrows)


def load_tool(name: str):
    """tools/<name>.py as a module; tools/ is not a package."""
    path = Path(__file__).parent.parent / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """Invoke the CLI in-process, capturing stdout/stderr and the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="session")
def quiver_dir(tmp_path_factory) -> Path:
    """Directory of quiver files for every diagram and orientation scheme."""
    from quiverrep.dynkin import orientation_schemes

    root = tmp_path_factory.mktemp("quivers")
    for letter, rank in DIAGRAMS:
        for scheme in orientation_schemes(letter, rank):
            q = build_quiver(letter, rank, scheme)
            (root / f"{letter}{rank}_{scheme}.quiver").write_text(quiver_file_text(q))
    return root


class VerifyCache:
    """Memoized verify-udr CLI runs keyed by (letter, rank, scheme, field)."""

    def __init__(self, quiver_dir: Path):
        self.quiver_dir = quiver_dir
        self._memo: dict[tuple, dict] = {}

    def result(self, letter: str, rank: int, scheme: str, field: str) -> dict:
        key = (letter, rank, scheme, field)
        if key not in self._memo:
            path = self.quiver_dir / f"{letter}{rank}_{scheme}.quiver"
            code, out, err = run_cli(
                ["verify-udr", str(path), "--field", field, "--format", "json"]
            )
            assert code == 0, f"verify-udr failed for {key}: exit {code}, {err}"
            self._memo[key] = json.loads(out)["result"]
        return self._memo[key]


@pytest.fixture(scope="session")
def verify_cache(quiver_dir) -> VerifyCache:
    return VerifyCache(quiver_dir)


@pytest.fixture(scope="session")
def golden_a3() -> str:
    return (Path(__file__).parent / "golden" / "a3_verify_udr.json").read_text(encoding="utf-8")
