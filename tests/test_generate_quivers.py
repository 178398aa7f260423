"""The shipped quivers/ directory is exactly what tools/generate_quivers.py writes."""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_tool():
    spec = importlib.util.spec_from_file_location("generate_quivers", ROOT / "tools" / "generate_quivers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_shipped_quivers_regenerate_unchanged():
    expected = _load_tool().quiver_files()
    shipped = {p.name: p.read_text() for p in (ROOT / "quivers").iterdir()}
    assert sorted(shipped) == sorted(expected)
    for name, text in expected.items():
        assert shipped[name] == text, name
