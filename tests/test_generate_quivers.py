"""The shipped quivers/ directory is exactly what tools/generate_quivers.py writes."""

from __future__ import annotations

from pathlib import Path

from conftest import load_tool

ROOT = Path(__file__).resolve().parent.parent


def test_shipped_quivers_regenerate_unchanged():
    expected = load_tool("generate_quivers").quiver_files()
    shipped = {p.name: p.read_text() for p in (ROOT / "quivers").iterdir()}
    assert sorted(shipped) == sorted(expected)
    for name, text in expected.items():
        assert shipped[name] == text, name
