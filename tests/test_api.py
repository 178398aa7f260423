"""The package API: the union of the six modules' `__all__`, with no name shadowed."""

from __future__ import annotations

import itertools

import quiverrep
from quiverrep import deform, indec, linalg, quiver, rep, roots

MODULES = (linalg, quiver, roots, rep, indec, deform)


def test_no_name_is_exported_by_two_modules():
    for a, b in itertools.combinations(MODULES, 2):
        assert not set(a.__all__) & set(b.__all__), (a.__name__, b.__name__)


def test_package_exports_every_module_name_and_nothing_else():
    assert sorted(quiverrep.__all__) == sorted(["__version__", *(n for m in MODULES for n in m.__all__)])
    for m in MODULES:
        for name in m.__all__:
            assert getattr(quiverrep, name) is getattr(m, name)


def test_rref_stays_in_linalg_only():
    from quiverrep.linalg import rref

    assert callable(rref)
    assert "rref" not in quiverrep.__all__
