"""First-order deformations over the dual numbers and the deformation-ring verdict.

A lift of M replaces each arrow map f_a by f_a + eps*g_a with eps^2 = 0; it
is free over k[eps] on the chosen basis of M and reduces to M exactly.  Two
lifts of the same M are isomorphic (compatibly with the identification back
to M) precisely when their perturbations differ by a coboundary, so the
tangent space is Ext^1(M, M) and its dimension bounds the generators of any
deformation ring.  When End(M) = k and Ext^1(M, M) = 0 the ring is the
ground field itself.

A perturbation is a cochain of the commutation map Phi(M, M): one matrix per
arrow, shaped like that arrow's map.  `make_lift` refuses any other with the
same check `rep.is_coboundary` makes on its cocycle, and the tangent space
dimension is `udr_report`'s Ext^1 dimension.
"""

from __future__ import annotations

from enum import Enum
from typing import Sequence

from .errors import MismatchError
from .linalg import Matrix
from .quiver import Quiver
from .rep import Representation, _check_cochain, hom_ext_dims, is_coboundary
from .value import Value, setfield

__all__ = [
    "DualNumberLift",
    "UDRVerdict",
    "UDRReport",
    "tangent_space_dim",
    "make_lift",
    "trivial_lift",
    "lifts_isomorphic",
    "udr_report",
]


class DualNumberLift(Value):
    """A module over k[eps] x quiver algebra: arrow action f_a + eps*g_a."""

    _fields = ("base", "perturbation")

    def __init__(self, base: Representation, perturbation: Sequence[Matrix]):
        setfield(self, "base", base)
        setfield(self, "perturbation", tuple(perturbation))


class UDRVerdict(Enum):
    ISOMORPHIC_TO_K = "isomorphic_to_k"
    QUOTIENT_OF_POWER_SERIES = "quotient_of_power_series"
    NO_UNIVERSAL_RING_GUARANTEED = "no_universal_ring_guaranteed"


class UDRReport(Value):
    """Endomorphism and self-extension dimensions with the resulting verdict."""

    _fields = ("end_dim", "ext_dim")

    def __init__(self, end_dim: int, ext_dim: int):
        setfield(self, "end_dim", end_dim)
        setfield(self, "ext_dim", ext_dim)

    @property
    def verdict(self) -> UDRVerdict:
        if self.end_dim != 1:
            return UDRVerdict.NO_UNIVERSAL_RING_GUARANTEED
        if self.ext_dim == 0:
            return UDRVerdict.ISOMORPHIC_TO_K
        return UDRVerdict.QUOTIENT_OF_POWER_SERIES

    def describe(self) -> str:
        if self.verdict is UDRVerdict.ISOMORPHIC_TO_K:
            return "R(kQ,M) ≅ k"
        if self.verdict is UDRVerdict.QUOTIENT_OF_POWER_SERIES:
            vars_ = ",".join(f"t{i + 1}" for i in range(self.ext_dim))
            return f"R(kQ,M) is a quotient of k[[{vars_}]]"
        return "no universal deformation ring guaranteed (End ≠ k)"


def tangent_space_dim(M: Representation) -> int:
    """Dimension of the space of first-order deformations of M."""
    return udr_report(M.quiver, M).ext_dim


def make_lift(M: Representation, g: Sequence[Matrix]) -> DualNumberLift:
    """Lift M over the dual numbers with perturbation matrices g (one per arrow)."""
    g = tuple(g)
    _check_cochain(M, M, g, "perturbation")
    return DualNumberLift(M, g)


def trivial_lift(M: Representation) -> DualNumberLift:
    """The lift with zero perturbation, k[eps] tensor M."""
    return make_lift(M, [Matrix.zeros(M.field, f.rows, f.cols) for f in M.maps])


def lifts_isomorphic(L1: DualNumberLift, L2: DualNumberLift) -> bool:
    """Whether two lifts of the same base are isomorphic as deformations.

    Isomorphisms of the form id + eps*h exist exactly when the perturbations
    differ by a coboundary of the commutation map; compatibility with the
    identifications back to the base reduces the general case to this one.
    """
    if L1.base != L2.base:
        raise MismatchError("lifts have different base representations")
    M = L1.base
    eta = tuple(g1 - g2 for g1, g2 in zip(L1.perturbation, L2.perturbation))
    return is_coboundary(M, M, eta)


def udr_report(Q: Quiver, M: Representation) -> UDRReport:
    """End/Ext dimensions of M and the deformation-ring verdict they force."""
    if M.quiver != Q:
        raise MismatchError("representation is not over the given quiver")
    if M.is_zero():
        raise ValueError("the zero representation has no deformation theory")
    end, ext = hom_ext_dims(M, M)
    return UDRReport(end_dim=end, ext_dim=ext)
