"""Material records for the acoustic and elastic subdomains.

Materials are piecewise constant per cell, bound to mesh region tags.
The solid stress/strain components use the (xx, yy, xy) convention with
the off-diagonal entry stored once; bilinear forms account for its
multiplicity-2 contribution to the Frobenius product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mesh as _mesh


class MaterialError(Exception):
    pass


@dataclass(frozen=True)
class FluidMaterial:
    """Acoustic medium: density rho [kg/m^3] and bulk modulus kappa [Pa]."""

    rho: float
    kappa: float

    def __post_init__(self):
        if self.rho <= 0 or self.kappa <= 0:
            raise MaterialError("fluid density and bulk modulus must be positive")

    @property
    def c_p(self) -> float:
        return math.sqrt(self.kappa / self.rho)

    @classmethod
    def from_speeds(cls, rho: float, c_p: float) -> "FluidMaterial":
        return cls(rho=rho, kappa=rho * c_p * c_p)


@dataclass(frozen=True)
class SolidMaterial:
    """Isotropic elastic medium: density rho and Lame parameters lam, mu [Pa]."""

    rho: float
    lam: float
    mu: float

    def __post_init__(self):
        if self.rho <= 0 or self.mu <= 0:
            raise MaterialError("solid density and shear modulus must be positive")
        if self.lam + 2 * self.mu <= 0 or self.lam + self.mu <= 0:
            raise MaterialError("Lame parameters out of the admissible range")

    @property
    def c_p(self) -> float:
        return math.sqrt((self.lam + 2 * self.mu) / self.rho)

    @property
    def c_s(self) -> float:
        return math.sqrt(self.mu / self.rho)

    @classmethod
    def from_speeds(cls, rho: float, c_p: float, c_s: float) -> "SolidMaterial":
        mu = rho * c_s * c_s
        lam = rho * c_p * c_p - 2 * mu
        return cls(rho=rho, lam=lam, mu=mu)

    def compliance_weight(self) -> np.ndarray:
        """3x3 matrix W with s : C^-1 b = sum_cc' W[c,c'] s_c b_c'.

        The (xx, yy) block mixes through the trace term; the shear entry
        carries the Frobenius multiplicity 2.
        """
        beta = 1.0 / (2 * self.mu)
        gamma = self.lam / (2 * self.mu * (2 * self.lam + 2 * self.mu))
        return np.array([
            [beta - gamma, -gamma, 0.0],
            [-gamma, beta - gamma, 0.0],
            [0.0, 0.0, 2 * beta],
        ])


@dataclass(frozen=True)
class MaterialMap:
    """Region tag -> material binding for a mesh."""

    by_region: dict

    def material(self, mesh, ci):
        tag = int(mesh.region[ci])
        name = mesh.region_names.get(tag, str(tag))
        mat = self.by_region.get(name, self.by_region.get(tag))
        if mat is None:
            raise MaterialError(f"no material bound to region {name!r} (tag {tag})")
        want_fluid = mesh.subdomain[ci] == _mesh.FLUID
        if want_fluid != isinstance(mat, FluidMaterial):
            raise MaterialError(f"region {name!r} material kind does not match its subdomain")
        return mat

    def c_sharp(self, mesh) -> float:
        """Largest wave speed over the mesh."""
        c = 0.0
        for tag in np.unique(mesh.region):
            ci = int(np.nonzero(mesh.region == tag)[0][0])
            mat = self.material(mesh, ci)
            c = max(c, mat.c_p)
        return c

    @classmethod
    def uniform(cls, fluid: FluidMaterial | None, solid: SolidMaterial | None) -> "MaterialMap":
        table = {}
        if fluid is not None:
            table["fluid"] = fluid
        if solid is not None:
            table["solid"] = solid
        return cls(by_region=table)
