"""Catalog of the model variants and their constitutive ingredients.

Five formulations share one quadratic energy skeleton and differ in the
pointwise constraint on the plastic field, the hardening mechanism and the
dissipation:

===============  ==========  =========  ==============================
tag              p space     hardening  flow law
===============  ==========  =========  ==============================
kin_spin         sl(3)       k1 (kin)   normality on dev of the
                                        generalized stress
iso_spin         sl(3)       k2 (iso)   same, radius grows with gamma
iso_irrot        Sym & sl    k2 (iso)   dev-sym driving stress
kin_irrot        Sym & sl    k1 (kin)   dev driving stress (symmetric)
micromorphic     sl(3)       k1 (kin)   none: one energy minimization
===============  ==========  =========  ==============================

The generalized (Eshelby-type) stress driving plastic flow is recovered
weakly: the assembled residual of the smooth energy with respect to the
plastic dofs, divided by the lumped nodal weights.  That is the quantity
whose complementarity with the plastic increment the solver certifies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid, ScalarField, TensorField, VectorField, build_blocks, transposed
from .tensors import MaterialParams, dev, norm, sym

VARIANT_TAGS = ("kin_spin", "iso_spin", "iso_irrot", "kin_irrot", "micromorphic")

_KINEMATIC = ("kin_spin", "kin_irrot", "micromorphic")
_ISOTROPIC = ("iso_spin", "iso_irrot")
_SYMMETRIC = ("iso_irrot", "kin_irrot")


@dataclass(frozen=True)
class ModelVariant:
    """One model formulation: parameter admissibility, energy and flow data.

    The tag fixes the constraint on the plastic field, the hardening and the
    flow law; params holds the moduli.  Every variant uses the same defect
    form, the discrete curl composed with itself (Blocks.terms["K_curl_cc"]).
    """

    tag: str
    params: MaterialParams

    def __post_init__(self):
        if self.tag not in VARIANT_TAGS:
            raise ValueError(f"unknown variant {self.tag!r}, expected one of {VARIANT_TAGS}")
        p = self.params
        if self.tag in _KINEMATIC and not p.k1 > 0.0:
            raise ValueError(f"{self.tag} requires k1 > 0")
        if self.tag in _ISOTROPIC and not p.k2 > 0.0:
            raise ValueError(f"{self.tag} requires k2 > 0")
        if self.has_dissipation and not p.sigma_y > 0.0:
            raise ValueError(f"{self.tag} requires sigma_y > 0")

    @property
    def symmetric(self):
        """Plastic field constrained to symmetric trace-free tensors."""
        return self.tag in _SYMMETRIC

    @property
    def isotropic(self):
        return self.tag in _ISOTROPIC

    @property
    def has_dissipation(self):
        return self.tag != "micromorphic"

    @property
    def k1_eff(self):
        return self.params.k1 if self.tag in _KINEMATIC else 0.0

    @property
    def k2_eff(self):
        return self.params.k2 if self.tag in _ISOTROPIC else 0.0

    def flow_projector(self, X):
        """Pointwise projection onto the flow direction space."""
        return dev(sym(X)) if self.symmetric else dev(X)


@dataclass
class SimState:
    """Displacement, plastic distortion, accumulated plastic strain, pseudo-time."""

    u: VectorField
    p: TensorField
    gamma: ScalarField
    t: float = 0.0

    @classmethod
    def zeros(cls, grid: Grid):
        return cls(VectorField.zeros(grid), TensorField.zeros(grid), ScalarField.zeros(grid), 0.0)


@dataclass(frozen=True)
class EnergySplit:
    elastic: float
    defect: float
    hardening: float
    load: float

    @property
    def total(self):
        return self.elastic + self.defect + self.hardening - self.load

    def magnitude(self):
        return abs(self.elastic) + abs(self.defect) + abs(self.hardening) + abs(self.load)


def total_energy(grid: Grid, variant: ModelVariant, state: SimState, body_force=None) -> EnergySplit:
    """Stored energy split (elastic, defect, hardening) and the load term.

    No boundary information enters: this is a plain functional of the fields,
    which is what the invariance checks probe.
    """
    blocks = build_blocks(grid, variant.params)
    apply, terms = blocks.apply, blocks.terms
    p9 = state.p.values.reshape(-1)
    uf = state.u.values.reshape(-1)
    mu = variant.params.mu
    elastic = 0.5 * (uf @ apply(terms["K_uu"], uf)) + uf @ apply(terms["K_up"], p9) + 0.5 * (
        p9 @ apply(terms["K_pp_el"], p9)
    )
    Lc = variant.params.Lc
    defect = 0.5 * mu * Lc ** 2 * (p9 @ apply(terms["K_curl_cc"], p9)) if Lc else 0.0
    if variant.isotropic:
        g = state.gamma.values
        hardening = 0.5 * mu * variant.params.k2 * float(blocks.w_node @ (g * g))
    else:
        hardening = 0.5 * mu * variant.k1_eff * (p9 @ apply(terms["K_sym"], p9))
    load = 0.0
    if body_force is not None and np.any(np.asarray(body_force) != 0.0):
        load = float(blocks.body_force_vector(body_force) @ uf)
    return EnergySplit(float(elastic), float(defect), float(hardening), load)


def _lumped_stress(blocks, u: VectorField, p: TensorField, **weights):
    """Lumped recovery of -(K_up' u) - (K_pp_el + sum of weight * terms[name]) p, (N, 3, 3).

    The residual pairs the stress with every nodal test tensor; with no
    weights that stress is the Cauchy stress.
    """
    p_terms = blocks.form(K_pp_el=1.0, **weights)
    r = -blocks.apply(transposed(blocks.terms["K_up"]), u.values) - blocks.apply(p_terms, p.values)
    return (r / blocks.m_lump).reshape(-1, 3, 3)


def eshelby_stress(grid: Grid, variant: ModelVariant, u: VectorField, p: TensorField):
    """Nodal generalized stress by lumped weak recovery, (N, 3, 3).

    The assembled residual of the smooth energy with respect to the plastic
    dofs pairs the generalized stress with every nodal test tensor: sigma
    enters through the elastic coupling, the double curl through the defect
    block and the backstress through the hardening block.  Dividing by the
    lumped weights gives exactly the driving force of the discrete flow
    problem.
    """
    mu = variant.params.mu
    return _lumped_stress(build_blocks(grid, variant.params), u, p,
                          K_curl_cc=mu * variant.params.Lc ** 2, K_sym=mu * variant.k1_eff)


def sigma_nodal(grid: Grid, params: MaterialParams, u: VectorField, p: TensorField):
    """Lumped nodal projection of the Cauchy stress, (N, 3, 3)."""
    return _lumped_stress(build_blocks(grid, params), u, p)


def yield_value(variant: ModelVariant, Sigma, gamma=0.0):
    """Yield function value; <= 0 is elastic.

    Spin variants measure the deviator of the generalized stress, the
    irrotational ones its symmetric deviator; isotropic hardening enlarges
    the radius by mu k2 gamma.
    """
    if not variant.has_dissipation:
        raise ValueError("micromorphic model has no yield function")
    drive = norm(variant.flow_projector(np.asarray(Sigma, dtype=float)))
    radius = variant.params.sigma_y + variant.params.mu * variant.k2_eff * np.asarray(gamma)
    return drive - radius


def incremental_dissipation(variant: ModelVariant, dq, gamma_prev=0.0):
    """Pointwise dissipation of one increment dq of the plastic field.

    Kinematic variants pay sigma_y |dq|.  Isotropic variants also pay the
    hardening-energy growth with the internal variable eliminated through
    d gamma = |dq| (the constraint |q| <= xi is active at the minimum).
    Micromorphic pays nothing.
    """
    if not variant.has_dissipation:
        return np.zeros(np.shape(dq)[:-2]) if np.ndim(dq) > 2 else 0.0
    n = norm(np.asarray(dq, dtype=float))
    out = variant.params.sigma_y * n
    if variant.isotropic:
        h = variant.params.mu * variant.params.k2
        g = np.asarray(gamma_prev)
        out = out + 0.5 * h * ((g + n) ** 2 - g ** 2)
    return out
