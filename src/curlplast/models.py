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

The flow law lives on ModelVariant alone: its yield radius, dissipation
density and proximal shrink, each one formula for every variant.
yield_value and incremental_dissipation here, and the solver's prox, lumped
dissipation and KKT check, call them.

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
    """One model formulation: parameter admissibility, energy and flow law.

    The tag fixes the constraint on the plastic field, the hardening and the
    flow law; params holds the moduli.  Every variant uses the same defect
    form, the discrete curl composed with itself (Blocks.terms["K_curl_cc"]).
    radius, dissipation and shrink are the whole flow law, as functions of
    the increment magnitude n at a node; the kinematic variants have drag 0,
    which makes each formula's hardening terms exact no-ops.
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
        if not np.all(np.isfinite([*self.form_weights.values(), self.drag])):
            raise ValueError("the hardening and defect weights mu Lc^2, mu k1 and mu k2 must be finite")

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

    @property
    def form_weights(self):
        """Blocks.form weights of the defect form, mu Lc^2, and of the kinematic hardening form, mu k1_eff."""
        return {"K_curl_cc": self.params.mu * (self.params.Lc * self.params.Lc), "K_sym": self.params.mu * self.k1_eff}

    @property
    def drag(self):
        """h = mu k2_eff: how fast the yield radius grows with gamma."""
        return self.params.mu * self.k2_eff

    def flow_projector(self, X):
        """Pointwise projection onto the flow direction space."""
        return dev(sym(X)) if self.symmetric else dev(X)

    def radius(self, gamma):
        """Yield radius sigma_y + h gamma at accumulated plastic strain gamma."""
        return self.params.sigma_y + self.drag * np.asarray(gamma)

    def dissipation_weights(self, gamma_prev=0.0):
        """(a, b) with dissipation(n, gamma_prev) = n a + b n^2: the yield
        radius sigma_y + h gamma_prev and h / 2, both 0 for micromorphic."""
        if not self.has_dissipation:
            return np.zeros(np.shape(gamma_prev)), 0.0
        return self.radius(gamma_prev), 0.5 * self.drag

    def dissipation(self, n, gamma_prev=0.0):
        """Dissipation density of an increment of magnitude n from gamma_prev.

        n (sigma_y + h gamma) + h n^2 / 2 (dissipation_weights): sigma_y n
        plus the hardening-energy growth h ((gamma + n)^2 - gamma^2) / 2,
        the internal variable eliminated through d gamma = n (the constraint
        |q| <= xi is active at the minimum), written without that difference
        of squares, which cancels for n << gamma.  With h = 0 it is sigma_y n
        bit for bit.  Micromorphic dissipates nothing, whatever its sigma_y.
        """
        if not self.has_dissipation:
            return np.zeros(np.shape(n))
        a, b = self.dissipation_weights(gamma_prev)
        return n * a + b * n * n

    def shrink(self, tau, gamma_prev):
        """The factor m / n by which the proximal map of tau * dissipation scales a
        point of magnitude n, and 0 at n = 0, as a function of n.

        m = max(0, n - tau sigma_y - tau h gamma) / (1 + tau h): plain
        shrinkage by tau sigma_y plus the linear drag that the scalar
        optimality condition of the eliminated internal variable adds.
        Micromorphic dissipates nothing, so its map is the identity, factor 1.
        tau sigma_y, tau h gamma and 1 + tau h are formed once, for every n.
        """
        if not self.has_dissipation:
            return lambda n: np.ones(np.shape(n))
        h = self.drag
        threshold, drag, scale = tau * self.params.sigma_y, tau * h * np.asarray(gamma_prev), 1.0 + tau * h

        def factor(n):
            n = np.asarray(n, dtype=float)
            m = np.maximum(0.0, (n - threshold - drag) / scale)
            return np.where(n > 0.0, m / np.maximum(n, 1e-300), 0.0)

        return factor


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
    terms = blocks.terms
    p9 = state.p.values.reshape(-1)
    uf = state.u.values.reshape(-1)
    # the forms on p share 1D-factor products: one pass applies them all
    names = ["K_up", "K_pp_el"]
    if variant.params.Lc:
        names.append("K_curl_cc")
    if not variant.isotropic:
        names.append("K_sym")
    Kp = dict(zip(names, blocks.apply_all([terms[name] for name in names], p9)))
    elastic = 0.5 * (uf @ blocks.apply(terms["K_uu"], uf)) + uf @ Kp["K_up"] + 0.5 * (p9 @ Kp["K_pp_el"])
    weights = variant.form_weights
    defect = 0.5 * weights["K_curl_cc"] * (p9 @ Kp["K_curl_cc"]) if variant.params.Lc else 0.0
    if variant.isotropic:
        g = state.gamma.values
        hardening = 0.5 * variant.drag * float(blocks.w_node @ (g * g))
    else:
        hardening = 0.5 * weights["K_sym"] * (p9 @ Kp["K_sym"])
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
    return _lumped_stress(build_blocks(grid, variant.params), u, p, **variant.form_weights)


def sigma_nodal(grid: Grid, params: MaterialParams, u: VectorField, p: TensorField):
    """Lumped nodal projection of the Cauchy stress, (N, 3, 3)."""
    return _lumped_stress(build_blocks(grid, params), u, p)


def yield_value(variant: ModelVariant, Sigma, gamma=0.0):
    """Yield function value; <= 0 is elastic.

    Spin variants measure the deviator of the generalized stress, the
    irrotational ones its symmetric deviator, against variant.radius(gamma).
    """
    if not variant.has_dissipation:
        raise ValueError("micromorphic model has no yield function")
    return norm(variant.flow_projector(np.asarray(Sigma, dtype=float))) - variant.radius(gamma)


def incremental_dissipation(variant: ModelVariant, dq, gamma_prev=0.0):
    """Pointwise dissipation of one increment dq of the plastic field:
    variant.dissipation of its Frobenius norm."""
    return variant.dissipation(norm(np.asarray(dq, dtype=float)), gamma_prev)
