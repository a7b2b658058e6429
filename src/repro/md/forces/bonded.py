"""Bonded forces: radial (2-atom), angular (3-atom), torsional (4-atom).

"Bond force equations are more complex than the other types, require
more floating point operations, can involve up to four atoms, and
exhibit indirect and therefore irregular indexing into the atom array."
(§II-B)  "The forces between the bonded atoms are computed in the order
the bonds appear in the bond list."

Work accounting: every term is owned by its first atom (the bond-list
parallelization partitions over bonds, and attribution to the first
atom reproduces the skewed per-atom profile).  All bytes are marked
irregular — bond endpoints are scattered through the atom array.
"""

from __future__ import annotations

import copy
from typing import Optional, Tuple

import numpy as np

from repro.md.boundary import Boundary
from repro.md.forces.base import Force, ForceResult, Runs, scatter_forces
from repro.md.neighbors import NeighborList
from repro.md.system import AtomSystem

RADIAL_FLOPS = 250.0
ANGULAR_FLOPS = 550.0
TORSIONAL_FLOPS = 1100.0
LINE_BYTES = 64.0


def _as_index_array(arr, width: int, name: str) -> np.ndarray:
    out = np.asarray(arr, dtype=np.int64)
    if out.ndim != 2 or out.shape[1] != width:
        raise ValueError(f"{name} must be (M, {width}), got {out.shape}")
    return out


def _per_term(value, m: int, name: str) -> np.ndarray:
    out = np.broadcast_to(np.asarray(value, dtype=np.float64), (m,)).copy()
    if np.any(out < 0):
        raise ValueError(f"{name} must be non-negative")
    return out


class _BondedForce(Force):
    """What the three bond-list forces share: one term per row of an
    ``(M, k)`` atom-index array, owned by its first atom, with per-term
    parameter arrays.  ``_bundle`` indexes only through those arrays,
    so a copy with run-offset indices and tiled parameters evaluates a
    whole run stack on its ``flat`` view."""

    batched = True
    #: the attribute holding the ``(M, k)`` atom-index array
    index: str
    #: the per-term parameter arrays
    params: Tuple[str, ...]
    flops_per_term: float
    #: cache lines gathered per term (bond endpoints are scattered)
    lines_per_term: int
    #: per-atom work credited to a term's owner
    work_weight: float
    #: ``((n_runs, n_atoms), copy)`` of the last :meth:`_for_runs`
    _merged = None

    @property
    def n_terms(self) -> int:
        return len(getattr(self, self.index))

    def _for_runs(self, n_runs: int, n_atoms: int) -> "_BondedForce":
        """This force over a stack of ``n_runs`` runs (cached)."""
        if n_runs == 1:
            return self
        key = (n_runs, n_atoms)
        if self._merged is None or self._merged[0] != key:
            merged = copy.copy(self)
            idx = getattr(self, self.index)
            setattr(merged, self.index, np.concatenate(
                [idx + r * n_atoms for r in range(n_runs)]
            ))
            for name in self.params:
                setattr(merged, name, np.tile(getattr(self, name), n_runs))
            self._merged = (key, merged)
        return self._merged[1]

    def compute(
        self,
        system: AtomSystem,
        boundary: Boundary,
        neighbors: Optional[NeighborList],
        forces_out: np.ndarray,
    ) -> ForceResult:
        runs = Runs(system)
        m = self.n_terms
        if m == 0:
            return runs.empty()
        owner, e_terms = self._for_runs(runs.n_runs, runs.n_atoms)._bundle(
            runs.flat, boundary, forces_out.reshape(-1, 3)
        )
        counts, _, energies = runs.tally(owner, e_terms, self.work_weight)
        return runs.collect(
            ForceResult(
                energy=energy,
                terms=m,
                per_atom_work=counts[r],
                flops=self.flops_per_term * m,
                bytes_irregular=self.lines_per_term * LINE_BYTES * m,
                bytes_regular=0.0,
            )
            for r, energy in enumerate(energies)
        )


class RadialBondForce(_BondedForce):
    """Harmonic stretch: U = ½ k (r - r0)²."""

    name = "bond-radial"
    index, params = "bonds", ("k", "r0")
    flops_per_term, lines_per_term, work_weight = RADIAL_FLOPS, 2, 1.0
    # bound per class, so per-class instrumentation times each kernel
    compute = _BondedForce.compute

    def __init__(self, bonds, k, r0):
        self.bonds = _as_index_array(bonds, 2, "bonds")
        m = len(self.bonds)
        self.k = _per_term(k, m, "k")
        self.r0 = _per_term(r0, m, "r0")

    def restrict(self, lo: int, hi: int) -> "RadialBondForce":
        """Copy with only the bonds owned (first atom) in [lo, hi)."""
        keep = (self.bonds[:, 0] >= lo) & (self.bonds[:, 0] < hi)
        return RadialBondForce(self.bonds[keep], self.k[keep], self.r0[keep])

    def remap(self, mapping: np.ndarray) -> "RadialBondForce":
        """Copy with bond endpoints renumbered through ``mapping``."""
        return RadialBondForce(
            np.asarray(mapping)[self.bonds], self.k, self.r0
        )

    def _bundle(self, system: AtomSystem, boundary: Boundary, forces_out):
        """Term math + scatter; returns ``(owner, e_terms)``."""
        a, b = self.bonds[:, 0], self.bonds[:, 1]
        dr = boundary.displacement(system.positions[a] - system.positions[b])
        r = np.sqrt(np.einsum("ij,ij->i", dr, dr))
        r_safe = np.where(r > 1e-12, r, 1.0)
        stretch = r - self.r0
        # F_a = -k (r - r0) r̂
        fvec = (-self.k * stretch / r_safe)[:, None] * dr
        scatter_forces(forces_out, (a, b), (fvec, -fvec))
        return a, 0.5 * self.k * stretch * stretch


class AngularBondForce(_BondedForce):
    """Harmonic bend: U = ½ k (θ - θ0)², vertex is the middle atom."""

    name = "bond-angular"
    index, params = "triples", ("k", "theta0")
    flops_per_term, lines_per_term, work_weight = ANGULAR_FLOPS, 3, 2.0
    # bound per class, so per-class instrumentation times each kernel
    compute = _BondedForce.compute

    def __init__(self, triples, k, theta0):
        self.triples = _as_index_array(triples, 3, "triples")
        m = len(self.triples)
        self.k = _per_term(k, m, "k")
        self.theta0 = np.broadcast_to(
            np.asarray(theta0, dtype=np.float64), (m,)
        ).copy()

    def restrict(self, lo: int, hi: int) -> "AngularBondForce":
        """Copy with only the angles owned (first atom) in [lo, hi)."""
        keep = (self.triples[:, 0] >= lo) & (self.triples[:, 0] < hi)
        return AngularBondForce(
            self.triples[keep], self.k[keep], self.theta0[keep]
        )

    def remap(self, mapping: np.ndarray) -> "AngularBondForce":
        """Copy with angle atoms renumbered through ``mapping``."""
        return AngularBondForce(
            np.asarray(mapping)[self.triples], self.k, self.theta0
        )

    def _bundle(self, system: AtomSystem, boundary: Boundary, forces_out):
        """Term math + scatter; returns ``(owner, e_terms)`` (see
        :meth:`RadialBondForce._bundle`)."""
        a = self.triples[:, 0]
        b = self.triples[:, 1]  # vertex
        c = self.triples[:, 2]
        u = boundary.displacement(system.positions[a] - system.positions[b])
        v = boundary.displacement(system.positions[c] - system.positions[b])
        lu = np.sqrt(np.einsum("ij,ij->i", u, u))
        lv = np.sqrt(np.einsum("ij,ij->i", v, v))
        lu = np.where(lu > 1e-12, lu, 1.0)
        lv = np.where(lv > 1e-12, lv, 1.0)
        cos_t = np.einsum("ij,ij->i", u, v) / (lu * lv)
        np.clip(cos_t, -1.0, 1.0, out=cos_t)
        theta = np.arccos(cos_t)
        sin_t = np.sqrt(np.maximum(1.0 - cos_t * cos_t, 1e-12))
        du = self.k * (theta - self.theta0)  # dU/dθ
        # ∂cosθ/∂a and ∂cosθ/∂c
        dcos_da = v / (lu * lv)[:, None] - (cos_t / (lu * lu))[:, None] * u
        dcos_dc = u / (lu * lv)[:, None] - (cos_t / (lv * lv))[:, None] * v
        # F = -∂U/∂x = (dU/dθ / sinθ) ∂cosθ/∂x
        fa = (du / sin_t)[:, None] * dcos_da
        fc = (du / sin_t)[:, None] * dcos_dc
        fb = -fa - fc
        scatter_forces(forces_out, (a, b, c), (fa, fb, fc))
        dtheta = theta - self.theta0
        return a, 0.5 * self.k * dtheta * dtheta


class TorsionalBondForce(_BondedForce):
    """Cosine dihedral: U = ½ V (1 + cos(n φ - φ0)) over atom quads."""

    name = "bond-torsional"
    index, params = "quads", ("v", "periodicity", "phi0")
    flops_per_term, lines_per_term, work_weight = TORSIONAL_FLOPS, 4, 3.0
    # bound per class, so per-class instrumentation times each kernel
    compute = _BondedForce.compute

    def __init__(self, quads, v, periodicity=1, phi0=0.0):
        self.quads = _as_index_array(quads, 4, "quads")
        m = len(self.quads)
        self.v = _per_term(v, m, "v")
        self.periodicity = np.broadcast_to(
            np.asarray(periodicity, dtype=np.float64), (m,)
        ).copy()
        self.phi0 = np.broadcast_to(
            np.asarray(phi0, dtype=np.float64), (m,)
        ).copy()

    def restrict(self, lo: int, hi: int) -> "TorsionalBondForce":
        """Copy with only the torsions owned (first atom) in [lo, hi)."""
        keep = (self.quads[:, 0] >= lo) & (self.quads[:, 0] < hi)
        return TorsionalBondForce(
            self.quads[keep],
            self.v[keep],
            self.periodicity[keep],
            self.phi0[keep],
        )

    def remap(self, mapping: np.ndarray) -> "TorsionalBondForce":
        """Copy with quad atoms renumbered through ``mapping``."""
        return TorsionalBondForce(
            np.asarray(mapping)[self.quads],
            self.v,
            self.periodicity,
            self.phi0,
        )

    def _bundle(self, system: AtomSystem, boundary: Boundary, forces_out):
        """Term math + scatter; returns ``(owner, e_terms)`` (see
        :meth:`RadialBondForce._bundle`)."""
        pos = system.positions
        q = self.quads
        b1 = boundary.displacement(pos[q[:, 1]] - pos[q[:, 0]])
        b2 = boundary.displacement(pos[q[:, 2]] - pos[q[:, 1]])
        b3 = boundary.displacement(pos[q[:, 3]] - pos[q[:, 2]])
        n1 = np.cross(b1, b2)
        n2 = np.cross(b2, b3)
        n1sq = np.einsum("ij,ij->i", n1, n1)
        n2sq = np.einsum("ij,ij->i", n2, n2)
        lb2 = np.sqrt(np.einsum("ij,ij->i", b2, b2))
        # near-collinear quads have |n|->0 and a 1/|n| force singularity;
        # treat them as torsion-free well before numerics explode
        ok = (n1sq > 1e-4) & (n2sq > 1e-4) & (lb2 > 1e-6)
        x = np.einsum("ij,ij->i", n1, n2)
        y = np.einsum("ij,ij->i", np.cross(n1, n2), b2) / np.where(
            lb2 > 1e-12, lb2, 1.0
        )
        phi = np.arctan2(y, x)
        # dU/dφ = -½ V n sin(nφ - φ0)
        du = -0.5 * self.v * self.periodicity * np.sin(
            self.periodicity * phi - self.phi0
        )
        du = np.where(ok, du, 0.0)
        n1sq_s = np.where(ok, n1sq, 1.0)
        n2sq_s = np.where(ok, n2sq, 1.0)
        fa = (du * lb2 / n1sq_s)[:, None] * n1
        fd = (-du * lb2 / n2sq_s)[:, None] * n2
        lb2sq = np.where(ok, lb2 * lb2, 1.0)
        t1 = (np.einsum("ij,ij->i", b1, b2) / lb2sq)[:, None]
        t2 = (np.einsum("ij,ij->i", b3, b2) / lb2sq)[:, None]
        fb = -(1.0 + t1) * fa + t2 * fd
        fc = -(fa + fb + fd)  # net force is exactly zero
        scatter_forces(
            forces_out,
            (q[:, 0], q[:, 1], q[:, 2], q[:, 3]),
            (fa, fb, fc, fd),
        )
        e_terms = np.where(
            ok,
            0.5 * self.v * (1.0 + np.cos(self.periodicity * phi - self.phi0)),
            0.0,
        )
        return q[:, 0], e_terms
