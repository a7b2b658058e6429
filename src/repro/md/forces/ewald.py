"""Ewald summation for periodic Coulomb interactions.

The paper names the O(N log N)-class mesh Ewald family as the better-
complexity alternative to all-pairs Coulomb, deferred as future work
"due to its implementation complexity" (§II-B).  This module implements
that future work: classic Ewald summation — a short-range real-space
erfc sum plus a reciprocal-space structure-factor sum — which is exact
for periodic boxes and already sub-O(N²) in practice because the
real-space part is cutoff-bounded.

Forces and energy follow the standard decomposition

    E = E_real + E_recip + E_self

with screening parameter ``alpha`` and reciprocal vectors k = 2π n / L,
0 < |n|∞ <= kmax.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.md.boundary import Boundary
from repro.md.forces.base import Force, ForceResult
from repro.md.neighbors import NeighborList
from repro.md.system import AtomSystem
from repro.md.units import COULOMB_K

#: flop weights for the cost model
REAL_FLOPS_PER_PAIR = 60.0
RECIP_FLOPS_PER_ATOM_K = 12.0


class EwaldCoulombForce(Force):
    """Ewald-summed Coulomb force (periodic boundaries required).

    Parameters
    ----------
    real_cutoff:
        Real-space cutoff (Å); ``alpha`` defaults to ``3.2/real_cutoff``
        so the real-space tail is negligible at the cutoff.
    kmax:
        Reciprocal-space extent per axis (in units of 2π/L).
    """

    name = "ewald"

    def __init__(
        self,
        real_cutoff: float = 9.0,
        kmax: int = 6,
        alpha: Optional[float] = None,
        owner_range: Optional[tuple] = None,
    ):
        if real_cutoff <= 0 or kmax < 1:
            raise ValueError("real_cutoff must be > 0 and kmax >= 1")
        self.real_cutoff = real_cutoff
        self.kmax = kmax
        self.alpha = alpha if alpha is not None else 3.2 / real_cutoff
        self.owner_range = owner_range
        self._kcache: Optional[tuple] = None

    def restrict(self, lo: int, hi: int) -> "EwaldCoulombForce":
        """Copy restricted to owners in [lo, hi).  Real-space pairs are
        owned by their lower-index atom; reciprocal-space force rows and
        the reciprocal/self energies are owned by the atom they act on
        (every thread still evaluates the full structure factor — the
        usual shared-memory Ewald duplication)."""
        other = EwaldCoulombForce(
            self.real_cutoff, self.kmax, self.alpha, owner_range=(lo, hi)
        )
        other._kcache = self._kcache
        return other

    def _kvectors(self, box: np.ndarray) -> tuple:
        key = tuple(box)
        if self._kcache is not None and self._kcache[0] == key:
            return self._kcache
        rng = np.arange(-self.kmax, self.kmax + 1)
        nx, ny, nz = np.meshgrid(rng, rng, rng, indexing="ij")
        n = np.stack([nx.ravel(), ny.ravel(), nz.ravel()], axis=1)
        n = n[np.any(n != 0, axis=1)]
        k = 2.0 * np.pi * n / box[None, :]
        k2 = np.einsum("ij,ij->i", k, k)
        a_k = np.exp(-k2 / (4.0 * self.alpha**2)) / k2
        self._kcache = (key, k, k2, a_k)
        return self._kcache

    def compute(
        self,
        system: AtomSystem,
        boundary: Boundary,
        neighbors: Optional[NeighborList],
        forces_out: np.ndarray,
    ) -> ForceResult:
        # imported here: scipy.special is a third of the package's import
        # time and only this kernel needs it
        from scipy.special import erfc

        if not boundary.periodic:
            raise ValueError("Ewald summation requires a periodic box")
        n = system.n_atoms
        charged = system.charged
        m = len(charged)
        if m < 2:
            return ForceResult.empty(n)
        q = system.charges[charged]
        pos = system.positions[charged]
        box = boundary.box
        volume = float(np.prod(box))
        alpha = self.alpha

        # --- real-space part (all charged pairs inside the cutoff) ---
        ii, jj = np.triu_indices(m, k=1)
        if self.owner_range is not None:
            lo, hi = self.owner_range
            own = (charged[ii] >= lo) & (charged[ii] < hi)
            ii, jj = ii[own], jj[own]
        dr = boundary.displacement(pos[ii] - pos[jj])
        r2 = np.einsum("ij,ij->i", dr, dr)
        inside = r2 <= self.real_cutoff**2
        ii, jj, dr, r2 = ii[inside], jj[inside], dr[inside], r2[inside]
        r = np.sqrt(r2)
        qq = COULOMB_K * q[ii] * q[jj]
        erfc_ar = erfc(alpha * r)
        e_real = float(np.sum(qq * erfc_ar / r))
        # -dφ/dr where φ = erfc(αr)/r
        gauss = (
            2.0 * alpha / np.sqrt(np.pi) * np.exp(-(alpha * r) ** 2)
        )
        coef = qq * (erfc_ar / r2 + gauss / r) / r  # F/r magnitude
        fvec = coef[:, None] * dr
        np.add.at(forces_out, charged[ii], fvec)
        np.subtract.at(forces_out, charged[jj], fvec)
        n_real_pairs = len(ii)

        # --- reciprocal-space part ---
        _, k, k2, a_k = self._kvectors(box)
        phase = k @ pos.T  # (K, m)
        cosp = np.cos(phase)
        sinp = np.sin(phase)
        re_s = cosp @ q  # (K,)
        im_s = sinp @ q
        c_recip = 2.0 * np.pi * COULOMB_K / volume
        e_recip = float(c_recip * np.sum(a_k * (re_s**2 + im_s**2)))
        # F_i = 2 C q_i Σ_k A_k (ReS sin(k·r_i) - ImS cos(k·r_i)) k
        weight = a_k[:, None] * (
            re_s[:, None] * sinp - im_s[:, None] * cosp
        )  # (K, m)
        f_recip = 2.0 * c_recip * (weight.T @ k) * q[:, None]
        if self.owner_range is not None:
            lo, hi = self.owner_range
            owned = (charged >= lo) & (charged < hi)
            np.add.at(forces_out, charged[owned], f_recip[owned])
            own_frac = float(owned.sum()) / m
            e_recip *= own_frac
            e_self = float(
                -COULOMB_K
                * alpha
                / np.sqrt(np.pi)
                * np.sum(q[owned] * q[owned])
            )
        else:
            np.add.at(forces_out, charged, f_recip)
            e_self = float(
                -COULOMB_K * alpha / np.sqrt(np.pi) * np.sum(q * q)
            )

        energy = e_real + e_recip + e_self
        per_atom = np.bincount(
            charged[ii], minlength=n
        ).astype(np.float64)
        per_atom[charged] += len(k) * 0.5  # reciprocal work, uniform
        flops = (
            REAL_FLOPS_PER_PAIR * n_real_pairs
            + RECIP_FLOPS_PER_ATOM_K * m * len(k)
        )
        return ForceResult(
            energy=energy,
            terms=n_real_pairs + m * len(k),
            per_atom_work=per_atom,
            flops=flops,
            bytes_irregular=0.0,
            bytes_regular=24.0 * m * (1 + len(k) // 16),
        )
