"""Direct all-pairs Coulomb interactions.

"The second type of force that MW calculates is the Coulombic force
between charged particles.  Unlike LJ forces, Coulombic forces are
calculated between every pair of charged particles, regardless of
distance." (§II-B) — O(N²) in the charged-atom count.

Pair order is the classic *cyclic half-shell* decomposition
(:func:`half_shell_pairs`): charged atom ``c`` owns the pairs
``(c, c+k mod m)`` for k = 1..K, K = ⌊(m-1)/2⌋, plus — for even m —
the extra ``k = m/2`` ring owned by its lower half.  Newton's third
law halves the work while every atom owns the same number of pairs;
this balanced ownership is what lets the salt benchmark scale
near-linearly (Fig. 1) even under the 1/N block partition, while the
neighbor-list forces keep their lower-index-owns asymmetry.

The kernel evaluates that enumeration as a **ring** (:func:`ring_coulomb`):
row ``k`` of a ``(rows, m)`` grid — rows = ⌊m/2⌋, the extra ring last
and masked to its owning half — pairs column ``c`` with ``c+k``, read
as one strided window over the positions doubled along the atom axis.
There is no gather and no scatter, yet the bits equal those of the
per-pair gather + ``bincount`` scatter over :func:`half_shell_pairs`:

* each pair's arithmetic is the same elementwise op sequence
  (``COULOMB_K·q_i·q_j``, the ``einsum`` r², the ``min_distance²``
  clamp, ``qq/(r²·r)``, ``coef·dr``, ``qq/r``), and an elementwise
  result does not depend on where the operands sit in memory;
* ``bincount`` adds an atom's terms in pair order onto ``+0.0``: the
  pairs it owns (rows k = 1..rows), then, negated, the pairs it is
  the partner of (again k = 1..rows).  The kernel runs that same
  chain as sequential reductions along the row axis: ``np.add.reduce``
  over the ``(rows, w, 3)`` force vectors, seeded with ``+0.0``, then
  ``np.subtract.reduce`` over a buffer whose row ``j`` holds row
  ``k0+j``'s force vectors shifted ``j`` columns, so that each column
  stacks the terms whose partner is one atom, continuing that atom's
  chain block after block.  Columns past ``m`` wrap onto atoms
  ``0..``; an atom's wrapped terms have higher ``k`` than its
  unwrapped ones, so their chain continues where the unwrapped one
  stopped;
* masked pairs (neither atom movable, the extra ring's upper half)
  and the buffer's padding contribute a signed zero, which leaves a
  ``+0.0``-seeded chain unchanged;
* rows are evaluated :data:`BLOCK_ROWS` at a time, which changes no
  op and no order; it keeps the temporaries cache-sized and the
  evaluation's footprint small enough for the allocator to reuse
  between steps instead of faulting fresh pages in;
* the energy is ``np.sum`` of the kept ``qq/r`` terms in pair order,
  which is the row-major order of the grid.

An ``owner_range`` copy (:meth:`CoulombForce.restrict`) evaluates only
its ``w`` owned charged columns, so the P copies of a parallel run
together do one evaluation's pair work.  A leading run axis on the
positions (a run stack) evaluates every run's ring at once.

Memory character: the charged atoms are visited "in a linear fashion,
taking advantage of spatial memory locality if most atoms are charged"
(§V-A); traffic is regular and the per-pair arithmetic (sqrt, divide)
is heavy — the compute-bound profile.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.md.boundary import Boundary
from repro.md.forces.base import Force, ForceResult, Runs
from repro.md.neighbors import NeighborList
from repro.md.system import AtomSystem
from repro.md.units import COULOMB_K

#: flops per charged pair (distance, sqrt, 1/r, 1/r^3, force vector)
FLOPS_PER_PAIR = 30.0
#: unique streamed bytes per charged atom per evaluation: the linear
#: sweep re-reads the same packed position/charge arrays, so traffic is
#: one pass over the charged set (positions + charges + force row), not
#: per-pair — this is exactly why the Coulomb phase is compute-bound
REGULAR_BYTES_PER_ATOM = 56.0
#: ring rows evaluated together: keeps each block's temporaries
#: cache-sized, so the only full-size arrays of an evaluation are its
#: force vectors and energy terms
BLOCK_ROWS = 32


def half_shell_pairs(m: int) -> Tuple[np.ndarray, np.ndarray]:
    """Cyclic half-shell enumeration of all unordered pairs of ``m``
    items: owner ``i`` is paired with (i+k) mod m for k = 1..⌊(m-1)/2⌋,
    plus — for even m — the k = m/2 ring owned by its lower half.
    Every unordered pair appears exactly once.  This is the pair-order
    specification :func:`ring_coulomb` reproduces without enumerating
    it."""
    if m < 2:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy()
    base = np.arange(m, dtype=np.int64)
    owners = []
    partners = []
    for k in range(1, (m - 1) // 2 + 1):
        owners.append(base)
        partners.append((base + k) % m)
    if m % 2 == 0:
        half = np.arange(m // 2, dtype=np.int64)
        owners.append(half)
        partners.append(half + m // 2)
    return np.concatenate(owners), np.concatenate(partners)


def _rows(a: np.ndarray, start: int, step: int, count: int, width: int,
          writeable: bool = False) -> np.ndarray:
    """View ``v[..., i, j, :] = a[..., start + i*step + j, :]`` for
    ``i < count``, ``j < width`` — ``count`` windows of ``width`` atoms
    along axis -2, ``step`` atoms apart (``step > width`` when written,
    so no two elements alias)."""
    stop = start + (count - 1) * step + width
    win = sliding_window_view(
        a[..., start:stop, :], width, axis=-2, writeable=writeable
    )
    return win[..., ::step, :, :].swapaxes(-1, -2)


def ring_coulomb(
    positions: np.ndarray,
    charges: np.ndarray,
    movable: np.ndarray,
    boundary: Boundary,
    min_distance: float,
    cols: Tuple[int, int],
):
    """Half-shell Coulomb over ``m`` charged atoms, for the pairs owned
    by charged columns ``cols = (lo, hi)``.

    ``positions`` is ``(..., m, 3)`` — one system, or an ``(R, m, 3)``
    run stack whose runs are evaluated independently; ``charges``
    and ``movable`` are the shared ``(m,)`` per-atom arrays.  Returns
    ``None`` when no pair is kept, else ``(forces, e_terms, counts)``:
    the ``(..., m, 3)`` force sums to add onto the charged atoms, the
    kept ``qq/r`` energy terms in pair order as ``(..., n_terms)``, and
    the ``(hi - lo,)`` kept-pair count per owner column.
    """
    m = positions.shape[-2]
    lo, hi = cols
    w = hi - lo
    rows = m // 2
    extra = m % 2 == 0  # the k = m/2 ring, last row, owned by c < m/2
    cut = max(0, min(w, m // 2 - lo))  # its kept prefix
    if movable.all():
        counts = np.full(w, rows, dtype=np.float64)
        if extra:
            counts[cut:] -= 1.0
        keep = None
    else:
        mv2 = np.concatenate([movable, movable])
        keep = movable[None, lo:hi] | sliding_window_view(
            mv2[lo + 1:lo + rows + w], w
        )
        if extra:
            keep[-1, cut:] = False
        counts = keep.sum(axis=0).astype(np.float64)
    n_terms = int(counts.sum())
    if n_terms == 0:
        return None
    lead = positions.shape[:-2]
    doubled = np.concatenate([positions, positions], axis=-2)
    q2 = np.concatenate([charges, charges])
    kq = COULOMB_K * charges[lo:hi]
    md2 = min_distance**2
    fvec = np.empty(lead + (rows, w, 3))
    e_terms = np.empty(lead + (rows, w))
    for k0 in range(0, rows, BLOCK_ROWS):
        k1 = min(rows, k0 + BLOCK_ROWS)
        # ring rows k0+1..k1: column c is the pair (c, c+k)
        partner = _rows(doubled, lo + 1 + k0, 1, k1 - k0, w)
        dr = boundary.displacement(positions[..., None, lo:hi, :] - partner)
        flat = dr.reshape(-1, 3)
        r2 = np.einsum("ij,ij->i", flat, flat).reshape(dr.shape[:-1])
        np.maximum(r2, md2, out=r2)
        r = np.sqrt(r2)
        qq = kq * sliding_window_view(q2[lo + 1 + k0:lo + k1 + w], w)
        coef = qq / (r2 * r)  # F/r
        np.divide(qq, r, out=e_terms[..., k0:k1, :])
        if keep is not None:
            coef[..., ~keep[k0:k1]] = 0.0
        elif extra and k1 == rows:
            coef[..., -1, cut:] = 0.0
        for d in range(3):
            np.multiply(coef, dr[..., d], out=fvec[..., k0:k1, :, d])
    e_terms = e_terms.reshape(lead + (-1,))
    if keep is None:
        e_terms = e_terms[..., :n_terms]
    else:
        e_terms = np.compress(keep.ravel(), e_terms, axis=-1)

    forces = np.zeros(lead + (m, 3))
    np.add(np.add.reduce(fvec, axis=-3), 0.0,  # the +0.0 seed
           out=forces[..., lo:hi, :])
    # partner terms, a block of rows at a time: ``buf[1 + j, x]`` holds
    # the force of row k0+j's pair (c, c+k) under its partner, x =
    # c - lo + j, and row 0 the chain so far of the atom in column x
    span = w + BLOCK_ROWS
    buf = np.zeros(lead + (BLOCK_ROWS + 1, span, 3))
    for k0 in range(0, rows, BLOCK_ROWS):
        k1 = min(rows, k0 + BLOCK_ROWS)
        _rows(buf.reshape(lead + (-1, 3)), span, span + 1, k1 - k0, w,
              writeable=True)[...] = fvec[..., k0:k1, :, :]
        block = buf[..., :k1 - k0 + 1, :, :]
        # column x is atom t = lo + k0 + 1 + x, wrapping past m onto
        # atoms 0..; an atom's wrapped terms (higher k) follow its
        # unwrapped ones
        t0 = lo + k0 + 1
        width = w + k1 - k0 - 1
        split = min(max(m - t0, 0), width)
        for x0, x1, a0 in ((0, split, t0), (split, width, t0 + split - m)):
            if x1 > x0:
                atoms = forces[..., a0:a0 + x1 - x0, :]
                block[..., 0, x0:x1, :] = atoms
                atoms[...] = np.subtract.reduce(
                    block[..., x0:x1, :], axis=-3
                )
    return forces, e_terms, counts


class CoulombForce(Force):
    """k·q_i·q_j / r² between every pair of charged atoms.

    ``owner_range`` restricts evaluation to pairs owned by atoms in
    [lo, hi) — the parallel decomposition hook (see :meth:`restrict`).
    """

    name = "coulomb"

    def __init__(
        self,
        min_distance: float = 0.5,
        owner_range: Optional[Tuple[int, int]] = None,
    ):
        # short-range clamp keeps overlapping teaching-demo ions finite
        if min_distance <= 0:
            raise ValueError(f"min_distance must be positive: {min_distance}")
        self.min_distance = min_distance
        self.owner_range = owner_range

    @property
    def batched(self) -> bool:
        """Unrestricted copies evaluate a whole run stack at once."""
        return self.owner_range is None

    def restrict(self, lo: int, hi: int) -> "CoulombForce":
        """A copy computing only pairs whose owner atom is in [lo, hi)."""
        return CoulombForce(self.min_distance, owner_range=(lo, hi))

    def accumulate(
        self,
        positions: np.ndarray,
        charges: np.ndarray,
        movable: np.ndarray,
        boundary: Boundary,
        forces_out: np.ndarray,
    ):
        """Add the Coulomb forces of ``positions`` — ``(n, 3)``, or an
        ``(R, n, 3)`` run stack sharing the ``(n,)`` ``charges`` and
        ``movable`` arrays — onto ``forces_out`` of the same shape.
        Returns ``None`` when no pair is kept, else the kept energy
        terms in pair order ``(..., n_terms)`` and the ``(n,)``
        per-atom work."""
        n = positions.shape[-2]
        charged = np.nonzero(charges != 0.0)[0]
        m = len(charged)
        if m < 2:
            return None
        lo, hi = 0, m
        if self.owner_range is not None:
            # charged is ascending, so the owned atoms are a column range
            lo, hi = np.searchsorted(charged, self.owner_range).tolist()
        everyone = m == n
        ring = ring_coulomb(
            positions if everyone else positions[..., charged, :],
            charges[charged],
            movable[charged],
            boundary,
            self.min_distance,
            (lo, hi),
        )
        if ring is None:
            return None
        forces, e_terms, counts = ring
        if everyone:
            forces_out += forces
        else:
            forces_out[..., charged, :] += forces
        per_atom = np.zeros(n)
        per_atom[charged[lo:hi]] = counts
        return e_terms, per_atom

    def compute(
        self,
        system: AtomSystem,
        boundary: Boundary,
        neighbors: Optional[NeighborList],
        forces_out: np.ndarray,
    ) -> ForceResult:
        runs = Runs(system)
        ring = self.accumulate(
            system.positions, system.charges, system.movable, boundary,
            forces_out,
        )
        if ring is None:
            return runs.empty()
        e_terms, per_atom = ring
        n_terms = e_terms.shape[-1]
        energies = e_terms.reshape(runs.n_runs, n_terms).sum(axis=1)
        streamed = REGULAR_BYTES_PER_ATOM * len(system.charged)
        # one per-atom array serves every run: each run's trace is
        # pickled on its own, so the sharing never reaches the bytes
        return runs.collect(
            ForceResult(
                energy=energy,
                terms=n_terms,
                per_atom_work=per_atom,
                flops=FLOPS_PER_PAIR * n_terms,
                bytes_irregular=0.0,
                bytes_regular=streamed,
            )
            for energy in energies.tolist()
        )
