"""Stacked state for an ensemble of runs over one atom system family.

The ensemble layout is structure-of-arrays with a leading run axis:
positions/velocities/accelerations/forces are ``(n_runs, n_atoms, 3)``
float64 stacks, while the static per-atom properties (masses, charges,
LJ parameters, movability) are shared — runs in one batch differ only
by seed, so their builders produce identical static arrays (asserted
by the engine before batching).

Two views of the same memory serve the two kinds of scalar code the
engine reuses:

* :class:`EnsembleState` exposes the stacks under the attribute names
  :class:`~repro.md.integrator.TaylorPredictorCorrector` and
  :class:`~repro.md.boundary.ReflectiveBox` consume — both index the
  atom axis as second-from-last (``[..., atoms, :]``), so the batched
  update is the same elementwise arithmetic as ``R`` scalar updates.
* :class:`FlatSystemView` presents the stacks as one ``(R·N, 3)``
  pseudo-system for the force kernels' ``_bundle`` paths: positions
  and forces are reshape *views* (in-place kernel writes land in the
  ensemble state), static arrays are tiled per run.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.md.system import AtomSystem


class EnsembleState:
    """Kinematic state of ``R`` runs: ``(R, N, 3)`` stacks plus the
    shared static arrays, under scalar-``AtomSystem`` attribute names."""

    def __init__(self, systems: Sequence[AtomSystem]):
        if not systems:
            raise ValueError("ensemble needs at least one system")
        base = systems[0]
        self.n_runs = len(systems)
        self.n_atoms = base.n_atoms
        self.positions = np.stack([s.positions for s in systems])
        self.velocities = np.stack([s.velocities for s in systems])
        self.accelerations = np.stack([s.accelerations for s in systems])
        self.forces = np.stack([s.forces for s in systems])
        # shared across runs (validated identical by the engine)
        self.masses = base.masses
        self.movable = base.movable
        self.boxes = np.stack([s.box for s in systems])


class FlatSystemView:
    """One ``(R·N)``-atom pseudo-system over an :class:`EnsembleState`.

    ``positions``/``forces`` are reshape views of the stacks — the
    kernels' in-place scatter lands directly in the ensemble state —
    and the static arrays are tiled so run ``r``'s atoms occupy the
    index block ``[r·N, (r+1)·N)``.  Only the attributes the kernel
    ``_bundle`` paths read are provided.
    """

    def __init__(self, state: EnsembleState, base: AtomSystem):
        flat_n = state.n_runs * state.n_atoms
        self.n_atoms = flat_n
        self.positions = state.positions.reshape(flat_n, 3)
        self.forces = state.forces.reshape(flat_n, 3)
        if not (
            np.shares_memory(self.positions, state.positions)
            and np.shares_memory(self.forces, state.forces)
        ):  # pragma: no cover - np.stack output is always C-contiguous
            raise RuntimeError("ensemble stacks must reshape as views")
        self.movable = np.tile(base.movable, state.n_runs)
        self.sigma = np.tile(base.sigma, state.n_runs)
        self.epsilon = np.tile(base.epsilon, state.n_runs)
        self.masses = np.tile(base.masses, state.n_runs)


#: static per-atom arrays every run in a batch must share exactly
SHARED_FIELDS = ("masses", "charges", "sigma", "epsilon", "movable")


def shared_field_mismatches(systems: Sequence[AtomSystem]) -> List[str]:
    """Names of static arrays that differ across ``systems`` (empty
    when the batch is homogeneous enough to share them)."""
    base = systems[0]
    bad = []
    for name in SHARED_FIELDS:
        ref = getattr(base, name)
        if any(
            not np.array_equal(getattr(s, name), ref) for s in systems[1:]
        ):
            bad.append(name)
    return bad
