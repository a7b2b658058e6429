"""The MD engine: the six-phase timestep of §II-A.

    1. run the predictor for each atom
    2. check whether the neighbor list is still valid
    3. if invalid, repopulate the linked cells and build the
       neighbor lists
    4. calculate the forces on each atom from each relevant type of
       interaction
    5. perform a reduction across all copies of the privatized force
       array (trivial in the serial engine)
    6. run the corrector for each atom

One engine, :class:`RunBatch`, advances ``R`` runs of one system in
lockstep on the ``(R, N, 3)`` stacks of a
:class:`~repro.md.system.SystemStack`; :class:`MDEngine` is one run's
configuration and the scalar API, a batch of one whose stack is a view
of its own :class:`~repro.md.system.AtomSystem` arrays.  Per step:

* predict, boundary and correct run once on the stacks (the integrator
  and boundaries index the atom axis as second-from-last);
* each run keeps its own Verlet list, since rebuild decisions depend
  on the run, and the lists are spliced with run offsets into one
  merged list after any of them rebuilds;
* a :attr:`~repro.md.forces.base.Force.batched` force evaluates every
  run with one ``compute`` call on the stack and returns one result
  per run; any other force (Ewald, owner-restricted copies,
  user-defined forces) runs ``compute`` run by run on each run's
  system, and each run's own thermostat follows the corrector.

Each step fills one :class:`StepReport` per run with the phase-by-phase
*work counts* the parallel layer's cost model consumes.  A run's
reports are the same objects, value for value and in the same sharing
pattern, whatever the batch around it, so its pickled trace is
byte-identical (``GOLDEN.json`` and ``tests/ensemble/`` check this):
the run cache publishes batched runs under the digests of scalar ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.md.boundary import Boundary, ReflectiveBox
from repro.md.forces.base import Force, ForceResult
from repro.md.integrator import TaylorPredictorCorrector
from repro.md.neighbors import NeighborList
from repro.md.system import AtomSystem, SystemStack, shared_field_mismatches
from repro.md.thermostat import BerendsenThermostat
from repro.md.units import ACCEL_UNIT


@dataclass
class PhaseWork:
    """Work performed by one phase of one timestep."""

    per_atom: np.ndarray
    flops: float = 0.0
    bytes_irregular: float = 0.0
    bytes_regular: float = 0.0
    terms: int = 0


@dataclass
class StepReport:
    """Everything one timestep did."""

    step: int
    rebuilt: bool
    potential_energy: float
    kinetic_energy: float
    force_results: Dict[str, ForceResult] = field(default_factory=dict)
    phase_work: Dict[str, PhaseWork] = field(default_factory=dict)
    #: per-force-kernel slice of the "forces" phase (keyed by force
    #: name: "lj" / "coulomb" / "bond"...), so speedup-loss attribution
    #: can blame individual kernels, not just the fused phase
    kernel_work: Dict[str, PhaseWork] = field(default_factory=dict)

    @property
    def total_energy(self) -> float:
        return self.potential_energy + self.kinetic_energy


#: cost constants for the rebuild phase (per candidate pair examined)
REBUILD_FLOPS_PER_CANDIDATE = 10.0
REBUILD_BYTES_PER_CANDIDATE = 32.0


class MDEngine:
    """One run: a system, its forces and integration settings, stepped
    as a :class:`RunBatch` of one.

    Parameters
    ----------
    system:
        The :class:`AtomSystem` to integrate (mutated in place: from the
        first step on, the engine holds views of its kinematic arrays,
        so write into them rather than rebinding them).
    forces:
        Force objects; evaluation order is preserved.
    boundary:
        Defaults to reflective walls over ``system.box`` (MW behaviour).
    dt_fs:
        Timestep; MW runs 1-2 fs.
    neighbor_cutoff:
        Verlet-list cutoff.  Defaults to 2.5 x the largest sigma in the
        system (so every LJ pair the force would keep is in the list).
    skin:
        Verlet skin (Å); rebuild triggers at skin/2 displacement.
    thermostat:
        Optional heat bath applied after the corrector.
    """

    def __init__(
        self,
        system: AtomSystem,
        forces: Sequence[Force],
        boundary: Optional[Boundary] = None,
        dt_fs: float = 2.0,
        neighbor_cutoff: Optional[float] = None,
        skin: float = 0.8,
        thermostat: Optional[BerendsenThermostat] = None,
    ):
        self.system = system
        self.forces = list(forces)
        self.boundary = boundary or ReflectiveBox(system.box)
        self.integrator = TaylorPredictorCorrector(dt_fs)
        self.thermostat = thermostat
        self._needs_nlist = any(f.uses_neighbor_list() for f in self.forces)
        if neighbor_cutoff is None:
            sig_max = float(system.sigma.max()) if system.n_atoms else 3.0
            neighbor_cutoff = 2.5 * sig_max
        self.neighbors = NeighborList(neighbor_cutoff, skin=skin)
        self.step_count = 0
        self._primed = False
        self._batch: Optional[RunBatch] = None

    def _run_batch(self) -> "RunBatch":
        # built on first use, so the stack views the system's arrays
        # as they are when stepping starts
        if self._batch is None:
            self._batch = RunBatch([self])
        return self._batch

    def prime(self) -> None:
        """Evaluate initial forces and accelerations (idempotent)."""
        self._run_batch().prime()

    def step(self) -> StepReport:
        """Advance one timestep; returns the full work report."""
        return self._run_batch().step()[0]

    def run(self, n_steps: int) -> List[StepReport]:
        """Run ``n_steps`` timesteps; returns their reports."""
        return [self.step() for _ in range(n_steps)]

    def potential_energy(self) -> float:
        """Potential energy at the current positions (no state change
        other than refreshed forces)."""
        batch = self._run_batch()
        batch.prime()
        return batch._phase_forces()[0][0]


def _same_config(a: Force, b: Force) -> bool:
    """Same force type with equal public attributes (private ones are
    caches derived from them)."""
    if a is b:
        return True
    if type(a) is not type(b):
        return False
    va = {k: v for k, v in vars(a).items() if not k.startswith("_")}
    vb = {k: v for k, v in vars(b).items() if not k.startswith("_")}
    return va.keys() == vb.keys() and all(
        np.array_equal(va[k], vb[k])
        if isinstance(va[k], np.ndarray) or isinstance(vb[k], np.ndarray)
        else va[k] == vb[k]
        for k in va
    )


def _check_batch(engines: Sequence[MDEngine]) -> None:
    """Raise ``ValueError`` unless ``engines`` can advance as one
    batch: fresh engines over one system family (atom count, static
    arrays, boundary type — and box, if periodic — timestep,
    neighbor-list parameters) and one force list, batched forces
    configured alike."""
    if not engines:
        raise ValueError("empty batch")
    base = engines[0]
    for e in engines:
        if e.system.n_atoms != base.system.n_atoms:
            raise ValueError("atom counts differ across runs")
        if e.step_count or e._primed:
            raise ValueError("engines must be unstepped")
        if e.integrator.dt != base.integrator.dt:
            raise ValueError("timesteps differ across runs")
        if (e.neighbors.cutoff, e.neighbors.skin) != (
            base.neighbors.cutoff, base.neighbors.skin
        ):
            raise ValueError("neighbor-list parameters differ across runs")
        if type(e.boundary) is not type(base.boundary):
            raise ValueError("boundary types differ across runs")
        if base.boundary.periodic and not np.array_equal(
            e.boundary.box, base.boundary.box
        ):
            # the minimum image of the flat stack needs one box
            raise ValueError("periodic runs must share one box")
        if len(e.forces) != len(base.forces) or not all(
            _same_config(f, g) if g.batched else type(f) is type(g)
            for f, g in zip(e.forces, base.forces)
        ):
            raise ValueError("force configurations differ across runs")
    mismatched = shared_field_mismatches([e.system for e in engines])
    if mismatched:
        raise ValueError(f"per-run static arrays differ: {mismatched}")


class RunBatch:
    """Advance the runs of ``engines`` in lockstep (see the module
    docstring); :meth:`step` returns one report per run."""

    def __init__(self, engines: Sequence[MDEngine]):
        _check_batch(engines)
        base = engines[0]
        self.engines = list(engines)
        self.n_runs = len(self.engines)
        self.n_atoms = base.system.n_atoms
        self.stack = SystemStack([e.system for e in self.engines])
        #: the boundary of the stacks: the runs' shared box, or walls
        #: with one ``(1, 3)`` box row per run (each run's own boundary
        #: still serves its neighbor list and its per-run forces)
        self.boundary = base.boundary
        boxes = [e.boundary.box for e in self.engines]
        if any(not np.array_equal(b, boxes[0]) for b in boxes):
            self.boundary = type(base.boundary)(np.stack(boxes)[:, None, :])
        self.integrator = base.integrator
        self.forces = base.forces
        self._needs_nlist = base._needs_nlist
        self.nlists = [e.neighbors for e in self.engines]
        self.skin = float(base.neighbors.skin)
        #: the runs' pair lists spliced with run offsets (one run's own)
        self.merged_nl = self.nlists[0]
        if self.n_runs > 1:
            self.merged_nl = NeighborList(base.neighbors.cutoff, self.skin)
        #: stacked rebuild-reference positions, so the validity check of
        #: every run is one array expression
        self._ref = np.full((self.n_runs, self.n_atoms, 3), np.inf)
        self.step_count = 0
        self._primed = False

    # -- phases ---------------------------------------------------------------

    def _splice(self) -> None:
        if self.n_runs == 1:
            return
        N = self.n_atoms
        merged = self.merged_nl
        merged.pairs_i = np.concatenate(
            [nl.pairs_i + r * N for r, nl in enumerate(self.nlists)]
        )
        merged.pairs_j = np.concatenate(
            [nl.pairs_j + r * N for r, nl in enumerate(self.nlists)]
        )
        merged._ref_positions = self._ref.reshape(-1, 3)

    def _phase_rebuild(self):
        """Phases 2+3: one stacked displacement test decides which runs
        rebuild (this is where runs diverge); only those runs rebuild
        their lists, after which the merged list is re-spliced."""
        R, N = self.n_runs, self.n_atoms
        if not self._needs_nlist:
            idle = PhaseWork(per_atom=np.zeros(N))
            return [False] * R, [idle] * R
        P = self.stack.positions
        disp = np.abs(P - self._ref).max(axis=(1, 2))
        need = (disp > self.skin / 2.0).tolist()
        # runs that did not rebuild share one zero-work object: each
        # run's trace is pickled on its own, so cross-run sharing never
        # reaches the bytes (sharing across *steps* would — see step())
        idle = None if all(need) else PhaseWork(per_atom=np.zeros(N))
        works: List[PhaseWork] = []
        for r in range(R):
            if not need[r]:
                works.append(idle)
                continue
            nl = self.nlists[r]
            nl.build(P[r], self.engines[r].boundary)
            self._ref[r] = nl._ref_positions
            cand = nl.last_candidates
            # candidate examination distributes like list ownership
            per_atom = nl.per_atom_counts(N).astype(np.float64)
            scale = cand / max(per_atom.sum(), 1.0)
            works.append(PhaseWork(
                per_atom=per_atom * scale,
                flops=REBUILD_FLOPS_PER_CANDIDATE * cand,
                bytes_irregular=REBUILD_BYTES_PER_CANDIDATE * cand,
                terms=cand,
            ))
        if any(need):
            self._splice()
        return need, works

    def _phase_forces(self) -> list:
        """Phase 4 (phase 5's reduction is implicit: every kernel adds
        into the one force stack).  Returns one ``(potential, results,
        kernel works, force-phase work)`` tuple per run."""
        R, N = self.n_runs, self.n_atoms
        stack = self.stack
        stack.forces[...] = 0.0
        evaluated = []  # (name, one result per run), in force order
        per_atom = np.zeros((R, N))
        for k, force in enumerate(self.forces):
            if force.batched:
                nl = self.merged_nl if self._needs_nlist else None
                run_results = force.compute(
                    stack, self.boundary, nl, stack.forces
                )
            else:
                run_results = [
                    e.forces[k].compute(
                        e.system, e.boundary,
                        e.neighbors if self._needs_nlist else None,
                        e.system.forces,
                    )
                    for e in self.engines
                ]
            evaluated.append((force.name, run_results))
            per_atom = per_atom + np.array(
                [res.per_atom_work for res in run_results]
            )
        out = []
        for r in range(R):
            results, kernels = {}, {}
            potential = flops = irregular = regular = 0.0
            terms = 0
            for name, run_results in evaluated:
                res = run_results[r]
                results[name] = res
                kernels[name] = PhaseWork(
                    res.per_atom_work, res.flops, res.bytes_irregular,
                    res.bytes_regular, res.terms,
                )
                potential += res.energy
                flops += res.flops
                irregular += res.bytes_irregular
                regular += res.bytes_regular
                terms += res.terms
            out.append((potential, results, kernels, PhaseWork(
                per_atom[r], flops, irregular, regular, terms,
            )))
        return out

    # -- public API --------------------------------------------------------------

    def prime(self) -> None:
        """Initial neighbor lists, forces and accelerations of every
        run (idempotent)."""
        if self._primed:
            return
        if self._needs_nlist:
            P = self.stack.positions
            for r, nl in enumerate(self.nlists):
                nl.ensure(P[r], self.engines[r].boundary)
                self._ref[r] = nl._ref_positions
            self._splice()
        self._phase_forces()
        self.integrator.prime(self.stack)
        self._primed = True
        for e in self.engines:
            e._primed = True

    def step(self) -> List[StepReport]:
        """Advance every run one timestep; returns one report per run."""
        self.prime()
        N = self.n_atoms
        stack, integ = self.stack, self.integrator
        integ.predict(stack)
        self.boundary.apply(stack.positions, stack.velocities)
        rebuilt, rebuild_works = self._phase_rebuild()
        forces = self._phase_forces()
        integ.correct(stack)
        for e in self.engines:
            if e.thermostat is not None:
                e.thermostat.apply(e.system, integ.dt)
        self.step_count += 1
        for e in self.engines:
            e.step_count = self.step_count
        V = stack.velocities
        v2 = np.einsum("rij,rij->ri", V, V)
        # Predict/correct work is the same for every run (same atom
        # count, shared movability), so all reports of *this step*
        # share one PhaseWork each.  They must be fresh objects every
        # step: reusing one across steps would make pickle memoize it
        # *within* a run's trace and change the bytes.
        predict_work = PhaseWork(
            per_atom=np.ones(N),
            flops=integ.PREDICT_FLOPS * N,
            bytes_regular=integ.BYTES_PER_ATOM * N,
        )
        correct_work = PhaseWork(
            per_atom=np.ones(N),
            flops=integ.CORRECT_FLOPS * N,
            bytes_regular=integ.BYTES_PER_ATOM * N,
        )
        masses = stack.masses
        return [
            StepReport(
                step=self.step_count,
                rebuilt=rebuilt[r],
                potential_energy=potential,
                kinetic_energy=float(
                    0.5 * np.dot(masses, v2[r]) / ACCEL_UNIT
                ),
                force_results=results,
                kernel_work=kernels,
                phase_work={
                    "predict": predict_work,
                    "rebuild": rebuild_works[r],
                    "forces": force_work,
                    "correct": correct_work,
                },
            )
            for r, (potential, results, kernels, force_work)
            in enumerate(forces)
        ]
