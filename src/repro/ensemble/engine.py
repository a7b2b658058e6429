"""Batched MD engine: R seeded runs advanced by one vectorized pipeline.

The engine wraps ``R`` scalar :class:`~repro.md.engine.MDEngine`
instances (one per seed) and advances them in lockstep:

* predict/correct/boundary run once on the ``(R, N, 3)`` stacks — the
  scalar integrator and reflective box already index the atom axis as
  second-from-last, so the batched call is the same elementwise
  arithmetic as ``R`` scalar calls;
* each per-run Verlet list is built per run (rebuild *decisions*
  diverge across seeds), but the surviving pair lists are concatenated
  with run offsets into one merged list, so every pair and bonded
  kernel's ``_bundle`` executes once over all runs' terms on the
  flattened ``(R·N, 3)`` view; the all-pairs Coulomb kernel instead
  takes the ``(R, N, 3)`` stack directly, its ring being per run;
* per-run :class:`~repro.md.engine.StepReport` objects are then
  reassembled from run segments of the merged results, mirroring the
  scalar engine's object graph exactly (shared ``per_atom_work``
  arrays, Python-float energy accumulation in kernel order), so the
  pickled per-run traces are **byte-identical** to scalar captures.

Byte identity is load-bearing: the run cache publishes ensemble
results under the same content addresses as scalar results, so any
divergence would poison resume/journal/leaderboard consumers.  The
property tests in ``tests/ensemble/`` assert equality at pickle level.

Configurations the batched path cannot reproduce exactly (periodic
boundaries, thermostats, owner-restricted forces, per-run static
arrays that differ) raise :class:`EnsembleUnsupported`; callers fall
back to the scalar path.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.md.boundary import ReflectiveBox
from repro.md.engine import (
    REBUILD_BYTES_PER_CANDIDATE,
    REBUILD_FLOPS_PER_CANDIDATE,
    MDEngine,
    PhaseWork,
    StepReport,
)
from repro.md.forces import bonded as bonded_mod
from repro.md.forces import coulomb as coulomb_mod
from repro.md.forces import lj as lj_mod
from repro.md.forces import morse as morse_mod
from repro.md.forces.base import ForceResult, owner_counts
from repro.md.forces.bonded import (
    AngularBondForce,
    RadialBondForce,
    TorsionalBondForce,
)
from repro.md.forces.coulomb import CoulombForce
from repro.md.forces.lj import LennardJonesForce
from repro.md.forces.morse import MorseForce
from repro.md.integrator import TaylorPredictorCorrector
from repro.md.neighbors import NeighborList
from repro.md.units import ACCEL_UNIT

from repro.ensemble.system import (
    EnsembleState,
    FlatSystemView,
    shared_field_mismatches,
)


class EnsembleUnsupported(Exception):
    """The batch cannot be reproduced bit-exactly by the vectorized
    path; the caller must fall back to scalar execution."""


def _force_signature(force) -> tuple:
    """Hashable configuration fingerprint of one force object; raises
    :class:`EnsembleUnsupported` for types the merged path can't run."""
    if isinstance(force, LennardJonesForce):
        if force.owner_range is not None:
            raise EnsembleUnsupported("owner-restricted LJ force")
        ex = force.exclusions
        return (
            "lj", force.cutoff_factor, force.skip_fixed_pairs,
            None if ex is None else (ex.shape, ex.tobytes()),
        )
    if isinstance(force, MorseForce):
        if force.owner_range is not None:
            raise EnsembleUnsupported("owner-restricted Morse force")
        return (
            "morse", force.depth, force.width, force.r0, force.cutoff,
            force.skip_fixed_pairs,
        )
    if isinstance(force, CoulombForce):
        if force.owner_range is not None:
            raise EnsembleUnsupported("owner-restricted Coulomb force")
        return ("coulomb", force.min_distance)
    if isinstance(force, RadialBondForce):
        return (
            "bond-radial", force.bonds.tobytes(), force.k.tobytes(),
            force.r0.tobytes(),
        )
    if isinstance(force, AngularBondForce):
        return (
            "bond-angular", force.triples.tobytes(), force.k.tobytes(),
            force.theta0.tobytes(),
        )
    if isinstance(force, TorsionalBondForce):
        return (
            "bond-torsional", force.quads.tobytes(), force.v.tobytes(),
            force.periodicity.tobytes(), force.phi0.tobytes(),
        )
    raise EnsembleUnsupported(
        f"unsupported force type {type(force).__name__}"
    )


class _MergedNeighborList(NeighborList):
    """Run-offset concatenation of R per-run pair lists, presented
    through the :class:`NeighborList` interface so the scalar kernels'
    ``_bundle`` paths consume it unchanged (they use only ``built``
    and :meth:`pairs_within`).  Never built directly — :meth:`refresh`
    splices in the per-run lists after any of them rebuilds."""

    def refresh(self, nlists: Sequence[NeighborList], n_atoms: int):
        self.pairs_i = np.concatenate(
            [nl.pairs_i + r * n_atoms for r, nl in enumerate(nlists)]
        )
        self.pairs_j = np.concatenate(
            [nl.pairs_j + r * n_atoms for r, nl in enumerate(nlists)]
        )
        self._ref_positions = self.pairs_i  # non-None ⇒ ``built``


def _run_segments(owner: np.ndarray, n_atoms: int, n_runs: int):
    """Per-run term counts and slice offsets of a merged, run-grouped
    owner array (terms are concatenated run-major)."""
    seg = np.bincount(owner // n_atoms, minlength=n_runs)
    offs = np.concatenate(([0], np.cumsum(seg)))
    return seg, offs


def _segment_sums(e_terms, seg, offs) -> List[float]:
    """Per-run energy: sum of each run's contiguous slice of the merged
    term array.

    When every run has the same term count (no rebuild divergence —
    the common case), one ``reshape(R, m).sum(axis=1)`` replaces R
    separate ``.sum()`` dispatches.  Bit-identical by construction:
    reducing a C-contiguous 2-D array over its last axis applies the
    same pairwise summation to each row that ``row.sum()`` applies to
    the identical slice of memory (asserted against the scalar path in
    ``tests/ensemble/``).
    """
    m = seg[0] if seg else 0
    if m and all(v == m for v in seg):
        return e_terms.reshape(len(seg), m).sum(axis=1).tolist()
    return [
        float(e_terms[offs[r]:offs[r + 1]].sum()) if seg[r] else 0.0
        for r in range(len(seg))
    ]


def _empty_results(n_atoms: int, n_runs: int):
    return [ForceResult.empty(n_atoms) for _ in range(n_runs)], None


class _LJDriver:
    """Merged Lennard-Jones kernel: one ``_bundle`` call over the
    run-offset pair list, per-run results cut from its segments."""

    name = "lj"

    def __init__(self, force: LennardJonesForce, n_runs: int, n_atoms: int):
        ex = force.exclusions
        merged_ex = None
        if ex is not None:
            merged_ex = np.concatenate(
                [ex + r * n_atoms for r in range(n_runs)]
            )
        self.force = LennardJonesForce(
            force.cutoff_factor,
            exclusions=merged_ex,
            skip_fixed_pairs=force.skip_fixed_pairs,
        )

    def run(self, eng: "EnsembleMDEngine"):
        R, N = eng.n_runs, eng.n_atoms
        bundle = self.force._bundle(
            eng.flat, eng.batched_boundary, eng.merged_nl, eng.flat.forces
        )
        if bundle is None:
            return _empty_results(N, R)
        owner, e_terms = bundle
        counts = owner_counts(owner, R * N).reshape(R, N)
        owners_per_run = (counts > 0).sum(axis=1).tolist()
        seg, offs = _run_segments(owner, N, R)
        seg, offs = seg.tolist(), offs.tolist()
        energies = _segment_sums(e_terms, seg, offs)
        results = []
        for r in range(R):
            m = seg[r]
            if m == 0:
                results.append(ForceResult.empty(N))
                continue
            results.append(ForceResult(
                energy=energies[r],
                terms=m,
                per_atom_work=counts[r],
                flops=lj_mod.FLOPS_PER_PAIR * m,
                bytes_irregular=lj_mod.IRREGULAR_BYTES_PER_PAIR * m,
                bytes_regular=(
                    lj_mod.REGULAR_BYTES_PER_ATOM * owners_per_run[r]
                ),
            ))
        return results, counts


class _MorseDriver:
    name = "morse"

    def __init__(self, force: MorseForce, n_runs: int, n_atoms: int):
        self.force = MorseForce(
            force.depth, force.width, force.r0, force.cutoff,
            skip_fixed_pairs=force.skip_fixed_pairs,
        )

    def run(self, eng: "EnsembleMDEngine"):
        R, N = eng.n_runs, eng.n_atoms
        bundle = self.force._bundle(
            eng.flat, eng.batched_boundary, eng.merged_nl, eng.flat.forces
        )
        if bundle is None:
            return _empty_results(N, R)
        owner, e_terms = bundle
        counts = owner_counts(owner, R * N).reshape(R, N)
        seg, offs = _run_segments(owner, N, R)
        seg, offs = seg.tolist(), offs.tolist()
        energies = _segment_sums(e_terms, seg, offs)
        results = []
        for r in range(R):
            m = seg[r]
            if m == 0:
                results.append(ForceResult.empty(N))
                continue
            results.append(ForceResult(
                energy=energies[r],
                terms=m,
                per_atom_work=counts[r],
                flops=morse_mod.FLOPS_PER_PAIR * m,
                bytes_irregular=morse_mod.IRREGULAR_BYTES_PER_PAIR * m,
                bytes_regular=0.0,
            ))
        return results, counts


class _CoulombDriver:
    """Coulomb over the ``(R, N, 3)`` stack: the half-shell ring is
    per run, so the scalar kernel evaluates every run's ring at once
    along the leading run axis (charges and movability are shared)."""

    name = "coulomb"

    def __init__(self, force: CoulombForce, base_system):
        self.force = force
        self.charges = base_system.charges
        self.movable = base_system.movable
        self.m_charged = len(base_system.charged)

    def run(self, eng: "EnsembleMDEngine"):
        R, N = eng.n_runs, eng.n_atoms
        ring = self.force.accumulate(
            eng.state.positions, self.charges, self.movable,
            eng.batched_boundary, eng.state.forces,
        )
        if ring is None:
            return _empty_results(N, R)
        e_terms, per_atom = ring
        counts = np.tile(per_atom, (R, 1))
        m = e_terms.shape[-1]
        energies = e_terms.sum(axis=1).tolist()
        results = []
        for r in range(R):
            results.append(ForceResult(
                energy=energies[r],
                terms=m,
                per_atom_work=counts[r],
                flops=coulomb_mod.FLOPS_PER_PAIR * m,
                bytes_irregular=0.0,
                bytes_regular=(
                    coulomb_mod.REGULAR_BYTES_PER_ATOM * self.m_charged
                ),
            ))
        return results, counts


class _BondedDriver:
    """Shared shape of the three bonded kernels: the merged force holds
    run-offset index arrays and tiled parameters, each step is one
    ``_bundle`` call, and the per-run segment length is the static
    per-run term count."""

    def __init__(self, merged_force, name, n_terms, weight,
                 flops_per_term, lines_per_term):
        self.force = merged_force
        self.name = name
        self.n_terms = n_terms  # per run
        self.weight = weight
        self.flops_per_term = flops_per_term
        self.irr_per_term = lines_per_term * bonded_mod.LINE_BYTES

    def run(self, eng: "EnsembleMDEngine"):
        R, N = eng.n_runs, eng.n_atoms
        m = self.n_terms
        if m == 0:
            return _empty_results(N, R)
        owner, e_terms = self.force._bundle(
            eng.flat, eng.batched_boundary, eng.flat.forces
        )
        counts = owner_counts(owner, R * N, weight=self.weight)
        counts = counts.reshape(R, N)
        energies = e_terms.reshape(R, m).sum(axis=1).tolist()
        results = []
        for r in range(R):
            results.append(ForceResult(
                energy=energies[r],
                terms=m,
                per_atom_work=counts[r],
                flops=self.flops_per_term * m,
                bytes_irregular=self.irr_per_term * m,
                bytes_regular=0.0,
            ))
        return results, counts


def _build_drivers(forces, n_runs: int, n_atoms: int, base_system):
    drivers = []
    for f in forces:
        if isinstance(f, LennardJonesForce):
            drivers.append(_LJDriver(f, n_runs, n_atoms))
        elif isinstance(f, MorseForce):
            drivers.append(_MorseDriver(f, n_runs, n_atoms))
        elif isinstance(f, CoulombForce):
            drivers.append(
                _CoulombDriver(f, base_system)
            )
        elif isinstance(f, RadialBondForce):
            m = f.n_bonds
            merged = RadialBondForce(
                np.concatenate(
                    [f.bonds + r * n_atoms for r in range(n_runs)]
                ) if m else f.bonds,
                np.tile(f.k, n_runs) if m else f.k,
                np.tile(f.r0, n_runs) if m else f.r0,
            )
            drivers.append(_BondedDriver(
                merged, f.name, m, 1.0, bonded_mod.RADIAL_FLOPS, 2,
            ))
        elif isinstance(f, AngularBondForce):
            m = f.n_angles
            merged = AngularBondForce(
                np.concatenate(
                    [f.triples + r * n_atoms for r in range(n_runs)]
                ) if m else f.triples,
                np.tile(f.k, n_runs) if m else f.k,
                np.tile(f.theta0, n_runs) if m else f.theta0,
            )
            drivers.append(_BondedDriver(
                merged, f.name, m, 2.0, bonded_mod.ANGULAR_FLOPS, 3,
            ))
        elif isinstance(f, TorsionalBondForce):
            m = f.n_torsions
            merged = TorsionalBondForce(
                np.concatenate(
                    [f.quads + r * n_atoms for r in range(n_runs)]
                ) if m else f.quads,
                np.tile(f.v, n_runs) if m else f.v,
                np.tile(f.periodicity, n_runs) if m else f.periodicity,
                np.tile(f.phi0, n_runs) if m else f.phi0,
            )
            drivers.append(_BondedDriver(
                merged, f.name, m, 3.0, bonded_mod.TORSIONAL_FLOPS, 4,
            ))
        else:  # pragma: no cover - caught by _force_signature first
            raise EnsembleUnsupported(
                f"unsupported force type {type(f).__name__}"
            )
    return drivers


def _validate(engines: Sequence[MDEngine]):
    if not engines:
        raise EnsembleUnsupported("empty batch")
    base = engines[0]
    n = base.system.n_atoms
    if n == 0:
        raise EnsembleUnsupported("empty system")
    for e in engines:
        if type(e.boundary) is not ReflectiveBox:
            raise EnsembleUnsupported(
                f"boundary {type(e.boundary).__name__} is not batchable"
            )
        if e.thermostat is not None:
            raise EnsembleUnsupported("thermostatted runs")
        if e.system.n_atoms != n:
            raise EnsembleUnsupported("atom counts differ across runs")
        if e.integrator.dt != base.integrator.dt:
            raise EnsembleUnsupported("timesteps differ across runs")
        if (
            e.neighbors.cutoff != base.neighbors.cutoff
            or e.neighbors.skin != base.neighbors.skin
        ):
            raise EnsembleUnsupported(
                "neighbor-list parameters differ across runs"
            )
        if e.step_count or e._primed:
            raise EnsembleUnsupported("engines must be unstepped")
    mismatched = shared_field_mismatches([e.system for e in engines])
    if mismatched:
        raise EnsembleUnsupported(
            f"per-run static arrays differ: {mismatched}"
        )
    signatures = [
        tuple(_force_signature(f) for f in e.forces) for e in engines
    ]
    if any(sig != signatures[0] for sig in signatures[1:]):
        raise EnsembleUnsupported(
            "force configurations differ across runs"
        )


class EnsembleMDEngine:
    """Advance ``R`` freshly-built scalar engines in vectorized
    lockstep; :meth:`run` returns one scalar-identical trace per run.

    Raises :class:`EnsembleUnsupported` (fall back to scalar) when the
    batch is not homogeneous enough to batch bit-exactly.
    """

    def __init__(self, engines: Sequence[MDEngine]):
        _validate(engines)
        base = engines[0]
        self.n_runs = len(engines)
        self.n_atoms = base.system.n_atoms
        self.state = EnsembleState([e.system for e in engines])
        self.flat = FlatSystemView(self.state, base.system)
        self.integrator = TaylorPredictorCorrector(base.integrator.dt)
        self.boundaries = [e.boundary for e in engines]
        #: one reflective box over the stacks: box rows broadcast
        #: against the (R, N, 3) positions, and its identity
        #: ``displacement`` also serves the flat kernel calls
        self.batched_boundary = ReflectiveBox(
            self.state.boxes[:, None, :]
        )
        self.nlists = [e.neighbors for e in engines]
        self.skin = float(base.neighbors.skin)
        self._needs_nlist = base._needs_nlist
        self.merged_nl = None
        if self._needs_nlist:
            self.merged_nl = _MergedNeighborList(
                base.neighbors.cutoff, skin=self.skin
            )
        #: stacked rebuild-reference positions (mirrors each per-run
        #: list's ``_ref_positions`` so the validity check is batched)
        self._ref = np.full((self.n_runs, self.n_atoms, 3), np.inf)
        self.drivers = _build_drivers(
            base.forces, self.n_runs, self.n_atoms, base.system
        )
        self.masses = base.system.masses
        self.step_count = 0
        self._primed = False

    # -- phases ---------------------------------------------------------------

    def _sync_merged(self):
        self.merged_nl.refresh(self.nlists, self.n_atoms)

    def _check_and_rebuild(self) -> Tuple[List[bool], List[PhaseWork]]:
        """Phases 2+3, batched: one stacked displacement test decides
        which runs rebuild; only those runs re-enter the scalar build
        (rebuild cadence is seed-dependent, so this is where runs
        diverge), after which the merged pair list is re-spliced."""
        R, N = self.n_runs, self.n_atoms
        if not self._needs_nlist:
            idle = PhaseWork(per_atom=np.zeros(N))
            return [False] * R, [idle] * R
        P = self.state.positions
        need = np.abs(P - self._ref).max(axis=(1, 2)) > self.skin / 2.0
        # runs that did not rebuild share one zero-work object: each
        # run's trace is pickled on its own, so cross-run sharing never
        # reaches the bytes (sharing across *steps* would — see step())
        idle = PhaseWork(per_atom=np.zeros(N)) if not need.all() else None
        works: List[PhaseWork] = []
        for r in range(R):
            if not need[r]:
                works.append(idle)
                continue
            nl = self.nlists[r]
            nl.build(P[r], self.boundaries[r])
            self._ref[r] = nl._ref_positions
            cand = nl.last_candidates
            per_atom = nl.per_atom_counts(N).astype(np.float64)
            scale = cand / max(per_atom.sum(), 1.0)
            works.append(PhaseWork(
                per_atom=per_atom * scale,
                flops=REBUILD_FLOPS_PER_CANDIDATE * cand,
                bytes_irregular=REBUILD_BYTES_PER_CANDIDATE * cand,
                terms=cand,
            ))
        if need.any():
            self._sync_merged()
        return [bool(x) for x in need], works

    def _phase_forces(self):
        R, N = self.n_runs, self.n_atoms
        self.state.forces[:] = 0.0
        if len(self.drivers) == 1:
            # single-kernel fast path (the common LJ-only workloads):
            # same accumulation arithmetic as the generic loop below —
            # 0.0 + x is kept because the scalar engine starts every
            # total at 0.0 (and 0.0 + -0.0 is +0.0, a pickle-visible bit)
            driver = self.drivers[0]
            name = driver.name
            results, counts = driver.run(self)
            if counts is None:
                counts = np.zeros((R, N))
            acc = np.zeros((R, N)) + counts
            results_rows = [{name: res} for res in results]
            kernels_rows = [
                {name: PhaseWork(
                    per_atom=res.per_atom_work,
                    flops=res.flops,
                    bytes_irregular=res.bytes_irregular,
                    bytes_regular=res.bytes_regular,
                    terms=res.terms,
                )}
                for res in results
            ]
            potentials = [0.0 + res.energy for res in results]
            force_works = [
                PhaseWork(
                    per_atom=acc[r],
                    flops=0.0 + res.flops,
                    bytes_irregular=0.0 + res.bytes_irregular,
                    bytes_regular=0.0 + res.bytes_regular,
                    terms=0 + res.terms,
                )
                for r, res in enumerate(results)
            ]
            return potentials, results_rows, kernels_rows, force_works
        results_rows: List[dict] = [{} for _ in range(R)]
        kernels_rows: List[dict] = [{} for _ in range(R)]
        potentials = [0.0] * R
        acc = np.zeros((R, N))
        totals = [[0.0, 0.0, 0.0, 0] for _ in range(R)]
        for driver in self.drivers:
            results, counts = driver.run(self)
            if counts is None:
                counts = np.zeros((R, N))
            for r, res in enumerate(results):
                results_rows[r][driver.name] = res
                kernels_rows[r][driver.name] = PhaseWork(
                    per_atom=res.per_atom_work,
                    flops=res.flops,
                    bytes_irregular=res.bytes_irregular,
                    bytes_regular=res.bytes_regular,
                    terms=res.terms,
                )
                potentials[r] += res.energy
                t = totals[r]
                t[0] += res.flops
                t[1] += res.bytes_irregular
                t[2] += res.bytes_regular
                t[3] += res.terms
            acc = acc + counts
        force_works = [
            PhaseWork(
                per_atom=acc[r],
                flops=totals[r][0],
                bytes_irregular=totals[r][1],
                bytes_regular=totals[r][2],
                terms=totals[r][3],
            )
            for r in range(R)
        ]
        return potentials, results_rows, kernels_rows, force_works

    # -- public API --------------------------------------------------------------

    def prime(self) -> None:
        """Initial neighbor lists, forces and accelerations for every
        run (idempotent) — the batched mirror of ``MDEngine.prime``."""
        if self._primed:
            return
        if self._needs_nlist:
            P = self.state.positions
            for r, nl in enumerate(self.nlists):
                nl.ensure(P[r], self.boundaries[r])
                self._ref[r] = nl._ref_positions
            self._sync_merged()
        self._phase_forces()
        self.integrator.prime(self.state)
        self._primed = True

    def step(self) -> List[StepReport]:
        """Advance every run one timestep; returns one report per run,
        each byte-identical to what its scalar engine would produce."""
        self.prime()
        R, N = self.n_runs, self.n_atoms
        integ = self.integrator
        integ.predict(self.state)
        self.batched_boundary.apply(
            self.state.positions, self.state.velocities
        )
        rebuilt, rebuild_works = self._check_and_rebuild()
        potentials, results_rows, kernels_rows, force_works = (
            self._phase_forces()
        )
        integ.correct(self.state)
        self.step_count += 1
        V = self.state.velocities
        v2 = np.einsum("rij,rij->ri", V, V)
        # Predict/correct work is identical for every run (same atom
        # count, shared movability), so all R reports of *this step*
        # share one PhaseWork each.  Sharing across runs is invisible —
        # each run's trace is pickled separately — but these must be
        # fresh objects every step: the scalar engine allocates per
        # step, and reusing one object across steps would make pickle
        # memoize it *within* a run's trace and change the bytes.
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
        masses = self.masses
        reports = []
        for r in range(R):
            reports.append(StepReport(
                step=self.step_count,
                rebuilt=rebuilt[r],
                potential_energy=potentials[r],
                kinetic_energy=float(
                    0.5 * np.dot(masses, v2[r]) / ACCEL_UNIT
                ),
                force_results=results_rows[r],
                kernel_work=kernels_rows[r],
                phase_work={
                    "predict": predict_work,
                    "rebuild": rebuild_works[r],
                    "forces": force_works[r],
                    "correct": correct_work,
                },
            ))
        return reports

    def run(self, n_steps: int) -> List[List[StepReport]]:
        """Advance ``n_steps``; returns per-run traces (indexed
        ``[run][step]``), each equal to ``capture_trace`` output."""
        step_rows = [self.step() for _ in range(n_steps)]
        return [
            [row[r] for row in step_rows] for r in range(self.n_runs)
        ]


def ensemble_capture(
    workload: str, n_steps: int, seeds: Sequence[int]
) -> List[List[StepReport]]:
    """Batched :func:`~repro.core.simulate.capture_trace`: one trace
    per seed, each byte-identical to the scalar capture of that seed."""
    from repro.workloads import BUILDERS, resolve_workload

    name = resolve_workload(workload)
    engines = [
        BUILDERS[name](seed=seed).make_engine() for seed in seeds
    ]
    eng = EnsembleMDEngine(engines)
    eng.prime()
    return eng.run(n_steps)
