"""The one engine's batch contract: per-run traces byte-identical
(pickle protocol 4) to scalar captures for any batch — thermostatted,
periodic with Ewald, owner-restricted — plus the homogeneity check
that rejects engines which cannot share one stack."""

import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.simulate import capture_trace
from repro.ensemble import EnsembleMDEngine, ensemble_capture
from repro.md import (
    BerendsenThermostat,
    EwaldCoulombForce,
    LangevinThermostat,
    LennardJonesForce,
    MDEngine,
    VelocityRescaleThermostat,
)
from repro.md.boundary import PeriodicBox
from repro.md.forces.base import segment_sums
from repro.workloads import BUILDERS

#: the cache's artifact pickling protocol — identity must hold at the
#: byte level there, not just under ==
PROTOCOL = 4


def dumps(trace) -> bytes:
    return pickle.dumps(trace, PROTOCOL)


def scalar_trace(workload: str, seed: int, steps: int):
    return capture_trace(BUILDERS[workload](seed=seed), steps)


# ------------------------------------- byte-identity, property-checked


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    workload=st.sampled_from(["gas-16", "lj-32", "ionic-64"]),
    n_runs=st.integers(1, 4),
    steps=st.integers(1, 3),
    base_seed=st.integers(0, 3),
)
def test_property_ensemble_trace_is_byte_identical_to_scalar(
    workload, n_runs, steps, base_seed
):
    """For any small homogeneous batch (including batches of one):
    every per-run trace pickles to exactly the bytes the scalar engine
    produces for that seed.  This is the property that lets the sweep
    publish ensemble results under the runs' own cache digests."""
    seeds = list(range(base_seed, base_seed + n_runs))
    traces = ensemble_capture(workload, steps, seeds)
    assert len(traces) == n_runs
    for seed, trace in zip(seeds, traces):
        assert dumps(trace) == dumps(scalar_trace(workload, seed, steps))


def test_multi_driver_workloads_stay_byte_identical():
    """salt (LJ + Coulomb) and nanocar (LJ + bonded terms) run several
    kernels per step — identity must hold there too."""
    for workload in ("salt", "nanocar"):
        traces = ensemble_capture(workload, 1, [0, 1])
        for seed, trace in zip([0, 1], traces):
            assert dumps(trace) == dumps(scalar_trace(workload, seed, 1))


@pytest.mark.parametrize("workload", sorted(BUILDERS))
def test_every_workload_batches(workload):
    """Every registered workload forms a batch of two, byte-identical
    to its scalar captures — so the sweep needs no fallback for
    workloads the batch cannot take."""
    traces = ensemble_capture(workload, 1, [0, 1])
    for seed, trace in zip([0, 1], traces):
        assert dumps(trace) == dumps(scalar_trace(workload, seed, 1))


# --------------------------- configurations beyond the plain builders


def _thermostat(kind: str, seed: int):
    if kind == "berendsen":
        return BerendsenThermostat(target_k=900.0, tau_fs=20.0)
    if kind == "velocity-rescale":
        return VelocityRescaleThermostat(target_k=900.0, every=2)
    return LangevinThermostat(target_k=900.0, gamma_fs=0.05, seed=seed)


def build_engine(config: str, seed: int) -> MDEngine:
    """One fresh engine of ``config`` for ``seed`` (an ionic-64 gas,
    which runs LJ and Coulomb)."""
    wl = BUILDERS["ionic-64"](seed=seed)
    if config == "periodic-ewald":
        return MDEngine(
            wl.system.copy(),
            [LennardJonesForce(), EwaldCoulombForce(real_cutoff=9.0, kmax=3)],
            boundary=PeriodicBox(wl.system.box),
            dt_fs=wl.dt_fs,
        )
    if config == "restricted":
        half = wl.system.n_atoms // 2
        return MDEngine(
            wl.system.copy(),
            [f.restrict(0, half) for f in wl.forces],
            dt_fs=wl.dt_fs,
        )
    return wl.make_engine(thermostat=_thermostat(config, seed))


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    config=st.sampled_from([
        "berendsen", "velocity-rescale", "langevin",
        "periodic-ewald", "restricted",
    ]),
    n_runs=st.integers(1, 3),
    steps=st.integers(1, 3),
    base_seed=st.integers(0, 3),
)
def test_property_lifted_fences_stay_byte_identical(
    config, n_runs, steps, base_seed
):
    """Thermostatted, periodic/Ewald and owner-restricted batches:
    each run's trace pickles to the bytes of that run stepped alone
    (per-run forces, each run's own thermostat, the shared box)."""
    seeds = list(range(base_seed, base_seed + n_runs))
    batch = EnsembleMDEngine([build_engine(config, s) for s in seeds])
    batch.prime()
    traces = batch.run(steps)
    for seed, trace in zip(seeds, traces):
        solo = build_engine(config, seed)
        solo.prime()
        assert dumps(trace) == dumps(solo.run(steps))


def test_batched_runs_are_views_of_their_systems():
    """A run's system is a row of the batch's stack: in-place writes
    through either side are one state, for one run or many."""
    engines = [BUILDERS["gas-8"](seed=s).make_engine() for s in (0, 1)]
    batch = EnsembleMDEngine(engines)
    batch.run(2)
    for r, e in enumerate(engines):
        assert np.shares_memory(e.system.positions, batch.stack.positions)
        assert e.step_count == 2
        np.testing.assert_array_equal(
            e.system.positions, batch.stack.positions[r]
        )
    solo = BUILDERS["gas-8"](seed=0).make_engine()
    positions = solo.system.positions
    solo.run(2)
    assert solo.system.positions is positions
    np.testing.assert_array_equal(positions, engines[0].system.positions)


# ------------------------------------------------- batched energy sums


def test_segment_sums_equal_segments_match_per_row_sums_bitwise():
    """The reshape(R, m).sum(axis=1) fast path reduces each row over
    the same contiguous memory a per-run slice .sum() reads, so the
    results must be equal as floats (bit-identical), not just close."""
    rng = np.random.default_rng(1234)
    for n_runs, m in [(1, 1), (3, 5), (7, 16), (4, 33)]:
        e_terms = rng.normal(size=n_runs * m)
        got = segment_sums(e_terms, [m] * n_runs)
        want = [
            float(e_terms[m * r:m * (r + 1)].sum()) for r in range(n_runs)
        ]
        assert got == want


def test_segment_sums_ragged_segments_and_empty_runs():
    rng = np.random.default_rng(5)
    seg = [3, 0, 5, 1]
    offs = [0, 3, 3, 8, 9]
    e_terms = rng.normal(size=9)
    got = segment_sums(e_terms, seg)
    assert got[1] == 0.0
    want = [
        float(e_terms[offs[r]:offs[r + 1]].sum()) if seg[r] else 0.0
        for r in range(4)
    ]
    assert got == want
    assert segment_sums(np.zeros(0), []) == []


# ------------------------------------------------ the homogeneity check


def test_empty_batch_is_rejected():
    with pytest.raises(ValueError, match="empty batch"):
        EnsembleMDEngine([])


def test_mixed_atom_counts_are_rejected():
    engines = [
        BUILDERS["gas-8"](seed=0).make_engine(),
        BUILDERS["gas-16"](seed=0).make_engine(),
    ]
    with pytest.raises(ValueError, match="atom counts"):
        EnsembleMDEngine(engines)


def test_already_primed_engine_is_rejected():
    fresh = BUILDERS["gas-8"](seed=0).make_engine()
    primed = BUILDERS["gas-8"](seed=1).make_engine()
    primed.prime()
    with pytest.raises(ValueError, match="unstepped"):
        EnsembleMDEngine([fresh, primed])


def test_differently_configured_batched_forces_are_rejected():
    """One force object evaluates a batched kernel for every run, so
    its configuration must match across runs."""
    a = BUILDERS["gas-8"](seed=0)
    b = BUILDERS["gas-8"](seed=1)
    engines = [
        a.make_engine(),
        MDEngine(b.system.copy(), [LennardJonesForce(cutoff_factor=2.0)],
                 dt_fs=b.dt_fs),
    ]
    with pytest.raises(ValueError, match="force configurations"):
        EnsembleMDEngine(engines)


# --------------------------------------------- cross-run object sharing


def test_phase_work_is_shared_across_runs_but_fresh_per_step():
    """Each run pickles into its own artifact, so identical PhaseWork
    values may be ONE object across runs at the same step — invisible
    to the bytes.  Sharing across steps *within* a run would surface
    via pickle memoization and break identity, so per-step objects
    must stay distinct."""
    t0, t1 = ensemble_capture("gas-16", 2, [0, 1])
    for phase in ("predict", "correct"):
        assert t0[0].phase_work[phase] is t1[0].phase_work[phase]
        assert t0[0].phase_work[phase] is not t0[1].phase_work[phase]
