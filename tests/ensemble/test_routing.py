"""Sweep-level routing: the ensemble path must be invisible to every
cache/journal consumer — byte-equal artifacts under the runs' own
digests, the same journal records a pool worker would write, and a
transparent scalar fallback when a batch fails mid-flight."""

import json

import pytest

from repro.ensemble import routing
from repro.runcache import RunCache, capture_spec, sweep
from repro.runcache.key import RunSpec
from repro.runcache.resilience import JOURNAL_NAME

WORKLOAD = "gas-16"
STEPS = 2
N_RUNS = 6


def capture_specs():
    return [
        capture_spec(WORKLOAD, STEPS, seed=seed)
        for seed in range(N_RUNS)
    ]


def assert_caches_byte_equal(a: RunCache, b: RunCache, specs):
    for spec in specs:
        data = a.get_bytes(spec)
        assert data is not None
        assert data == b.get_bytes(spec)


# ------------------------------------------------- capture-batch routing


def test_ensemble_sweep_matches_scalar_cache_and_hits(tmp_path):
    specs = capture_specs()
    scalar_cache = RunCache(tmp_path / "scalar")
    ens_cache = RunCache(tmp_path / "ensemble")

    scalar = sweep(specs, scalar_cache, jobs=1, ensemble=False)
    ens = sweep(specs, ens_cache, jobs=1, ensemble=True)

    assert scalar.hit_flags == ens.hit_flags == [False] * N_RUNS
    assert (scalar.ensemble_batches, scalar.ensemble_runs) == (0, 0)
    assert ens.ensemble_batches == 1
    assert ens.ensemble_runs == N_RUNS
    assert_caches_byte_equal(scalar_cache, ens_cache, specs)

    # every run published under its own digest: a resweep is all hits,
    # on either path
    warm = sweep(specs, ens_cache, jobs=1, ensemble=True)
    assert warm.hit_flags == [True] * N_RUNS
    assert warm.executed == []
    assert warm.ensemble_runs == 0


def test_single_spec_stays_on_scalar_path(tmp_path):
    """A batch below MIN_BATCH gains nothing — it must not be routed."""
    cache = RunCache(tmp_path / "store")
    result = sweep(
        [capture_spec(WORKLOAD, STEPS, seed=0)],
        cache, jobs=1, ensemble=True,
    )
    assert result.ensemble_batches == 0
    assert cache.get_bytes(capture_spec(WORKLOAD, STEPS, seed=0))


def test_journal_records_are_equivalent_across_paths(tmp_path):
    """Resume and supervision read the journal; the ensemble path must
    leave exactly the started/finished trail the pool path leaves."""

    def journaled(root, ensemble):
        cache = RunCache(root / "store")
        sweep(
            capture_specs(), cache, jobs=1,
            journal=root, ensemble=ensemble,
        )
        records = [
            json.loads(line)
            for line in (root / JOURNAL_NAME).read_text().splitlines()
        ]
        return sorted(
            (rec["kind"], rec["digest"])
            for rec in records
            if rec["kind"] in ("started", "finished", "failed")
        )

    scalar = journaled(tmp_path / "scalar", ensemble=False)
    ens = journaled(tmp_path / "ensemble", ensemble=True)
    assert scalar == ens
    assert all(kind != "failed" for kind, _ in ens)


def test_failed_batch_falls_back_to_scalar(tmp_path, monkeypatch):
    """A batch that raises mid-flight leaves ``failed`` journal records
    and its runs to the scalar path: results must still land, bit-equal,
    with zero batches counted."""

    def failing(items):
        raise RuntimeError("forced by test")

    monkeypatch.setattr(routing, "_capture_batch", failing)
    specs = capture_specs()
    cache = RunCache(tmp_path / "fallback")
    result = sweep(specs, cache, jobs=1, ensemble=True, journal=tmp_path)
    assert (result.ensemble_batches, result.ensemble_runs) == (0, 0)
    assert result.ok
    records = [
        json.loads(line)
        for line in (tmp_path / JOURNAL_NAME).read_text().splitlines()
    ]
    assert sum(rec["kind"] == "failed" for rec in records) == N_RUNS

    reference = RunCache(tmp_path / "reference")
    sweep(specs, reference, jobs=1, ensemble=False)
    assert_caches_byte_equal(cache, reference, specs)


def test_fault_plan_specs_never_batch(tmp_path):
    """Only fault-free captures batch: replays, and chaos cases with a
    live fault plan, stay on the pool path."""
    spec = RunSpec(
        kind="chaos_ref",
        workload=WORKLOAD,
        steps=STEPS,
        seed=0,
        threads=2,
        machine="i7-920",
        fault_plan={"kind": "straggler"},
    )
    assert routing._group_key(spec) is None
    replay = RunSpec(
        kind="chaos_ref", workload=WORKLOAD, steps=STEPS, seed=0,
        threads=2, machine="i7-920",
    )
    assert routing._group_key(replay) is None
    assert routing._group_key(capture_specs()[0]) == (WORKLOAD, STEPS)
