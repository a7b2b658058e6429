"""The benchmark's four workloads.

Each workload builds its inputs from the seed once (set-up), runs one
from-scratch operation per ``cold`` call and one all-hit operation per
``warm`` call.  ``check_cold``/``check_warm`` return the failed
conditions of an operation (empty when its output is correct).

The program is called through module attributes
(``attribution.attribute``, ``rc_sweep.sweep``) so that the tracer's
wrappers see every call.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import multiprocessing
import shutil
import time
from pathlib import Path
from typing import Dict, List, Optional

#: every module the operations need; importing them is the set-up's
#: import phase
IMPORTS = (
    "repro.obs.attribution",
    "repro.core.simulate",
    "repro.runcache",
    "repro.runcache.sweep",
    "repro.ensemble.engine",
    "repro.ensemble.routing",
    "repro.workloads",
)

#: relative tolerance on |gap - sum(buckets)|: the buckets telescope
#: exactly, so only float round-off may remain
CONSERVATION_RTOL = 1e-9


def _mod(name: str):
    return importlib.import_module(name)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def wait_for_children(timeout: float = 60.0) -> None:
    """Reap every pool worker this process started, so their CPU time
    is in ``RUSAGE_CHILDREN`` and no process outlives the operation."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            for proc in multiprocessing.active_children():
                proc.kill()
                proc.join(5.0)
            raise RuntimeError("pool workers did not exit")
        time.sleep(0.002)


class AttributeWorkload:
    """``repro attribute``: cold with the cache off (capture, replay at
    1 and N threads, classify, attribute, serialize); warm with the
    cache on and every artifact already stored."""

    sweep = False

    def __init__(self, name, workload, threads, machine, steps):
        self.name = name
        self.workload = workload
        self.threads = threads
        self.machine = machine
        self.steps = steps
        self._warm_cache = None

    def build(self, seed: int, root: Path):
        return _mod("repro.workloads").BUILDERS[self.workload](seed=seed)

    def _serialize(self, res) -> bytes:
        # the attribution.json bytes `repro attribute --out` writes
        attribution = _mod("repro.obs.attribution")
        doc = json.dumps(attribution.result_to_dict(res), indent=1) + "\n"
        return doc.encode()

    def cold(self, wl, seed: int, root: Path):
        attribution = _mod("repro.obs.attribution")
        res = attribution.attribute(
            wl, self.threads, spec=self.machine, steps=self.steps,
            seed=seed,
        )
        return {
            "res": res, "doc": self._serialize(res),
            "seed": seed, "root": root,
        }

    def warm(self, wl, out):
        """``attribute_cached`` against a store filled once per run
        (the first call fills it and is part of the warm-up)."""
        runcache = _mod("repro.runcache")
        if self._warm_cache is None:
            self._warm_cache = runcache.RunCache(out["root"] / "warm-store")
            self._attribute_cached(out["seed"])
        misses = self._warm_cache.session_misses
        res = self._attribute_cached(out["seed"])
        return {
            "res": res,
            "doc": self._serialize(res),
            "misses": self._warm_cache.session_misses - misses,
        }

    def release(self, out) -> None:
        """Nothing to delete: the cold operation runs with the cache
        off."""

    def _attribute_cached(self, seed: int):
        return _mod("repro.runcache.sweep").attribute_cached(
            self.workload, self.threads, spec=self.machine,
            steps=self.steps, seed=seed, cache=self._warm_cache, jobs=1,
        )

    def check_cold(self, wl, out, ref: Optional[str]) -> List[str]:
        return self._check(out, ref)

    def check_warm(self, wl, out, ref: Optional[str]) -> List[str]:
        bad = self._check(out, ref)
        if out["misses"]:
            bad.append(f"warm attribute missed the store {out['misses']}x")
        return bad

    def _check(self, out, ref: Optional[str]) -> List[str]:
        res = out["res"]
        bad = []
        if res.conservation_error() > (
            CONSERVATION_RTOL * res.achieved_seconds
        ):
            bad.append(
                f"buckets miss the gap by {res.conservation_error():.3e}s"
            )
        if ref is not None and sha256(out["doc"]) != ref:
            bad.append("attribution.json differs from the reference")
        return bad

    def reference(self, wl, out) -> str:
        return sha256(out["doc"])


class SweepWorkload:
    """``runcache.sweep`` cold into a fresh store, then all-hit
    resweeps of the same specs."""

    sweep = True

    def __init__(self, name, jobs, journal):
        self.name = name
        self.jobs = jobs
        self.journal = journal
        self._n = 0

    def specs(self, seed: int) -> list:
        raise NotImplementedError

    def build(self, seed: int, root: Path):
        return self.specs(seed)

    def _fresh(self, root: Path) -> Dict[str, Path]:
        self._n += 1
        base = root / f"op{self._n}"
        return {"store": base / "store", "journal": base / "journal"}

    def cold(self, specs, seed: int, root: Path):
        runcache = _mod("repro.runcache")
        rc_sweep = _mod("repro.runcache.sweep")
        paths = self._fresh(root)
        cache = runcache.RunCache(paths["store"])
        result = rc_sweep.sweep(
            specs, cache, jobs=self.jobs,
            journal=paths["journal"] if self.journal else None,
        )
        wait_for_children()
        return {"cache": cache, "paths": paths, "result": result}

    def warm(self, specs, state):
        rc_sweep = _mod("repro.runcache.sweep")
        paths = state["paths"]
        return rc_sweep.sweep(
            specs, state["cache"], jobs=self.jobs,
            journal=paths["journal"] if self.journal else None,
        )

    def release(self, state) -> None:
        """Delete the operation's store and journal once it is checked.
        Files that live for less than the kernel's dirty-expiry time are
        never written back, so deleting them costs no disk I/O; a store
        kept until the run ends is written back and its deletion slows
        the file operations after it."""
        shutil.rmtree(state["paths"]["store"].parent, ignore_errors=True)

    def _artifact_digest(self, specs, cache) -> str:
        parts = []
        for spec in specs:
            data = cache.get_bytes(spec)
            parts.append(sha256(data) if data is not None else "missing")
        return sha256("\n".join(parts).encode())

    def _supervision(self, result) -> List[str]:
        bad = []
        for field in ("retries", "timeouts", "pool_restarts"):
            if getattr(result, field):
                bad.append(f"{field}={getattr(result, field)}")
        if result.quarantined:
            bad.append(f"{len(result.quarantined)} specs quarantined")
        if result.degraded:
            bad.append("pool degraded to serial")
        if any(a is None for a in result.artifacts):
            bad.append("a spec returned no artifact")
        return bad

    def check_cold(self, specs, state, ref: Optional[str]) -> List[str]:
        bad = self._supervision(state["result"])
        bad += self.check_artifacts(state, specs)
        if ref is not None and self._artifact_digest(
            specs, state["cache"]
        ) != ref:
            bad.append("sweep artifacts differ from the reference")
        return bad

    def check_warm(self, specs, result, ref: Optional[str]) -> List[str]:
        bad = self._supervision(result)
        if result.hit_rate != 1.0 or result.executed:
            bad.append(
                f"warm resweep hit {result.hits}/{len(result.hit_flags)}"
            )
        return bad

    def check_artifacts(self, state, specs) -> List[str]:
        return []

    def reference(self, specs, state) -> str:
        return self._artifact_digest(specs, state["cache"])


class GridSweep(SweepWorkload):
    """The paper grid of observe specs over the supervised pool."""

    WORKLOADS = ("salt", "nanocar", "Al-1000")
    MACHINES = ("i7-920", "e5450x2", "x7560x4")
    THREADS = (1, 2, 4, 8, 16, 32)

    def __init__(self, name, steps, jobs):
        super().__init__(name, jobs=jobs, journal=True)
        self.steps = steps

    def specs(self, seed: int) -> list:
        runcache = _mod("repro.runcache")
        return [
            runcache.observe_spec(w, self.steps, t, m, seed=seed)
            for w in self.WORKLOADS
            for m in self.MACHINES
            for t in self.THREADS
        ]

    def check_artifacts(self, state, specs) -> List[str]:
        """Every observation's buckets, against the 1-thread one of its
        workload and machine, conserve the gap."""
        attribution = _mod("repro.obs.attribution")
        result = state["result"]
        base = {
            (s.workload, s.machine): a
            for s, a in zip(result.specs, result.artifacts)
            if s.threads == 1
        }
        bad = []
        for spec, obs in zip(result.specs, result.artifacts):
            if obs is None:
                continue
            res = attribution.attribute_observations(
                obs, base[(spec.workload, spec.machine)]
            )
            if res.conservation_error() > (
                CONSERVATION_RTOL * res.achieved_seconds
            ):
                bad.append(f"{spec.label()}: buckets miss the gap")
        return bad


class SeedSweep(SweepWorkload):
    """Capture specs of one small workload over many seeds: the
    ensemble engine writes, the store reads."""

    def __init__(self, name, workload, steps, n_seeds):
        super().__init__(name, jobs=1, journal=False)
        self.workload = workload
        self.steps = steps
        self.n_seeds = n_seeds

    def seeds(self, seed: int) -> range:
        return range(seed * self.n_seeds, (seed + 1) * self.n_seeds)

    def specs(self, seed: int) -> list:
        runcache = _mod("repro.runcache")
        return [
            runcache.capture_spec(self.workload, self.steps, seed=s)
            for s in self.seeds(seed)
        ]

    def check_artifacts(self, state, specs) -> List[str]:
        """One sampled run is byte-equal to the scalar capture of its
        seed."""
        runcache = _mod("repro.runcache")
        simulate = _mod("repro.core.simulate")
        builders = _mod("repro.workloads").BUILDERS
        result = state["result"]
        bad = []
        if result.ensemble_runs != len(specs):
            bad.append(
                f"ensemble ran {result.ensemble_runs} of {len(specs)}"
            )
        sample = specs[len(specs) // 2]
        scalar = simulate.capture_trace(
            builders[sample.workload](seed=sample.seed), sample.steps
        )
        stored = state["cache"].get_bytes(sample)
        if stored != runcache.dumps_artifact(scalar):
            bad.append(f"{sample.label()} differs from the scalar capture")
        return bad


#: why each workload exists: BENCHMARK.json and README.md
WORKLOADS = {
    w.name: w
    for w in (
        AttributeWorkload("attribute-al1000-x32", "Al-1000", 32, "x7560x4", 10),
        AttributeWorkload("attribute-salt-x4", "salt", 4, "i7-920", 8),
        GridSweep("sweep-grid", steps=2, jobs=2),
        SeedSweep("seeds-gas8", "gas-8", steps=40, n_seeds=100),
    )
}
