"""Layer spans recorded from outside the program.

The tracer wraps public functions of each layer (and a few store
internals needed for exact counts) for the duration of one traced
operation, keeps every number in memory, and restores the originals
afterwards.  Timers sit at layer boundaries and take no barrier: a
span's *self* time is its duration minus the time of the wrapped spans
nested inside it, so the self times of all slots plus the operation's
own unattributed time add up to the operation's wall time exactly.
"""

from __future__ import annotations

import functools
import importlib
import os
import pickle
import shutil
import time
import traceback
from collections import defaultdict
from typing import Callable, Dict, List, Optional


class Tracer:
    """Self-time and count accumulator for one traced operation."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.incl_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[List[float]] = []
        self._undo: List[tuple] = []

    # -- installing ------------------------------------------------------

    def wrap(
        self,
        owner,
        attr: str,
        slot: str,
        after: Optional[Callable] = None,
        aliases: tuple = (),
    ) -> None:
        """Time every call of ``owner.attr`` into ``slot``.

        ``after(tracer, args, result)`` runs outside the timed region
        and may add counts.  ``aliases`` are further modules that
        imported the same function by name."""
        orig = _own_attr(owner, attr)
        stack = self._stack
        self_s = self.self_s
        incl_s = self.incl_s
        calls = self.calls
        tracer = self

        @functools.wraps(orig)
        def timed(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                self_s[slot] += dt - frame[0]
                incl_s[slot] += dt
                calls[slot] += 1
                if stack:
                    stack[-1][0] += dt
            if after is not None:
                after(tracer, args, out)
            return out

        self._install(owner, attr, orig, timed)
        for module in aliases:
            self._install(module, attr, getattr(module, attr), timed)

    def count(self, owner, attr: str, fn: Callable) -> None:
        """Call ``fn(tracer, args, kwargs)`` before every call of
        ``owner.attr`` without timing it (pure counters)."""
        orig = _own_attr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def counted(*args, **kwargs):
            fn(tracer, args, kwargs)
            return orig(*args, **kwargs)

        self._install(owner, attr, orig, counted)

    def _install(self, owner, attr, orig, replacement) -> None:
        self._undo.append((owner, attr, orig))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- the operation root ---------------------------------------------

    def root(self, fn: Callable, *args, **kwargs):
        """Run ``fn`` as the traced operation; returns
        ``(result, wall_s, residual_s)`` where the residual is the
        operation's time outside every wrapped span."""
        frame = [0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            wall = time.perf_counter() - t0
            self._stack.pop()
        return out, wall, wall - frame[0]


def _own_attr(owner, attr):
    """The attribute as stored on ``owner`` (so a class's own function,
    not a bound method or an inherited one)."""
    if isinstance(owner, type):
        for klass in owner.__mro__:
            if attr in vars(klass):
                return vars(klass)[attr]
    return getattr(owner, attr)


# -- the layer map -----------------------------------------------------------

#: ``Force`` subclass -> kernel slot
KERNEL_SLOTS = {
    "LennardJonesForce": "md.kernel.lj",
    "CoulombForce": "md.kernel.coulomb",
    "EwaldCoulombForce": "md.kernel.coulomb",
    "RadialBondForce": "md.kernel.bonded",
    "AngularBondForce": "md.kernel.bonded",
    "TorsionalBondForce": "md.kernel.bonded",
    "MorseForce": "md.kernel.morse",
}

#: slots whose self time belongs to each reported layer time
LAYER_SLOTS = {
    "md.capture_s": (
        "md.capture", "md.neighbors.rebuild",
        *sorted(set(KERNEL_SLOTS.values())),
    ),
    "md.kernel.coulomb_s": ("md.kernel.coulomb",),
    "md.kernel.lj_s": ("md.kernel.lj",),
    "md.kernel.bonded_s": ("md.kernel.bonded",),
    "md.kernel.morse_s": ("md.kernel.morse",),
    "md.neighbors.rebuild_s": ("md.neighbors.rebuild",),
    "ensemble.capture_s": ("ensemble",),
    "core.plan_s": ("core.plan",),
    "des.replay_s": ("des.replay",),
    "machine.choose_pu_s": ("machine.choose_pu",),
    "obs.classify_s": ("obs.classify",),
    "obs.attribute_s": ("obs.attribute",),
    "runcache.sweep_s": ("runcache.sweep",),
    "runcache.key.digest_s": ("runcache.key.digest",),
    "runcache.store.get_s": ("runcache.store.get",),
    "runcache.store.loads_s": ("runcache.store.loads",),
    "runcache.store.put_s": ("runcache.store.put",),
    "runcache.store.dumps_s": ("runcache.store.dumps",),
    "runcache.pool.fanout_s": ("runcache.pool.fanout",),
}

#: the layer times whose sum, plus the residual, is the traced wall
#: time (the md sub-layers are already inside ``md.capture_s``)
CONSERVED = tuple(
    name for name in LAYER_SLOTS
    if not name.startswith(("md.kernel.", "md.neighbors."))
)


def _after_replay(tracer: Tracer, args, result) -> None:
    run = args[0]
    tracer.counts["des.events"] += run.machine.sim.event_count
    tracer.counts["machine.migrations"] += sum(result.migrations.values())
    tracer.counts["concurrent.tasks"] += sum(result.tasks_executed)


def _after_capture(tracer: Tracer, args, result) -> None:
    workload, n_steps = args[0], args[1]
    tracer.counts["md.atom_steps"] += workload.system.n_atoms * n_steps


def _after_ensemble(tracer: Tracer, args, result) -> None:
    tracer.counts["ensemble.runs"] += len(result)
    tracer.counts["ensemble.batches"] += 1


def _count_loads(tracer: Tracer, args, kwargs) -> None:
    tracer.counts["runcache.store.bytes_read"] += len(args[0])


def _count_write(tracer: Tracer, args, kwargs) -> None:
    tracer.counts["runcache.store.file_writes"] += 1
    tracer.counts["runcache.store.bytes_written"] += len(args[2])


def _count_lookup(tracer: Tracer, args, kwargs) -> None:
    tracer.counts["runcache.lookups"] += 1
    tracer.counts["runcache.hits"] += 1 if kwargs["hit"] else 0


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    from repro.machine.scheduler import Scheduler
    from repro.md.forces.base import Force
    from repro.md.neighbors import NeighborList

    # by module path: ``repro.runcache.sweep`` and friends are shadowed
    # by the functions their packages re-export
    attribution = importlib.import_module("repro.obs.attribution")
    simulate = importlib.import_module("repro.core.simulate")
    ens_engine = importlib.import_module("repro.ensemble.engine")
    routing = importlib.import_module("repro.ensemble.routing")
    rc_sweep = importlib.import_module("repro.runcache.sweep")
    resilience = importlib.import_module("repro.runcache.resilience")
    store = importlib.import_module("repro.runcache.store")

    tracer.wrap(attribution, "attribute", "obs.attribute")
    tracer.wrap(attribution, "observe_run", "obs.classify")
    tracer.wrap(
        simulate, "capture_trace", "md.capture", _after_capture,
        aliases=(attribution,),
    )
    tracer.wrap(simulate.SimulatedParallelRun, "plans", "core.plan")
    tracer.wrap(
        simulate.SimulatedParallelRun, "run", "des.replay", _after_replay
    )
    tracer.wrap(Scheduler, "choose_pu", "machine.choose_pu")
    for klass in set(_all_subclasses(Force)):
        slot = KERNEL_SLOTS.get(klass.__name__)
        if slot is not None and "compute" in vars(klass):
            tracer.wrap(klass, "compute", slot)
    tracer.wrap(NeighborList, "build", "md.neighbors.rebuild")
    tracer.wrap(ens_engine, "ensemble_capture", "ensemble")
    tracer.wrap(
        ens_engine.EnsembleMDEngine, "run", "ensemble", _after_ensemble
    )
    tracer.wrap(routing, "route_misses", "ensemble")
    tracer.wrap(rc_sweep, "sweep", "runcache.sweep")
    tracer.wrap(resilience, "run_pool_supervised", "runcache.pool.fanout")
    tracer.wrap(store, "spec_digest", "runcache.key.digest")
    tracer.wrap(store.RunCache, "get", "runcache.store.get")
    tracer.wrap(store.RunCache, "get_bytes", "runcache.store.get")
    tracer.wrap(store.RunCache, "put", "runcache.store.put")
    tracer.wrap(store, "dumps_artifact", "runcache.store.dumps")
    # the store resolves ``pickle.loads`` at call time
    tracer.count(pickle, "loads", _count_loads)
    tracer.wrap(pickle, "loads", "runcache.store.loads")
    tracer.count(store.RunCache, "_atomic_write", _count_write)
    tracer.count(store.RunCache, "_observe_lookup", _count_lookup)


def _all_subclasses(klass) -> List[type]:
    out = []
    for sub in klass.__subclasses__():
        out.append(sub)
        out.extend(_all_subclasses(sub))
    return out


# -- one traced operation -----------------------------------------------------

#: layers of the store, whose share of the warm resweep is reported
STORE_LAYERS = (
    "runcache.key.digest_s", "runcache.store.get_s",
    "runcache.store.loads_s", "runcache.store.put_s",
    "runcache.store.dumps_s",
)


def layer_times(self_s: Dict[str, float]) -> Dict[str, float]:
    return {
        name: sum(self_s.get(slot, 0.0) for slot in slots)
        for name, slots in LAYER_SLOTS.items()
    }


def traced_op(wl, inputs, seed, root, ref, ledger) -> Optional[dict]:
    """Run one operation (cold, plus one warm resweep on the sweep
    workloads) with every layer wrapped; returns its layer numbers, or
    None when it raised or failed its check."""
    from repro.telemetry import runtime as telemetry

    tracer = Tracer()
    warm = {}
    tel_dir = None
    if getattr(wl, "jobs", 1) > 1:
        # pool workers report through the program's own telemetry
        tel_dir = root / f"telemetry-{id(tracer)}"
        telemetry.activate(tel_dir)

    def op():
        out = wl.cold(inputs, seed, root)
        if wl.sweep:
            before = dict(tracer.self_s)
            t0 = time.perf_counter()
            warm["result"] = wl.warm(inputs, out)
            warm["wall"] = time.perf_counter() - t0
            warm["self_s"] = {
                k: v - before.get(k, 0.0) for k, v in tracer.self_s.items()
            }
        return out

    install_layers(tracer)
    try:
        out, wall, residual = tracer.root(op)
    except Exception:
        ledger.record([traceback.format_exc(limit=3)])
        return None
    finally:
        tracer.uninstall()
        if tel_dir is not None:
            telemetry.deactivate()
    bad = wl.check_cold(inputs, out, ref)
    if wl.sweep:
        bad += wl.check_warm(inputs, warm["result"], ref)
    wl.release(out)
    ledger.record(bad)
    m = _metrics(tracer, wall, residual)
    if wl.sweep:
        m.update(_pool_metrics(tracer, out["result"], tel_dir))
        if tel_dir is not None:
            shutil.rmtree(tel_dir, ignore_errors=True)
        warm_layers = layer_times(warm["self_s"])
        m["trace.warm.store_frac"] = (
            sum(warm_layers[k] for k in STORE_LAYERS) / warm["wall"]
        )
        m["trace.warm_layers"] = warm_layers
        m["trace.warm_wall_s"] = warm["wall"]
    if bad:
        return None
    return m


def _metrics(tracer: Tracer, wall: float, residual: float) -> dict:
    m = layer_times(tracer.self_s)
    calls, counts = tracer.calls, tracer.counts
    md = m["md.capture_s"]
    m["md.neighbors.rebuilds"] = calls["md.neighbors.rebuild"]
    m["md.atom_steps_per_s"] = counts["md.atom_steps"] / md if md else 0.0
    m["ensemble.runs"] = counts["ensemble.runs"]
    m["ensemble.batches"] = counts["ensemble.batches"]
    replay = tracer.incl_s["des.replay"]
    m["des.events"] = counts["des.events"]
    m["des.events_per_s"] = counts["des.events"] / replay if replay else 0.0
    m["machine.choose_pu_calls"] = calls["machine.choose_pu"]
    m["machine.migrations"] = counts["machine.migrations"]
    m["concurrent.tasks"] = counts["concurrent.tasks"]
    m["runcache.key.digests"] = calls["runcache.key.digest"]
    m["runcache.store.bytes_read"] = counts["runcache.store.bytes_read"]
    lookups = counts["runcache.lookups"]
    m["runcache.hit_rate"] = (
        counts["runcache.hits"] / lookups if lookups else 0.0
    )
    m["runcache.store.bytes_written"] = counts[
        "runcache.store.bytes_written"
    ]
    m["runcache.store.file_writes"] = counts["runcache.store.file_writes"]
    for name in (
        "runcache.pool.worker_busy_s", "runcache.pool.utilization",
        "runcache.pool.capture_dup_ratio", "runcache.resilience.retries",
        "runcache.resilience.timeouts",
        "runcache.resilience.pool_restarts",
    ):
        m[name] = 0.0
    m["trace.warm.store_frac"] = 0.0
    m["trace.wall_s"] = wall
    m["trace.residual_frac"] = residual / wall
    m["trace.conservation_error"] = abs(
        sum(m[k] for k in CONSERVED) + residual - wall
    )
    return m


def _pool_metrics(tracer: Tracer, result, tel_dir) -> dict:
    """Worker-side numbers from the program's telemetry: shard spans
    for busy time, store lookups for duplicated captures."""
    m = {
        "runcache.resilience.retries": result.retries,
        "runcache.resilience.timeouts": result.timeouts,
        "runcache.resilience.pool_restarts": result.pool_restarts,
    }
    if tel_dir is None:
        return m
    from repro.telemetry.merge import load_records

    records, _skipped = load_records(tel_dir)
    me = os.getpid()
    busy = sum(
        r["end"] - r["start"]
        for r in records
        if r["kind"] == "span" and r["name"] == "shard"
    )
    captures = [
        r["attrs"]["digest"]
        for r in records
        if r["kind"] == "event" and r["name"] == "cache.lookup"
        and r["pid"] != me and r["attrs"].get("kind") == "capture"
        and not r["attrs"].get("hit")
    ]
    fanout = tracer.incl_s["runcache.pool.fanout"]
    m["runcache.pool.worker_busy_s"] = busy
    m["runcache.pool.utilization"] = (
        busy / (result.jobs * fanout) if fanout else 0.0
    )
    m["runcache.pool.capture_dup_ratio"] = (
        len(captures) / len(set(captures)) if captures else 0.0
    )
    return m


def layer_metrics(runs: List[dict]) -> dict:
    """Medians of the traced operations' numbers (counts repeat, so
    their median is the count)."""
    import statistics

    out = {}
    for name, value in runs[0].items():
        if isinstance(value, (int, float)):
            out[name] = statistics.median(r[name] for r in runs)
    return out


def render_layers(metrics: dict, warm_layers: Optional[dict] = None) -> str:
    """The conserved layer table (self seconds and share of the traced
    wall time), largest first, for people reading stderr."""
    wall = metrics["trace.wall_s"]
    rows = [(name, metrics[name]) for name in CONSERVED]
    rows.append(("residual", metrics["trace.residual_frac"] * wall))
    lines = [f"traced operation {wall:.4f}s"]
    for name, value in sorted(rows, key=lambda r: -r[1]):
        if value:
            lines.append(f"  {name:28s} {value:9.4f}s {value / wall:7.1%}")
    if warm_layers:
        warm = metrics["trace.warm_wall_s"]
        lines.append(f"of which warm resweep {warm:.4f}s")
        for name, value in sorted(warm_layers.items(), key=lambda r: -r[1]):
            if name in CONSERVED and value:
                lines.append(
                    f"  {name:28s} {value:9.4f}s {value / warm:7.1%}"
                )
    return "\n".join(lines)
