"""Executing run specs — serially, through the cache, or across a pool.

:func:`execute_spec` is the single place a :class:`RunSpec` is turned
back into a live simulation; :func:`run_and_store` memoizes it through
a :class:`RunCache`; :func:`sweep` takes a whole list of specs, dedupes
them against the cache, and fans the misses out over a process pool
(``jobs`` workers, default ``os.cpu_count()``, degrading gracefully to
serial on 1-CPU boxes or when the pool cannot start).

On top sit the two sweep assemblers the benchmark scripts use:
:func:`attribution_sweep` (the ``BENCH_attribution.json`` payload) and
the chaos harness hooks consumed by
:func:`repro.faults.chaos.chaos_sweep`.  Both produce payloads
value-identical to their uncached counterparts — the cache changes
wall-clock, never results.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.runcache import resilience
from repro.runcache.key import RunSpec, _as_params
from repro.runcache.resilience import (
    NULL_JOURNAL,
    Quarantined,
    SupervisionPolicy,
    SupervisionStats,
    SweepJournal,
)
from repro.runcache.store import RunCache
from repro.telemetry import runtime as telemetry_runtime
from repro.telemetry.emit import new_trace_id
from repro.telemetry.merge import load_records, worker_cache_counts

#: artifact schema stamp stored alongside trace-kind artifacts
TRACE_ARTIFACT_KEYS = ("files", "summary", "n_trace_events")


# -- spec builders -----------------------------------------------------------


def capture_spec(workload: str, steps: int, seed: int = 0) -> RunSpec:
    """Spec for one serial physics capture (the expensive part).

    ``seed`` seeds the workload builder, so one workload family yields
    arbitrarily many independent runs — the ensemble engine's unit of
    batching."""
    from repro.workloads import resolve_workload

    return RunSpec(
        kind="capture",
        workload=resolve_workload(workload),
        steps=steps,
        seed=seed,
    )


def observe_spec(
    workload: str,
    steps: int,
    threads: int,
    machine: str,
    *,
    seed: int = 0,
    params=None,
    fault_plan=None,
    affinities=None,
    master_affinity=None,
    **options,
) -> RunSpec:
    """Spec for one traced + classified replay (attribution input)."""
    from repro.runcache.key import params_to_spec
    from repro.workloads import resolve_workload

    return RunSpec(
        kind="observe",
        workload=resolve_workload(workload),
        steps=steps,
        seed=seed,
        threads=threads,
        machine=machine,
        params=params_to_spec(params) if params is not None else None,
        fault_plan=(
            fault_plan.to_dict() if fault_plan is not None else None
        ),
        affinities=(
            tuple(tuple(a) for a in affinities)
            if affinities is not None
            else None
        ),
        master_affinity=(
            tuple(master_affinity) if master_affinity is not None else None
        ),
        options=options,
    )


def trace_spec(
    workload: str, steps: int, threads: int, machine: str, seed: int = 0
) -> RunSpec:
    """Spec for the ``repro trace`` artifact bundle."""
    from repro.workloads import resolve_workload

    return RunSpec(
        kind="trace",
        workload=resolve_workload(workload),
        steps=steps,
        seed=seed,
        threads=threads,
        machine=machine,
    )


def toolerror_spec(
    workload: str,
    steps: int,
    threads: int,
    machine: str,
    *,
    seed: int = 0,
    periods: Sequence[float] = (1.0, 0.005),
    fault_plan=None,
) -> RunSpec:
    """Spec for one tool-accuracy leaderboard cell (all modeled tools
    scored against ground truth on one workload x machine point),
    optionally with a fault plan injected into the *measured* run."""
    from repro.workloads import resolve_workload

    return RunSpec(
        kind="toolerror",
        workload=resolve_workload(workload),
        steps=steps,
        seed=seed,
        threads=threads,
        machine=machine,
        fault_plan=(
            fault_plan.to_dict() if fault_plan is not None else None
        ),
        options={"periods": [float(p) for p in periods]},
    )


# -- executing one spec ------------------------------------------------------


def _machine_spec(name: str):
    from repro.machine import MACHINES

    try:
        return MACHINES[name]
    except KeyError:
        raise ValueError(
            f"spec names unknown machine {name!r}; "
            f"choose from {sorted(MACHINES)}"
        ) from None


def machine_key(spec: Union[str, object]) -> str:
    """The ``MACHINES`` registry key for a spec or key (specs carry the
    key, not the display name, so digests stay registry-stable)."""
    from repro.machine import MACHINES

    if isinstance(spec, str):
        _machine_spec(spec)  # validate
        return spec
    for key, value in MACHINES.items():
        if value is spec or value == spec:
            return key
    raise ValueError(f"machine spec {spec!r} is not in MACHINES")


def _run_kwargs(spec: RunSpec) -> Dict[str, Any]:
    """Replay kwargs encoded in a spec's params/plan/pinning/options."""
    from repro.concurrent import QueueMode
    from repro.faults.plan import FaultPlan

    opts = dict(spec.options)
    kwargs: Dict[str, Any] = {}
    if spec.params is not None:
        kwargs["params"] = _as_params(spec.params)
    if spec.fault_plan is not None:
        kwargs["fault_plan"] = FaultPlan.from_dict(spec.fault_plan)
    if spec.affinities is not None:
        kwargs["affinities"] = [list(a) for a in spec.affinities]
    if spec.master_affinity is not None:
        kwargs["master_affinity"] = list(spec.master_affinity)
    if "queue_mode" in opts:
        kwargs["queue_mode"] = QueueMode(opts["queue_mode"])
    for name in (
        "partition", "repeat", "fuse_rebuild",
        "assign", "chunk", "chunk_factor",
        "steal_policy", "steal_cost_cycles", "pop_overhead_cycles",
    ):
        if name in opts:
            kwargs[name] = opts[name]
    if opts.get("gc_model") == "chaos":
        from repro.faults.chaos import _chaos_gc_model

        kwargs["gc_model"] = _chaos_gc_model()
    return kwargs


def cached_capture(
    cache: Optional[RunCache], workload: str, steps: int
):
    """The captured physics trace for a workload, through the cache.

    ``cache=None`` degrades to a plain :func:`capture_trace` call, so
    callers need no branching.
    """
    from repro.core.simulate import capture_trace
    from repro.workloads import BUILDERS, resolve_workload

    name = resolve_workload(workload)
    if cache is None:
        return capture_trace(BUILDERS[name](), steps)
    artifact, _hit = run_and_store(cache, capture_spec(name, steps))
    return artifact


def _execute_capture(spec: RunSpec):
    from repro.core.simulate import capture_trace
    from repro.workloads import BUILDERS

    return capture_trace(BUILDERS[spec.workload](seed=spec.seed), spec.steps)


def _execute_observe(spec: RunSpec, cache: Optional[RunCache]):
    from repro.obs.attribution import observe_run
    from repro.workloads import BUILDERS

    wl = BUILDERS[spec.workload]()
    trace = cached_capture(cache, spec.workload, spec.steps)
    obs = observe_run(
        trace,
        wl.system.n_atoms,
        _machine_spec(spec.machine),
        spec.threads,
        seed=spec.seed,
        name=wl.name,
        workload=wl.name,
        **_run_kwargs(spec),
    )
    # the live SimMachine is neither picklable nor an artifact anyone
    # consumes downstream of attribution — strip it before storage
    if obs.result is not None:
        obs.result.machine = None
    return obs


def _execute_trace(spec: RunSpec, cache: Optional[RunCache]) -> dict:
    """The ``repro trace`` bundle: trace/metrics file bytes + summary."""
    from repro.core.simulate import SimulatedParallelRun
    from repro.machine.machine import SimMachine
    from repro.obs import (
        MetricsRegistry,
        Tracer,
        collect_executor_metrics,
        collect_machine_metrics,
        collect_span_metrics,
        write_chrome_trace,
        write_metrics,
    )
    from repro.perftools import GroundTruthTimeline
    from repro.workloads import BUILDERS

    machine_spec = _machine_spec(spec.machine)
    wl = BUILDERS[spec.workload]()
    trace = cached_capture(cache, spec.workload, spec.steps)
    machine = SimMachine(machine_spec, seed=spec.seed)
    tracer = Tracer().attach(machine.sim)
    run = SimulatedParallelRun(
        trace, wl.system.n_atoms, machine, spec.threads, name="wl"
    )
    result = run.run()
    tracer.detach()
    spans = tracer.task_spans()
    truth = GroundTruthTimeline(machine.scheduler.trace.events)

    files: Dict[str, bytes] = {}
    with tempfile.TemporaryDirectory(prefix="repro-trace-") as tmp:
        trace_path = os.path.join(tmp, "trace.json")
        n_events = write_chrome_trace(trace_path, spans, timeline=truth)
        registry = MetricsRegistry()
        collect_machine_metrics(machine, registry)
        collect_executor_metrics(run.pool, registry)
        collect_span_metrics(spans, registry)
        json_path = os.path.join(tmp, "metrics.json")
        csv_path = os.path.join(tmp, "metrics.csv")
        write_metrics(json_path, csv_path, registry)
        for path in (trace_path, json_path, csv_path):
            with open(path, "rb") as fh:
                files[os.path.basename(path)] = fh.read()

    complete = [s for s in spans if s.complete]
    lines = [
        f"traced {spec.workload}: {result.steps} steps x "
        f"{spec.threads} threads on simulated {machine_spec.name}",
        f"simulated runtime {result.sim_seconds * 1e3:.3f} ms, "
        f"{len(tracer.events)} bus events, {len(spans)} task spans "
        f"({len(complete)} complete)",
    ]
    by_label: Dict[str, list] = {}
    for s in complete:
        label = s.label or "task"
        agg = by_label.setdefault(label, [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += s.exec_time
        agg[2] += s.queue_wait
    for label in sorted(by_label):
        n, exec_t, wait_t = by_label[label]
        lines.append(
            f"  {label:<12} {n:>4} tasks  exec {exec_t * 1e3:8.3f} ms  "
            f"mean queue wait {wait_t / n * 1e6:8.1f} us"
        )
    for llc in machine.llc_states:
        total = llc.bytes_hit + llc.bytes_missed
        ratio = llc.bytes_hit / total if total else 0.0
        lines.append(
            f"  LLC {llc.llc_id}: hit ratio {ratio * 100:.1f}% "
            f"({llc.bytes_hit / 2**20:.1f} MB hit, "
            f"{llc.bytes_missed / 2**20:.1f} MB missed)"
        )
    migrations = sum(result.migrations.values())
    lines.append(f"  thread migrations: {migrations}")
    return {
        "files": files,
        "summary": "\n".join(lines),
        "n_trace_events": n_events,
    }


def _execute_chaos_ref(spec: RunSpec, cache: Optional[RunCache]) -> dict:
    """Fault-free reference replay: the duration chaos plans scale by."""
    from repro.core.simulate import SimulatedParallelRun
    from repro.machine.machine import SimMachine
    from repro.workloads import BUILDERS

    wl = BUILDERS[spec.workload]()
    trace = cached_capture(cache, spec.workload, spec.steps)
    machine = SimMachine(_machine_spec(spec.machine), seed=spec.seed)
    kwargs = _run_kwargs(spec)
    ref = SimulatedParallelRun(
        trace, wl.system.n_atoms, machine, spec.threads,
        name=wl.name, **kwargs,
    ).run()
    return {"sim_seconds": ref.sim_seconds}


def _execute_chaos_case(spec: RunSpec, cache: Optional[RunCache]) -> dict:
    from repro.concurrent import QueueMode
    from repro.faults.chaos import run_chaos_case
    from repro.faults.plan import FaultPlan
    from repro.workloads import BUILDERS

    wl = BUILDERS[spec.workload]()
    trace = cached_capture(cache, spec.workload, spec.steps)
    plan = (
        FaultPlan.from_dict(spec.fault_plan)
        if spec.fault_plan is not None
        else None
    )
    opts = dict(spec.options)
    return run_chaos_case(
        wl,
        plan,
        spec.threads,
        spec=_machine_spec(spec.machine),
        steps=spec.steps,
        seed=spec.seed,
        trace=trace,
        phase_timeout_factor=opts.get("phase_timeout_factor") or 20.0,
        queue_mode=QueueMode(opts.get("queue_mode", "single")),
    )


def _execute_toolerror(spec: RunSpec, cache: Optional[RunCache]) -> dict:
    """One leaderboard cell: every modeled tool's displayed-vs-true
    error on this (workload, machine) point.  The physics capture is
    the only nested dependency, so it routes through the cache."""
    from repro.faults.plan import FaultPlan
    from repro.obs.leaderboard import toolerror_cell

    _machine_spec(spec.machine)  # validate before the expensive part
    trace = cached_capture(cache, spec.workload, spec.steps)
    periods = tuple(spec.options.get("periods") or (1.0, 0.005))
    return toolerror_cell(
        spec.workload,
        spec.steps,
        spec.threads,
        spec.machine,
        seed=spec.seed,
        periods=periods,
        trace=trace,
        fault_plan=(
            FaultPlan.from_dict(spec.fault_plan)
            if spec.fault_plan is not None
            else None
        ),
    )


_EXECUTORS = {
    "capture": lambda spec, cache: _execute_capture(spec),
    "observe": _execute_observe,
    "trace": _execute_trace,
    "chaos_ref": _execute_chaos_ref,
    "chaos_case": _execute_chaos_case,
    "toolerror": _execute_toolerror,
}


def execute_spec(spec: RunSpec, cache: Optional[RunCache] = None):
    """Run a spec from scratch and return its artifact.

    ``cache`` is only consulted for *nested* dependencies (an observe
    spec's physics capture) — the spec itself always executes, which is
    what makes this the verify path's ground truth.
    """
    if "REPRO_PROCESS_FAULTS" in os.environ:  # chaos harness only
        from repro.faults import process as process_faults

        process_faults.execution_fault(spec.label())
    return _EXECUTORS[spec.kind](spec, cache)


def run_and_store(
    cache: RunCache, spec: RunSpec
) -> Tuple[Any, bool]:
    """Memoized execution: ``(artifact, was_hit)``."""
    artifact = cache.get(spec)
    if artifact is not None:
        return artifact, True
    artifact = execute_spec(spec, cache=cache)
    cache.put(spec, artifact)
    return artifact, False


# -- the orchestrator --------------------------------------------------------


@dataclass
class SweepResult:
    """Outcome of one deduped, possibly-parallel sweep."""

    specs: List[RunSpec]
    artifacts: List[Any]
    #: per input spec: True when it was served from the cache
    hit_flags: List[bool]
    jobs: int
    #: distinct digests actually executed (cache misses after dedup)
    executed: List[str] = field(default_factory=list)
    #: True when the misses ran under a fan-out span — across the
    #: process pool, or serially after the pool degraded
    fanout: bool = False
    #: per pool worker: ``{"hits": n, "misses": n}`` against the shared
    #: store, folded out of the workers' telemetry by the merge step
    worker_cache: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: specs the supervisor gave up on (permanent failures); their
    #: artifact slots hold None
    quarantined: List[Quarantined] = field(default_factory=list)
    #: supervision counters (see :mod:`repro.runcache.resilience`)
    retries: int = 0
    timeouts: int = 0
    pool_restarts: int = 0
    #: True when repeated pool breaks forced in-process serial execution
    degraded: bool = False
    #: cache hits that were also journaled complete by the interrupted
    #: run this sweep resumed (served with zero re-execution)
    resumed: int = 0
    #: homogeneous miss-batches routed through the vectorized ensemble
    #: engine, and the runs they covered (see :mod:`repro.ensemble`)
    ensemble_batches: int = 0
    ensemble_runs: int = 0

    @property
    def ok(self) -> bool:
        """True when every spec produced an artifact (nothing
        quarantined) — the full-success exit criterion."""
        return not self.quarantined

    @property
    def hits(self) -> int:
        return sum(self.hit_flags)

    @property
    def misses(self) -> int:
        return len(self.hit_flags) - self.hits

    @property
    def worker_hits(self) -> int:
        return sum(c["hits"] for c in self.worker_cache.values())

    @property
    def worker_misses(self) -> int:
        return sum(c["misses"] for c in self.worker_cache.values())

    @property
    def hit_rate(self) -> float:
        return self.hits / len(self.hit_flags) if self.hit_flags else 0.0

    def artifact_for(self, spec: RunSpec):
        """The artifact of the given (or an equal) spec."""
        for s, a in zip(self.specs, self.artifacts):
            if s == spec:
                return a
        raise KeyError(f"spec not in sweep: {spec.label()}")


def _pool_worker(args) -> str:
    """Execute one spec in a subprocess, publishing into the shared
    on-disk cache; returns the digest the parent reloads.

    The payload carries the parent's telemetry run directory and
    fan-out span id, so the worker joins the parent's trace: it opens
    its own JSONL file in the run, wraps the execution in a ``shard``
    span parented to the fan-out, and publishes its cache hit/miss
    counts as sweep-labeled counter samples the parent folds back into
    :attr:`SweepResult.worker_cache`.  With a journal active it also
    appends a ``started`` record *before* executing — the proof the
    chaos harness uses that resumed sweeps never re-enter completed
    specs.
    """
    spec, root, max_bytes, tel_root, sweep_id, journal_root, attempt = args
    cache = RunCache(root, max_bytes=max_bytes)
    digest = cache.digest(spec)
    journal = (
        SweepJournal(journal_root) if journal_root else NULL_JOURNAL
    )
    journal.started(digest, attempt=attempt)
    if "REPRO_PROCESS_FAULTS" in os.environ:  # chaos harness only
        from repro.faults import process as process_faults

        # may SIGKILL or hang this worker — after the journal record,
        # so the parent sees a started-but-never-finished entry
        process_faults.worker_started(spec.label())
    emitter = telemetry_runtime.activate(tel_root, parent_id=sweep_id)
    try:
        with emitter.span(
            "shard", label=spec.label(), kind=spec.kind,
            sweep=sweep_id, attempt=attempt,
        ):
            run_and_store(cache, spec)
        worker = str(os.getpid())
        emitter.counter(
            "worker_cache_hits", cache.session_hits,
            sweep=sweep_id, worker=worker,
        )
        emitter.counter(
            "worker_cache_misses", cache.session_misses,
            sweep=sweep_id, worker=worker,
        )
    finally:
        telemetry_runtime.deactivate()
        journal.close()
    return digest


def default_jobs() -> int:
    """Worker-pool width: the CPUs *this process may run on*.

    ``os.cpu_count()`` reports the machine's full core count even when
    the process is confined to a subset by cgroups or CPU affinity
    (containers, CI runners), which oversubscribes the pool; the
    scheduling affinity mask is the honest number where available."""
    try:
        return len(os.sched_getaffinity(0)) or (os.cpu_count() or 1)
    except (AttributeError, OSError):  # non-Linux platforms
        return os.cpu_count() or 1


def sweep(
    specs: Sequence[RunSpec],
    cache: Optional[RunCache] = None,
    jobs: Optional[int] = None,
    *,
    journal: Optional[os.PathLike] = None,
    resume: Optional[os.PathLike] = None,
    policy: Optional[SupervisionPolicy] = None,
    ensemble: Optional[bool] = None,
) -> SweepResult:
    """Dedupe ``specs`` against the cache and execute the misses.

    Without a cache every *distinct* spec executes serially in-process
    (duplicates still dedupe).  With a cache, misses run across a
    ``ProcessPoolExecutor`` of ``jobs`` workers (default
    ``os.cpu_count()``) that publish into the shared store; a 1-CPU
    box, a single miss, or a pool that fails to start all degrade to
    the serial path.

    Crash safety (see :mod:`repro.runcache.resilience`):

    * ``journal=dir`` appends every submission/start/finish/failure to
      ``dir/sweep-journal.jsonl``;
    * ``resume=dir`` additionally *replays* that journal first —
      digests journaled finished and still cached are served without
      re-execution, previously quarantined digests stay quarantined
      (unless ``policy.retry_quarantined``), and journaling continues
      into the same file;
    * ``policy`` sets retries/timeout/quarantine.  Defaults preserve
      the historical semantics for plain calls (first error
      propagates); journaled or resumed sweeps default to the
      supervised :class:`SupervisionPolicy` (bounded retries,
      quarantine instead of raise).

    ``ensemble`` controls the vectorized batch path (see
    :mod:`repro.ensemble`): ``None`` (auto, the default) and ``True``
    route capture miss-batches — same workload and step count, varying
    seed — through the batched engine before the pool sees them;
    ``False`` disables routing.  Either way
    every run's artifact is published under its own spec digest with
    identical journal records, so cache/journal consumers see no
    difference.
    """
    if resume is not None and journal is not None and (
        Path(resume) != Path(journal)
    ):
        raise ValueError("pass either journal= or resume=, not both")
    journal_root = resume if resume is not None else journal
    if policy is None:
        policy = (
            SupervisionPolicy()
            if journal_root is not None
            else resilience.PROPAGATE_POLICY
        )
    prior = (
        resilience.load_journal(resume) if resume is not None else None
    )
    jrnl = (
        SweepJournal(journal_root)
        if journal_root is not None
        else NULL_JOURNAL
    )

    jobs = default_jobs() if jobs is None else max(1, jobs)
    emitter = telemetry_runtime.current()
    stats = SupervisionStats()
    quarantined: List[Quarantined] = []
    resumed = 0
    try:
        with emitter.span(
            "sweep", n_specs=len(specs), jobs=jobs,
            resumed=resume is not None,
        ) as sweep_span:
            unique: Dict[str, RunSpec] = {}
            keys: List[str] = []
            for spec in specs:
                key = (
                    cache.digest(spec)
                    if cache is not None
                    else spec.encode()
                )
                keys.append(key)
                unique.setdefault(key, spec)

            prior_completed = prior.completed if prior else set()
            prior_quarantined = (
                {} if prior is None or policy.retry_quarantined
                else prior.quarantined
            )
            artifacts: Dict[str, Any] = {}
            hit_by_key: Dict[str, bool] = {}
            misses: List[Tuple[str, RunSpec]] = []
            for key, spec in unique.items():
                if key in prior_quarantined:
                    record = prior_quarantined[key]
                    hit_by_key[key] = False
                    quarantined.append(
                        Quarantined(
                            digest=key,
                            label=spec.label(),
                            attempts=int(record.get("attempts", 0)),
                            error=str(record.get("error", "")),
                            carried=True,
                        )
                    )
                    continue
                artifact = cache.get(spec) if cache is not None else None
                if artifact is not None:
                    artifacts[key] = artifact
                    hit_by_key[key] = True
                    if key in prior_completed:
                        resumed += 1
                else:
                    hit_by_key[key] = False
                    misses.append((key, spec))

            jrnl.begin(
                [
                    {
                        "digest": key,
                        "label": spec.label(),
                        "spec": spec.canonical(),
                    }
                    for key, spec in unique.items()
                ],
                jobs=jobs,
                resumed=resume is not None,
            )

            executed: List[str] = []
            worker_cache: Dict[str, Dict[str, int]] = {}
            fanout = False
            ensemble_batches = ensemble_runs = 0
            if misses and ensemble is not False and (
                # the process-fault chaos harness injects faults into
                # pool workers; keep its misses on the process path
                "REPRO_PROCESS_FAULTS" not in os.environ
            ):
                from repro.ensemble.routing import route_misses

                ensemble_batches, ensemble_runs, misses = route_misses(
                    misses, cache,
                    journal=jrnl, artifacts=artifacts,
                    executed=executed, emitter=emitter,
                )
            if misses:
                pool_counts = None
                pooled = (
                    cache is not None and jobs > 1 and len(misses) > 1
                )
                if pooled:
                    pool_counts = _sweep_parallel(
                        misses, cache, jobs, artifacts, executed,
                        policy=policy, journal=jrnl, stats=stats,
                        quarantined=quarantined, emitter=emitter,
                    )
                if pool_counts is None:
                    # deliberate serial (no cache / 1 job / 1 miss), or
                    # degraded: the pool could not be created at all
                    if pooled:
                        stats.degraded = True
                        with emitter.span(
                            "fanout", n_misses=len(misses), jobs=1,
                            degraded=True,
                        ) as fanout_span:
                            sweep_id = (
                                fanout_span.span_id
                                or new_trace_id()[:12]
                            )
                            emitter.event(
                                "sweep.degraded",
                                remaining=len(misses), restarts=0,
                            )
                            worker_cache = (
                                resilience.run_serial_supervised(
                                    misses, cache, policy=policy,
                                    journal=jrnl, stats=stats,
                                    artifacts=artifacts,
                                    executed=executed,
                                    quarantined=quarantined,
                                    emitter=emitter, sweep_id=sweep_id,
                                )
                            )
                        fanout = True
                    else:
                        resilience.run_serial_supervised(
                            misses, cache, policy=policy,
                            journal=jrnl, stats=stats,
                            artifacts=artifacts, executed=executed,
                            quarantined=quarantined, emitter=emitter,
                        )
                else:
                    fanout = True
                    worker_cache = pool_counts
            if sweep_span.span_id is not None:
                sweep_span.attrs.update(
                    unique=len(unique),
                    misses=len(misses),
                    fanout=fanout,
                    retries=stats.retries,
                    quarantined=len(quarantined),
                    degraded=stats.degraded,
                    resumed_hits=resumed,
                    ensemble_batches=ensemble_batches,
                    ensemble_runs=ensemble_runs,
                )
        jrnl.end(
            executed=len(executed), quarantined=len(quarantined),
            resumed=resumed,
        )
    finally:
        jrnl.close()

    return SweepResult(
        specs=list(specs),
        artifacts=[artifacts.get(k) for k in keys],
        hit_flags=[hit_by_key[k] for k in keys],
        jobs=jobs if len(misses) > 1 else 1,
        executed=executed,
        fanout=fanout,
        worker_cache=worker_cache,
        quarantined=quarantined,
        retries=stats.retries,
        timeouts=stats.timeouts,
        pool_restarts=stats.pool_restarts,
        degraded=stats.degraded,
        resumed=resumed,
        ensemble_batches=ensemble_batches,
        ensemble_runs=ensemble_runs,
    )


def _sweep_parallel(
    misses: List[Tuple[str, RunSpec]],
    cache: RunCache,
    jobs: int,
    artifacts: Dict[str, Any],
    executed: List[str],
    *,
    policy: SupervisionPolicy,
    journal,
    stats: SupervisionStats,
    quarantined: List[Quarantined],
    emitter,
) -> Optional[Dict[str, Dict[str, int]]]:
    """Fan cache misses out over a supervised process pool.

    Returns the per-worker cache hit/miss counts folded out of the
    workers' telemetry, or ``None`` when a pool could not be created
    at all (the caller falls back to the serial path).  With a
    telemetry run active the workers emit straight into it; otherwise
    they emit into an ephemeral directory that exists only long enough
    to fold the counts, so :attr:`SweepResult.worker_cache` is
    populated either way.  If supervision degraded part of the work to
    in-process serial, the parent's own hit/miss delta joins the counts
    under its pid.
    """
    ephemeral: Optional[str] = None
    if telemetry_runtime.active():
        tel_root = str(emitter.run.root)
    else:
        ephemeral = tempfile.mkdtemp(prefix="repro-telemetry-")
        tel_root = ephemeral
    parent_hits = cache.session_hits
    parent_misses = cache.session_misses
    try:
        with emitter.span(
            "fanout", n_misses=len(misses), jobs=min(jobs, len(misses))
        ) as fanout_span:
            sweep_id = fanout_span.span_id or new_trace_id()[:12]
            ran = resilience.run_pool_supervised(
                misses, cache, jobs,
                tel_root=tel_root, sweep_id=sweep_id,
                policy=policy, journal=journal, stats=stats,
                artifacts=artifacts, executed=executed,
                quarantined=quarantined, emitter=emitter,
            )
            if ran is None:
                return None
        records, _skipped = load_records(tel_root)
        counts = worker_cache_counts(records, sweep_id)
    finally:
        if ephemeral is not None:
            shutil.rmtree(ephemeral, ignore_errors=True)
    done_keys = set(executed) | set(artifacts)
    quarantined_keys = {q.digest for q in quarantined}
    for key, spec in misses:
        if key in quarantined_keys:
            continue
        if key in artifacts:
            continue
        artifact = cache.get(spec)
        if artifact is None:  # worker died before publishing
            artifact, _ = run_and_store(cache, spec)
        artifacts[key] = artifact
        if key not in done_keys:
            executed.append(key)
    # the parent's own lookups (reloads + degraded serial execution)
    # count as one more worker so fan-out accounting stays conserved
    delta_h = cache.session_hits - parent_hits
    delta_m = cache.session_misses - parent_misses
    if delta_h or delta_m:
        me = str(os.getpid())
        mine = counts.setdefault(me, {"hits": 0, "misses": 0})
        mine["hits"] += delta_h
        mine["misses"] += delta_m
    return counts


# -- sweep assemblers --------------------------------------------------------


def attribute_cached(
    workload: str,
    n_threads: int,
    *,
    spec: Union[str, object] = "i7-920",
    steps: int = 5,
    seed: int = 0,
    cache: RunCache,
    jobs: Optional[int] = None,
):
    """Cache-backed :func:`repro.obs.attribution.attribute` (defaults
    only — no fault plan / custom params): capture and both
    observations come through the store, the pure decomposition is
    recomputed fresh.  Value-identical to the uncached call."""
    from repro.obs.attribution import attribute_observations
    from repro.workloads import resolve_workload

    key = machine_key(spec)
    machine_spec = _machine_spec(key)
    name = resolve_workload(workload)
    specs = [
        capture_spec(name, steps),
        observe_spec(name, steps, 1, key, seed=seed),
    ]
    if n_threads != 1:
        specs.append(observe_spec(name, steps, n_threads, key, seed=seed))
    result = sweep(specs, cache, jobs=jobs)
    trace, baseline = result.artifacts[0], result.artifacts[1]
    obs = baseline if n_threads == 1 else result.artifacts[2]
    return attribute_observations(
        obs, baseline, trace, machine=machine_spec.name
    )


def attribution_sweep(
    workloads: Sequence[str] = ("salt", "nanocar", "Al-1000"),
    threads: Sequence[int] = (1, 2, 4, 8),
    *,
    spec: Union[str, object] = "i7-920",
    steps: int = 5,
    seed: int = 0,
    cache: Optional[RunCache] = None,
    jobs: Optional[int] = None,
) -> Tuple[dict, SweepResult]:
    """Cache-backed :func:`repro.obs.attribution.bench_attribution`.

    Returns ``(payload, sweep_result)``: the payload is byte-identical
    to the uncached ``repro.attribution.bench/1`` one — captures and
    observations come from the cache (or the pool executing the
    misses), and the attribution arithmetic (cheap, pure) is recomputed
    fresh — while the :class:`SweepResult` carries the hit/miss stats
    the benchmark scripts report.
    """
    from repro.obs.attribution import (
        BENCH_SCHEMA,
        BUCKETS,
        attribute_observations,
        result_to_dict,
    )
    from repro.workloads import resolve_workload

    key = machine_key(spec)
    machine_spec = _machine_spec(key)
    names = [resolve_workload(w) for w in workloads]

    specs: List[RunSpec] = []
    for name in names:
        specs.append(capture_spec(name, steps))
        for n in dict.fromkeys([1, *threads]):
            specs.append(
                observe_spec(name, steps, n, key, seed=seed)
            )
    result = sweep(specs, cache, jobs=jobs)

    runs: List[dict] = []
    for name in names:
        trace = result.artifact_for(capture_spec(name, steps))
        baseline = result.artifact_for(
            observe_spec(name, steps, 1, key, seed=seed)
        )
        for n in threads:
            obs = (
                baseline
                if n == 1
                else result.artifact_for(
                    observe_spec(name, steps, n, key, seed=seed)
                )
            )
            res = attribute_observations(
                obs, baseline, trace, machine=machine_spec.name
            )
            runs.append(result_to_dict(res))
    payload = {
        "schema": BENCH_SCHEMA,
        "machine": machine_spec.name,
        "steps": steps,
        "seed": seed,
        "workloads": names,
        "threads": list(threads),
        "buckets": list(BUCKETS),
        "runs": runs,
    }
    return payload, result
