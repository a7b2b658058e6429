"""Routing a sweep's capture misses through the batched engine.

:func:`route_misses` is called by :func:`repro.runcache.sweep.sweep`
after cache dedup: capture misses of one workload and step count,
varying seed, run as one :class:`~repro.ensemble.engine.EnsembleMDEngine`
batch — every ``BUILDERS`` workload batches — and everything else stays
with the process pool.

Publication is indistinguishable from the pool path: each run's
artifact lands in the cache under its own spec digest, with the same
``started``/``finished`` journal records a worker would write —
resume, leaderboards and every other cache consumer see no
difference.  A batch that fails mid-flight falls back to the scalar
path with ``failed`` journal records, so supervision accounting stays
truthful.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.runcache.key import RunSpec

from repro.ensemble.engine import EnsembleMDEngine

#: a batch below this size gains nothing over the scalar path
MIN_BATCH = 2

Miss = Tuple[str, RunSpec]


def _group_key(spec: RunSpec) -> Optional[tuple]:
    """Batch key for a spec, or None when it must stay on the scalar
    path: only fault-free captures batch, by workload and step count
    (the seed varies within a batch)."""
    if spec.fault_plan is not None or spec.kind != "capture":
        return None
    return (spec.workload, spec.steps)


def _capture_batch(items: List[Miss]) -> List[Any]:
    """Capture every run of one batch; returns their traces."""
    from repro.workloads import BUILDERS

    specs = [spec for _, spec in items]
    eng = EnsembleMDEngine([
        BUILDERS[spec.workload](seed=spec.seed).make_engine()
        for spec in specs
    ])
    eng.prime()
    return eng.run(specs[0].steps)


def route_misses(
    misses: List[Miss],
    cache,
    *,
    journal,
    artifacts: Dict[str, Any],
    executed: List[str],
    emitter,
) -> Tuple[int, int, List[Miss]]:
    """Execute the batchable subset of ``misses`` vectorized.

    Returns ``(n_batches, n_runs, remaining)`` where ``remaining`` is
    the miss list the caller's pool/serial path still owns.  For every
    batched run: ``journal.started`` before execution, then
    ``cache.put`` + ``artifacts[digest]`` + ``executed.append`` +
    ``journal.finished`` — exactly the records a pool worker produces.
    """
    groups: Dict[tuple, List[Miss]] = {}
    remaining: List[Miss] = []
    for item in misses:
        key = _group_key(item[1])
        if key is None:
            remaining.append(item)
        else:
            groups.setdefault(key, []).append(item)

    n_batches = n_runs = 0
    for (workload, steps), items in groups.items():
        if len(items) < MIN_BATCH:
            remaining.extend(items)
            continue
        attrs = dict(
            kind="capture", workload=workload, steps=steps,
            runs=len(items),
        )
        for digest, _spec in items:
            journal.started(digest, attempt=1)
        try:
            with emitter.span("ensemble", **attrs):
                batch_artifacts = _capture_batch(items)
        except Exception as exc:  # unexpected: scalar path retries
            for digest, _spec in items:
                journal.failed(
                    digest, attempt=1, error=repr(exc), retryable=True
                )
            emitter.event("ensemble.error", error=repr(exc), **attrs)
            remaining.extend(items)
            continue
        for (digest, spec), artifact in zip(items, batch_artifacts):
            if cache is not None:
                cache.put(spec, artifact)
            artifacts[digest] = artifact
            executed.append(digest)
            journal.finished(digest, attempt=1)
        n_batches += 1
        n_runs += len(items)
    return n_batches, n_runs, remaining
