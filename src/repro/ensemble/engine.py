"""Seed ensembles on the one MD engine.

:class:`EnsembleMDEngine` advances ``R`` freshly built engines of one
workload in lockstep — a :class:`~repro.md.engine.RunBatch` whose
:meth:`~EnsembleMDEngine.run` returns one trace per run, each
byte-identical (pickle protocol 4) to that run's scalar capture.
:func:`ensemble_capture` is the batched
:func:`~repro.core.simulate.capture_trace`.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.md.engine import RunBatch, StepReport


class EnsembleMDEngine(RunBatch):
    """Advance ``R`` fresh engines in lockstep; raises ``ValueError``
    when they do not form one batch (different atom counts, static
    arrays, timesteps, neighbor-list or force configurations, or
    periodic boxes)."""

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
