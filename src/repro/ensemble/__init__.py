"""Seed ensembles: many independent runs of one workload per sweep.

A parameter sweep over seeds runs the same physics pipeline dozens to
thousands of times on systems that differ only in their kinematic
state.  Stepping each run alone pays the full per-call numpy/Python
overhead per run — the dominant cost for the small systems sweeps use.
The MD engine (:mod:`repro.md.engine`) advances any number of runs in
lockstep on ``(n_runs, n_atoms, 3)`` stacks, a scalar run being a batch
of one, so batched and scalar runs share every line of physics and
their per-run traces are byte-identical.  This package puts it to work:

* :class:`~repro.ensemble.engine.EnsembleMDEngine` /
  :func:`~repro.ensemble.engine.ensemble_capture` — one trace per seed
  from one batched capture;
* :func:`~repro.ensemble.routing.route_misses` — the sweep hook that
  executes a sweep's capture misses of one workload as one batch and
  publishes each run under its own spec digest, with the journal
  records a pool worker would write.
"""

from repro.ensemble.engine import EnsembleMDEngine, ensemble_capture

__all__ = [
    "EnsembleMDEngine",
    "ensemble_capture",
]
