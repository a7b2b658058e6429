"""Shared fixtures for the experiment benchmarks.

Physics (the expensive part) runs once per workload per session; every
benchmark then replays the captured work trace on simulated machines.
Each experiment writes its paper-style output into ``benchmarks/out/``
so the regenerated tables and figures survive the pytest capture.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.runcache import RunCache, cached_capture
from repro.workloads import BUILDERS, PAPER_WORKLOADS

#: timesteps of real physics per workload (the paper ran 10,000-20,000;
#: the speedup/topology shapes stabilize within tens of steps)
TRACE_STEPS = 20

OUT_DIR = pathlib.Path(__file__).parent / "out"


@pytest.fixture(scope="session")
def traces():
    """{name: (workload, [StepReport, ...])} for the three benchmarks.

    Captures come through the content-addressed run cache (byte-exact
    by construction); set ``REPRO_RUNCACHE_DISABLE=1`` to re-simulate.
    """
    cache = (
        None if os.environ.get("REPRO_RUNCACHE_DISABLE") else RunCache()
    )
    out = {}
    for name in PAPER_WORKLOADS:
        wl = BUILDERS[name]()
        out[name] = (wl, cached_capture(cache, name, TRACE_STEPS))
    return out


@pytest.fixture(scope="session")
def out_dir() -> pathlib.Path:
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR

