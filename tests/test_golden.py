"""Behaviour lockfile: the capture section of ``GOLDEN.json``.

Every ``BUILDERS`` workload at seeds 0 and 1, plus engine
configurations outside the plain builders (thermostats, a periodic
Ewald crystal, owner-restricted forces), is captured for
:data:`STEPS` steps; the SHA-256 of the canonical artifact bytes
(:func:`~repro.runcache.store.dumps_artifact`) must equal the digest
on record.  A refactor that claims "same behaviour" passes unchanged;
an intended behaviour change updates ``GOLDEN.json`` in the same
commit, where review sees it.

ndarray pickles depend on numpy (and the digests on the interpreter),
so the check runs only under the runtime the file was recorded with.

Record (only for an intended behaviour change):

    PYTHONPATH=src python -m tests.test_golden --record
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.simulate import capture_trace
from repro.md import (
    AtomSystem,
    BerendsenThermostat,
    EwaldCoulombForce,
    LangevinThermostat,
    MDEngine,
    VelocityRescaleThermostat,
)
from repro.md.boundary import PeriodicBox
from repro.runcache.key import runtime_versions
from repro.runcache.store import dumps_artifact
from repro.workloads import BUILDERS
from repro.workloads.generators import rocksalt_lattice

GOLDEN = Path(__file__).resolve().parents[1] / "GOLDEN.json"

#: steps per capture: Al-1000 and nanocar rebuild their neighbor
#: lists within them, and the whole file stays a few seconds
STEPS = 6

SEEDS = (0, 1)


def _run(engine: MDEngine):
    engine.prime()
    return engine.run(STEPS)


def _thermostatted(thermostat):
    def build():
        return _run(BUILDERS["salt"]().make_engine(thermostat=thermostat))

    return build


def _ewald_crystal():
    """The rock-salt crystal of ``examples/ewald_ionic_crystal.py``
    (two cells a side), thermalized, in a periodic box."""
    positions, charges = rocksalt_lattice(2, 2.82)
    box = np.array([2 * 2 * 2.82] * 3)
    system = AtomSystem(box)
    system.add_atoms("Na", positions, charges=charges)
    system.set_thermal_velocities(300.0, np.random.default_rng(0))
    engine = MDEngine(
        system,
        [EwaldCoulombForce(real_cutoff=5.6, kmax=6)],
        boundary=PeriodicBox(box),
        dt_fs=1.0,
    )
    return _run(engine)


def _restricted(workload: str):
    """An engine given owner-restricted copies of the workload's
    forces (the lower half of the atoms owns every evaluated term)."""

    def build():
        wl = BUILDERS[workload]()
        half = wl.system.n_atoms // 2
        engine = MDEngine(
            wl.system.copy(),
            [f.restrict(0, half) for f in wl.forces],
            dt_fs=wl.dt_fs,
            skin=wl.skin,
        )
        return _run(engine)

    return build


def _capture(workload: str, seed: int):
    def build():
        return capture_trace(BUILDERS[workload](seed=seed), STEPS)

    return build


def configurations():
    """Name -> zero-argument function returning the captured trace."""
    out = {
        f"{name}/seed={seed}": _capture(name, seed)
        for name in BUILDERS
        for seed in SEEDS
    }
    out["salt/berendsen"] = _thermostatted(
        BerendsenThermostat(target_k=600.0, tau_fs=10.0)
    )
    out["salt/velocity-rescale"] = _thermostatted(
        VelocityRescaleThermostat(target_k=600.0, every=2)
    )
    out["salt/langevin"] = _thermostatted(
        LangevinThermostat(target_k=600.0, gamma_fs=0.05, seed=3)
    )
    out["ewald-crystal/periodic"] = _ewald_crystal
    out["salt/restricted"] = _restricted("salt")
    out["nanocar/restricted"] = _restricted("nanocar")
    return out


def digest(trace) -> str:
    return hashlib.sha256(dumps_artifact(trace)).hexdigest()


def record() -> dict:
    return {
        "runtime": runtime_versions(),
        "steps": STEPS,
        "capture": {
            name: digest(build())
            for name, build in configurations().items()
        },
    }


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def _require_runtime(golden: dict) -> None:
    here = runtime_versions()
    if golden["runtime"] != here:
        pytest.skip(
            f"GOLDEN.json was recorded under {golden['runtime']}; "
            f"this runtime is {here}"
        )


def test_golden_covers_every_configuration():
    golden = _golden()
    assert golden["steps"] == STEPS
    assert sorted(golden["capture"]) == sorted(configurations())


@pytest.mark.parametrize("name", sorted(configurations()))
def test_capture_bytes_match_golden(name):
    golden = _golden()
    _require_runtime(golden)
    got = digest(configurations()[name]())
    assert got == golden["capture"][name], (
        f"{name}: capture bytes changed; if intended, re-record "
        f"GOLDEN.json (see this module's docstring)"
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python -m tests.test_golden --record")
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
