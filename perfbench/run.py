"""Layered wall-clock benchmark of the ``repro`` package.

Run from the repository root::

    python3 perfbench/run.py --workload attribute-al1000-x32 \\
        --seed 0 --seconds 28 --trace 0

``--trace 0`` prints the end-to-end metrics (``setup_s``, ``cold_s``,
``cpu_s``, ``peak_rss_mb``, ``ok_frac``); ``--trace 1`` runs the same
operation with every layer boundary wrapped and prints the per-layer
metrics instead, ``warm_s`` among them.  The last
stdout line is the JSON result; the line before it is the host
fingerprint.  See ``perfbench/README.md`` for the workloads, the layer
map and the noise model.

The load is a closed loop: one caller issues an operation and waits
for it before issuing the next.  Everything the benchmark writes goes
under ``.perfbench/`` in the repository root and is removed on exit.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"

#: the seed whose outputs ``reference.json`` records; other seeds run
#: with the invariant checks only
DEFAULT_SEED = 0
#: fresh interpreters timed per run for ``setup_s`` (median reported)
SETUP_PROBES = 3
#: warm (all-hit) operations timed after each untraced cold one of a
#: traced run, for ``warm_s``
WARM_PER_COLD = {
    "attribute-al1000-x32": 4,
    "attribute-salt-x4": 4,
    "sweep-grid": 8,
    "seeds-gas8": 2,
}
#: the first cold operation of a run warms lazy imports and allocator
#: pools; it is checked but not timed
WARMUP_OPS = 1
MIN_TIMED_OPS = 3
#: counts that must repeat exactly between two traced operations
EXACT_COUNTS = (
    "des.events",
    "machine.choose_pu_calls",
    "ensemble.runs",
    "runcache.store.file_writes",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=28.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--record-reference", action="store_true",
        help="run one operation at the default seed and store its "
        "output digest in reference.json",
    )
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def cpu_now() -> float:
    """CPU seconds of this process plus its reaped children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(me, kids) / 1024.0  # ru_maxrss is KiB on Linux


def import_layers() -> float:
    from workloads import IMPORTS

    t0 = time.perf_counter()
    for name in IMPORTS:
        importlib.import_module(name)
    return time.perf_counter() - t0


def ready(wl, seed: int, root: Path):
    """Imports, input build and a fresh store: the state a caller needs
    before its first operation."""
    import_s = import_layers()
    inputs = wl.build(seed, root)
    importlib.import_module("repro.runcache").RunCache(root / "setup-store")
    return inputs, import_s


def setup_probe(wl, seed: int, root: Path) -> int:
    _inputs, import_s = ready(wl, seed, root)
    print(json.dumps({"ready": time.time(), "import_s": import_s}))
    return 0


def time_setup(args, root: Path):
    """``setup_s`` samples: interpreter start to ready, in fresh
    processes (the wall clock is shared between them)."""
    walls, imports = [], []
    for i in range(SETUP_PROBES):
        probe_root = root / f"probe{i}"
        probe_root.mkdir()
        t0 = time.time()
        proc = subprocess.run(
            [
                sys.executable, str(HERE / "run.py"), "--setup-probe",
                "--workload", args.workload, "--seed", str(args.seed),
            ],
            cwd=str(probe_root), capture_output=True, text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        walls.append(doc["ready"] - t0)
        imports.append(doc["import_s"])
    return walls, imports


def load_reference(name: str):
    try:
        doc = json.loads(REFERENCE.read_text())
    except (OSError, ValueError):
        return None
    return doc.get("workloads", {}).get(name)


# -- one operation ------------------------------------------------------------


class Ledger:
    """Operations attempted and failed, with the first failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def record(self, bad) -> None:
        self.attempted += 1
        if bad:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append("; ".join(bad))


def run_cold(wl, inputs, seed, root, ref, ledger):
    """One from-scratch operation: ``(out, wall_s, cpu_s)``; out is
    None when it raised."""
    gc.collect()
    c0 = cpu_now()
    t0 = time.perf_counter()
    try:
        out = wl.cold(inputs, seed, root)
    except Exception:
        ledger.record([traceback.format_exc(limit=3)])
        return None, 0.0, 0.0
    wall = time.perf_counter() - t0
    cpu = cpu_now() - c0
    ledger.record(wl.check_cold(inputs, out, ref))
    return out, wall, cpu


def run_warm(wl, inputs, out, ref, ledger):
    gc.collect()
    t0 = time.perf_counter()
    try:
        result = wl.warm(inputs, out)
    except Exception:
        ledger.record([traceback.format_exc(limit=3)])
        return None
    wall = time.perf_counter() - t0
    ledger.record(wl.check_warm(inputs, result, ref))
    return wall


# -- the two modes ------------------------------------------------------------


def measure(wl, inputs, seed, root, seconds, ref, ledger):
    """End-to-end samples over ``seconds`` of closed-loop operations.
    One warm operation follows each cold one, for its output check."""
    cold, cpu = [], []
    deadline = time.perf_counter() + seconds
    n = 0
    while n < WARMUP_OPS + MIN_TIMED_OPS or time.perf_counter() < deadline:
        out, wall, used = run_cold(wl, inputs, seed, root, ref, ledger)
        if out is not None:
            if n >= WARMUP_OPS:
                cold.append(wall)
                cpu.append(used)
            run_warm(wl, inputs, out, ref, ledger)
            wl.release(out)
        n += 1
    return {"cold": cold, "cpu": cpu}


def traced(wl, inputs, seed, root, seconds, ref, ledger):
    """Alternate untraced and traced operations; returns the per-layer
    metrics and any exact-count or conservation failure."""
    from tracer import layer_metrics, render_layers, traced_op

    plain, warm, runs = [], [], []
    deadline = time.perf_counter() + seconds
    while len(runs) < 2 or time.perf_counter() < deadline:
        twin = untraced_op(wl, inputs, seed, root, ref, ledger)
        if twin is not None:
            plain.append(twin[0])
            if len(plain) > WARMUP_OPS:
                warm.extend(twin[1])
        runs.append(traced_op(wl, inputs, seed, root, ref, ledger))
    runs = [r for r in runs if r is not None]
    if len(runs) < 2 or not plain:
        return {}, ["fewer than two traced operations completed"]
    mismatch = [
        f"{name} did not repeat: {[r[name] for r in runs]}"
        for name in EXACT_COUNTS
        if len({r[name] for r in runs}) != 1
    ]
    mismatch += [
        f"layers plus residual miss the traced wall by "
        f"{r['trace.conservation_error']:.3e}s"
        for r in runs
        if r["trace.conservation_error"] > 1e-9 * r["trace.wall_s"]
    ]
    metrics = layer_metrics(runs)
    metrics["warm_s"] = median(warm)
    metrics["trace.overhead_frac"] = (
        statistics.median(r["trace.wall_s"] for r in runs)
        / statistics.median(plain)
        - 1.0
    )
    print(
        render_layers(metrics, runs[0].get("trace.warm_layers")),
        file=sys.stderr,
    )
    return metrics, mismatch


def untraced_op(wl, inputs, seed, root, ref, ledger):
    """The traced operation's untraced twin, then more warm operations:
    ``(twin_wall_s, warm_walls)``, or None when the cold one failed.
    The twin is the cold operation, plus the first warm one on the
    sweep workloads."""
    out, wall, _cpu = run_cold(wl, inputs, seed, root, ref, ledger)
    if out is None:
        return None
    warm = [run_warm(wl, inputs, out, ref, ledger)
            for _ in range(WARM_PER_COLD[wl.name])]
    wl.release(out)
    warm = [w for w in warm if w is not None]
    if wl.sweep and warm:
        wall += warm[0]
    return wall, warm


# -- output -------------------------------------------------------------------


def fingerprint(load_before) -> dict:
    from importlib import metadata

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    try:
        affinity = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        affinity = None
    return {
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "gc_enabled": gc.isenabled(),
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def median(samples) -> float:
    """Median, or 0.0 when every operation failed (the run then reports
    ``"correct": false``)."""
    return statistics.median(samples) if samples else 0.0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(
            f"perfbench: unknown workload {args.workload!r}; choose "
            f"from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    if args.setup_probe:
        return setup_probe(wl, args.seed, Path.cwd())

    load_before = os.getloadavg()
    root = WORK / f"run-{os.getpid()}"
    root.mkdir(parents=True)
    # nothing may land in the user's cache or the system temp dir
    os.environ["TMPDIR"] = str(root)
    os.environ["REPRO_RUNCACHE_DIR"] = str(root / "default-store")
    import tempfile

    tempfile.tempdir = str(root)
    try:
        return run(args, wl, root, load_before)
    finally:
        shutil.rmtree(root, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def run(args, wl, root: Path, load_before) -> int:
    setup_walls, setup_imports = time_setup(args, root)
    inputs, _import_s = ready(wl, args.seed, root)
    ref = load_reference(wl.name) if args.seed == DEFAULT_SEED else None

    if args.record_reference:
        if args.seed != DEFAULT_SEED:
            print("perfbench: references are for the default seed",
                  file=sys.stderr)
            return 2
        return record_reference(wl, inputs, root)

    ledger = Ledger()
    problems = []
    if args.trace:
        metrics, problems = traced(
            wl, inputs, args.seed, root, args.seconds, ref, ledger
        )
        metrics["startup.import_s"] = median(setup_imports)
        out_metrics = {
            name: metric(metrics.get(name, 0.0), unit)
            for name, unit in per_layer_units().items()
        }
    else:
        s = measure(wl, inputs, args.seed, root, args.seconds, ref, ledger)
        out_metrics = {
            "setup_s": metric(median(setup_walls), "s"),
            "cold_s": metric(median(s["cold"]), "s"),
            "cpu_s": metric(median(s["cpu"]), "s"),
            "peak_rss_mb": metric(peak_rss_mb(), "MB"),
            "ok_frac": metric(
                (ledger.attempted - ledger.failed) / ledger.attempted,
                "ratio",
            ),
        }
        print(
            f"perfbench: {wl.name} seed {args.seed}: "
            f"{len(s['cold'])} cold samples; "
            f"setup {['%.3f' % x for x in setup_walls]}",
            file=sys.stderr,
        )
    for line in ledger.errors + problems:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    print(json.dumps({"host": fingerprint(load_before)}))
    print(json.dumps({
        "correct": ledger.failed == 0 and not problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": out_metrics,
    }))
    return 0


def per_layer_units() -> dict:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["per_layer"]}


def record_reference(wl, inputs, root: Path) -> int:
    ledger = Ledger()
    out, _wall, _cpu = run_cold(wl, inputs, DEFAULT_SEED, root, None, ledger)
    if out is None or ledger.failed:
        print(f"perfbench: {ledger.errors}", file=sys.stderr)
        return 1
    try:
        doc = json.loads(REFERENCE.read_text())
    except (OSError, ValueError):
        doc = {"seed": DEFAULT_SEED, "workloads": {}}
    doc["workloads"][wl.name] = wl.reference(inputs, out)
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"recorded {wl.name}: {doc['workloads'][wl.name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
