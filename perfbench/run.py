"""muskatlab benchmark: one seeded workload, timed closed-loop, outputs checked.

Usage (from the repository root):

    python3 perfbench/run.py --workload gravity_n128 --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` next to this directory; without it the
command exits with status 2 and prints no result.  One client runs passes of
the workload back to back (closed loop) in this process until the next pass
would end after ``--seconds``, with at least two passes so that outputs can be
compared across passes.  BLAS is capped at one thread for this process and
its children.

With ``--trace 0`` the result holds the end-to-end metrics (``wall_s``,
``setup_s``, ``peak_rss_mb``).  With ``--trace 1`` passes alternate traced and
untraced, starting traced, and the result holds the per-layer metrics derived
from the traced passes' spans.  The last line of standard output is the result
as JSON; a record with the environment, the generated configs, per-pass
timings and (traced) the spans is written under ``.perfbench_work/``.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BLAS_THREADS = 1
SETUP_PROBES = 7
MIN_PASSES = 2
MIN_TRACED_PASSES = 3  # traced, untraced, traced: the first traced pass is cold


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _median(values):
    return statistics.median(values) if values else 0.0


def _setup_times(config: dict, work: Path) -> list[dict]:
    """Set-up phases timed in SETUP_PROBES fresh interpreters, one after another."""
    path = work / "setup_config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    probes = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(path)],
                              capture_output=True, text=True, timeout=120, check=True)
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        if not Path(probe["module"]).resolve().is_relative_to(SRC):
            raise RuntimeError(f"set-up probe imported muskatlab from {probe['module']}")
        probes.append(probe)
    return probes


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return None


def _environment() -> dict:
    import numpy
    import scipy

    def blas_version(module):
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
        except (AttributeError, KeyError, TypeError):
            return None

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(str(index / "level")), _read(str(index / "type"))
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(str(index / "size"))
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((ln.split(":", 1)[1].strip() for ln in cpuinfo.splitlines()
                  if ln.startswith("model name")), platform.processor())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas_version(numpy),
        "openblas_scipy": blas_version(scipy),
        "blas_threads": BLAS_THREADS,
        "git_commit": commit,
    }


def _run_passes(run_pass, inputs, seconds, seed, work, ledger, tracer):
    """Closed loop of passes; returns [(traced, wall_s, facts)]."""
    import numpy as np

    passes = []
    first_digest = None
    minimum = MIN_TRACED_PASSES if tracer is not None else MIN_PASSES
    started = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 0
        pass_dir = work / f"pass{len(passes)}"
        pass_dir.mkdir()
        # scipy's onenormest draws its start vectors from numpy's global stream.
        np.random.seed(seed)
        gc.collect()
        if traced:
            tracer.install()
        try:
            t0 = time.perf_counter()
            digest, facts = run_pass(inputs, pass_dir, ledger)
            wall = time.perf_counter() - t0
        finally:
            if traced:
                tracer.uninstall()
        shutil.rmtree(pass_dir)
        if first_digest is None:
            first_digest = digest
        else:
            ledger.check("trace-integrity" if tracer is not None else "determinism",
                         digest == first_digest, "outputs differ between passes of one seed")
        passes.append((traced, wall, facts))
        elapsed = time.perf_counter() - started
        if len(passes) >= minimum and elapsed + _median([p[1] for p in passes]) > seconds:
            return passes


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "muskatlab" / "__init__.py").is_file():
        print(f"error: muskatlab sources not found under {SRC}", file=sys.stderr)
        return 2
    # Before numpy is first imported; set-up probes inherit the cap.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import muskatlab

    if not Path(muskatlab.__file__).resolve().is_relative_to(SRC):
        print(f"error: muskatlab imported from {muskatlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    make_inputs, run_pass, setup_input = workloads.WORKLOADS[args.workload]

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work = WORK / tag
    work.mkdir(parents=True)
    try:
        inputs = make_inputs(args.seed)
        probes = _setup_times(inputs[setup_input], work)
        tracer = spans.Tracer() if args.trace else None
        ledger = workloads.Ledger(tracer)
        passes = _run_passes(run_pass, inputs, args.seconds, args.seed, work, ledger, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = [wall for traced, wall, _ in passes if not traced]
    if tracer is None:
        metrics = {
            "wall_s": (_median(untraced), "s", len(untraced)),
            "setup_s": (_median([p["total_s"] for p in probes]), "s", len(probes)),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
        }
    else:
        traced_walls = [wall for traced, wall, _ in passes if traced]
        overhead = _median(traced_walls[1:]) / _median(untraced) - 1.0
        steps = sum(facts["steps_accepted"] for traced, _, facts in passes if traced)
        layer = spans.layer_metrics(tracer.spans, len(traced_walls), steps, overhead,
                                    _median([p["config_s"] for p in probes]))
        metrics = {name: (value, unit, len(traced_walls)) for name, (value, unit) in layer.items()}

    env = _environment()
    fail_frac = ledger.failed / ledger.attempted
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} (closed loop, 1 client)")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:<46} {value:>14.6g} {unit:<6} n={n}")
    print(f"  {'fail_frac':<46} {fail_frac:>14.6g} {'ratio':<6} "
          f"({ledger.failed} failed / {ledger.attempted} attempted)")
    for failure in ledger.failures:
        print(f"  FAILED {failure}")
    print("  environment " + json.dumps(env, sort_keys=True))

    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "inputs": inputs,
        "lu_mb_computed_note": "diffraction.lu_mb_computed is nnz(L)+nnz(U) times "
                               f"{spans.LU_BYTES_PER_NONZERO} bytes, computed, not measured traffic",
        "passes": [{"traced": t, "wall_s": w, **facts} for t, w, facts in passes],
        "setup_probes": probes, "failures": ledger.failures, "result": result,
        "spans": tracer.spans if tracer is not None else [],
    }
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{tag}.json").write_text(json.dumps(record), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
