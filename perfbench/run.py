"""Benchmark command: run one workload in fresh interpreters, check its
outputs and print its metrics.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all     # every workload in turn
    python3 perfbench/run.py --record-reference # rewrite reference.json

Each unit of work runs in its own interpreter (``workloads.py``), one
after another.  Units cycle through the four input variants, starting
at ``seed % 4``: corpus and stream run whole cycles until the measured
time reaches ``--seconds``, the sweep runs until then, and serve runs
two load segments of ``seconds / 4`` per variant.  A traced run runs
every unit twice, traced and untraced, to measure the tracing
overhead.  Every child gets a private ``REPRO_CACHE`` and ``TMPDIR``
under ``.perfbench_runs/``, which is removed at exit, explicit dataset
sizes, no other ``REPRO_*`` variable and single-threaded BLAS.

Every time it reports is scaled to a reference host by a speed probe
that runs beside the units (:class:`SpeedProbe`); the table also shows
the unscaled values.

The command prints a table of every metric with its unit and sample
count, then as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  It exits 1 when an output check fails and 2 when it
cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from workloads import SERVE_SEGMENTS, VARIANTS, WORKLOADS, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
UNIT_TIMEOUT = 170  # seconds; a unit that takes longer is killed
WALL_BUDGET = 120   # seconds of wall after which no new unit starts

# Host-speed probe (see SpeedProbe).
PROBE_PERIOD = 0.02       # seconds between probes
PROBE_ITERATIONS = 5_000  # the probe's Python loop: about 0.3 ms
REFERENCE_PROBE_MS = 0.5  # one probe on the reference host

#: What one item is, per workload: its name in the table.
ITEMS = {
    "corpus": "graphs_per_s",
    "sweep": "sweeps_per_s",
    "serve": "goodput_rps",
    "stream": "records_per_s",
}

#: Per-layer metrics timed during set-up rather than the timed section.
SETUP_LAYERS = {"service.warmup_s"}

BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class UnitFailed(RuntimeError):
    """A unit crashed, timed out or printed no result."""


def probe_work(array: np.ndarray, matrix: np.ndarray) -> float:
    """Fixed work in the mix the units do: a Python loop, a sort and
    small matrix products."""
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i % 7
    product = matrix
    for _ in range(5):
        product = product @ matrix
    return total + float(np.sort(array)[0]) + float(product[0, 0])


class SpeedProbe:
    """How fast the host runs, sampled beside the units.

    The benchmark's host is a shared VM whose speed drifts by 20-40%
    over minutes.  CPU time drifts with wall time (no steal time is
    reported), so neither clock alone compares two runs.  While a run
    is in progress, a thread of this process times ``probe_work`` every
    ``PROBE_PERIOD``, about 2.5% of one core.  It times the probe in
    thread CPU time, so the time the probe waits for a core that a
    unit's own threads hold is left out.  :meth:`factor` turns the
    probe times inside a unit's window into the factor that scales the
    unit's times to the reference host, where one probe takes
    ``REFERENCE_PROBE_MS``.  The probe runs none of the program's code,
    so a change to the program cannot move it.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (wall at end, s)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        rng = np.random.default_rng(0)
        array, matrix = rng.random(20_000), rng.random((60, 60)) / 60
        while not self._stop.wait(PROBE_PERIOD):
            start = time.thread_time()
            probe_work(array, matrix)
            self.samples.append((time.time(), time.thread_time() - start))

    def factor(self, start: float, end: float) -> float:
        """Reference over median probe time between two wall times."""
        window = [s for t, s in self.samples if start <= t <= end]
        if len(window) < 5:
            # A window too short for a median: take the nearest samples.
            middle = (start + end) / 2
            window = [s for _, s in sorted(
                self.samples, key=lambda sample: abs(sample[0] - middle)
            )[:5]]
        return REFERENCE_PROBE_MS / (1000.0 * statistics.median(window))


def child_env(run_dir: Path) -> dict[str, str]:
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_") and key != "PYTHONPATH"
    }
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        REPRO_CACHE=str(run_dir / "repro_cache"),
        TMPDIR=str(run_dir / "tmp"),
        PYTHONHASHSEED="0",
    )
    env.update({name: "1" for name in BLAS_THREADS})
    return env


def spawn(
    spec: dict, env: dict[str, str], probe: SpeedProbe | None = None
) -> dict:
    """Run one unit in a fresh interpreter and return its result line.

    With a ``probe``, the result gains ``setup_factor`` and ``factor``,
    which scale its set-up and measured times to the reference host.
    """
    Path(spec["workdir"]).mkdir(parents=True, exist_ok=True)
    Path(env["TMPDIR"]).mkdir(parents=True, exist_ok=True)
    spec = dict(spec, spawn_wall=time.time())
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), json.dumps(spec)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=UNIT_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        raise UnitFailed(
            f"{spec['workload']} unit {spec['index']} timed out"
        ) from None
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise UnitFailed(
            f"{spec['workload']} unit {spec['index']} exited "
            f"{proc.returncode}:\n{proc.stderr[-3000:]}"
        )
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    if probe is not None:
        result["setup_factor"] = probe.factor(
            spec["spawn_wall"], result["ready_wall"]
        )
        result["factor"] = probe.factor(
            result["start_wall"], result["end_wall"]
        )
    return result


def run_units(
    workload: str, args, run_dir: Path, env: dict[str, str]
) -> tuple[list[dict], dict | None]:
    """Every unit of one run, plus the one-off prebuild unit if any."""
    with SpeedProbe() as probe:
        return _run_units(workload, args, run_dir, env, probe)


def _run_units(
    workload: str, args, run_dir: Path, env: dict[str, str], probe
) -> tuple[list[dict], dict | None]:
    base = {
        "workload": workload,
        "seed": args.seed,
        "variant": 0,
        "seconds": args.seconds,
        "mode": "measure",
        "shared": str(run_dir / "shared"),
    }
    prebuilt = None
    if workload == "sweep":
        # The corpus is built once per invocation by the code under
        # test; every unit then loads it, timed.
        prebuilt = spawn(
            dict(base, mode="prebuild", index=-1, trace=False,
                 workdir=base["shared"]),
            env,
            probe,
        )
        base["n_graphs"] = prebuilt["n_graphs"]
    # A traced run pairs every traced unit with an untraced one of the
    # same variant; corpus and stream stop only after whole cycles.
    repeat = 2 if args.trace else 1
    cycle = {"corpus": VARIANTS, "stream": VARIANTS}.get(workload, 1)
    units: list[dict] = []
    started = time.perf_counter()
    while True:
        index = len(units)
        variant = (args.seed + index // repeat) % VARIANTS
        workdir = run_dir / f"unit{index}"
        units.append(spawn(
            dict(base, index=index, variant=variant,
                 trace=bool(args.trace) and index % 2 == 0,
                 report=index == 0,
                 workdir=str(workdir)),
            env,
            probe,
        ))
        shutil.rmtree(workdir, ignore_errors=True)
        if workload == "serve":
            if len(units) == SERVE_SEGMENTS * repeat:
                break
            continue
        if len(units) % (cycle * repeat):
            continue
        if sum(unit["measured_s"] for unit in units) >= args.seconds:
            break
        if time.perf_counter() - started > WALL_BUDGET:
            break
    return units, prebuilt


def end_to_end(
    workload: str, units: list[dict], prebuilt: dict | None,
    scaled: bool = True,
):
    """``{metric: (value, samples)}`` of an untraced run.

    Times are scaled to the reference host unless ``scaled`` is false.
    """
    def setup_f(unit):
        return unit["setup_factor"] if scaled else 1.0

    def f(unit):
        return unit["factor"] if scaled else 1.0

    setup = statistics.median(u["setup_s"] * setup_f(u) for u in units)
    if prebuilt is not None:
        setup += (prebuilt["setup_s"] * setup_f(prebuilt)
                  + prebuilt["measured_s"] * f(prebuilt))
    rss = statistics.median(u["rss_mb"] for u in units)
    if workload == "serve":
        latencies = [ms * f(u) for u in units for ms in u["resolve_ms"]]
        ingests = [ms * f(u) for u in units for ms in u["ingest_ms"]]
        good = sum(u["items"] for u in units)
        span = sum(u["measured_s"] for u in units)
        return {
            # Table only: the JSON carries the metrics every workload has.
            "ingest_p50_ms": (percentile(ingests, 50), len(ingests)),
            "items_per_s": (good / span, len(units)),
            "latency_p50_ms": (percentile(latencies, 50), len(latencies)),
            "latency_tail_ms": (percentile(latencies, 99), len(latencies)),
            "setup_s": (setup, len(units)),
            "peak_rss_mb": (rss, len(units)),
        }
    walls = [u["measured_s"] * f(u) for u in units]
    rates = [u["items"] / wall for u, wall in zip(units, walls)]
    return {
        "items_per_s": (statistics.median(rates), len(units)),
        "latency_p50_ms": (1000.0 * statistics.median(walls), len(walls)),
        # The tail is the highest percentile with ten samples beyond
        # it: p99 of a serve run's resolves, but a batch run has too
        # few units for any percentile above the median.
        "latency_tail_ms": (1000.0 * statistics.median(walls), len(walls)),
        "setup_s": (setup, len(units)),
        "peak_rss_mb": (rss, len(units)),
    }


def per_layer(units: list[dict], units_of: dict[str, str]):
    """``{metric: (value, samples)}`` of a traced run.

    Each layer metric is the mean over traced units, times scaled to
    the reference host like the end-to-end ones; the tracing overhead
    is the median, over variants, of a traced unit's measured time
    minus that of the untraced unit of the same variant.
    """
    def f(unit, name):
        if units_of[name] not in ("s", "ms"):
            return 1.0
        # The service warms up during set-up, every other layer after.
        return unit["setup_factor" if name in SETUP_LAYERS else "factor"]

    traced = [u for u in units if "layers" in u]
    out = {}
    for name in units_of:
        values = [u["layers"][name] * f(u, name)
                  for u in traced if name in u["layers"]]
        out[name] = (statistics.fmean(values) if values else 0.0,
                     len(values))
    scaled = [u["measured_s"] * u["factor"] for u in units]
    pairs = [scaled[k] - scaled[k + 1] for k in range(0, len(units) - 1, 2)]
    if pairs:
        out["trace.overhead_s"] = (statistics.median(pairs), len(pairs))
    coverage = [u["coverage"] for u in traced if "coverage" in u]
    if coverage and "trace.coverage" in units_of:
        out["trace.coverage"] = (statistics.median(coverage), len(coverage))
    return out


def run_workload(
    workload: str, args, spec: dict, run_dir: Path
) -> tuple[bool, dict]:
    """Run, check and print one workload; return (correct, result)."""
    units, prebuilt = run_units(workload, args, run_dir, child_env(run_dir))
    attempted = sum(u["attempted"] for u in units)
    failed = sum(u["failed"] for u in units)
    skipped = [u["pid"] for u in units if u["did_work"] is False]
    if skipped:
        # The timed section returned without doing its work (e.g. a
        # results-cache hit): its outputs prove nothing.
        failed = attempted
    correct = failed == 0 and not skipped
    defined = spec["per_layer" if args.trace else "end_to_end"]
    names = [metric["name"] for metric in defined]
    units_of = {metric["name"]: metric["unit"] for metric in defined}
    if args.trace:
        values = per_layer(units, units_of)
    else:
        values = end_to_end(workload, units, prebuilt)

    versions = units[0]["versions"]
    print(
        f"perfbench {workload}: seed {args.seed}, {len(units)} units "
        f"(variants {sorted({u['variant'] for u in units})}), "
        f"trace {args.trace}"
    )
    print(
        f"host: nproc {os.cpu_count()}, "
        + ", ".join(f"{lib} {version}" for lib, version in versions.items())
        + "; BLAS threads "
        + " ".join(f"{name}=1" for name in BLAS_THREADS)
    )
    factors = [u["factor"] for u in units]
    print(f"host speed factor (times x factor = reference host): median "
          f"{statistics.median(factors):.3f}, "
          f"range {min(factors):.3f}-{max(factors):.3f}")
    if prebuilt is not None:
        print(f"one-off corpus prebuild: {prebuilt['wall_s']:.3f} s "
              f"unscaled (in setup_s)")
    unmeasured = sorted({t for u in units for t in u["unmeasured"]})
    if unmeasured:
        print("unmeasured (entry point not found): " + ", ".join(unmeasured))
    units_of.setdefault("ingest_p50_ms", "ms")
    for name in names + [name for name in values if name not in names]:
        value, samples = values.get(name, (0.0, 0))
        label = name
        if name == "items_per_s":
            label = f"{name} ({ITEMS[workload]})"
        print(f"  {label:<44} {value:>14.6g} {units_of[name]:<8} "
              f"n={samples}")
    print(f"  {'failed_frac':<44} {failed / max(attempted, 1):>14.6g} "
          f"{'1':<8} n={attempted}")
    if not args.trace:
        unscaled = end_to_end(workload, units, prebuilt, scaled=False)
        print("  unscaled: " + ", ".join(
            f"{name} {value:.6g}" for name, (value, _) in unscaled.items()
        ))
    if skipped:
        print(f"  timed section did no work in unit(s) of pid {skipped}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values.get(name, (0.0, 0))[0],
                   "unit": units_of[name]}
            for name in names
        },
    }
    return correct, result


def record_reference(run_dir: Path, workloads: tuple[str, ...]) -> None:
    """Capture every variant's output digests into reference.json."""
    env = child_env(run_dir)
    path = HERE / "reference.json"
    reference: dict = json.loads(path.read_text()) if path.is_file() else {}
    for workload in workloads:
        reference[workload] = {}
        for variant in range(VARIANTS):
            out = spawn(
                {"workload": workload, "seed": variant, "variant": variant,
                 "index": 0, "trace": False, "mode": "record",
                 "seconds": 0,
                 "workdir": str(run_dir / f"{workload}{variant}")},
                env,
            )
            reference[workload][str(variant)] = out["digests"]
            print(f"recorded {workload} variant {variant} in "
                  f"{out['wall_s']:.1f} s", file=sys.stderr)
    path.write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"),
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference.json from this checkout")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    bench_path = ROOT / "BENCHMARK.json"
    if not bench_path.is_file():
        print(f"error: {bench_path} is missing", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    spec = json.loads(bench_path.read_text())

    run_dir = ROOT / ".perfbench_runs" / str(os.getpid())
    try:
        workloads = (
            tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
        )
        if args.record_reference:
            record_reference(run_dir, workloads)
            return 0
        results = {}
        for workload in workloads:
            results[workload] = run_workload(workload, args, spec, run_dir)
    except UnitFailed as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass
    correct = all(ok for ok, _ in results.values())
    if len(results) == 1:
        final = next(iter(results.values()))[1]
    else:
        final = {
            "correct": correct,
            "attempted": sum(r["attempted"] for _, r in results.values()),
            "failed": sum(r["failed"] for _, r in results.values()),
            "metrics": {
                f"{workload}.{name}": metric
                for workload, (_, r) in results.items()
                for name, metric in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
