"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

1. Runs every workload on the tiny profile (``--seconds 1``), untraced
   and traced, and checks that each run passes its output check and
   prints every metric ``BENCHMARK.json`` names.
2. Checks that the output checks reject one perturbed corpus weight
   and one altered ``/resolve`` response body.

Exits 1 on the first failure.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def fail(message: str) -> None:
    print(f"FAIL: {message}")
    sys.exit(1)


def tiny_profiles(spec: dict) -> None:
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        names = {metric["name"] for metric in spec[kind]}
        for workload in (w["name"] for w in spec["workloads"]):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", "0", "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            if proc.returncode != 0:
                fail(f"{workload} trace {trace} exited {proc.returncode}:\n"
                     f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            missing = names - set(result["metrics"])
            if missing or not result["correct"] or result["attempted"] < 1:
                fail(f"{workload} trace {trace}: missing {sorted(missing)}, "
                     f"correct {result['correct']}")
            table = proc.stdout
            unprinted = [name for name in names if name not in table]
            if unprinted:
                fail(f"{workload} trace {trace} did not print {unprinted}")
            print(f"ok  {workload:<7} trace {trace}: {len(names)} metrics, "
                  f"{result['attempted']} operations checked")


def perturbations() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads as w
    from repro.datasets import dataset_spec, generate_dataset
    from repro.pipeline.workbench import generate_corpus
    from repro.service.app import ServiceConfig, create_app
    from repro.service.testclient import AsgiClient

    reference = json.loads(w.REFERENCE_PATH.read_text())

    records = generate_corpus(w.experiment_config(0).corpus)
    expected = reference["corpus"]["0"]
    if w.check_listed(w.corpus_digests(records), expected) != 0:
        fail("unperturbed corpus does not match its reference")
    graph = records[7].graph
    graph.weight = graph.weight.copy()
    graph.weight[0] = graph.weight[0] + 1e-9
    if w.check_listed(w.corpus_digests(records), expected) != 1:
        fail("a perturbed weight was not counted as one failed graph")
    print("ok  corpus check rejects one perturbed weight")

    seed = w.data_seed(0)
    dataset = generate_dataset(
        dataset_spec(w.SERVE_DATASET, scale=w.SERVE_SCALE,
                     max_pairs=w.SERVE_MAX_PAIRS),
        seed=seed,
    )
    ops = w.serve_ops(dataset.left.texts(), 0)[:w.INGEST_EVERY]
    app = create_app(ServiceConfig(
        datasets=(w.SERVE_DATASET,), scale=w.SERVE_SCALE,
        max_pairs=w.SERVE_MAX_PAIRS, seed=seed,
    ))

    async def scenario():
        async with AsgiClient(app) as client:
            return await w._burst(client, ops)

    responses = asyncio.run(scenario())
    blocks = reference["serve"]["0"]
    if w.check_serve(responses, blocks):
        fail("unaltered responses do not match their reference")
    status, body = responses[3]
    responses[3] = (status, body.replace(b'"score":', b'"score": ', 1))
    if 3 not in w.check_serve(responses, blocks):
        fail("an altered response body was not counted as failed")
    print("ok  serve check rejects one altered response body")


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Check digests under the environment the benchmark's units get.
        sys.path.insert(0, str(HERE))
        from run import child_env

        env = child_env(ROOT / ".perfbench_runs" / "selftest")
        return subprocess.run([sys.executable, __file__], env=env).returncode
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    perturbations()
    tiny_profiles(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
