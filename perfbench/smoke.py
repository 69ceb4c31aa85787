"""Smoke test of the benchmark itself: tiny corpora, every metric, every check.

    python3 perfbench/smoke.py

For each workload it runs ``run.py --tiny`` untraced and traced, and asserts
that the result is correct, that the known-answer checks ran, and that the
metrics are exactly the ones ``BENCHMARK.json`` names.  It also asserts that
the benchmark refuses to run in a copy that holds only the benchmark.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    for w in spec["workloads"]:
        for trace in (0, 1):
            proc = run(ROOT, "--workload", w["name"], "--seed", "7", "--seconds", "1",
                       "--trace", str(trace), "--tiny")
            assert proc.returncode == 0, proc.stderr[-2000:]
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] is True, proc.stdout[-2000:]
            assert result["failed"] == 0 and result["attempted"] >= 1, result
            assert set(result["metrics"]) == names[trace], set(result["metrics"]) ^ names[trace]
            checks = int(re.search(r"# (\d+) known-answer checks", proc.stdout).group(1))
            assert checks > 0, "no known-answer check ran"
            if trace == 0:
                assert all(m["value"] > 0 for m in result["metrics"].values()), result
            print(f"ok {w['name']} trace={trace}: {len(result['metrics'])} metrics, "
                  f"{checks} checks")

    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, "--workload", spec["workloads"][0]["name"], "--seed", "1",
               "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("ok: refuses to run without the program")


if __name__ == "__main__":
    main()
