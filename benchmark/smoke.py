"""Smoke run of the benchmark on tiny inputs: every workload, both trace modes.

    python3 benchmark/smoke.py

Each run must exit 0 with a correct result whose metrics are exactly the
names and units that BENCHMARK.json declares, and must print error_rate.
A copy of the benchmark without the package source must exit non-zero
without printing a result. Takes about half a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7


def run(root, workload, trace):
    return subprocess.run(
        [sys.executable, str(root / HERE.name / "run.py"),
         "--workload", workload, "--seed", str(SEED), "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=180)


def check_run(spec, workload, trace):
    proc = run(ROOT, workload, trace)
    lines = proc.stdout.strip().splitlines()
    assert proc.returncode == 0, f"{workload} trace {trace}: {proc.stderr}"
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0, result
    assert result["attempted"] >= 1
    declared = spec["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected, f"{workload} trace {trace}: {got} != {expected}"
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), (name, metric)
    assert any(line.startswith("error_rate = 0.0 ") for line in lines), lines
    if not trace:
        for name in ("setup_s", "items_per_s", "accuracy", "peak_rss_mb"):
            assert any(line.startswith(f"{name} = ") for line in lines), name
        for name in expected:
            assert result["metrics"][name]["value"] > 0, (workload, name)


def check_bare_directory():
    bare = ROOT / ".bench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run(bare, "train-mnist", 0)
        assert proc.returncode != 0, "ran without the package source"
        assert "correct" not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_run(spec, workload, trace)
            print(f"ok {workload} trace {trace}")
    check_bare_directory()
    print("ok bare directory exits non-zero")
    return 0


if __name__ == "__main__":
    sys.exit(main())
