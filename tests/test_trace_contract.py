"""The benchmark's trace contract: every per-layer metric records calls on its home workload.

`bench/run.py --trace 1` stops with an error when a metric records no calls
on the workload `bench/tracing.HOME` assigns it, so a refactor that moves a
layer's last call off that workload breaks the traced benchmark.  Each
test runs a small job list of one workload in a traced child
(`bench/child.py`, whose `tracing.install` patches the loaded modules) and
reads the calls it reports.
"""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

import lucascert
from lucascert import default_catalog, diffop_to_json

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "bench")
SRC = os.path.dirname(os.path.dirname(os.path.abspath(lucascert.__file__)))


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", os.path.join(BENCH_DIR, "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING = _load_tracing()


def _jobs(workload, tmp_path):
    if workload == "certify":
        return [{"runner": "cli", "argv": ["certify", "apery", "-p", "5"]},
                {"runner": "cli", "argv": ["certify", "f2", "-p", "3"]}]
    if workload == "opinfo":
        path = tmp_path / "apery.json"
        path.write_text(json.dumps(diffop_to_json(default_catalog()["apery"].operator)))
        return [{"runner": "cli", "argv": ["opinfo", str(path), "--primes", "5"]}]
    if workload == "shadow":
        return [{"runner": "shadow", "series": "f2", "p": 3, "T": 27}]
    return [{"runner": "cli", "argv": ["casebook", "all", "--primes", "3"]}]


@pytest.mark.parametrize("workload", ["certify", "opinfo", "shadow", "casebook"])
def test_home_metrics_record_calls(workload, tmp_path):
    result = tmp_path / "result.json"
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"src": SRC, "jobs": _jobs(workload, tmp_path), "trace": True,
                                "spans": None, "alarm_s": 60, "result": str(result)}))
    subprocess.run([sys.executable, os.path.join(BENCH_DIR, "child.py"), str(spec)],
                   capture_output=True, check=True, timeout=120)
    report = json.loads(result.read_text())
    for job in report["jobs"]:
        assert "error" not in job["output"] and job["output"].get("rc", 0) == 0, job["output"]
    calls = report["layer"]["calls"]
    homed = [m for m, home in TRACING.HOME.items() if home == workload]
    assert homed
    assert [m for m in homed if calls[m] == 0] == []
