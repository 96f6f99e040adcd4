"""Tests of the benchmark's own checks and span arithmetic.

Run from the root of the repo: python3 -m pytest -q bench/test_checks.py
"""

import contextlib
import io
import json
import os
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402
from lucascert import cli, default_catalog, series_mod_p  # noqa: E402


def _certificate(series, p):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["certify", series, "-p", str(p)]) == 0
    return json.loads(out.getvalue())


@pytest.mark.parametrize("series,p", [("f2", 3), ("f2", 5), ("f3", 3), ("apery", 7)])
def test_references_agree_with_the_library(series, p):
    T = 400
    expected = list(series_mod_p(default_catalog()[series], p, T).coeffs)
    assert checks.REFERENCE[series](p, T) == expected


def test_checker_accepts_the_certificate():
    cert = _certificate("f2", 3)
    ref = checks.REFERENCE["f2"](3, cert["verified_to"])
    assert checks.certificate_problems(cert, "f2", 3, ref) == []


def test_checker_rejects_any_changed_coefficient_of_A():
    cert = _certificate("f2", 3)
    ref = checks.REFERENCE["f2"](3, cert["verified_to"])
    for part in ("A_num", "A_den"):
        for k in range(len(cert[part])):
            bad = json.loads(json.dumps(cert))
            bad[part][k] = (bad[part][k] + 1) % 3
            assert checks.certificate_problems(bad, "f2", 3, ref), (part, k)


def test_checker_rejects_a_wrong_f2_height():
    cert = _certificate("f2", 3)
    ref = checks.REFERENCE["f2"](3, cert["verified_to"])
    bad = dict(cert, A_num=cert["A_num"] + [0, 1], height=cert["height"] + 2)
    assert any("expected 2, 12" in msg for msg in checks.certificate_problems(bad, "f2", 3, ref))


def test_expected_good_primes():
    assert checks.expected_good_primes(1152, 20) == [5, 7, 11, 13, 17, 19]
    assert checks.expected_good_primes(10**14 + 31, 10) == [2, 3, 5, 7]


def test_self_and_inclusive_time():
    # outer(0..10) > [inner(1..4) > inner(2..3)], other(5..9)
    spans = [
        ["outer", -1, 0.0, 10.0, None],
        ["inner", 0, 1.0, 4.0, 7],
        ["inner", 1, 2.0, 3.0, 5],
        ["other", 0, 5.0, 9.0, None],
    ]
    s = tracing.summarize(spans)
    assert s["outer"] == {"calls": 1, "incl_s": 10.0, "self_s": 3.0, "arg_sum": 0}
    assert s["inner"] == {"calls": 2, "incl_s": 3.0, "self_s": 3.0, "arg_sum": 12}
    assert s["other"]["self_s"] == 4.0


def test_host_speed_adjustment():
    ref = hostspeed.REF_PROBE_S
    # probes of 1 ms at 1, 2 and 3 s: 3.997 s of work between 0 and 4 s
    starts, times = [1.0, 2.0, 3.0], [0.001] * 3
    at_ref = hostspeed.adjusted(0.0, 4.0, starts, times, [ref] * 3)
    assert at_ref == pytest.approx(3.997)
    # a host twice as slow as the reference halves the adjusted time
    assert hostspeed.adjusted(0.0, 4.0, starts, times, [2 * ref] * 3) == pytest.approx(at_ref / 2)
    # only the probes inside the interval count; none there leaves it raw
    assert hostspeed.adjusted(1.5, 2.5, starts, times, [2 * ref] * 3) == pytest.approx(0.4995)
    assert hostspeed.adjusted(3.5, 4.0, starts, times, [2 * ref] * 3) == 0.5
    assert hostspeed.smooth([1, 9, 1, 1, 9, 1, 1]) == [1] * 7


def test_every_metric_has_a_home_workload():
    assert set(tracing.HOME) == set(tracing.METRICS)


def test_benchmark_json_names_what_the_benchmark_prints():
    import run

    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    traced = list(tracing.METRICS) + ["trace.overhead_s", "trace.spans"]
    assert [m["name"] for m in spec["per_layer"]] == traced
    assert all(m["unit"] == tracing.unit(m["name"]) for m in spec["per_layer"])
