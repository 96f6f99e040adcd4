"""One benchmark child: set up lucascert, run one job list in-process, report.

Usage: python3 child.py SPEC.json

SPEC holds `src` (the directory holding the lucascert package), `jobs`
(possibly empty, for a set-up-only child), `trace`, `alarm_s` and
`result`, the path the report is written to as JSON.  The report gives
`ready`, the CLOCK_MONOTONIC time when `import lucascert` and
`default_catalog()` were done, per job its start, end and output, and
the samples of the host-speed probe (`hostspeed.py`), which runs from
the child's start to its last job's end.
A traced child also writes its spans to `spans` (JSON lines) when given.
"""

import contextlib
import io
import json
import signal
import sys
import time

import hostspeed


def run_cli(lucascert, job):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = lucascert.cli.main(job["argv"])
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def run_shadow(lucascert, job):
    entry = lucascert.default_catalog()[job["series"]]
    f = lucascert.series_over_q(entry, job["T"])
    shadow = lucascert.frobenius_shadow(entry.operator, job["p"], job["T"], solution=f)
    F = shadow.F
    n = len(F)
    return {"n": n, "F0": [[str(F[i][j][0]) for j in range(n)] for i in range(n)],
            "F_len": len(F[0][0])}


RUNNERS = {"cli": run_cli, "shadow": run_shadow}


def main(argv):
    with open(argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    signal.alarm(spec["alarm_s"])
    probe = hostspeed.Probe()
    probe.start()
    sys.path.insert(0, spec["src"])
    import lucascert
    import lucascert.cli

    lucascert.default_catalog()
    report = {"ready": time.monotonic(), "jobs": []}

    recorder = None
    if spec["trace"]:
        import tracing

        recorder = tracing.Recorder()
        tracing.install(recorder)
    for job in spec["jobs"]:
        start = time.monotonic()
        try:
            output = RUNNERS[job["runner"]](lucascert, job)
        except Exception as exc:  # a failed job is reported, the list goes on
            output = {"error": f"{type(exc).__name__}: {exc}"}
        report["jobs"].append({"start": start, "end": time.monotonic(), "output": output})
    probe.stop()
    report["probe"] = {"starts": probe.starts, "times": probe.times}
    if recorder is not None:
        metrics, calls = tracing.layer_metrics(recorder.spans, recorder.counts)
        report["layer"] = {"metrics": metrics, "calls": calls, "spans": len(recorder.spans)}
        if spec.get("spans"):
            with open(spec["spans"], "w", encoding="utf-8") as fh:
                for span in recorder.spans:
                    fh.write(json.dumps(span) + "\n")
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
