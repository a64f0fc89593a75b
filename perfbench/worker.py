"""One measured pass of a benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py JOB.json RESULT.jsonl

JOB names the relkit source directory, the CLI requests to send one after
another (closed loop, one client), a time budget, the tracing (none,
"spans", or "counters" for spans and counters) and, optionally, a set-up
probe. Each request runs in-process through ``relkit.cli.main``; only that
call is timed. RESULT gets one JSON line per request (exit code, time,
stderr, artifacts read back after the call), then a summary line with the
peak RSS of this process, the set-up samples and, when traced, the spans and
counters.

The speed of the shared machine this runs on drifts by tens of percent
within seconds. So the worker interleaves a fixed pure-Python calibration
(``calibrate``) with the requests: after every window of at least
CAL_WINDOW_S of request time it runs the calibration, about 5% of the
window's time. Each request's ``cal_ms`` is the mean calibration time just
before and just after its window, and request time over ``cal_ms`` is a cost
that the machine's speed cancels out of.

The set-up probe is a command that starts a fresh interpreter, which
calibrates, imports relkit and loads a config, calibrates again, and prints
its clock readings (``run.SETUP_CODE``). Its samples are spread evenly over
the time budget, between windows, and their time does not count against the
budget. A sample's set-up time is the interpreter's start-up plus the import
and load, without the calibrations, and its ``cal_ms`` is the median of the
interpreter's own calibrations, which run on whichever CPU it got.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

from calibration import calibrate

CAL_WINDOW_S = 0.2
CAL_SHARE = 0.05


def _calibration(window_ms: float, cal_ms: float) -> float:
    runs = max(1, round(CAL_SHARE * window_ms / cal_ms))
    return sum(calibrate() for _ in range(runs)) / runs


def _setup_sample(probe: dict) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(probe["argv"], capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    started, loading, loaded, cal_ms = (float(x) for x in proc.stdout.split())
    return {"s": (started - t0) + (loaded - loading), "cal_ms": cal_ms}


def main(job_path: str, result_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    sys.path.insert(0, job["src"])
    import relkit.cli

    tracer = None
    if job["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import tracing

        tracer = tracing.install(counters=job["trace"] == "counters")
    seconds = job["seconds"]
    probe = job.get("setup")
    setups: list[dict] = []
    paused = 0.0
    if probe:
        _setup_sample(probe)  # unmeasured: compiles the bytecode

    def setup_due() -> bool:
        if not probe or len(setups) >= probe["samples"]:
            return False
        elapsed = time.perf_counter() - start - paused
        return elapsed >= len(setups) * seconds / probe["samples"]

    window: list[dict] = []
    window_ms = 0.0
    cal_before = _calibration(0.0, 1.0)

    def close_window(out) -> None:
        nonlocal window, window_ms, cal_before
        cal_after = _calibration(window_ms, cal_before)
        for record in window:
            record["cal_ms"] = 0.5 * (cal_before + cal_after)
            out.write(json.dumps(record) + "\n")
        window, window_ms, cal_before = [], 0.0, cal_after

    with open(result_path, "w", encoding="utf-8") as out:
        start = time.perf_counter()
        for n, request in enumerate(job["requests"]):
            timed = request.get("timed", True)
            if timed and seconds is not None and time.perf_counter() - start - paused >= seconds:
                continue
            if tracer is not None:
                tracer.new_request()
            stdout, stderr = io.StringIO(), io.StringIO()
            main_fn = relkit.cli.main
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                t0 = time.perf_counter()
                rc = main_fn(request["argv"])
                t1 = time.perf_counter()
            artifacts = {}
            if rc == 0:
                for path in request.get("outputs", []):
                    artifacts[path] = Path(path).read_text(encoding="utf-8")
            window.append({
                "n": n,
                "rc": rc,
                "ms": 1e3 * (t1 - t0),
                "timed": timed,
                "role": request.get("role", ""),
                "stderr": stderr.getvalue(),
                "artifacts": artifacts,
            })
            window_ms += 1e3 * (t1 - t0)
            if window_ms >= 1e3 * CAL_WINDOW_S:
                close_window(out)
                if setup_due():
                    t = time.perf_counter()
                    setups.append(_setup_sample(probe))
                    paused += time.perf_counter() - t
        if window:
            close_window(out)
        while probe and len(setups) < probe["samples"]:
            setups.append(_setup_sample(probe))
        summary = {
            "summary": True,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "setup": setups,
            "trace": tracer.dump() if tracer is not None else None,
        }
        out.write(json.dumps(summary) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1], sys.argv[2]))
