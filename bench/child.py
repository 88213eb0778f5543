"""One benchmark run in a fresh interpreter: set up, run the workload once, report.

    python bench/child.py JOB.json RESULT.json

JOB.json names the workload, its inputs and whether to trace.  The child
times its set-up (importing specgap plus the first call's lazy set-up) and
the timed region separately, and writes what the run produced to
RESULT.json; the parent checks those outputs.  With tracing off it installs
no wrapper and reports that none is installed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time


def _cli(argv: list[str]) -> dict:
    """specgap.cli.main with its standard output captured."""
    from specgap import cli as cli_mod

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_mod.main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue()}


def setup_import(job: dict) -> None:
    import specgap  # noqa: F401


def run_census(job: dict) -> dict:
    return {"calls": [_cli([
        "census", "--file", job["g6"], "--out", job["out"],
        "--threads", str(job["threads"]), "--chunk-size", str(job["chunk_size"]),
    ])]}


def setup_canon(job: dict) -> None:
    # builds the order-7 and order-8 bit-action tables on one-graph inputs
    from specgap import census, graphs

    census.extend_census([graphs.path(6)])
    census.extend_census([graphs.path(7)])


def run_canon(job: dict) -> dict:
    from specgap import census

    order7 = sorted(census.enumerate_connected(7), key=lambda g: g.bits)
    sample = [order7[i] for i in job["sample"]]
    order8 = census.extend_census(sample)
    return {"enumerated": [g.bits for g in order7],
            "sample": [g.bits for g in sample],
            "extended": [g.bits for g in order8]}


def run_verify(job: dict) -> dict:
    return {"calls": [
        _cli(["verify", "--check", check, "--order", "8",
                         "--file", job["g6"]])
        for check in job["checks"]
    ]}


def peak_rss_mb() -> float:
    """This process's peak resident set (VmHWM).

    getrusage's ru_maxrss is not used: after a vfork and exec it can still
    hold the parent's peak.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


WORKLOADS = {
    "census": (setup_import, run_census),
    "canon": (setup_canon, run_canon),
    "verify": (setup_import, run_verify),
}


def main(job_path: str, result_path: str) -> None:
    with open(job_path) as fh:
        job = json.load(fh)
    setup, run = WORKLOADS[job["kind"]]

    t0 = time.perf_counter()
    setup(job)
    setup_s = time.perf_counter() - t0

    import specgap
    import spans

    if not os.path.realpath(specgap.__file__).startswith(job["src"]):
        raise RuntimeError(f"imported specgap from {specgap.__file__}, "
                           f"not from {job['src']}")
    tracer = spans.Tracer() if job["trace"] else None
    uninstall = spans.install(tracer) if tracer else None
    wrapped = spans.installed()

    if tracer:
        tracer.start()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    outputs = run(job)
    wall_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0
    records = None
    if tracer:
        tracer.stop()
        wall_s = tracer.spans[0].total
        records = tracer.records()
        uninstall()

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb(),
        "traced": bool(job["trace"]),
        "wrapped": wrapped,
        "spans": records,
        "outputs": outputs,
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
