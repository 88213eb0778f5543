"""specgap benchmark: one command for every workload and metric.

    python3 bench/run.py --workload census-file-9 --seed 90125 --seconds 30 --trace 0
    python3 bench/run.py --workload all --trace 1 --out result.json

Builds each workload's inputs once per seed (outside every metric), then
starts fresh child interpreters one at a time (bench/child.py), each doing
one full run, until --seconds have passed.  Every run's outputs are checked
against independent oracles.  With --trace 0 it reports the end-to-end
metrics of BENCHMARK.json (medians over the runs); with --trace 1 it
alternates untraced and traced runs and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  --out writes the full result (every sample,
quartiles, checks, inputs and the environment) as JSON.
"""

from __future__ import annotations

import argparse
import compileall
import csv
import functools
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import inputs
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CACHE = ROOT / ".bench_cache"
CENSUS8 = ROOT / "tests" / "data" / "connected8.g6"
DEFAULT_SEED = 90125  # the seed of the order-9 acceptance test
CHILD_TIMEOUT_S = 170.0

CENSUS_THREADS = 1
CENSUS_CHUNK = 2048
CANON_SAMPLE = 32  # order-7 classes extended per run: 32 * 127 candidates
VERIFY_SUITES = {  # check -> (checked, skipped) over connected8.g6
    "prop2a": (11096, 21),
    "bipartite-bound": (178, 10939),
    "vertex-add": (11117, 0),
    "classical": (5, 0),
}


class BenchError(RuntimeError):
    """The benchmark could not run (missing sources, a child crashed)."""


@dataclass
class Checks:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)


# ---------------------------------------------------------------------------
# workloads: inputs, work units, output checks


def prepare_census(seed: int) -> tuple[dict, dict]:
    info = inputs.census9_input(CACHE, seed)
    job = {"kind": "census", "g6": info["path"], "threads": CENSUS_THREADS,
           "chunk_size": CENSUS_CHUNK}
    return job, info


def check_census(job: dict, outputs: dict, info: dict, checks: Checks) -> None:
    call = outputs["calls"][0]
    checks.expect(call["exit"] == 0, f"census exit code {call['exit']}")
    first = call["stdout"].split("\n", 1)[0].split()
    fields = dict(zip(first[::2], first[1::2]))
    checks.expect(fields.get("count") == str(info["connected"]),
                  f"census count {fields.get('count')} != {info['connected']}")
    checks.expect(fields.get("rejected_disconnected") == str(info["disconnected"]),
                  f"rejected_disconnected {fields.get('rejected_disconnected')}"
                  f" != {info['disconnected']}")
    out = Path(job["out"])
    try:
        with open(out / "stats.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        checks.expect(False, f"stats.csv unreadable: {exc}")
        rows = []
    attempted, problems = inputs.check_census_stats(rows, info["table"])
    checks.attempted += attempted
    checks.failures.extend(problems)
    for name in inputs.INDEX_NAMES:
        try:
            with open(out / f"hist_{name}.csv", newline="") as fh:
                total = sum(int(r["count"]) for r in csv.DictReader(fh))
        except (OSError, KeyError, ValueError) as exc:
            total = f"unreadable ({exc})"
        checks.expect(total == info["connected"],
                      f"hist_{name}.csv holds {total} graphs")


@functools.cache
def census8_deletions() -> tuple[list[bytes], np.ndarray]:
    return inputs.order8_deletion_classes(CACHE, CENSUS8)


def prepare_canon(seed: int) -> tuple[dict, dict]:
    census8_deletions()
    sample = inputs.canon_sample(seed, CANON_SAMPLE)
    job = {"kind": "canon", "sample": sample}
    info = {"order7_positions": sample,
            "candidates": CANON_SAMPLE * ((1 << 7) - 1),
            "reference": str(CENSUS8.relative_to(ROOT))}
    return job, info


def check_canon(job: dict, outputs: dict, info: dict, checks: Checks) -> None:
    order7 = np.asarray(outputs["enumerated"], dtype=np.uint64)
    checks.expect(order7.size == 853,
                  f"enumerate_connected(7) gave {order7.size} graphs")
    checks.expect(np.unique(inputs.canonical(7, order7)).size == order7.size,
                  "enumerate_connected(7) repeated a class")
    checks.expect(bool(inputs.connected(7, order7).all()),
                  "enumerate_connected(7) gave a disconnected graph")
    masks = np.asarray(outputs["extended"], dtype=np.uint64)
    lines = inputs.encode_g6(8, masks).split()
    checks.expect(len(set(lines)) == len(lines), "extend_census repeated a class")
    expected = inputs.expected_extensions(*census8_deletions(), outputs["sample"])
    for line in lines:
        checks.expect(line in expected, f"{line.decode()} is not a class of "
                      f"{info['reference']} that extends the sample")
    missing = len(expected - set(lines))
    checks.expect(missing == 0, f"extend_census missed {missing} classes")


def prepare_verify(seed: int) -> tuple[dict, dict]:
    job = {"kind": "verify", "g6": str(CENSUS8), "checks": list(VERIFY_SUITES)}
    info = {"path": str(CENSUS8.relative_to(ROOT)), "graphs": 11117,
            "suites": list(VERIFY_SUITES)}
    return job, info


def check_verify(job: dict, outputs: dict, info: dict, checks: Checks) -> None:
    for check, call in zip(VERIFY_SUITES, outputs["calls"]):
        checks.expect(call["exit"] == 0, f"verify {check} exit {call['exit']}")
        want = VERIFY_SUITES[check]
        line = f"{check} PASS checked {want[0]} skipped {want[1]}"
        checks.expect(call["stdout"].splitlines()[:1] == [line],
                      f"verify {check} printed {call['stdout']!r}, not {line!r}")


@dataclass(frozen=True)
class Workload:
    prepare: Callable[[int], tuple[dict, dict]]
    check: Callable[[dict, dict, dict, Checks], None]
    units: int  # work units of one run, for graphs_per_s
    needs: tuple[Path, ...] = ()


WORKLOADS = {
    "census-file-9": Workload(prepare_census, check_census, inputs.CENSUS9_COUNT),
    "canon-7-8": Workload(prepare_canon, check_canon,
                          853 + CANON_SAMPLE * ((1 << 7) - 1), (CENSUS8,)),
    "verify-8": Workload(prepare_verify, check_verify,
                         11117 * len(VERIFY_SUITES), (CENSUS8,)),
}


# ---------------------------------------------------------------------------
# child runs


def run_child(job: dict, workdir: Path, deadline: float) -> dict:
    job_path = workdir / "job.json"
    result_path = workdir / "result.json"
    job_path.write_text(json.dumps(job))
    result_path.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    timeout = max(5.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "child.py"),
             str(job_path), str(result_path)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{job['kind']} run exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0 or not result_path.exists():
        raise BenchError(f"{job['kind']} run exited {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    result = json.loads(result_path.read_text())
    if job["trace"] != bool(result["wrapped"]):
        raise BenchError(f"trace={job['trace']} run had wrappers "
                         f"{result['wrapped'][:5]}")
    return result


def measure(name: str, seed: int, seconds: float, trace: bool,
            deadline: float) -> dict:
    wl = WORKLOADS[name]
    job, info = wl.prepare(seed)
    job["src"] = os.path.realpath(SRC)
    checks = Checks()
    runs: list[dict] = []
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=CACHE))
    try:
        start = time.monotonic()
        last: dict[bool, float] = {}
        while True:
            traced = trace and len(runs) % 2 == 1
            job["trace"] = traced
            job["out"] = str(workdir / "out")
            t0 = time.monotonic()
            result = run_child(job, workdir, deadline)
            last[traced] = time.monotonic() - t0
            wl.check(job, result["outputs"], info, checks)
            shutil.rmtree(workdir / "out", ignore_errors=True)
            result.pop("outputs")
            runs.append(result)
            next_traced = trace and len(runs) % 2 == 1
            done = not trace or len(runs) >= 2
            upcoming = last.get(next_traced, last[traced])
            if done and time.monotonic() - start + upcoming > seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"info": info, "checks": checks, "runs": runs,
            "units": wl.units}


# ---------------------------------------------------------------------------
# metrics


def summary(samples: list[float], unit: str) -> dict:
    q = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    return {"value": statistics.median(samples), "unit": unit,
            "n": len(samples), "q1": q[0], "q3": q[2], "samples": samples}


def end_to_end_samples(runs: list[dict], units: int) -> dict[str, list[float]]:
    plain = [r for r in runs if not r["traced"]]
    return {
        "wall_s": [r["wall_s"] for r in plain],
        "graphs_per_s": [units / r["wall_s"] for r in plain],
        "setup_s": [r["setup_s"] for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }


USEFUL = {  # span -> (useful counter, attempted counter)
    "census.Graph6Source": ("yielded", "read"),
    "census.extend_census": ("classes", "candidates"),
}


def layer_value(name: str, table: dict[str, dict[str, float]]) -> float:
    """<span>.<stat>: calls, s, self_s, a counter, useful_ratio or
    <counter>_per_s.  A span the workload never reached reads 0."""
    base, stat = name.rsplit(".", 1)
    if base not in spans.SPAN_NAMES and not base.startswith("verify.run_check."):
        raise KeyError(f"per-layer metric {name!r} names no traced span")
    row = table.get(base, {})
    if stat == "useful_ratio":
        useful, attempted = USEFUL[base]
        return row[useful] / row[attempted] if row.get(attempted) else 0.0
    if stat.endswith("_per_s"):
        work = row.get(stat[:-len("_per_s")], 0)
        return work / row["s"] if work else 0.0
    return float(row.get(stat, 0))


def per_layer_samples(runs: list[dict], names: list[str]) -> dict[str, list[float]]:
    plain = [r for r in runs if not r["traced"]]
    traced = [r for r in runs if r["traced"]]
    out: dict[str, list[float]] = {n: [] for n in names}
    for r in traced:
        table = spans.layer_table(r["spans"])
        root = r["spans"][0]
        total_self = sum(s["self_s"] for s in r["spans"])
        if abs(total_self - root["s"]) > 1e-6 * max(1.0, root["s"]):
            raise BenchError(f"self times sum to {total_self}, run took {root['s']}")
        for n in names:
            if n not in ("cpu_s", "trace_overhead_s"):
                out[n].append(layer_value(n, table))
    if "cpu_s" in out:
        out["cpu_s"] = [r["cpu_s"] for r in plain]
    if "trace_overhead_s" in out:
        out["trace_overhead_s"] = [
            statistics.median(r["wall_s"] for r in traced)
            - statistics.median(r["wall_s"] for r in plain)]
    return out


# ---------------------------------------------------------------------------
# environment


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    sources = sorted((SRC / "specgap").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:  # numpy < 1.26 prints instead
        deps = {}
    keep = ("name", "version", "openblas configuration")
    linalg = {k: {f: v.get(f) for f in keep} for k, v in deps.items()
              if k in ("blas", "lapack")}
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": linalg.get("blas"),
        "lapack": linalg.get("lapack"),
        "blas_threads": 1,
        "census_threads": CENSUS_THREADS,
        "chunk_size": CENSUS_CHUNK,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


# ---------------------------------------------------------------------------


def parse_args(argv: list[str] | None, spec: dict) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   help="a workload name, a comma-separated list, or 'all': "
                        + ", ".join(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, default=None,
                   help="write the full result as JSON here")
    args = p.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else args.workload.split(",")
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        p.error(f"unknown workload(s) {unknown}; choose from {list(WORKLOADS)}")
    args.names = names
    return args


def main(argv: list[str] | None = None) -> int:
    started = time.monotonic()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, spec)
    missing = [p for p in [SRC / "specgap" / "__init__.py"]
               + [n for w in args.names for n in WORKLOADS[w].needs]
               if not p.is_file()]
    if missing:
        raise BenchError("missing " + ", ".join(map(str, missing)))
    CACHE.mkdir(exist_ok=True)
    # compile once here, so no child's setup_s includes writing bytecode
    compileall.compile_dir(str(SRC / "specgap"), quiet=1)
    deadline = started + CHILD_TIMEOUT_S * len(args.names)
    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}

    env = environment()
    report = {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "env": env, "workloads": {}}
    attempted = failed = 0
    final: dict[str, dict] = {}
    for name in args.names:
        m = measure(name, args.seed, args.seconds, bool(args.trace), deadline)
        checks = m["checks"]
        samples = end_to_end_samples(m["runs"], m["units"])
        groups = {"end_to_end": {x["name"]: summary(samples[x["name"]], x["unit"])
                                 for x in spec["end_to_end"]}}
        if args.trace:
            samples = per_layer_samples(m["runs"], list(units))
            groups["per_layer"] = {k: summary(samples[k], u)
                                   for k, u in units.items()}
        metrics = groups[group]
        share = len(checks.failures) / checks.attempted
        report["workloads"][name] = {
            "input": m["info"], "units_per_run": m["units"],
            "runs": len(m["runs"]),
            "checks": {"attempted": checks.attempted,
                       "failed": len(checks.failures), "failed_share": share,
                       "failures": checks.failures[:50]},
            **groups,
        }
        attempted += checks.attempted
        failed += len(checks.failures)
        print(f"# {name} seed {args.seed}: {len(m['runs'])} runs, "
              f"failed_share {share:g} of {checks.attempted} checks")
        for failure in checks.failures[:10]:
            print(f"#   FAIL {failure}")
        for k, s in metrics.items():
            print(f"#   {k:45s} {s['value']:14.6g} {s['unit']:6s} "
                  f"n={s['n']} q1={s['q1']:.6g} q3={s['q3']:.6g}")
        prefix = f"{name}." if len(args.names) > 1 else ""
        final.update({prefix + k: {"value": s["value"], "unit": s["unit"]}
                      for k, s in metrics.items()})
    print(f"# env {json.dumps(env, sort_keys=True)}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": final}))
    return 0


if __name__ == "__main__":
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps
    # the running child and the work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        sys.exit(main())
    except (BenchError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
