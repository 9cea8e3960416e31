"""prmw benchmark: runs one workload and prints its metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload table --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --self-check

Load is a closed loop with one client: this script runs the jobs of a
workload one after another, each in a fresh interpreter (``child.py``),
because every user invocation pays the cold per-process set-up and
caches.  It repeats whole passes of the workload while another one fits
in ``--seconds`` (at least one) and checks every output (``checks.py``).
Each job of a pass is timed once per pass; the metrics take, for every
job, the median over the passes, so a burst of load from elsewhere on
the host spoils single jobs rather than whole passes, and then add the
jobs of a pass up:

    wall_s       wall time of the pass's jobs, spawn to exit
    cpu_s        user+sys CPU time of those processes
    setup_s      time from spawning each job until ``prmw`` is imported
    peak_rss_mb  largest max-RSS of any of the pass's processes

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (spans recorded in the child around
the calls into ``codes``, ``weights`` and ``geometry``; medians over the
traced passes), plus ``trace.overhead_s``, the traced minus the untraced
``wall_s``.
``geometry.incidence_tests`` is computed, not counted: the number of
subspaces of every dimension ``check_subspace_bounds`` tests, per call.

A job fails when it exits non-zero, outlives its time limit or its
output fails the check; ``failed`` over ``attempted`` in the last line
is the failed fraction.  No job is given ``--threads``.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from checks import Checker, instance_key, job_key

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# a job running longer than this is killed and counted as failed
JOB_TIMEOUT_S = 60.0
# no job runs past this point of a run, so every run ends well in time
RUN_DEADLINE_S = 150.0

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# name -> (unit, span, field); field 0 is calls, 1 seconds, 2 work count
LAYER_TOTALS = {
    "weights.report_s": ("s", "weights.report", 1),
    "weights.report_calls": ("count", "weights.report", 0),
    "weights.scanned": ("count", "weights.report", 2),
    "weights.support_s": ("s", "weights.support", 1),
    "weights.support_calls": ("count", "weights.support", 0),
    "geometry.bounds_s": ("s", "geometry.bounds", 1),
    "geometry.bounds_calls": ("count", "geometry.bounds", 0),
    "geometry.incidence_tests": ("count", "geometry.bounds", 2),
    "geometry.avoid_s": ("s", "geometry.avoid", 1),
    "geometry.avoid_calls": ("count", "geometry.avoid", 0),
    "geometry.union_s": ("s", "geometry.union", 1),
    "geometry.psupport_s": ("s", "geometry.psupport", 1),
    "codes.build_s": ("s", "codes.build", 1),
    "codes.build_calls": ("count", "codes.build", 0),
    "codes.cells": ("count", "codes.build", 2),
    "codes.serialize_s": ("s", "codes.serialize", 1),
}
# name -> (unit, work count, seconds)
LAYER_RATES = {
    "weights.scanned_per_s": ("1/s", "weights.scanned", "weights.report_s"),
    "geometry.incidence_tests_per_s": ("1/s", "geometry.incidence_tests", "geometry.bounds_s"),
    "codes.cells_per_s": ("1/s", "codes.cells", "codes.build_s"),
}
PER_LAYER = {
    **{name: unit for name, (unit, _, _) in LAYER_TOTALS.items()},
    **{name: unit for name, (unit, _, _) in LAYER_RATES.items()},
    "cli.main_s": "s",
    "cli.self_s": "s",
    "cli.invocations": "count",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


@dataclass
class JobResult:
    wall: float
    cpu: float
    rss_mb: float
    slot: str = ""
    setup: float | None = None
    main_s: float = 0.0
    layers: dict = field(default_factory=dict)
    rc: int | None = None
    out: str = ""
    problems: list[str] = field(default_factory=list)


def child_env() -> dict:
    # the default budget is the path users run, and like an installed
    # package the checkout's modules are imported from cached bytecode
    drop = ("PRMW_BUDGET", "PYTHONDONTWRITEBYTECODE")
    return {k: v for k, v in os.environ.items() if k not in drop}


def read_until_eof(proc: subprocess.Popen, deadline: float) -> tuple[bytes, bool]:
    """Everything the child writes to stdout; kills it at the deadline."""
    chunks = []
    fd = proc.stdout.fileno()
    with selectors.DefaultSelector() as sel:
        sel.register(fd, selectors.EVENT_READ)
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                proc.kill()
                return b"".join(chunks), True
            if sel.select(remaining):
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    return b"".join(chunks), False
                chunks.append(chunk)


def run_job(job: dict, trace: bool, checker: Checker | None, deadline: float) -> JobResult:
    """Run one job in a fresh interpreter and check its output."""
    timeout = min(JOB_TIMEOUT_S, deadline - time.monotonic())
    slot = workloads.job_slot(job)
    if timeout <= 0:
        return JobResult(0.0, 0.0, 0.0, slot, problems=["not started: run deadline reached"])
    spec = json.dumps({"src": str(SRC), "trace": trace, **job})
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), spec], stdout=subprocess.PIPE, env=child_env()
    )
    try:
        data, timed_out = read_until_eof(proc, t0 + timeout)
    except BaseException:
        proc.kill()
        raise
    finally:
        # reap it ourselves: wait4 is the only way to get its rusage
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.monotonic() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
    res = JobResult(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, slot, rc=proc.returncode)
    if timed_out:
        res.problems = [f"killed after {timeout:.1f} s"]
        return res
    try:
        envelope = json.loads(data.decode("utf-8").splitlines()[-1])
    except (IndexError, UnicodeDecodeError, json.JSONDecodeError):
        res.problems = [f"no result envelope, exit code {proc.returncode}"]
        return res
    res.setup = envelope["t_ready"] - t0
    res.main_s = envelope["main_s"]
    res.layers = envelope.get("layers", {})
    res.out = envelope["out"]
    if checker is not None:
        res.problems = checker.check(job, proc.returncode, res.out)
    return res


def run_pass(jobs: list[dict], trace: bool, checker: Checker, deadline: float) -> list[JobResult]:
    return [run_job(job, trace, checker, deadline) for job in jobs]


def e2e(passes: list[list[JobResult]]) -> dict[str, float]:
    """The end-to-end metrics of a pass, each job's figure being its
    median over ``passes``."""
    by_slot: dict[str, list[JobResult]] = {}
    for results in passes:
        for r in results:
            by_slot.setdefault(r.slot, []).append(r)
    jobs = by_slot.values()
    setups = [[r.setup for r in rs if r.setup is not None] for rs in jobs]
    return {
        "wall_s": sum(statistics.median(r.wall for r in rs) for rs in jobs),
        "cpu_s": sum(statistics.median(r.cpu for r in rs) for rs in jobs),
        "setup_s": sum(statistics.median(s) for s in setups if s),
        "peak_rss_mb": max(statistics.median(r.rss_mb for r in rs) for rs in jobs),
    }


def pass_layers(results: list[JobResult]) -> dict[str, float]:
    totals: dict[str, list] = {}
    for r in results:
        for span, vals in r.layers.items():
            acc = totals.setdefault(span, [0, 0.0, 0])
            for i, v in enumerate(vals):
                acc[i] += v
    out: dict[str, float] = {}
    for name, (_, span, i) in LAYER_TOTALS.items():
        out[name] = totals.get(span, [0, 0.0, 0])[i]
    for name, (_, work, secs) in LAYER_RATES.items():
        out[name] = out[work] / out[secs] if out[secs] > 0 else 0.0
    whole = e2e([results])
    main = sum(r.main_s for r in results)
    out["cli.main_s"] = main
    out["cli.self_s"] = main - sum(vals[1] for vals in totals.values())
    out["cli.invocations"] = len(results)
    out["trace.unattributed_s"] = whole["wall_s"] - whole["setup_s"] - main
    return out


def medians(samples: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def metrics(plain: list[list[JobResult]], traced: list[list[JobResult]]) -> dict[str, dict]:
    """The reported metrics: end-to-end ones from the untraced passes, or,
    when there are traced passes, the per-layer ones from those."""
    if not traced:
        values = e2e(plain)
        units = END_TO_END
    else:
        values = medians([pass_layers(p) for p in traced])
        values["trace.overhead_s"] = e2e(traced)["wall_s"] - e2e(plain)["wall_s"]
        units = PER_LAYER
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "prmw").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def stamp(args, passes: int) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": passes,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def run(args, golden: dict) -> int:
    checker = Checker(golden)
    rng = random.Random(args.seed)
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    # one import before timing, so the first pass does not also pay for
    # compiling the package's bytecode
    warm = run_job({"kind": "probe"}, False, None, deadline)
    if warm.rc != 0 or warm.setup is None:
        print(f"error: cannot import prmw from {SRC} (exit code {warm.rc})", file=sys.stderr)
        return 2
    plain: list[list[JobResult]] = []
    traced: list[list[JobResult]] = []
    # whole passes only, and none that would end past --seconds
    while True:
        jobs = workloads.pass_jobs(args.workload, rng)
        plain.append(run_pass(jobs, False, checker, deadline))
        if args.trace:
            traced.append(run_pass(jobs, True, checker, deadline))
        elapsed = time.monotonic() - start
        if elapsed * (len(plain) + 1) / len(plain) > args.seconds:
            break
    results = [r for p in plain + traced for r in p]
    failed = [r for r in results if r.problems]
    for r in failed:
        print("FAILED: " + "; ".join(r.problems), file=sys.stderr)
    if all(r.setup is None for r in results):
        print("error: no job produced a result", file=sys.stderr)
        return 1
    report = metrics(plain, traced)
    print(json.dumps({"stamp": stamp(args, len(plain) + len(traced))}))
    for name, m in report.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"samples: per-job medians over {len(traced or plain)} passes")
    print(f"failed_frac = {len(failed)}/{len(results)}")
    result = {"correct": not failed, "attempted": len(results), "failed": len(failed), "metrics": report}
    print(json.dumps(result))
    return 0


def self_check(golden: dict) -> int:
    """One small job of each kind: outputs pass, every metric named in
    BENCHMARK.json is emitted with its unit, corrupted golden entries
    and a wrong witness are reported as failures, and every golden
    weight distribution small enough agrees with naive_weight_counts."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    checker = Checker(golden)
    deadline = time.monotonic() + RUN_DEADLINE_S
    errors = []
    smoke = dict(workloads.SMOKE)
    smoke["witness"] = workloads.witness_job(3, 3, workloads.random_quadric(3, 3, random.Random(0)))
    runs = {}
    for name, job in smoke.items():
        plain = [run_job(job, False, checker, deadline)]
        traced = [run_job(job, True, checker, deadline)]
        runs[name] = plain[0]
        for r in plain + traced:
            errors += [f"{name}: {p}" for p in r.problems]
        for trace, report in ((0, metrics([plain], [])), (1, metrics([plain], [traced]))):
            emitted = {k: m["unit"] for k, m in report.items()}
            if emitted != declared[trace]:
                errors.append(f"{name}: trace {trace} emits {emitted}, BENCHMARK.json has {declared[trace]}")

    bad = copy.deepcopy(golden)
    bad["table"][job_key(smoke["binary-table"]["argv"])][0]["w2_brute"] += 1
    bad["table"][job_key(smoke["qary-table"]["argv"])][-1]["w1_brute"] += 1
    bad["verify"][job_key(smoke["verify"]["argv"])][0]["detail"] += " corrupted"
    bad["construct"][instance_key(*smoke["construct"]["cases"][0])]["rows_sha256"] = "0" * 64
    bad_checker = Checker(bad)
    wrong_quadric = dict(smoke["witness"], quadric=[(c + 1) % 3 for c in smoke["witness"]["quadric"]])
    for name, job in list(smoke.items())[:-1] + [("witness", wrong_quadric)]:
        if not bad_checker.check(job, runs[name].rc, runs[name].out):
            errors.append(f"{name}: corrupted golden entry not reported")

    from prmw import CodeParams, build, naive_weight_counts

    crossed = 0
    for key, entry in golden["weights"].items():
        family, *rest = key.split()
        q, n, d = (int(t.split("=")[1]) for t in rest)
        if q ** entry["dimension"] <= 1 << 16:
            code = build(CodeParams(family, q, n, d))
            naive = {str(w): c for w, c in naive_weight_counts(code).items()}
            crossed += 1
            if naive != entry["counts"]:
                errors.append(f"golden weights of {key} disagree with naive_weight_counts")
    for e in errors:
        print("SELF-CHECK FAILED: " + e, file=sys.stderr)
    print(f"self-check: {len(smoke)} jobs, {crossed} golden distributions cross-checked, "
          f"{len(errors)} problems")
    return 1 if errors else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "prmw" / "__init__.py").is_file():
        print(f"error: no prmw package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the checks parse bitdumps with prmw itself
    golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
    if args.self_check:
        return self_check(golden)
    if args.workload is None:
        ap.error("--workload is required")
    return run(args, golden)


if __name__ == "__main__":
    sys.exit(main())
