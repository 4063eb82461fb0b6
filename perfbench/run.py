"""schur-orbits benchmark: fixed mixes of CLI jobs, each in a fresh
`python -m schur_orbits.cli` process with the CLI's default flags.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
its src/ directory.  Workloads are defined in perfbench/workloads.py
and explained in perfbench/NOTES.md.

--trace 0 measures the end-to-end metrics.  The job mix runs once with
a cold private cache (wall_s), then once more against the cache it
filled (warm_wall_s, printed only).  A set-up round times
`group-info --no-cache` on each of the workload's groups.  Rounds run
before the mix, after each cold job and after the warm pass until they
have taken S seconds together.  setup_s sums, over the groups, each
group's median time over the rounds.

--trace 1 runs the mix once untraced and then every job of the set-up
round, the cold pass and the warm pass through perfbench/trace_job.py,
and reports the per-layer metrics and the tracing overhead.

Every answer is checked against the workload's expected answer, and
every warm report against its cold report byte for byte.  The last
line of output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import workloads
import layers

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_JOB = Path(__file__).resolve().parent / "trace_job.py"
WORK_ROOT = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"

RUN_DEADLINE_S = 170.0

LIMITS = [
    "no hardware counters are read",
    "no system-wide tracing: spans come from wrappers in the benchmark's "
    "own traced entry point, around calls into each module",
    "RSS is ru_maxrss of the benchmark's own child processes only",
    "byte figures (fastorbits.array_bytes) are computed from array sizes, "
    "not measured",
    "hot-call times are thread CPU time; span times are wall time",
]


class BenchError(RuntimeError):
    pass


@dataclass
class Outcome:
    """One finished CLI process."""
    wall_s: float
    rss_kib: int
    code: int
    report: bytes
    spans: dict | None = None


@dataclass
class JobResult:
    job: workloads.Job
    cold: Outcome
    warm: list  # the warm pass's Outcome, when the job was replayed
    errors: list = field(default_factory=list)  # messages
    wrong: bool = False  # an output was wrong, not just missing

    @property
    def failed(self):
        return bool(self.errors)

    def fail(self, message, wrong=True):
        self.errors.append(message)
        self.wrong |= wrong


class Runner:
    """Starts CLI processes against the checkout's src/ and keeps every
    file they write under one work directory."""

    def __init__(self, workload, seed, deadline):
        if not (SRC / "schur_orbits" / "cli.py").is_file():
            raise BenchError(f"no schur_orbits sources under {SRC}")
        self.groups, self.jobs = workloads.build(workload, seed)
        self.deadline = deadline
        self.work = WORK_ROOT / f"{workload}-{seed}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.env = dict(os.environ)
        self.env.pop("SCHUR_ORBITS_CACHE", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.group_files = {}
        for name, G in self.groups.items():
            path = self.work / f"group-{name}.json"
            path.write_text(json.dumps(G.spec()))
            self.group_files[name] = path
        self._n = 0

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()  # only when no other run is using it
        except OSError:
            pass

    def new_cache(self):
        self._n += 1
        return self.work / f"cache-{self._n}"

    def run(self, command, group, args, cache=None, traced=False):
        """Run one CLI job to completion; cache=None means --no-cache."""
        self._n += 1
        out = self.work / f"report-{self._n}.json"
        spans = self.work / f"spans-{self._n}.json"
        err = self.work / f"stderr-{self._n}.txt"
        cli_args = [command, "--group", str(self.group_files[group]), *args,
                    "--out", str(out)]
        cli_args += ["--no-cache"] if cache is None else ["--cache-dir", str(cache)]
        head = ([sys.executable, str(TRACE_JOB), str(spans)] if traced
                else [sys.executable, "-m", "schur_orbits.cli"])
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run deadline passed")
        with open(err, "wb") as errf:
            t0 = time.perf_counter()
            proc = subprocess.Popen(head + cli_args, env=self.env, cwd=self.work,
                                    stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=errf)
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if code < 0:
            raise BenchError(f"{command} on {group} killed by signal {-code} "
                             "(run deadline)")
        report = out.read_bytes() if out.exists() else b""
        trace = None
        if traced:
            if not spans.exists():
                raise BenchError(f"traced {command} on {group} wrote no spans: "
                                 f"{err.read_text()[-2000:]}")
            trace = json.loads(spans.read_text())
        return Outcome(wall, usage.ru_maxrss, code, report, trace)

    def run_job(self, job, cache, traced=False):
        return self.run(job.command, job.group, list(job.args), cache, traced)

    def warm_up(self):
        """One untimed job, so that bytecode is compiled before timing."""
        self.run("group-info", next(iter(self.groups)), [])

    def setup_round(self, traced=False):
        """group-info --no-cache on each group; checks each answer."""
        outs = []
        for name in sorted(self.groups):
            o = self.run("group-info", name, [], traced=traced)
            order = len(workloads.bfs_elements(self.groups[name].generators)[0])
            if o.code != 0 or (_report(o) or {}).get("order") != order:
                raise BenchError(f"group-info on {name} failed: exit {o.code}")
            outs.append(o)
        return outs

    def mix(self, traced=False, warm=True, between=None):
        """A cold pass with a fresh cache, then, if warm, one warm pass
        against the cache it filled.  between() runs after each cold
        job.  A job that failed in the cold pass left nothing in the
        cache, so the warm pass does not replay it."""
        cache = self.new_cache()
        results = []
        for j in self.jobs:
            results.append(JobResult(j, self.run_job(j, cache, traced), []))
            if between:
                between()
        if warm:
            for r in results:
                if r.cold.code == 0:
                    r.warm.append(self.run_job(r.job, cache, traced))
        for r in results:
            _check(r)
        return results


def _report(o):
    """The job's JSON report, or None when it wrote none that parses."""
    try:
        return json.loads(o.report)
    except ValueError:
        return None


def _error_kind(o):
    """The error kind a failed job's report names, or None."""
    return ((_report(o) or {}).get("error") or {}).get("kind")


def _check(r):
    """Record why a job failed: a nonzero exit, a wrong answer, or a
    warm report that differs from the cold one.  Every failure is a
    wrong result except the job's known defect: a nonzero exit with the
    error kind the job is marked with."""
    report, kind = _report(r.cold), _error_kind(r.cold)
    if r.cold.code != 0:
        known = kind is not None and kind == r.job.known_failure
        r.fail(f"exit {r.cold.code} ({kind or 'no error kind'})", wrong=not known)
    if report is None:
        if r.cold.code == 0:
            r.fail("exit 0 without a JSON report")
    elif kind is None:
        wrong = workloads.check(r.job, report)
        if wrong:
            r.fail("wrong answer: " + "; ".join(wrong))
    for w in r.warm:
        if w.code != 0:
            r.fail(f"warm exit {w.code} ({_error_kind(w) or 'no error kind'})")
        elif w.report != r.cold.report:
            r.fail("warm report differs from cold report")


def git_sha():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(args, runner):
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "not installed"
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "threads": os.cpu_count() or 1,  # the CLI's --threads default
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "generators": {n: [list(p) for p in G.generators]
                       for n, G in sorted(runner.groups.items())},
        "jobs": [[j.key, j.command, j.group, *j.args] for j in runner.jobs],
        "limits": LIMITS,
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def setup_time(rounds):
    """Set-up time of the workload: the sum over its groups of each
    group's median group-info time over the rounds."""
    return sum(statistics.median(times) for times in zip(*rounds))


def measure(runner, seconds):
    """The cold pass and one warm pass, with set-up rounds spread
    through the run: one before the cold pass, one after each cold job,
    and more after the warm pass until the rounds have taken the given
    seconds together."""
    runner.warm_up()
    setup = []  # group-info wall times of each round, one per group

    def setup_round():
        setup.append([o.wall_s for o in runner.setup_round()])

    setup_round()
    results = runner.mix(between=setup_round)
    while sum(map(sum, setup)) < seconds:
        setup_round()
    cold = sum(r.cold.wall_s for r in results)
    rss = max(o.rss_kib for r in results for o in [r.cold, *r.warm])
    metrics = {
        "wall_s": _metric(cold, "s"),
        "peak_rss_mib": _metric(rss / 1024, "MiB"),
        "setup_s": _metric(setup_time(setup), "s"),
    }
    # printed, not in BENCHMARK.json: see NOTES.md
    extra = {}
    if any(r.warm for r in results):
        extra["warm_wall_s"] = _metric(
            sum(o.wall_s for r in results for o in r.warm), "s")
    tuples = sum(r.job.tuples for r in results)
    if tuples:
        t_wall = sum(r.cold.wall_s for r in results if r.job.tuples)
        extra["tuples_per_s"] = _metric(tuples / t_wall, "tuples/s")
    extra["failed_ratio"] = _metric(
        sum(r.failed for r in results) / len(results), "1")
    detail = {"setup_rounds_s": setup,
              "jobs": [{"job": r.job.key, "cold_s": r.cold.wall_s,
                        "warm_s": [o.wall_s for o in r.warm],
                        "rss_mib": max(o.rss_kib for o in [r.cold, *r.warm]) / 1024}
                       for r in results]}
    return metrics, extra, results, detail


def measure_traced(runner):
    """Untraced cold pass, then traced set-up round, cold and warm."""
    runner.warm_up()
    plain = runner.mix(warm=False)
    setup = runner.setup_round(traced=True)
    traced = runner.mix(traced=True)
    for p, t in zip(plain, traced):
        if p.cold.report != t.cold.report:
            t.fail("traced report differs from untraced report")
    jobs = [("setup", None, o) for o in setup]
    for r in traced:
        jobs += [("cold", r.job, r.cold)] + [("warm", r.job, o) for o in r.warm]
    traces = [layers.JobTrace(o.spans, o.wall_s) for _, _, o in jobs]
    overhead = (sum(r.cold.wall_s for r in traced)
                - sum(r.cold.wall_s for r in plain))
    metrics = layers.per_layer_metrics(
        [(jt, o.code, len(o.report)) for jt, (_, _, o) in zip(traces, jobs)],
        overhead)
    per_job = [{"phase": ph, "job": job.key if job else "group-info",
                **jt.breakdown()} for jt, (ph, job, _) in zip(traces, jobs)]
    spans = [{"phase": ph, "job": job.key if job else "group-info",
              "wall_s": o.wall_s, **o.spans} for ph, job, o in jobs]
    return metrics, traced, {"jobs": per_job}, spans


def print_summary(workload, metrics, results):
    for name, m in metrics.items():
        print(f"{workload:>16}  {name:<44} {m['value']:>14.6g} {m['unit']}")
    for r in results:
        if r.failed:
            print(f"{workload:>16}  FAILED {r.job.key}: {'; '.join(r.errors)}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="set-up rounds run until they have taken this long")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        runner = Runner(args.workload, args.seed, deadline)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            metrics, results, detail, spans = measure_traced(runner)
            OUT_DIR.mkdir(exist_ok=True)
            trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            trace_file.write_text(json.dumps(spans))
            detail["trace_file"] = str(trace_file.relative_to(ROOT))
            extra = {}
        else:
            metrics, extra, results, detail = measure(runner, args.seconds)
        env = environment(args, runner)
    except (BenchError, layers.AccountingError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 3
    finally:
        runner.close()
    print_summary(args.workload, {**metrics, **extra}, results)
    failures = [{"job": r.job.key, "errors": r.errors} for r in results if r.failed]
    print(json.dumps({"environment": env, "reported_only": extra,
                      "failures": failures, **detail}))
    print(json.dumps({
        "correct": not any(r.wrong for r in results),
        "attempted": len(results),
        "failed": sum(r.failed for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
