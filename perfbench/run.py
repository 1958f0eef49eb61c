"""locdim benchmark: three closed-loop, single-client workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/`` and
the CLI is launched as ``python -m locdim.cli`` with ``PYTHONPATH=src``, so
no installed copy is ever used. Workloads:

* ``md-search``: in-process metric-dimension questions (mostly ``resolving``).
* ``loc-game``: in-process localization-game questions (mostly ``game``).
* ``cli-build``: one CLI process at a time (start-up, large graph builds,
  JSON output and the ``Budget`` contract).

Each job starts only after the previous one returns. A round is the
workload's job list; rounds repeat until ``--seconds`` of job time has been
measured (at least one round). Every answer is checked after its round,
outside the timed region; a job that raises, answers wrongly or exits with
the wrong code counts as failed.

Timing: the process pins itself and its children to one CPU and runs a fixed
speed probe before every job and after the last. Reported times are scaled
to a reference speed by the probes next to each job; the unscaled figures
are printed on the line before the result. On a shared 2-CPU machine the
unscaled time of the same work swings by a third within seconds.

Output: with ``--trace 0`` the last line holds the end-to-end metrics:
``setup_s`` (median over fresh processes that import locdim and generate the
inputs), ``wall_s`` (median round time), ``jobs_per_s``, ``job_p50_s`` and
``job_p90_s`` (over all timed jobs), ``peak_rss_mb`` (this process, or the
largest CLI child for cli-build) and ``ok_frac`` (correct answers over
attempted jobs). With ``--trace 1`` each round runs untraced and then traced
on the same inputs, and the last line holds the per-layer metrics of
``summarize.PER_LAYER`` from the traced rounds; the spans are kept in memory
and written to ``perfbench/.runs/<workload>-seed<N>-trace/trace.json``.

Caches: every run gets a fresh ``LOCDIM_CACHE_DIR`` under ``perfbench/.runs``,
so the gadget cache is cold when timing starts and the first ``hyper cover``
of a run searches for the gadget. ``gf``'s ``lru_cache`` is cold at the first
in-process round and warm after it; every CLI job starts a fresh process, so
it is always cold there.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import spans  # noqa: E402
import summarize  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("md-search", "loc-game", "cli-build")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("jobs_per_s", "1/s"),
              ("job_p50_s", "s"), ("job_p90_s", "s"), ("peak_rss_mb", "MB"),
              ("ok_frac", "ratio"))
SETUP_PROBES = 7
STARTUP_PROBES = 5

# The speed of a shared machine swings by a third within seconds. Each job is
# therefore scaled by the speed probes taken next to it: a scaled time is the
# time the job would take on a machine where one probe takes
# REFERENCE_PROBE_S.
PROBE_ITERATIONS = 20_000
REFERENCE_PROBE_S = 0.010
clock = spans.clock


class SetupError(Exception):
    pass


def _import_locdim(cli: bool):
    if not os.path.isfile(os.path.join(SRC, "locdim", "__init__.py")):
        raise SetupError(f"no locdim source tree under {SRC}")
    sys.path.insert(0, SRC)
    import locdim
    if not os.path.abspath(locdim.__file__).startswith(SRC + os.sep):
        raise SetupError(f"locdim imported from {locdim.__file__}, not {SRC}")
    if cli:
        import locdim.cli  # noqa: F401
    return locdim


def setup(workload: str, seed: int, run_dir: str):
    """Everything before the first timed job: import and input generation."""
    L = _import_locdim(cli=workload == "cli-build")
    if workload == "md-search":
        return workloads.md_search(L, seed)
    if workload == "loc-game":
        return workloads.loc_game(L, seed)
    art_dir = os.path.join(run_dir, "inputs")
    os.makedirs(art_dir, exist_ok=True)
    return workloads.cli_build(seed, art_dir)


def _timed_process(argv, cwd, env=None) -> float:
    t0 = clock()
    subprocess.run(argv, cwd=cwd, env=env, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return clock() - t0


class InProcess:
    def __init__(self, tracer: spans.Tracer) -> None:
        self.tracer = tracer

    def run(self, job, traced: bool):
        budget = job.budget() if job.budget else None
        tr = self.tracer
        if traced:
            span = tr.open_job()
        t0 = clock()
        try:
            answer, err = job.run(budget), None
        except Exception as exc:  # a failed job is counted, not fatal
            answer, err = None, f"{job.name}: raised {exc!r}"
        dt = clock() - t0
        if traced:
            tr.close(span)
            if budget is not None:
                tr.add("budget.jobs", 1)
                tr.add("budget.nodes", budget.nodes)
                tr.add("budget.exhausted", int(budget.nodes > budget.max_nodes))
        return dt, answer, err

    def finish(self, job, answer, err):
        return err or job.check(answer)


class Cli:
    def __init__(self, tracer: spans.Tracer, run_dir: str) -> None:
        self.tracer = tracer
        self.run_dir = run_dir
        self.out_dir = os.path.join(run_dir, "out")
        os.makedirs(self.out_dir, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=SRC,
                        LOCDIM_CACHE_DIR=os.path.join(run_dir, "cache"))
        self.count = 0

    def run(self, job, traced: bool):
        self.count += 1
        out = os.path.join(self.out_dir, f"{self.count}.json")
        span_file = os.path.join(self.out_dir, f"{self.count}.spans.json")
        if traced:
            argv = [sys.executable, os.path.join(HERE, "launcher.py"), span_file]
        else:
            argv = [sys.executable, "-m", "locdim.cli"]
        argv += job.argv + ["--out", out]
        tr = self.tracer
        if traced:
            job_span = tr.open_job()
            proc_span = tr.open("cli.proc")
        t0 = clock()
        proc = subprocess.run(argv, cwd=self.run_dir, env=self.env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        dt = clock() - t0
        if traced:
            tr.close(proc_span)
            tr.close(job_span)
            if os.path.exists(span_file):
                with open(span_file, encoding="ascii") as fh:
                    tr.merge(json.load(fh), proc_span)
                os.remove(span_file)
            budgeted = any(a.startswith("--budget") for a in job.argv)
            if budgeted:
                tr.add("budget.jobs", 1)
                tr.add("budget.exhausted", int(proc.returncode == 2))
            if job.cap_s is not None:
                tr.add("budget.overshoot_s", dt - job.cap_s)
            if os.path.exists(out):
                tr.add("cli.artifact_bytes", os.path.getsize(out))
        return dt, (proc.returncode, out, proc.stderr), None

    def finish(self, job, answer, err):
        code, out, stderr = answer
        if code != job.exit_code:
            tail = stderr.decode(errors="replace").strip().splitlines()[-1:]
            return f"{job.name}: exit {code}, expected {job.exit_code} {tail}"
        try:
            with open(out, encoding="ascii") as fh:
                art = json.load(fh)
        except (OSError, ValueError) as exc:
            return f"{job.name}: no readable artifact ({exc})"
        os.remove(out)
        try:
            return job.check(art)
        except (KeyError, TypeError) as exc:
            return f"{job.name}: artifact lacks {exc}"


def speed_probe() -> float:
    """Seconds for a fixed slice of interpreter work (tuple keys, dict and
    frozenset updates, like locdim's inner loops)."""
    t0 = clock()
    d: dict = {}
    for i in range(PROBE_ITERATIONS):
        key = (i % 97, i % 89)
        s = d.get(key)
        d[key] = frozenset((i & 63,)) if s is None else s | {i & 63}
    return clock() - t0


def _scale(raw: float, probes) -> float:
    return raw * REFERENCE_PROBE_S / statistics.fmean(probes)


class Times:
    """Measured times, raw and scaled to the reference speed."""

    def __init__(self) -> None:
        self.raw: list[float] = []
        self.scaled: list[float] = []

    def add(self, raw: float, scaled: float) -> None:
        self.raw.append(raw)
        self.scaled.append(scaled)


def run_round(runner, jobs, traced, job_times: Times, errors) -> tuple[float, float]:
    """Runs the jobs back to back, with a speed probe before each job and
    after the last, and checks the answers afterwards. Returns the round's
    job time, raw and scaled; probe time is not counted in it."""
    probes = [(clock(), speed_probe())]  # (started at, seconds)
    results = []
    for job in jobs:
        start = clock()
        results.append((start,) + runner.run(job, traced))
        probes.append((clock(), speed_probe()))
    raw_sum = scaled_sum = 0.0
    for j, (job, (start, dt, answer, err)) in enumerate(zip(jobs, results)):
        # The probes on either side of the job, widened on each side by the
        # job's own duration, so that a long job is scaled by the mean speed
        # around it rather than by two instants.
        lo, hi = j, j + 1
        while lo > 0 and probes[lo - 1][0] >= start - dt:
            lo -= 1
        while hi + 1 < len(probes) and probes[hi + 1][0] <= start + 2 * dt:
            hi += 1
        scaled = _scale(dt, [p for _, p in probes[lo:hi + 1]])
        job_times.add(dt, scaled)
        raw_sum += dt
        scaled_sum += scaled
        msg = runner.finish(job, answer, err)
        if msg:
            errors.append(msg)
    return raw_sum, scaled_sum


def _summary(setup: Times, rounds: Times, jobs: Times, scaled: bool) -> dict:
    pick = (lambda t: t.scaled) if scaled else (lambda t: t.raw)
    times = pick(jobs)
    return {
        "setup_s": statistics.median(pick(setup)),
        "wall_s": statistics.median(pick(rounds)),
        "jobs_per_s": len(times) / sum(pick(rounds)),
        "job_p50_s": statistics.median(times),
        "job_p90_s": statistics.quantiles(times, n=10, method="inclusive")[8],
    }


def measure(args, run_dir: str) -> dict:
    rounds = setup(args.workload, args.seed, run_dir)
    # One CPU for this process and every child, so that the speed probes
    # measure the CPU the jobs run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    setup_times = Times()
    for _ in range(SETUP_PROBES):
        before = speed_probe()
        dt = _timed_process([sys.executable, os.path.abspath(__file__),
                             "--setup-probe", "--workload", args.workload,
                             "--seed", str(args.seed)], cwd=ROOT)
        setup_times.add(dt, _scale(dt, (before, speed_probe())))
    tracer = spans.Tracer()
    runner = (Cli(tracer, run_dir) if args.workload == "cli-build"
              else InProcess(tracer))
    import locdim

    plain, traced, job_times, errors = Times(), Times(), Times(), []
    r = 0
    while sum(plain.raw) + sum(traced.raw) < args.seconds or not plain.raw:
        jobs = rounds[r % len(rounds)]
        plain.add(*run_round(runner, jobs, False, job_times, errors))
        if args.trace:
            if isinstance(runner, InProcess):
                tracer.install(locdim)
            try:
                traced.add(*run_round(runner, jobs, True, Times(), errors))
            finally:
                tracer.uninstall()
        r += 1

    attempted = len(job_times.raw) * (2 if args.trace else 1)
    for msg in errors[:20]:
        print(f"FAILED {msg}", file=sys.stderr)
    raw = _summary(setup_times, plain, job_times, scaled=False)
    print(f"{args.workload} seed={args.seed}: {len(plain.raw)} rounds, "
          f"{len(job_times.raw)} timed jobs, {len(errors)} failed; unscaled: "
          + ", ".join(f"{k}={v:.4g}" for k, v in raw.items()))
    if args.trace:
        env = dict(os.environ, PYTHONPATH=SRC)
        startup = statistics.median(
            _timed_process([sys.executable, "-c", "import locdim.cli"],
                           cwd=run_dir, env=env)
            for _ in range(STARTUP_PROBES))
        overhead = statistics.median(
            t - p for t, p in zip(traced.scaled, plain.scaled))
        path = os.path.join(run_dir, "trace.json")
        tracer.dump(path, workload=args.workload, seed=args.seed,
                    rounds=len(traced.raw), overhead_s=overhead,
                    cli_startup_s=startup)
        with open(path, encoding="ascii") as fh:
            values = summarize.layer_metrics(json.load(fh))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _, _ in summarize.PER_LAYER}
    else:
        who = (resource.RUSAGE_CHILDREN if args.workload == "cli-build"
               else resource.RUSAGE_SELF)
        values = _summary(setup_times, plain, job_times, scaled=True)
        values["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024  # KiB
        values["ok_frac"] = (attempted - len(errors)) / attempted
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    return {"correct": not errors, "attempted": attempted,
            "failed": len(errors), "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    suffix = "-probe" if args.setup_probe else "-trace" if args.trace else ""
    run_dir = os.path.join(HERE, ".runs", f"{args.workload}-seed{args.seed}{suffix}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        if args.setup_probe:
            setup(args.workload, args.seed, run_dir)
            return 0
        result = measure(args, run_dir)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
