"""solvco benchmark.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout: solvco is imported from ./src, never from
an installed copy.  One thread, one client in a closed loop: each job
starts when the previous one has ended.  Jobs go through
solvco.cli.run_command, or, for cold jobs, through `python -m solvco.cli`
subprocesses run one at a time.

An untraced run is made by WORKERS fresh interpreters, one after another,
each with its own fixed hash seed.  Each repeats the set-up (at least
SETUP_MIN_REPEATS times), then runs whole passes over the workload's fixed
job list for its share of --seconds.  A job's time is its median over all
passes, the set-up time the median over all set-ups.  Times are scaled to
a reference host speed measured beside the jobs (speed.py), because the
shared host's own speed drifts by more than the bounds.  With --trace 1 a
single process runs timed passes and then one pass with spans around
solvco's public functions, and reports per-layer metrics instead of
end-to-end ones.  Every output is checked against an independent oracle
after the timed region.  The last line of standard output is one JSON
object; the exit code is 1 when any check failed and 2 when solvco cannot
be found.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
LAUNCHER = HERE / "launcher.py"

import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 1
HOLDOUT_SEED = 20261017  # for validating a claim on inputs it was not tuned on
SETUP_MIN_REPEATS, SETUP_MAX_REPEATS, SETUP_BUDGET_S = 1, 10, 1.0  # per process
CHILD_TIMEOUT_S = 40
WORKER_TIMEOUT_S = 55  # WORKERS of them stay within the run's 180 s
# The untraced run is split between WORKERS interpreters, each with a fixed
# hash seed of its own: a process's hash seed and memory layout move every
# job in it by up to 15% together, so a run in one process is one draw of
# that; the same few draws in every run average it out of the comparison.
WORKERS = 3
perf = time.perf_counter
SAMPLER = speed.Sampler()


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def set_up(name, seed, workdir):
    """Fresh import of solvco, seeded inputs written to workdir, each file
    parsed once (which runs the Jacobi check).  Returns (Timed, import
    seconds, workload)."""
    for mod in [m for m in sys.modules if m == "solvco" or m.startswith("solvco.")]:
        del sys.modules[mod]
    busy = SAMPLER.busy
    start = perf()
    importlib.import_module("solvco")
    importlib.import_module("solvco.cli")
    imported = perf()
    wl = workloads.build(name, seed, workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    for path, text in wl.files.items():
        Path(path).write_text(text, encoding="utf-8")
    files = sys.modules["solvco.files"]
    for path in wl.structures:
        files.parse_structure_file(Path(path).read_text(encoding="utf-8"))
    for path in wl.matrices:
        files.parse_matrix(Path(path).read_text(encoding="utf-8"))
    return Timed(perf() - start - (SAMPLER.busy - busy), start), imported - start, wl


# ---------------------------------------------------------------------------
# executing one job
# ---------------------------------------------------------------------------

class Timed(NamedTuple):
    seconds: float  # wall time, less the speed sampler's time in this process
    start: float


class Outcome(NamedTuple):
    seconds: float  # wall time, less the speed sampler's time in this process
    start: float
    codes: list
    texts: list
    error: Optional[str]


def run_in_process(job):
    run_command = sys.modules["solvco.cli"].run_command
    # start every job from the same collector state, as a fresh CLI process would
    gc.collect()
    codes, texts, error = [], [], None
    busy = SAMPLER.busy
    start = perf()
    try:
        for argv, out in job.steps:
            code, text = run_command(argv)
            if out:
                with open(out, "w", encoding="utf-8") as handle:
                    handle.write(text + "\n")
            codes.append(code)
            texts.append(text)
    except Exception:  # a traceback is a failed job, not a failed benchmark
        error = traceback.format_exc(limit=4)
    return Outcome(perf() - start - (SAMPLER.busy - busy), start, codes, texts, error)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_subprocess(job, env, spans_prefix=None):
    """Each step is one fresh interpreter; output files are written by the
    parent as a shell redirection would.  With spans_prefix the child runs
    through the tracing launcher."""
    with SAMPLER.around_child():
        return _run_steps(job, env, spans_prefix)


def _run_steps(job, env, spans_prefix):
    codes, texts, error = [], [], None
    start = perf()
    for step, (argv, out) in enumerate(job.steps):
        if spans_prefix is None:
            cmd = [sys.executable, "-m", "solvco.cli", *argv]
        else:
            cmd = [sys.executable, str(LAUNCHER), str(SRC), f"{spans_prefix}-{step}.json", *argv]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            error = f"timed out after {CHILD_TIMEOUT_S} s: {argv}"
            break
        if out:
            with open(out, "w", encoding="utf-8") as handle:
                handle.write(proc.stdout)
        codes.append(proc.returncode)
        texts.append(proc.stdout[:-1] if proc.stdout.endswith("\n") else proc.stdout)
        if "Traceback (most recent call last)" in proc.stderr:
            error = proc.stderr[-2000:]
            break
    return Outcome(perf() - start, start, codes, texts, error)


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def timed_passes(jobs, execute, seconds):
    """Whole passes, as many as fit in `seconds`: another pass starts only
    if it is expected to end less than half a pass after the deadline."""
    passes = []
    start = perf()
    while True:
        began = perf()
        passes.append([execute(job) for job in jobs])
        now = perf()
        if now + (now - began) / 2 >= start + seconds:
            return passes


def traced_pass(jobs, env, workdir):
    """One pass with spans.  In-process jobs run under wrappers installed
    here; cold children write their spans through the launcher and the
    parent merges them, re-basing parent indices and tagging each span with
    its job id.  Returns (outcomes, tracer, children's import seconds)."""
    tracer = tracing.Tracer()
    tracing.install(tracer)
    import_s = 0.0
    outcomes = []
    for job_id, job in enumerate(jobs):
        tracer.job = job_id
        if not job.cold:
            outcomes.append(run_in_process(job))
            continue
        prefix = workdir / f"spans-{job_id}"
        outcomes.append(run_subprocess(job, env, spans_prefix=prefix))
        for step in range(len(job.steps)):
            path = Path(f"{prefix}-{step}.json")
            if not path.exists():
                continue
            data = json.loads(path.read_text(encoding="utf-8"))
            base = len(tracer.spans)
            for name, start, end, parent, _ in data["spans"]:
                tracer.spans.append([name, start, end, parent + base if parent >= 0 else -1, job_id])
            for key, value in data["counts"].items():
                if key == "matrices.kernel_max_bits":
                    tracer.maximum(key, value)
                else:
                    tracer.add(key, value)
            import_s += data["import_s"]
    return outcomes, tracer, import_s


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_all(jobs, passes, oracle=True):
    """(attempted, failed, reasons).  Every execution must exit as expected,
    raise nothing and print what the first pass printed; with `oracle` the
    first pass's output is checked by the oracle once per job."""
    verdict = []
    for j, job in enumerate(jobs):
        first = passes[0][j]
        reason = None
        if oracle and first.error is None and len(first.texts) == len(job.steps):
            try:
                reason = job.check(first.texts)
            except Exception:  # an unparsable output is a wrong output
                reason = "output could not be checked: " + traceback.format_exc(limit=2)
        verdict.append(reason)
    attempted, failed, reasons = 0, 0, []
    for p, outcomes in enumerate(passes):
        for j, (job, got) in enumerate(zip(jobs, outcomes)):
            attempted += 1
            first = passes[0][j]
            if got.error is not None:
                why = f"raised: {got.error.strip().splitlines()[-1]}"
            elif len(got.codes) != len(job.steps) or any(got.codes[:-1]) \
                    or got.codes[-1] not in job.codes:
                why = f"exit codes {got.codes}, expected last in {job.codes}"
            elif got.texts != first.texts or got.codes != first.codes:
                why = "output differs from the first pass"
            else:
                why = verdict[j]
            if why is not None:
                failed += 1
                reasons.append(f"pass {p} job {j} ({job.kind}): {why}")
    return attempted, failed, reasons


def digest(outcomes):
    """One fingerprint of a pass's exit codes and outputs."""
    text = json.dumps([[o.codes, o.texts] for o in outcomes])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def at_reference_speed(outcome):
    return outcome.seconds * SAMPLER.scale(outcome.start, outcome.start + outcome.seconds)


def end_to_end(passes, setup_s, rss_mb):
    """`passes` and `setup_s` in seconds at the reference speed.  Each job's
    time is its median over the passes; the pass time is the sum of those,
    and the percentiles are taken across the job list."""
    n = len(passes[0])
    per_job = [statistics.median(p[j] for p in passes) for j in range(n)]
    ms = [t * 1000.0 for t in per_job]
    p90 = statistics.quantiles(ms, n=10, method="inclusive")[8] if n > 1 else ms[0]
    return {
        "jobs_per_s": (n / sum(per_job), "1/s"),
        "job_ms.p50": (statistics.median(ms), "ms"),
        "job_ms.p90": (p90, "ms"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(tracer, import_s, child_import_s, traced_s, untraced_s):
    summary = tracer.summary()
    out = {}
    for name in tracing.SPAN_NAMES:
        calls, self_s, _ = summary.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_s"] = (self_s, "s")
    # first-load verification runs below catalog_get, so its self time misses it
    out["catalog.catalog_get.total_s"] = (summary.get("catalog.catalog_get", (0, 0.0, 0.0))[2], "s")
    for name in tracing.COUNT_NAMES:
        out[name] = (tracer.counts.get(name, 0), "bits" if name.endswith("bits") else "count")
    built = tracer.counts.get("cohomology.forms_built", 0)
    needed = tracer.counts.get("cohomology.forms_needed", 0)
    out["cohomology.forms_useful_frac"] = (needed / built if built else 0.0, "ratio")
    count_s = summary.get("trace.count", (0, 0.0, 0.0))[1]
    layer_s = sum(v[1] for k, v in summary.items()
                  if k.startswith("matrices.") or k.startswith("cohomology."))
    out["process.import_s"] = (import_s, "s")
    out["process.child_import_s"] = (child_import_s, "s")
    out["trace.pass_s"] = (traced_s, "s")
    out["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "ratio")
    out["trace.matrices_cohomology_frac"] = (layer_s / (traced_s - count_s), "ratio")
    return out


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


# ---------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",),
                        help="one workload, or `all` to run each in turn and print one table")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", type=int, default=-1, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run_all(args):
    """Each workload in its own interpreter; a table of every metric, with
    workload-qualified names in the last JSON line."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        if not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        for line in lines[:-1]:
            print(line if line.startswith("#") else f"{name}\t{line}")
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            total["metrics"][f"{name}.{key}"] = value
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "solvco" / "__init__.py").is_file():
        print(f"error: no solvco package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    # workers share their parent's directory, so that outputs naming a file
    # read the same in every worker
    owner = os.getppid() if args.worker >= 0 else os.getpid()
    workdir = OUT / f"{args.workload}-s{args.seed}-{owner}"
    try:
        if args.worker >= 0:
            print(json.dumps(sample(args, workdir, oracle=args.worker == 0)))
            return 0
        provenance = {
            "python": sys.version.split()[0],
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg_start": os.getloadavg(),
            "git_commit": git_commit(),
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
        }
        return (measure_traced if args.trace else measure)(args, workdir, provenance)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def sample(args, workdir, oracle=True, traced=False):
    """In this process: the set-up repeats, timed passes for about
    args.seconds with the speed sampler running, and with `traced` one
    traced pass.  Returns what the report needs, times in seconds at the
    reference speed, as plain data."""
    SAMPLER.start()
    try:
        setups = []
        while len(setups) < SETUP_MIN_REPEATS or (
                len(setups) < SETUP_MAX_REPEATS
                and sum(s.seconds for s, _, _ in setups) < SETUP_BUDGET_S):
            setups.append(set_up(args.workload, args.seed, workdir))
        jobs = setups[-1][2].jobs
        env = child_env()
        passes = timed_passes(
            jobs, lambda job: run_subprocess(job, env) if job.cold else run_in_process(job),
            args.seconds)
    finally:
        SAMPLER.stop()
    # the workload process, or for cold jobs the largest child
    who = resource.RUSAGE_CHILDREN if any(job.cold for job in jobs) else resource.RUSAGE_SELF
    data = {
        "solvco_version": sys.modules["solvco"].__version__,
        "hash_seed": os.environ.get("PYTHONHASHSEED", "random"),
        "import_s": statistics.median(i for _, i, _ in setups),
        "setup_s": [at_reference_speed(t) for t, _, _ in setups],
        "setup_s_raw": [t.seconds for t, _, _ in setups],
        "job_s": [[at_reference_speed(o) for o in p] for p in passes],
        "job_s_raw": [[o.seconds for o in p] for p in passes],
        "rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "calibration_median_s": SAMPLER.median_s(),
        "digest": digest(passes[0]),
    }
    checked = passes
    if traced:
        outcomes, tracer, child_import_s = traced_pass(jobs, env, workdir)
        checked = passes + [outcomes]
        data.update(traced_s=sum(o.seconds for o in outcomes), tracer=tracer,
                    child_import_s=child_import_s)
    data["attempted"], data["failed"], data["reasons"] = check_all(jobs, checked, oracle)
    data["jobs_per_pass"] = len(jobs)
    return data


def run_worker(args, k):
    """One worker interpreter with hash seed k + 1; returns its data, or
    raises with its error output."""
    env = dict(os.environ, PYTHONHASHSEED=str(k + 1))
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds / WORKERS),
           "--trace", "0", "--worker", str(k)]
    # a session of its own, so that a timeout also ends the worker's children
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"worker {k} timed out after {WORKER_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:  # interrupted: end the whole session
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(err[-4000:])
        raise RuntimeError(f"worker {k} exited with {proc.returncode}")
    return json.loads(lines[-1])


def measure(args, workdir, provenance):
    """The untraced run: WORKERS fresh interpreters one after another, each
    with a fixed hash seed of its own, split --seconds between them; every
    job's time is its median over all their passes."""
    runs = [run_worker(args, k) for k in range(WORKERS)]
    passes = [p for r in runs for p in r["job_s"]]
    metrics = end_to_end(passes, [t for r in runs for t in r["setup_s"]],
                         max(r["rss_mb"] for r in runs))
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    reasons = [f"worker {k} {why}" for k, r in enumerate(runs) for why in r["reasons"]]
    for k, r in enumerate(runs[1:], start=1):
        if r["digest"] != runs[0]["digest"]:
            failed += 1
            reasons.append(f"worker {k}: outputs differ from worker 0's")
    provenance.update(
        solvco_version=runs[0]["solvco_version"],
        workers=[{key: r[key] for key in ("hash_seed", "calibration_median_s", "import_s",
                                          "setup_s", "setup_s_raw", "job_s", "job_s_raw",
                                          "rss_mb")} for r in runs],
        calibration_median_s=statistics.median(r["calibration_median_s"] for r in runs),
        passes=len(passes), jobs_per_pass=runs[0]["jobs_per_pass"])
    return report(args, provenance, metrics, attempted, failed, reasons)


def measure_traced(args, workdir, provenance):
    """The traced run, in this process: timed passes for trace.overhead_frac,
    then one pass with spans."""
    data = sample(args, workdir, traced=True)
    tracer = data["tracer"]
    untraced_s = statistics.median(sum(p) for p in data["job_s_raw"])
    metrics = per_layer(tracer, data["import_s"], data["child_import_s"],
                        data["traced_s"], untraced_s)
    spans_path = OUT / f"spans-{args.workload}-s{args.seed}-t1.json"
    OUT.mkdir(parents=True, exist_ok=True)
    spans_path.write_text(json.dumps(tracer.spans), encoding="utf-8")
    provenance.update(solvco_version=data["solvco_version"],
                      calibration_median_s=data["calibration_median_s"],
                      passes=len(data["job_s"]), jobs_per_pass=data["jobs_per_pass"],
                      spans_file=str(spans_path.relative_to(ROOT)))
    return report(args, provenance, metrics, data["attempted"], data["failed"], data["reasons"])


def report(args, provenance, metrics, attempted, failed, reasons):
    """Writes the result file and prints the table and the JSON line."""
    provenance["loadavg_end"] = os.getloadavg()
    provenance["calibration_reference_s"] = speed.REFERENCE_S
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    record = dict(result, provenance=provenance, fail_frac=failed / attempted,
                  failures=reasons[:50])
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"# {args.workload} seed={args.seed} passes={provenance['passes']}"
          f" jobs/pass={provenance['jobs_per_pass']}"
          f" python={provenance['python']} nproc={provenance['nproc']}"
          f" load={provenance['loadavg_start'][0]:.2f}->{provenance['loadavg_end'][0]:.2f}"
          f" calibration={provenance['calibration_median_s'] * 1000:.3f}ms"
          f" (reference {speed.REFERENCE_S * 1000:g}ms)")
    for reason in reasons[:10]:
        print(f"# FAIL {reason}")
    if not args.trace:
        print(f"# samples={provenance['passes'] * provenance['jobs_per_pass']}")
    for name, (value, unit) in metrics.items():
        print(f"{name}\t{value:.6g}\t{unit}")
    print(f"fail_frac\t{failed / attempted:.6g}\tratio")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
