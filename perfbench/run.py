"""Extraction benchmark of fetch_engines_ray; the choices behind it are in ``perfbench/METRICS.md``.

Run from the repository root::

    python3 perfbench/run.py --workload extract --seed 1 --seconds 12 --trace 0

Load: a closed loop of one batch job at a time, submitted from this
driver process to a local Ray started with ``num_cpus=4``; the next job
starts only after the previous job's output parquet is fully written.
Every output is checked against an oracle that runs ``DocumentExtractor``
directly on the same seeded rows.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
separate traced run and prints the per-layer metrics.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted`` (documents), ``failed`` (documents missing or wrong in an
output) and ``metrics``.  Everything the run writes lives under
``.pbwork/`` in the repository and is removed at exit; traced runs keep
their spans in ``.pbtraces/``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".pbwork")
TRACES = os.path.join(ROOT, ".pbtraces")

NUM_CPUS = 4
N_DOCS = 2000  # v1 corpus size: its input bytes vary about 1/sqrt(N_DOCS) from seed to seed
ROWS_PER_FILE = 50  # 40 input files: enough read tasks to balance 4 CPUs
WARM_ROWS_PER_FILE = 64  # the set-up warm slice: 4 files of v1's first rows
SETUPS = 2  # set-ups per untraced run; setup_s is their median
MIN_QUALITY = 9  # escalates 6-9 % of the docs; the default 3 escalates none, 10 all
UDF_SAMPLE = 640  # docs in the in-process UDF split: 10 batches
OBJECT_STORE_BYTES = 512 * 2**20
IDLE_WORKER_KEEP_MS = 600_000  # longer than any run: the worker pool stays warm
# AF_UNIX socket paths are limited to 107 bytes; Ray puts its sockets at
# <temp dir>/session_YYYY-MM-DD_hh-mm-ss_uuuuuu_<pid up to 7 digits>/sockets/plasma_store
_RAY_SOCKET_SUFFIX = 64


def _seconds_since_process_start() -> float:
    with open("/proc/self/stat", "rb") as f:
        start_ticks = int(f.read().rsplit(b")", 1)[1].split()[19])
    with open("/proc/uptime") as f:
        uptime = float(f.read().split()[0])
    return uptime - start_ticks / os.sysconf("SC_CLK_TCK")


def _parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=("extract", "refresh"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


ARGS = _parse_args() if __name__ == "__main__" else None  # before the slow imports below
sys.path.insert(0, ROOT)  # fetch_engines_ray and perfbench live at the repository root

import ray  # noqa: E402
import ray.data  # noqa: E402

from fetch_engines_ray.arrowclean import read_parquet_clean  # noqa: E402
from fetch_engines_ray.pipelines.extract import (  # noqa: E402
    PipelineConfig,
    extract_corpus,
    refresh_extract,
)
from perfbench import layers  # noqa: E402
from perfbench.corpus import (  # noqa: E402
    count_wrong,
    escalation_oracle,
    extract_signatures,
    read_signatures,
    snapshots,
    write_corpus,
)
from perfbench.proctree import ProcessTree  # noqa: E402
from perfbench.spans import NoTracer, Tracer  # noqa: E402

CFG = PipelineConfig()


@dataclass
class Inputs:
    """One seed's corpora on disk and the oracle signatures of each output."""

    v1: list
    v2: list
    fresh: list
    v1_dir: str
    v2_dir: str
    warm_dir: str
    prev_dir: str = ""
    expected: dict = field(default_factory=dict)  # workload -> {doc_id: signature}


def make_inputs(seed: int) -> Inputs:
    v1, v2, fresh = snapshots(seed, N_DOCS)
    return Inputs(
        v1,
        v2,
        fresh,
        write_corpus(v1, os.path.join(WORK, "v1"), ROWS_PER_FILE),
        write_corpus(v2, os.path.join(WORK, "v2"), ROWS_PER_FILE),
        write_corpus(v1[: 4 * WARM_ROWS_PER_FILE], os.path.join(WORK, "warm"), WARM_ROWS_PER_FILE),
    )


def add_oracles(inp: Inputs, workloads) -> None:
    """Oracle signatures for ``workloads``; the refresh oracle also writes
    the previous run's output (the extraction of v1) that refresh reuses."""
    inp.prev_dir = os.path.join(WORK, "prev") if "refresh" in workloads else ""
    v1 = extract_signatures(inp.v1, out_dir=inp.prev_dir or None)
    inp.expected["extract"] = v1
    if "refresh" in workloads:
        fresh = extract_signatures(inp.fresh)
        inp.expected["refresh"] = {r["doc_id"]: fresh.get(r["doc_id"]) or v1[r["doc_id"]] for r in inp.v2}


def job_extract(inp: Inputs, out: str, tracer) -> None:
    with tracer.span("job.extract"):
        extract_corpus(inp.v1_dir, CFG).write_parquet(out)


def job_refresh(inp: Inputs, out: str, tracer) -> dict:
    with tracer.span("job.refresh"):
        with tracer.span("refresh.detect_s"):
            ds, stats = refresh_extract(inp.v1_dir, inp.v2_dir, read_parquet_clean(inp.prev_dir), CFG)
        with tracer.span("refresh.apply_s"):
            ds.write_parquet(out)
    return stats


JOBS = {"extract": job_extract, "refresh": job_refresh}


def prepare_work() -> str:
    """Empty the work directory and point every temp dir into it.
    Returns Ray's temp dir: the work directory, unless the checkout path
    is too long for Ray's sockets."""
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    ray_tmp = WORK
    if len(ray_tmp) + _RAY_SOCKET_SUFFIX > 107:
        ray_tmp = tempfile.mkdtemp(prefix="pb")
    tempfile.tempdir = WORK
    os.environ["TMPDIR"] = WORK
    os.environ["RAY_TMPDIR"] = ray_tmp
    os.environ["FER_CHECKPOINT_DIR"] = os.path.join(WORK, "checkpoints")
    return ray_tmp


def start_ray() -> None:
    pythonpath = os.pathsep.join(p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=OBJECT_STORE_BYTES,
        _system_config={
            # Ray kills workers idle for 1 s beyond its soft limit; the output
            # check between jobs idles them, and the next job restarted and
            # re-imported them, which cost up to half of a refresh job's CPU
            "idle_worker_killing_time_threshold_ms": IDLE_WORKER_KEEP_MS,
        },
        _temp_dir=os.environ["RAY_TMPDIR"],
        # workers import fetch_engines_ray and perfbench whatever their cwd
        runtime_env={"env_vars": {"PYTHONPATH": pythonpath}},
    )
    ray.data.DataContext.get_current().enable_progress_bars = False


def stop_ray(tree: ProcessTree) -> None:
    """Shut Ray down and wait until every process it started has ended."""
    ray.shutdown()
    killed = tree.stop_descendants()
    if killed:
        print(f"killed processes left after ray.shutdown(): {killed}", file=sys.stderr)


_outputs = itertools.count()


def new_dir() -> str:
    """A fresh path under the work directory for one output."""
    return os.path.join(WORK, f"out-{next(_outputs)}")


def setup(inp: Inputs, since_start: float) -> float:
    """Seconds from process start until Ray is up and an untimed
    extraction slice has warmed every worker.  The driver's own imports
    happen once, so each set-up counts them once."""
    t0 = time.perf_counter()
    start_ray()
    extract_corpus(inp.warm_dir, CFG).write_parquet(new_dir())
    return since_start + time.perf_counter() - t0


class Checks:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, docs: int, wrong: int) -> None:
        self.attempted += docs
        self.failed += wrong


def run_job(name: str, inp: Inputs, tracer, checks: Checks, tree: ProcessTree):
    """One checked job.  Returns ``(wall s, CPU s, job result)``; a job that
    raised fails all its docs and returns ``None``."""
    out = new_dir()
    expected = inp.expected[name]
    cpu0, t0 = tree.cpu_seconds(), time.perf_counter()
    try:
        result = JOBS[name](inp, out, tracer)
    except Exception:  # a failed job is a measured outcome, not a crash
        traceback.print_exc()
        checks.add(len(expected), len(expected))
        return None
    wall, cpu = time.perf_counter() - t0, tree.cpu_seconds() - cpu0
    checks.add(len(expected), count_wrong(read_signatures(out), expected))
    shutil.rmtree(out)
    return wall, cpu, result


def timed_jobs(name: str, inp: Inputs, seconds: float, checks: Checks, tree: ProcessTree) -> list:
    """``(wall s, CPU s)`` of the checked jobs run back to back for
    ``seconds``; there is always at least one job that did not raise.
    A warm-up job, checked but not timed, runs first: the first job of
    a fresh Ray session grows the worker pool to the job's shape and
    runs up to twice as long."""
    run_job(name, inp, NoTracer(), checks, tree)
    jobs: list = []
    end = time.perf_counter() + seconds
    while not jobs or time.perf_counter() < end:
        done = run_job(name, inp, NoTracer(), checks, tree)
        if done is not None:
            jobs.append(done[:2])
        elif not jobs and time.perf_counter() >= end:
            raise RuntimeError(f"every {name} job failed")
    return jobs


def untraced(args, since_start: float, tree: ProcessTree):
    inp = make_inputs(args.seed)
    checks, setups, sessions = Checks(), [], []
    for i in range(SETUPS):
        if i:
            stop_ray(tree)
        setups.append(setup(inp, since_start))
        if not i:
            add_oracles(inp, [args.workload])
        # each Ray session runs its share of the jobs: the level of one
        # session (worker placement, host state) then weighs 1/SETUPS
        sessions.append(timed_jobs(args.workload, inp, args.seconds / SETUPS, checks, tree))
    n_docs = len(inp.expected[args.workload])
    walls = [wall for jobs in sessions for wall, _cpu in jobs]
    cpus = [1000.0 * cpu / n_docs for jobs in sessions for _wall, cpu in jobs]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "docs_per_s": (statistics.median(n_docs / w for w in walls), "docs/s"),
        "cpu_s_per_kdoc": (statistics.median(cpus), "CPU-s/kdoc"),
    }
    report = {
        "jobs": len(walls),
        "docs_per_job": n_docs,
        "setup_runs": len(setups),
        "failed_frac": {"value": checks.failed / checks.attempted, "unit": "ratio"},
        "wall_s_per_job": [[wall for wall, _cpu in jobs] for jobs in sessions],
        "cpu_s_per_kdoc_per_job": cpus,
    }
    return checks, metrics, report


def traced(args, since_start: float, tree: ProcessTree):
    inp = make_inputs(args.seed)
    setup(inp, since_start)
    add_oracles(inp, list(JOBS))
    expected_rerun = escalation_oracle(inp.v1, inp.expected["extract"], MIN_QUALITY)
    checks = Checks()
    tracer = Tracer(f"{args.workload}-seed{args.seed}-ray")

    # the traced job runs between two untraced ones, so drift over the run cancels
    jobs = [run_job(args.workload, inp, t, checks, tree) for t in (NoTracer(), tracer, NoTracer())]
    if None in jobs:
        raise RuntimeError(f"the {args.workload} job failed")
    traced_job = jobs[1]
    metrics = {
        "trace.wall_s": (traced_job[0], "s"),
        "trace.overhead_s": (traced_job[0] - (jobs[0][0] + jobs[2][0]) / 2, "s"),
    }
    refresh = traced_job if args.workload == "refresh" else run_job("refresh", inp, tracer, checks, tree)
    if refresh is None:
        raise RuntimeError("the refresh job failed")
    reextracted = refresh[2]["reextracted"]
    metrics["refresh.detect_s"] = (tracer.total("refresh.detect_s"), "s")
    metrics["refresh.apply_s"] = (tracer.total("refresh.apply_s"), "s")
    metrics["refresh.reextracted"] = (reextracted, "count")
    metrics["refresh.reuse_frac"] = (1 - reextracted / len(inp.v2), "ratio")

    found, wrong = layers.escalation(CFG, inp.v1_dir, MIN_QUALITY, new_dir, tracer, expected_rerun)
    metrics.update(found)
    checks.add(len(expected_rerun), wrong)
    found, wrong = layers.pipeline_stages(CFG, inp.v1_dir, new_dir, tracer, inp.expected["extract"])
    metrics.update(found)
    checks.add(len(inp.v1), wrong)
    found, udf_tracer = layers.udf_split(CFG, inp.v1, args.seed, UDF_SAMPLE, f"{args.workload}-seed{args.seed}-udf")
    metrics.update(found)

    os.makedirs(TRACES, exist_ok=True)
    with open(os.path.join(TRACES, f"{args.workload}-seed{args.seed}.jsonl"), "w") as fh:
        tracer.dump(fh)
        udf_tracer.dump(fh)
    return checks, metrics, {"spans": len(tracer.spans) + len(udf_tracer.spans)}


def main(args) -> None:
    since_start = _seconds_since_process_start()
    ray_tmp = prepare_work()
    with ProcessTree() as tree:
        try:
            checks, metrics, report = (traced if args.trace else untraced)(args, since_start, tree)
        finally:
            stop_ray(tree)
            shutil.rmtree(WORK, ignore_errors=True)
            shutil.rmtree(ray_tmp, ignore_errors=True)
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace, **report, "metrics": metrics}))
    print(
        json.dumps(
            {
                "correct": checks.failed == 0,
                "attempted": checks.attempted,
                "failed": checks.failed,
                "metrics": metrics,
            }
        ),
        flush=True,
    )


if __name__ == "__main__":
    main(ARGS)
