"""affdim benchmark: time to a checked CLI result, per workload.

Run from the repository root:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 10 --trace 0

Each workload is a closed loop with one client: its jobs run one at a time,
each as a fresh ``python -m affdim.cli`` child, and the next starts when the
previous one has exited.  After one untimed warm-up pass (bytecode and file
cache), timed passes repeat until ``--seconds`` have been measured.  Every
job's output is checked against committed closed-form references (see
``jobs.py``).  With ``--trace 1`` the same jobs then also run in-process with
the layer functions wrapped from outside (see ``spans.py``) and the per-layer
metrics are reported instead of the end-to-end ones.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The lines before it are a readable report and the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
import traceback
from importlib import metadata
from pathlib import Path

# Pinned before numpy can be imported, in the children and in this process.
THREAD_PINS = {k: "1" for k in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_PINS)

import jobs  # noqa: E402  (sibling module; this file runs as a script)
import spans  # noqa: E402

# Timed interpreter starts: a few before the warm-up pass, then more after
# every timed pass, so that set-up is sampled across the whole run.
SETUP_FIRST, SETUP_PER_PASS = 8, 1
RUN_DEADLINE_S = 170.0  # a run stops its jobs past this, inside the 180 s limit
OUT_DIR = Path(".bench_build") / "perfbench"

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "pressure_gap": "dim",
}

# Per-layer metrics of the traced run: "<layer>.<function>.s" is span self
# time, ".calls" a span's call count, the rest are exact counters.
PER_LAYER = (
    "pressure.word_log_singulars.s", "pressure.words", "pressure.depth_max",
    "pressure.pressure_root.s", "pressure.root_evals", "pressure.pressure_root.calls",
    "pressure.depths_dropped",
    "hochman.delta_n.s", "hochman.delta_n.calls", "hochman.hochman_rate.calls",
    "hochman.words",
    "ergodic.lyapunov_monte_carlo.s", "ergodic.mc_steps",
    "splitting.sample_nu_ss_angles.s", "splitting.sample_e_s_angles.s",
    "splitting.min_angle_separation.s", "splitting.sample_nu_ss_angles.calls",
    "splitting.direction_samples",
    "ifs.sample_measure.s", "ifs.sample_steps", "dimension.box_dimension_estimate.s",
    "render.render_cylinders.s", "render.polygons", "render.render_chaos.s",
    "render.chaos_points",
    "splitting.certify.s", "ifs.check_ssc.s", "dimension.analyze.s", "dimension.analyze.calls",
    "cli.s", "trace.overhead_s",
)


def per_layer_unit(name: str) -> str:
    return "s" if name.endswith(".s") or name.endswith("_s") else "count"


class RunError(Exception):
    """The benchmark itself cannot run here; no result is printed."""


class Runner:
    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed % (1 << 32)  # the CLI's RNG keys take non-negative seeds
        self.started = time.perf_counter()
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), **THREAD_PINS)
        self.out_dir = root / OUT_DIR
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.attempted = 0
        self.failed = 0  # job runs with at least one problem
        self.failures = []  # (job name, problem)
        self.digests = {}  # job name -> digest of its first output
        self.outputs = {}  # job name -> its latest output

    # -- children -----------------------------------------------------------

    def child(self, argv: list, name: str):
        """Run one child to completion: (wall s, cpu s, max RSS KiB, Output)."""
        remaining = RUN_DEADLINE_S - (time.perf_counter() - self.started)
        if remaining <= 0:
            raise RunError("run deadline passed")
        out_path = self.out_dir / f"{name}.stdout"
        err_path = self.out_dir / f"{name}.stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable] + argv, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err, env=self.env, cwd=self.root)
            watchdog = threading.Timer(remaining, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        output = jobs.Output(proc.returncode, out_path.read_text(), err_path.read_text())
        return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, output

    def setup(self, count: int) -> list:
        """Wall times of ``count`` interpreter starts plus ``import affdim.cli``."""
        walls = []
        for _ in range(count):
            wall, _, _, out = self.child(["-c", "import affdim.cli"], "setup")
            if out.code != 0:
                raise RunError(f"import affdim.cli failed:\n{out.stderr}")
            walls.append(wall)
        return walls

    # -- checking -------------------------------------------------------------

    def check(self, job: jobs.Job, output: jobs.Output):
        """Check one job's output; return its pressure gap (or None)."""
        if job.image:
            path = Path(job.image_path(str(self.out_dir)))
            image = path.read_bytes() if path.exists() else None
            output = jobs.Output(output.code, output.stdout, output.stderr, image)
        self.outputs[job.name] = output
        problems, gap = job.check(output)
        digest = hashlib.sha256(output.stdout.encode() + (output.image or b"")).hexdigest()
        if self.digests.setdefault(job.name, digest) != digest:
            problems = problems + ["output differs from an earlier pass of this run"]
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.extend((job.name, p) for p in problems)
        return gap

    # -- passes ----------------------------------------------------------------

    def argv(self, job: jobs.Job) -> list:
        """The job's CLI arguments; removes the image an earlier pass left."""
        if job.image:
            Path(job.image_path(str(self.out_dir))).unlink(missing_ok=True)
        return job.argv(self.seed, str(self.out_dir))

    def child_pass(self, workload: tuple) -> dict:
        walls, cpus, rss, gaps = [], [], [], []
        for job in workload:
            wall, cpu, maxrss, output = self.child(
                ["-m", "affdim.cli"] + self.argv(job), job.name)
            walls.append(wall)
            cpus.append(cpu)
            rss.append(maxrss)
            gap = self.check(job, output)
            if gap is not None:
                gaps.append(gap)
        return {"wall_s": sum(walls), "cpu_s": sum(cpus), "peak_rss_mb": max(rss) / 1024.0,
                "pressure_gap": sum(gaps), "job_walls": walls}

    def traced_pass(self, workload: tuple) -> dict:
        """All jobs in-process, with the layers wrapped; nothing is forked."""
        import affdim.cli as cli

        tracer = spans.Tracer()
        job_s, coverage = [], {}
        with spans.instrumented(tracer) as missing:
            for job in workload:
                before = tracer.top_level_s
                out, err = io.StringIO(), io.StringIO()
                start = time.perf_counter()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = cli.main(self.argv(job))
                    except SystemExit as e:
                        code = e.code if isinstance(e.code, int) else 1
                    except Exception:  # a crash is a failed job, the run goes on
                        traceback.print_exc()
                        code = None
                elapsed = time.perf_counter() - start
                job_s.append(elapsed)
                coverage[job.name] = (tracer.top_level_s - before) / elapsed
                self.check(job, jobs.Output(code, out.getvalue(), err.getvalue()))
        return {"tracer": tracer, "job_s": sum(job_s), "coverage": coverage,
                "cli_s": sum(job_s) - tracer.top_level_s, "missing": missing}

    def repeat(self, fn, workload: tuple, seconds: float) -> list:
        """The passes that fit in ``seconds`` (at least one): a pass is not
        started when one more like the last would end past the window."""
        passes, start = [], time.perf_counter()
        while True:
            begun = time.perf_counter()
            passes.append(fn(workload))
            now = time.perf_counter()
            if now - start + (now - begun) > seconds:
                return passes


def percentile_note(samples: list) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return f"n={n}; no percentile has 10 samples beyond it"
    k = n - 10
    return f"n={n}; p{100.0 * k / n:.0f}={sorted(samples)[k - 1]:.4f}"


def layer_metrics(traced: list, overhead_s: float) -> tuple:
    """Medians over traced passes; (metrics, counters repeat exactly)."""
    def value(p, name):
        t = p["tracer"]
        if name == "cli.s":
            return p["cli_s"]
        if name.endswith(".s"):
            return t.self_s.get(name[:-2], 0.0)
        if name.endswith(".calls"):
            return t.calls.get(name[:-len(".calls")], 0)
        return t.counts.get(name, 0)

    metrics = {}
    for name in PER_LAYER:
        if name == "trace.overhead_s":
            v = overhead_s
        elif per_layer_unit(name) == "s":
            v = statistics.median(value(p, name) for p in traced)
        else:
            v = value(traced[0], name)
        metrics[name] = v
    first = traced[0]["tracer"]
    repeat = all(
        p["tracer"].counts == first.counts and p["tracer"].calls == first.calls
        for p in traced[1:]
    )
    return metrics, repeat


def environment(seed: int, setup_runs: int, passes: int, traced: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy_version, "thread_pins": THREAD_PINS, "seed": seed,
            "setup_runs": setup_runs, "warmup_passes": 1, "timed_passes": passes,
            "traced_passes": traced}


def run(workload_name: str, seed: int, seconds: int, trace: bool) -> dict:
    root = Path.cwd()
    if not (root / "src" / "affdim" / "cli.py").is_file():
        raise RunError(f"no affdim sources under {root / 'src'}; run from the repo root")
    sys.path.insert(0, str(root / "src"))  # for the in-process traced run
    workload = jobs.WORKLOADS[workload_name]
    runner = Runner(root, seed)
    print(f"perfbench workload={workload_name} seed={seed} seconds={seconds} trace={int(trace)}")

    runner.setup(1)  # untimed
    setup = runner.setup(SETUP_FIRST)
    runner.child_pass(workload)  # warm-up: checked, not timed

    def timed_pass(workload):
        result = runner.child_pass(workload)
        setup.extend(runner.setup(SETUP_PER_PASS))
        return result

    timed = runner.repeat(timed_pass, workload, seconds)
    traced = runner.repeat(runner.traced_pass, workload, seconds) if trace else []

    setup_s = statistics.median(setup)
    walls = [p["wall_s"] for p in timed]
    gaps = [p["pressure_gap"] for p in timed]
    e2e = {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(p["cpu_s"] for p in timed),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in timed),
        "pressure_gap": statistics.median(gaps),
    }
    for name, unit in END_TO_END.items():
        note = ""
        if name == "setup_s":
            note = f"  (median of {len(setup)} warm starts)"
        elif name == "wall_s":
            note = (f"  (median of {len(walls)} passes; {percentile_note(walls)}; "
                    f"passes {' '.join(f'{w:.3f}' for w in walls)})")
        print(f"{name:<14}{e2e[name]:.6g} {unit}{note}")
    for i, job in enumerate(workload):
        per_job = [p["job_walls"][i] for p in timed]
        print(f"  job {job.name:<20} wall median {statistics.median(per_job):.4f} s")

    correct = True
    metrics = {name: {"value": v, "unit": END_TO_END[name]} for name, v in e2e.items()}
    if trace:
        # in-process time minus the child time net of interpreter start
        child_net = e2e["wall_s"] - len(workload) * setup_s
        overhead = statistics.median(p["job_s"] for p in traced) - child_net
        layers, repeat = layer_metrics(traced, overhead)
        metrics = {n: {"value": v, "unit": per_layer_unit(n)} for n, v in layers.items()}
        for name, v in layers.items():
            print(f"  {name:<38}{v:.6g} {per_layer_unit(name)}")
        for job, cover in traced[0]["coverage"].items():
            print(f"  span coverage of {job}: {cover:.1%}")
        tracer = traced[0]["tracer"]
        for name in sorted(tracer.self_s):
            print(f"  span {name:<40}self {tracer.self_s[name]:.4f} s"
                  f"  calls {tracer.calls[name]}")
        if traced[0]["missing"]:
            print(f"  not traced (not found): {', '.join(traced[0]['missing'])}")
        if not repeat:
            correct = False
            print("counters differ between traced passes")

    failed = runner.failed
    print(f"fail_ratio    {failed / runner.attempted:.6g} 1  ({failed} of {runner.attempted} jobs)")
    for name, problem in runner.failures:
        print(f"  FAILED {name}: {problem}")
    print("env " + json.dumps(environment(seed, len(setup), len(timed), len(traced)), sort_keys=True))
    return {"correct": correct and not runner.failures, "attempted": runner.attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RunError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
