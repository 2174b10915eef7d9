"""brightbeam benchmark: one workload, measured end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it needs ``src/brightbeam`` there.
With ``--trace 0`` it measures the end-to-end metrics for about S seconds.
With ``--trace 1`` it runs a fixed number of rounds untraced, then the
same rounds traced, and reports the per-layer metrics and the tracing
overhead (traced minus untraced value of each end-to-end metric).
Human-readable lines come first; the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import layers
import spans
import workloads
from workloads import ROOT

HERE = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".perfbench_work"
# (name, unit, better) of every end-to-end metric.  An "operation" is one
# CLI process (cold_cli), one sweep_csv call (sweep) or one sampled
# run_scenario (mc_validate); work is invocations, points or samples.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("op_p50_ms", "ms", "lower"),
    ("op_tail_ms", "ms", "lower"),
    ("work_per_s", "1/s", "higher"),
)
PER_LAYER = layers.PER_LAYER + [(f"trace.overhead.{name}", unit, better)
                                 for name, unit, better in END_TO_END]
# Workload-specific name, scale and unit of op_p50_ms, op_tail_ms, work_per_s.
ALIASES = {
    "cold_cli": (("cli_p50_s", 1e-3, "s"), ("cli_tail_s", 1e-3, "s"),
                 ("invocations_per_s", 1, "1/s")),
    "sweep": (("sweep_p50_ms", 1, "ms"), ("sweep_tail_ms", 1, "ms"),
              ("points_per_s", 1, "1/s")),
    "mc_validate": (("validate_p50_ms", 1, "ms"), ("validate_tail_ms", 1, "ms"),
                    ("mc_samples_per_s", 1, "1/s")),
}
SETUP_PROBES = 3
IMPORT_SAMPLES = 3
# Every child is killed this long after the benchmark started, so a hung
# program fails the run instead of outliving it.
DEADLINE_S = 170


class Child:
    """One finished child process: exit code, output, peak RSS, wall times."""

    def __init__(self, argv, env, workdir: Path, timeout: float):
        out_path, err_path = workdir / "child.out", workdir / "child.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            self.launch_ns = time.perf_counter_ns()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                    env=env, cwd=ROOT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            self.end_ns = time.perf_counter_ns()
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.maxrss_kb = usage.ru_maxrss
        self.out = out_path.read_text(encoding="utf-8")
        self.err = err_path.read_text(encoding="utf-8")

    def record(self) -> dict:
        """The JSON record a worker prints as its last line."""
        if self.code != 0:
            raise RuntimeError(f"worker exited with {self.code}: {self.err.strip()[-2000:]}")
        return json.loads(self.out.splitlines()[-1])


class Bench:
    def __init__(self, args, workdir: Path):
        self.args = args
        self.workdir = workdir
        self.deadline = time.monotonic() + DEADLINE_S
        self.nproc = len(os.sched_getaffinity(0))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(workloads.SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        # The OpenBLAS thread count must not exceed the CPUs this process may use.
        blas = self.env.get("OPENBLAS_NUM_THREADS", "")
        if not blas.isdigit() or not 0 < int(blas) <= self.nproc:
            self.env["OPENBLAS_NUM_THREADS"] = str(self.nproc)
        self.paths = workloads.write_scenarios(workdir)
        self.refs = workloads.load_refs()
        self.blas_threads = None
        # (kind, startup_ns, import_ns, run_ns) of each traced CLI process.
        self.cli_timings: list[tuple] = []

    def child(self, argv) -> Child:
        return Child([sys.executable, *argv], self.env, self.workdir,
                     max(0.0, self.deadline - time.monotonic()))

    def setup_samples(self, traced: bool) -> list[float]:
        """Seconds from launch until a fresh worker has imported and loaded."""
        samples = []
        for _ in range(SETUP_PROBES):
            child = self.child([str(HERE / "worker.py"), "probe", "--work", str(self.workdir)]
                               + (["--trace"] if traced else []))
            record = child.record()
            self.blas_threads = record["blas_threads"]
            samples.append((record["ready_ns"] - child.launch_ns) / 1e9)
        return samples

    def warm_ops(self, traced: bool, min_rounds: int, max_rounds: int | None,
                 seconds: float) -> tuple[list, int]:
        argv = [str(HERE / "worker.py"), self.args.workload, "--work", str(self.workdir),
                "--seed", str(self.args.seed), "--seconds", str(seconds),
                "--min-rounds", str(min_rounds)]
        if max_rounds is not None:
            argv += ["--max-rounds", str(max_rounds)]
        child = self.child(argv + (["--trace"] if traced else []))
        return child.record()["ops"], child.maxrss_kb

    def cli_ops(self, traced: bool, min_rounds: int, max_rounds: int | None,
                seconds: float) -> tuple[list, int]:
        """Closed loop of fresh CLI processes, one at a time."""
        rng = random.Random(self.args.seed)
        peak_kb = 0

        def run_op(op):
            nonlocal peak_kb
            kind, key, cli_args = op
            if traced:
                dump = self.workdir / f"spans-cli-{len(self.cli_timings)}.bin"
                child = self.child([str(HERE / "tracecli.py"), str(dump), *cli_args])
                if dump.exists():  # a process that failed early is counted by check_cli
                    meta = spans.load(dump)[0]["meta"]
                    self.cli_timings.append((kind, meta["started_ns"] - child.launch_ns,
                                             meta["import_ns"], meta["run_ns"]))
            else:
                child = self.child(["-m", "brightbeam.cli", *cli_args])
            peak_kb = max(peak_kb, child.maxrss_kb)
            ok = workloads.check_cli(kind, key, child.code, child.out, self.refs)
            if not ok:
                print(f"{kind} {key}: exit {child.code}, unexpected output", file=sys.stderr)
            return child.end_ns - child.launch_ns, 1, ok

        records = workloads.closed_loop(lambda: workloads.cli_round(rng, self.paths), run_op,
                                        seconds, min_rounds, max_rounds)
        return records, peak_kb

    def phase(self, traced: bool, min_rounds: int, max_rounds: int | None,
              seconds: float) -> tuple[dict, list]:
        """End-to-end metrics of one phase, and its operation records."""
        setups = self.setup_samples(traced)
        ops = self.cli_ops if self.args.workload == "cold_cli" else self.warm_ops
        records, peak_kb = ops(traced, min_rounds, max_rounds, seconds)
        return end_to_end(records, setups, peak_kb, workloads.TAIL_PCT[self.args.workload]), records

    def import_metrics(self) -> dict:
        argv = ["-X", "importtime", "-c", "import brightbeam.cli"]
        samples = [layers.import_metrics(self.child(argv).err) for _ in range(IMPORT_SAMPLES)]
        return {name: statistics.median(s[name] for s in samples) for name in samples[0]}


def end_to_end(records, setups, peak_kb, tail_pct) -> dict:
    times = sorted(dt for dt, _, _ in records)
    # Nearest-rank percentile.
    tail = times[max(0, -(-len(times) * tail_pct // 100) - 1)]
    return {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_kb / 1024,
        "op_p50_ms": statistics.median(times) / 1e6,
        "op_tail_ms": tail / 1e6,
        "work_per_s": sum(work for _, work, _ in records) / sum(times) * 1e9,
    }


def cli_metrics(timings) -> dict:
    def median_ms(values):
        values = list(values)
        return statistics.median(values) / 1e6 if values else 0.0

    metrics = {"cli.startup_ms": median_ms(t[1] for t in timings),
               "cli.import_ms": median_ms(t[2] for t in timings)}
    for kind in layers.CLI_KINDS:
        metrics[f"cli.run_ms.{kind}"] = median_ms(t[3] for t in timings if t[0] == kind)
    return metrics


def git_commit() -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((workloads.SRC / "brightbeam").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(workloads.SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def loadavg() -> str:
    return Path("/proc/loadavg").read_text().strip()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (workloads.SRC / "brightbeam" / "__init__.py").is_file():
        print(f"error: no brightbeam package under {workloads.SRC}", file=sys.stderr)
        return 2

    env = {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
           "git_commit": git_commit(), "src_sha256": source_digest(),
           "loadavg_before": loadavg()}
    env.update({pkg: metadata.version(pkg) for pkg in ("numpy", "scipy", "click")})
    workdir = WORK_ROOT / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        bench = Bench(args, workdir)
        if args.trace:
            rounds = workloads.trace_rounds(args.workload, args.seconds)
            base, base_records = bench.phase(False, rounds, rounds, 0.0)
            traced, records = bench.phase(True, rounds, rounds, 0.0)
            dumps = [spans.load(p) for p in sorted(workdir.glob("spans-*.bin"))]
            metrics, a_points = layers.span_metrics(dumps, len(records))
            metrics.update(bench.import_metrics())
            metrics.update(cli_metrics(bench.cli_timings))
            metrics.update({f"trace.overhead.{name}": traced[name] - base[name]
                            for name, _, _ in END_TO_END})
            records = base_records + records
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            metrics, records = bench.phase(False, workloads.min_rounds(args.workload), None,
                                           args.seconds)
            units = {name: unit for name, unit, _ in END_TO_END}
        env["openblas_threads"] = bench.blas_threads
    finally:
        shutil.rmtree(workdir)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()
    env["loadavg_after"] = loadavg()

    failed = sum(1 for _, _, ok in records if not ok)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"operations {len(records)}")
    print("environment " + json.dumps(env, sort_keys=True))
    if args.trace:
        print(f"  traced {rounds} rounds; construct calls per method-A point: "
              f"{sorted(set(a_points))} (repeat exactly: {len(set(a_points)) == 1})")
        for name, value in metrics.items():
            print(f"  {name:<40} {value:14.6g} {units[name]}")
    else:
        aliases = dict(zip(("op_p50_ms", "op_tail_ms", "work_per_s"), ALIASES[args.workload]))
        for name, unit, _ in END_TO_END:
            alias, scale, shown = aliases.get(name, (name, 1, unit))
            print(f"  {alias:<20} {metrics[name] * scale:14.6g} {shown:<5} [{name}]")
        print(f"  tail percentile p{workloads.TAIL_PCT[args.workload]}")
    print(f"  {'failed_frac':<20} {failed / len(records):14.6g} ratio ({failed}/{len(records)})")
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
