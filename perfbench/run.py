#!/usr/bin/env python3
"""Outside-in benchmark of the deligne-kit command line.

    python3 perfbench/run.py --workload tower --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all           # every workload in turn

Run it from the root of a source checkout; it needs nothing installed, and
it runs the package under src/ the way the ``deligne-kit`` console script
does.  One client, closed loop: one CLI process at a time, default flags,
no ``--jobs``.  Every timed call is a fresh process, because the package's
module-level caches live as long as the process and in-process repeats
would time cache hits.  The workload's session is generated from --seed
(see workloads.py); the program receives only that file.

--trace 0 repeats, until --seconds have passed, one set-up probe (import
the package and parse the session), one ``run --out`` and two ``--replay``
of that report, after one untimed set-up probe.  Before and after each
timed call it runs a fixed calibration job (calibrate.py) in a fresh
process.  It reports:

  run_s        seconds of ``run``, process spawn to exit
  replay_s     seconds of ``--replay`` of that run's report
  setup_s      seconds of the set-up probe, a cost every call pays
  run_cpu_s    user + system CPU seconds of ``run`` and of every child it
               waited for
  peak_rss_mb  peak resident memory of ``run`` (median)
  ok_ratio     1 - fail_ratio: operations that passed the correctness gate
               per operation attempted (a ratio that is 1, not 0, when all
               is well)

The four times are host-speed-normalised: each call's measured time is
divided by the mean of the calibration times just before and just after
it, and the median of these ratios over the calls is multiplied by
CALIB_REF_S, the calibration job's time on a quiet host (wall time for the
wall metrics, CPU time for run_cpu_s).  On a shared host the CPU's
throughput drifts by 20-60% over minutes and by 10-20% from one second to
the next, and every time in a run moves with it; a calibration job next to
a call moves with it too, and a change to the program does not move the
calibration job.  On a shared 2-vCPU Xeon VM, over ten 40-second runs per
workload with seeds 501-510, the quartile distance over median of the
per-run medians was 7-25% for the raw times and 2-8% for the normalised
ones.  The table also prints the median of the raw times, and the result
file under .perfbench/results/ keeps every raw sample.

One operation is one task record of a run or one record of a replay.  It
fails when the process exits nonzero, when a record is not acceptable or
its outcome or ``witness_m`` differs from the workload's expected values
(workloads.py), when its digest differs from the first repetition's, or
when a replay record does not verify.

--trace 1 alternates an untraced ``run`` with a traced ``run`` and a traced
``--replay`` (tracer.py), and reports per-layer calls, total and self
seconds summed over the traced run and replay, with the medians of the
times.  It also checks that every ``.calls`` count and cli.report_bytes
repeat exactly between traced repetitions, that each workload calls the
layers it loads and none it bypasses (LAYER_USE), and reports the tracing
overhead: the fastest traced ``run`` minus the fastest untraced one.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it, starting with
'#', give the environment and a readable table with fail_ratio and each
median and sample count.  ``--workload all`` measures every workload in turn
and prefixes each metric name with its workload's.  Scratch files go to
.perfbench/ under the checkout, and a copy of every result with its
samples and environment to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import calibrate
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"

# What the `deligne-kit` console script runs.
CLI_CODE = "import sys; from deligne_kit.cli import main; sys.exit(main())"
SETUP_CODE = (
    "import sys, deligne_kit.cli; from deligne_kit.session import parse_session; "
    "parse_session(open(sys.argv[1], encoding='utf-8').read()); "
    "print(deligne_kit.cli.__file__)"
)

# Seconds of calibrate.py, process start included, on a quiet shared 2-vCPU
# Xeon VM under CPython 3.11.7; normalised times are seconds at that host
# speed, and match the wall times of the same calls there when it is quiet.
CALIB_REF_S = 0.115

CHILD_TIMEOUT_S = 60
MIN_REPS = 3
MIN_TRACED_REPS = 2
# --replay calls per repetition of --trace 0: a replay is short, and its
# time spreads more than that of a run.
REPLAYS = 2

# Layers (span-name prefixes) each workload must call at least once, and
# layers it must never call.
LAYER_USE = {
    "tower": (
        ("groebner", "koszul", "modules.module_kernel", "tasks", "session", "cli"),
        ("modules.saturate", "modules.hom_module", "deligne", "idealization"),
    ),
    "transform": (
        ("groebner", "modules.saturate", "modules.hom_module", "deligne",
         "tasks", "session", "cli"),
        ("koszul", "idealization"),
    ),
    "obstruction": (
        ("idealization", "tasks", "session", "cli"),
        ("groebner", "modules", "koszul", "deligne"),
    ),
}

KINDS = ("prozero", "deligne-roundtrip", "sheaf-glue", "diagram", "idealization")


@dataclass
class Proc:
    wall: float
    cpu: float
    rss_mb: float
    code: int


def spawn(argv, stdout: Path, stderr: Path, env) -> Proc:
    """Run argv to completion; wall time from spawn to exit, and the CPU time
    and peak RSS of the child and its waited-for descendants."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                proc.returncode)


def acceptable(record: dict) -> bool:
    """The CLI's exit-code policy, restated: obstruction only for
    idealization tasks, exhausted only under allow-exhausted."""
    outcome = record.get("outcome")
    if outcome == "pass":
        return True
    if outcome == "obstruction":
        return record.get("kind") == "idealization"
    if outcome == "exhausted":
        return "allow-exhausted" in record.get("label", "")
    return False


class Gate:
    """Counts attempted and failed operations."""

    def __init__(self, expected):
        self.expected = expected
        self.digests = None
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, count: int, why: str):
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(why)

    def check_run(self, proc: Proc, report: Path, what: str) -> bool:
        n = len(self.expected)
        self.attempted += n
        if proc.code != 0:
            self.fail(n, f"{what}: exit code {proc.code}")
            return False
        try:
            records = json.loads(report.read_text(encoding="utf-8"))["records"]
        except (OSError, ValueError, KeyError) as ex:
            self.fail(n, f"{what}: unreadable report: {ex}")
            return False
        if len(records) != n:
            self.fail(n, f"{what}: {len(records)} records for {n} tasks")
            return False
        digests = []
        for i, (rec, (kind, outcome, witness_m)) in enumerate(
                zip(records, self.expected)):
            got = (rec.get("kind"), rec.get("outcome"),
                   rec.get("bounds", {}).get("witness_m"))
            if not acceptable(rec):
                self.fail(1, f"{what}: task {i} not acceptable: {got}")
            elif got != (kind, outcome, witness_m):
                self.fail(1, f"{what}: task {i} gave {got}, expected "
                             f"{(kind, outcome, witness_m)}")
            elif self.digests is not None and rec.get("digest") != self.digests[i]:
                self.fail(1, f"{what}: task {i} digest differs from the first run")
            digests.append(rec.get("digest"))
        if self.digests is None:
            self.digests = digests
        return True

    def check_replay(self, proc: Proc, out: Path, what: str):
        n = len(self.expected)
        self.attempted += n
        if proc.code != 0:
            self.fail(n, f"{what}: exit code {proc.code}")
            return
        try:
            results = json.loads(out.read_text(encoding="utf-8"))["results"]
        except (OSError, ValueError, KeyError) as ex:
            self.fail(n, f"{what}: unreadable output: {ex}")
            return
        if len(results) != n:
            self.fail(n, f"{what}: {len(results)} results for {n} tasks")
            return
        for i, res in enumerate(results):
            if res.get("verified") is not True:
                self.fail(1, f"{what}: record {i} did not verify")

    def skip_replay(self, what: str):
        n = len(self.expected)
        self.attempted += n
        self.fail(n, f"{what}: no report to replay")


class Bench:
    """One workload's session, scratch files and correctness gate."""

    def __init__(self, workload, workdir: Path):
        self.workload = workload
        self.dir = workdir
        self.session = workdir / "session.dk"
        self.session.write_text(workload.text, encoding="utf-8")
        self.report = workdir / "report.json"
        self.gate = Gate(workload.expected)
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (
            os.pathsep + path if path else ""))

    def _spawn(self, argv, name: str) -> Proc:
        return spawn([sys.executable] + argv, self.dir / f"{name}.out",
                     self.dir / f"{name}.err", self.env)

    def setup(self) -> Proc:
        proc = self._spawn(["-c", SETUP_CODE, str(self.session)], "setup")
        if proc.code != 0:
            raise RuntimeError("set-up probe failed: "
                               + (self.dir / "setup.err").read_text()[-2000:])
        return proc

    def calibrate(self) -> Proc:
        proc = self._spawn([str(HERE / "calibrate.py")], "calibrate")
        out = (self.dir / "calibrate.out").read_text().strip()
        if proc.code != 0 or out != str(calibrate.CHECKSUM):
            raise RuntimeError(f"calibration job failed: exit code {proc.code}, "
                               f"checksum {out!r}, expected {calibrate.CHECKSUM}")
        return proc

    def run(self, what: str, trace_id: str | None = None) -> tuple:
        argv = ["run", str(self.session), "--out", str(self.report)]
        if trace_id:
            argv = [str(HERE / "tracer.py"), str(self.dir / "run.spans"),
                    trace_id] + argv
        else:
            argv = ["-c", CLI_CODE] + argv
        if self.report.exists():
            self.report.unlink()
        proc = self._spawn(argv, "run")
        return proc, self.gate.check_run(proc, self.report, what)

    def replay(self, what: str, ran: bool, trace_id: str | None = None):
        if not ran:
            self.gate.skip_replay(what)
            return None
        argv = ["run", str(self.session), "--replay", str(self.report)]
        if trace_id:
            argv = [str(HERE / "tracer.py"), str(self.dir / "replay.spans"),
                    trace_id] + argv
        else:
            argv = ["-c", CLI_CODE] + argv
        proc = self._spawn(argv, "replay")
        self.gate.check_replay(proc, self.dir / "replay.out", what)
        return proc

    def report_bytes(self) -> int:
        """Report size without the digits of its time_ms fields, which are
        the only bytes that may differ between runs of one session."""
        data = self.report.read_bytes()
        records = json.loads(data)["records"]
        return len(data) - sum(len(json.dumps(r["time_ms"])) for r in records)

    def traced_layers(self, rep: int) -> tuple:
        """One traced run and replay: the run's Proc, and per span name the
        calls, total and self seconds summed over both processes, with the
        counters, the rebound names and the report size."""
        what = f"traced repetition {rep}"
        spans = [self.dir / "run.spans", self.dir / "replay.spans"]
        for path in spans:
            path.unlink(missing_ok=True)
        run, ran = self.run(what, trace_id=f"run-{rep}")
        self.replay(what + " replay", ran, trace_id=f"replay-{rep}")
        calls, total, own, counts, bindings = {}, {}, {}, {}, {}
        for path in spans:
            if not path.exists():
                continue
            data = json.loads(path.read_text(encoding="utf-8"))
            c, t, s = tracer.summarize(data["spans"])
            for acc, part in ((calls, c), (total, t), (own, s), (counts, data["counts"])):
                for key, value in part.items():
                    acc[key] = acc.get(key, 0) + value
            bindings = data["bindings"]
        return run, (calls, total, own, counts, bindings,
                     self.report_bytes() if ran else 0)


def median(values):
    return statistics.median(values) if values else 0.0


def warm_up(bench: Bench):
    """One untimed set-up probe: it writes the bytecode caches of a fresh
    checkout and shows that the package comes from this checkout's src/."""
    bench.setup()
    origin = Path((bench.dir / "setup.out").read_text().strip()).resolve()
    if not origin.is_relative_to(SRC.resolve()):
        raise RuntimeError(f"package imported from {origin}, not from {SRC}")


def measure(bench: Bench, seconds: float) -> tuple:
    """Each timed call is bracketed by calibration jobs: calibrate, set-up
    probe, calibrate, run, calibrate, replay, calibrate, replay, calibrate,
    where a repetition's last calibration is the next one's first."""
    warm_up(bench)
    reps = []
    c0 = bench.calibrate()
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        what = f"repetition {len(reps) + 1}"
        setup = bench.setup()
        c1 = bench.calibrate()
        run, ran = bench.run(what)
        c2 = bench.calibrate()
        replays = []
        for i in range(REPLAYS):
            replay = bench.replay(f"{what} replay {i + 1}", ran)
            c3 = bench.calibrate()
            replays.append((replay, c2, c3))
            c2 = c3
        reps.append(((setup, c0, c1), (run, c1, c2)) + tuple(replays))
        c0 = c3
        now = time.perf_counter()
        if len(reps) >= MIN_REPS and now - start + (now - t0) > seconds:
            break

    def normalised(proc, before, after, cpu=False):
        if cpu:
            return proc.cpu / ((before.cpu + after.cpu) / 2) * CALIB_REF_S
        return proc.wall / ((before.wall + after.wall) / 2) * CALIB_REF_S

    def timed(index):
        """(Proc, calibration before, calibration after) of each call."""
        return [call for rep in reps for call in rep[index]
                if call[0] is not None]

    calls = {"setup_s": timed(slice(0, 1)), "run_s": timed(slice(1, 2)),
             "replay_s": timed(slice(2, None))}
    samples = {name: [normalised(*call) for call in c] for name, c in calls.items()}
    samples["run_cpu_s"] = [normalised(*call, cpu=True) for call in calls["run_s"]]
    samples["peak_rss_mb"] = [call[0].rss_mb for call in calls["run_s"]]
    metrics = {name: median(values) for name, values in samples.items()}
    metrics["ok_ratio"] = 1.0 - bench.gate.failed / bench.gate.attempted
    raw = {name: [call[0].wall for call in c] for name, c in calls.items()}
    raw["run_cpu_s"] = [call[0].cpu for call in calls["run_s"]]
    raw["calibrate_s"] = [call[1].wall for call in calls["setup_s"]]
    samples["raw"] = raw
    return metrics, samples, []


def layer_metrics(calls, total, own, counts, report_bytes) -> dict:
    out = {}
    for name, _, _ in tracer.SPANS:
        if name != "cli.main":
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.total_s"] = total.get(name, 0.0)
            out[f"{name}.self_s"] = own.get(name, 0.0)
    created = counts.get("groebner.FreeSubmodule.created", 0)
    out["groebner.FreeSubmodule.created"] = created
    basis_calls = calls.get("groebner.FreeSubmodule.groebner", 0)
    out["groebner.basis_reuse"] = basis_calls / created if created else 0.0
    searches = calls.get("koszul.pro_zero_search", 0)
    out["koszul.transitions_per_search"] = (
        calls.get("koszul.homology_transition", 0) / searches if searches else 0.0)
    for prefix, _, _ in tracer.KEYED_SPANS:
        for kind in KINDS:
            out[f"{prefix}.{kind}.total_s"] = total.get(f"{prefix}.{kind}", 0.0)
            out[f"{prefix}.{kind}.self_s"] = own.get(f"{prefix}.{kind}", 0.0)
    out["cli.main.self_s"] = own.get("cli.main", 0.0)
    out["cli.report_bytes"] = report_bytes
    return out


def layer_use_problems(workload: str, calls: dict) -> list:
    loads, bypasses = LAYER_USE[workload]

    def layer_calls(prefix):
        return sum(n for name, n in calls.items()
                   if name == prefix or name.startswith(prefix + "."))

    problems = [f"self-test: {workload} made no call in {p}"
                for p in loads if layer_calls(p) == 0]
    problems += [f"self-test: {workload} called {p} {layer_calls(p)} times"
                 for p in bypasses if layer_calls(p) != 0]
    return problems


def measure_traced(bench: Bench, seconds: float) -> tuple:
    warm_up(bench)
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        run, _ = bench.run(f"untraced repetition {len(plain) + 1}")
        plain.append(run.wall)
        run, result = bench.traced_layers(len(traced) + 1)
        traced.append(run.wall)
        layers.append(result)
        now = time.perf_counter()
        if len(traced) >= MIN_TRACED_REPS and now - start + (now - t0) > seconds:
            break
    problems = []
    first = layers[0]
    exact = [(calls, counts, nbytes) for calls, _, _, counts, _, nbytes in layers]
    for i, other in enumerate(exact[1:], start=2):
        if other != exact[0]:
            problems.append(f"exact counts: traced repetition {i} differs "
                            "from repetition 1")
    problems += layer_use_problems(bench.workload.name, first[0])

    per_rep = [layer_metrics(c, t, s, n, b) for c, t, s, n, _, b in layers]
    metrics = {
        name: (median([m[name] for m in per_rep])
               if isinstance(value, float) else value)
        for name, value in per_rep[0].items()
    }
    metrics["tracer.overhead_s"] = min(traced) - min(plain)
    samples = {"untraced_run_s": plain, "traced_run_s": traced,
               "bindings": first[4]}
    return metrics, samples, problems


def environment(seed: int) -> dict:
    commit = None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
        if out.returncode == 0:
            commit = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "seed": seed,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def declared_metrics(trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    workload = workloads.make(name, seed)
    workdir = SCRATCH / f"{name}-seed{seed}-trace{trace}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(workload, workdir)
        metrics, samples, problems = (measure_traced if trace else measure)(
            bench, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    problems = bench.gate.problems + problems
    return {
        "workload": name,
        "correct": bench.gate.failed == 0 and not problems,
        "attempted": bench.gate.attempted,
        "failed": bench.gate.failed,
        "metrics": metrics,
        "samples": samples,
        "problems": problems,
    }


def print_table(result: dict, units: dict):
    print(f"# workload {result['workload']}: attempted {result['attempted']}, "
          f"failed {result['failed']}, fail_ratio "
          f"{result['failed'] / result['attempted']:.6g}")
    for name, unit in units.items():
        value = result["metrics"].get(name, float("nan"))
        series = result["samples"].get(name)
        raw = result["samples"].get("raw", {}).get(name)
        extra = (f"  (n={len(series)}, min {min(series):.4g}, median "
                 f"{median(series):.4g}, max {max(series):.4g})"
                 if series else "")
        if raw:
            extra += f"  raw median {median(raw):.4g}"
        print(f"#   {name:48s} {value:>14.6g} {unit}{extra}")
    for problem in result["problems"]:
        print(f"# PROBLEM {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.GENERATORS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "deligne_kit" / "cli.py").is_file():
        print(f"error: no deligne_kit package under {SRC}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    units = declared_metrics(args.trace)
    env = environment(args.seed)
    print("# environment " + json.dumps(env, sort_keys=True))

    names = sorted(workloads.GENERATORS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace)
        except RuntimeError as ex:
            print(f"error: {ex}", file=sys.stderr)
            return 1
        if set(result["metrics"]) != set(units):
            missing = set(units) ^ set(result["metrics"])
            result["problems"].append(f"metrics differ from BENCHMARK.json: "
                                      f"{sorted(missing)}")
            result["correct"] = False
        result["environment"] = env
        print_table(result, units)
        results.append(result)
        out = SCRATCH / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")

    if len(results) == 1:
        metrics = {name: {"value": value, "unit": units.get(name, "")}
                   for name, value in results[0]["metrics"].items()}
    else:
        metrics = {f"{r['workload']}.{name}": {"value": value, "unit": units.get(name, "")}
                   for r in results for name, value in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
