"""Benchmark of ghzdense: one workload per invocation.

    python3 perfbench/run.py --workload trials_bulk --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Workloads (see ``workloads.py`` and ``BENCHMARK.json``):

* ``trials_bulk``: in-process ``run_trials`` calls of >= 10^4 trials.
* ``reach_crosscheck``: in-process exact and sampled reachability matrices.
* ``cli_session``: a scripted user session, one ``python -m ghzdense``
  process per command.

With ``--trace 0`` the run measures the end-to-end metrics with the package
untouched. With ``--trace 1`` it gives the per-layer metrics instead: it
runs a fixed part of the workload once untraced and once traced (see
``tracer.py``), replays the CLI script in-process, and times interpreter
and import start-up in their own processes. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it name each metric as the workload knows it.
A full report, with the environment record, goes to ``.perfbench/``.

Every process runs single-threaded: the thread variables below are set
before numpy loads, here and in every child process.
"""

from __future__ import annotations

import os

THREAD_VARS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
os.environ.update(THREAD_VARS)

import argparse  # noqa: E402 - the thread variables must be set first
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402
import selftest  # noqa: E402
import setup_probe  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("trials_bulk", "reach_crosscheck", "cli_session")
SETUP_REPEATS = 5  # at least
# Set-ups before every round: a fresh process takes about 0.1 s, and with
# one per round the median setup_s spread 0.105 over ten seeds (bound/3 is
# 0.083).
SETUPS_PER_ROUND = 5
WARM_UP_COMMAND = {"kind": "capacity", "argv": ["capacity"], "json": False}
STARTUP_REPEATS = 7

# The end-to-end metrics, as the workload names them in the report lines.
E2E_LABELS = {
    "trials_bulk": ("trials_per_s", "trials_call_p50_ms", "trials_call_tail_ms"),
    "reach_crosscheck": ("reach_reports_per_s", "reach_call_p50_ms", "reach_call_tail_ms"),
    "cli_session": ("cli_commands_per_s", "cli_p50_ms", "cli_tail_ms"),
}

# Per-layer metrics read off the spans: "<layer>.<function>.<quantity>".
SPAN_METRICS = (
    ("qstate.apply_on_subset.calls_per_trial", "count"),
    ("qstate.apply_on_subset.us_per_call", "us"),
    ("qstate.measure_computational.calls_per_trial", "count"),
    ("qstate.measure_computational.us_per_call", "us"),
    ("ghzmeasure.disentangle.calls_per_trial", "count"),
    ("ghzmeasure.disentangle.us_per_call", "us"),
    ("ghzmeasure.ghz_measure.us_per_call", "us"),
    ("protocol.run_trials.ms_per_call", "ms"),
    ("protocol.run_trials.self_frac", "ratio"),
    ("protocol.bell_measure.us_per_call", "us"),
    ("encoding.reachability_oracle_matrix.ms_per_call", "ms"),
    ("encoding.reachability_matrix.ms_per_call", "ms"),
    ("encoding.reachable_by_single_qubit.us_per_call", "us"),
    ("bases.verify_orthonormal.us_per_call", "us"),
)

IMPORT_TIMER = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import numpy\n"
    "t1 = time.perf_counter()\n"
    "import ghzdense\n"
    "t2 = time.perf_counter()\n"
    "print(t1 - t0, t2 - t1)\n"
)


class Run:
    """Metrics, operation outcomes and report lines of one invocation."""

    def __init__(self) -> None:
        self.metrics: dict[str, dict] = {}
        self.lines: list[str] = []
        self.details: dict[str, object] = {}
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0

    def outcome(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems

    def metric(self, name: str, value: float, unit: str, label: str | None = None, note: str = "") -> None:
        self.metrics[name] = {"value": value, "unit": unit}
        shown = label or name
        alias = f" ({name})" if label and label != name else ""
        self.lines.append(f"{shown} = {value:.6g} {unit}{alias}{note}")


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), **THREAD_VARS)


def run_child(argv: list[str], env: dict) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run(
        argv, env=env, capture_output=True, text=True, timeout=workloads.CLI_TIMEOUT_S, check=False, cwd=ROOT
    )
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[1:]} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return elapsed, proc


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile); the maximum when there are fewer than 11 samples."""
    xs = sorted(values)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def timed_rounds(ops, run_op, seconds: float, run: Run, scaler, set_up) -> tuple[list, list]:
    """Repeat the fixed list ``ops`` in whole rounds, closed loop, until
    ``seconds`` have passed (at least one round), calling ``set_up()``
    before each round. Returns the host times and the scaled times (see
    ``hostspeed.py``) of the operations that were correct."""
    host, scaled = [], []
    start = time.perf_counter()
    for round_index in itertools.count():
        if round_index and time.perf_counter() - start >= seconds:
            return host, scaled
        set_up()
        for op in ops:
            elapsed, problems = run_op(op)
            at_speed = scaler.scale(elapsed)
            run.outcome(problems)
            if not problems:
                host.append((op, elapsed))
                scaled.append((op, at_speed))


def environment(seed: int, pinned_cpu: int) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "ghzdense").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "pinned_cpu": pinned_cpu,
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "thread_vars": THREAD_VARS,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` directly; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def library_set_up(python: str, env: dict) -> dict:
    """Import plus warm-up, timed in a fresh process (``setup_probe.py``)."""
    return json.loads(run_child([python, str(HERE / "setup_probe.py")], env)[1].stdout)


def cli_set_up(python: str, env: dict, run: Run) -> float:
    """One whole warm-up command, timed from launch to exit."""
    elapsed, problems = workloads.run_command(python, env, WARM_UP_COMMAND)
    run.outcome(problems)
    return elapsed


# ---------------------------------------------------------------------------
# end-to-end run
# ---------------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, python: str, env: dict, run: Run) -> None:
    """End-to-end metrics. The workload's fixed cycle of operations runs in
    rounds, with set-ups in fresh processes before each round, so that
    set-ups and operations meet the same mix of quiet and busy host phases.
    Every time is scaled to the reference host speed (``hostspeed.py``)."""
    scaler = hostspeed.Scaler()
    setups: list[tuple[float, float]] = []

    def set_up() -> None:
        for _ in range(SETUPS_PER_ROUND):
            if workload == "cli_session":
                elapsed = cli_set_up(python, env, run)
            else:
                elapsed = library_set_up(python, env)["setup_s"]
            setups.append((elapsed, scaler.scale(elapsed)))

    who = resource.RUSAGE_CHILDREN if workload == "cli_session" else resource.RUSAGE_SELF
    if workload == "cli_session":
        tmp = OUT / f"tmp-{os.getpid()}"
        tmp.mkdir(parents=True, exist_ok=True)
        try:
            ops = workloads.cli_script(seed, str(tmp / "state.txt"))
            _write_state_file(ops, tmp / "state.txt")
            host, scaled = timed_rounds(
                ops, lambda spec: workloads.run_command(python, env, spec), seconds, run, scaler, set_up
            )
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    else:
        import ghzdense as g

        setup_probe.warm_up(g)
        if workload == "trials_bulk":
            ops = workloads.trials_cycle(seed)
            run_op = lambda call: workloads.run_trials_call(g, call)  # noqa: E731
        else:
            ops = workloads.reach_cycle(seed)
            run_op = lambda rep: workloads.run_reach_report(g, rep)  # noqa: E731
        host, scaled = timed_rounds(ops, run_op, seconds, run, scaler, set_up)
    if not scaled:
        raise RuntimeError("no operation completed correctly")
    while len(setups) < SETUP_REPEATS:
        set_up()

    work = sum(op.trials if workload == "trials_bulk" else 1 for op, _ in scaled)
    labels = E2E_LABELS[workload]
    summary = _summary(work, [t for _, t in scaled], [b for _, b in setups], labels)
    for name, (value, unit, label, how) in summary.items():
        run.metric(name, value, unit, label=label, note=f" ({how})")
    run.metric("peak_rss_mb", resource.getrusage(who).ru_maxrss / 1024.0, "MB")
    summary = _summary(work, [t for _, t in host], [a for a, _ in setups], labels)
    for value, unit, label, how in summary.values():
        run.lines.append(f"host-time {label} = {value:.6g} {unit} ({how}; not scaled, not bounded)")
    run.details["tail"] = {"percentile": tail([t for _, t in scaled])[1], "samples": len(scaled)}


def _summary(work: int, timings: list[float], setup_times: list[float], labels) -> dict:
    """The timed end-to-end metrics: name -> (value, unit, label, how)."""
    throughput, p50_label, tail_label = labels
    n = len(timings)
    tail_s, tail_pct = tail(timings)
    return {
        "setup_s": (statistics.median(setup_times), "s", "setup_s", f"median of {len(setup_times)} fresh processes"),
        "work_per_s": (work / sum(timings), "1/s", throughput, f"{n} calls"),
        "call_p50_ms": (1e3 * statistics.median(timings), "ms", p50_label, f"{n} calls"),
        "call_tail_ms": (1e3 * tail_s, "ms", tail_label, f"p{tail_pct:.1f} of {n} calls"),
    }


def _write_state_file(script: list[dict], path: Path) -> None:
    (spec,) = [s for s in script if s["kind"] == "network_apply"]
    path.write_text(workloads.state_file_text(spec["index"]))


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------


def measure_traced(workload: str, seed: int, python: str, env: dict, run: Run) -> None:
    setups = [library_set_up(python, env) for _ in range(SETUP_REPEATS)]
    catalog_ms = 1e3 * statistics.median(s["catalog_s"] for s in setups)

    import ghzdense as g

    setup_probe.warm_up(g)
    tracer = tracing.Tracer(g)
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        script = workloads.cli_script(seed, str(tmp / "state.txt"))
        _write_state_file(script, tmp / "state.txt")
        commands = [(spec, lambda s: workloads.dispatch_command(g.cli, s), _command_size(spec)) for spec in script]
        if workload == "trials_bulk":
            ops = [(c, lambda c: workloads.run_trials_call(g, c), {"trials": c.trials})
                   for c in workloads.trials_cycle(seed)]
        elif workload == "reach_crosscheck":
            ops = [(r, lambda r: workloads.run_reach_report(g, r), {"samples": r.samples})
                   for r in workloads.reach_cycle(seed)]
        else:
            ops = commands
        plain, traced = _paired(tracer, "workload", ops, run)
        segments = ["workload"]
        if workload == "cli_session":
            dispatch = plain
        else:
            dispatch, _ = _paired(tracer, "script", commands, run)
            segments.append("script")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    views = [tracer.view(segment) for segment in segments]
    for name, unit in SPAN_METRICS:
        function, quantity = name.rsplit(".", 1)
        need_trials = quantity == "calls_per_trial"
        index, view = next(
            (i, v) for i, v in enumerate(views) if v.calls(function) and (v.trials or not need_trials)
        )
        if need_trials:
            value = view.calls_per_trial(function)
        elif quantity == "self_frac":
            value = view.self_frac(function)
        else:
            value = view.seconds_per_call(function) * (1e6 if unit == "us" else 1e3)
        run.metric(name, value, unit, note=f" [{segments[index]} spans]")
    index, view = next((i, v) for i, v in enumerate(views) if v.calls("encoding.reachability_oracle_matrix"))
    run.metric("encoding.oracle.samples_per_s", view.oracle_samples_per_s(), "1/s",
               note=f" [{segments[index]} spans]")
    run.metric("bases.catalog_build_ms", catalog_ms, "ms", note=f" (median of {len(setups)} fresh processes)")
    for name, value in startup_decomposition(python, env).items():
        run.metric(name, value, "ms", note=f" (median of {STARTUP_REPEATS} processes)")
    run.metric("cli.dispatch_ms", 1e3 * sum(dispatch) / len(dispatch), "ms",
               note=f" (untraced, mean of {len(dispatch)} commands)")
    run.metric("trace.overhead_frac", sum(traced) / sum(plain) - 1.0, "ratio",
               note=f" (traced vs untraced {workload} segment, {len(plain)} operations)")
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"trace-{workload}.npz")
    run.details["spans"] = len(tracer.start)


def _command_size(spec: dict) -> dict:
    if spec["kind"] == "roundtrip":
        return {"trials": spec["trials"]}
    if spec["kind"] == "reach" and spec["samples"]:
        return {"samples": spec["samples"]}
    return {}


def _paired(tracer, segment: str, ops, run: Run) -> tuple[list[float], list[float]]:
    """Run each operation untraced and traced, alternating which goes
    first, and return both lists of times."""
    plain, traced = [], []
    for i, (op, call, size) in enumerate(ops):
        for on in ((False, True) if i % 2 == 0 else (True, False)):
            if on:
                with tracer.op(segment, **size):
                    elapsed, problems = call(op)
                traced.append(elapsed)
            else:
                elapsed, problems = call(op)
                plain.append(elapsed)
            run.outcome(problems)
    return plain, traced


def startup_decomposition(python: str, env: dict) -> dict[str, float]:
    """Bare interpreter start, then numpy and package import, each timed in
    processes of their own."""
    interpreter = [run_child([python, "-c", "pass"], env)[0] for _ in range(STARTUP_REPEATS)]
    numpy_s, package_s = [], []
    for _ in range(STARTUP_REPEATS):
        _, proc = run_child([python, "-c", IMPORT_TIMER], env)
        a, b = proc.stdout.split()
        numpy_s.append(float(a))
        package_s.append(float(b))
    return {
        "cli.interpreter_ms": 1e3 * statistics.median(interpreter),
        "cli.numpy_import_ms": 1e3 * statistics.median(numpy_s),
        "cli.package_import_ms": 1e3 * statistics.median(package_s),
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ghzdense" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'ghzdense'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ghzdense

    if Path(ghzdense.__file__).resolve().parent != SRC / "ghzdense":
        print(f"error: imported ghzdense from {ghzdense.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    broken = selftest.run()
    if broken:
        print("error: the benchmark's own checks failed their self-test:", *broken, sep="\n  ", file=sys.stderr)
        return 1

    cpu = hostspeed.pin_to_one_cpu()
    python = sys.executable
    env = child_env()
    run = Run()
    try:
        if args.trace:
            measure_traced(args.workload, args.seed, python, env, run)
        else:
            measure(args.workload, args.seed, args.seconds, python, env, run)
    except (RuntimeError, subprocess.SubprocessError, StopIteration) as exc:
        print(f"error: {args.workload} could not be measured: {exc!r}", file=sys.stderr)
        for problem in run.problems[:20]:
            print(f"  {problem}", file=sys.stderr)
        return 1
    correct = run.failed == 0 and all(math.isfinite(m["value"]) for m in run.metrics.values())
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed, cpu),
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "fail_ratio": run.failed / run.attempted,
        "problems": run.problems[:100],
        "metrics": run.metrics,
        "lines": run.lines,
        **run.details,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(report, indent=2))

    print(f"{args.workload} seed {args.seed}, trace {args.trace}")
    print("env " + json.dumps(report["environment"], sort_keys=True))
    for line in run.lines:
        print(f"  {line}")
    print(f"  fail_ratio = {report['fail_ratio']:.6g} ({run.failed} of {run.attempted} operations)")
    for problem in run.problems[:20]:
        print(f"  FAILED: {problem}")
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": run.metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
