"""kbound benchmark: two closed-loop workloads with one client each.

    python3 perfbench/run.py --workload {sweep,short} --seed N --seconds S --trace {0,1}

Run from a checkout of the repository; the program under test is the
source tree in ``src/``. Every operation's output is checked against the
sha256 pinned in ``perfbench/pins.json``. The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics (see ``tracer.py``) with ``--trace 1``. The line before it records
the host, the code and every operation's argv.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_BATCH, SETUP_EVERY_S = 4, 5.0
# After every operation and timed import the benchmark runs a kbound-free
# reference loop for REF_SHARE of its time, in blocks of fixed work. The
# mean block time over NOMINAL_BLOCK_S, about a block's time on a calm
# 2 GHz Xeon vCPU under CPython 3.11, is the host factor, and timings are
# reported in reference seconds: wall seconds over the host factor.
REF_SHARE = 0.3
NOMINAL_BLOCK_S = 0.002
HARD_LIMIT_S = 165.0  # a run must end within 180 s, whatever kbound does

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

CLAIM_IDS = (
    "R2.base", "R3.direct", "R4.reduce", "R4.s2", "R4.s3", "R4.s4.x<=6", "R4.s4.x>6",
    "R5.remark.psi", "R5.abs", "R5.profile.seed-4-9-16", "R5.profile.seed-4-10-19",
    "R5.deg4.cubic", "R6.spanned.quadratic", "R6.scroll.psi", "APPENDIX.min", "SHARPNESS",
)
BOUNDS_FUNCTIONS = (
    "halphen_bound", "pi2_bound", "castelnuovo_bound", "pi1_bound",
    "propagate_profile", "pi2_profile",
)


def per_layer_metrics(summary: dict, output_bytes: int, wall_ratio: float, probe_ms: float) -> dict:
    """Per-layer metrics, {name: (value, unit)}, from a merged trace summary.
    The value is None where nothing was measured: a span whose function is
    gone or was never called, or a count that stayed 0."""
    spans = summary["spans"]

    def calls(name):
        return spans[name][0] if name in spans else None

    def self_s(name):
        return spans[name][1] if name in spans else None

    def count(n):
        return n or None

    integers = count(summary["scan_integers"])
    sign_s = self_s("exact.sign_certificate")
    out = {
        "exact.sign_certificate.calls": (calls("exact.sign_certificate"), "count"),
        "exact.sign_certificate.self_s": (sign_s, "s"),
        "exact.scan.integers": (integers, "count"),
        "exact.scan.max_tail_bound": (count(summary["scan_max_tail_bound"]), "int"),
        "exact.scan.ns_per_integer": (sign_s / integers * 1e9 if integers and sign_s else None, "ns"),
    }
    for fn in BOUNDS_FUNCTIONS:
        out[f"bounds.{fn}.calls"] = (calls(f"bounds.{fn}"), "count")
        out[f"bounds.{fn}.self_s"] = (self_s(f"bounds.{fn}"), "s")
    out.update({
        "scroll.minimize_k2.calls": (calls("scroll.minimize_k2"), "count"),
        "scroll.minimize_k2.self_s": (self_s("scroll.minimize_k2"), "s"),
        "scroll.phi.calls": (count(summary["counts"].get("scroll.phi")), "count"),
        "scroll._k2_raw.calls": (count(summary["counts"].get("scroll._k2_raw")), "count"),
        "scroll.extremal_class.self_s": (self_s("scroll.extremal_class"), "s"),
    })
    for claim in CLAIM_IDS:
        name = f"verify.{tracer.claim_metric(claim)}"
        out[f"{name}.self_s"] = (self_s(name), "s")
    out.update({
        "verify.sweep.degrees": (count(summary["sweep_degrees"]), "count"),
        "verify.serialize_s": (self_s("verify.serialize"), "s"),
        "verify.json_bytes": (count(summary["json_bytes"]), "bytes"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "cli.output_bytes": (count(output_bytes), "bytes"),
        "trace.wall_ratio": (wall_ratio, "ratio"),
        "env.probe_ms": (probe_ms, "ms"),
    })
    return out


# ---------------------------------------------------------------------------
# environment


def child_env() -> dict:
    """Environment for kbound processes: this checkout's source first, and
    no KBOUND_JOBS, so the serial path runs whatever the caller's shell set."""
    env = dict(os.environ)
    env.pop("KBOUND_JOBS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def prepare(env: dict) -> None:
    """Compile kbound to .pyc so that no timed run pays for compiling, and
    check that it imports from this checkout."""
    cli_path = SRC / "kbound" / "cli.py"
    if not cli_path.is_file():
        raise SystemExit(f"error: no kbound source under {SRC}")
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC / "kbound")],
        env=env, check=True, stdout=subprocess.DEVNULL,
    )
    found = subprocess.run(
        [sys.executable, "-c", "import kbound.cli; print(kbound.cli.__file__)"],
        env=env, check=True, capture_output=True, text=True,
    ).stdout.strip()
    if Path(found).resolve() != cli_path.resolve():
        raise SystemExit(f"error: kbound imports from {found}, not from {SRC}")


def pin_to_one_cpu() -> int | None:
    """Run the benchmark and every process it starts (they inherit the
    affinity) on one CPU, so that the reference loop times the CPU that
    kbound runs on: the vCPUs of a shared host slow down independently."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def import_seconds(env: dict) -> float:
    """Wall time of a fresh interpreter running `import kbound.cli`."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import kbound.cli"], env=env, check=True, stdout=subprocess.DEVNULL)
    return perf_counter() - start


@dataclass(frozen=True)
class _Vec:
    x: int
    y: int
    z: int

    def __add__(self, other):
        return _Vec(self.x + other.x, self.y + other.y, self.z + other.z)


def reference_block() -> None:
    """One block of the reference loop: fixed kbound-free pure-Python work.
    Half of it is a bare integer loop and half is small frozen dataclasses,
    method calls and Fraction arithmetic, as in kbound. When the host slowed
    down, kbound's time went as the bare loop's time to a power of 1.0 to
    1.5, and as the other half's time to a power of about 0.65, so neither
    half alone tracks kbound."""
    acc = 0
    for i in range(14_000):
        acc += i * i
    v = _Vec(1, 2, 3)
    for a in range(500):
        acc += (v + _Vec(a, a * a, 1)).x - a
    total = Fraction(0)
    for k in range(1, 100):
        total += Fraction(1, k % 97 + 1)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "kbound").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        result = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return result.stdout.strip() if result.returncode == 0 else None


# ---------------------------------------------------------------------------
# operations


class Op:
    """Outcome of one operation."""

    __slots__ = ("argv", "seconds", "code", "output", "size", "rss_kb", "factor")

    def __init__(self, argv, seconds, code, output, rss_kb=0):
        self.argv, self.seconds, self.code = argv, seconds, code
        self.output, self.size = output, len(output)
        self.rss_kb = rss_kb
        self.factor = 1.0  # host factor measured right after the operation


def run_child(cmd: list[str], env: dict, out_path: Path, deadline: float) -> tuple[float, int, int]:
    """Run one process with stdout to out_path; (seconds, exit code, peak RSS
    in KiB). The process is killed at the deadline and always reaped."""
    with open(out_path, "wb") as out:
        start = perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=out, stderr=subprocess.DEVNULL)
    watchdog = threading.Timer(max(0.0, deadline - perf_counter()), proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = perf_counter() - start
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
        watchdog.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss


def subprocess_op(argv, env, work: Path, deadline: float, trace_summaries=None) -> Op:
    out_path = work / "out"
    if trace_summaries is None:
        cmd = [sys.executable, "-m", "kbound", *argv]
    else:
        summary_path = work / "summary.json"
        cmd = [sys.executable, str(HERE / "tracer.py"), "--summary", str(summary_path), "--", *argv]
    seconds, code, rss_kb = run_child(cmd, env, out_path, deadline)
    if trace_summaries is not None and code == 0:
        trace_summaries.append(json.loads(summary_path.read_text()))
    return Op(argv, seconds, code, out_path.read_bytes(), rss_kb)


def check(op: Op, pins: dict) -> str | None:
    """Why the operation failed, or None: a nonzero exit, a verification
    document with overall false, or bytes that differ from the pinned
    sha256."""
    if op.code != 0:
        return f"exit code {op.code}"
    if op.argv[0] == "verify" and "json" in op.argv:
        try:
            if json.loads(op.output)["overall"] is not True:
                return "overall: false"
        except (ValueError, KeyError, TypeError):
            return "unreadable verification document"
    key = workloads.op_key(op.argv)
    if key not in pins:
        return "no pinned output"
    if hashlib.sha256(op.output).hexdigest() != pins[key]:
        return "output differs from the pinned sha256"
    return None


# ---------------------------------------------------------------------------
# runs


class Terminated(BaseException):
    """Raised on SIGTERM. Unwinding kills and reaps the running child and
    removes the scratch directory, as for any other exception."""


def _terminate(signum, frame):
    raise Terminated(signum)


class Runner:
    def __init__(self, workload: str, env: dict, work: Path, pins: dict, deadline: float):
        self.workload, self.env, self.work, self.pins = workload, env, work, pins
        self.deadline = deadline
        self.ops: list[Op] = []
        self.failures: list[str] = []
        self.ref_seconds = 0.0
        self.ref_blocks = 0

    def reference(self, seconds: float) -> float:
        """Run reference blocks for about `seconds`, at least one; returns
        their host factor, the mean block time over NOMINAL_BLOCK_S."""
        start = perf_counter()
        blocks = 0
        while not blocks or perf_counter() - start < seconds:
            reference_block()
            blocks += 1
        elapsed = perf_counter() - start
        self.ref_seconds += elapsed
        self.ref_blocks += blocks
        return elapsed / blocks / NOMINAL_BLOCK_S

    def host_factor(self) -> float:
        """The run's mean reference block time over NOMINAL_BLOCK_S."""
        return self.ref_seconds / self.ref_blocks / NOMINAL_BLOCK_S

    def time_import(self) -> tuple[float, float]:
        """Wall time of one fresh import and the host factor right after it."""
        seconds = import_seconds(self.env)
        return seconds, self.reference(seconds * REF_SHARE)

    def run_pass(self, argvs, summaries=None) -> float:
        """Run one pass, each operation followed by the reference loop;
        returns the pass's operation time in reference seconds. With
        `summaries`, each process runs under the tracer and its summary is
        appended there."""
        seconds = 0.0
        for argv in argvs:
            if perf_counter() >= self.deadline:
                break
            op = subprocess_op(argv, self.env, self.work, self.deadline, summaries)
            reason = check(op, self.pins)
            if reason is not None:
                self.failures.append(f"{workloads.op_key(argv)}: {reason}")
            op.output = None
            self.ops.append(op)
            op.factor = self.reference(op.seconds * REF_SHARE)
            seconds += op.seconds / op.factor
        return seconds


def untraced_run(runner: Runner, passes, seconds: float) -> dict:
    """Repeat passes until `seconds` have elapsed (at least one pass).
    Between passes, at most every SETUP_EVERY_S, it times fresh imports for
    setup_s, so that those samples spread over the run.

    A shared host runs the same code up to 2.4 times slower for seconds to
    minutes, and kbound and the reference loop slow down alike, so every
    operation and import is timed in reference seconds: its wall time over
    the host factor measured right after it. The raw wall-clock figures go
    to the record."""
    pass_times: list[float] = []
    setup: list[tuple[float, float]] = []
    last_setup = float("-inf")
    start = perf_counter()
    for argvs in passes:
        if perf_counter() - last_setup >= SETUP_EVERY_S:
            setup.extend(runner.time_import() for _ in range(SETUP_BATCH))
            last_setup = perf_counter()
        pass_times.append(runner.run_pass(argvs))
        if perf_counter() - start >= seconds or perf_counter() >= runner.deadline:
            break
    latencies = [op.seconds / op.factor * 1000 for op in runner.ops]
    per_op = workloads.SWEEP_WIDTH if runner.workload == "sweep" else 1
    return {
        "setup_s": statistics.median(t / f for t, f in setup),
        "wall_s": statistics.mean(pass_times),
        "ops_per_s": len(runner.ops) * per_op / sum(pass_times),
        "op_p50_ms": statistics.median(latencies),
        "peak_rss_mb": statistics.median(op.rss_kb for op in runner.ops) / 1024,
        "host_factor": runner.host_factor(),
        "raw_setup_s": statistics.median(t for t, _ in setup),
        "raw_wall_s": sum(op.seconds for op in runner.ops) / len(pass_times),
        "setup_samples": setup,
        "op_samples": [(op.seconds, op.factor) for op in runner.ops],
    }


def traced_run(runner: Runner, argvs) -> tuple[dict, int, float]:
    """The same pass untraced, traced and untraced again; returns the merged
    summary, the traced output bytes and the traced pass's time as a
    multiple of the mean untraced one, which cancels warm-up and slow drift."""
    before = runner.run_pass(argvs)
    first_traced = len(runner.ops)
    parts: list[dict] = []
    traced = runner.run_pass(argvs, summaries=parts)
    summary = tracer.empty_summary()
    for part in parts:
        tracer.merge(summary, part)
    output_bytes = sum(op.size for op in runner.ops[first_traced:])
    after = runner.run_pass(argvs)
    return summary, output_bytes, traced / ((before + after) / 2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = perf_counter()
    signal.signal(signal.SIGTERM, _terminate)

    cpu = pin_to_one_cpu()
    env = child_env()
    prepare(env)
    pins = json.loads((HERE / "pins.json").read_text())["sha256"]
    passes = workloads.passes(args.workload, args.seed)

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        runner = Runner(args.workload, env, Path(tmp), pins, started + HARD_LIMIT_S)
        if args.trace:
            summary, output_bytes, wall_ratio = traced_run(runner, next(passes))
        else:
            measured = untraced_run(runner, passes, args.seconds)
    probe = runner.host_factor() * NOMINAL_BLOCK_S * 1000

    unmeasured = None
    if args.trace:
        named = per_layer_metrics(summary, output_bytes, wall_ratio, probe)
        unmeasured = sorted(name for name, (value, _) in named.items() if value is None)
        named = {name: entry for name, entry in named.items() if entry[0] is not None}
    else:
        named = {name: (measured[name], unit) for name, unit in END_TO_END.items()}

    for name, (value, unit) in named.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    print(json.dumps({"record": {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "commit": commit(), "source_sha256": source_digest(), "env.probe_ms": probe,
        **({} if args.trace else {key: measured[key] for key in (
            "host_factor", "raw_setup_s", "raw_wall_s", "setup_samples", "op_samples")}),
        "absent_spans": summary["absent"] if args.trace else None,
        "unmeasured_metrics": unmeasured,
        "failures": runner.failures[:20],
        "argv": [workloads.op_key(op.argv) for op in runner.ops],
    }}))
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": len(runner.ops),
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in named.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
