"""Benchmark entry point.

Usage, from the repository root::

    python3 perfbench/run.py --workload {dense,dense-approx,serve} \\
        --seed N --seconds S --trace {0,1}

Builds the workload's inputs from ``--seed``, drives the program through
its public CLI in subprocesses, checks every output (golden manifest at
the suite seed, in-process recomputation and identity checks elsewhere),
prints a report, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` adds an in-process pass with a span around every layer call
and reports the per-layer metrics instead (zero where the workload never
enters the layer).  Scratch files go under ``.perfbench-work/``.
"""

from __future__ import annotations

import os

# One process of load, and reproducible float reductions, on every run.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import lib  # noqa: E402
from perfbench.workloads import CAMPAIGN_EXPRS, SUITE_SEED  # noqa: E402

WORKLOADS = ("dense", "dense-approx", "serve")
GOLDEN = Path(__file__).resolve().parent / "golden.json"

#: Modules whose cold import each traced run times in a fresh interpreter.
IMPORTS = {
    "import.repro_cli_s": "repro.experiments.cli",
    "import.scipy_stats_s": "scipy.stats",
    "import.scipy_fft_s": "scipy.fft",
    "import.networkx_s": "networkx",
    "import.numpy_s": "numpy",
}

#: Hard stop for everything a run starts (a run must end within 180 s).
RUN_BUDGET_S = 170.0


class Ctx:
    """Per-run state: paths, child environment, live processes, spans."""

    def __init__(self, root: Path, args: argparse.Namespace):
        self.root = root
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.work = root / ".perfbench-work"
        self.state_dir = self.work / "state"
        self.run_dir = self.work / f"run-{args.workload}-s{args.seed}-{os.getpid()}"
        shutil.rmtree(self.run_dir, ignore_errors=True)
        self.run_dir.mkdir(parents=True)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.errlog = self.run_dir / "children.log"
        self._errfh = self.errlog.open("w")
        self.python = sys.executable
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(root / "src")
        sys.path.insert(0, str(root / "src"))
        self.tracer = lib.Tracer()
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.live: dict[int, tuple[subprocess.Popen, threading.Timer]] = {}
        self.groups: set[int] = set()
        self.src_digest = src_digest(root / "src")
        self.golden = (
            self.load_golden() if self.seed == SUITE_SEED and GOLDEN.is_file() else None
        )

    def load_golden(self) -> dict:
        return json.loads(GOLDEN.read_text())

    def note(self, line: str) -> None:
        print(line, flush=True)

    def spawn(self, cmd: list[str]) -> subprocess.Popen:
        """Start a child in its own session, killed if the run overstays."""
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self._errfh, text=True,
            env=self.env, cwd=self.root, start_new_session=True,
        )
        timer = threading.Timer(
            max(1.0, self.deadline - time.monotonic()), self.kill_group, (proc,)
        )
        timer.daemon = True
        timer.start()
        self.live[proc.pid] = (proc, timer)
        self.groups.add(proc.pid)
        return proc

    def wait(self, proc: subprocess.Popen):
        """Reap ``proc``; returns ``(rusage, exit code)``."""
        _, status, rusage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.live.pop(proc.pid)[1].cancel()
        return rusage, proc.returncode

    def kill_group(self, proc: subprocess.Popen) -> None:
        """SIGKILL what is left of ``proc``'s session and wait for it."""
        end = time.monotonic() + 5.0
        try:
            os.killpg(proc.pid, signal.SIGKILL)
            while time.monotonic() < end:
                os.killpg(proc.pid, 0)
                time.sleep(0.02)
        except (ProcessLookupError, PermissionError):
            pass

    def close(self) -> None:
        for proc, timer in list(self.live.values()):
            timer.cancel()
            self.kill_group(proc)
            self.wait(proc)
        for pgid in self.groups:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
        self._errfh.close()


def src_digest(src: Path) -> str:
    """sha256 over every source file's path and bytes (the code measured)."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def calibration_ms() -> float:
    """Best of three runs of a fixed pure-Python loop: how fast the host is now.

    Shared hosts drift by tens of percent over minutes; this stamp lets a
    reader tell a slow run from a slow program.
    """
    best = float("inf")
    for _ in range(3):
        t = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i
        best = min(best, time.perf_counter() - t)
    return best * 1e3


def provenance(ctx: Ctx, workload: str) -> dict:
    sha = None
    if (ctx.root / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ctx.root,
                              capture_output=True, text=True)
        sha = done.stdout.strip() or None
    versions = {}
    for dist in ("numpy", "scipy", "networkx"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "git_sha": sha,
        "src_sha256": ctx.src_digest,
        "nproc": os.cpu_count(),
        "calib_loop_ms": round(calibration_ms(), 3),
        "python": platform.python_version(),
        **versions,
        "scale": "quick",
        "workload": workload,
        "seed": ctx.seed,
        "expr": CAMPAIGN_EXPRS[workload](ctx.seed) if workload in CAMPAIGN_EXPRS else None,
    }


def import_times(ctx: Ctx) -> dict[str, float]:
    """Cold import time of each module in :data:`IMPORTS`, one process each."""
    out = {}
    for metric, module in IMPORTS.items():
        code = ("import time; t = time.perf_counter(); "
                f"import {module}; print(time.perf_counter() - t)")
        proc = ctx.spawn([ctx.python, "-c", code])
        text = proc.stdout.read()
        if ctx.wait(proc)[1] != 0:
            raise RuntimeError(f"importing {module} failed; see {ctx.errlog}")
        out[metric] = float(text.strip())
    return out


def load_spec(root: Path) -> dict:
    """``BENCHMARK.json`` with every metric name and unit validated."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    for metric in spec["end_to_end"] + spec["per_layer"]:
        lib.check_name(metric["name"])
        lib.check_unit(metric["unit"])
    for workload in spec["workloads"]:
        lib.check_name(workload["name"])
    return spec


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still reaps every process it started (see finally).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "repro" / "experiments" / "cli.py").is_file():
        print(f"perfbench: no program source under {root / 'src'}; run from "
              "the repository root", file=sys.stderr)
        return 2
    spec = load_spec(root)

    ctx = Ctx(root, args)
    try:
        ctx.note(f"perfbench {args.workload} seed={args.seed} "
                 f"seconds={args.seconds:g} trace={args.trace}")
        ctx.note("provenance: " + json.dumps(provenance(ctx, args.workload), sort_keys=True))
        if args.workload == "serve":
            from perfbench import serve as module
        else:
            from perfbench import campaign as module
        try:
            out = module.run(ctx, args.workload)
        except Exception as exc:  # the program broke: nothing to report
            print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
        if ctx.trace:
            out["layer"]["process.peak_rss_mb"] = out["extra"]["peak_rss_mb"][0]
            out["layer"].update(import_times(ctx))
            trace_file = ctx.work / "traces" / f"{args.workload}-s{args.seed}.ndjson"
            ctx.tracer.write_ndjson(trace_file)
            ctx.note(f"spans: {len(ctx.tracer.spans)} written to {trace_file}")
            ctx.note(lib.share_table(
                ctx.tracer.spans, f"self-time shares, {args.workload} seed {args.seed}"))
        return report(ctx, spec, out)
    finally:
        ctx.close()
        shutil.rmtree(ctx.run_dir, ignore_errors=True)


def report(ctx: Ctx, spec: dict, out: dict) -> int:
    """Print the human report, then the one-line JSON result."""
    samples = out.get("samples", {})
    for metric in spec["end_to_end"]:
        name = metric["name"]
        count = f"  ({samples[name]} samples)" if name in samples else ""
        ctx.note(f"  {name:<14} {out['metrics'][name]:>14.6g} {metric['unit']}{count}")
    for name, (value, unit, n) in out["extra"].items():
        ctx.note(f"  {name:<14} {value:>14.6g} {unit}  ({n} samples)")
    for line in out["notes"]:
        ctx.note(f"  {line}")
    failed = out["failed"]
    ctx.note(f"operations: {out['attempted']} attempted, {len(failed)} failed")
    for tag, why in list(failed.items())[:20]:
        ctx.note(f"  FAILED {tag}: {why}")
    if ctx.trace:
        wanted = spec["per_layer"]
        values = {m["name"]: out["layer"].get(m["name"], 0.0) for m in wanted}
    else:
        wanted = spec["end_to_end"]
        values = {m["name"]: out["metrics"][m["name"]] for m in wanted}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({
        "correct": not failed,
        "attempted": out["attempted"],
        "failed": len(failed),
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
