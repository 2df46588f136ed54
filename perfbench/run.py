"""Benchmark for algdoe: seeded workloads driven through the public API.

Run from the repository root:

    python3 perfbench/run.py --workload ideal --seed 1 --seconds 30 --trace 0

Workloads (perfbench/workloads.json): ``ideal``, ``screening`` and
``conditional``.  Each is a closed loop with one client in one process.  The
seed fixes the inputs; ``--seconds`` fixes how many ops a run executes (one
block of ops per BLOCK_SECONDS), so two commits given the same arguments run
the same ops.
After every op an oracle checks the output outside the timed region; a wrong
or refused answer is a failed op and never ends the run.

Op times are scaled to a reference host speed.  Each op sits between two
runs of a fixed calibration loop of pure-Python Fraction, dict and tuple work
that calls no algdoe code, and its latency is reported as wall seconds *
CAL_REF_S / (mean calibration time).  A shared host's compute speed drifts by
tens of percent over seconds to minutes; the scaling cancels most of that
drift and leaves a change to algdoe's speed showing in full.  The summary
lines also print the unscaled figures.  Set-up and CLI times are plain wall
medians: they are dominated by process start-up and imports, whose drift the
calibration loop does not track (scaling them made their spread wider).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` times the calls
into each module from outside (perfbench/spans.py), prints the per-layer
metrics and writes the spans to .perfbench_out/.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  ``correct`` is false when an op fails in a way that none of the
recorded seed defects (workloads.json, known_defects) explains, when a CLI
subprocess fails or disagrees with the in-process answer, or when a set-up
probe or the untraced base run fails; the result line is printed either way.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from common import Failure

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
CONFIG = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
SETUP_PROBES = 8  # fresh processes; with this process, setup_s is a median of 9
# calls of each CLI command per run: one checks the answers (--trace 0); the
# per-layer cli.* metrics (--trace 1) are medians over CLI_REPS
CLI_REPS = 4
CLI_TIMEOUT_S = 120
CHILD_TIMEOUT_S = 170
CLI_COMMANDS = ("est", "alias", "classify", "indicator", "doptimal", "basis", "exact", "mctest")
CAL_REF_S = 0.002  # nominal time of calibration_loop(); scaled times use it as unit
BLOCK_SECONDS = 30  # nominal wall time of one block of ops when the benchmark was defined


def calibration_loop() -> float:
    """Seconds taken by a fixed piece of pure-Python work of the kinds algdoe
    spends its time on (Fraction arithmetic, dict and tuple operations).

    The cyclic garbage collector is off while it runs: a collection started
    by the loop's own allocations would walk the program's heap (caches,
    live results), and the loop must time the host, not that heap."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        acc = Fraction(0)
        table: dict = {}
        for i in range(1, 700):
            key = (i % 5, i % 7, i % 3)
            acc += Fraction(i % 7 + 1, i % 11 + 1)
            table[key] = table.get(key, 0) + acc.numerator % 97
        return perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def timed(fn):
    """(result, wall seconds, calibration seconds) of fn(), run between two
    calibration loops whose mean time is the third value."""
    before = calibration_loop()
    start = perf_counter()
    result = fn()
    wall = perf_counter() - start
    after = calibration_loop()
    return result, wall, (before + after) / 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(CONFIG["workloads"]))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="one block of the tiny inputs in workloads.json 'smoke'")
    # internal: one phase in a fresh process (set-up sample, untraced base)
    p.add_argument("--phase", choices=("all", "setup", "ops"), default="all",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def workload_config(args):
    cfg = dict(CONFIG["workloads"][args.workload])
    if args.smoke:
        cfg.update(CONFIG["smoke"][args.workload])
        return cfg, 1
    return cfg, max(1, round(args.seconds / BLOCK_SECONDS))


def setup(args):
    """Import algdoe and generate the inputs; returns (wall seconds, api,
    workload module, config, ops)."""
    start = perf_counter()
    api = importlib.import_module("algdoe")
    wl = importlib.import_module(args.workload)
    cfg, blocks = workload_config(args)
    ops = wl.generate(api, random.Random(f"{args.workload}:{args.seed}"), cfg, blocks)
    return perf_counter() - start, api, wl, cfg, ops


def child(args, phase):
    """Run one phase of this benchmark in a fresh process; returns its JSON.
    Raises RuntimeError when the phase times out or fails."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--phase", phase]
    if args.smoke:
        argv.append("--smoke")
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(f"{phase} phase timed out after {exc.timeout} s") from exc
    if proc.returncode != 0:
        raise RuntimeError(f"{phase} phase failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- the closed loop ---------------------------------------------------------------


def judge(api, wl, cfg, op, res, exc, state):
    """None for a correct op, else (error class, matching seed defect, detail)."""
    if exc is not None:
        # only conditional has seed defects that surface as exceptions
        defect = wl.error_defect(op, res, exc) if hasattr(wl, "error_defect") else None
        return type(exc).__name__, defect, str(exc)[:300]
    try:
        wl.check(api, op, res, state, cfg)
    except Failure as f:
        return f"oracle:{f.check}", f.defect, f.detail[:300]
    except Exception:  # the oracle could not read this output: the op is wrong
        return "oracle-error", None, traceback.format_exc(limit=3)[-300:]
    return None


class Loop:
    """Outcome of the closed loop: per-op scaled and wall latencies, verdicts."""

    def __init__(self):
        self.latencies: list[float] = []
        self.wall: list[float] = []
        self.verdicts: list = []
        self.oracle_s = 0.0

    def ops_per_s(self, latencies=None):
        correct = sum(v is None for v in self.verdicts)
        return correct / sum(self.latencies if latencies is None else latencies)


def run_ops(api, wl, cfg, ops, tracer=None, probes=None) -> Loop:
    """Execute every op, timing each, then judge its output."""
    loop = Loop()
    state: dict = {}
    for index, op in enumerate(ops):
        res: dict = {}

        def attempt():
            if tracer is not None:
                tracer.op = index
                tracer.recording = True
            try:
                wl.run_op(api, op, res, cfg)
            except Exception as e:  # a refused or crashed op is counted, not fatal
                return e
            finally:
                if tracer is not None:
                    tracer.recording = False
            return None

        exc, wall, cal = timed(attempt)
        loop.latencies.append(wall * CAL_REF_S / cal)
        loop.wall.append(wall)
        start = perf_counter()
        loop.verdicts.append(judge(api, wl, cfg, op, res, exc, state))
        loop.oracle_s += perf_counter() - start
        if probes is not None:
            probes.after(index)
    return loop


# -- CLI subprocesses ----------------------------------------------------------------


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(argv, env):
    """(completed process, wall seconds) of one `python -m algdoe.cli` call."""
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-m", "algdoe.cli", *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
    return proc, perf_counter() - start


class Probes:
    """Set-up probes and CLI subprocesses, run between ops (outside their
    timing) and spread evenly over the loop: the host's speed drifts over
    seconds, so samples taken in one burst would all see the same state."""

    def __init__(self, args, api, wl, cfg, ops, workdir, setup_probes, cli_reps):
        self.env = cli_env()
        self.setup: list[float] = []
        self.cli: dict[str, list[float]] = {"startup": []}
        self.outputs: list = []
        self.problems: list[str] = []  # probes that timed out or crashed
        cases = wl.cli_cases(api, ops, workdir, cfg)
        calls = []
        for rep in range(cli_reps):
            share = setup_probes // cli_reps + (rep < setup_probes % cli_reps)
            calls += [lambda: self._setup(args)] * share
            calls.append(lambda: self._cli("startup", ["--version"], None))
            calls += [lambda c=case: self._cli(*c) for case in cases]
        self.at: dict[int, list] = {}
        for j, call in enumerate(calls):
            self.at.setdefault(j * len(ops) // len(calls), []).append(call)

    def _setup(self, args):
        try:
            self.setup.append(child(args, "setup")["setup_s"])
        except RuntimeError as exc:
            self.problems.append(f"setup probe: {str(exc)[-300:]}")

    def _cli(self, name, argv, verify):
        try:
            proc, wall = run_cli(argv, self.env)
        except subprocess.TimeoutExpired:
            self.problems.append(f"cli {name}: timed out after {CLI_TIMEOUT_S} s")
            return
        self.cli.setdefault(name, []).append(wall)
        self.outputs.append((name, proc, verify))

    def after(self, index):
        for call in self.at.get(index, ()):
            call()

    def check(self, problems):
        """Every probe finished, every CLI exit code is 0, and each command's
        first answer equals the in-process answer for the same input."""
        problems.extend(self.problems)
        verified = set()
        for name, proc, verify in self.outputs:
            if proc.returncode != 0:
                problems.append(f"cli {name}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
            elif verify is not None and name not in verified:
                verified.add(name)
                try:
                    mismatch = verify(proc.stdout)
                except (ValueError, KeyError, IndexError) as exc:
                    mismatch = f"unreadable output: {exc!r}"
                if mismatch:
                    problems.append(f"cli {name}: {mismatch}")


# -- reporting --------------------------------------------------------------------------


def summarize(args, loop, problems):
    """Print the failure breakdown and the unscaled op figures; returns
    (failed, unexpected)."""
    verdicts = loop.verdicts
    failed = [v for v in verdicts if v is not None]
    unexpected = [v for v in failed if v[1] is None]
    by_class: dict[str, int] = {}
    by_defect: dict[str, int] = {}
    for cls, defect, _ in failed:
        by_class[cls] = by_class.get(cls, 0) + 1
        if defect:
            by_defect[defect] = by_defect.get(defect, 0) + 1
    print(f"perfbench {args.workload} seed={args.seed}: {len(verdicts)} ops, "
          f"{len(failed)} failed, fail_frac={len(failed) / len(verdicts):.4f}, "
          f"oracle {loop.oracle_s:.2f} s")
    print(f"  unscaled wall: ops_per_s={loop.ops_per_s(loop.wall):.4f} "
          f"op_p50_s={statistics.median(loop.wall):.4f} "
          f"op_p90_s={statistics.quantiles(loop.wall, n=10)[8]:.4f}")
    print(f"  failures by class: {json.dumps(by_class, sort_keys=True)}")
    print(f"  recorded seed defects: {json.dumps(by_defect, sort_keys=True)}")
    for cls, _, detail in unexpected:
        print(f"  UNEXPECTED {cls}: {detail}")
    for problem in problems:
        print(f"  PROBLEM {problem}")
    return len(failed), bool(unexpected or problems)


def emit(correct, attempted, failed, metrics):
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "algdoe" / "__init__.py").is_file():
        print(f"perfbench: no algdoe package under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.phase == "setup":
        print(json.dumps({"setup_s": setup(args)[0]}))
        return 0
    if args.phase == "ops":
        _, api, wl, cfg, ops = setup(args)
        print(json.dumps({"ops_per_s": run_ops(api, wl, cfg, ops).ops_per_s()}))
        return 0

    if args.trace:
        return traced(args)
    elapsed, api, wl, cfg, ops = setup(args)
    problems: list[str] = []
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        probes = Probes(args, api, wl, cfg, ops, Path(tmp), SETUP_PROBES, 1)
        loop = run_ops(api, wl, cfg, ops, probes=probes)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        probes.check(problems)
    failed, unexpected = summarize(args, loop, problems)
    print(f"  cli_p50_s={cli_p50(probes.cli):.4f} s (one call per command; per layer, "
          f"cli.p50_s is a median over {CLI_REPS} calls)")
    emit(not unexpected, len(ops), failed, {
        "ops_per_s": (loop.ops_per_s(), "1/s"),
        "op_p50_s": (statistics.median(loop.latencies), "s"),
        "op_p90_s": (statistics.quantiles(loop.latencies, n=10)[8], "s"),
        "setup_s": (statistics.median(probes.setup + [elapsed]), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    })
    return 0


def cli_p50(cli_times) -> float:
    """Median over this workload's commands of each command's median wall
    time; pooling the samples of two commands would put the median in the
    gap between them."""
    medians = [statistics.median(v) for k, v in cli_times.items() if k != "startup"]
    return statistics.median(medians) if medians else 0.0


def traced(args) -> int:
    """Untraced base in a fresh process, then the traced run in this one."""
    from spans import Tracer, layer_metrics

    problems: list[str] = []
    try:
        base = child(args, "ops")["ops_per_s"]
    except RuntimeError as exc:
        problems.append(f"untraced base run: {str(exc)[-300:]}")
        base = 0.0
    _, api, wl, cfg, ops = setup(args)
    tracer = Tracer()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        probes = Probes(args, api, wl, cfg, ops, Path(tmp), 0, CLI_REPS)
        tracer.install()
        try:
            loop = run_ops(api, wl, cfg, ops, tracer, probes)
        finally:
            tracer.uninstall()
        probes.check(problems)
    cli_times = probes.cli
    failed, unexpected = summarize(args, loop, problems)
    tracer.write(str(OUT / f"trace-{args.workload}-{args.seed}.json"))

    metrics = layer_metrics(tracer, len(ops))
    for name in ("startup",) + CLI_COMMANDS:
        t = cli_times.get(name)
        metrics[f"cli.{name}_s"] = (statistics.median(t) if t else 0.0, "s")
    metrics["cli.p50_s"] = (cli_p50(cli_times), "s")
    traced_rate = loop.ops_per_s()
    metrics["trace.untraced_ops_per_s"] = (base, "1/s")
    metrics["trace.traced_ops_per_s"] = (traced_rate, "1/s")
    metrics["trace.overhead_frac"] = (1.0 - traced_rate / base if base else 0.0, "ratio")
    metrics["bench.fail_frac"] = (failed / len(ops), "ratio")
    emit(not unexpected, len(ops), failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
