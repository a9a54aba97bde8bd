"""Seeded, closed-loop benchmark of subtoric.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One caller, one thread: each op is one call into subtoric's public API
(``verify_subset``, ``classify``, ``classify_oracle`` or ``cli.main``)
and the next op starts when it returns.  The program is imported from
``src/`` of the checkout holding this script.  Ops run in whole passes
until their summed time reaches ``--seconds``; every output is checked
after its op, outside the timed region.

Times are process CPU time (``time.process_time``): every op runs on one
thread and does no waiting, so on an idle core CPU time equals wall
time, and it leaves out the time a shared machine gives to other
processes.  A shared machine also changes how fast a process runs, by
up to half over minutes, so the run interleaves a fixed reference loop
with the ops (about 2% of the time) and scales the reported
``ops_per_s`` and ``setup_s`` to a machine on which that loop takes
``REF_NOMINAL_S``.  The unscaled figures are printed beside them.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
an untraced and a traced run of each pass and reports the per-layer
metrics (see tracing.py).  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
nonzero when any op raised or gave a wrong output.  ``--workload all``
runs every workload both ways, each in its own process, and prints a
summary.
"""

from __future__ import annotations

import argparse
import functools
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

CLOCK = time.process_time
SETUP_REPEATS = 5
REF_NOMINAL_S = 0.020
REF_EVERY_S = 0.5
# A run stops starting passes after this much wall time, so that it ends
# well inside three minutes even on a much slower program.
WALL_LIMIT_S = 120.0
END_TO_END_UNITS = {"ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


class ProgramMissing(RuntimeError):
    pass


def import_program():
    """Import subtoric afresh from this checkout's src/."""
    for name in [n for n in sys.modules if n == "subtoric" or n.startswith("subtoric.")]:
        del sys.modules[name]
    if not (SRC / "subtoric" / "__init__.py").is_file():
        raise ProgramMissing(f"no subtoric package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    st = importlib.import_module("subtoric")
    for sub in ("tables", "binomials", "ideal", "fibers", "verify", "cli"):
        importlib.import_module(f"subtoric.{sub}")
    if Path(st.__file__).resolve().parent != (SRC / "subtoric").resolve():
        raise ProgramMissing(f"imported subtoric from {st.__file__}, not {SRC}")
    return st


def plain_api(st) -> SimpleNamespace:
    return SimpleNamespace(
        verify_subset=st.verify.verify_subset,
        classify=st.tables.classify,
        classify_oracle=st.tables.classify_oracle,
        cli_main=st.cli.main,
    )


def traced_api(st, tracer) -> SimpleNamespace:
    return SimpleNamespace(**{k: tracer.wrap(fn) for k, fn in vars(plain_api(st)).items()})


def set_up(workload, seed: int, work_dir: Path):
    """Import, generate the first pass and fill module caches.

    Returns (seconds, env, first pass).  Re-importing drops the module
    caches of the previous set-up, so each repeat pays the full cost.
    """
    gc.collect()
    start = CLOCK()
    st = import_program()
    env = SimpleNamespace(st=st, work_dir=work_dir)
    workload.prepare(env)
    first = workload.make_pass(env, workloads.pass_rng(seed, 0))
    for m, n, degree in workload.warm:
        full = st.Subset.full(m, n)
        for d in range(degree + 1):
            st.fibers.fibers_of_degree(full, d)
    return CLOCK() - start, env, first


def reference_loop() -> float:
    """CPU seconds of a fixed loop of tuple, dict and sort work, the kind
    of interpreter work subtoric does."""
    start = CLOCK()
    totals: dict = {}
    for i in range(45000):
        key = (i % 97, i % 13)
        totals[key] = totals.get(key, 0) + i
    sorted(totals.items())
    return CLOCK() - start


class Calibration:
    """Reference-loop samples taken every REF_EVERY_S of op time."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = -REF_EVERY_S

    def sample(self) -> None:
        self.samples.append(reference_loop())

    def tick(self, spent: float) -> None:
        if spent - self._last >= REF_EVERY_S:
            self._last = spent
            self.sample()

    @property
    def slowdown(self) -> float:
        """How much slower than nominal the machine ran."""
        return statistics.fmean(self.samples) / REF_NOMINAL_S


class Ledger:
    """Attempted and failed ops, with the first few problems."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(f"{label}: {'; '.join(problems)}")


def run_op(call, check, item, seen):
    """Time call(item), then check its output: (seconds, output,
    fingerprint, problems)."""
    start = CLOCK()
    try:
        out = call(item)
    except Exception as exc:  # a raising op is a failed op, not a crash
        return CLOCK() - start, None, None, [f"raised {exc!r}"]
    elapsed = CLOCK() - start
    try:
        fingerprint, problems = check(item, out, seen)
    except Exception as exc:  # malformed output the checks could not read
        fingerprint, problems = None, [f"check raised {exc!r}"]
    return elapsed, out, fingerprint, problems


def passes(workload, env, first, seed: int, seconds: float, spent):
    """Yield pass k = 0, 1, ... until spent() reaches `seconds`."""
    started = time.monotonic()
    k = 0
    items = first
    while True:
        yield k, items
        k += 1
        if spent() >= seconds or time.monotonic() - started > WALL_LIMIT_S:
            return
        items = workload.make_pass(env, workloads.pass_rng(seed, k))


def measure(workload, seed: int, seconds: float, work_dir: Path) -> dict:
    """The untraced run: end-to-end metrics."""
    setup_cal, run_cal = Calibration(), Calibration()
    setups = []
    for _ in range(SETUP_REPEATS):
        setup_cal.sample()
        elapsed, env, first = set_up(workload, seed, work_dir)
        setups.append(elapsed)
    setup_cal.sample()
    api = plain_api(env.st)
    call = functools.partial(workload.run, api)
    ledger = Ledger()
    latencies: list[float] = []
    spent = 0.0
    for k, items in passes(workload, env, first, seed, seconds, lambda: spent):
        seen: dict = {}
        for i, item in enumerate(items):
            run_cal.tick(spent)
            elapsed, _out, _fp, problems = run_op(call, workload.check, item, seen)
            latencies.append(elapsed)
            spent += elapsed
            ledger.record(f"pass {k} op {i}", problems)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    cpu_ops_per_s = len(latencies) / spent
    metrics = {
        "ops_per_s": cpu_ops_per_s * run_cal.slowdown,
        "setup_s": statistics.median(setups) / setup_cal.slowdown,
        "peak_rss_mb": rss_kb / 1024.0,
    }
    extra = {
        "ops": len(latencies),
        "cpu_ops_per_s": cpu_ops_per_s,
        "cpu_setup_s": statistics.median(setups),
        "slowdown": run_cal.slowdown,
        "op_ms_p50": 1000.0 * statistics.median(latencies),
        "op_ms_p90": 1000.0 * statistics.quantiles(latencies, n=10)[8]
        if len(latencies) >= 100
        else None,
        "fail_ratio": ledger.failed / ledger.attempted,
        "setup_runs_s": setups,
    }
    return result(ledger, metrics, END_TO_END_UNITS, extra)


def measure_traced(workload, seed: int, seconds: float, work_dir: Path, spans_path) -> dict:
    """The traced run: each pass once untraced, then once traced."""
    _elapsed, env, first = set_up(workload, seed, work_dir)
    call = functools.partial(workload.run, plain_api(env.st))
    tracer = tracing.Tracer()
    traced_call = tracer.wrap(
        functools.partial(workload.run, traced_api(env.st, tracer)), tracing.OP_SPAN
    )
    stdout_bytes = getattr(workload, "stdout_bytes", None)
    ledger = Ledger()
    plain_s = traced_s = 0.0
    ops = 0
    for k, items in passes(workload, env, first, seed, seconds, lambda: plain_s + traced_s):
        plain_fps = []
        seen: dict = {}
        for i, item in enumerate(items):
            elapsed, _out, fp, problems = run_op(call, workload.check, item, seen)
            plain_s += elapsed
            plain_fps.append(fp)
            ledger.record(f"pass {k} op {i}", problems)
        seen = {}
        tracer.install()
        try:
            for i, item in enumerate(items):
                elapsed, out, fp, problems = run_op(traced_call, workload.check, item, seen)
                traced_s += elapsed
                ops += 1
                if fp != plain_fps[i]:
                    problems = problems + ["fingerprint differs between untraced and traced run"]
                if stdout_bytes is not None and out is not None:
                    tracer.counts["cli.stdout_bytes"] += stdout_bytes(out)
                ledger.record(f"pass {k} traced op {i}", problems)
        finally:
            tracer.uninstall()
    tracer.write(spans_path)
    metrics = tracing.layer_metrics(tracer.spans, tracer.counts, ops, plain_s, traced_s)
    return result(ledger, metrics, tracing.PER_LAYER_UNITS, {"traced_ops": ops})


def result(ledger: Ledger, metrics: dict, units: dict, extra: dict) -> dict:
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "extra": extra,
        "notes": ledger.notes,
    }


def run_one(name: str, seed: int, seconds: float, trace: bool, workload=None) -> dict:
    workload = workload or workloads.WORKLOADS[name]
    work_dir = OUT_DIR / f"work-{os.getpid()}"
    try:
        if trace:
            OUT_DIR.mkdir(exist_ok=True)
            spans = OUT_DIR / f"spans-{name}-seed{seed}.tsv"
            return measure_traced(workload, seed, seconds, work_dir, spans)
        return measure(workload, seed, seconds, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def report(name: str, res: dict) -> None:
    """Human-readable lines ahead of the JSON line."""
    ex = res["extra"]
    if "ops" in ex:
        p90 = ex["op_ms_p90"]
        print(
            f"# {name}: ops={ex['ops']} fail_ratio={ex['fail_ratio']:.4g} "
            f"op_ms_p50={ex['op_ms_p50']:.4g} ms "
            f"op_ms_p90={'%.4g ms' % p90 if p90 is not None else 'n/a (<100 ops)'}"
        )
        print(
            f"# unscaled CPU time: ops_per_s={ex['cpu_ops_per_s']:.6g} 1/s "
            f"setup_s={ex['cpu_setup_s']:.6g} s (runs {[round(s, 4) for s in ex['setup_runs_s']]}); "
            f"machine ran {ex['slowdown']:.3f}x the reference time"
        )
    else:
        print(f"# {name}: traced ops={ex['traced_ops']}")
    for key, m in res["metrics"].items():
        print(f"#   {key} = {m['value']:.6g} {m['unit']}")
    for note in res["notes"]:
        print(f"# FAIL {note}", file=sys.stderr)


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a child process."""
    code = 0
    summary = {}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            argv = [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", name,
                "--seed", str(seed),
                "--seconds", str(seconds),
                "--trace", str(trace),
            ]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            try:
                res = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                res = {"correct": False}
            summary[f"{name}/trace{trace}"] = res
            if proc.returncode != 0 or not res["correct"]:
                code = 1
            print(f"== {name} (trace {trace}, exit {proc.returncode})")
            for line in lines[:-1]:
                print(line)
    print(json.dumps({"correct": code == 0, "runs": summary}, sort_keys=True))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds)
        res = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    report(args.workload, res)
    print(
        json.dumps(
            {k: res[k] for k in ("correct", "attempted", "failed", "metrics")},
            sort_keys=True,
        )
    )
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
