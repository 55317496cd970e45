#!/usr/bin/env python3
"""circsing benchmark: drives the public CLI in-process and checks every output.

Usage (from the repository root):

    python3 bench/run.py --workload exact-union --seed 1 --seconds 20 --trace 0

One caller runs the workload's operations through ``circsing.cli.run`` in a
closed loop in this single process, pass after pass, until ``--seconds``
have passed (and at least ``MIN_PASSES`` passes ran).  Every operation
starts with cold library caches, as every CLI invocation does.  Outputs are
compared with the frozen references in ``references.json`` outside the
timed region; the Monte-Carlo workloads add shard, scalar and statistical
checks.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics from spans recorded by ``spans.py`` on alternate passes.
The last line of stdout is the result JSON; the line before it gives every
metric's samples and the environment.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

from spans import UNITS, LayerTracer
from workloads import (WORKLOADS, op_key, parse_exact, records_from_json,
                       same_records)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
MIN_PASSES = 3
# Set-up samples before the first pass and after each untraced pass.
SETUP_FIRST = 3
SETUP_BETWEEN = 2
# Rows at the head of the MC stream re-tested with the scalar exact test.
SCALAR_PREFIX = 1024
# Accuracy checks accept |p_hat - reference| up to this many standard errors.
Z_LIMIT = 5.0
SETUP_PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); "
               "import circsing.cli; circsing.cli.build_parser()")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def pin_environment() -> None:
    """One thread per numeric library, default budgets; before numpy loads."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    for var in ("CIRCSING_ENUM_BUDGET", "CIRCSING_BRUTE_BUDGET",
                "CIRCSING_SAMPLES_CAP"):
        os.environ.pop(var, None)


def load_library() -> dict:
    """Import circsing from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import circsing
    from circsing import asym, binomstats, cli, errors, mcsim, polycyc, singexact
    if SRC not in Path(circsing.__file__).resolve().parents:
        raise ImportError(f"circsing resolved to {circsing.__file__}, not {SRC}")
    return {"asym": asym, "binomstats": binomstats, "cli": cli, "errors": errors,
            "mcsim": mcsim, "polycyc": polycyc, "singexact": singexact}


def cached_functions() -> list:
    """Every lru-cached function in the loaded circsing modules."""
    found = []
    for name, module in list(sys.modules.items()):
        if name == "circsing" or name.startswith("circsing."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)) and obj not in found:
                    found.append(obj)
    return found


def measure_setup(repeats: int) -> list[float]:
    """Seconds from a fresh interpreter to circsing imported and ready."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC)],
                       check=True, timeout=120)
        times.append(time.perf_counter() - start)
    return times


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unavailable ({exc})"
    return done.stdout.strip() or "unavailable"


def environment(numpy_version: str) -> dict:
    return {"nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy_version,
            "platform": platform.platform(),
            "git_revision": git_revision(),
            "threads": {var: os.environ[var] for var in THREAD_VARS}}


class Runner:
    """Runs CLI operations with cold caches and tallies checked outcomes."""

    def __init__(self, lib: dict, workload, refs: dict):
        self.lib = lib
        self.cli = lib["cli"]
        self.workload = workload
        self.refs = refs
        self.caches = cached_functions()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, what: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
            print(f"bench: FAILED {what}", file=sys.stderr)
        return ok

    def call(self, argv, tracer: LayerTracer | None = None):
        """One CLI invocation: (exit code or None on exception, seconds, stdout)."""
        for fn in self.caches:
            fn.cache_clear()
            if fn.cache_info().currsize:
                raise RuntimeError(f"{fn.__qualname__} still caches after clearing")
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                if tracer is None:
                    code = self.cli.run(list(argv))
                else:
                    code = tracer.span("cli.run", self.cli.run, list(argv))
        except Exception:  # an exception is a failed operation, not a crash
            traceback.print_exc()
            code = None
        return code, time.perf_counter() - start, buf.getvalue()

    def check_exact(self, argv, code, out) -> int:
        """Number of exact values produced, or -1 when the output is wrong."""
        want = self.refs["exact"].get(op_key(argv))
        try:
            got = parse_exact(argv, out) if code == 0 else None
        except (ValueError, KeyError, TypeError):
            got = None
        ok = (got is not None and want is not None
              and same_records(got, records_from_json(want)))
        return len(got) if self.record(op_key(argv), ok) else -1

    def check_mc(self, argv, code, out, samples: int) -> dict | None:
        """The parsed estimate when it is well formed, else None."""
        try:
            est = json.loads(out) if code == 0 else None
            ok = (est is not None and est["samples"] == samples
                  and est["n"] == self.workload.mc_n
                  and est["p_hat"] == est["singular_count"] / samples)
        except (ValueError, KeyError, TypeError):
            ok = False
        return est if self.record(op_key(argv), ok) else None

    def run_pass(self, seed: int, tracer: LayerTracer | None) -> dict:
        """One pass over the workload's operations, in the seed's order."""
        op_s = []
        values = 0
        estimate = None
        for argv in self.workload.operations(seed):
            code, seconds, out = self.call(argv, tracer)
            op_s.append(seconds)
            if self.workload.kind == "mc":
                estimate = self.check_mc(argv, code, out, self.workload.mc_samples)
                values += self.workload.mc_samples
            else:
                values += max(self.check_exact(argv, code, out), 0)
        return {"op_s": op_s, "wall_s": sum(op_s), "values": values,
                "estimate": estimate}

    def mc_checks(self, seed: int, estimates: list) -> None:
        """Checks of the MC count, all outside the timed region."""
        w = self.workload
        ref = self.refs["mc"][w.name]
        counts = {e["singular_count"] for e in estimates if e is not None}
        if not self.record("mc: every pass gives one count", len(counts) == 1):
            return
        (count,) = counts
        est = next(e for e in estimates if e is not None)
        if seed == ref["seed"]:
            self.record("mc: frozen count at the default seed",
                        count == ref["singular_count"])

        argv = w.mc_argv(seed, w.mc_samples, shards=3)
        code, _, out = self.call(argv)
        sharded = self.check_mc(argv, code, out, w.mc_samples)
        self.record("mc: 3 shards give the 1-shard count",
                    sharded is not None and sharded["singular_count"] == count)

        argv = w.mc_argv(seed, SCALAR_PREFIX)
        code, _, out = self.call(argv)
        head = self.check_mc(argv, code, out, SCALAR_PREFIX)
        self.record(f"mc: first {SCALAR_PREFIX} rows agree with the scalar test",
                    head is not None
                    and head["singular_count"] == self.scalar_count(seed, SCALAR_PREFIX))

        if "exact_union" in ref:
            target = Fraction(*map(int, ref["exact_union"]))
            spread = est["stderr"]
            what = "exact union"
        else:
            target = ref["p_hat"]
            spread = math.hypot(est["stderr"], ref["stderr"])
            what = f"the seed-{ref['seed']} estimate"
        self.record(f"mc: p_hat within {Z_LIMIT} stderr of {what}",
                    abs(est["p_hat"] - float(target)) <= Z_LIMIT * spread)

    def scalar_count(self, seed: int, count: int) -> int:
        """Singular rows among the first `count` of the stream, by the scalar test.

        Rows are regenerated from the documented stream layout: sample i owns
        Philox 4x64 blocks [i*b, (i+1)*b) with b = ceil(n/4), and entry j is 1
        when the j-th output's top 53 bits, as a uniform, fall below q.
        """
        import numpy as np
        polycyc = self.lib["polycyc"]
        n, q = self.workload.mc_n, float(Fraction(self.workload.mc_q))
        bps = -(-n // 4)
        raw = np.random.Philox(key=seed).random_raw(count * bps * 4)
        rows = ((raw >> np.uint64(11)) * 2.0 ** -53).reshape(count, bps * 4)[:, :n] < q
        return sum(bool(polycyc.singular_divisors(
            polycyc.FirstRow(n, tuple(int(b) for b in row)))) for row in rows)


def run_workload(runner: Runner, seed: int, seconds: int, trace: bool):
    """Timed passes until `seconds` have passed and each kind has its minimum.

    Untraced runs take set-up samples before the first pass and after each
    pass, so that they spread over the run like the passes do.  Traced runs
    start with an untimed warm-up pass and alternate traced passes with
    plain ones, so that trace_overhead compares like with like.
    """
    tracer = LayerTracer() if trace else None
    if trace:
        runner.run_pass(seed, None)
    setup = [] if trace else measure_setup(SETUP_FIRST)
    plain, traced = [], []
    need = 2 if trace else MIN_PASSES
    start = time.perf_counter()
    while (len(plain) < need or (trace and len(traced) < need)
           or time.perf_counter() - start < seconds):
        if trace and len(plain) > len(traced):
            tracer.start_pass()
            tracer.install(runner.lib, runner.lib["errors"].BudgetExceededError)
            try:
                result = runner.run_pass(seed, tracer)
            finally:
                tracer.uninstall()
            result["layers"] = tracer.pass_metrics()
            traced.append(result)
        else:
            plain.append(runner.run_pass(seed, None))
            if not trace:
                setup += measure_setup(SETUP_BETWEEN)
    return plain, traced, tracer, setup


def typical_pass_s(passes: list[dict]) -> float:
    """Seconds of a typical pass: the sum over operations of their medians.

    Slow spells of a shared machine hit single operations; taking each
    operation's median across passes before summing keeps them out.
    """
    return sum(statistics.median(times) for times in zip(*(p["op_s"] for p in passes)))


def summarize(values: list[float], unit: str, value: float | None = None) -> dict:
    """A metric's reported value (the median unless given) and its samples."""
    return {"value": statistics.median(values) if value is None else value,
            "unit": unit, "samples": len(values), "values": values}


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_environment()
    try:
        lib = load_library()
    except ImportError as exc:
        print(f"bench: cannot import circsing from {SRC}: {exc}", file=sys.stderr)
        return 2
    import numpy

    workload = WORKLOADS[args.workload]
    refs = json.loads((HERE / "references.json").read_text(encoding="utf-8"))
    runner = Runner(lib, workload, refs)
    seed = args.seed % 2 ** 64
    plain, traced, tracer, setup = run_workload(runner, seed, args.seconds, bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if workload.kind == "mc":
        runner.mc_checks(seed, [p["estimate"] for p in plain + traced])

    if args.trace:
        layers = {name: summarize([p["layers"][name] for p in traced], unit)
                  for name, unit in UNITS.items()}
        overhead = typical_pass_s(traced) / typical_pass_s(plain)
        layers["trace_overhead"] = summarize([overhead], "ratio")
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans_file = out_dir / f"spans-{workload.name}-seed{args.seed}.jsonl"
        tracer.write(spans_file)
        detail = layers
    else:
        wall = typical_pass_s(plain)
        values = statistics.median(p["values"] for p in plain)
        detail = {
            "wall_s": summarize([p["wall_s"] for p in plain], "s", wall),
            "samples_per_s": summarize([p["values"] / p["wall_s"] for p in plain],
                                       "1/s", values / wall),
            "setup_s": summarize(setup, "s"),
            "peak_rss_mb": summarize([peak_rss_mb], "MB"),
        }
        spans_file = None

    error_share = runner.failed / runner.attempted
    print(json.dumps({
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "metrics": detail, "error_share": error_share,
        "failures": runner.failures,
        "spans_file": None if spans_file is None else str(spans_file.relative_to(ROOT)),
        "environment": environment(numpy.__version__)}))
    for name, m in detail.items():
        print(f"{workload.name}: {name} = {m['value']:.6g} {m['unit']} "
              f"(from {m['samples']} samples)", file=sys.stderr)
    print(f"{workload.name}: error_share = {error_share:.6g} "
          f"({runner.failed} of {runner.attempted} operations)", file=sys.stderr)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in detail.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
