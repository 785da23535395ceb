#!/usr/bin/env python3
"""hyperreg benchmark: one workload per process, closed loop, one thread.

    python3 perfbench/run.py --workload transfer --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
from a traced phase that follows an untraced one.  The last stdout line
is one JSON object {correct, attempted, failed, metrics}.  See README.md
in this directory for the workloads and what each metric should move.
"""

import time

PROCESS_T0 = time.perf_counter()  # set-up time is counted from here

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_runs"
MODULES = ("addresses", "hypergraph", "partitions", "regularity", "counting",
           "transforms", "sampling", "cli", "rng")
SETUP_REPS = 3
DEFAULT_SEED = 0
DIGEST_OPS = 4  # ops 0..3 of the default seed have recorded digests
TAIL_BEYOND = 10

from tracer import GcClock, Recorder, metric_units  # noqa: E402
from verify import CheckFailed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

E2E_UNITS = {"ops_per_s": "ops/s", "op_ms_p50": "ms", "op_ms_tail": "ms",
             "setup_s": "s", "peak_rss_mb": "MiB"}


class BenchError(Exception):
    pass


def import_library():
    """Fresh import of hyperreg from this checkout's src/ (nothing cached)."""
    if not (SRC / "hyperreg" / "__init__.py").is_file():
        raise BenchError(f"no hyperreg sources under {SRC}")
    for name in [m for m in sys.modules if m == "hyperreg" or m.startswith("hyperreg.")]:
        del sys.modules[name]
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("hyperreg")
    if Path(pkg.__file__).resolve().parent != SRC / "hyperreg":
        raise BenchError(f"imported hyperreg from {pkg.__file__}, not {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"hyperreg.{m}") for m in MODULES})


def set_up(name, seed, scale):
    """SETUP_REPS fresh imports + input generation + warm-up; the first is
    timed from process start.  Returns the last workload and the median."""
    times, wl = [], None
    for rep in range(SETUP_REPS):
        if wl is not None:
            wl.close()
        t0 = PROCESS_T0 if rep == 0 else perf_counter()
        lib = import_library()
        wl = WORKLOADS[name](lib, seed, scale)
        wl.warm_up()
        gc.collect()
        times.append(perf_counter() - t0)
    return wl, statistics.median(times)


def load_expected(name, seed, scale):
    if seed != DEFAULT_SEED or scale != "full":
        return []
    recorded = json.loads((HERE / "digests.json").read_text())
    return recorded.get(name, [])


def timed_phase(wl, seconds, first, expected, rec=None, log=sys.stderr):
    """Closed loop of whole rounds until `seconds` have passed and at least
    wl.min_ops ops ran.  Only op() is timed per op; ops_per_s is ops over
    the summed op time."""
    lat, digests, failed = [], [], 0
    start = perf_counter()
    i = first
    while True:
        inputs = wl.prepare(i)
        err = None
        t0 = perf_counter()
        try:
            out = rec.run_op(i, wl.op, inputs) if rec else wl.op(inputs)
        except Exception as exc:  # an op that raises is a failed op
            err = exc
        lat.append(perf_counter() - t0)
        if err is None:
            try:
                blob = wl.check(inputs, out)
                digest = hashlib.sha256(blob).hexdigest()
                digests.append(digest)
                k = i - first
                if k < len(expected) and digest != expected[k]:
                    raise CheckFailed(f"op {i} digest {digest} != recorded {expected[k]}")
            except Exception as exc:  # a check that cannot read the output fails it too
                err = exc
        if err is not None:
            failed += 1
            if failed <= 3:
                print(f"op {i} failed: {''.join(traceback.format_exception_only(err)).strip()}",
                      file=log)
        out = None
        i += 1
        n = i - first
        elapsed = perf_counter() - start
        if n % wl.round_size == 0 and n >= wl.min_ops and elapsed >= seconds:
            break
        if elapsed >= 4 * seconds and n >= 1:
            break
    return SimpleNamespace(lat=lat, failed=failed, digests=digests,
                           ops_per_s=len(lat) / sum(lat))


def tail(lat):
    """Latency at the highest percentile with TAIL_BEYOND ops beyond it."""
    s = sorted(lat)
    idx = max(len(s) - TAIL_BEYOND - 1, 0)
    return s[idx], 100.0 * (idx + 1) / len(s)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def emit(correct, attempted, failed, values, units):
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))


def run_workload(args):
    wl, setup_s = set_up(args.workload, args.seed, args.scale)
    expected = load_expected(args.workload, args.seed, args.scale)
    try:
        with GcClock() as gcc:
            plain = timed_phase(wl, args.seconds, 0, expected)
        attempted, failed = len(plain.lat), plain.failed
        combined = hashlib.sha256("".join(plain.digests[:DIGEST_OPS]).encode()).hexdigest()
        print(f"workload {args.workload} seed {args.seed} scale {args.scale}: "
              f"{attempted} ops, {failed} failed")
        print(f"fail_ratio {failed / attempted:.6g} ratio  ({failed} of {attempted} ops)")
        matched = bool(expected) and plain.digests[:len(expected)] == expected
        print(f"digest ops 0-{DIGEST_OPS - 1}: {combined}"
              + (" (matches recorded)" if matched else ""))
        for k, d in enumerate(plain.digests[:DIGEST_OPS]):
            print(f"  op {k} {d}")
        if not args.trace:
            t_val, t_pct = tail(plain.lat)
            values = {
                "ops_per_s": plain.ops_per_s,
                # the upper median is an actual op's latency, never a mean of
                # two ops from different instance sizes (certify's rounds)
                "op_ms_p50": 1000.0 * statistics.median_high(plain.lat),
                "op_ms_tail": 1000.0 * t_val,
                "setup_s": setup_s,
                "peak_rss_mb": peak_rss_mb(),
            }
            for k, u in E2E_UNITS.items():
                note = (f"  (p{t_pct:.1f} of {attempted} ops)" if k == "op_ms_tail"
                        else "")
                print(f"{k} {values[k]:.6g} {u}{note}")
            emit(failed == 0, attempted, failed, values, E2E_UNITS)
            return 0

        rec = Recorder()
        rec.install(wl.lib)
        io0 = (wl.bytes_read, wl.bytes_written)
        traced = timed_phase(wl, args.seconds, attempted, [], rec)
        values = rec.metrics()
        values["cli.main.bytes_read"] = wl.bytes_read - io0[0]
        values["cli.main.bytes_written"] = wl.bytes_written - io0[1]
        values["python.gc.collections"] = gcc.collections
        values["python.gc.s"] = gcc.seconds
        values["bench.trace.ops_per_s_untraced"] = plain.ops_per_s
        values["bench.trace.ops_per_s_traced"] = traced.ops_per_s
        values["bench.trace.overhead_ratio"] = plain.ops_per_s / traced.ops_per_s
        layer_sum = sum(v for k, v in values.items()
                        if k.endswith(".self_s")) + values["bench.op.unattributed_s"]
        identity = abs(layer_sum - values["bench.op.wall_s"]) <= 1e-6 * values["bench.op.wall_s"]
        OUT.mkdir(exist_ok=True)
        span_file = OUT / f"trace-{args.workload}-seed{args.seed}.tsv.gz"
        rec.write(span_file)
        units = metric_units()
        print(f"traced: {len(traced.lat)} ops, {traced.failed} failed, "
              f"{values['bench.trace.spans']} spans -> {span_file.relative_to(ROOT)}")
        print(f"self times + unattributed = {layer_sum:.6f} s, traced op wall = "
              f"{values['bench.op.wall_s']:.6f} s ({'ok' if identity else 'MISMATCH'})")
        for k in units:
            if k.endswith(".self_s") and values[k]:
                calls = values[k[:-len("self_s")] + "calls"]
                print(f"  {k[:-7]:55s} {calls:8d} calls {values[k]:10.4f} s self")
        emit(failed == 0 and traced.failed == 0 and identity,
             attempted + len(traced.lat), failed + traced.failed, values, units)
        return 0
    finally:
        wl.close()


def run_all(args):
    """Each workload in its own fresh process, one after another."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"workload {name} exited {proc.returncode}")
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        correct &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        metrics.update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny: small inputs for the benchmark's own tests")
    args = p.parse_args(argv)
    try:
        return run_all(args) if args.workload == "all" else run_workload(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
