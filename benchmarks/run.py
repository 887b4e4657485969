#!/usr/bin/env python3
"""walkstop benchmark: time walkstop's public functions on four workloads.

    python3 benchmarks/run.py --workload short-walks --seed 0 --seconds 10 --trace 0
    python3 benchmarks/run.py --workload all --seed 0          # every workload in turn
    python3 benchmarks/run.py --workload long-walks --seed 0 --digests

Run from the repository root; walkstop is imported from ./src.  The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics with `--trace 1`.  Metric names and units come from
BENCHMARK.json.  See benchmarks/README.md.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy loads; pool workers and set-up probes inherit this.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import fields, is_dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
WORKLOAD_NAMES = ("short-walks", "long-walks", "cli-pool", "exact-dp")
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120
MAX_WORKERS = 2


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _import_walkstop():
    """Import walkstop from this checkout's src/, never from an installed copy."""
    package = SRC / "walkstop"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"run.py: no walkstop sources at {package}; run from a walkstop checkout")
    sys.path.insert(0, str(SRC))
    import walkstop

    if Path(walkstop.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"run.py: imported walkstop from {walkstop.__file__}, not from {package}")
    return walkstop


def _declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def _feed(h, obj) -> None:
    if isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in fields(obj):
            _feed(h, getattr(obj, f.name))
    elif isinstance(obj, dict):
        for key in sorted(obj, key=str):
            h.update(f"<{key}>".encode())
            _feed(h, obj[key])
    elif isinstance(obj, (list, tuple)):
        h.update(f"({len(obj)}".encode())
        for item in obj:
            _feed(h, item)
    else:
        h.update(f"{obj!r};".encode())


def digests(outputs: dict) -> dict[str, str]:
    """sha256 of each operation group's outputs (floats bit for bit)."""
    out = {}
    for name, obj in outputs.items():
        h = hashlib.sha256()
        _feed(h, obj)
        out[name] = h.hexdigest()
    return out


def _setup_seconds(workload: str, seed: int) -> float:
    """Median wall time of fresh interpreters that import, build inputs and warm up."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe", "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=PROBE_TIMEOUT_S, check=False,
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit(f"run.py: set-up probe failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return statistics.median(times)


def _peak_rss_mb() -> float:
    """Peak RSS of this process or of its largest waited-for child (pool workers, probes)."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def run_workload(args) -> int:
    walkstop = _import_walkstop()
    from checks import Checks
    from recorder import Recorder, by_name
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    workers = min(MAX_WORKERS, _nproc())
    if args.probe:
        wl.warm_up(wl.build(args.seed, workers))
        return 0

    declared = _declared_metrics()
    setup_s = _setup_seconds(args.workload, args.seed) if not (args.trace or args.digests) else None
    inp = wl.build(args.seed, workers)
    wl.warm_up(inp)

    rec, chk = Recorder(), Checks()
    walls: dict[bool, list[float]] = {False: [], True: []}
    first_digests = None
    began = time.perf_counter()
    rounds = 0
    while True:
        out = None  # one round's outputs in memory at a time, however many rounds run
        # Traced runs alternate untraced and traced rounds, so that the
        # tracing overhead is measured under the same conditions.
        rec.tracing = bool(args.trace) and rounds % 2 == 1
        t0 = time.perf_counter()
        with rec.span("bench.round"):
            out = wl.round(inp, rec)
        walls[rec.tracing].append(time.perf_counter() - t0)
        rec.tracing = False
        rounds += 1
        if args.digests:
            print(json.dumps({"workload": wl.name, "seed": args.seed, "digests": digests(out)}, indent=1))
            return 0
        got = digests(out)
        if first_digests is None:
            first_digests = got
        else:
            bad = sorted(k for k in got if got[k] != first_digests.get(k))
            chk.expect(not bad, f"round {rounds}: outputs differ from round 1 in {bad}")
        if time.perf_counter() - began >= args.seconds and (not args.trace or rounds % 2 == 0):
            break

    if args.trace:
        rec.tracing = True
        wl.extra(inp, rec, out, chk)
        rec.tracing = False
    wl.check(inp, out, chk)

    stamp = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "rounds": rounds, "nproc": _nproc(), "workers": workers,
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "walkstop": getattr(walkstop, "__version__", "unknown"),
    }
    round_wall = statistics.median(walls[False])
    if args.trace:
        traced = walls[True]
        values = wl.layer_metrics(by_name(rec.spans), len(traced), round_wall)
        values["trace.overhead_s"] = statistics.median(traced) - round_wall
        OUT_DIR.mkdir(exist_ok=True)
        rec.write_spans(OUT_DIR / f"spans-{wl.name}-seed{args.seed}.json", stamp)
        listed = declared["per_layer"]
    else:
        values = {"setup_s": setup_s, "wall_s": round_wall, "peak_rss_mb": _peak_rss_mb()}
        listed = declared["end_to_end"]
    # Every declared metric is printed; a layer this workload never enters reads 0.
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]} for m in listed}

    for line in (rec.errors + chk.failures)[:40]:
        print(f"run.py: {line}", file=sys.stderr)
    print(json.dumps({"stamp": stamp, "checks": chk.count, "check_failures": len(chk.failures)}))
    print(json.dumps({
        "correct": not chk.failures,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own interpreter, then one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900, check=False)
        if proc.returncode != 0:
            raise SystemExit(f"run.py: workload {name} exited {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric, v in result["metrics"].items():
            print(f"  {metric:<58} {v['value']:>16.6g} {v['unit']}")
            combined["metrics"][f"{name}.{metric}"] = v
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0, help="measure rounds for at least this long")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from spans")
    p.add_argument("--digests", action="store_true", help="run one round and print per-operation output digests")
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
