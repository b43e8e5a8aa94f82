"""qgrass benchmark: one workload in one process, in a closed loop.

    python3 qbench/run.py --workload {verify_all,solve,construct_large} \\
        --seed N --seconds S --trace {0,1}

Run it from the repository root; it imports qgrass from ``src/`` next to
this directory and refuses to run without it.

``--trace 0`` runs one untimed warm-up pass, then timed passes for S
seconds (at least three), and reports the end-to-end metrics:

* ``wall_s`` -- seconds per pass at a reference host speed: the sum over
  ops of the op's median time over passes, each op time scaled by
  PROBE_NOMINAL_S over the faster of the two host probe runs just before
  and after it (an interruption only ever slows a probe down).  The
  unscaled median pass time is printed as ``raw_wall_s``.  On a shared
  2-vCPU virtual machine host speed drifted by 20-50% over tens of
  seconds; there, the unscaled medians of ten 30 s runs spread by 11-34%
  ((q3-q1)/median) and the scaled sums by 3-10%.
* ``setup_s`` -- ``import qgrass`` plus building the inputs, scaled like
  ``wall_s`` by the faster of two probe runs made right after it: the
  median of this process and SETUP_CHILDREN fresh set-up-only processes
  started between passes.  The unscaled median is printed as
  ``raw_setup_s``.
* ``peak_rss_mb`` -- peak resident memory of this process.

It also prints ``failed_frac``, the ops that failed their check over the
ops attempted (the ``failed`` and ``attempted`` fields of the result).

``--trace 1`` alternates untraced and traced passes for S seconds and
reports the per-layer metrics of ``tracing.PER_LAYER``, each the median
over traced passes, and the tracing overhead (traced minus untraced
median pass time).

Every metric is printed by name with its unit; the run's metadata (and in
trace mode its spans) goes to ``.bench_out/`` under the repository root;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("verify_all", "solve", "construct_large")
END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]
SETUP_CHILDREN = 6
MIN_PASSES = 3
PROBE_NOMINAL_S = 0.030
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def set_up(workload: str, seed: int):
    """Import qgrass and build the workload's ops: the timed set-up."""
    start = perf_counter()
    if str(SRC) not in sys.path:
        sys.path.insert(1, str(SRC))  # after this directory, before site-packages
    import workloads  # imports numpy and qgrass, so they count as set-up

    ops = workloads.WORKLOADS[workload](seed, OUT)
    elapsed = perf_counter() - start
    imported = Path(workloads.catalog.__file__).resolve().parent
    if imported != SRC / "qgrass":
        raise SystemExit(f"error: qgrass was imported from {imported}, not {SRC}")
    return workloads, ops, elapsed


@dataclass(frozen=True)
class _Key:
    a: int
    b: int

    def __lt__(self, other: "_Key") -> bool:
        return (self.a, self.b) < (other.a, other.b)


class HostProbe:
    """About 30 ms of fixed work in the mix qgrass spends its time on:
    integer arithmetic, dict updates on tuple keys, sorting objects with a
    Python ``__lt__``, and small complex SVDs."""

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self.matrix = rng.standard_normal((48, 48)) + 1j * rng.standard_normal((48, 48))
        self.svd = np.linalg.svd

    def __call__(self) -> float:
        start = perf_counter()
        acc = 0
        for i in range(100_000):
            acc = (acc * 31 + i) % 1_000_003
        terms: dict = {}
        for i in range(12_000):
            key = ((i * 7919) % 2048, i % 13)
            terms[key] = terms.get(key, 0j) + complex(i, acc)
        sorted(_Key((i * 7919) % 211, i % 7) for i in range(2500))
        for _ in range(12):
            self.svd(self.matrix, compute_uv=False)
        return perf_counter() - start


def _call(op):
    try:
        return op.run()
    except Exception as exc:  # a raising op fails its check; the run goes on
        return exc


def run_pass(ops, tracer=None, probe=None) -> tuple[list[float], list[float], list]:
    """Run every op once.  Returns each op's seconds, the probe seconds
    before the first op and after each op (when probing), and the outputs."""
    seconds, probes, results = [], [probe()] if probe else [], []
    with tracer.span("workload") if tracer else nullcontext():
        for op in ops:
            start = perf_counter()
            with tracer.operation(op.name) if tracer else nullcontext():
                results.append(_call(op))
            seconds.append(perf_counter() - start)
            if probe:
                probes.append(probe())
    return seconds, probes, results


@dataclass
class Tally:
    """Outcome of every op checked in a run."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    last_good: dict = field(default_factory=dict)

    def record(self, ops, results) -> None:
        for op, result in zip(ops, results):
            self.attempted += 1
            if isinstance(result, Exception):
                problem = f"raised {result!r}"
            else:
                try:
                    problem = op.check(result)
                except Exception as exc:  # a check that cannot read the output fails it
                    problem = f"check raised {exc!r}"
            if problem is None:
                self.last_good[op.name] = result
            else:
                self.failed += 1
                self.problems.append(f"{op.name}: {problem}")


def probed(setup_s: float) -> tuple[float, float]:
    """Set-up seconds and the faster of two probe runs made right after."""
    probe = HostProbe()
    return setup_s, min(probe(), probe())


def setup_child(workload: str, seed: int) -> tuple[float, float]:
    """``probed`` set-up of a fresh process that only sets up."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, cwd=ROOT, check=True,
    )
    setup_s, probe_s = proc.stdout.split()[-2:]
    return float(setup_s), float(probe_s)


def timed_run(ops, seconds: float, workload: str, seed: int):
    """Warm up, then timed passes for ``seconds`` (at least MIN_PASSES).

    Set-up-only processes are started between passes, spread over the run
    so that they meet the same host speeds as the passes.  Returns each
    pass's op seconds, each pass's probe seconds (before the first op and
    after each op), the child set-up seconds and the tally.
    """
    probe = HostProbe()
    tally = Tally()
    tally.record(ops, run_pass(ops)[2])  # warm-up
    op_seconds, probes, setups = [], [], []
    start = perf_counter()
    while len(op_seconds) < MIN_PASSES or perf_counter() - start < seconds:
        if (len(setups) < SETUP_CHILDREN
                and perf_counter() - start >= len(setups) * seconds / SETUP_CHILDREN):
            setups.append(setup_child(workload, seed))
        times, around, results = run_pass(ops, probe=probe)
        op_seconds.append(times)
        probes.append(around)
        tally.record(ops, results)
    while len(setups) < SETUP_CHILDREN:
        setups.append(setup_child(workload, seed))
    return op_seconds, probes, setups, tally


def traced_run(workloads, ops, workload: str, seed: int, seconds: float):
    """Alternate untraced and traced passes; per-layer metrics per traced pass."""
    from tracing import PER_LAYER, Tracer, span_metrics

    probe = HostProbe()
    tally = Tally()
    tally.record(ops, run_pass(ops)[2])  # warm-up
    tracer = Tracer()
    with tracer.installed(), tracer.span("setup"):
        workloads.WORKLOADS[workload](seed, OUT)
    setup = span_metrics(tracer.spans, 0, {})
    plain, traced, per_pass, probes = [], [], [], []
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        probes.append(probe())
        op_seconds, _, results = run_pass(ops)
        plain.append(sum(op_seconds))
        tally.record(ops, results)
        base = len(tracer.spans)
        tracer.counts.clear()
        with tracer.installed():
            op_seconds, _, results = run_pass(ops, tracer)
        traced.append(sum(op_seconds))
        tally.record(ops, results)
        per_pass.append(span_metrics(tracer.spans, base, tracer.counts))

    layer = {}
    for name, unit, _better in PER_LAYER:
        if name == "trace.overhead_s":
            value = statistics.median(traced) - statistics.median(plain)
        elif name == "host.probe_s":
            value = statistics.median(probes)
        elif name.endswith(".setup_s"):
            value = setup.get(name.removesuffix(".setup_s") + ".total_s", 0.0)
        else:
            value = statistics.median(p.get(name, 0.0) for p in per_pass)
        layer[name] = (value, unit)
    trace = {"untraced_wall_s": plain, "traced_wall_s": traced, "per_pass": per_pass,
             "span_fields": ["name", "start", "end", "parent", "op"], "spans": tracer.spans}
    return layer, probes, tally, trace


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(args, ops, tally: Tally) -> dict:
    import numpy
    import qgrass

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "qgrass_version": qgrass.__version__,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "ops": [
            {"name": op.name, **(op.info(tally.last_good[op.name])
                                 if op.name in tally.last_good else {})}
            for op in ops
        ],
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_frac": tally.failed / tally.attempted,
        "problems": tally.problems[:50],
    }


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "samples": values}


def _line(name: str, value: float, unit: str, detail: str = "") -> str:
    return f"{name:40s} {value:14.6g} {unit:6s} {detail}".rstrip()


def _spread_line(name: str, stats: dict, unit: str) -> str:
    return _line(name, stats["median"], unit,
                 f"median; q1 {stats['q1']:.6g}, q3 {stats['q3']:.6g}, n={stats['n']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "qgrass" / "__init__.py").is_file():
        sys.stderr.write(f"error: no qgrass sources at {SRC}; run from a full checkout\n")
        return 2
    OUT.mkdir(exist_ok=True)
    workloads, ops, setup_s = set_up(args.workload, args.seed)
    if args.setup_only:
        print(*map(repr, probed(setup_s)))
        return 0

    print(f"# qgrass benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}, {len(ops)} ops per pass")
    if args.trace:
        layer, probes, tally, trace = traced_run(workloads, ops, args.workload, args.seed,
                                                 args.seconds)
        meta = metadata(args, ops, tally)
        meta.update(per_layer={k: v for k, (v, _u) in layer.items()}, host_probe_s=probes,
                    trace=trace)
        metrics = layer
        for name, (value, unit) in layer.items():
            print(_line(name, value, unit))
    else:
        own_setup = probed(setup_s)
        op_seconds, pass_probes, setups, tally = timed_run(ops, args.seconds, args.workload,
                                                           args.seed)
        setups = [own_setup, *setups]
        raw = spread([sum(times) for times in op_seconds])
        scaled = [[t * PROBE_NOMINAL_S / min(a, b) for t, a, b in zip(times, around, around[1:])]
                  for times, around in zip(op_seconds, pass_probes)]
        wall = spread([sum(times) for times in scaled])
        wall_s = sum(statistics.median(op) for op in zip(*scaled))
        setup = spread([s * PROBE_NOMINAL_S / p for s, p in setups])
        raw_setup = spread([s for s, _p in setups])
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        probes = [p for around in pass_probes for p in around]
        meta = metadata(args, ops, tally)
        meta.update(wall_s=wall_s, scaled_pass_s=wall, raw_wall_s=raw, setup_s=setup,
                    raw_setup_s=raw_setup, setup_probe_s=[p for _s, p in setups],
                    peak_rss_mb=peak_rss_mb,
                    op_seconds=op_seconds, host_probe_s=pass_probes)
        metrics = {"wall_s": (wall_s, "s"), "setup_s": (setup["median"], "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
        print(_line("wall_s", wall_s, "s", "sum of per-op medians"))
        print(_spread_line("scaled_pass_s", wall, "s"))
        print(_spread_line("raw_wall_s", raw, "s"))
        print(_spread_line("setup_s", setup, "s"))
        print(_spread_line("raw_setup_s", raw_setup, "s"))
        print(_line("peak_rss_mb", peak_rss_mb, "MB"))
    print(_line("failed_frac", meta["failed_frac"], "ratio",
                f"{tally.failed} of {tally.attempted} ops"))
    print(_line("host.probe_s", statistics.median(probes), "s",
                f"median of {len(probes)}, min {min(probes):.6g}, max {max(probes):.6g}"))
    for problem in tally.problems[:10]:
        print(f"FAILED {problem}")
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(meta, default=repr))
    print(f"# metadata written to {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
