"""Run one workload for a measurement window and report its metrics.

A run generates the workload's inputs from the seed, then repeats
*reps* until the window is used up.  Each rep builds a fresh testbed
(timed as set-up), runs the timed phase, and checks the outputs.
Host-clock metrics are medians over the reps of host times scaled by a
reference loop timed around each rep (:mod:`perfbench.calibrate`);
simulated metrics must repeat exactly in every rep, which the run
checks.

With ``trace=False`` every rep runs the program untouched and the run
reports the end-to-end metrics.  With ``trace=True`` one plain rep is
followed by reps with every layer entry point wrapped
(:mod:`perfbench.layers`), and the run reports the per-layer metrics.
"""

from __future__ import annotations

import gc
import importlib
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .calibrate import REFERENCE_S, reference_seconds
from .layers import PER_LAYER, install, layer_metrics
from .spans import Recorder, TimedGenerator
from .workloads import WORKLOADS, SyscallLog, drive_all

__all__ = ["END_TO_END", "Rep", "run_rep", "run", "host_info"]

#: (name, unit, better) of every end-to-end metric, in report order;
#: ``sim_s``/``sim_ms`` are seconds/milliseconds of simulated time
END_TO_END: List[Tuple[str, str, str]] = [
    ("ops_per_s", "1/s", "higher"),
    ("run_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("sim_s", "sim_s", "lower"),
    ("sim_op_p50_ms", "sim_ms", "lower"),
    ("sim_op_p99_ms", "sim_ms", "lower"),
    ("rpcs", "count", "lower"),
    ("disk_ios", "count", "lower"),
    ("success_rate", "ratio", "higher"),
]

#: simulated results that must repeat exactly for one seed
DETERMINISTIC = ("sim_s", "rpcs", "disk_ios", "sim_op_p50_ms", "sim_op_p99_ms")

#: the program modules a workload's set-up imports (timed as set-up)
_PROGRAM_MODULES = (
    "repro", "repro.experiments.cluster", "repro.fs.types", "repro.host",
    "repro.net", "repro.sim", "repro.snfs", "repro.workloads",
)

_clock = time.perf_counter


def host_info() -> Dict[str, object]:
    return {
        "host": platform.node(),
        "machine": platform.machine(),
        "python": "%s %s" % (platform.python_implementation(), platform.python_version()),
        "nproc": os.cpu_count(),
    }


def sim_counters(hosts) -> Dict[str, float]:
    """The testbed's simulated counters, summed over every host."""
    out = {"rpcs": 0, "retransmits": 0, "disk_ios": 0, "disk_busy_sim_s": 0.0,
           "cpu_busy_sim_s": 0.0}
    for host in hosts:
        calls = host.rpc.client_stats.as_dict()
        retrans = sum(n for proc, n in calls.items() if proc.endswith(".retransmit"))
        out["retransmits"] += retrans
        out["rpcs"] += sum(calls.values()) - retrans
        out["cpu_busy_sim_s"] += host.cpu.busy_time()
        for disk in host.disks.values():
            out["disk_ios"] += disk.stats.get("reads") + disk.stats.get("writes")
            out["disk_busy_sim_s"] += disk.busy_time()
    return out


def percentile(ordered: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tail_quantile(n: int) -> float:
    """0.99, or the highest quantile with at least ten samples beyond it."""
    return max(0.5, min(0.99, 1.0 - 10.0 / n)) if n else 0.99


@dataclass
class Rep:
    setup_s: float
    run_s: float
    cpu_s: float
    syscalls: int
    failed: int
    checks: int
    failed_checks: int
    problems: List[str]
    sim: Dict[str, float]
    samples: int
    layers: Optional[Dict[str, float]] = None
    span_count: int = 0
    span_self_s: float = 0.0
    #: REFERENCE_S over the reference loop's time around this rep
    factor: float = 1.0

    @property
    def signature(self) -> Tuple[float, ...]:
        return tuple(self.sim[k] for k in DETERMINISTIC)


def run_rep(workload, inputs, rec: Optional[Recorder] = None) -> Rep:
    """Build, run and check one rep; ``rec`` set means traced."""
    t0 = _clock()
    bed = workload.setup(inputs)
    setup_s = _clock() - t0
    log = SyscallLog()
    if rec is None:
        wrap = lambda gen, name: gen  # noqa: E731
    else:
        wrap = lambda gen, name: TimedGenerator(gen, rec, rec.name_index(name, "workloads"))  # noqa: E731
    before = sim_counters(bed.hosts)
    sim0 = bed.sim.now
    gens = workload.start(bed, inputs, log, wrap)
    gc.collect()
    if rec is not None:
        rec.reset()
        rec.sim = bed.sim
        rec.active = True
    error = None
    c0, t0 = time.process_time(), _clock()
    try:
        drive_all(bed.sim, gens, "workload")
    except Exception as exc:  # a failed syscall already counted in the log
        error = exc
    finally:
        run_s = _clock() - t0
        cpu_s = time.process_time() - c0
        if rec is not None:
            rec.active = False
    sim_s = bed.sim.now - sim0
    after = sim_counters(bed.hosts)
    delta = {k: after[k] - before[k] for k in after}
    checks = workload.checks(inputs)
    if error is None:
        problems = workload.check(bed, inputs, log)
        failed_checks = len(problems)
    else:  # no output to check: every check fails
        problems = ["workload raised %s: %s" % (type(error).__name__, error)]
        failed_checks = checks
    lat = sorted(log.latencies)
    sim = {
        "sim_s": sim_s,
        "rpcs": delta["rpcs"],
        "disk_ios": delta["disk_ios"],
        "sim_op_p50_ms": 1e3 * percentile(lat, 0.5) if lat else 0.0,
        "sim_op_p99_ms": 1e3 * percentile(lat, tail_quantile(len(lat))) if lat else 0.0,
    }
    rep = Rep(
        setup_s=setup_s, run_s=run_s, cpu_s=cpu_s, syscalls=log.attempted,
        failed=log.failed, checks=checks, failed_checks=failed_checks, problems=problems, sim=sim, samples=len(lat),
    )
    if rec is not None:
        rep.layers = layer_metrics(rec, delta)
        rep.span_count = len(rec)
        rep.span_self_s = sum(rec.self_s)
    return rep


def _quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


class _Window:
    """The measurement window: reps run while the next one, judged by
    the median wall time of those before it, still fits."""

    def __init__(self, seconds: float):
        self.end = _clock() + seconds
        self.walls: List[float] = []

    def timed(self, fn, *args):
        t0 = _clock()
        try:
            return fn(*args)
        finally:
            self.walls.append(_clock() - t0)

    def another(self, done: list) -> bool:
        if not done:
            return True
        return _clock() + statistics.median(self.walls[-len(done):]) <= self.end


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, Tuple[float, str]]
    lines: List[str] = field(default_factory=list)


def run(name: str, seed: int, seconds: float, trace: bool, out_dir: str) -> Result:
    """One benchmark run of workload ``name`` (see the module doc)."""
    workload = WORKLOADS[name]
    lines = ["workload %s  seed %d  window %gs  trace %d" % (name, seed, seconds, trace)]
    lines.append("  ".join("%s %s" % kv for kv in host_info().items()))
    problems: List[str] = []

    t0 = _clock()
    for module in _PROGRAM_MODULES:
        importlib.import_module(module)
    import_s = _clock() - t0

    inputs = workload.generate(seed)
    if workload.digest(inputs) == workload.digest(workload.generate(seed + 1)):
        problems.append("seeds %d and %d generate the same inputs" % (seed, seed + 1))

    # the reference loop runs before the first rep and after every rep;
    # a rep's host times are scaled by the loop times on either side
    refs = [reference_seconds()]

    def rep_then_reference(*args) -> Rep:
        rep = run_rep(workload, inputs, *args)
        refs.append(reference_seconds())
        return rep

    reps: List[Rep] = []
    traced: List[Rep] = []
    window = _Window(seconds)
    if not trace:
        while window.another(reps):
            reps.append(window.timed(rep_then_reference))
    else:
        reps.append(window.timed(rep_then_reference))
        rec = Recorder()
        with install(rec):
            while window.another(traced):
                traced.append(window.timed(rep_then_reference, rec))
        os.makedirs(out_dir, exist_ok=True)
        stem = os.path.join(out_dir, "spans-%s" % name)
        rec.write(stem, meta=dict(host_info(), workload=name, seed=seed,
                                  run_s=traced[-1].run_s))
        lines.append("spans of the last traced rep: %s.json/.bin (%d spans)"
                     % (stem, traced[-1].span_count))

    everything = reps + traced
    for i, rep in enumerate(everything):
        rep.factor = REFERENCE_S / ((refs[i] + refs[i + 1]) / 2)
    first = everything[0].signature
    for i, rep in enumerate(everything[1:], 1):
        if rep.signature != first:
            problems.append("rep %d simulated %s, rep 0 %s" % (i, rep.signature, first))
    # every per-layer count and simulated figure repeats too; only host
    # seconds may differ between traced reps
    exact = [key for key, unit, _b in PER_LAYER if unit != "s" and key in traced[0].layers] if traced else []
    for i, rep in enumerate(traced[1:], 1):
        moved = [key for key in exact if rep.layers[key] != traced[0].layers[key]]
        if moved:
            problems.append("traced rep %d changed %s" % (i, ", ".join(moved)))
    attempted = sum(r.syscalls + r.checks for r in everything)
    failed = sum(r.failed + r.failed_checks for r in everything)
    for i, rep in enumerate(everything):
        problems.extend("rep %d: %s" % (i, p) for p in rep.problems)

    lines.append("reps %d plain%s" % (len(reps), ", %d traced" % len(traced) if trace else ""))
    lines.append("latency samples %d per rep; sim_op_p99_ms is the %g quantile"
                 % (reps[0].samples, tail_quantile(reps[0].samples)))
    lines.append("reference loop %s s (nominal %g s); host times below are scaled by"
                 " nominal / reference" % (" ".join("%.4f" % r for r in refs), REFERENCE_S))
    per_rep = {
        "run_s raw": [r.run_s for r in everything],
        "factor": [r.factor for r in everything],
    }
    metrics: Dict[str, Tuple[float, str]] = {}
    if not trace:
        import_factor = REFERENCE_S / refs[0]
        per_rep.update({
            "ops_per_s": [r.syscalls / (r.run_s * r.factor) for r in reps],
            "run_s": [r.run_s * r.factor for r in reps],
            "cpu_s": [r.cpu_s * r.factor for r in reps],
            "setup_s": [import_s * import_factor + r.setup_s * r.factor for r in reps],
        })
        values = {key: statistics.median(v) for key, v in per_rep.items()}
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values.update(reps[0].sim)
        values["success_rate"] = (attempted - failed) / attempted
        metrics = {key: (values[key], unit) for key, unit, _better in END_TO_END}
    else:
        per_layer = {}
        for key, unit, _better in PER_LAYER:
            if key in traced[0].layers:
                scale = (lambda r: r.factor) if unit == "s" else (lambda r: 1.0)
                per_layer[key] = statistics.median(r.layers[key] * scale(r) for r in traced)
        plain = reps[0].run_s * reps[0].factor
        per_layer["trace_overhead"] = statistics.median(r.run_s * r.factor for r in traced) / plain
        metrics = {key: (per_layer[key], unit) for key, unit, _better in PER_LAYER}
        last = traced[-1]
        lines.append("span self time covers %.4f of the traced run_s (%d spans)"
                     % (last.span_self_s / last.run_s, last.span_count))
    for key, series in per_rep.items():
        q1, med, q3 = _quartiles(series)
        lines.append("%-14s median %.6g  quartiles %.6g .. %.6g" % (key, med, q1, q3))
    for key, (value, unit) in metrics.items():
        lines.append("%-24s %14.6g %s" % (key, value, unit))
    lines.extend("problem: %s" % p for p in problems)
    return Result(
        correct=not problems and failed == 0,
        attempted=attempted,
        failed=failed,
        metrics=metrics,
        lines=lines,
    )
