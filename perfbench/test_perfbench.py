"""Tests of the benchmark itself: the coroutine-aware wrappers, span
accounting, determinism, seeding and the output checks.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import os
import shutil
import subprocess
import sys

import pytest

from perfbench.bench import run_rep
from perfbench.layers import LAYERS, PER_LAYER, install
from perfbench.spans import Installation, Recorder, TimedGenerator, load_spans
from perfbench.workloads import WORKLOADS, AndrewSnfsObs, ClusterSnfs, SortSnfs
from repro.sim import Interrupt, Simulator

#: span self times must add up to the traced timed phase within this
#: share: the phase's only uncovered host time is the loop around the
#: root spans (engine entry and exit)
SELF_TIME_TOLERANCE = 0.02


class Small(ClusterSnfs):
    clients = 8
    iterations = 2


class SmallSort(SortSnfs):
    input_bytes = 96 * 1024


class SmallAndrew(AndrewSnfsObs):
    shape = dict(n_dirs=1, files_per_dir=4, mean_file_size=1500, n_headers=2,
                 header_size=500, seed=1989)


class Service:
    """A stand-in layer with one coroutine and one plain entry point."""

    def __init__(self, sim):
        self.sim = sim
        self.seen = []

    def wait(self, delay):
        try:
            yield self.sim.timeout(delay)
            self.seen.append("woke")
            return "done"
        except Interrupt as exc:
            self.seen.append("interrupted:%s" % exc.cause)
            return "cut short"
        finally:
            self.seen.append("cleanup")

    def double(self, x):
        return 2 * x


@pytest.fixture
def recorder():
    rec = Recorder()
    with Installation(rec) as inst:
        inst.wrap(Service, "wait", "host")
        inst.wrap(Service, "double", "storage")
        yield rec


def _start(rec, sim):
    rec.reset()
    rec.sim = sim
    rec.active = True


def test_wrapper_times_resumes_and_returns_the_value(recorder):
    sim = Simulator()
    svc = Service(sim)
    _start(recorder, sim)
    box = {}

    def main():
        box["v"] = yield from svc.wait(5.0)
        box["d"] = svc.double(21)

    sim.run_until(sim.spawn(main()))
    assert box == {"v": "done", "d": 42}
    assert svc.seen == ["woke", "cleanup"]
    by = recorder.by_name()
    assert by["Service.wait"][0] == 1 and by["Service.double"][0] == 1
    # simulated time inside the span is the 5 s wait, not the creation
    assert by["Service.wait"][2] == pytest.approx(5.0)


def test_interrupt_reaches_a_wrapped_process(recorder):
    sim = Simulator()
    svc = Service(sim)
    _start(recorder, sim)
    proc = sim.spawn(svc.wait(100.0))
    assert isinstance(proc._gen, TimedGenerator)

    def interrupter():
        yield sim.timeout(1.0)
        proc.interrupt("stop")

    sim.spawn(interrupter())
    sim.run_until(proc)
    assert proc.value == "cut short"
    assert svc.seen == ["interrupted:stop", "cleanup"]
    assert recorder.by_name()["Service.wait"][2] == pytest.approx(1.0)


def test_throw_and_close_are_forwarded(recorder):
    sim = Simulator()
    svc = Service(sim)
    _start(recorder, sim)
    gen = svc.wait(1.0)
    next(gen)
    with pytest.raises(StopIteration) as stop:
        gen.throw(Interrupt("x"))
    assert stop.value.value == "cut short"

    gen = svc.wait(1.0)
    next(gen)
    gen.close()  # GeneratorExit runs the wrapped finally clause
    assert svc.seen == ["interrupted:x", "cleanup", "cleanup"]
    assert recorder.by_name()["Service.wait"][0] == 2


def test_inactive_recorder_passes_through(recorder):
    sim = Simulator()
    svc = Service(sim)
    recorder.sim = sim
    sim.run_until(sim.spawn(svc.wait(1.0)))
    assert svc.double(2) == 4
    assert len(recorder) == 0


def test_restore_puts_every_original_back():
    from repro.host.kernel import Kernel
    from repro.net import rpc
    from repro.sim.engine import Event
    from repro.snfs.client import SnfsClient

    before = {
        (owner, name): vars(owner).get(name)
        for owner in (Kernel, Event, SnfsClient, rpc)
        for name in ("open", "succeed", "read", "lookup", "estimate_size")
    }
    with install(Recorder()):
        assert Kernel.open is not before[(Kernel, "open")]
    after = {key: vars(key[0]).get(key[1]) for key in before}
    assert after == before


@pytest.mark.parametrize("workload", [Small(), SmallSort(), SmallAndrew()], ids=lambda w: w.name)
def test_traced_run_matches_plain_run_and_accounts_for_its_time(workload, tmp_path):
    inputs = workload.generate(7)
    plain = run_rep(workload, inputs)
    again = run_rep(workload, inputs)
    rec = Recorder()
    with install(rec):
        traced = run_rep(workload, inputs, rec)
    assert plain.problems == [] and traced.problems == []
    assert plain.failed == traced.failed == 0
    # the wrappers change no schedule
    assert plain.signature == again.signature == traced.signature
    # every layer's self time plus sim.self_s is the traced run time
    assert traced.span_self_s == pytest.approx(traced.run_s, rel=SELF_TIME_TOLERANCE)
    layers = traced.layers
    assert set(layers) | {"trace_overhead"} == {name for name, _u, _b in PER_LAYER}
    assert sum(layers["%s.self_s" % layer] for layer in LAYERS) == pytest.approx(
        traced.run_s, rel=SELF_TIME_TOLERANCE
    )
    assert layers["host.syscalls"] >= plain.syscalls
    # spans round-trip through the written files, with request ids
    stem = str(tmp_path / "spans")
    rec.write(stem)
    header, columns = load_spans(stem)
    assert header["spans"] == len(rec) == traced.span_count
    assert list(columns["rid"]) == list(rec.rid)
    assert max(columns["rid"]) > 0


def test_server_spans_join_the_callers_request():
    workload = Small()
    inputs = workload.generate(3)
    rec = Recorder()
    with install(rec):
        run_rep(workload, inputs, rec)
    names = rec.names
    procs = [i for i, n in enumerate(rec.name) if names[n].startswith("SnfsServer.proc_")]
    assert procs and all(rec.rid[i] > 0 for i in procs)
    # a request id started by a client syscall reaches the server handler
    syscall_rids = {rec.rid[i] for i, n in enumerate(rec.name) if names[n].startswith("Kernel.")}
    assert {rec.rid[i] for i in procs} <= syscall_rids


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_decides_the_inputs(name):
    workload = WORKLOADS[name]
    if name == "sort-snfs":
        workload = SmallSort()
    if name == "andrew-snfs-obs":
        workload = SmallAndrew()
    one = workload.digest(workload.generate(1))
    assert one == workload.digest(workload.generate(1))
    assert one != workload.digest(workload.generate(2))


def test_output_checks_catch_wrong_outputs():
    workload = Small()
    inputs = workload.generate(5)
    wrong = {"plans": [[(b, k + 1) for b, k in plan] for plan in inputs["plans"]]}
    bed = workload.setup(inputs)
    from perfbench.workloads import SyscallLog, drive_all

    log = SyscallLog()
    drive_all(bed.sim, workload.start(bed, inputs, log, lambda g, n: g), "workload")
    assert workload.check(bed, inputs, log) == []
    assert len(workload.check(bed, wrong, log)) == workload.checks(wrong) - len(wrong["plans"])

    sort = SmallSort()
    inputs = sort.generate(5)
    inputs["expected"] = inputs["expected"][32:] + inputs["expected"][:32]
    rep = run_rep(sort, inputs)
    assert rep.failed_checks == 1


def test_entry_point_refuses_to_run_without_the_program(tmp_path):
    here = os.path.dirname(os.path.abspath(__file__))
    shutil.copytree(here, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sort-snfs", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_benchmark_json_declares_what_the_runner_reports():
    import json
    import re

    from perfbench.bench import END_TO_END

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        doc = json.load(f)
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == PER_LAYER
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]] + list(WORKLOADS)
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    units = [m["unit"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", u) for u in units)


def test_run_reports_every_declared_metric(monkeypatch, tmp_path):
    from perfbench import bench

    monkeypatch.setitem(bench.WORKLOADS, "small", Small())
    plain = bench.run("small", 1, 0.1, False, str(tmp_path))
    assert plain.correct and plain.failed == 0, plain.lines
    assert list(plain.metrics) == [name for name, _u, _b in bench.END_TO_END]
    assert all(value > 0 for value, _unit in plain.metrics.values())
    traced = bench.run("small", 1, 0.1, True, str(tmp_path))
    assert traced.correct, traced.lines
    assert list(traced.metrics) == [name for name, _u, _b in PER_LAYER]
    assert (tmp_path / "spans-small.json").exists()
