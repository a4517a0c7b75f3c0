"""Tests for the Counters measurement primitive."""

import pytest

from repro.metrics import Counters


def test_record_and_get():
    c = Counters()
    c.record("read")
    c.record("read")
    c.record("write", n=5)
    assert c.get("read") == 2
    assert c.get("write") == 5
    assert c.get("missing") == 0


def test_total_all_and_subset():
    c = Counters()
    c.record("a", n=1)
    c.record("b", n=2)
    c.record("c", n=3)
    assert c.total() == 6
    assert c.total(["a", "c"]) == 4
    assert c.total(["nope"]) == 0


def test_names_sorted():
    c = Counters()
    c.record("zeta")
    c.record("alpha")
    assert c.names() == ["alpha", "zeta"]


def test_as_dict_is_a_copy():
    c = Counters()
    c.record("x")
    d = c.as_dict()
    d["x"] = 99
    assert c.get("x") == 1


def test_times_not_kept_by_default():
    c = Counters()
    c.record("op", t=1.5)
    assert c.times("op") == []


def test_times_kept_when_enabled():
    c = Counters(keep_times=True)
    c.record("op", t=1.5)
    c.record("op", t=2.5)
    c.record("other", t=9.0)
    assert c.times("op") == [1.5, 2.5]
    assert c.all_times() == [(1.5, "op"), (2.5, "op"), (9.0, "other")]


def test_reset_clears_everything():
    c = Counters(keep_times=True)
    c.record("op", t=1.0)
    c.reset()
    assert c.get("op") == 0
    assert c.times("op") == []


def test_repr_readable():
    c = Counters()
    c.record("x")
    assert "x=1" in repr(c)


def test_timed_record_without_t_defaults_to_sim_clock():
    from repro.sim import Simulator

    sim = Simulator()
    c = Counters(keep_times=True, sim=sim)

    def work():
        yield sim.timeout(2.5)
        c.record("op")  # no t: should stamp sim.now

    proc = sim.spawn(work())
    sim.run_until(proc, limit=100)
    assert c.times("op") == [2.5]


def test_attach_sim_enables_clock_default():
    from repro.sim import Simulator

    sim = Simulator()
    c = Counters(keep_times=True)
    assert c.attach_sim(sim) is c
    c.record("op")
    assert c.times("op") == [0.0]


def test_timed_record_without_t_or_sim_warns():
    from repro.metrics import CountersTimestampWarning

    c = Counters(keep_times=True)
    with pytest.warns(CountersTimestampWarning):
        c.record("op")
    # the count still lands; only the time log has the gap
    assert c.get("op") == 1
    assert c.times("op") == []


def test_untimed_counters_never_warn():
    import warnings

    c = Counters()  # keep_times=False
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c.record("op")
    assert c.get("op") == 1
