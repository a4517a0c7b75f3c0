"""Shared test helpers."""

import pytest

from repro.proto.registry import drive, drive_all, make_mount
from repro.sim import Simulator


class SimRunner:
    """Drive simulation coroutines to completion from plain test code."""

    def __init__(self):
        self.sim = Simulator()

    def run(self, gen, limit=100000.0):
        """Run one coroutine to completion; return its value or re-raise."""
        return drive(self.sim, gen, limit)

    def run_all(self, *gens, limit=100000.0):
        """Run several coroutines concurrently; returns their values."""
        return drive_all(self.sim, gens, limit)

    def mount(self, protocol, host, server_addr, mount_point):
        """Attach a ``protocol`` mount of ``server_addr`` on ``host`` at
        ``mount_point``; returns the mount."""
        mount_id = "%s:%s:%s%s" % (protocol, host.name, server_addr, mount_point)
        mount = make_mount(protocol, mount_id, host, server_addr)
        self.run(mount.attach())
        host.kernel.mount(mount_point, mount)
        return mount


@pytest.fixture
def runner():
    return SimRunner()
