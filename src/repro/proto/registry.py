"""The protocol registry: one table from a protocol name to its server
and client, and the one loop that drives a coroutine to completion.

Every testbed builds its servers with :func:`make_server` and its
mounts with :func:`make_mount`, so a new protocol is a policy (plus
its server) and one :data:`REGISTRY` entry — no experiment module
names a protocol class.  Builders still own what the schedule can
see: which update daemons start and when, how each host is seeded,
mount ids, and the names of spawned processes.

Not imported from :mod:`repro.proto` itself: this module imports the
five protocol packages, and they import :mod:`repro.proto`.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, NamedTuple

from ..kent import KentClient, KentServer
from ..lease import LeaseClient, LeaseServer
from ..nfs import NfsClient, NfsServer
from ..rfs import RfsClient, RfsServer
from ..sim import AllOf
from ..snfs import SnfsClient, SnfsServer

__all__ = [
    "NAMES",
    "REGISTRY",
    "ProtocolSpec",
    "drive",
    "drive_all",
    "make_mount",
    "make_server",
    "spec",
    "wait_all",
]


class ProtocolSpec(NamedTuple):
    """One registry entry: how to build a protocol's two ends."""

    #: ``(host, export, max_open_files) -> server``
    server: Callable
    #: the :class:`~repro.proto.RemoteFsClient` subclass a mount uses
    client: type
    #: the server keeps a per-client open-state table that the oracle
    #: can check against the clients after a run (SNFS's §2.4 table)
    has_open_state_table: bool


def _no_open_limit(server_cls) -> Callable:
    """A server factory for a server with no open-file table size."""

    def make(host, export, max_open_files):
        return server_cls(host, export)

    return make


#: protocol name -> spec, in the order every sweep and table uses
REGISTRY: Dict[str, ProtocolSpec] = {
    "nfs": ProtocolSpec(_no_open_limit(NfsServer), NfsClient, False),
    "snfs": ProtocolSpec(SnfsServer, SnfsClient, True),
    "rfs": ProtocolSpec(_no_open_limit(RfsServer), RfsClient, False),
    "kent": ProtocolSpec(_no_open_limit(KentServer), KentClient, False),
    "lease": ProtocolSpec(_no_open_limit(LeaseServer), LeaseClient, False),
}

#: every remote protocol's name, in registry order
NAMES = tuple(REGISTRY)


def spec(protocol: str) -> ProtocolSpec:
    """The registry entry for ``protocol``; ``ValueError`` if none."""
    try:
        return REGISTRY[protocol]
    except KeyError:
        raise ValueError(
            "unknown protocol %r (one of %s)" % (protocol, ", ".join(NAMES))
        ) from None


def make_server(protocol: str, host, export, max_open_files: int = 1000):
    """Serve ``export`` from ``host`` under ``protocol``.
    ``max_open_files`` sizes SNFS's state table; the others ignore it."""
    return spec(protocol).server(host, export, max_open_files)


def make_mount(
    protocol: str, mount_id: str, host, server_addr: str, config=None, dnlc=None
):
    """An unattached ``protocol`` mount of ``server_addr`` on ``host``.
    ``config=None`` takes the client class's own default."""
    return spec(protocol).client(
        mount_id, host, server_addr, config=config, dnlc=dnlc
    )


# -- driving coroutines to completion -------------------------------------------


def wrapper(gen):
    # named "wrapper": an unnamed process takes its generator's name,
    # and traces record it
    return (yield from gen)


def drive(sim, gen, limit: float = 1e7, name: str = ""):
    """Run one coroutine on ``sim`` until it finishes (daemons keep
    running); returns its value or re-raises its exception.  Raises
    :class:`TimeoutError` if it is still running at ``limit``."""
    proc = sim.spawn(wrapper(gen), name=name)
    sim.run_until(proc, limit=limit)
    return _outcomes([proc], limit)[0]


def drive_all(sim, gens: Iterable, limit: float = 1e7, name: str = "") -> List:
    """Run several coroutines concurrently until all finish; returns
    their values in order.  Errors as :func:`drive`."""
    return wait_all(sim, [sim.spawn(wrapper(g), name=name) for g in gens], limit)


def wait_all(sim, procs: List, limit: float = 1e7) -> List:
    """Run ``sim`` until every already-spawned process finishes; values
    and errors as :func:`drive_all`."""
    gate = AllOf(sim, procs)
    gate.defuse()
    sim.run_until(gate, limit=limit)
    return _outcomes(procs, limit)


def _outcomes(procs: List, limit: float) -> List:
    """The processes' values; the first failure is re-raised ahead of
    any timeout, since it is what stopped the gate early."""
    for proc in procs:
        if proc.exception is not None:
            proc.defuse()
            raise proc.exception
    for proc in procs:
        if not proc.triggered:
            raise TimeoutError(
                "process %r did not finish before %g" % (proc.name, limit)
            )
    return [proc.value for proc in procs]
