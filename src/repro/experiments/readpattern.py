"""§5.1's read-pattern RPC accounting, made measurable.

"In the 'read-quickly' case, NFS will require one fewer RPC than SNFS,
since SNFS requires the additional close operation (the SNFS open
operation is equivalent to the getattr operation done at file-open time
by NFS).  In the 'read-slowly' case, SNFS may break even or better,
since NFS must do consistency probes every few seconds."

Two scenarios over one small file:

* **read-quickly** — open, read it all, close (a source module);
* **read-slowly** — hold it open for a minute, re-reading every few
  seconds (a text editor).
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..fs.types import OpenMode
from ..metrics import format_table
from ..workloads import ReadQuicklySlowly
from .cluster import build_testbed

__all__ = ["read_pattern_comparison"]


def _prepare(bed, path: str):
    k = bed.client.kernel

    def setup():
        fd = yield from k.open(path, OpenMode.WRITE, create=True)
        yield from k.write(fd, b"s" * 4096)
        yield from k.close(fd)
        yield from k.sync()

    bed.run(setup())
    # measure from a cold client cache (the paper's scenario is a file
    # some other client produced — e.g. a source module being compiled)
    bed.client.cache.clear()
    for g in list(bed.mounts["/data"].live_gnodes()):
        g.private.pop("attr", None)
        g.private.pop("attr_time", None)
    bed.client.rpc.client_stats.reset()


def read_pattern_comparison(
    duration: float = 60.0, interval: float = 5.0
) -> Tuple[str, Dict[str, int]]:
    """RPC totals for both patterns under both protocols."""
    results: Dict[str, int] = {}
    for protocol in ("nfs", "snfs"):
        # read-quickly
        bed = build_testbed(protocol)
        _prepare(bed, "/data/module.c")
        bench = ReadQuicklySlowly(bed.client.kernel, "/data/module.c")
        bed.run(bench.read_quickly())
        results["%s_quick" % protocol] = bed.client.rpc.client_stats.total()
        # read-slowly
        bed = build_testbed(protocol)
        _prepare(bed, "/data/module.c")
        bench = ReadQuicklySlowly(bed.client.kernel, "/data/module.c")
        bed.run(bench.read_slowly(duration=duration, interval=interval))
        results["%s_slow" % protocol] = bed.client.rpc.client_stats.total()

    rows = [
        ["read-quickly (source module)", str(results["nfs_quick"]),
         str(results["snfs_quick"])],
        ["read-slowly (%.0f s editor)" % duration, str(results["nfs_slow"]),
         str(results["snfs_slow"])],
    ]
    table = format_table(
        ["Pattern", "NFS RPCs", "SNFS RPCs"],
        rows,
        title="§5.1: RPC counts by read pattern",
    )
    return table, results
