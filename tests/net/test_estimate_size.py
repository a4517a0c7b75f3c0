"""``estimate_size`` caches each dataclass type's field names; its sizes
must equal the reflective walk over ``dataclasses.fields`` for every
payload the five protocols put on the wire."""

import dataclasses

import pytest

from repro.fs import FileAttr, FileHandle, FileType, OpenMode
from repro.host import Host, HostConfig
from repro.net import Network, NetworkConfig, rpc
from repro.proto.registry import NAMES, make_server
from repro.snfs.server import OpenReply


def reflective_size(obj):
    """The size rules with no per-type cache: reflect on every call."""
    if obj is None:
        return 0
    if isinstance(obj, (bytes, bytearray, memoryview, str)):
        return len(obj)
    if isinstance(obj, dict):
        return sum(reflective_size(k) + reflective_size(v) for k, v in obj.items())
    if isinstance(obj, (list, tuple, set, frozenset)):
        return sum(reflective_size(item) for item in obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return sum(
            reflective_size(getattr(obj, f.name)) for f in dataclasses.fields(obj)
        )
    return 8


def _session(k, root, peer):
    """Create, share between two clients, list, rename and remove."""
    path = root + "/f"
    fd = yield from k.open(path, OpenMode.WRITE, create=True)
    yield from k.write(fd, b"w" * 9000)
    yield from k.close(fd)
    yield from k.mkdir(root + "/d")
    yield from k.readdir(root)
    yield from k.stat(path)
    fd = yield from peer.open(path, OpenMode.READ)  # recalls dirty blocks
    yield from peer.read(fd, 1 << 16)
    yield from peer.close(fd)
    yield from k.rename(path, root + "/d/g")
    yield from k.unlink(root + "/d/g")
    yield from k.rmdir(root + "/d")


@pytest.fixture(scope="module")
def payloads():
    from tests.conftest import SimRunner

    runner = SimRunner()
    sim = runner.sim
    seen = []
    original = rpc.estimate_size

    def recording(obj):
        seen.append(obj)
        return original(obj)

    rpc.estimate_size = recording
    try:
        network = Network(sim, NetworkConfig(seed=5))
        for proto in NAMES:
            host = Host(sim, network, "srv-" + proto, HostConfig.titan_server())
            make_server(proto, host, host.add_local_fs("/export", fsid=proto))
        clients = [
            Host(sim, network, "c%d" % i, HostConfig.titan_client()) for i in range(2)
        ]
        for host in clients:
            for proto in NAMES:
                runner.mount(proto, host, "srv-" + proto, "/" + proto)
        for proto in NAMES:
            runner.run(_session(clients[0].kernel, "/" + proto, clients[1].kernel))
    finally:
        rpc.estimate_size = original
    return seen


def test_cached_fields_match_reflection_on_every_wire_payload(payloads):
    mismatches = [
        (type(p).__name__, rpc.estimate_size(p), reflective_size(p))
        for p in payloads
        if rpc.estimate_size(p) != reflective_size(p)
    ]
    assert mismatches == []
    kinds = {type(p) for p in payloads}
    for needed in (OpenReply, FileAttr, FileHandle, tuple, list, bytes):
        assert needed in kinds, needed.__name__


@dataclasses.dataclass
class _Inner:
    name: str
    blob: bytes


@dataclasses.dataclass
class _Outer:
    inner: _Inner
    items: list
    extra: dict = dataclasses.field(default_factory=dict)


@pytest.mark.parametrize(
    "payload",
    [
        _Outer(_Inner("ab", b"xyz"), [FileHandle("fs", 3, 1), (1, None)], {"k": 2}),
        (FileAttr(7, FileType.REGULAR, size=4096), [b"a", "bc"], frozenset({4})),
        _Inner,  # a dataclass *class* is not a record: fixed cost
        FileAttr,
        OpenReply(True, 3, 2, FileAttr(1, FileType.DIRECTORY)),
    ],
)
def test_cached_fields_match_reflection_on_nested_records(payload):
    assert rpc.estimate_size(payload) == reflective_size(payload)
