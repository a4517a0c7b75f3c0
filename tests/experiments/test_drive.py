"""Every testbed drives its workloads through the registry's one loop,
so a workload still running at ``limit`` raises ``TimeoutError``
instead of being judged on a partial run."""

import pytest

from repro.experiments import ResilienceBed, build_sharded_cluster
from repro.experiments.cluster import build_cluster, build_testbed

BEDS = {
    "Testbed": lambda: build_testbed("nfs"),
    "ClusterBed": lambda: build_cluster("nfs", 1),
    "ResilienceBed": lambda: ResilienceBed("nfs", n_clients=1),
    "ShardedBed": lambda: build_sharded_cluster("nfs", 2, 1),
}


@pytest.mark.parametrize("kind", sorted(BEDS))
def test_workload_past_limit_times_out(kind):
    bed = BEDS[kind]()

    def sleeper():
        yield bed.sim.timeout(60.0)

    with pytest.raises(TimeoutError):
        bed.run_all(sleeper(), sleeper(), limit=bed.sim.now + 5.0)
    if hasattr(bed, "run"):  # ClusterBed only runs workloads in bulk
        with pytest.raises(TimeoutError):
            bed.run(sleeper(), limit=bed.sim.now + 5.0)
