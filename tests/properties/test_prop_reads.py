"""Property-based tests of the leaseholder read tier.

The headline property: under *any* healing chaos schedule, the merged
history of leaseholder-served local reads and replica-committed RMWs is
linearizable.  Schedules come from the chaos generator (crashes,
partitions — including the leaseholder-isolating partition that the
lease-expiry wait exists for), so every example is a miniature soak with
its verdict checked by the PR 4 linearizability checker.

A second property pins the read path itself across random interleavings
of direct leaseholder reads and conflicting writes: every read resolves,
blocks at most ``3 * delta``, and the merged history linearizes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.nemesis import NemesisRunner
from repro.core.client import ChtCluster
from repro.core.config import ChtConfig
from repro.objects.kvstore import KVStoreSpec, get, put
from repro.verify import check_linearizable


@st.composite
def soak_cells(draw):
    seed = draw(st.integers(min_value=0, max_value=500))
    index = draw(st.integers(min_value=0, max_value=5))
    num_leaseholders = draw(st.sampled_from([1, 2, 3]))
    return seed, index, num_leaseholders


@given(soak_cells())
@settings(max_examples=12, deadline=None, derandomize=True)
def test_local_reads_stay_linearizable_under_healing_chaos(cell):
    seed, index, num_leaseholders = cell
    runner = NemesisRunner(
        system="cht", n=3, num_clients=2, seed=seed, ops_per_client=4,
        num_leaseholders=num_leaseholders, obs=False,
    )
    result = runner.run(runner.schedule(index))
    assert result.kind != "linearizability", result
    assert result.kind != "invariant", result
    assert result.ok or result.kind == "undecided", result


@st.composite
def read_write_scripts(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    num_leaseholders = draw(st.sampled_from([1, 2]))
    n_steps = draw(st.integers(min_value=4, max_value=12))
    steps = []
    for i in range(n_steps):
        key = draw(st.sampled_from(["a", "b"]))
        if draw(st.booleans()):
            holder = draw(st.integers(min_value=0,
                                      max_value=num_leaseholders - 1))
            steps.append(("read", holder, key))
        else:
            steps.append(("write", i, key))
        steps.append(("run", draw(st.sampled_from([0.0, 5.0, 25.0])), None))
    return seed, num_leaseholders, steps


@given(read_write_scripts())
@settings(max_examples=20, deadline=None, derandomize=True)
def test_interleaved_tier_reads_and_writes_linearize(script):
    seed, num_leaseholders, steps = script
    cluster = ChtCluster(KVStoreSpec(), ChtConfig(n=3), seed=seed,
                         num_leaseholders=num_leaseholders)
    cluster.start()
    leader = cluster.run_until_leader()
    cluster.execute(leader.pid, put("a", -1))
    cluster.run(3 * cluster.config.lease_period)

    futures = []
    for kind, arg, key in steps:
        if kind == "read":
            futures.append(
                cluster.leaseholders[arg].submit_read(get(key))
            )
        elif kind == "write":
            futures.append(cluster.submit(leader.pid, put(key, arg)))
        else:
            cluster.run(arg)
    cluster.run(8_000.0)

    assert all(f.done for f in futures), "every op must complete"
    assert cluster.stats.max_blocking("read") <= 3 * cluster.config.delta
    result = check_linearizable(
        cluster.spec, cluster.history(), partition_by_key=True
    )
    assert result, result.reason
