"""Renewal-traffic complexity: lease messages grow Θ(n), not Θ(n²).

The paper's red code renews every holder's lease with one broadcast per
renewal interval, so lease-category traffic per interval is linear in
the holder count.  A per-holder-pairwise scheme (or a bug that makes
every holder chatter back each interval) would grow quadratically.  The
ratio test below separates the two cleanly:

    m(L) = a + b*L   (linear)    => (m16 - m8) / (m8 - m4) = 2
    m(L) = a + b*L^2 (quadratic) => (m16 - m8) / (m8 - m4) = 4

so asserting the ratio stays at most 3 pins the linear regime with slack
for constant-term noise.  Client sessions are not protocol members, so
the renewal traffic must not grow with the number of clients either.
"""

from repro.core.client import ChtCluster
from repro.core.config import ChtConfig
from repro.objects.kvstore import KVStoreSpec, get, put

HOLDER_COUNTS = (4, 8, 16)
INTERVALS = 20


def lease_traffic(num_leaseholders, seed=19, reads=0, num_clients=0):
    """Lease-category messages over ``INTERVALS`` renewal intervals."""
    cluster = ChtCluster(KVStoreSpec(), ChtConfig(n=5), seed=seed,
                         num_leaseholders=num_leaseholders,
                         num_clients=num_clients)
    cluster.start()
    cluster.run_until_leader()
    cluster.execute(0, put("x", 1))
    cluster.run(3 * cluster.config.lease_period)
    assert all(lh._lease_valid() for lh in cluster.leaseholders)
    cluster.net.reset_counters()
    window = INTERVALS * cluster.config.lease_renewal
    if reads:
        for i in range(reads):
            lh = cluster.leaseholders[i % num_leaseholders]
            assert lh.submit_read(get("x")).done
    cluster.run(window)
    return dict(cluster.net.sent_by_category()).get("lease", 0)


def test_renewal_traffic_grows_linearly_in_holder_count():
    m4, m8, m16 = (lease_traffic(count) for count in HOLDER_COUNTS)
    assert m4 > 0, "no renewal traffic measured"
    assert m8 > m4 and m16 > m8, "traffic must grow with the tier"
    ratio = (m16 - m8) / (m8 - m4)
    assert ratio <= 3.0, (
        f"renewal traffic per interval looks superlinear: "
        f"m4={m4} m8={m8} m16={m16} ratio={ratio:.2f} "
        "(linear => ~2, quadratic => ~4)"
    )


def test_renewal_traffic_is_per_interval_linear_in_absolute_terms():
    # One grant broadcast per interval reaches every other protocol
    # member once: (n - 1) acceptors + L holders.  Allow 2x slack for
    # tenure churn and retransmission, but rule out an extra factor of L.
    for count in HOLDER_COUNTS:
        traffic = lease_traffic(count)
        per_interval = traffic / INTERVALS
        ceiling = 2.0 * (5 - 1 + 1 + count) + 4
        assert per_interval <= ceiling, (
            f"L={count}: {per_interval:.1f} lease msgs/interval "
            f"exceeds the linear ceiling {ceiling:.1f}"
        )


def test_local_reads_add_no_renewal_traffic():
    quiet = lease_traffic(8, seed=23)
    busy = lease_traffic(8, seed=23, reads=200)
    assert busy == quiet, (
        "lease traffic must be independent of read volume: "
        f"quiet={quiet} busy={busy}"
    )


def test_renewal_traffic_does_not_depend_on_the_client_count():
    # The paper's Θ(n) renewal cost counts the processes implementing the
    # object; clients stay outside that set, so a grant broadcast never
    # reaches a session and attaching clients adds no lease messages.
    alone, *crowded = (
        lease_traffic(4, num_clients=clients) for clients in (0, 4, 16)
    )
    assert alone > 0, "no renewal traffic measured"
    assert crowded == [alone, alone], (
        "lease traffic must be independent of the client count: "
        f"0 clients -> {alone}, 4 / 16 clients -> {crowded}"
    )
