"""Property: batch spans always terminate, under any healing fault schedule.

Every ``batch.commit`` span the leader opens in DoOps must eventually be
closed with ``committed`` or ``superseded`` — through crashes mid-batch
(task cancellation unwinds the generator's ``finally``), leader changes,
partitions, and clock desyncs.  A span left open or closed with any
other status means an instrumentation path leaked, which would poison
every derived timeline.

The schedules come from the chaos generator, which produces healing
schedules by construction, so the runs are also expected to pass the
nemesis verdict — making this a combined chaos + observability pin.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.nemesis import NemesisRunner


@given(
    seed=st.integers(min_value=0, max_value=5_000),
    index=st.integers(min_value=0, max_value=7),
)
@settings(max_examples=15, deadline=None, derandomize=True)
def test_every_batch_span_terminates(seed, index):
    runner = NemesisRunner(
        system="cht", n=5, num_clients=2, seed=seed,
        horizon=1500.0, ops_per_client=3,
    )
    result = runner.run(runner.schedule(index))
    assert result.ok, f"{result.kind}: {result.detail}"

    obs = runner.last_obs
    assert obs is not None
    # The run stops the instant the last op resolves; let genuinely
    # in-flight batches (a concurrent recovery's NoOps, a final lease
    # wait) play out before judging them leaked.
    obs.sim.run_for(5_000.0)

    batches = [s for s in obs.tracer.spans if s.name == "batch.commit"]
    assert batches, "the workload committed nothing"
    leaked = [s for s in batches if s.open]
    assert not leaked, f"open batch spans leaked: {leaked}"
    bad = [s for s in batches if s.status not in ("committed", "superseded")]
    assert not bad, f"batch spans with unexpected status: {bad}"

    # The verdict carried a coherent metrics snapshot of the same run.
    assert result.metrics is not None
    committed = sum(
        v for name, v in result.metrics["counters"].items()
        if name.startswith("commits_total")
    )
    assert committed > 0
