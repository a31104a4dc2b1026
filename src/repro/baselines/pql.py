"""Paxos Quorum Leases (Moraru, Andersen, Kaminsky, SoCC'14).

PQL grants read leases to a set of leaseholders, with a *majority of
grantors* (the acceptors) backing each lease.  The paper's Section 5
identifies four contrasts with CHT, all reproduced here:

1. **Theta(n^2) lease messages**: every grantor runs a lease exchange with
   every leaseholder, versus the leader's Theta(n) one-way grants in CHT.
2. **Four messages per grantor-holder pair** per renewal: PQL uses elapsed
   timers rather than synchronized clocks, so a guard/ack/activate/ack
   handshake is needed for the grantor to bound when the lease expires at
   the holder (CHT: a single one-way message).
3. Leaseholder-set changes go through consensus (a config entry in the
   log); CHT updates the set locally at the leader.
4. **Any pending write blocks all local reads** — leases are object-set
   granular, not conflict-aware — and a steady write stream keeps leases
   perpetually revoked.  (CHT blocks a read only on a *conflicting*
   pending RMW, for at most 3 delta.)

The consensus substrate is inherited from the Multi-Paxos baseline; writes
additionally wait for every leaseholder to acknowledge (or for the lease
guard to run out) before committing, mirroring the revocation protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator

from ..objects.spec import OpInstance
from ..sim.tasks import Future
from .multipaxos import P2a, PaxosCluster, PaxosReplica

__all__ = ["PQLReplica", "PQLCluster"]


@dataclass(frozen=True)
class PQLGuard:
    """Round 1: grantor asks the holder to arm a new lease period."""

    seq: int

    category = "lease"


@dataclass(frozen=True)
class PQLGuardAck:
    """Round 2: holder confirms its timer is armed."""

    seq: int

    category = "lease"


@dataclass(frozen=True)
class PQLActivate:
    """Round 3: grantor activates the lease for ``duration`` timer units."""

    seq: int
    duration: float

    category = "lease"


@dataclass(frozen=True)
class PQLActivateAck:
    """Round 4: holder confirms activation (grantor can bound expiry)."""

    seq: int

    category = "lease"


class PQLReplica(PaxosReplica):
    """A Multi-Paxos replica that is also a lease grantor and holder."""

    def __init__(self, *args: Any, lease_duration: float = 100.0,
                 lease_renewal: float = 25.0, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.lease_duration = lease_duration
        self.lease_renewal = lease_renewal
        # Holder state: per-grantor lease expiry (on our local timer).
        self.lease_expiry: dict[int, float] = {}
        self._guard_seq = 0
        # Grantor state: last seq acked per holder.
        self._pending_guards: dict[tuple[int, int], bool] = {}
        # Revocation state: highest slot we know has an accepted write.
        self.max_seen_slot = 0
        # Leader-side: acks per slot from each leaseholder.
        self._holder_acks: dict[int, set[int]] = {}
        self._last_grant_local = 0.0

    # ------------------------------------------------------------------
    def start(self) -> None:
        super().start()
        self.spawn(self._grantor_task(), name="pql-grantor")

    def _grantor_task(self) -> Generator:
        """Run the four-round lease exchange with every holder, forever.

        This is the Theta(n^2) cost: all n grantors do this with all
        holders, every renewal period.
        """
        while True:
            self._guard_seq += 1
            seq = self._guard_seq
            self._last_grant_local = self.local_time
            for holder in range(self.n):
                if holder == self.pid:
                    # Self-lease: no messages needed.
                    self.lease_expiry[self.pid] = (
                        self.local_time + self.lease_duration
                    )
                else:
                    self.send(holder, PQLGuard(seq))
            yield from self.wait_for(lambda: False,
                                     timeout=self.lease_renewal)

    # ------------------------------------------------------------------
    # Read path: local reads gated on quorum leases and pending writes
    # ------------------------------------------------------------------
    def start_operation(self, instance: OpInstance, kind: str,
                        future: Future) -> None:
        if kind == "read":
            self.spawn(self._pql_read_task(instance, future), name="read")
        else:
            super().start_operation(instance, kind, future)

    def _pql_read_task(self, instance: OpInstance, future: Future) -> Generator:
        from ..sim.tasks import Until

        if not self._read_ok():
            yield Until(self._read_ok)
        _, value = self.spec.apply_any(self.state, instance.op)
        self.resolve_op(instance.op_id, value)

    def _read_ok(self) -> bool:
        """Local reads need active leases from a majority of grantors AND
        no write we know of still pending (leases are revoked by *any*
        write — PQL has no conflict awareness)."""
        now = self.local_time
        active = sum(1 for exp in self.lease_expiry.values() if exp > now)
        return active >= self.majority and (
            self.applied_upto >= self.max_seen_slot
        )

    def leases_active(self) -> int:
        now = self.local_time
        return sum(1 for exp in self.lease_expiry.values() if exp > now)

    # ------------------------------------------------------------------
    # Write path: revoke before committing
    # ------------------------------------------------------------------
    def _phase2(self, slot: int, value: OpInstance) -> Generator:
        ballot = self.ballot
        assert ballot is not None
        key = (ballot, slot)
        self._p2_acks[key] = set()
        self._holder_acks[slot] = set()
        if ballot >= self.promised:
            self.promised = ballot
            self.accepted[slot] = (ballot, value)
            self.max_seen_slot = max(self.max_seen_slot, slot)
            self._p2_acks[key].add(self.pid)
            self._holder_acks[slot].add(self.pid)
        acks = self._p2_acks[key]
        holder_acks = self._holder_acks[slot]

        def enough() -> bool:
            return len(acks) >= self.majority

        attempts = 0
        while not enough():
            if self.ballot != ballot or attempts > 10:
                self._p2_acks.pop(key, None)
                self._holder_acks.pop(slot, None)
                self.ballot = None
                return False
            self.broadcast(P2a(ballot, slot, value))
            attempts += 1
            yield from self.wait_for(enough, timeout=self.retry_period)

        # Lease revocation: wait until every leaseholder has acknowledged
        # the accept (and thereby suspended local reads), or until the
        # lease guard bounds say all leases must have run out at holders.
        all_holders = set(range(self.n))
        expiry_bound = (
            self._last_grant_local + self.lease_duration + 2 * self.retry_period
        )

        def revoked() -> bool:
            return all_holders <= holder_acks or self.local_time >= expiry_bound

        if not revoked():
            yield from self.wait_for(
                revoked, timeout=max(expiry_bound - self.local_time, 0.0)
            )

        self._p2_acks.pop(key, None)
        self._holder_acks.pop(slot, None)
        self._choose(slot, value)
        from .multipaxos import Learn

        self.broadcast(Learn(slot, value))
        return True

    # ------------------------------------------------------------------
    # Message handlers (lease layer + revocation hooks)
    # ------------------------------------------------------------------
    def _on_pqlguard(self, src: int, msg: PQLGuard) -> None:
        self.send(src, PQLGuardAck(msg.seq))

    def _on_pqlguardack(self, src: int, msg: PQLGuardAck) -> None:
        self.send(src, PQLActivate(msg.seq, self.lease_duration))

    def _on_pqlactivate(self, src: int, msg: PQLActivate) -> None:
        self.lease_expiry[src] = self.local_time + msg.duration
        self.send(src, PQLActivateAck(msg.seq))

    def _on_pqlactivateack(self, src: int, msg: PQLActivateAck) -> None:
        pass  # the grantor now knows the holder's expiry bound

    def _on_p2a(self, src: int, msg: P2a) -> None:
        accepted_before = self.accepted.get(msg.slot)
        super()._on_p2a(src, msg)
        if self.accepted.get(msg.slot) is not accepted_before:
            # We accepted a write: suspend local reads until it applies.
            self.max_seen_slot = max(self.max_seen_slot, msg.slot)

    def _on_p2b(self, src: int, msg) -> None:  # type: ignore[override]
        super()._on_p2b(src, msg)
        holder_acks = self._holder_acks.get(msg.slot)
        if holder_acks is not None:
            holder_acks.add(src)


class PQLCluster(PaxosCluster):
    """A Paxos Quorum Leases deployment."""

    replica_class = PQLReplica

    def __init__(self, *args: Any, lease_duration: float = 100.0,
                 lease_renewal: float = 25.0, **kwargs: Any) -> None:
        self._lease_duration = lease_duration
        self._lease_renewal = lease_renewal
        super().__init__(*args, **kwargs)

    def build_replica(self, pid: int, **kwargs: Any) -> PQLReplica:
        return PQLReplica(
            pid,
            self.net,
            self.spec,
            self.n,
            self.stats,
            retry_period=2 * self.delta,
            lease_duration=self._lease_duration,
            lease_renewal=self._lease_renewal,
            **kwargs,
        )
