"""Cluster metrics: per-tenant tails, per-server load, hedging economics.

Mirrors :mod:`repro.serve.metrics` one level up: tenants accumulate
request-level latency (submit at the router to first winning replica
answer), servers accumulate attempt-level load, and the whole thing
snapshots into a :class:`ClusterResult` whose ``to_dict`` is canonical
— same :class:`~repro.cluster.cluster.ClusterConfig` + seed gives a
byte-identical dict, which is what the determinism and perturbation
regressions digest.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.stats import LatencyHistogram


@dataclass
class ClusterTenantMetrics:
    """Live accumulator for one tenant's cluster-level requests."""

    tenant: str
    submitted: int = 0
    completed: int = 0
    reads: int = 0
    writes: int = 0
    demanded_bytes: int = 0
    #: Hedged-policy accounting: second attempts issued / attempts that
    #: won the race / cancelled before dispatch / completed after the
    #: winner (duplicate work the device actually performed).
    hedges_issued: int = 0
    hedges_won: int = 0
    hedges_cancelled: int = 0
    hedges_wasted: int = 0
    latency: LatencyHistogram = field(default_factory=LatencyHistogram)
    #: Reads only — the population replica policies act on (writes are
    #: write-all and pinned to the full replica set regardless).
    read_latency: LatencyHistogram = field(default_factory=LatencyHistogram)

    def merge(self, other: "ClusterTenantMetrics") -> None:
        """Fold another tenant's counters and latencies into this one."""
        self.submitted += other.submitted
        self.completed += other.completed
        self.reads += other.reads
        self.writes += other.writes
        self.demanded_bytes += other.demanded_bytes
        self.hedges_issued += other.hedges_issued
        self.hedges_won += other.hedges_won
        self.hedges_cancelled += other.hedges_cancelled
        self.hedges_wasted += other.hedges_wasted
        self.latency.merge(other.latency)
        self.read_latency.merge(other.read_latency)

    def snapshot(self, elapsed_ns: float) -> dict[str, float]:
        elapsed_s = elapsed_ns / 1e9 if elapsed_ns > 0 else 0.0
        achieved_qps = self.completed / elapsed_s if elapsed_s else 0.0
        return {
            "submitted": float(self.submitted),
            "completed": float(self.completed),
            "reads": float(self.reads),
            "writes": float(self.writes),
            "demanded_bytes": float(self.demanded_bytes),
            "hedges_issued": float(self.hedges_issued),
            "hedges_won": float(self.hedges_won),
            "hedges_cancelled": float(self.hedges_cancelled),
            "hedges_wasted": float(self.hedges_wasted),
            "achieved_qps": achieved_qps,
            "mean_latency_ns": self.latency.mean_ns,
            "p50_ns": self.latency.p50_ns,
            "p95_ns": self.latency.p95_ns,
            "p99_ns": self.latency.p99_ns,
            "p999_ns": self.latency.p999_ns,
            "max_ns": self.latency.max_ns,
            "read_mean_latency_ns": self.read_latency.mean_ns,
            "read_p50_ns": self.read_latency.p50_ns,
            "read_p99_ns": self.read_latency.p99_ns,
            "read_p999_ns": self.read_latency.p999_ns,
            "read_max_ns": self.read_latency.max_ns,
        }


@dataclass
class ServerMetrics:
    """Live accumulator for one cluster node."""

    server: str
    #: Attempts routed here (primary reads, hedges, replica writes).
    attempts: int = 0
    #: Attempts that executed on the storage system and completed.
    completed: int = 0
    #: Hedge losers dropped from the ring before dispatch.
    cancelled: int = 0
    #: Fault transitions this node went through (begin edges).
    faults_begun: int = 0

    def snapshot(self) -> dict[str, float]:
        return {
            "attempts": float(self.attempts),
            "completed": float(self.completed),
            "cancelled": float(self.cancelled),
            "faults_begun": float(self.faults_begun),
        }


@dataclass
class ClusterResult:
    """Snapshot of one cluster run (the cluster's return value)."""

    system: str
    backend: str
    policy: str
    arbitration: str
    servers: int
    replication: int
    elapsed_ns: float
    events_processed: int
    tenants: dict[str, dict[str, float]]
    per_server: dict[str, dict[str, float]]
    #: Merged-across-tenants view (cluster-wide tails and throughput).
    overall: dict[str, float]
    #: Fault timeline as fired: ``{time_ns, edge, fault}`` entries.
    fault_timeline: list[dict[str, object]]

    @property
    def total_completed(self) -> int:
        return int(self.overall["completed"])

    @property
    def total_qps(self) -> float:
        if self.elapsed_ns <= 0:
            return 0.0
        return self.total_completed / (self.elapsed_ns / 1e9)

    def tenant(self, name: str) -> dict[str, float]:
        return self.tenants[name]

    def server(self, name: str) -> dict[str, float]:
        return self.per_server[name]

    def to_dict(self) -> dict[str, object]:
        """Deterministic, JSON-friendly dump (digest-comparable)."""
        return {
            "system": self.system,
            "backend": self.backend,
            "policy": self.policy,
            "arbitration": self.arbitration,
            "servers": self.servers,
            "replication": self.replication,
            "elapsed_ns": self.elapsed_ns,
            "events_processed": self.events_processed,
            "tenants": {
                name: dict(sorted(stats.items()))
                for name, stats in sorted(self.tenants.items())
            },
            "per_server": {
                name: dict(sorted(stats.items()))
                for name, stats in sorted(self.per_server.items())
            },
            "overall": dict(sorted(self.overall.items())),
            "fault_timeline": self.fault_timeline,
        }


__all__ = ["ClusterResult", "ClusterTenantMetrics", "ServerMetrics"]
