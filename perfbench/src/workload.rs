//! The two workloads and their seeded transaction plans.
//!
//! Every workload runs the same cluster: a PrAny(PaperStrict)
//! coordinator over three participants (PrN, PrA, PrC), file WALs with
//! group commit on, and protocol timeouts long enough that no timer
//! fires in a clean run. Every transaction writes 2 keys at each of 2–3
//! participants. The workloads differ in how many transactions the one
//! generator thread keeps outstanding, in how skewed the keys are, and
//! in the transport.

use acp_core::harness::jitter_hash;
use acp_types::{CoordinatorKind, ProtocolKind, SelectionPolicy, SiteId};
use acp_workload::{OpenLoopArrivals, OpenLoopPlan, PlannedTxn, RetryPolicy, TxnShape};
use std::time::Duration;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 128 outstanding with zipf skew 0.9: the no-wait lock table and
    /// the abort path.
    Contend,
    /// 64 outstanding, uniform keys, coordinator and participants as two
    /// socket nodes over loopback TCP.
    Socket,
}

pub const PROTOCOLS: [ProtocolKind; 3] = [ProtocolKind::PrN, ProtocolKind::PrA, ProtocolKind::PrC];

pub fn coordinator_kind() -> CoordinatorKind {
    CoordinatorKind::PrAny(SelectionPolicy::PaperStrict)
}

/// Aborted attempts retry under a fresh transaction id with capped
/// backoff, and give up after 12 attempts.
pub const RETRY: RetryPolicy = RetryPolicy::CappedBackoff {
    base: Duration::from_millis(1),
    cap: Duration::from_millis(25),
    give_up_after: 12,
};

pub const SHAPE: TxnShape = TxnShape {
    min_partitions: 2,
    max_partitions: 3,
    keys_per_partition: 2,
};

const KEY_POPULATION: u64 = 1_000_000;

/// Planned transactions generated per seed chunk.
const CHUNK: usize = 4096;

impl Workload {
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "contend" => Workload::Contend,
            "socket" => Workload::Socket,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Contend => "contend",
            Workload::Socket => "socket",
        }
    }

    /// Transactions the closed loop keeps outstanding (in flight or
    /// waiting out a retry backoff).
    pub fn outstanding(self) -> usize {
        match self {
            Workload::Contend => 128,
            Workload::Socket => 64,
        }
    }

    /// A round's fixed work: commits before its window opens, and
    /// commits the window holds. A round takes about 2–4 s on a 2-CPU
    /// host.
    pub fn round(self) -> (u64, u64) {
        match self {
            Workload::Contend => (1_000, 10_000),
            Workload::Socket => (2_000, 20_000),
        }
    }

    pub fn over_socket(self) -> bool {
        self == Workload::Socket
    }

    pub fn key_skew(self) -> f64 {
        match self {
            Workload::Contend => 0.9,
            Workload::Socket => 0.0,
        }
    }
}

/// An endless seeded plan: `acp-workload` generates it in chunks, each
/// from a seed derived from the benchmark seed and the chunk number,
/// so memory stays bounded however long the run.
pub struct PlanStream {
    workload: Workload,
    seed: u64,
    sites: Vec<SiteId>,
    chunk: u64,
    buf: std::vec::IntoIter<PlannedTxn>,
}

impl PlanStream {
    pub fn new(workload: Workload, seed: u64, sites: Vec<SiteId>) -> Self {
        PlanStream {
            workload,
            seed,
            sites,
            chunk: 0,
            buf: Vec::new().into_iter(),
        }
    }

    pub fn next_txn(&mut self) -> PlannedTxn {
        loop {
            if let Some(t) = self.buf.next() {
                return t;
            }
            let plan = OpenLoopPlan {
                arrivals: OpenLoopArrivals {
                    // Arrival times are ignored: the loop is closed.
                    rate_per_sec: 1000.0,
                    count: CHUNK,
                    seed: jitter_hash(self.seed, 0x7065_7266, self.chunk),
                },
                key_population: KEY_POPULATION,
                key_skew: self.workload.key_skew(),
                shape: SHAPE,
            };
            self.chunk += 1;
            self.buf = plan.generate(&self.sites).into_iter();
        }
    }
}

/// The site that receives the `i`th key of a planned transaction: the
/// plan lists `keys_per_partition` keys per participant, in
/// participant order.
pub fn key_site(t: &PlannedTxn, i: usize) -> SiteId {
    t.participants[i * t.participants.len() / t.keys.len()]
}
