//! The system under test behind one client API: a `ReactorCluster`, or
//! a coordinator `SocketNode` and a participant `SocketNode` talking
//! over loopback TCP.

use crate::workload::{coordinator_kind, Workload, PROTOCOLS};
use acp_net::wire::{shared_history, AddressBook, NodeConfig, SharedHistory, SocketNode};
use acp_net::{
    ClusterConfig, ClusterReport, NetDelays, ReactorCluster, ReactorConfig, ReactorStats,
};
use acp_obs::wire::WireSnapshot;
use acp_obs::TraceSink;
use acp_types::{Outcome, SiteId, TxnId};
use acp_wal::tempdir::TempDir;
use crossbeam::channel::Receiver;
use std::sync::Arc;
use std::time::Duration;

/// Protocol timeouts no clean run reaches: a timer that fires is a
/// failed correctness check, not a tuning knob.
fn delays() -> NetDelays {
    NetDelays {
        vote_timeout: Duration::from_secs(120),
        ack_resend: Duration::from_secs(120),
        inquiry_retry: Duration::from_secs(120),
        apply_retry: Duration::from_secs(120),
        paxos_completion: Duration::from_secs(120),
    }
}

fn cluster_config() -> ClusterConfig {
    let mut cc = ClusterConfig::new(coordinator_kind(), &PROTOCOLS);
    cc.delays = delays();
    cc.group_commit = true;
    cc
}

pub enum System {
    Reactor(ReactorCluster),
    Socket {
        coord: SocketNode,
        parts: SocketNode,
        history: SharedHistory,
        _dir: TempDir,
    },
}

/// What the system reports at shutdown, merged across nodes.
pub struct Report {
    pub cluster: ClusterReport,
    pub stats: ReactorStats,
    /// Transport counters summed over both nodes (socket only).
    pub wire: Option<WireSnapshot>,
}

impl System {
    pub fn spawn(workload: Workload, sink: Option<Arc<dyn TraceSink>>) -> System {
        if !workload.over_socket() {
            let mut config = ReactorConfig::new(coordinator_kind(), &PROTOCOLS);
            config.cluster = cluster_config();
            return System::Reactor(match sink {
                Some(s) => ReactorCluster::spawn_with_sink(&config, s),
                None => ReactorCluster::spawn(&config),
            });
        }
        let dir = TempDir::new("perfbench-socket").expect("socket temp dir");
        let peers = dir.path().join("peers");
        let history = shared_history();
        let node = |hosted: Vec<SiteId>, name: &str| {
            let wal = dir.path().join(name);
            std::fs::create_dir_all(&wal).expect("node wal dir");
            let config = NodeConfig::new(
                cluster_config(),
                hosted,
                AddressBook::File(peers.clone()),
                wal,
            );
            SocketNode::spawn_with(config, sink.clone(), Arc::clone(&history))
                .expect("spawn socket node")
        };
        let coord = node(vec![SocketNode::COORDINATOR], "coord");
        let part_sites: Vec<SiteId> = (1..=PROTOCOLS.len() as u32).map(SiteId::new).collect();
        let parts = node(part_sites.clone(), "parts");
        let mut book = format!("0 {}\n", coord.local_addr());
        for s in &part_sites {
            book.push_str(&format!("{} {}\n", s.raw(), parts.local_addr()));
        }
        let tmp = peers.with_extension("tmp");
        std::fs::write(&tmp, book).expect("write address book");
        std::fs::rename(&tmp, &peers).expect("publish address book");
        System::Socket {
            coord,
            parts,
            history,
            _dir: dir,
        }
    }

    pub fn next_txn(&mut self) -> TxnId {
        match self {
            System::Reactor(c) => c.next_txn(),
            System::Socket { coord, .. } => coord.next_txn(),
        }
    }

    pub fn participants(&self) -> Vec<SiteId> {
        match self {
            System::Reactor(c) => c.participants(),
            System::Socket { coord, .. } => coord.participants(),
        }
    }

    pub fn apply(&self, site: SiteId, txn: TxnId, key: &[u8], value: &[u8]) {
        match self {
            System::Reactor(c) => c.apply(site, txn, key, value),
            System::Socket { coord, .. } => coord.apply(site, txn, key, value),
        }
    }

    pub fn commit_async(&self, txn: TxnId, participants: &[SiteId]) -> Receiver<Outcome> {
        match self {
            System::Reactor(c) => c.commit_async(txn, participants),
            System::Socket { coord, .. } => coord.commit_async(txn, participants),
        }
    }

    pub fn shutdown(self) -> Report {
        match self {
            System::Reactor(c) => {
                let r = c.shutdown();
                Report {
                    cluster: r.cluster,
                    stats: r.stats,
                    wire: None,
                }
            }
            System::Socket {
                coord,
                parts,
                history,
                _dir,
            } => {
                // Read the transport counters while both nodes still run:
                // shutting one down closes its connections, which the
                // other would count as a disconnect.
                let mut wire = coord.wire_metrics();
                let pw = parts.wire_metrics();
                for (x, y) in [
                    (&mut wire.frames_sent, pw.frames_sent),
                    (&mut wire.frames_recv, pw.frames_recv),
                    (&mut wire.bytes_sent, pw.bytes_sent),
                    (&mut wire.bytes_recv, pw.bytes_recv),
                    (&mut wire.disconnects, pw.disconnects),
                    (&mut wire.backpressure_drops, pw.backpressure_drops),
                    (&mut wire.decode_errors, pw.decode_errors),
                    (&mut wire.fault_drops, pw.fault_drops),
                ] {
                    *x += y;
                }
                let a = coord.shutdown();
                let b = parts.shutdown();
                let mut cluster = a.cluster;
                cluster.sites.extend(b.cluster.sites);
                cluster.group_commit.merge(&b.cluster.group_commit);
                cluster.logical_forces += b.cluster.logical_forces;
                cluster.physical_syncs += b.cluster.physical_syncs;
                cluster.history = history.lock().clone();
                let mut stats = a.stats;
                stats.merge(&b.stats);
                Report {
                    cluster,
                    stats,
                    wire: Some(wire),
                }
            }
        }
    }
}
