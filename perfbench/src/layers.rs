//! The `setup` phase and the per-layer drivers of the `layers` phase:
//! timed direct calls into each layer's public functions, on inputs
//! taken from the workload's own plan (its participant counts, keys per
//! participant, record sizes and message mix).

use crate::check::check_history;
use crate::drive::value_of;
use crate::out::{quantile, sorted, Obj};
use crate::system::System;
use crate::workload::{coordinator_kind, key_site, PlanStream, Workload, PROTOCOLS, SHAPE};
use acp_core::harness::{run_scenario, Scenario};
use acp_engine::SiteEngine;
use acp_net::wire::{encode_wire_frame, FrameDecoder, WireMsg};
use acp_sim::SimTime;
use acp_types::{
    CommitMode, LogPayload, Message, Outcome, ParticipantEntry, Payload, ProtocolKind, SiteId,
    TxnId, Vote,
};
use acp_wal::tempdir::TempDir;
use acp_wal::{FileLog, StableLog};
use acp_workload::PlannedTxn;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Set-ups per `setup` phase; the phase reports their median.
const SETUP_REPS: usize = 41;

/// Wall time each CPU-bound driver runs for.
const DRIVER_TIME: Duration = Duration::from_millis(400);

fn sites() -> Vec<SiteId> {
    (1..=PROTOCOLS.len() as u32).map(SiteId::new).collect()
}

fn protocol_of(site: SiteId) -> ProtocolKind {
    PROTOCOLS[site.raw() as usize - 1]
}

fn us(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

/// `setup_s`: from the spawn call until one probe transaction has
/// committed, several times, each on a fresh cluster.
pub fn setup_phase(workload: Workload, seed: u64, obj: &mut Obj) {
    let mut plan = PlanStream::new(workload, seed, sites());
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut problems = Vec::new();
    for _ in 0..SETUP_REPS {
        let probe = plan.next_txn();
        let t0 = Instant::now();
        let mut sys = System::spawn(workload, None);
        let txn = sys.next_txn();
        for (i, key) in probe.keys.iter().enumerate() {
            sys.apply(key_site(&probe, i), txn, key.as_bytes(), &value_of(txn));
        }
        let got = sys
            .commit_async(txn, &probe.participants)
            .recv_timeout(Duration::from_secs(20));
        let dt = t0.elapsed();
        let report = sys.shutdown();
        if got != Ok(Outcome::Commit) {
            problems.push(format!("probe transaction got {got:?}"));
        }
        problems.extend(check_history(&report.cluster.history));
        times.push(dt.as_secs_f64());
    }
    let times = sorted(times);
    obj.bool("correct", problems.is_empty());
    obj.strs("problems", &problems);
    obj.num("setup_s", quantile(&times, 0.5));
    obj.num("setup_reps", times.len() as f64);
    let force = sorted(wal_force_us(workload, seed, 100));
    obj.num("wal.force_us", quantile(&force, 0.5));
}

/// The coordinator's forced initiation record for a planned transaction.
fn initiation(t: &PlannedTxn, txn: TxnId) -> LogPayload {
    LogPayload::Initiation {
        txn,
        participants: t
            .participants
            .iter()
            .map(|&site| ParticipantEntry {
                site,
                protocol: protocol_of(site),
            })
            .collect(),
        mode: CommitMode::PrAny,
    }
}

/// `wal.force_us`: forced `FileLog` appends of the workload's
/// initiation records, in the temp directory the cluster's WALs use.
fn wal_force_us(workload: Workload, seed: u64, n: usize) -> Vec<f64> {
    let dir = TempDir::new("perfbench-wal").expect("wal temp dir");
    let mut log = FileLog::create(dir.path().join("force.wal")).expect("create wal");
    let mut plan = PlanStream::new(workload, seed, sites());
    (1..=n as u64)
        .map(|i| {
            let payload = initiation(&plan.next_txn(), TxnId::new(i));
            let t0 = Instant::now();
            log.append(payload, true).expect("forced append");
            us(t0.elapsed())
        })
        .collect()
}

/// `core.*_txn_us`: one PrAny transaction over the planned participants
/// through the deterministic harness, clean or vetoed by its first
/// participant.
fn core_txn_us(plan: &mut PlanStream, veto: bool, problems: &mut Vec<String>) -> f64 {
    let txn = TxnId::new(1);
    let expect = if veto {
        Outcome::Abort
    } else {
        Outcome::Commit
    };
    let mut times = Vec::new();
    let until = Instant::now() + DRIVER_TIME;
    while Instant::now() < until {
        let t = plan.next_txn();
        let mut scenario = Scenario::new(coordinator_kind(), &PROTOCOLS);
        let spec = scenario.add_txn(txn, SimTime::ZERO);
        spec.participants = t.participants.clone();
        if veto {
            spec.votes.insert(t.participants[0], Vote::No);
        }
        let t0 = Instant::now();
        let outcome = run_scenario(black_box(&scenario));
        times.push(us(t0.elapsed()));
        if outcome.decided.get(&txn) != Some(&expect) && problems.is_empty() {
            problems.push(format!(
                "harness decided {:?}, expected {expect}",
                outcome.decided.get(&txn)
            ));
        }
    }
    quantile(&sorted(times), 0.5)
}

/// `engine.txn_us`: one participant's share of a planned transaction on
/// a `SiteEngine` over a `FileLog` — begin, put its keys, lazy prepare,
/// commit — with the data log flushed every 256 transactions outside
/// the timed region, as the reactor flushes it once per tick.
fn engine_txn_us(plan: &mut PlanStream, problems: &mut Vec<String>) -> f64 {
    let dir = TempDir::new("perfbench-engine").expect("engine temp dir");
    let mut engine =
        SiteEngine::new(FileLog::create(dir.path().join("data.wal")).expect("create data wal"));
    let kpp = SHAPE.keys_per_partition;
    let mut times = Vec::new();
    let until = Instant::now() + DRIVER_TIME;
    let mut i = 0u64;
    while Instant::now() < until {
        i += 1;
        let t = plan.next_txn();
        let txn = TxnId::new(i);
        let value = i.to_le_bytes();
        let t0 = Instant::now();
        let r = (|| {
            engine.begin(txn);
            for key in &t.keys[..kpp] {
                engine.put(txn, key.as_bytes(), &value)?;
            }
            engine.prepare_lazy(txn)?;
            engine.resolve(txn, Outcome::Commit)
        })();
        times.push(us(t0.elapsed()));
        if let Err(e) = r {
            if problems.is_empty() {
                problems.push(format!("engine: {e}"));
            }
        }
        if i.is_multiple_of(256) {
            if let Err(e) = engine.flush_log() {
                problems.push(format!("engine flush: {e}"));
            }
        }
    }
    quantile(&sorted(times), 0.5)
}

/// One commit's frames over the wire: the client's applies, then
/// prepare, vote, decision to every participant, and an ack from each
/// one that acknowledges commits (PrN and PrA; PrC presumes commit).
fn commit_mix(t: &PlannedTxn, txn: TxnId) -> Vec<WireMsg> {
    let coord = SiteId::new(0);
    let mut out: Vec<WireMsg> = t
        .keys
        .iter()
        .enumerate()
        .map(|(i, key)| WireMsg::Apply {
            to: key_site(t, i),
            txn,
            key: key.as_bytes().to_vec(),
            value: value_of(txn).to_vec(),
        })
        .collect();
    for &p in &t.participants {
        out.push(WireMsg::Protocol(Message::new(
            coord,
            p,
            Payload::Prepare { txn },
        )));
        out.push(WireMsg::Protocol(Message::new(
            p,
            coord,
            Payload::Vote {
                txn,
                vote: Vote::Yes,
            },
        )));
        out.push(WireMsg::Protocol(Message::new(
            coord,
            p,
            Payload::Decision {
                txn,
                outcome: Outcome::Commit,
            },
        )));
        if protocol_of(p) != ProtocolKind::PrC {
            out.push(WireMsg::Protocol(Message::new(
                p,
                coord,
                Payload::Ack { txn },
            )));
        }
    }
    out
}

/// `wire.encode_ns` / `wire.decode_ns`: per frame, over batches of 64
/// planned commits' message mixes; the median batch.
fn wire_ns(plan: &mut PlanStream, problems: &mut Vec<String>) -> (f64, f64) {
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    let until = Instant::now() + DRIVER_TIME;
    let mut next = 1u64;
    while Instant::now() < until {
        let msgs: Vec<WireMsg> = (0..64)
            .flat_map(|_| {
                next += 1;
                commit_mix(&plan.next_txn(), TxnId::new(next))
            })
            .collect();
        let t0 = Instant::now();
        let frames: Vec<Vec<u8>> = msgs
            .iter()
            .enumerate()
            .map(|(i, m)| encode_wire_frame(i as u64, black_box(m)))
            .collect();
        enc.push(t0.elapsed().as_nanos() as f64 / msgs.len() as f64);
        let stream = frames.concat();
        let t0 = Instant::now();
        let mut decoder = FrameDecoder::new();
        decoder.feed(black_box(&stream));
        let mut decoded = Vec::with_capacity(msgs.len());
        while let Ok(Some((_, m))) = decoder.next_frame() {
            decoded.push(m);
        }
        dec.push(t0.elapsed().as_nanos() as f64 / msgs.len() as f64);
        if decoded != msgs && problems.is_empty() {
            problems.push("wire: decoded frames differ from the encoded messages".into());
        }
    }
    (quantile(&sorted(enc), 0.5), quantile(&sorted(dec), 0.5))
}

/// The `layers` phase.
pub fn layers_phase(workload: Workload, seed: u64, obj: &mut Obj) {
    let mut problems = Vec::new();
    let mut plan = PlanStream::new(workload, seed, sites());
    let force = sorted(wal_force_us(workload, seed, 1000));
    obj.num("wal.force_us_p50", quantile(&force, 0.5));
    obj.num("wal.force_us_p99", quantile(&force, 0.99));
    obj.num(
        "core.commit_txn_us",
        core_txn_us(&mut plan, false, &mut problems),
    );
    obj.num(
        "core.abort_txn_us",
        core_txn_us(&mut plan, true, &mut problems),
    );
    obj.num("engine.txn_us", engine_txn_us(&mut plan, &mut problems));
    let (enc, dec) = wire_ns(&mut plan, &mut problems);
    obj.num("wire.encode_ns", enc);
    obj.num("wire.decode_ns", dec);
    obj.bool("correct", problems.is_empty());
    obj.strs("problems", &problems);
}
