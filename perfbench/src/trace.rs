//! The traced run: a benchmark-owned `TraceSink` on the existing
//! `ProtocolEvent` stream, and the commit stages derived from it.
//!
//! The sink stamps each event with `Instant::now()` as it is recorded,
//! on the same clock as the generator's own timestamps, and keeps
//! everything in memory until the run ends. Each transaction committed
//! in the window is then cut into consecutive client-path stages:
//!
//! * `retry`   — first `commit_async` to the committed attempt's
//!   `commit_async` (aborted attempts and their backoff; 0 if none),
//! * `intake`  — that `commit_async` to the coordinator's first
//!   `prepare` send,
//! * `prepare` — that send to the last vote the coordinator receives,
//! * `decide`  — the last vote to `DecisionReached`,
//! * `deliver` — `DecisionReached` to the client holding the outcome,
//!
//! plus `cleanup`, off the client path: `DecisionReached` to the
//! coordinator `LogGc` whose low-water mark passes the transaction's
//! last coordinator log record.

use crate::check;
use crate::drive::{drive, round_seed, warm_up, Run, Tally};
use crate::out::{quantile, ratio, sorted, Obj};
use crate::workload::Workload;
use acp_obs::sink::{CountingSink, FanoutSink};
use acp_obs::{Counter, MetricsRegistry, ProtoLabel, ProtocolEvent, TraceSink};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Keeps every event in memory with the instant it was recorded.
#[derive(Default)]
pub struct TimedSink {
    events: Mutex<Vec<(Instant, ProtocolEvent)>>,
}

impl TraceSink for TimedSink {
    fn record(&self, ev: &ProtocolEvent) {
        let now = Instant::now();
        self.events
            .lock()
            .expect("trace sink lock poisoned")
            .push((now, ev.clone()));
    }
}

impl TimedSink {
    fn take(&self) -> Vec<(Instant, ProtocolEvent)> {
        std::mem::take(&mut *self.events.lock().expect("trace sink lock poisoned"))
    }
}

/// Coordinator-side marks of one transaction.
#[derive(Default)]
struct Marks {
    prepare_sent: Option<Instant>,
    last_vote: Option<Instant>,
    decided: Option<Instant>,
    /// LSN of the transaction's last record in the coordinator log.
    last_lsn: Option<u64>,
    cleaned: Option<Instant>,
}

const COORD: u32 = 0;

fn marks(events: &[(Instant, ProtocolEvent)]) -> HashMap<u64, Marks> {
    let mut m: HashMap<u64, Marks> = HashMap::new();
    let mut gcs: Vec<(Instant, u64)> = Vec::new();
    // The coordinator log numbers its records from 0, one per write
    // event, in the order the coordinator's thread emits them.
    let mut lsn = 0u64;
    for (at, ev) in events {
        match ev {
            ProtocolEvent::MsgSend {
                site: COORD,
                kind: "prepare",
                txn: Some(t),
                ..
            } => {
                m.entry(*t).or_default().prepare_sent.get_or_insert(*at);
            }
            ProtocolEvent::MsgRecv {
                site: COORD,
                kind: "vote",
                txn: Some(t),
                ..
            } => {
                let e = m.entry(*t).or_default();
                e.last_vote = Some(e.last_vote.map_or(*at, |v| v.max(*at)));
            }
            ProtocolEvent::DecisionReached {
                site: COORD,
                txn: Some(t),
                ..
            } => {
                m.entry(*t).or_default().decided.get_or_insert(*at);
            }
            ProtocolEvent::ForceWrite {
                site: COORD, txn, ..
            }
            | ProtocolEvent::NonForcedWrite {
                site: COORD, txn, ..
            } => {
                if let Some(t) = txn {
                    m.entry(*t).or_default().last_lsn = Some(lsn);
                }
                lsn += 1;
            }
            ProtocolEvent::LogGc {
                site: COORD,
                released_up_to,
                ..
            } => gcs.push((*at, *released_up_to)),
            _ => {}
        }
    }
    let mut by_lsn: Vec<(u64, u64)> = m
        .iter()
        .filter_map(|(t, k)| k.last_lsn.map(|l| (l, *t)))
        .collect();
    by_lsn.sort_unstable();
    let mut next = 0;
    for (at, low_water) in gcs {
        while next < by_lsn.len() && by_lsn[next].0 < low_water {
            if let Some(k) = m.get_mut(&by_lsn[next].1) {
                k.cleaned = Some(at);
            }
            next += 1;
        }
    }
    m
}

fn us(from: Instant, to: Instant) -> f64 {
    if to >= from {
        (to - from).as_nanos() as f64 / 1e3
    } else {
        -((from - to).as_nanos() as f64 / 1e3)
    }
}

const CLIENT_STAGES: [&str; 5] = ["retry", "intake", "prepare", "decide", "deliver"];

/// Cut every committed window transaction into stages; write the
/// per-transaction spans to `out` and the summary into `obj`.
fn stages(
    run: &Run,
    events: &[(Instant, ProtocolEvent)],
    out: &Path,
    workload: Workload,
    obj: &mut Obj,
) {
    let m = marks(events);
    let mut client: [Vec<f64>; 5] = Default::default();
    let mut cleanup = Vec::new();
    let mut latency_sum = 0.0;
    let mut complete = 0u64;
    let mut csv = String::from(
        "txn,retry_us,intake_us,prepare_us,decide_us,deliver_us,cleanup_us,latency_us\n",
    );
    for s in &run.d.spans {
        let latency = us(s.first, s.done);
        latency_sum += latency;
        let k = m.get(&s.txn.raw());
        let (Some(p), Some(v), Some(dcd)) = (
            k.and_then(|k| k.prepare_sent),
            k.and_then(|k| k.last_vote),
            k.and_then(|k| k.decided),
        ) else {
            continue;
        };
        complete += 1;
        let parts = [
            us(s.first, s.attempt),
            us(s.attempt, p),
            us(p, v),
            us(v, dcd),
            us(dcd, s.done),
        ];
        for (acc, x) in client.iter_mut().zip(parts) {
            acc.push(x);
        }
        let c = k.and_then(|k| k.cleaned).map(|c| us(dcd, c));
        if let Some(c) = c {
            cleanup.push(c);
        }
        let _ = writeln!(
            csv,
            "{},{:.1},{:.1},{:.1},{:.1},{:.1},{},{:.1}",
            s.txn.raw(),
            parts[0],
            parts[1],
            parts[2],
            parts[3],
            parts[4],
            c.map_or(String::new(), |c| format!("{c:.1}")),
            latency
        );
    }
    let mut explained = 0.0;
    for (name, xs) in CLIENT_STAGES.iter().zip(&client) {
        let share = ratio(xs.iter().sum(), latency_sum);
        explained += share;
        obj.num(
            &format!("stage.{name}_us"),
            quantile(&sorted(xs.clone()), 0.5),
        );
        obj.num(&format!("stage.{name}_share"), share);
    }
    obj.num("stage.cleanup_us", quantile(&sorted(cleanup.clone()), 0.5));
    obj.num(
        "stage.cleanup_share",
        ratio(cleanup.iter().sum(), latency_sum)
            * ratio(run.d.spans.len() as f64, cleanup.len() as f64),
    );
    obj.num("stage.explained_share", explained);
    obj.num(
        "stage.traced_share",
        ratio(complete as f64, run.d.spans.len() as f64),
    );
    obj.num(
        "stage.mean_latency_us",
        ratio(latency_sum, run.d.spans.len() as f64),
    );
    if std::fs::create_dir_all(out).is_ok() {
        let _ = std::fs::write(out.join(format!("spans-{}.csv", workload.name())), csv);
    }
}

/// The `traced` phase: the warm-up round, then one round with the sink
/// installed.
pub fn traced_phase(workload: Workload, seed: u64, out: &Path, obj: &mut Obj) {
    let timed = Arc::new(TimedSink::default());
    let registry = Arc::new(MetricsRegistry::new());
    let sink: Arc<dyn TraceSink> = Arc::new(FanoutSink::new(vec![
        Arc::clone(&timed) as Arc<dyn TraceSink>,
        Arc::new(CountingSink::new(Arc::clone(&registry))),
    ]));
    let mut problems = Vec::new();
    warm_up(workload, seed, &mut problems);
    let run = drive(workload, round_seed(seed, 1), Some(sink));
    problems.extend(check::check_run(workload, &run));
    obj.bool("correct", problems.is_empty());
    obj.strs("problems", &problems);
    let mut tally = Tally::default();
    tally.add(&run.d);
    tally.write(obj);
    let total = |c: Counter| {
        ProtoLabel::ALL
            .iter()
            .map(|&p| registry.get(p, c))
            .sum::<u64>()
    };
    obj.num(
        "core.msgs_per_commit",
        ratio(
            total(Counter::MsgsSent) as f64,
            total(Counter::DecisionsReached) as f64,
        ),
    );
    let events = timed.take();
    obj.num("trace.events", events.len() as f64);
    stages(&run, &events, out, workload, obj);
}
