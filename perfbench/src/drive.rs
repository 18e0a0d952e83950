//! The closed-loop generator and the `run` phase.
//!
//! One thread keeps `outstanding` transactions in progress. Each takes
//! the next planned transaction, stages its writes with `apply`, and
//! starts the commit with `commit_async`. An aborted attempt retries
//! under a fresh transaction id after the capped backoff, until the
//! retry policy gives up.
//!
//! A drive is one round of fixed work on a fresh cluster: a warm-up of
//! `warm` commits, then a measured window that holds the next
//! `measured` commits, then the loop stops offering and drains what is
//! still in progress. The cluster's state (its ACTA history, the
//! participants' outcome tables) grows with every commit and slows the
//! system down as it grows, so a window of fixed work, rather than of
//! fixed time, sees the same state on a fast host as on a slow one.
//! The `run` phase drives rounds until its time budget is spent and
//! reports the median over rounds.

use crate::check;
use crate::out::{mean, quantile, ratio, sorted, Obj};
use crate::system::{Report, System};
use crate::workload::{key_site, PlanStream, Workload, RETRY};
use acp_core::harness::jitter_hash;
use acp_obs::TraceSink;
use acp_types::{Outcome, SiteId, TxnId};
use acp_workload::PlannedTxn;
use crossbeam::channel::{Receiver, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Measured rounds the `run` phase drives at least, however short its
/// budget.
const MIN_ROUNDS: usize = 3;

/// How long a round may take to reach the end of its window before the
/// run counts what is still in progress as unresolved.
const ROUND_LIMIT: Duration = Duration::from_secs(60);

/// How long in-progress transactions may take to drain after the
/// window before the run counts them as unresolved.
const DRAIN_LIMIT: Duration = Duration::from_secs(20);

/// Time left after the drain for the last decisions to reach the
/// participants before shutdown.
const SETTLE: Duration = Duration::from_millis(300);

/// One attempt, as the client saw it: what the correctness checks need.
pub struct Attempt {
    pub txn: TxnId,
    pub participants: Vec<SiteId>,
    pub outcome: Option<Outcome>,
}

/// A transaction committed inside the window, as the client timed it.
pub struct ClientSpan {
    pub txn: TxnId,
    /// The transaction's first `commit_async` (first attempt).
    pub first: Instant,
    /// The committed attempt's `commit_async`.
    pub attempt: Instant,
    /// When the client held the `Commit`.
    pub done: Instant,
}

impl ClientSpan {
    /// Client latency: first `commit_async` to `Commit` in hand,
    /// retries included.
    pub fn latency_us(&self) -> f64 {
        (self.done - self.first).as_nanos() as f64 / 1e3
    }
}

/// Everything a drive produced.
pub struct Drive {
    /// Commits the window was to hold.
    pub measured: u64,
    /// From the commit that ends the warm-up to the last commit of the
    /// window.
    pub window: Duration,
    pub window_commits: u64,
    pub window_attempts: u64,
    pub window_aborts: u64,
    pub window_giveups: u64,
    pub window_lost: u64,
    pub window_retries: u64,
    /// Time inside `apply` and `commit_async`, per attempt in the window.
    pub submit_us: Vec<f64>,
    pub total_commits: u64,
    pub total_lost: u64,
    pub unresolved: usize,
    pub attempts: Vec<Attempt>,
    /// (site, key, txn) of every write of every committed attempt.
    pub committed_writes: Vec<(SiteId, String, TxnId)>,
    pub spans: Vec<ClientSpan>,
}

/// A finished drive with the system's shutdown report.
pub struct Run {
    pub d: Drive,
    pub report: Report,
    /// Spawn to shutdown.
    pub elapsed: Duration,
}

struct InFlight {
    plan: PlannedTxn,
    txn: TxnId,
    rx: Receiver<Outcome>,
    first: Instant,
    started: Instant,
    aborted: u32,
    attempt_idx: usize,
}

struct Waiting {
    plan: PlannedTxn,
    due: Instant,
    first: Instant,
    aborted: u32,
}

/// The value a transaction writes: its id, so a stored value names the
/// transaction that installed it.
pub fn value_of(txn: TxnId) -> [u8; 8] {
    txn.raw().to_le_bytes()
}

struct Loop {
    sys: System,
    warm: u64,
    /// When the warm-up's last commit arrived.
    opened: Option<Instant>,
    /// When the window's last commit arrived.
    closed: Option<Instant>,
    inflight: Vec<InFlight>,
    waiting: Vec<Waiting>,
    d: Drive,
}

impl Loop {
    fn in_window(&self) -> bool {
        self.opened.is_some() && self.closed.is_none()
    }

    fn submit(&mut self, plan: PlannedTxn, first: Option<Instant>, aborted: u32) {
        let t0 = Instant::now();
        let txn = self.sys.next_txn();
        let value = value_of(txn);
        for (i, key) in plan.keys.iter().enumerate() {
            self.sys
                .apply(key_site(&plan, i), txn, key.as_bytes(), &value);
        }
        let started = Instant::now();
        let rx = self.sys.commit_async(txn, &plan.participants);
        let t1 = Instant::now();
        if self.in_window() {
            self.d.submit_us.push((t1 - t0).as_nanos() as f64 / 1e3);
            self.d.window_attempts += 1;
            if aborted > 0 {
                self.d.window_retries += 1;
            }
        }
        self.d.attempts.push(Attempt {
            txn,
            participants: plan.participants.clone(),
            outcome: None,
        });
        self.inflight.push(InFlight {
            attempt_idx: self.d.attempts.len() - 1,
            plan,
            txn,
            rx,
            first: first.unwrap_or(started),
            started,
            aborted,
        });
    }

    /// Settle the attempt at `inflight[i]` with what its channel said.
    fn resolve(&mut self, i: usize, got: Result<Outcome, ()>) {
        let now = Instant::now();
        let f = self.inflight.swap_remove(i);
        let counted = self.in_window();
        let Ok(outcome) = got else {
            self.d.total_lost += 1;
            if counted {
                self.d.window_lost += 1;
            }
            return;
        };
        self.d.attempts[f.attempt_idx].outcome = Some(outcome);
        match outcome {
            Outcome::Commit => {
                self.d.total_commits += 1;
                for (k, key) in f.plan.keys.iter().enumerate() {
                    self.d
                        .committed_writes
                        .push((key_site(&f.plan, k), key.clone(), f.txn));
                }
                if counted {
                    self.d.window_commits += 1;
                    self.d.spans.push(ClientSpan {
                        txn: f.txn,
                        first: f.first,
                        attempt: f.started,
                        done: now,
                    });
                    if self.d.window_commits == self.d.measured {
                        self.closed = Some(now);
                    }
                } else if self.opened.is_none() && self.d.total_commits == self.warm {
                    self.opened = Some(now);
                }
            }
            Outcome::Abort => {
                if counted {
                    self.d.window_aborts += 1;
                }
                let aborted = f.aborted + 1;
                match RETRY.next_delay(aborted, f.plan.salt) {
                    Some(delay) => self.waiting.push(Waiting {
                        plan: f.plan,
                        due: now + delay,
                        first: f.first,
                        aborted,
                    }),
                    None => {
                        if counted {
                            self.d.window_giveups += 1;
                        }
                    }
                }
            }
        }
    }
}

/// Drive one round of `workload` on a fresh cluster: its warm-up, then
/// its window, then drain and shut down. `sink` is `None` for every
/// end-to-end run.
pub fn drive(workload: Workload, seed: u64, sink: Option<Arc<dyn TraceSink>>) -> Run {
    let (warm, measured) = workload.round();
    let t_spawn = Instant::now();
    let sys = System::spawn(workload, sink);
    let mut plan = PlanStream::new(workload, seed, sys.participants());
    let start = Instant::now();
    let mut lp = Loop {
        sys,
        warm,
        opened: None,
        closed: None,
        inflight: Vec::with_capacity(workload.outstanding()),
        waiting: Vec::new(),
        d: Drive {
            measured,
            window: Duration::ZERO,
            window_commits: 0,
            window_attempts: 0,
            window_aborts: 0,
            window_giveups: 0,
            window_lost: 0,
            window_retries: 0,
            submit_us: Vec::new(),
            total_commits: 0,
            total_lost: 0,
            unresolved: 0,
            attempts: Vec::new(),
            committed_writes: Vec::new(),
            spans: Vec::new(),
        },
    };
    loop {
        let now = Instant::now();
        let offering = lp.closed.is_none();
        while offering && lp.inflight.len() + lp.waiting.len() < workload.outstanding() {
            let t = plan.next_txn();
            lp.submit(t, None, 0);
        }
        let mut i = 0;
        while i < lp.waiting.len() {
            if lp.waiting[i].due <= now {
                let w = lp.waiting.swap_remove(i);
                lp.submit(w.plan, Some(w.first), w.aborted);
            } else {
                i += 1;
            }
        }
        let mut progressed = false;
        let mut j = 0;
        while j < lp.inflight.len() {
            match lp.inflight[j].rx.try_recv() {
                Ok(o) => lp.resolve(j, Ok(o)),
                Err(TryRecvError::Disconnected) => lp.resolve(j, Err(())),
                Err(TryRecvError::Empty) => {
                    j += 1;
                    continue;
                }
            }
            progressed = true;
        }
        if !offering && lp.inflight.is_empty() && lp.waiting.is_empty() {
            break;
        }
        let limit = lp.closed.map_or(start + ROUND_LIMIT, |c| c + DRAIN_LIMIT);
        if now > limit {
            lp.d.unresolved = lp.inflight.len() + lp.waiting.len();
            break;
        }
        if !progressed {
            std::thread::sleep(Duration::from_micros(50));
        }
    }
    if let (Some(from), Some(to)) = (lp.opened, lp.closed) {
        lp.d.window = to - from;
    }
    std::thread::sleep(SETTLE);
    let Loop { sys, d, .. } = lp;
    let report = sys.shutdown();
    Run {
        d,
        report,
        elapsed: t_spawn.elapsed(),
    }
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The end-to-end figures of one or more rounds: each round's
/// throughput and latency quantiles, from its raw per-transaction
/// samples, and the window counts summed over the rounds. The reported
/// throughput and quantiles are the medians over the rounds, so a host
/// stall that hits one round does not move them.
#[derive(Default)]
pub struct Tally {
    rounds: Vec<[f64; 3]>,
    commits: u64,
    attempts: u64,
    aborts: u64,
    giveups: u64,
    lost: u64,
    unresolved: u64,
}

impl Tally {
    pub fn add(&mut self, d: &Drive) {
        let lat = sorted(d.spans.iter().map(ClientSpan::latency_us).collect());
        self.rounds.push([
            ratio(d.window_commits as f64, d.window.as_secs_f64()),
            quantile(&lat, 0.50),
            quantile(&lat, 0.99),
        ]);
        self.commits += d.window_commits;
        self.attempts += d.window_attempts;
        self.aborts += d.window_aborts;
        self.giveups += d.window_giveups;
        self.lost += d.window_lost;
        self.unresolved += d.unresolved as u64;
    }

    fn median(&self, i: usize) -> f64 {
        quantile(&sorted(self.rounds.iter().map(|r| r[i]).collect()), 0.5)
    }

    pub fn write(&self, obj: &mut Obj) {
        let resolved = self.commits + self.giveups + self.lost;
        obj.num("throughput_tps", self.median(0));
        obj.num("commit_p50_us", self.median(1));
        obj.num("commit_p99_us", self.median(2));
        obj.num("rounds", self.rounds.len() as f64);
        let tps: Vec<String> = self.rounds.iter().map(|r| format!("{:.0}", r[0])).collect();
        obj.strs("round_tps", &tps);
        obj.num("commit_samples", self.commits as f64);
        obj.num(
            "abort_share",
            ratio(self.aborts as f64, self.attempts as f64),
        );
        obj.num(
            "attempts_per_commit",
            ratio(self.attempts as f64, self.commits as f64),
        );
        obj.num(
            "failed_share",
            ratio((self.giveups + self.lost) as f64, resolved as f64),
        );
        obj.num("commit_share", ratio(self.commits as f64, resolved as f64));
        obj.num("attempted", self.attempts as f64);
        obj.num("failed", (self.lost + self.unresolved) as f64);
    }
}

/// Counters the public reports return, per commit over the whole run.
pub fn report_counters(run: &Run, obj: &mut Obj) {
    let (d, r) = (&run.d, &run.report);
    let c = &r.cluster;
    let commits = d.total_commits as f64;
    obj.num(
        "wal.syncs_per_commit",
        ratio(c.physical_syncs as f64, commits),
    );
    obj.num(
        "wal.forces_per_commit",
        ratio(c.logical_forces as f64, commits),
    );
    obj.num(
        "wal.batch_occupancy",
        ratio(
            c.group_commit.batched_appends as f64,
            c.group_commit.batches as f64,
        ),
    );
    let (mut commits_enforced, mut aborts_enforced) = (0u64, 0u64);
    for s in &c.sites {
        for o in s.enforced.values() {
            match o {
                Outcome::Commit => commits_enforced += 1,
                Outcome::Abort => aborts_enforced += 1,
            }
        }
    }
    obj.num(
        "engine.aborts_per_commit",
        ratio(aborts_enforced as f64, commits_enforced as f64),
    );
    let ticks = r.stats.ticks as f64;
    obj.num("reactor.ticks_per_commit", ratio(ticks, commits));
    obj.num(
        "reactor.tick_us",
        ratio(run.elapsed.as_secs_f64() * 1e6, ticks),
    );
    obj.num(
        "reactor.envelopes_per_tick",
        ratio(r.stats.envelopes as f64, ticks),
    );
    obj.num("reactor.max_inflight", r.stats.max_inflight as f64);
    obj.num("reactor.timers_fired", r.stats.timers_fired as f64);
    let (frames, bytes, drops) = r.wire.map_or((0, 0, 0), |w| {
        (
            w.frames_sent,
            w.bytes_sent,
            w.backpressure_drops + w.decode_errors + w.disconnects,
        )
    });
    obj.num("wire.frames_per_commit", ratio(frames as f64, commits));
    obj.num("wire.bytes_per_commit", ratio(bytes as f64, commits));
    obj.num("wire.drops", drops as f64);
    obj.num(
        "acta.events_per_commit",
        ratio(c.history.len() as f64, commits),
    );
    obj.num("client.submit_us", mean(&d.submit_us));
    obj.num(
        "client.retries_per_commit",
        ratio(d.window_retries as f64, d.window_commits as f64),
    );
}

/// The plan seed of round `round` of a phase seeded with `seed`.
pub fn round_seed(seed: u64, round: usize) -> u64 {
    jitter_hash(seed, 0x726f_756e, round as u64)
}

fn check_round(workload: Workload, round: usize, run: &Run, problems: &mut Vec<String>) {
    problems.extend(
        check::check_run(workload, run)
            .into_iter()
            .map(|p| format!("round {round}: {p}")),
    );
}

/// Round 0 of a phase: driven untraced and checked, but not measured.
/// A fresh process runs its first rounds up to 40% slower on `socket`
/// while the allocator and the kernel map memory for it. Returns the
/// process's high-water mark after this one round of fixed work, read
/// before the checks allocate.
pub fn warm_up(workload: Workload, seed: u64, problems: &mut Vec<String>) -> f64 {
    let run = drive(workload, round_seed(seed, 0), None);
    let rss = peak_rss_mb();
    check_round(workload, 0, &run, problems);
    rss
}

/// The `run` phase: the warm-up round, then measured untraced rounds
/// until `budget` is spent, each checked; the figures over the measured
/// rounds, and the counters of the last.
pub fn run_phase(workload: Workload, seed: u64, budget: Duration, obj: &mut Obj) {
    let start = Instant::now();
    let mut tally = Tally::default();
    let mut problems = Vec::new();
    // Later rounds would add only allocator fragmentation, which grows
    // with the number of rounds and so with the host's speed.
    obj.num("peak_rss_mb", warm_up(workload, seed, &mut problems));
    for round in 1.. {
        let run = drive(workload, round_seed(seed, round), None);
        check_round(workload, round, &run, &mut problems);
        tally.add(&run.d);
        if round >= MIN_ROUNDS && start.elapsed() >= budget {
            report_counters(&run, obj);
            break;
        }
    }
    obj.bool("correct", problems.is_empty());
    obj.strs("problems", &problems);
    tally.write(obj);
}
