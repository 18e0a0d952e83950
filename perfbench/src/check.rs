//! Correctness checks every run must pass. A run with any problem
//! reports `correct: false`, and the benchmark fails it.

use crate::drive::Run;
use crate::workload::Workload;
use acp_acta::{check_atomicity, check_safe_state, History};
use acp_types::{Outcome, SiteId, TxnId};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Keep the report readable when something is badly wrong.
const MAX_PROBLEMS: usize = 8;

struct Problems(Vec<String>);

impl Problems {
    fn push(&mut self, p: String) {
        if self.0.len() < MAX_PROBLEMS {
            self.0.push(p);
        }
    }
}

/// ACTA atomicity over the whole history, and the safe-state predicate
/// (Definition 2) for every transaction at the coordinator. The history
/// is split per transaction first: the predicate only looks at one
/// transaction's events, and the split keeps the check linear.
pub fn check_history(history: &History) -> Vec<String> {
    let mut out = Problems(Vec::new());
    for v in check_atomicity(history) {
        out.push(format!("atomicity: {v}"));
    }
    let events = history.events();
    let mut per_txn: HashMap<TxnId, Vec<usize>> = HashMap::new();
    for (i, e) in events.iter().enumerate() {
        if let Some(t) = e.txn() {
            per_txn.entry(t).or_default().push(i);
        }
    }
    for (txn, idx) in per_txn {
        let mut h = History::new();
        for i in idx {
            h.push(events[i].clone());
        }
        for v in check_safe_state(&h, SiteId::new(0), txn) {
            out.push(format!("safe state: {v}"));
        }
    }
    out.0
}

pub fn check_run(workload: Workload, run: &Run) -> Vec<String> {
    let (d, r) = (&run.d, &run.report);
    let mut out = Problems(check_history(&r.cluster.history));

    if d.total_lost > 0 {
        out.push(format!(
            "{} commit replies were dropped without an outcome",
            d.total_lost
        ));
    }
    if d.unresolved > 0 {
        out.push(format!(
            "{} transactions still unresolved after the drain",
            d.unresolved
        ));
    }
    if d.window_commits < d.measured {
        out.push(format!(
            "the window held {} of its {} commits",
            d.window_commits, d.measured
        ));
    }
    if r.stats.timers_fired != 0 {
        out.push(format!("{} protocol timers fired", r.stats.timers_fired));
    }
    if let Some(w) = r.wire {
        let drops = w.backpressure_drops + w.decode_errors + w.disconnects;
        if drops != 0 {
            out.push(format!(
                "{drops} wire drops (backpressure, decode errors, disconnects)"
            ));
        }
    }
    if workload != Workload::Contend && d.window_giveups > 0 {
        out.push(format!("{} transactions gave up", d.window_giveups));
    }

    let sites: BTreeMap<SiteId, _> = r.cluster.sites.iter().map(|s| (s.site, s)).collect();

    // Each client's outcome agrees with every participant's enforced
    // outcome; a commit is enforced at all of them.
    for a in &d.attempts {
        let Some(outcome) = a.outcome else { continue };
        for p in &a.participants {
            let enforced = sites.get(p).and_then(|s| s.enforced.get(&a.txn));
            match (outcome, enforced) {
                (Outcome::Commit, None) => {
                    out.push(format!("{} committed but {p} never enforced it", a.txn));
                }
                (o, Some(e)) if *e != o => {
                    out.push(format!("client got {o} for {} but {p} enforced {e}", a.txn));
                }
                _ => {}
            }
        }
    }

    // Every committed write is installed, and every installed value was
    // written to that key by a committed transaction.
    let written: HashSet<(SiteId, &[u8], TxnId)> = d
        .committed_writes
        .iter()
        .map(|(s, k, t)| (*s, k.as_bytes(), *t))
        .collect();
    for (site, key, txn) in &d.committed_writes {
        let Some(stored) = sites
            .get(site)
            .and_then(|s| s.committed.get(key.as_bytes()))
        else {
            out.push(format!(
                "{txn} committed {key} at {site} but the key is missing"
            ));
            continue;
        };
        let installed_by = <[u8; 8]>::try_from(stored.as_slice())
            .map(|b| TxnId::new(u64::from_le_bytes(b)))
            .ok();
        match installed_by {
            Some(t) if t == *txn || written.contains(&(*site, key.as_bytes(), t)) => {}
            _ => out.push(format!(
                "{key} at {site} holds {stored:?}, which no committed transaction wrote there"
            )),
        }
    }
    out.0
}
