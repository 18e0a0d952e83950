//! Commit-path benchmark for the presumed-any workspace.
//!
//! One process runs one phase of one workload and prints one flat JSON
//! object on its last stdout line; `perfbench/run.py` runs the phases
//! in fresh processes and turns their output into the benchmark's
//! metrics.
//!
//! ```text
//! acp-perfbench <phase> --workload <contend|socket> --seed N --seconds S [--out DIR]
//! ```
//!
//! Phases:
//!
//! * `setup`  — spawn the cluster and commit one probe transaction,
//!   several times; also times forced `FileLog` appends in the same
//!   temp directory (`wal.force_us`).
//! * `run`    — the closed-loop workload with tracing off: end-to-end
//!   figures plus the counters the public reports return.
//! * `traced` — the same workload with a benchmark-owned `TraceSink`;
//!   derives the per-transaction commit stages from the event stream.
//! * `layers` — timed direct calls into each layer's public functions
//!   on inputs shaped like the workload.
//!
//! Every phase that runs the cluster checks its outputs (ACTA
//! atomicity and safe state, committed data, client/participant
//! agreement, no timers and no wire drops) and reports `correct`.

mod check;
mod drive;
mod layers;
mod out;
mod system;
mod trace;
mod workload;

use crate::out::Obj;
use crate::workload::Workload;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    phase: String,
    workload: Workload,
    seed: u64,
    seconds: u64,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let phase = argv.first().cloned().ok_or("missing phase")?;
    let get = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let workload = get("--workload").ok_or("missing --workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload}"))?;
    let seed = get("--seed")
        .ok_or("missing --seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = get("--seconds")
        .ok_or("missing --seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let out = PathBuf::from(get("--out").unwrap_or(".bench_out"));
    Ok(Args {
        phase,
        workload,
        seed,
        seconds,
        out,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("acp-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let budget = Duration::from_secs(args.seconds);
    let mut obj = Obj::new();
    obj.str("phase", &args.phase);
    obj.str("workload", args.workload.name());
    obj.num("seed", args.seed as f64);
    match args.phase.as_str() {
        "setup" => layers::setup_phase(args.workload, args.seed, &mut obj),
        "run" => drive::run_phase(args.workload, args.seed, budget, &mut obj),
        "traced" => trace::traced_phase(args.workload, args.seed, &args.out, &mut obj),
        "layers" => layers::layers_phase(args.workload, args.seed, &mut obj),
        other => {
            eprintln!("acp-perfbench: unknown phase {other}");
            return ExitCode::from(2);
        }
    }
    println!("{}", obj.finish());
    ExitCode::SUCCESS
}
