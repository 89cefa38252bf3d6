//! A benchmark of the metamut fuzzing stack, driven from outside through
//! its public functions. One run executes one workload for a given seed
//! and time budget, checks the stack's outputs, and reports either the
//! end-to-end metrics (untraced) or the per-layer ledger (traced).

pub mod campaign;
pub mod checks;
pub mod cli;
pub mod inputs;
pub mod report;
pub mod serve;
pub mod trace;

use cli::{Args, Workload};
use report::{pct, Outcome};
use std::path::PathBuf;

/// Workload size: `Full` for measurement, `Small` for the benchmark's own
/// tests, with every check still on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Small,
}

/// Runs one workload.
pub fn run(args: &Args, scale: Scale) -> Result<Outcome, String> {
    match args.workload {
        Workload::ServeTenants => serve::run(args, scale),
        _ => campaign::run(args, scale),
    }
}

/// Where runs write their traces and daemon stores: next to the
/// benchmark's executable in the build directory, never in the sources.
pub fn out_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the executable: {e}"))?;
    // `<target>/<profile>/perfbench` (or `<target>/<profile>/deps/..` for
    // tests): the output directory sits under `<target>`.
    let target = exe
        .ancestors()
        .find(|p| {
            p.file_name()
                .is_some_and(|n| n == "release" || n == "debug")
        })
        .and_then(|p| p.parent())
        .ok_or_else(|| format!("unexpected executable path {}", exe.display()))?;
    let dir = target.join("perfbench-out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// The reduce layer's share of a traced run.
#[derive(Debug, Clone, Copy, Default)]
pub struct TriageLedger {
    pub seconds: f64,
    pub oracle_calls: u64,
}

/// The serve layer, seen from the client.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeLedger {
    pub submit_ms: f64,
    pub short_job_s_p50: f64,
    pub fuzz_job_s_p50: f64,
    pub store_bytes: u64,
    pub cross_seed_hits: u64,
    pub query_memos: u64,
}

/// Appends every per-layer metric. Counts summed over `rounds` traced
/// rounds are reported per round; a layer the workload does not reach
/// reads 0.
pub fn layer_metrics(
    out: &mut Outcome,
    ledger: &trace::Ledger,
    rounds: u64,
    triage: TriageLedger,
    serve: Option<ServeLedger>,
    overhead_pct: f64,
) {
    let per_round = |n: u64| (n / rounds.max(1)) as f64;
    let mutants = ledger.candidate.calls;
    out.push("mutators.candidate_ns", ledger.candidate.mean_ns(), "ns");
    out.push("mutators.applied_pct", pct(ledger.applied, mutants), "%");
    let dedup_ns = if mutants == 0 {
        0.0
    } else {
        ledger.dedup.ns as f64 / mutants as f64
    };
    out.push("simcomp.dedup_ns", dedup_ns, "ns");
    out.push(
        "simcomp.dedup_hit_pct",
        pct(ledger.dedup_hits, mutants),
        "%",
    );
    out.push("analyze.gate_ns", ledger.gate.mean_ns(), "ns");
    out.push(
        "analyze.gate_filtered",
        per_round(ledger.gate_filtered),
        "count",
    );
    out.push(
        "analyze.gate_fast_path_pct",
        pct(ledger.gate_fast_path, ledger.gate.calls),
        "%",
    );
    out.push(
        "analyze.summary_recomputes",
        per_round(ledger.summary_recomputes),
        "count",
    );
    out.push(
        "simcomp.compile_incr_ns",
        ledger.compile_incr.mean_ns(),
        "ns",
    );
    out.push(
        "simcomp.compile_cold_ns",
        ledger.compile_cold.mean_ns(),
        "ns",
    );
    out.push("simcomp.coverage_merge_ns", ledger.merge.mean_ns(), "ns");
    out.push(
        "query.hit_pct",
        pct(ledger.memo_hits, ledger.memo_hits + ledger.memo_recomputes),
        "%",
    );
    out.push("query.fallbacks", per_round(ledger.fallbacks), "count");
    out.push(
        "query.cross_seed_hits",
        per_round(ledger.cross_seed_hits),
        "count",
    );
    out.push(
        "query.recomputes",
        per_round(ledger.memo_recomputes),
        "count",
    );
    out.push("query.memos", per_round(ledger.memos), "count");
    out.push(
        "query.retained_bytes",
        per_round(ledger.retained_bytes),
        "bytes",
    );
    out.push(
        "query.drop_s",
        ledger.drop_ns as f64 / 1e9 / rounds.max(1) as f64,
        "s",
    );
    out.push("fuzzing.feedback_ns", ledger.feedback.mean_ns(), "ns");
    out.push("fuzzing.pool_size", per_round(ledger.pool_size), "count");
    out.push("reduce.triage_s", triage.seconds, "s");
    out.push("reduce.oracle_calls", triage.oracle_calls as f64, "count");
    // Triage wall time over oracle calls: the oracle is internal to
    // `triage_crashes`, so its calls cannot be timed one by one.
    let per_call_ns = if triage.oracle_calls == 0 {
        0.0
    } else {
        triage.seconds * 1e9 / triage.oracle_calls as f64
    };
    out.push("reduce.triage_ns_per_oracle_call", per_call_ns, "ns");
    let serve = serve.unwrap_or_default();
    out.push("serve.submit_ms", serve.submit_ms, "ms");
    out.push("serve.short_job_s_p50", serve.short_job_s_p50, "s");
    out.push("serve.fuzz_job_s_p50", serve.fuzz_job_s_p50, "s");
    out.push("serve.store_bytes", serve.store_bytes as f64, "bytes");
    out.push(
        "serve.cross_seed_hits",
        serve.cross_seed_hits as f64,
        "count",
    );
    out.push("serve.query_memos", serve.query_memos as f64, "count");
    out.push("trace.overhead_pct", overhead_pct, "%");
}
