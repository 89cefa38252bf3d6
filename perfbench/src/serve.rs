//! The `serve-tenants` workload: a seeded batch of fuzz, analyze and
//! reduce jobs submitted all at once to an in-process daemon with two
//! workers, over the JSON-line protocol. One client thread and one
//! connection drive it: it submits every job, then polls the job table
//! until every job is terminal, timing each job from its submission.

use crate::checks;
use crate::cli::Args;
use crate::inputs::{self, JobMix, Tenant};
use crate::report::{median, peak_rss_mb, Outcome};
use crate::trace::{self, Layer, Ledger, Summary, Tracer};
use crate::{out_dir, Scale, ServeLedger, TriageLedger};
use metamut_fuzzing::campaign::CrashRecord;
use metamut_fuzzing::mucfuzz::MuCFuzz;
use metamut_fuzzing::{run_campaign, CampaignConfig};
use metamut_reduce::{triage_crashes, TriageConfig};
use metamut_serve::{Client, Daemon, DaemonConfig};
use serde::Value;
use serde_json::json;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A directory removed when dropped.
struct TempDir(PathBuf);

impl TempDir {
    fn new(path: PathBuf) -> Result<TempDir, String> {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(TempDir(path))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn dir_bytes(path: &Path) -> u64 {
    std::fs::read_dir(path)
        .map(|entries| {
            entries
                .flatten()
                .map(|e| match e.file_type() {
                    Ok(t) if t.is_dir() => dir_bytes(&e.path()),
                    _ => e.metadata().map_or(0, |m| m.len()),
                })
                .sum()
        })
        .unwrap_or(0)
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Fuzz(usize),
    Analyze(usize),
    Reduce(usize),
}

/// One job of a batch, once terminal.
struct JobDone {
    kind: Kind,
    /// Seconds from submission to the first poll that saw it terminal.
    latency: f64,
    record: Value,
}

/// One batch on one daemon.
struct Batch {
    /// Jobs the batch submitted.
    attempted: u64,
    /// Jobs that reached a terminal state and were fetched.
    jobs: Vec<JobDone>,
    makespan: f64,
    submit: Layer,
    requests: u64,
    failed_requests: u64,
    status: Value,
    store_bytes: u64,
    /// Store files read back after the batch that did not hold the batch.
    failed_store_reads: u64,
}

fn submit_request(kind: Kind, mix: &JobMix) -> Value {
    match kind {
        Kind::Fuzz(i) => {
            let t = &mix.tenants[i];
            json!({
                "cmd": "fuzz",
                "iterations": (t.iterations),
                "seed": (t.seed),
                "profile": (t.profile),
                "opt_level": (t.opt_level),
            })
        }
        Kind::Analyze(i) => json!({"cmd": "analyze", "program": (mix.analyze[i])}),
        Kind::Reduce(i) => {
            let r = &mix.reduce[i];
            json!({
                "cmd": "reduce",
                "program": (r.program),
                "profile": (r.profile),
                "opt_level": (r.opt_level),
            })
        }
    }
}

fn run_batch(client: &mut Client, mix: &JobMix, store: &Path) -> Batch {
    let kinds: Vec<Kind> = (0..mix.tenants.len())
        .map(Kind::Fuzz)
        .chain((0..mix.analyze.len()).map(Kind::Analyze))
        .chain((0..mix.reduce.len()).map(Kind::Reduce))
        .collect();
    let (mut requests, mut failed_requests) = (0u64, 0u64);
    let mut count = |ok: bool| {
        requests += 1;
        failed_requests += u64::from(!ok);
    };
    let mut submit = Layer::default();
    let start = Instant::now();
    let mut pending = Vec::with_capacity(kinds.len());
    for &kind in &kinds {
        let sent = Instant::now();
        let id = client.submit(&submit_request(kind, mix));
        submit.calls += 1;
        submit.ns += sent.elapsed().as_nanos() as u64;
        count(id.is_ok());
        if let Ok(id) = id {
            pending.push((kind, id, sent));
        }
    }
    let mut done_at: Vec<Option<Instant>> = vec![None; pending.len()];
    // A daemon that stops answering ends the batch rather than the run.
    let mut errors_in_a_row = 0;
    while done_at.iter().any(Option::is_none) && errors_in_a_row < 100 {
        std::thread::sleep(Duration::from_millis(5));
        let rows = client.jobs();
        count(rows.is_ok());
        let Ok(rows) = rows else {
            errors_in_a_row += 1;
            continue;
        };
        errors_in_a_row = 0;
        let now = Instant::now();
        for row in &rows {
            let id = row.get("id").and_then(Value::as_u64);
            let status = row.get("status").and_then(Value::as_str).unwrap_or("");
            if !matches!(status, "done" | "failed" | "cancelled") {
                continue;
            }
            if let Some(i) = pending.iter().position(|(_, p, _)| Some(*p) == id) {
                done_at[i].get_or_insert(now);
            }
        }
    }
    let makespan = done_at
        .iter()
        .flatten()
        .map(|t| t.duration_since(start))
        .max()
        .unwrap_or_default();
    let mut jobs = Vec::with_capacity(pending.len());
    for ((kind, id, sent), done) in pending.into_iter().zip(done_at) {
        let record = client.job(id);
        count(record.is_ok());
        if let (Ok(record), Some(done)) = (record, done) {
            jobs.push(JobDone {
                kind,
                latency: done.duration_since(sent).as_secs_f64(),
                record,
            });
        }
    }
    let status = client.status();
    count(status.is_ok());
    Batch {
        attempted: kinds.len() as u64,
        jobs,
        makespan: makespan.as_secs_f64(),
        submit,
        requests,
        failed_requests,
        status: status.unwrap_or_default(),
        store_bytes: dir_bytes(store),
        failed_store_reads: 0,
    }
}

/// Starts a daemon on a fresh store and connects to it.
fn start(store: &Path) -> Result<(Daemon, Client), String> {
    let daemon = Daemon::start(DaemonConfig {
        store: store.to_path_buf(),
        addr: "127.0.0.1:0".to_string(),
        http_addr: None,
        workers: 2,
        ..Default::default()
    })
    .map_err(|e| format!("daemon did not start: {e}"))?;
    let client = Client::connect(&daemon.local_addr().to_string())
        .map_err(|e| format!("cannot connect to the daemon: {e}"))?;
    Ok((daemon, client))
}

/// Reads the store back once the daemon has stopped. `jobs.json` must
/// parse and hold every job of the batch exactly as the protocol reported
/// it; `corpus.json` must parse and hold, for every fuzz job, as many
/// entries as its result counts. Returns one problem per file that fails.
fn store_problems(store: &Path, batch: &Batch) -> Vec<String> {
    let read = |name: &str| -> Result<Value, String> {
        let path = store.join(name);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("{} does not parse: {e}", path.display()))
    };
    let id_of = |v: &Value| v.get("id").and_then(Value::as_u64);
    let mut problems = Vec::new();
    match read("jobs.json") {
        Err(e) => problems.push(e),
        Ok(stored) => {
            let stored = stored.as_array().cloned().unwrap_or_default();
            if let Some(job) = batch.jobs.iter().find(|job| {
                stored.iter().find(|s| id_of(s) == id_of(&job.record)) != Some(&job.record)
            }) {
                problems.push(format!(
                    "jobs.json does not hold {:?} as the protocol reported it",
                    job.kind
                ));
            }
        }
    }
    match read("corpus.json") {
        Err(e) => problems.push(e),
        Ok(stored) => {
            let stored = stored.as_array().cloned().unwrap_or_default();
            let entries = |id| {
                stored
                    .iter()
                    .filter(|e| e.get("job").and_then(Value::as_u64) == id)
                    .count() as u64
            };
            if let Some(job) = batch.jobs.iter().find(|job| {
                matches!(job.kind, Kind::Fuzz(_))
                    && job
                        .record
                        .get_or_null("result")
                        .get("corpus")
                        .and_then(Value::as_u64)
                        != Some(entries(id_of(&job.record)))
            }) {
                problems.push(format!(
                    "corpus.json does not hold the entries of {:?}",
                    job.kind
                ));
            }
        }
    }
    problems
}

fn status_of(record: &Value) -> &str {
    record.get("status").and_then(Value::as_str).unwrap_or("")
}

/// A campaign summary from the daemon's serialized `CampaignReport`.
fn summary_from(report: &Value) -> Option<Summary> {
    let num = |v: &Value, key: &str| v.get(key).and_then(Value::as_u64);
    let mutants = report.get("mutants")?;
    let dedup = report.get("dedup")?;
    let ub = report.get("ub")?;
    Some(Summary {
        final_coverage: num(report, "final_coverage")? as usize,
        stage_coverage: report
            .get("stage_coverage")?
            .as_array()?
            .iter()
            .map(|v| v.as_u64().map(|n| n as usize))
            .collect::<Option<_>>()?,
        crashes: report
            .get("crashes")?
            .as_array()?
            .iter()
            .map(|c| Some((num(c, "signature")?, num(c, "first_iteration")? as usize)))
            .collect::<Option<_>>()?,
        total: num(mutants, "total")? as usize,
        compilable: num(mutants, "compilable")? as usize,
        dedup: (
            num(dedup, "hits")?,
            num(dedup, "misses")?,
            num(dedup, "unique")? as usize,
        ),
        ub: (num(ub, "checked")?, num(ub, "filtered")?),
    })
}

/// What a batch's results amount to, for comparing rounds and reporting.
#[derive(Debug, Clone, PartialEq)]
struct Results {
    tenants: Vec<Summary>,
    analyze: Vec<Value>,
    reduced: Vec<String>,
    reduced_bytes: u64,
}

fn results(batch: &Batch, mix: &JobMix) -> Result<Results, String> {
    let mut tenants = vec![None; mix.tenants.len()];
    let mut analyze = vec![Value::Null; mix.analyze.len()];
    let mut reduced = vec![String::new(); mix.reduce.len()];
    let mut reduced_bytes = 0;
    for job in &batch.jobs {
        let result = job.record.get_or_null("result");
        match job.kind {
            Kind::Fuzz(i) => {
                tenants[i] = Some(
                    summary_from(result.get_or_null("report"))
                        .ok_or_else(|| format!("fuzz tenant {i}: malformed report"))?,
                )
            }
            Kind::Analyze(i) => analyze[i] = result.clone(),
            Kind::Reduce(i) => {
                reduced[i] = result
                    .get("reduced")
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_string();
                reduced_bytes += result
                    .get("reduced_bytes")
                    .and_then(Value::as_u64)
                    .unwrap_or(0);
            }
        }
    }
    Ok(Results {
        tenants: tenants
            .into_iter()
            .enumerate()
            .map(|(i, t)| t.ok_or_else(|| format!("fuzz tenant {i} did not finish")))
            .collect::<Result<_, _>>()?,
        analyze,
        reduced,
        reduced_bytes,
    })
}

fn isolated_config(tenant: &Tenant) -> CampaignConfig {
    let spec = metamut_serve::FuzzSpec {
        iterations: tenant.iterations,
        seed: tenant.seed,
        profile: tenant.profile.to_string(),
        opt_level: tenant.opt_level,
        sample_every: 0,
        reduce: false,
    };
    CampaignConfig {
        iterations: spec.iterations,
        seed: spec.seed,
        sample_every: spec.resolved_sample_every(),
        workers: 1,
        ..Default::default()
    }
}

fn tenant_generator(registry: &Arc<metamut_muast::MutatorRegistry>) -> MuCFuzz {
    MuCFuzz::new(
        "uCFuzz",
        Arc::clone(registry),
        metamut_fuzzing::corpus::seed_corpus()
            .iter()
            .map(|s| s.to_string()),
    )
}

pub fn run(args: &Args, scale: Scale) -> Result<Outcome, String> {
    let small = scale == Scale::Small;
    let dir = out_dir()?;
    let pid = std::process::id();

    // Set-up, timed in phases of several set-ups: draw the job mix (with
    // its clean-seed checks), start a daemon on a fresh store and connect.
    let (phases, per_phase) = if small { (1, 1) } else { (5, 4) };
    let mut setup_times = Vec::with_capacity(phases);
    let mut drawn = None;
    for phase in 0..phases {
        let mut seconds = 0.0;
        for k in 0..per_phase {
            let store = TempDir::new(dir.join(format!("store-{pid}-setup-{phase}-{k}")))?;
            let begin = Instant::now();
            let mix = inputs::job_mix(args.seed, if small { 40 } else { 1250 });
            let (daemon, client) = start(&store.0)?;
            seconds += begin.elapsed().as_secs_f64();
            drop(client);
            daemon.stop();
            drawn = Some(mix);
        }
        setup_times.push(seconds);
    }
    let (mix, rejected) = drawn.ok_or("no set-up ran")?;
    if rejected > 0 {
        eprintln!("perfbench: rejected {rejected} job drafts whose inputs were not clean");
    }

    let budget = Duration::from_secs(args.seconds);
    let began = Instant::now();
    let mut batches = Vec::new();
    let mut problems = Vec::new();
    let mut reference: Option<Results> = None;
    let mut peak_rss = 0.0;
    loop {
        let store = TempDir::new(dir.join(format!("store-{pid}-{}", batches.len())))?;
        let (daemon, mut client) = start(&store.0)?;
        let mut batch = run_batch(&mut client, &mix, &store.0);
        drop(client);
        daemon.stop();
        for problem in store_problems(&store.0, &batch) {
            eprintln!("perfbench: batch {}: {problem}", batches.len());
            batch.failed_store_reads += 1;
        }
        let got = results(&batch, &mix)?;
        match &reference {
            None => reference = Some(got),
            Some(first) if *first != got => {
                problems.push(format!("batch {} did not repeat batch 0", batches.len()))
            }
            Some(_) => {}
        }
        batches.push(batch);
        // Later batches only add allocator churn to the high-water mark.
        if batches.len() == 1 {
            peak_rss = peak_rss_mb();
        }
        // Stop at the batch boundary closest to the budget.
        let elapsed = began.elapsed();
        if elapsed + elapsed / (2 * batches.len() as u32) >= budget {
            break;
        }
    }
    let first = reference.expect("one batch ran");

    // Output checks on the first batch.
    let failed_jobs = batches
        .iter()
        .map(|b| {
            let done = b
                .jobs
                .iter()
                .filter(|j| status_of(&j.record) == "done")
                .count();
            b.attempted - done as u64
        })
        .sum::<u64>();
    for job in batches[0]
        .jobs
        .iter()
        .filter(|j| status_of(&j.record) != "done")
    {
        problems.push(format!(
            "{:?} ended {}: {}",
            job.kind,
            status_of(&job.record),
            job.record.get_or_null("error").as_str().unwrap_or("")
        ));
    }
    for (i, program) in mix.analyze.iter().enumerate() {
        let expected = metamut_analyze::analyze_source(program)
            .map(|f| ::serde::to_value(&f))
            .map_err(|_| ());
        if expected.as_ref().ok() != first.analyze[i].get("findings") {
            problems.push(format!(
                "analyze job {i}: findings differ from analyze_source"
            ));
        }
    }
    for (i, input) in mix.reduce.iter().enumerate() {
        let reduced = &first.reduced[i];
        let got = input
            .compiler()
            .compile(reduced)
            .outcome
            .crash()
            .map(|c| c.signature());
        if got != Some(input.signature) || reduced.len() > input.program.len() {
            problems.push(format!(
                "reduce job {i}: reduced witness gives {got:?} in {} bytes, expected {} within {} bytes",
                reduced.len(),
                input.signature,
                input.program.len()
            ));
        }
    }

    // Every fuzz tenant equals an isolated campaign with the same spec;
    // the traced run also checks the traced loop against the daemon.
    let registry = Arc::new(metamut_mutators::full_registry());
    let mut tracer = Tracer::default();
    let mut ledger = Ledger::default();
    problems.extend(checks::incremental_and_gate_sample(
        &mut tenant_generator(&registry),
        &mix.tenants[0].compiler(),
        inputs::derive(args.seed, 0xC4EC),
        if small { 8 } else { 48 },
    ));
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    for (i, tenant) in mix.tenants.iter().enumerate() {
        let compiler = tenant.compiler();
        let config = isolated_config(tenant);
        let begin = Instant::now();
        let report = run_campaign(&mut tenant_generator(&registry), &compiler, &config);
        untraced_s += begin.elapsed().as_secs_f64();
        if let Some(d) = trace::first_difference(&Summary::of(&report), &first.tenants[i]) {
            problems.push(format!(
                "fuzz tenant {i} differs from an isolated campaign: {d}"
            ));
        }
        if args.trace {
            let begin = Instant::now();
            let (summary, _) = trace::traced_campaign(
                &mut tenant_generator(&registry),
                &compiler,
                config.iterations,
                config.seed,
                &mut tracer,
                &mut ledger,
            );
            traced_s += begin.elapsed().as_secs_f64();
            if let Some(d) = trace::first_difference(&first.tenants[i], &summary) {
                return Err(format!("traced loop diverged from fuzz tenant {i}: {d}"));
            }
        }
    }

    let jobs = batches.iter().map(|b| b.attempted).sum::<u64>();
    let requests = batches.iter().map(|b| b.requests).sum::<u64>();
    // Each batch reads back two store files.
    let store_reads = 2 * batches.len() as u64;
    let mut out = Outcome {
        correct: problems.is_empty(),
        attempted: jobs + requests + store_reads,
        failed: failed_jobs
            + batches
                .iter()
                .map(|b| b.failed_requests + b.failed_store_reads)
                .sum::<u64>(),
        problems,
        ..Default::default()
    };
    let latencies = |pick: &dyn Fn(Kind) -> bool| -> Vec<f64> {
        batches
            .iter()
            .flat_map(|b| &b.jobs)
            .filter(|j| pick(j.kind))
            .map(|j| j.latency)
            .collect()
    };
    if args.trace {
        // The reduce layer, measured around triage of each reduce input.
        let mut triage = TriageLedger::default();
        for input in &mix.reduce {
            let compiler = input.compiler();
            let info = compiler
                .compile(&input.program)
                .outcome
                .crash()
                .cloned()
                .ok_or("a reduce input stopped crashing")?;
            let record = CrashRecord {
                signature: info.signature(),
                info,
                first_iteration: 0,
                witness: input.program.clone(),
            };
            let config = TriageConfig {
                workers: 1,
                ..Default::default()
            };
            let begin = Instant::now();
            let report = triage_crashes(&[record], compiler.profile(), compiler.options(), &config);
            triage.seconds += begin.elapsed().as_secs_f64();
            triage.oracle_calls += report.total_oracle_calls;
        }
        let query = batches[0].status.get_or_null("query_db");
        let serve = ServeLedger {
            submit_ms: batches
                .iter()
                .map(|b| b.submit.ns as f64 / 1e6)
                .sum::<f64>()
                / batches.iter().map(|b| b.submit.calls).sum::<u64>().max(1) as f64,
            short_job_s_p50: median(&latencies(&|k| !matches!(k, Kind::Fuzz(_)))),
            fuzz_job_s_p50: median(&latencies(&|k| matches!(k, Kind::Fuzz(_)))),
            store_bytes: batches[0].store_bytes,
            cross_seed_hits: query.get("cross_seed").and_then(Value::as_u64).unwrap_or(0),
            query_memos: query.get("memos").and_then(Value::as_u64).unwrap_or(0),
        };
        let overhead = 100.0 * (traced_s / untraced_s - 1.0);
        crate::layer_metrics(&mut out, &ledger, 1, triage, Some(serve), overhead);
        let path = dir.join(format!("trace-{}.json", args.workload.name()));
        tracer
            .write_chrome_trace(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    } else {
        let iterations: usize = mix.tenants.iter().map(|t| t.iterations).sum();
        let makespan: f64 = batches.iter().map(|b| b.makespan).sum();
        out.push("setup_s", median(&setup_times), "s");
        out.push(
            "execs_per_s",
            (iterations * batches.len()) as f64 / makespan,
            "execs/s",
        );
        out.push("peak_rss_mb", peak_rss, "MB");
        out.push(
            "branches_covered",
            first
                .tenants
                .iter()
                .map(|t| t.final_coverage)
                .sum::<usize>() as f64,
            "count",
        );
        out.push(
            "unique_crashes",
            first.tenants.iter().map(|t| t.crashes.len()).sum::<usize>() as f64,
            "count",
        );
        out.push(
            "reduced_bytes_per_bug",
            first.reduced_bytes as f64 / mix.reduce.len().max(1) as f64,
            "bytes",
        );
        out.push("job_s_p50", median(&latencies(&|_| true)), "s");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch_of(record: Value) -> Batch {
        Batch {
            attempted: 1,
            jobs: vec![JobDone {
                kind: Kind::Fuzz(0),
                latency: 0.0,
                record,
            }],
            makespan: 0.0,
            submit: Layer::default(),
            requests: 0,
            failed_requests: 0,
            status: Value::Null,
            store_bytes: 0,
            failed_store_reads: 0,
        }
    }

    #[test]
    fn store_read_back_flags_missing_and_stale_files() {
        let dir = out_dir()
            .unwrap()
            .join(format!("store-test-{}", std::process::id()));
        let store = TempDir::new(dir).unwrap();
        let write = |name: &str, value: Value| {
            std::fs::write(store.0.join(name), serde_json::to_string(&value).unwrap()).unwrap()
        };
        let done = json!({"id": 1, "status": "done", "result": {"corpus": 1}});
        let batch = batch_of(done.clone());
        assert_eq!(store_problems(&store.0, &batch).len(), 2);

        write("jobs.json", json!([done]));
        write(
            "corpus.json",
            json!([{"job": 1, "program": "int main(void) { return 0; }"}]),
        );
        assert!(store_problems(&store.0, &batch).is_empty());

        write(
            "jobs.json",
            json!([{"id": 1, "status": "running", "result": null}]),
        );
        write("corpus.json", json!([]));
        assert_eq!(store_problems(&store.0, &batch).len(), 2);
    }
}
