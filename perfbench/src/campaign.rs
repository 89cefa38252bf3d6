//! The three campaign workloads: `mucfuzz-corpus`, `mucfuzz-wide` and
//! `baselines`. A round is a fixed list of jobs; a job is one campaign
//! followed by triage of its crashes. Rounds repeat until the run's time
//! is used, and every round must reproduce the first exactly.

use crate::checks;
use crate::cli::{Args, Workload};
use crate::inputs::{self, WideShape};
use crate::report::{median, peak_rss_mb, Outcome};
use crate::trace::{self, Ledger, Summary, Tracer};
use crate::Scale;
use metamut_fuzzing::campaign::CrashRecord;
use metamut_fuzzing::{
    aflpp::AflPlusPlus, csmith::CsmithLike, grayc::GrayCLike, mucfuzz::MuCFuzz, run_campaign,
    yarpgen::YarpGenLike, CampaignConfig, CampaignReport, TestGenerator,
};
use metamut_muast::MutatorRegistry;
use metamut_reduce::{triage_crashes, TriageConfig, TriageReport};
use metamut_simcomp::{CompileOptions, Compiler, Profile};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The fuzzers a job can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fuzzer {
    MuCFuzz,
    AflPlusPlus,
    GrayC,
    Csmith,
    YarpGen,
}

/// One campaign of a round.
#[derive(Debug, Clone, Copy)]
pub struct Job {
    pub fuzzer: Fuzzer,
    pub iterations: usize,
    /// The campaign's RNG seed, derived from `--seed`.
    pub seed: u64,
}

/// Sizes and jobs of one campaign workload.
#[derive(Debug, Clone)]
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    pub jobs: Vec<Job>,
    pub wide: WideShape,
    /// Timed set-up phases per run; `setup_s` is the median phase.
    pub setup_phases: usize,
    /// Set-ups in one phase, so that a phase takes tens of milliseconds.
    pub setups_per_phase: usize,
    /// Mutants in the seeded incremental-compile and UB-gate sample.
    pub samples: usize,
    /// Jobs an untraced round runs at once.
    pub threads: usize,
}

impl Plan {
    pub fn new(workload: Workload, seed: u64, scale: Scale) -> Plan {
        let small = scale == Scale::Small;
        let mut jobs = Vec::new();
        let mut push = |fuzzer, iterations| {
            let k = jobs.len() as u64;
            jobs.push(Job {
                fuzzer,
                iterations,
                seed: inputs::derive(seed, k),
            });
        };
        match workload {
            Workload::Corpus => {
                let (campaigns, iterations) = if small { (2, 150) } else { (32, 2500) };
                for _ in 0..campaigns {
                    push(Fuzzer::MuCFuzz, iterations);
                }
            }
            Workload::Wide => {
                // Almost every crash here is gcc-sim's dead-branch bug,
                // reached by mutation. 720 iterations is about the
                // shortest campaign that nearly always finds it; longer
                // ones add rarer bugs, which vary more from seed to seed.
                let (campaigns, iterations) = if small { (1, 400) } else { (18, 720) };
                for _ in 0..campaigns {
                    push(Fuzzer::MuCFuzz, iterations);
                }
            }
            Workload::ServeTenants => unreachable!("serve-tenants has no campaign plan"),
            Workload::Baselines => {
                // Budgets give each fuzzer about the same share of a
                // round's time, as the paper gives each the same hours.
                let budgets = [
                    (Fuzzer::AflPlusPlus, 30_000),
                    (Fuzzer::GrayC, 8_000),
                    (Fuzzer::Csmith, 1_500),
                    (Fuzzer::YarpGen, 3_500),
                ];
                for _ in 0..if small { 1 } else { 4 } {
                    for (fuzzer, iterations) in budgets {
                        push(fuzzer, if small { iterations / 25 } else { iterations });
                    }
                }
            }
        }
        Plan {
            workload,
            seed,
            jobs,
            wide: if small {
                WideShape {
                    seeds: 2,
                    prelude_fns: 4,
                    own_fns: 8,
                }
            } else {
                WideShape {
                    seeds: 6,
                    prelude_fns: 8,
                    own_fns: 24,
                }
            },
            setup_phases: if small { 1 } else { 5 },
            // One set-up takes about 4 ms on the embedded seeds and about
            // 50 ms with the generated wide seeds.
            setups_per_phase: match (small, workload) {
                (true, _) => 1,
                (false, Workload::Wide) => 2,
                (false, _) => 16,
            },
            samples: if small { 8 } else { 48 },
            // A wide iteration costs about fifteen corpus iterations, and a
            // round needs about eighteen wide campaigns for its crash count
            // to hold steady from seed to seed, so they run two at a time
            // (the most threads a workload may use). The other workloads
            // run one job at a time: on them two threads made the timings
            // and the memory high-water mark spread more.
            threads: if workload == Workload::Wide { 2 } else { 1 },
        }
    }
}

/// Everything set-up builds: registry, compiler, seeds, and the first
/// round's generators.
pub struct Inputs {
    pub registry: Arc<MutatorRegistry>,
    pub compiler: Compiler,
    pub seeds: Vec<String>,
    /// Generated seed drafts rejected for not compiling cleanly.
    pub rejected: usize,
    generators: Vec<Box<dyn TestGenerator>>,
}

/// Builds the workload's inputs and checks that every seed compiles
/// cleanly under the workload's compiler.
pub fn setup(plan: &Plan) -> Result<Inputs, String> {
    let registry = Arc::new(metamut_mutators::full_registry());
    let compiler = Compiler::new(Profile::Gcc, CompileOptions::o2());
    let (seeds, rejected) = match plan.workload {
        Workload::Wide => inputs::wide_corpus(plan.seed, plan.wide, &compiler),
        _ => (
            metamut_fuzzing::corpus::seed_corpus()
                .iter()
                .map(|s| s.to_string())
                .collect(),
            0,
        ),
    };
    if let Some(bad) = seeds
        .iter()
        .position(|s| !inputs::compiles_cleanly(&compiler, s))
    {
        return Err(format!(
            "seed {bad} does not compile cleanly on {compiler:?}"
        ));
    }
    let generators = plan
        .jobs
        .iter()
        .map(|job| generator(job.fuzzer, &registry, &seeds))
        .collect();
    Ok(Inputs {
        registry,
        compiler,
        seeds,
        rejected,
        generators,
    })
}

pub fn generator(
    fuzzer: Fuzzer,
    registry: &Arc<MutatorRegistry>,
    seeds: &[String],
) -> Box<dyn TestGenerator> {
    let seeds = seeds.iter().cloned();
    match fuzzer {
        Fuzzer::MuCFuzz => Box::new(MuCFuzz::new("uCFuzz", Arc::clone(registry), seeds)),
        Fuzzer::AflPlusPlus => Box::new(AflPlusPlus::new(seeds)),
        Fuzzer::GrayC => Box::new(GrayCLike::new(seeds)),
        Fuzzer::Csmith => Box::new(CsmithLike::new()),
        Fuzzer::YarpGen => Box::new(YarpGenLike::new()),
    }
}

/// What one job produced.
pub struct JobResult {
    pub summary: Summary,
    pub crashes: Vec<CrashRecord>,
    pub triage: TriageReport,
    /// Campaign wall time, until `run_campaign` returned.
    pub campaign: Duration,
    /// Triage wall time.
    pub triage_time: Duration,
}

fn triage(compiler: &Compiler, crashes: &[CrashRecord]) -> TriageReport {
    let config = TriageConfig {
        workers: 1,
        ..Default::default()
    };
    triage_crashes(crashes, compiler.profile(), compiler.options(), &config)
}

fn campaign_config(job: &Job) -> CampaignConfig {
    CampaignConfig {
        iterations: job.iterations,
        seed: job.seed,
        sample_every: (job.iterations / 10).max(1),
        workers: 1,
        ..Default::default()
    }
}

/// Runs one job's campaign untraced, timed until `run_campaign` returns.
fn run_untraced_campaign(
    job: &Job,
    mut generator: Box<dyn TestGenerator>,
    compiler: &Compiler,
) -> (CampaignReport, Duration) {
    let start = Instant::now();
    let report = run_campaign(generator.as_mut(), compiler, &campaign_config(job));
    (report, start.elapsed())
}

/// Triages a campaign's crashes and completes its job's result.
fn finish_job(report: CampaignReport, campaign: Duration, compiler: &Compiler) -> JobResult {
    let start = Instant::now();
    let triage = triage(compiler, &report.crashes);
    JobResult {
        summary: Summary::of(&report),
        crashes: report.crashes,
        triage,
        campaign,
        triage_time: start.elapsed(),
    }
}

/// Runs one job untraced.
fn run_job(job: &Job, generator: Box<dyn TestGenerator>, compiler: &Compiler) -> JobResult {
    let (report, campaign) = run_untraced_campaign(job, generator, compiler);
    finish_job(report, campaign, compiler)
}

/// Maps `f` over `items`, `threads` consecutive items at a time, each on
/// its own thread; the next group starts when the whole group is done.
/// Fixed groups keep the memory high-water mark from depending on which
/// jobs happen to overlap. With one thread the items run on the calling
/// thread. The results come back in item order.
fn parallel_map<T: Send, R: Send>(
    threads: usize,
    items: Vec<T>,
    f: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let f = &f;
    let mut items = items.into_iter();
    let mut out = Vec::with_capacity(items.len());
    loop {
        let group: Vec<T> = items.by_ref().take(threads).collect();
        if group.is_empty() {
            return out;
        }
        std::thread::scope(|scope| {
            let handles: Vec<_> = group
                .into_iter()
                .map(|item| scope.spawn(move || f(item)))
                .collect();
            out.extend(
                handles
                    .into_iter()
                    .map(|h| h.join().expect("a job thread panicked")),
            );
        });
    }
}

/// Runs one round untraced: every campaign, `plan.threads` at a time,
/// then the triage of their crashes, as many at a time. The second value
/// is the wall time of the campaign phase, which ends when the last
/// campaign returns.
fn run_round(
    plan: &Plan,
    generators: Vec<Box<dyn TestGenerator>>,
    compiler: &Compiler,
) -> (Vec<JobResult>, Duration) {
    let start = Instant::now();
    let campaigns = parallel_map(
        plan.threads,
        plan.jobs.iter().zip(generators).collect(),
        |(job, generator)| run_untraced_campaign(job, generator, compiler),
    );
    let wall = start.elapsed();
    let results = parallel_map(plan.threads, campaigns, |(report, campaign)| {
        finish_job(report, campaign, compiler)
    });
    (results, wall)
}

/// Runs one job through the traced loop.
fn run_traced_job(
    job: &Job,
    mut generator: Box<dyn TestGenerator>,
    compiler: &Compiler,
    tracer: &mut Tracer,
    ledger: &mut Ledger,
) -> JobResult {
    let start = Instant::now();
    let (summary, crashes) = trace::traced_campaign(
        generator.as_mut(),
        compiler,
        job.iterations,
        job.seed,
        tracer,
        ledger,
    );
    let campaign = start.elapsed();
    let start = Instant::now();
    let triage = triage(compiler, &crashes);
    JobResult {
        summary,
        crashes,
        triage,
        campaign,
        triage_time: start.elapsed(),
    }
}

/// Counts a round reports: coverage, crashes, and the mean size of a
/// reduced witness.
fn totals(round: &[JobResult]) -> (usize, usize, f64) {
    let reduced: usize = round.iter().map(|r| r.triage.total_bytes_after).sum();
    let bugs: usize = round.iter().map(|r| r.triage.bugs.len()).sum();
    (
        round.iter().map(|r| r.summary.final_coverage).sum(),
        round.iter().map(|r| r.summary.crashes.len()).sum(),
        reduced as f64 / bugs.max(1) as f64,
    )
}

/// The first way job result `b` fails to reproduce `a`.
fn job_difference(a: &JobResult, b: &JobResult) -> Option<String> {
    trace::first_difference(&a.summary, &b.summary).or_else(|| {
        (a.triage.total_bytes_after != b.triage.total_bytes_after).then(|| {
            format!(
                "reduced bytes: {} then {}",
                a.triage.total_bytes_after, b.triage.total_bytes_after
            )
        })
    })
}

/// The first way `round` fails to reproduce `reference`.
fn round_difference(reference: &[JobResult], round: &[JobResult]) -> Option<String> {
    reference
        .iter()
        .zip(round)
        .enumerate()
        .find_map(|(j, (a, b))| job_difference(a, b).map(|d| format!("job {j}: {d}")))
}

/// Runs the workload and reports its end-to-end metrics (untraced) or its
/// per-layer ledger (traced).
pub fn run(args: &Args, scale: Scale) -> Result<Outcome, String> {
    let plan = Plan::new(args.workload, args.seed, scale);
    let mut setup_times = Vec::with_capacity(plan.setup_phases);
    let mut inputs = None;
    for _ in 0..plan.setup_phases {
        let start = Instant::now();
        for _ in 0..plan.setups_per_phase {
            inputs = Some(setup(&plan)?);
        }
        setup_times.push(start.elapsed().as_secs_f64());
    }
    let mut inputs = inputs.ok_or("no set-up ran")?;
    if inputs.rejected > 0 {
        eprintln!(
            "perfbench: rejected {} generated seed drafts that did not compile cleanly",
            inputs.rejected
        );
    }

    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut problems = Vec::new();
    let mut untraced: Vec<Vec<JobResult>> = Vec::new();
    let mut traced: Vec<Vec<JobResult>> = Vec::new();
    let mut tracer = Tracer::default();
    let mut ledger = Ledger::default();
    // The first round runs on the generators set-up built.
    let mut prebuilt = std::mem::take(&mut inputs.generators).into_iter();
    let mut peak_rss = 0.0;
    let mut campaign_walls = Vec::new();
    loop {
        let generators: Vec<Box<dyn TestGenerator>> = plan
            .jobs
            .iter()
            .map(|job| {
                prebuilt
                    .next()
                    .unwrap_or_else(|| generator(job.fuzzer, &inputs.registry, &inputs.seeds))
            })
            .collect();
        let mut round = Vec::with_capacity(plan.jobs.len());
        let mut traced_round = Vec::new();
        if !args.trace {
            let (results, wall) = run_round(&plan, generators, &inputs.compiler);
            round = results;
            campaign_walls.push(wall);
        } else {
            // The traced run takes the jobs one at a time, each once untraced
            // and once through the traced loop.
            for ((j, job), first_generator) in plan.jobs.iter().enumerate().zip(generators) {
                // Traced and untraced runs of one job alternate which goes
                // first, so the order does not bias the overhead.
                let mut traced_job = |generator| {
                    run_traced_job(job, generator, &inputs.compiler, &mut tracer, &mut ledger)
                };
                let second_generator = generator(job.fuzzer, &inputs.registry, &inputs.seeds);
                let (plain, with_spans) = if j % 2 == 0 {
                    let plain = run_job(job, first_generator, &inputs.compiler);
                    (plain, traced_job(second_generator))
                } else {
                    let with_spans = traced_job(first_generator);
                    (run_job(job, second_generator, &inputs.compiler), with_spans)
                };
                if let Some(d) = job_difference(&plain, &with_spans) {
                    return Err(format!(
                        "traced loop diverged from run_campaign on job {j}: {d}"
                    ));
                }
                round.push(plain);
                traced_round.push(with_spans);
            }
        }
        if let Some(first) = untraced.first() {
            if let Some(d) = round_difference(first, &round) {
                problems.push(format!(
                    "round {} did not repeat round 0: {d}",
                    untraced.len()
                ));
            }
        }
        untraced.push(round);
        if args.trace {
            traced.push(traced_round);
        }
        // Later rounds only add allocator churn to the high-water mark.
        if untraced.len() == 1 {
            peak_rss = peak_rss_mb();
        }
        // Stop at the round boundary closest to the budget.
        let elapsed = started.elapsed();
        if elapsed + elapsed / (2 * untraced.len() as u32) >= budget {
            break;
        }
    }
    // Output checks, once, on the first round.
    let first = &untraced[0];
    let compiler = &inputs.compiler;
    for r in first {
        problems.extend(checks::crash_witnesses(compiler, &r.crashes));
        problems.extend(checks::reduced_witnesses(compiler, &r.triage));
    }
    let sample_fuzzer = plan
        .jobs
        .iter()
        .map(|j| j.fuzzer)
        .find(|f| matches!(f, Fuzzer::MuCFuzz | Fuzzer::GrayC))
        .expect("every campaign workload has a mutation-based fuzzer");
    let mut sample = generator(sample_fuzzer, &inputs.registry, &inputs.seeds);
    problems.extend(checks::incremental_and_gate_sample(
        sample.as_mut(),
        compiler,
        inputs::derive(args.seed, 0xC4EC),
        plan.samples,
    ));
    for job in &plan.jobs {
        if matches!(job.fuzzer, Fuzzer::Csmith | Fuzzer::YarpGen) {
            let mut replay = generator(job.fuzzer, &inputs.registry, &inputs.seeds);
            problems.extend(checks::generated_programs(
                replay.as_mut(),
                job.seed,
                job.iterations,
            ));
        }
    }

    let rounds = untraced.len() + traced.len();
    let buckets: usize = untraced
        .iter()
        .chain(&traced)
        .flatten()
        .map(|r| r.triage.bugs.len())
        .sum();
    let unreproduced = untraced
        .iter()
        .chain(&traced)
        .flatten()
        .flat_map(|r| &r.triage.bugs)
        .filter(|b| !b.reproduced)
        .count();
    let iterations: usize = plan.jobs.iter().map(|j| j.iterations).sum::<usize>() * rounds;
    let mut out = Outcome {
        correct: problems.is_empty(),
        attempted: (iterations + buckets) as u64,
        failed: unreproduced as u64,
        problems,
        ..Default::default()
    };
    let (coverage, crashes, reduced) = totals(first);
    if args.trace {
        let campaign_s = |rounds: &[Vec<JobResult>]| -> f64 {
            rounds
                .iter()
                .flatten()
                .map(|r| r.campaign.as_secs_f64())
                .sum()
        };
        let overhead = 100.0 * (campaign_s(&traced) / campaign_s(&untraced) - 1.0);
        let triage_s: f64 = traced
            .iter()
            .flatten()
            .map(|r| r.triage_time.as_secs_f64())
            .sum::<f64>()
            / traced.len() as f64;
        let oracle_calls: u64 = traced[0].iter().map(|r| r.triage.total_oracle_calls).sum();
        crate::layer_metrics(
            &mut out,
            &ledger,
            traced.len() as u64,
            crate::TriageLedger {
                seconds: triage_s,
                oracle_calls,
            },
            None,
            overhead,
        );
        let path = crate::out_dir()?.join(format!("trace-{}.json", args.workload.name()));
        tracer
            .write_chrome_trace(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!(
            "perfbench: wrote {} spans to {}",
            tracer.len(),
            path.display()
        );
    } else {
        let campaign_s: f64 = campaign_walls.iter().map(Duration::as_secs_f64).sum();
        let jobs: Vec<f64> = untraced
            .iter()
            .flatten()
            .map(|r| (r.campaign + r.triage_time).as_secs_f64())
            .collect();
        out.push("setup_s", median(&setup_times), "s");
        out.push("execs_per_s", iterations as f64 / campaign_s, "execs/s");
        out.push("peak_rss_mb", peak_rss, "MB");
        out.push("branches_covered", coverage as f64, "count");
        out.push("unique_crashes", crashes as f64, "count");
        out.push("reduced_bytes_per_bug", reduced, "bytes");
        out.push("job_s_p50", median(&jobs), "s");
    }
    Ok(out)
}
