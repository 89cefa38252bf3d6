//! The traced campaign loop: `run_campaign`'s serial iteration rebuilt
//! from the stack's public calls, with a span around each call into a
//! layer. Spans stay in memory and are written out once, at the end of
//! the run; the per-layer ledger is summed from them as they close.
//!
//! The loop must reproduce `run_campaign` exactly (coverage, crash
//! signatures, mutant counts); [`first_difference`] is the check.

use metamut_analyze::UbGate;
use metamut_fuzzing::campaign::CrashRecord;
use metamut_fuzzing::{CampaignReport, TestGenerator};
use metamut_muast::MutRng;
use metamut_simcomp::{
    AtomicCoverage, Claim, Compiler, DedupCache, Outcome, QueryCache, QueryDb, Stage, Verdict,
};
use std::collections::HashSet;
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Calls into one layer and the time they took.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layer {
    pub calls: u64,
    pub ns: u64,
}

impl Layer {
    /// Mean nanoseconds per call (0 without calls).
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }
}

/// Per-layer work and time, summed over every traced campaign of a run.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    pub candidate: Layer,
    /// Candidates that differ from their parent (parentless ones count).
    pub applied: u64,
    pub dedup: Layer,
    pub dedup_hits: u64,
    pub gate: Layer,
    pub gate_filtered: u64,
    pub gate_fast_path: u64,
    pub summary_recomputes: u64,
    pub compile_incr: Layer,
    pub compile_cold: Layer,
    pub merge: Layer,
    pub feedback: Layer,
    pub pool_size: u64,
    /// Query-engine counters, read before the memo store is dropped.
    pub memo_hits: u64,
    pub memo_recomputes: u64,
    pub fallbacks: u64,
    pub cross_seed_hits: u64,
    pub memos: u64,
    pub retained_bytes: u64,
    /// Time to drop the campaign's `QueryCache`, `UbGate` and `QueryDb`.
    pub drop_ns: u64,
}

/// One closed span.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    dur_ns: u64,
    job: u32,
    iteration: u32,
}

/// The in-memory span store.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    job: u32,
    iteration: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            job: 0,
            iteration: 0,
        }
    }
}

impl Tracer {
    /// Runs `f` inside a span named `name`, adding its time to `layer`.
    fn span<T>(&mut self, name: &'static str, layer: &mut Layer, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let dur_ns = start.elapsed().as_nanos() as u64;
        layer.calls += 1;
        layer.ns += dur_ns;
        self.spans.push(Span {
            name,
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            dur_ns,
            job: self.job,
            iteration: self.iteration,
        });
        out
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Writes the spans as a Chrome trace-event file: one thread row per
    /// campaign, each layer span nested under its iteration span.
    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"{\"traceEvents\": [\n")?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            write!(
                out,
                "{sep}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"iteration\":{}}}}}",
                s.name,
                s.job,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.iteration
            )?;
        }
        out.write_all(b"\n]}\n")?;
        out.flush()
    }
}

/// The parts of a campaign's result that must repeat exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Summary {
    pub final_coverage: usize,
    pub stage_coverage: Vec<usize>,
    /// `(signature, first iteration)` of every unique crash, in order.
    pub crashes: Vec<(u64, usize)>,
    pub total: usize,
    pub compilable: usize,
    /// Dedup hits, misses and distinct sources compiled.
    pub dedup: (u64, u64, usize),
    /// UB-gate checks and filtered mutants.
    pub ub: (u64, u64),
}

impl Summary {
    pub fn of(report: &CampaignReport) -> Summary {
        Summary {
            final_coverage: report.final_coverage,
            stage_coverage: report.stage_coverage.clone(),
            crashes: report
                .crashes
                .iter()
                .map(|c| (c.signature, c.first_iteration))
                .collect(),
            total: report.mutants.total,
            compilable: report.mutants.compilable,
            dedup: report
                .dedup
                .map_or((0, 0, 0), |d| (d.hits, d.misses, d.unique)),
            ub: report.ub.map_or((0, 0), |u| (u.checked, u.filtered)),
        }
    }
}

/// The first field in which `traced` differs from `reference`.
pub fn first_difference(reference: &Summary, traced: &Summary) -> Option<String> {
    let fields: [(&str, String, String); 7] = [
        (
            "final coverage",
            reference.final_coverage.to_string(),
            traced.final_coverage.to_string(),
        ),
        (
            "stage coverage",
            format!("{:?}", reference.stage_coverage),
            format!("{:?}", traced.stage_coverage),
        ),
        (
            "mutants generated",
            reference.total.to_string(),
            traced.total.to_string(),
        ),
        (
            "mutants compilable",
            reference.compilable.to_string(),
            traced.compilable.to_string(),
        ),
        (
            "crashes (signature, first iteration)",
            format!("{:?}", reference.crashes),
            format!("{:?}", traced.crashes),
        ),
        (
            "dedup (hits, misses, unique)",
            format!("{:?}", reference.dedup),
            format!("{:?}", traced.dedup),
        ),
        (
            "UB gate (checked, filtered)",
            format!("{:?}", reference.ub),
            format!("{:?}", traced.ub),
        ),
    ];
    fields
        .into_iter()
        .find(|(_, a, b)| a != b)
        .map(|(what, a, b)| format!("{what}: untraced {a}, traced {b}"))
}

/// One campaign through the traced loop: the same per-iteration steps as
/// `run_campaign` with its default configuration (dedup, UB gate and
/// incremental compilation on, one worker), timed layer by layer.
pub fn traced_campaign(
    generator: &mut dyn TestGenerator,
    compiler: &Compiler,
    iterations: usize,
    seed: u64,
    tracer: &mut Tracer,
    ledger: &mut Ledger,
) -> (Summary, Vec<CrashRecord>) {
    let db = Arc::new(QueryDb::new());
    let cache = QueryCache::new(Arc::clone(&db));
    let gate = UbGate::with_db(Arc::clone(&db)).with_interproc(true);
    let dedup = DedupCache::new();
    let coverage = AtomicCoverage::new();
    let mut seen = HashSet::new();
    let mut crashes = Vec::new();
    let (mut total, mut compilable) = (0usize, 0usize);
    // Worker 0 of a campaign draws from `seed ^ 0`.
    let mut rng = MutRng::new(seed);

    for iter in 0..iterations {
        tracer.iteration = iter as u32;
        let iteration_start = Instant::now();
        let candidate = tracer.span("mutate", &mut ledger.candidate, || {
            generator.next_candidate(&mut rng)
        });
        let seed_src = candidate
            .parent
            .and_then(|i| generator.seed_source(i))
            .map(str::to_owned);
        if seed_src.as_deref() != Some(candidate.program.as_str()) {
            ledger.applied += 1;
        }
        let (hash, claim) = tracer.span("dedup", &mut ledger.dedup, || {
            let hash = metamut_lang::chash::hash128(candidate.program.as_bytes());
            (hash, dedup.claim_hashed(hash))
        });
        let (accepted, new_bits) = match claim {
            Claim::Hit(verdict) => (verdict.compiled, 0),
            Claim::Owner => {
                let gated = tracer.span("ub_gate", &mut ledger.gate, || {
                    gate.introduces_new_ub(seed_src.as_deref(), &candidate.program)
                });
                if gated {
                    dedup.abandon_hashed(hash);
                    (false, 0)
                } else {
                    let result = match &seed_src {
                        Some(parent) => {
                            tracer.span("compile_incremental", &mut ledger.compile_incr, || {
                                cache.compile_hashed(compiler, parent, &candidate.program, hash)
                            })
                        }
                        None => tracer.span("compile_cold", &mut ledger.compile_cold, || {
                            compiler.compile(&candidate.program)
                        }),
                    };
                    let accepted = match &result.outcome {
                        Outcome::Success { .. } => true,
                        Outcome::Crash(c) => c.stage != Stage::FrontEnd,
                        Outcome::Rejected { .. } => false,
                    };
                    if let Outcome::Crash(info) = &result.outcome {
                        let signature = info.signature();
                        if seen.insert(signature) {
                            crashes.push(CrashRecord {
                                info: info.clone(),
                                signature,
                                first_iteration: iter,
                                witness: candidate.program.clone(),
                            });
                        }
                    }
                    let new_bits = tracer.span("coverage_merge", &mut ledger.merge, || {
                        coverage.merge(&result.coverage)
                    });
                    tracer.span("dedup", &mut ledger.dedup, || {
                        dedup.insert_hashed(hash, Verdict::of(&result))
                    });
                    (accepted, new_bits)
                }
            }
        };
        total += 1;
        compilable += usize::from(accepted);
        tracer.span("feedback", &mut ledger.feedback, || {
            generator.feedback(&candidate, new_bits > 0, accepted)
        });
        tracer.spans.push(Span {
            name: "iteration",
            start_ns: iteration_start.duration_since(tracer.origin).as_nanos() as u64,
            dur_ns: iteration_start.elapsed().as_nanos() as u64,
            job: tracer.job,
            iteration: iter as u32,
        });
    }

    ledger.dedup_hits += dedup.hits();
    ledger.gate_filtered += gate.filtered();
    ledger.gate_fast_path += gate.fast_path();
    ledger.summary_recomputes += gate.summary_recomputes();
    ledger.pool_size += generator.pool_len() as u64;
    ledger.memo_hits += db.hits();
    ledger.memo_recomputes += db.recomputes();
    ledger.fallbacks += cache.misses();
    ledger.cross_seed_hits += cache.cross_seed_hits();
    ledger.memos += db.len() as u64;
    ledger.retained_bytes += cache.retained_text_bytes() as u64;
    let summary = Summary {
        final_coverage: coverage.count(),
        stage_coverage: Stage::ALL
            .iter()
            .map(|s| coverage.count_stage(*s))
            .collect(),
        crashes: crashes
            .iter()
            .map(|c| (c.signature, c.first_iteration))
            .collect(),
        total,
        compilable,
        dedup: (dedup.hits(), dedup.misses(), dedup.len()),
        ub: (gate.checked(), gate.filtered()),
    };
    let drop_start = Instant::now();
    drop(cache);
    drop(gate);
    drop(db);
    ledger.drop_ns += drop_start.elapsed().as_nanos() as u64;
    tracer.job += 1;
    (summary, crashes)
}
