//! Output checks. Each one tests a property the method promises, never a
//! stored copy of an earlier run's output. A check returns the problems
//! it found, one line each; an empty list means it held.

use metamut_fuzzing::campaign::CrashRecord;
use metamut_fuzzing::TestGenerator;
use metamut_muast::MutRng;
use metamut_reduce::TriageReport;
use metamut_simcomp::{coverage_equal, Compiler, QueryCache, QueryDb};
use std::sync::Arc;

/// Every crash witness, compiled cold by a freshly built compiler,
/// crashes with the signature the campaign recorded.
pub fn crash_witnesses(compiler: &Compiler, crashes: &[CrashRecord]) -> Vec<String> {
    let fresh = Compiler::new(compiler.profile(), compiler.options().clone());
    crashes
        .iter()
        .filter_map(|c| {
            let got = fresh
                .compile(&c.witness)
                .outcome
                .crash()
                .map(|i| i.signature());
            (got != Some(c.signature)).then(|| {
                format!(
                    "crash witness from iteration {} gives {got:?}, recorded {}",
                    c.first_iteration, c.signature
                )
            })
        })
        .collect()
}

/// Every reduced witness still crashes with its bug's signature and is no
/// larger than the witness it was reduced from.
pub fn reduced_witnesses(compiler: &Compiler, triage: &TriageReport) -> Vec<String> {
    let fresh = Compiler::new(compiler.profile(), compiler.options().clone());
    let mut problems = Vec::new();
    for bug in &triage.bugs {
        let got = fresh
            .compile(&bug.reduced)
            .outcome
            .crash()
            .map(|i| i.signature());
        if !bug.reproduced || got != Some(bug.signature) {
            problems.push(format!(
                "reduced witness of {} gives {got:?}, expected {}",
                bug.bug_id, bug.signature
            ));
        }
        if bug.reduced.len() > bug.original_bytes || bug.reduced_bytes > bug.original_bytes {
            problems.push(format!(
                "reduced witness of {} grew from {} to {} bytes",
                bug.bug_id,
                bug.original_bytes,
                bug.reduced.len()
            ));
        }
    }
    problems
}

/// A seeded sample of mutants drawn from `generator`: each one compiled
/// incrementally against its parent equals `Compiler::compile` of it,
/// and the UB gate's verdict on it equals `first_new_ub` run from
/// scratch.
pub fn incremental_and_gate_sample(
    generator: &mut dyn TestGenerator,
    compiler: &Compiler,
    seed: u64,
    samples: usize,
) -> Vec<String> {
    let db = Arc::new(QueryDb::new());
    let cache = QueryCache::new(Arc::clone(&db));
    let gate = metamut_analyze::UbGate::with_db(db);
    let mut rng = MutRng::new(seed);
    let mut problems = Vec::new();
    for i in 0..samples {
        let candidate = generator.next_candidate(&mut rng);
        let Some(parent) = candidate.parent.and_then(|p| generator.seed_source(p)) else {
            continue;
        };
        let parent = parent.to_string();
        let incremental = cache.compile(compiler, &parent, &candidate.program);
        let reference = compiler.compile(&candidate.program);
        if incremental.outcome != reference.outcome
            || !coverage_equal(&incremental.coverage, &reference.coverage)
        {
            problems.push(format!(
                "sample {i}: incremental compile differs from Compiler::compile ({:?} vs {:?})",
                incremental.outcome, reference.outcome
            ));
        }
        let gated = gate.introduces_new_ub(Some(&parent), &candidate.program);
        let scratch = metamut_analyze::first_new_ub(&parent, &candidate.program).is_some();
        if gated != scratch {
            problems.push(format!(
                "sample {i}: UB gate says {gated}, first_new_ub from scratch says {scratch}"
            ));
        }
    }
    problems
}

/// Every program a generation-based fuzzer emitted in a campaign, replayed
/// from the campaign's seed, is accepted by the front end and carries no
/// UB finding.
pub fn generated_programs(
    generator: &mut dyn TestGenerator,
    seed: u64,
    iterations: usize,
) -> Vec<String> {
    // The campaign's only worker draws from `seed ^ 0`, and only
    // `next_candidate` consumes the stream.
    let mut rng = MutRng::new(seed);
    let mut problems = Vec::new();
    for i in 0..iterations {
        let program = generator.next_candidate(&mut rng).program;
        if let Err(e) = metamut_lang::compile_check(&program) {
            problems.push(format!(
                "{} program {i} rejected by the front end: {e}",
                generator.name()
            ));
            continue;
        }
        match metamut_analyze::analyze_source(&program) {
            Ok(findings) if findings.iter().any(|f| f.is_ub()) => problems.push(format!(
                "{} program {i} carries a UB finding",
                generator.name()
            )),
            Ok(_) => {}
            Err(_) => problems.push(format!("{} program {i} does not parse", generator.name())),
        }
    }
    problems
}
