//! Every workload, at a small size and with all of its checks, untraced
//! and traced: the run must be correct, fail nothing, and report exactly
//! the metrics `BENCHMARK.json` declares.

use perfbench::cli::{Args, Workload};
use perfbench::{run, Scale};

/// Metric names of one `BENCHMARK.json` section, read with plain string
/// scanning (the file is small and flat).
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} section"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\":")
        .skip(1)
        .map(|item| {
            let item = item.trim_start().trim_start_matches('"');
            item[..item.find('"').expect("quoted name")].to_string()
        })
        .collect()
}

fn check(workload: Workload, trace: bool) {
    let args = Args {
        workload,
        seed: 3,
        seconds: 1,
        trace,
    };
    let out = run(&args, Scale::Small).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
    assert!(out.correct, "{}: {:?}", workload.name(), out.problems);
    assert!(out.attempted > 0);
    assert_eq!(out.failed, 0, "{}", workload.name());
    let names: Vec<String> = out.metrics.iter().map(|m| m.name.to_string()).collect();
    let section = if trace { "per_layer" } else { "end_to_end" };
    assert_eq!(names, declared(section), "{} {section}", workload.name());
    for m in &out.metrics {
        assert!(
            m.value.is_finite(),
            "{} {} = {}",
            workload.name(),
            m.name,
            m.value
        );
        if !trace {
            assert!(m.value > 0.0, "{} {} reads 0", workload.name(), m.name);
        }
    }
    let line = out.json_line();
    assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
}

#[test]
fn mucfuzz_corpus() {
    check(Workload::Corpus, false);
    check(Workload::Corpus, true);
}

#[test]
fn mucfuzz_wide() {
    check(Workload::Wide, false);
    check(Workload::Wide, true);
}

#[test]
fn baselines() {
    check(Workload::Baselines, false);
    check(Workload::Baselines, true);
}

#[test]
fn serve_tenants() {
    check(Workload::ServeTenants, false);
    check(Workload::ServeTenants, true);
}

#[test]
fn inputs_repeat_for_a_seed_and_compile_cleanly() {
    use metamut_simcomp::{CompileOptions, Compiler, Profile};
    use perfbench::inputs::{self, WideShape};
    let compiler = Compiler::new(Profile::Gcc, CompileOptions::o2());
    let shape = WideShape {
        seeds: 2,
        prelude_fns: 4,
        own_fns: 10,
    };
    let (a, _) = inputs::wide_corpus(11, shape, &compiler);
    let (b, _) = inputs::wide_corpus(11, shape, &compiler);
    let (c, _) = inputs::wide_corpus(12, shape, &compiler);
    assert_eq!(a, b);
    assert_ne!(a, c);
    for seed in &a {
        assert!(inputs::compiles_cleanly(&compiler, seed));
    }
    // Programs that crash the compiler or carry UB are no clean seeds.
    assert!(!inputs::compiles_cleanly(
        &compiler,
        "int f(int a) { return a / 0; }"
    ));
    let case = &metamut_reduce::fixtures::case_studies()[1];
    let crashing = Compiler::new(case.profile, case.options.clone());
    assert!(!inputs::compiles_cleanly(&crashing, case.source));
}
