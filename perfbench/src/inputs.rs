//! Seeded input generation. Every input the benchmark hands to the stack
//! is made here from the `--seed` argument, with a generator of the
//! benchmark's own (so a change to the program's RNG cannot change the
//! inputs), and the stack receives only the generated text.

use metamut_simcomp::{Compiler, Profile};
use std::fmt::Write as _;

/// SplitMix64: small, seedable, and independent of the program under test.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_BE4C_4D41_5254)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    pub fn index(&mut self, len: usize) -> usize {
        (self.next_u64() % len as u64) as usize
    }
}

/// Derives the `k`-th sub-seed of `seed` (campaign seeds, tenant seeds).
pub fn derive(seed: u64, k: u64) -> u64 {
    Rng::new(seed.wrapping_mul(0x1000_0001).wrapping_add(k)).next_u64()
}

/// Whether `program` is a clean seed for `compiler`: it compiles to
/// success (no rejection, no planted crash) and the analyzer finds no
/// undefined behavior in it.
pub fn compiles_cleanly(compiler: &Compiler, program: &str) -> bool {
    compiler.compile(program).outcome.is_success()
        && metamut_analyze::analyze_source(program)
            .map(|findings| !findings.iter().any(|f| f.is_ub()))
            .unwrap_or(false)
}

/// Shape of the generated wide seeds.
#[derive(Debug, Clone, Copy)]
pub struct WideShape {
    /// Seeds in the corpus.
    pub seeds: usize,
    /// Functions in the prelude every seed shares.
    pub prelude_fns: usize,
    /// Seed-private functions per seed.
    pub own_fns: usize,
}

/// The wide corpus: `shape.seeds` programs that share one prelude, each
/// with its own chain of functions, all clean under `compiler`. Drafts
/// that are not clean are rejected and redrawn; the second value counts
/// the rejections.
pub fn wide_corpus(seed: u64, shape: WideShape, compiler: &Compiler) -> (Vec<String>, usize) {
    let mut rng = Rng::new(seed);
    let mut rejected = 0;
    let prelude = loop {
        let draft = prelude(&mut rng, shape.prelude_fns);
        if compiles_cleanly(
            compiler,
            &format!("{draft}int main(void) {{ return 0; }}\n"),
        ) {
            break draft;
        }
        rejected += 1;
    };
    let mut seeds = Vec::with_capacity(shape.seeds);
    while seeds.len() < shape.seeds {
        let draft = wide_seed(&mut rng, &prelude, seeds.len(), shape);
        if compiles_cleanly(compiler, &draft) {
            seeds.push(draft);
        } else {
            rejected += 1;
        }
    }
    (seeds, rejected)
}

fn prelude(rng: &mut Rng, fns: usize) -> String {
    let mut out = String::from("int g_acc = 3;\nint g_tab[8] = {");
    for i in 0..8 {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}{}", rng.range(1, 40));
    }
    out.push_str("};\n");
    for i in 0..fns {
        let callee = (i > 0).then(|| format!("pre_{}", i - 1));
        function(rng, &mut out, &format!("pre_{i}"), callee.as_deref(), None);
    }
    out
}

fn wide_seed(rng: &mut Rng, prelude: &str, index: usize, shape: WideShape) -> String {
    let mut out = format!("/* wide seed {index} */\n{prelude}");
    let name = |j: usize| format!("w{index}_{j}");
    for j in 0..shape.own_fns {
        // Each function may call one of the three before it, so call
        // chains run many levels deep, and one prelude function.
        let chain = (j > 0 && rng.range(0, 3) > 0).then(|| name(j - 1 - rng.index(j.min(3))));
        let pre = (shape.prelude_fns > 0 && rng.range(0, 2) == 0)
            .then(|| format!("pre_{}", rng.index(shape.prelude_fns)));
        function(rng, &mut out, &name(j), chain.as_deref(), pre.as_deref());
    }
    out.push_str("int main(void) {\n    int t = 0;\n");
    for j in (0..shape.own_fns).rev().step_by(4) {
        let _ = writeln!(
            out,
            "    t = (t + {}({}, {})) & 1023;",
            name(j),
            j + 1,
            index + 2
        );
    }
    out.push_str("    return t & 255;\n}\n");
    out
}

/// Emits one two-parameter function with a body drawn from a fixed set of
/// shapes. Every value is kept within `0..1024`, loops have constant
/// bounds and array indices are masked, so the program is free of
/// undefined behavior by construction.
fn function(rng: &mut Rng, out: &mut String, name: &str, chain: Option<&str>, pre: Option<&str>) {
    let c1 = rng.range(2, 29);
    let c2 = rng.range(1, 97);
    let c3 = rng.range(3, 250);
    let _ = writeln!(out, "int {name}(int a, int b) {{");
    match rng.range(0, 6) {
        0 => {
            let _ = writeln!(out, "    int x = (a & 255) * {c1} + (b & 255);");
            let _ = writeln!(out, "    int y = x - {c2};");
            let _ = writeln!(out, "    int r = (x ^ y) & 1023;");
        }
        1 => {
            let n = rng.range(3, 9);
            let _ = writeln!(out, "    int r = {c2};");
            let _ = writeln!(out, "    for (int i = 0; i < {n}; i = i + 1) {{");
            let _ = writeln!(out, "        r = (r + i * {c1} + (a & 7)) & 1023;");
            let _ = writeln!(out, "    }}");
        }
        2 => {
            let _ = writeln!(out, "    int buf[8];");
            let _ = writeln!(out, "    for (int i = 0; i < 8; i = i + 1) {{");
            let _ = writeln!(out, "        buf[i] = (a & 255) + i * {c1};");
            let _ = writeln!(out, "    }}");
            let _ = writeln!(out, "    int r = (buf[b & 7] + g_tab[a & 7]) & 1023;");
        }
        3 => {
            let _ = writeln!(out, "    int r = b & 1023;");
            let _ = writeln!(out, "    if ((a & 1023) > {c3}) {{");
            let _ = writeln!(out, "        r = (a & 1023) - {c3};");
            let _ = writeln!(out, "    }} else {{");
            let _ = writeln!(out, "        r = (r + {c2}) & 1023;");
            let _ = writeln!(out, "    }}");
        }
        4 => {
            let _ = writeln!(out, "    int n = (a & 15) + 1;");
            let _ = writeln!(out, "    int r = 0;");
            let _ = writeln!(out, "    while (n > 0) {{");
            let _ = writeln!(out, "        r = (r + n * {c1}) & 1023;");
            let _ = writeln!(out, "        n = n - 1;");
            let _ = writeln!(out, "    }}");
        }
        5 => {
            let _ = writeln!(out, "    int r = 0;");
            let _ = writeln!(out, "    switch (a & 3) {{");
            let _ = writeln!(out, "    case 0: r = (b & 511) + {c2}; break;");
            let _ = writeln!(out, "    case 1: r = (b & 255) * 2; break;");
            let _ = writeln!(out, "    case 2: r = (b & 1023) ^ {c3}; break;");
            let _ = writeln!(out, "    default: r = {c3}; break;");
            let _ = writeln!(out, "    }}");
        }
        _ => {
            let _ = writeln!(out, "    g_acc = (g_acc + (a & 255)) & 1023;");
            let _ = writeln!(out, "    int r = (g_acc + (b & 255)) & 1023;");
        }
    }
    if let Some(callee) = chain {
        let _ = writeln!(out, "    r = (r + {callee}(r & 255, b & {c3})) & 1023;");
    }
    if let Some(callee) = pre {
        let _ = writeln!(out, "    r = (r + {callee}(a & 127, r)) & 1023;");
    }
    out.push_str("    return r;\n}\n");
}

/// The `serve-tenants` job mix: fuzz tenants plus short analyze and
/// reduce jobs, all drawn from the seed.
#[derive(Debug, Clone)]
pub struct JobMix {
    pub tenants: Vec<Tenant>,
    /// Programs for analyze jobs.
    pub analyze: Vec<String>,
    /// Crashing programs for reduce jobs.
    pub reduce: Vec<ReduceInput>,
}

/// One fuzz tenant's campaign spec.
#[derive(Debug, Clone, PartialEq)]
pub struct Tenant {
    pub iterations: usize,
    pub seed: u64,
    pub profile: &'static str,
    pub opt_level: u8,
}

/// The compiler a daemon job names by profile and `-O` level.
pub fn daemon_compiler(profile: &str, opt_level: u8) -> Compiler {
    let profile = metamut_serve::job::parse_profile(profile).unwrap_or(Profile::Gcc);
    Compiler::new(profile, metamut_serve::job::compile_options(opt_level))
}

impl Tenant {
    pub fn compiler(&self) -> Compiler {
        daemon_compiler(self.profile, self.opt_level)
    }
}

/// One reduce job: a crashing witness and the compiler it crashes.
#[derive(Debug, Clone)]
pub struct ReduceInput {
    pub program: String,
    pub profile: &'static str,
    pub opt_level: u8,
    /// The crash signature the witness must keep.
    pub signature: u64,
}

impl ReduceInput {
    pub fn compiler(&self) -> Compiler {
        daemon_compiler(self.profile, self.opt_level)
    }
}

/// Analyze jobs in the mix: with the five reduce and analyze jobs against
/// twelve fuzz tenants, the median job is a fuzz tenant.
const ANALYZE_JOBS: usize = 2;

/// Fuzz tenants per compiler. Twelve short tenants rather than six long
/// ones average the batch's speed and crash count over more campaigns, so
/// they vary less from seed to seed.
const TENANTS_PER_COMPILER: usize = 2;

/// The tenants' compilers: both profiles at three `-O` levels, so the mix
/// is the same for every seed and only the campaigns' seeds vary.
pub const TENANT_COMPILERS: [(&str, u8); 6] = [
    ("gcc", 2),
    ("clang", 0),
    ("gcc", 3),
    ("clang", 2),
    ("gcc", 0),
    ("clang", 3),
];

/// Draws the job mix: two fuzz tenants of `tenant_iterations` iterations
/// per entry of [`TENANT_COMPILERS`],
/// each accepted only if every seed the daemon fuzzes compiles cleanly under
/// its compiler; analyze jobs on generated programs; and one reduce job
/// per case study the protocol can express, padded with generated
/// bystander functions and accepted only if it still crashes with the
/// case's signature. The second value counts rejected drafts.
pub fn job_mix(seed: u64, tenant_iterations: usize) -> (JobMix, usize) {
    let mut rng = Rng::new(seed ^ 0x7E4A_4E75);
    let mut rejected = 0;
    let seeds = metamut_fuzzing::corpus::seed_corpus();
    let mut tenants = Vec::with_capacity(TENANTS_PER_COMPILER * TENANT_COMPILERS.len());
    for &(profile, opt_level) in TENANT_COMPILERS.iter().cycle().take(tenants.capacity()) {
        let tenant = Tenant {
            iterations: tenant_iterations,
            seed: rng.next_u64() >> 16,
            profile,
            opt_level,
        };
        let compiler = tenant.compiler();
        if seeds.iter().all(|s| compiles_cleanly(&compiler, s)) {
            tenants.push(tenant);
        } else {
            rejected += 1;
        }
    }

    let fixtures = metamut_analyze::fixtures::UB_FIXTURES;
    let mut analyze = Vec::with_capacity(ANALYZE_JOBS);
    for i in 0..ANALYZE_JOBS {
        // Alternate clean generated programs with programs that carry UB.
        let mut program = String::new();
        for f in 0..rng.range(4, 10) {
            let name = format!("an{i}_{f}");
            function(&mut rng, &mut program, &name, None, None);
        }
        if i % 2 == 1 {
            program.push_str(fixtures[rng.index(fixtures.len())].2);
            program.push('\n');
        }
        analyze.push(program);
    }

    // Only case studies the protocol can express: profile plus `-O` level
    // under the daemon's default flags.
    let cases: Vec<(metamut_reduce::fixtures::CaseStudy, Compiler, u64)> =
        metamut_reduce::fixtures::case_studies()
            .into_iter()
            .filter_map(|case| {
                let options = metamut_serve::job::compile_options(case.options.opt_level);
                let compiler = Compiler::new(case.profile, options);
                let target = compiler.compile(case.source).outcome.crash()?.signature();
                Some((case, compiler, target))
            })
            .collect();
    let mut reduce = Vec::with_capacity(cases.len());
    for (case, compiler, target) in &cases {
        loop {
            let mut program = String::new();
            for f in 0..rng.range(2, 6) {
                let name = format!("by{}_{f}", reduce.len());
                function(&mut rng, &mut program, &name, None, None);
            }
            program.push_str(case.source);
            if compiler
                .compile(&program)
                .outcome
                .crash()
                .map(|c| c.signature())
                != Some(*target)
            {
                rejected += 1;
                continue;
            }
            reduce.push(ReduceInput {
                program,
                profile: if case.profile == Profile::Clang {
                    "clang"
                } else {
                    "gcc"
                },
                opt_level: case.options.opt_level,
                signature: *target,
            });
            break;
        }
    }
    (
        JobMix {
            tenants,
            analyze,
            reduce,
        },
        rejected,
    )
}
