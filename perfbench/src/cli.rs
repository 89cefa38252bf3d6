//! Command-line parsing. Every flag is required once; anything else is a
//! usage error.

use std::fmt;

pub const USAGE: &str =
    "usage: perfbench --workload <mucfuzz-corpus|mucfuzz-wide|baselines|serve-tenants> \
--seed <n> --seconds <n> --trace <0|1>";

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// μCFuzz with M_s ∪ M_u over the embedded seed corpus.
    Corpus,
    /// The same fuzzer over generated wide seeds.
    Wide,
    /// The AFL++-, GrayC-, Csmith- and YARPGen-like fuzzers in turn.
    Baselines,
    /// Fuzz, analyze and reduce jobs on an in-process daemon.
    ServeTenants,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Corpus,
        Workload::Wide,
        Workload::Baselines,
        Workload::ServeTenants,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Corpus => "mucfuzz-corpus",
            Workload::Wide => "mucfuzz-wide",
            Workload::Baselines => "baselines",
            Workload::ServeTenants => "serve-tenants",
        }
    }
}

/// Parsed arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// A usage error, with the offending argument.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError(pub String);

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}\n{USAGE}", self.0)
    }
}

pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, UsageError> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let slot: &mut Option<String> = match flag.as_str() {
            "--workload" => &mut workload,
            "--seed" => &mut seed,
            "--seconds" => &mut seconds,
            "--trace" => &mut trace,
            other => return Err(UsageError(format!("unknown argument {other:?}"))),
        };
        let value = it
            .next()
            .ok_or_else(|| UsageError(format!("{flag} needs a value")))?;
        if slot.replace(value).is_some() {
            return Err(UsageError(format!("{flag} given twice")));
        }
    }
    let need =
        |v: Option<String>, flag: &str| v.ok_or_else(|| UsageError(format!("missing {flag}")));
    let workload = need(workload, "--workload")?;
    let workload = Workload::ALL
        .into_iter()
        .find(|w| w.name() == workload)
        .ok_or_else(|| UsageError(format!("unknown workload {workload:?}")))?;
    let number = |v: String, flag: &str| {
        v.parse::<u64>()
            .map_err(|_| UsageError(format!("{flag} takes a whole number, got {v:?}")))
    };
    let seed = number(need(seed, "--seed")?, "--seed")?;
    let seconds = number(need(seconds, "--seconds")?, "--seconds")?;
    if seconds == 0 {
        return Err(UsageError("--seconds must be at least 1".to_string()));
    }
    let trace = match need(trace, "--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(UsageError(format!("--trace takes 0 or 1, got {other:?}"))),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, UsageError> {
        parse(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_every_flag() {
        let a = args("--workload baselines --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            a,
            Args {
                workload: Workload::Baselines,
                seed: 7,
                seconds: 3,
                trace: true
            }
        );
    }

    #[test]
    fn rejects_unknown_or_missing_input() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload baselines --seed 1 --seconds 1 --trace 0 --help",
            "--workload baselines --seed 1 --seconds 1",
            "--workload baselines --seed x --seconds 1 --trace 0",
            "--workload baselines --seed 1 --seconds 1 --trace 2",
            "--workload baselines --seed 1 --seed 2 --seconds 1 --trace 0",
            "--workload baselines --seed 1 --seconds 0 --trace 0",
        ] {
            assert!(args(bad).is_err(), "{bad} was accepted");
        }
    }
}
