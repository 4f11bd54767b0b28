//! `pins-fuzz`: differential fuzzing and cross-validation for the whole
//! PINS solver stack.
//!
//! The crate is built around three ideas:
//!
//! 1. **Decision tapes** ([`tape`]): generators draw every choice from a
//!    replayable stream, so any input — formula or program — is fully
//!    described by a `(oracle, tape)` pair and can be replayed or shrunk
//!    without ever serializing the object itself.
//! 2. **Differential oracles** ([`oracles`]): each oracle checks that two
//!    independent routes through the stack agree — model evaluation vs SAT
//!    verdicts, exhaustive enumeration vs UNSAT verdicts, cache vs
//!    recomputation, the concrete interpreter vs symbolic execution
//!    discharged through SMT, budget-degraded runs vs complete runs, unsat
//!    cores vs fresh solves, sliced vs whole constraints, and axiom
//!    instantiation vs a brute-force reference. Non-definitive results
//!    (`Unknown`, incomplete `Sat`) are compatible with anything; only
//!    definitive disagreements are violations.
//! 3. **Greedy tape shrinking** ([`shrink`](mod@shrink)): failing tapes are
//!    delta-reduced against the same oracle, and the minimized artifact is
//!    emitted in the JSONL report for replay via `pins-fuzz --oracle O
//!    --tape T`.
//!
//! The [`run`] driver round-robins oracles over per-iteration seeds derived
//! from a master seed, so `--iters N --seed S` is deterministic and
//! byte-identical across runs and machines (reports carry no timestamps).

pub mod eval;
pub mod genf;
pub mod genp;
pub mod genq;
pub mod oracles;
pub mod report;
pub mod shrink;
pub mod tape;

use std::time::Instant;

use pins_prng::SplitMix64;

pub use oracles::{fuzz_smt_config, run_oracle, OracleKind, OracleOutcome, ALL_ORACLES};
pub use shrink::{shrink, Shrunk};
pub use tape::{Decisions, Tape};

/// Options for a fuzzing run.
#[derive(Debug, Clone)]
pub struct FuzzOptions {
    /// Number of iterations (each iteration runs one oracle once).
    pub iters: u64,
    /// Master seed; per-iteration seeds derive from it.
    pub seed: u64,
    /// Restrict to a single oracle (otherwise round-robin over all nine).
    pub oracle: Option<OracleKind>,
    /// Wall-clock bound for the whole run, in milliseconds. Checked between
    /// iterations; when it trips, the run stops early (the report then
    /// reflects the completed prefix only).
    pub budget_ms: Option<u64>,
    /// Shrink failing tapes before reporting.
    pub shrink: bool,
    /// Cap on oracle executions spent shrinking one finding.
    pub max_shrink_attempts: usize,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            iters: 1000,
            seed: 0,
            oracle: None,
            budget_ms: None,
            shrink: true,
            max_shrink_attempts: 2000,
        }
    }
}

/// One oracle violation, with its replay artifacts.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Iteration index that produced it.
    pub iter: u64,
    /// Oracle name ([`OracleKind::name`]).
    pub oracle: &'static str,
    /// Per-iteration seed.
    pub seed: u64,
    /// The original (normalized) failing tape, hex-encoded.
    pub tape: String,
    /// The shrunk tape, when shrinking ran.
    pub shrunk_tape: Option<String>,
    /// Violation messages from the (shrunk, when available) run.
    pub violations: Vec<String>,
}

/// Per-oracle outcome counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct OracleCounts {
    /// Runs that checked their property and found agreement.
    pub passed: u64,
    /// Inconclusive runs (nothing definitive to compare).
    pub skipped: u64,
    /// Runs that found a definitive disagreement.
    pub violations: u64,
}

/// The result of a whole fuzzing run.
#[derive(Debug, Clone, Default)]
pub struct FuzzSummary {
    /// Iterations actually executed (may be below the request under
    /// `budget_ms`).
    pub iters: u64,
    /// Total conclusive, passing runs.
    pub passed: u64,
    /// Total inconclusive runs.
    pub skipped: u64,
    /// All findings, in iteration order.
    pub findings: Vec<Finding>,
    /// Counters per oracle name, in [`ALL_ORACLES`] order (restricted runs
    /// carry just the one entry).
    pub per_oracle: Vec<(&'static str, OracleCounts)>,
}

impl FuzzSummary {
    /// Renders the full JSONL report (meta line, one line per finding, and
    /// a summary line).
    pub fn to_jsonl(&self, seed: u64, requested_iters: u64, oracle: Option<OracleKind>) -> String {
        let mut out = String::new();
        out.push_str(&report::meta_line(
            seed,
            requested_iters,
            oracle.map(|o| o.name()),
        ));
        out.push('\n');
        for f in &self.findings {
            out.push_str(&report::finding_line(f));
            out.push('\n');
        }
        out.push_str(&report::summary_line(self));
        out.push('\n');
        out
    }
}

/// The per-iteration seed stream: a [`SplitMix64`] over the master seed, so
/// iteration `i`'s seed does not depend on how earlier iterations consumed
/// their own streams.
pub fn iteration_seed(master: u64, iter: u64) -> u64 {
    let mut s = SplitMix64::new(master.wrapping_add(iter.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
    s.next_u64()
}

/// Runs the fuzzing loop.
pub fn run(options: &FuzzOptions) -> FuzzSummary {
    let started = Instant::now();
    let oracles: Vec<OracleKind> = match options.oracle {
        Some(o) => vec![o],
        None => ALL_ORACLES.to_vec(),
    };
    let mut per: Vec<(&'static str, OracleCounts)> = oracles
        .iter()
        .map(|o| (o.name(), OracleCounts::default()))
        .collect();
    let mut summary = FuzzSummary::default();
    for iter in 0..options.iters {
        if let Some(ms) = options.budget_ms {
            if started.elapsed().as_millis() as u64 >= ms {
                break;
            }
        }
        let slot = (iter % oracles.len() as u64) as usize;
        let oracle = oracles[slot];
        let seed = iteration_seed(options.seed, iter);
        let mut d = Decisions::record(seed);
        let outcome = run_oracle(oracle, &mut d);
        summary.iters += 1;
        let counts = &mut per[slot].1;
        if !outcome.violations.is_empty() {
            counts.violations += 1;
            let tape = d.tape();
            let (shrunk_tape, violations) = if options.shrink {
                let s = shrink(oracle, &tape, options.max_shrink_attempts);
                if s.violations.is_empty() {
                    (None, outcome.violations)
                } else {
                    (Some(s.tape.to_hex()), s.violations)
                }
            } else {
                (None, outcome.violations)
            };
            summary.findings.push(Finding {
                iter,
                oracle: oracle.name(),
                seed,
                tape: tape.to_hex(),
                shrunk_tape,
                violations,
            });
        } else if outcome.skipped {
            counts.skipped += 1;
            summary.skipped += 1;
        } else {
            counts.passed += 1;
            summary.passed += 1;
        }
    }
    summary.per_oracle = per;
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_run_is_deterministic_and_clean() {
        let opts = FuzzOptions {
            iters: 60,
            seed: 42,
            ..FuzzOptions::default()
        };
        let a = run(&opts);
        let b = run(&opts);
        assert_eq!(a.iters, 60);
        assert!(
            a.findings.is_empty(),
            "unexpected violations: {:?}",
            a.findings
        );
        assert_eq!(a.to_jsonl(42, 60, None), b.to_jsonl(42, 60, None));
        // every oracle ran and some runs were conclusive
        assert_eq!(a.per_oracle.len(), ALL_ORACLES.len());
        assert!(a.passed > 0);
    }

    #[test]
    fn single_oracle_restriction_is_respected() {
        let opts = FuzzOptions {
            iters: 12,
            seed: 7,
            oracle: Some(OracleKind::Cache),
            ..FuzzOptions::default()
        };
        let s = run(&opts);
        assert_eq!(s.per_oracle.len(), 1);
        assert_eq!(s.per_oracle[0].0, "cache");
        let c = s.per_oracle[0].1;
        assert_eq!(c.passed + c.skipped + c.violations, 12);
    }

    #[test]
    fn budget_ms_stops_early() {
        let opts = FuzzOptions {
            iters: u64::MAX,
            seed: 1,
            budget_ms: Some(50),
            ..FuzzOptions::default()
        };
        let s = run(&opts);
        assert!(s.iters < u64::MAX);
    }
}
