//! A bounded model checker for validating synthesized inverses — the
//! stand-in for the paper's use of CBMC (§2.5, Table 3).
//!
//! Like CBMC, verification is *finitized*: loops are unrolled up to a bound
//! and integer inputs are range-bounded (which bounds array extents the
//! programs traverse). Within those bounds the check is exhaustive: every
//! complete path of `P ; P⁻¹` is enumerated and the identity specification
//! is discharged with the SMT solver. Like CBMC's unwinding assertions,
//! every prefix the unrolling cut at the bound is discharged too: a loop
//! whose guard can still hold there runs past the bound on some input, so
//! the paths checked do not cover that input and the report is not
//! `verified` (an inverse that diverges is caught here, not verified
//! vacuously). Unlike CBMC, axioms for library
//! functions *are* supported, because the checker shares PINS's solver —
//! the paper reports CBMC could not validate the 8 axiom-using benchmarks.
//!
//! # Example
//!
//! ```no_run
//! use pins_bmc::{check_inverse, BmcConfig};
//! # let session: pins_core::Session = unimplemented!();
//! # let inverse: pins_ir::Program = unimplemented!();
//! let report = check_inverse(&session, &inverse, BmcConfig::default());
//! assert!(report.verified);
//! ```

use std::time::{Duration, Instant};

use pins_budget::{Budget, StopReason};
use pins_core::Session;
use pins_ir::{Program, Type};
use pins_logic::TermId;
use pins_smt::{SmtConfig, SmtSession, Verdict};
use pins_symexec::{EmptyFiller, ExploreConfig, Explorer, SymCtx};

/// Finitization bounds.
#[derive(Debug, Clone, Copy)]
pub struct BmcConfig {
    /// Loop unrolling bound (the paper used 10).
    pub unroll: u32,
    /// Integer inputs are constrained to `[-bound, bound]`; this bounds the
    /// array sizes the programs traverse (the paper used 4–8).
    pub input_bound: i64,
    /// SMT configuration.
    pub smt: SmtConfig,
    /// Safety cap on enumerated paths.
    pub max_paths: usize,
    /// Wall-clock budget for the whole run (unrolling + discharge); on
    /// expiry the report comes back unverified with
    /// [`BmcReport::stopped`] set instead of hanging.
    pub time_budget: Option<Duration>,
}

impl Default for BmcConfig {
    fn default() -> Self {
        BmcConfig {
            unroll: 10,
            input_bound: 4,
            smt: SmtConfig::default(),
            max_paths: 100_000,
            time_budget: None,
        }
    }
}

/// The verdict of a bounded verification run.
#[derive(Debug, Clone)]
pub struct BmcReport {
    /// Whether every in-bounds path satisfies the identity specification.
    pub verified: bool,
    /// Number of complete paths checked.
    pub paths: usize,
    /// Description of the first violating path, if any.
    pub counterexample: Option<String>,
    /// Description of the first loop that can run past the unroll bound
    /// (its guard satisfiable on a prefix cut at the bound), if any: the
    /// bounded check is incomplete, not refuted.
    pub unwinding: Option<String>,
    /// Set when the run was cut short by the budget (or degraded on an
    /// arithmetic overflow) rather than refuted: the bounded claim is then
    /// *unestablished*, not falsified.
    pub stopped: Option<StopReason>,
    /// Wall-clock time.
    pub time: std::time::Duration,
}

/// Composes `session.original` with the closed `inverse` and verifies the
/// session's specification on every path within bounds.
///
/// # Panics
///
/// Panics if `inverse` still contains holes (verify resolved solutions).
pub fn check_inverse(session: &Session, inverse: &Program, config: BmcConfig) -> BmcReport {
    let mut span = pins_trace::span("bmc.check_inverse");
    let report = check_inverse_inner(session, inverse, &config);
    if span.is_active() {
        span.record_str("program", &inverse.name);
        span.record("verified", report.verified);
        span.record_u64("paths", report.paths as u64);
        span.record_u64("unroll_bound", config.unroll as u64);
        if let Some(reason) = report.stopped {
            span.record_str("stop_reason", &reason.to_string());
        }
        span.record("unwinding_failed", report.unwinding.is_some());
    }
    report
}

fn check_inverse_inner(session: &Session, inverse: &Program, config: &BmcConfig) -> BmcReport {
    let config = *config;
    let start = Instant::now();
    // `inverse` shares the composed program's variable table (it is the
    // template part with holes substituted), so the checked program is the
    // original body followed by the inverse body.
    let mut composed = inverse.clone();
    composed.name = format!("{}_bmc", inverse.name);
    let mut body = session.original.body.clone();
    body.extend(inverse.body.iter().cloned());
    composed.body = body;
    assert_eq!(
        composed.num_eholes, 0,
        "bounded model checking requires a hole-free inverse"
    );

    let mut ctx = SymCtx::new(&composed);
    let axioms = session.axiom_terms(&mut ctx.arena);

    // range constraints on the original's integer inputs
    let mut bounds: Vec<TermId> = Vec::new();
    for v in session.original.inputs() {
        if session.original.var(v).ty == Type::Int {
            let name = session.original.var(v).name.clone();
            let cv = composed.var_by_name(&name).expect("shared input");
            let t = ctx.var_term(cv, 0);
            let lo = ctx.arena.mk_int(-config.input_bound);
            let hi = ctx.arena.mk_int(config.input_bound);
            let c1 = ctx.arena.mk_le(lo, t);
            let c2 = ctx.arena.mk_le(t, hi);
            bounds.push(c1);
            bounds.push(c2);
        }
    }

    let explore = ExploreConfig {
        max_unroll: config.unroll,
        max_steps: 10_000_000,
        exit_first: true,
    };
    let budget = Budget::with_limits(config.time_budget, None);
    // all BMC solver traffic is attributed to the inverse under check,
    // phase `bmc`
    let prov = pins_trace::ProvenanceCtx::new(&inverse.name);
    let _phase = prov.enter_phase(pins_trace::Phase::Bmc);
    // unrolled syntactically: feasibility is part of each validity check
    let mut explorer = Explorer::new(&composed, explore, None);
    explorer.set_budget(budget.clone());
    let paths = {
        let mut unroll_span = pins_trace::span("bmc.unroll");
        let paths = explorer.enumerate(&mut ctx, &EmptyFiller, config.max_paths);
        unroll_span.record_u64("paths", paths.len() as u64);
        paths
    };
    let total = paths.len();
    if let Some(reason) = explorer.stop_reason {
        return BmcReport {
            verified: false,
            paths: total,
            counterexample: None,
            unwinding: None,
            stopped: Some(reason),
            time: start.elapsed(),
        };
    }
    let cuts = std::mem::take(&mut explorer.cuts);

    // one session for the whole run: axioms and input bounds are asserted
    // persistently; each path contributes only its conjuncts + negated spec
    // as assumptions, so repeated path prefixes hit the query cache
    let mut smt = SmtSession::new(config.smt);
    smt.set_budget(budget);
    smt.set_provenance(prov.clone());
    for &ax in &axioms {
        smt.assert_axiom(ax);
    }
    for &b in &bounds {
        smt.assert(b);
    }

    let discharge_span = pins_trace::span("bmc.discharge");
    for (i, path) in paths.into_iter().enumerate() {
        prov.set_path(i as u64 + 1);
        let spec = session.spec.to_term(&mut ctx, &path.final_vmap);
        let mut assumptions = path.conjuncts.clone();
        let neg = ctx.arena.mk_not(spec);
        assumptions.push(neg);
        match smt.verdict_under(&mut ctx.arena, &assumptions) {
            Verdict::Unsat => {}
            Verdict::Unknown { reason } => {
                // the solver was stopped, not refuted: report the budget
                // trip rather than a (nonexistent) counterexample
                return BmcReport {
                    verified: false,
                    paths: total,
                    counterexample: None,
                    unwinding: None,
                    stopped: Some(reason),
                    time: start.elapsed(),
                };
            }
            Verdict::Sat { .. } => {
                let mut shown = String::new();
                for &c in path.conjuncts.iter().take(12) {
                    shown.push_str(&format!("{}\n", ctx.arena.display(c)));
                }
                return BmcReport {
                    verified: false,
                    paths: total,
                    counterexample: Some(shown),
                    unwinding: None,
                    stopped: None,
                    time: start.elapsed(),
                };
            }
        }
    }
    drop(discharge_span);

    // unwinding checks: no loop may still be able to iterate where the
    // unrolling cut it
    let _unwind_span = pins_trace::span("bmc.unwinding");
    prov.set_path(0);
    for cut in cuts {
        let mut assumptions = cut.conjuncts;
        assumptions.push(cut.guard);
        let unwinding = match smt.verdict_under(&mut ctx.arena, &assumptions) {
            Verdict::Unsat => continue,
            Verdict::Unknown { reason } => {
                return BmcReport {
                    verified: false,
                    paths: total,
                    counterexample: None,
                    unwinding: None,
                    stopped: Some(reason),
                    time: start.elapsed(),
                };
            }
            Verdict::Sat { .. } => format!(
                "loop {} can run past the unroll bound {}: its guard {} holds after {} conjuncts",
                cut.loop_id.0,
                config.unroll,
                ctx.arena.display(cut.guard),
                assumptions.len() - 1
            ),
        };
        return BmcReport {
            verified: false,
            paths: total,
            counterexample: None,
            unwinding: Some(unwinding),
            stopped: None,
            time: start.elapsed(),
        };
    }
    BmcReport {
        verified: true,
        paths: total,
        counterexample: None,
        unwinding: None,
        stopped: None,
        time: start.elapsed(),
    }
}

/// Quick helper: verify and return only the boolean verdict.
pub fn verifies(session: &Session, inverse: &Program, config: BmcConfig) -> bool {
    check_inverse(session, inverse, config).verified
}

#[cfg(test)]
mod tests;
