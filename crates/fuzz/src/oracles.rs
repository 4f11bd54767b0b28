//! The differential oracles: each consumes a decision stream, generates an
//! input, exercises one cross-layer agreement property of the solver stack,
//! and reports any definitive disagreement as a violation.
//!
//! All oracles are deterministic for a fixed tape: SMT configurations use
//! step limits (never wall-clock limits), retries are disabled, and caches
//! are private per run — so a `(oracle, tape)` pair replays identically on
//! any machine, which is what makes shrunk artifacts and CI smoke runs
//! trustworthy.

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use pins_budget::Budget;
use pins_core::{Constraint, ConstraintLabel, HoleDomains, Slicer};
use pins_ir::{run as interp_run, ExternEnv, InterpError, Store, Value};
use pins_ir::{EHoleId, Expr, Mode, Program, Stmt, Type, VarId};
use pins_logic::{collect_subterms, Term, TermArena, TermId, BOUND_VERSION};
use pins_smt::{
    instantiate, CompiledAxioms, CoreSlot, Definitions, InstConfig, Model, QueryCache, Smt,
    SmtConfig, SmtResult, SmtSession, Verdict, Witness,
};
use pins_symexec::{apply_filler_term, EmptyFiller, ExploreConfig, Explorer, MapFiller, SymCtx};

use crate::eval::{check_model, enumerate_sat};
use crate::genf::{gen_conjunct, gen_definitions, gen_formula, FormulaConfig, GenFormula};
use crate::genp::{gen_program, ProgramConfig};
use crate::genq::{gen_axioms, GenAxioms};
use crate::tape::Decisions;

/// The nine differential oracles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleKind {
    /// `Sat` verdicts: the returned model must satisfy the formula under an
    /// independent evaluator (including EUF congruence of the assignment).
    ModelEval,
    /// `Unsat` verdicts: small-domain exhaustive enumeration must not find
    /// a satisfying assignment.
    EnumUnsat,
    /// Cached `SmtSession` verdicts must agree with recomputation and with
    /// a fresh one-shot solver (cache-key soundness).
    Cache,
    /// Concrete `interp` runs vs symbolic path conditions discharged
    /// through the SMT solver: exactly one feasible path, same exit state.
    InterpSymexec,
    /// Budget-degraded runs must never contradict an unbudgeted run.
    Budget,
    /// Every extracted unsat core must itself be unsat when its members are
    /// re-solved fresh (core-tracking soundness).
    Core,
    /// A path constraint is valid iff every part the synthesis-constraint
    /// slicer cuts it into is (slicing exactness).
    Slice,
    /// The solver's exact shortcuts agree with solving: a query containing
    /// a known unsat core is answered by a core hit and is not satisfiable,
    /// and a stored model the witness evaluator accepts for a new formula
    /// really satisfies it.
    Shortcut,
    /// Upfront axiom instantiation returns exactly the instances a
    /// brute-force reference finds round by round, and the arena's
    /// groundness bit agrees with a walk of every generated term.
    Ground,
}

/// All oracles, in the round-robin order the driver uses.
pub const ALL_ORACLES: [OracleKind; 9] = [
    OracleKind::ModelEval,
    OracleKind::EnumUnsat,
    OracleKind::Cache,
    OracleKind::InterpSymexec,
    OracleKind::Budget,
    OracleKind::Core,
    OracleKind::Slice,
    OracleKind::Shortcut,
    OracleKind::Ground,
];

impl OracleKind {
    /// Stable name used in reports, artifacts, and `--oracle`.
    pub fn name(self) -> &'static str {
        match self {
            OracleKind::ModelEval => "model-eval",
            OracleKind::EnumUnsat => "enum-unsat",
            OracleKind::Cache => "cache",
            OracleKind::InterpSymexec => "interp-symexec",
            OracleKind::Budget => "budget",
            OracleKind::Core => "core",
            OracleKind::Slice => "slice",
            OracleKind::Shortcut => "shortcut",
            OracleKind::Ground => "ground",
        }
    }

    /// Parses a [`OracleKind::name`].
    pub fn from_name(s: &str) -> Option<OracleKind> {
        ALL_ORACLES.into_iter().find(|o| o.name() == s)
    }
}

/// The outcome of one oracle run.
#[derive(Debug, Clone, Default)]
pub struct OracleOutcome {
    /// Definitive cross-layer disagreements; empty means the run passed.
    pub violations: Vec<String>,
    /// The run was inconclusive (e.g. everything degraded to `Unknown`, or
    /// path enumeration hit its bound): no property was checked.
    pub skipped: bool,
    /// One-word outcome summary for the report (deterministic).
    pub detail: String,
}

impl OracleOutcome {
    fn pass(detail: impl Into<String>) -> OracleOutcome {
        OracleOutcome {
            violations: Vec::new(),
            skipped: false,
            detail: detail.into(),
        }
    }

    fn skip(detail: impl Into<String>) -> OracleOutcome {
        OracleOutcome {
            violations: Vec::new(),
            skipped: true,
            detail: detail.into(),
        }
    }

    fn fail(violations: Vec<String>, detail: impl Into<String>) -> OracleOutcome {
        OracleOutcome {
            violations,
            skipped: false,
            detail: detail.into(),
        }
    }
}

/// The deterministic SMT configuration every oracle uses: step-limited
/// (never wall-clock), no Unknown-retry — identical verdicts on any host.
pub fn fuzz_smt_config() -> SmtConfig {
    SmtConfig {
        time_limit: None,
        step_limit: Some(500_000),
        retry_unknown: false,
        ..SmtConfig::default()
    }
}

fn verdict_name(v: Verdict) -> &'static str {
    match v {
        Verdict::Unsat => "unsat",
        Verdict::Sat { complete: true } => "sat",
        Verdict::Sat { complete: false } => "sat-incomplete",
        Verdict::Unknown { .. } => "unknown",
    }
}

/// Runs one oracle on one decision stream.
pub fn run_oracle(kind: OracleKind, d: &mut Decisions) -> OracleOutcome {
    match kind {
        OracleKind::ModelEval => model_eval(d),
        OracleKind::EnumUnsat => enum_unsat(d),
        OracleKind::Cache => cache_soundness(d),
        OracleKind::InterpSymexec => interp_vs_symexec(d),
        OracleKind::Budget => budget_compat(d),
        OracleKind::Core => core_soundness(d),
        OracleKind::Slice => slice_exactness(d),
        OracleKind::Shortcut => shortcut_exactness(d),
        OracleKind::Ground => ground_exactness(d),
    }
}

fn solve_fresh(f: &mut GenFormula) -> SmtResult {
    let asserts = f.asserts.clone();
    solve_fresh_asserts(f, &asserts)
}

// ---------------------------------------------------------------------------
// 1. model-eval
// ---------------------------------------------------------------------------

fn model_eval(d: &mut Decisions) -> OracleOutcome {
    let mut f = gen_formula(d, FormulaConfig::default());
    match solve_fresh(&mut f) {
        SmtResult::Sat(model) if model.complete => {
            let res = check_model(&f.arena, &f.asserts, &model);
            if res.ok() {
                OracleOutcome::pass("sat")
            } else {
                let mut v: Vec<String> = res
                    .falsified
                    .iter()
                    .map(|i| format!("model falsifies assert #{i}"))
                    .collect();
                v.extend(res.euf_conflicts);
                OracleOutcome::fail(v, "sat")
            }
        }
        SmtResult::Sat(_) => OracleOutcome::skip("sat-incomplete"),
        SmtResult::Unsat => OracleOutcome::pass("unsat"),
        SmtResult::Unknown(_) => OracleOutcome::skip("unknown"),
    }
}

// ---------------------------------------------------------------------------
// 2. enum-unsat
// ---------------------------------------------------------------------------

fn enum_unsat(d: &mut Decisions) -> OracleOutcome {
    let mut f = gen_formula(
        d,
        FormulaConfig {
            enumerable: true,
            ..FormulaConfig::default()
        },
    );
    let result = solve_fresh(&mut f);
    match result {
        SmtResult::Unsat => {
            if let Some((ints, bools)) =
                enumerate_sat(&f.arena, &f.asserts, &f.int_vars, &f.bool_vars)
            {
                OracleOutcome::fail(
                    vec![format!(
                        "solver says unsat but enumeration found ints={ints:?} bools={bools:?}"
                    )],
                    "unsat",
                )
            } else {
                OracleOutcome::pass("unsat")
            }
        }
        SmtResult::Sat(model) if model.complete => {
            // free extra coverage: the model must also check out
            let res = check_model(&f.arena, &f.asserts, &model);
            if res.ok() {
                OracleOutcome::pass("sat")
            } else {
                OracleOutcome::fail(
                    res.falsified
                        .iter()
                        .map(|i| format!("enumerable model falsifies assert #{i}"))
                        .collect(),
                    "sat",
                )
            }
        }
        SmtResult::Sat(_) => OracleOutcome::skip("sat-incomplete"),
        SmtResult::Unknown(_) => OracleOutcome::skip("unknown"),
    }
}

// ---------------------------------------------------------------------------
// 3. cache
// ---------------------------------------------------------------------------

fn cache_soundness(d: &mut Decisions) -> OracleOutcome {
    let mut f = gen_formula(d, FormulaConfig::default());
    let cache = Arc::new(QueryCache::new());
    let mut s1 = SmtSession::with_cache(fuzz_smt_config(), Arc::clone(&cache));
    let v1 = s1.verdict_under(&mut f.arena, &f.asserts);
    let mut s2 = SmtSession::with_cache(fuzz_smt_config(), Arc::clone(&cache));
    let v2 = s2.verdict_under(&mut f.arena, &f.asserts);
    let vf = Verdict::of(&solve_fresh(&mut f));
    let mut violations = Vec::new();
    if !v1.agrees_with(v2) {
        violations.push(format!(
            "cached verdict {} disagrees with first computation {}",
            verdict_name(v2),
            verdict_name(v1)
        ));
    }
    if !v1.agrees_with(vf) {
        violations.push(format!(
            "session verdict {} disagrees with fresh solver {}",
            verdict_name(v1),
            verdict_name(vf)
        ));
    }
    if s2.stats().cache_hits == 0 && v1.is_definitive() {
        violations.push("identical repeat query missed the cache".to_owned());
    }
    if violations.is_empty() {
        OracleOutcome::pass(verdict_name(v1))
    } else {
        OracleOutcome::fail(violations, verdict_name(v1))
    }
}

// ---------------------------------------------------------------------------
// 4. interp-symexec
// ---------------------------------------------------------------------------

fn interp_vs_symexec(d: &mut Decisions) -> OracleOutcome {
    // arrays are excluded here: the interpreter's sparse default-0 cells and
    // an unconstrained symbolic array only agree given extensional bindings,
    // which a finite assumption set cannot express
    let program = gen_program(
        d,
        ProgramConfig {
            allow_arrays: false,
            ..ProgramConfig::default()
        },
    );
    let int_vars: Vec<VarId> = program
        .vars
        .iter()
        .enumerate()
        .filter(|(_, v)| v.ty == Type::Int)
        .map(|(i, _)| VarId(i as u32))
        .collect();
    // concrete initial state: drawn values for inputs, 0 elsewhere (the
    // interpreter's own defaulting rule)
    let mut initial: HashMap<VarId, i64> = int_vars.iter().map(|&v| (v, 0)).collect();
    for &(v, m) in &program.params {
        if matches!(m, Mode::In | Mode::InOut) && program.var(v).ty == Type::Int {
            initial.insert(v, d.int_in(-8, 8));
        }
    }
    let store: Store = initial.iter().map(|(&v, &x)| (v, Value::Int(x))).collect();
    let env = ExternEnv::new();
    let concrete = interp_run(&program, &store, &env, 10_000);

    let mut ctx = SymCtx::new(&program);
    let mut explorer = Explorer::new(
        &program,
        ExploreConfig {
            max_unroll: 5,
            check_feasibility: false,
            smt: fuzz_smt_config(),
            ..ExploreConfig::default()
        },
    );
    const PATH_LIMIT: usize = 128;
    let paths = explorer.enumerate(&mut ctx, &EmptyFiller, PATH_LIMIT);
    if explorer.budget_hit || paths.len() >= PATH_LIMIT {
        return OracleOutcome::skip("path-bound");
    }

    // bind every variable's initial (version-0) term to its concrete value
    let binding: Vec<TermId> = int_vars
        .iter()
        .map(|&v| {
            let vt = ctx.var_term(v, 0);
            let c = ctx.arena.mk_int(initial[&v]);
            ctx.arena.mk_eq(vt, c)
        })
        .collect();

    let mut session = SmtSession::with_cache(fuzz_smt_config(), Arc::new(QueryCache::new()));
    let mut sat_paths = Vec::new();
    for (i, path) in paths.iter().enumerate() {
        let mut assumptions = binding.clone();
        assumptions.extend_from_slice(&path.substituted);
        match session.verdict_under(&mut ctx.arena, &assumptions) {
            Verdict::Sat { complete: true } => sat_paths.push(i),
            Verdict::Unsat => {}
            _ => return OracleOutcome::skip("unknown-path"),
        }
    }

    match concrete {
        Ok(exit_store) => {
            if sat_paths.len() != 1 {
                return OracleOutcome::fail(
                    vec![format!(
                        "concrete run succeeded but {} of {} symbolic paths are feasible \
                         under the input binding (expected exactly 1)",
                        sat_paths.len(),
                        paths.len()
                    )],
                    "run-ok",
                );
            }
            let path = &paths[sat_paths[0]];
            // the feasible path must entail the concrete exit values
            for &out in &program.outputs() {
                if program.var(out).ty != Type::Int {
                    continue;
                }
                let got = match exit_store.get(&out) {
                    Some(Value::Int(x)) => *x,
                    _ => continue,
                };
                let final_t = ctx.var_term(out, path.final_version(out));
                let c = ctx.arena.mk_int(got);
                let eq = ctx.arena.mk_eq(final_t, c);
                let ne = ctx.arena.mk_not(eq);
                let mut assumptions = binding.clone();
                assumptions.extend_from_slice(&path.substituted);
                assumptions.push(ne);
                match session.verdict_under(&mut ctx.arena, &assumptions) {
                    Verdict::Unsat => {}
                    Verdict::Sat { complete: true } => {
                        return OracleOutcome::fail(
                            vec![format!(
                                "symbolic exit value of `{}` can differ from concrete {}",
                                program.var(out).name,
                                got
                            )],
                            "run-ok",
                        );
                    }
                    _ => return OracleOutcome::skip("unknown-exit"),
                }
            }
            OracleOutcome::pass("run-ok")
        }
        Err(InterpError::AssumeViolated) => {
            if sat_paths.is_empty() {
                OracleOutcome::pass("assume-violated")
            } else {
                OracleOutcome::fail(
                    vec![format!(
                        "concrete run violated an assume but {} symbolic path(s) are \
                         feasible under the input binding",
                        sat_paths.len()
                    )],
                    "assume-violated",
                )
            }
        }
        Err(_) => OracleOutcome::skip("interp-error"),
    }
}

// ---------------------------------------------------------------------------
// 5. budget
// ---------------------------------------------------------------------------

fn budget_compat(d: &mut Decisions) -> OracleOutcome {
    let mut f = gen_formula(d, FormulaConfig::default());
    let full = Verdict::of(&solve_fresh(&mut f));
    let steps = 50 + d.choose(2_000);
    let mut limited = Smt::new(fuzz_smt_config());
    limited.set_budget(Budget::with_limits(None, Some(steps)));
    for &a in &f.asserts {
        limited.assert_term(&mut f.arena, a);
    }
    let degraded = Verdict::of(&limited.check(&mut f.arena));
    if full.agrees_with(degraded) {
        OracleOutcome::pass(verdict_name(full))
    } else {
        OracleOutcome::fail(
            vec![format!(
                "budgeted run ({steps} steps) says {} but unbudgeted run says {}",
                verdict_name(degraded),
                verdict_name(full)
            )],
            verdict_name(full),
        )
    }
}

// ---------------------------------------------------------------------------
// 6. core
// ---------------------------------------------------------------------------

fn core_soundness(d: &mut Decisions) -> OracleOutcome {
    let mut f = gen_formula(d, FormulaConfig::default());
    let mut session = SmtSession::with_cache(fuzz_smt_config(), Arc::new(QueryCache::new()));
    let v = session.verdict_under(&mut f.arena, &f.asserts);
    if !v.is_unsat() {
        return OracleOutcome::skip(verdict_name(v));
    }
    let core = match session.last_unsat_core() {
        Some(c) => c.clone(),
        None => {
            return OracleOutcome::fail(
                vec!["unsat verdict carried no core with tracking on".to_owned()],
                "unsat",
            )
        }
    };
    // generated formulas have no axioms, so unsatisfiability must come from
    // the asserted formulas themselves: an empty core is a tracking bug
    if core.is_empty() {
        return OracleOutcome::fail(
            vec!["empty core for an axiom-free unsat query".to_owned()],
            "unsat",
        );
    }
    let mut members: Vec<TermId> = Vec::with_capacity(core.len());
    for m in &core.members {
        match m.slot {
            CoreSlot::Assumption(i) if i < f.asserts.len() => members.push(f.asserts[i]),
            slot => {
                return OracleOutcome::fail(
                    vec![format!(
                        "core member resolves to a nonexistent slot {slot:?}"
                    )],
                    "unsat",
                )
            }
        }
    }
    // the defining property: the members alone must re-solve to unsat.
    // Budget-degraded re-solves are inconclusive, not violations.
    let mut smt = Smt::new(fuzz_smt_config());
    for &t in &members {
        smt.assert_term(&mut f.arena, t);
    }
    match smt.check(&mut f.arena) {
        SmtResult::Unsat => OracleOutcome::pass(if core.exact {
            "unsat"
        } else {
            "unsat-fallback"
        }),
        SmtResult::Sat(m) if m.complete => OracleOutcome::fail(
            vec![format!(
                "core of {} member(s) re-solves to sat (exact={})",
                core.len(),
                core.exact
            )],
            "unsat",
        ),
        SmtResult::Sat(_) => OracleOutcome::skip("core-sat-incomplete"),
        SmtResult::Unknown(_) => OracleOutcome::skip("core-unknown"),
    }
}

// ---------------------------------------------------------------------------
// 7. slice
// ---------------------------------------------------------------------------

/// Turns some integer assignments of `stmts` into expression holes, as an
/// inverse template would have them: each hole's domain holds the replaced
/// expression plus a variable read and a constant, so candidates read
/// variables the slicer must account for.
fn punch_holes(
    d: &mut Decisions,
    stmts: &mut [Stmt],
    int_vars: &[VarId],
    domains: &mut Vec<Vec<Expr>>,
) {
    for stmt in stmts {
        match stmt {
            Stmt::Assign(pairs) => {
                for (_, e) in pairs.iter_mut() {
                    if matches!(e, Expr::Sel(..) | Expr::Upd(..)) || !d.chance(1, 2) {
                        continue;
                    }
                    let hole = Expr::Hole(EHoleId(domains.len() as u32));
                    let original = std::mem::replace(e, hole);
                    let read = Expr::Var(*d.pick(int_vars));
                    let constant = Expr::Int(d.int_in(-2, 2));
                    domains.push(vec![original, read, constant]);
                }
            }
            Stmt::If(_, t, e) => {
                punch_holes(d, t, int_vars, domains);
                punch_holes(d, e, int_vars, domains);
            }
            Stmt::While(_, _, body) => punch_holes(d, body, int_vars, domains),
            Stmt::Assume(_) | Stmt::Exit | Stmt::Skip => {}
        }
    }
}

/// Whether a fresh session proves `hyps => goal` under `filler`:
/// `Some(true)` on an unsat negation, `Some(false)` on a complete model,
/// `None` otherwise.
fn validity(
    ctx: &mut SymCtx,
    program: &Program,
    filler: &MapFiller,
    hyps: &[TermId],
    goal: TermId,
) -> Option<bool> {
    let mut query: Vec<TermId> = hyps
        .iter()
        .map(|&h| apply_filler_term(ctx, program, h, filler))
        .collect();
    let goal = apply_filler_term(ctx, program, goal, filler);
    query.push(ctx.arena.mk_not(goal));
    let mut session = SmtSession::with_cache(fuzz_smt_config(), Arc::new(QueryCache::new()));
    match session.verdict_under(&mut ctx.arena, &query) {
        Verdict::Unsat => Some(true),
        Verdict::Sat { complete: true } => Some(false),
        _ => None,
    }
}

fn slice_exactness(d: &mut Decisions) -> OracleOutcome {
    let mut program = gen_program(d, ProgramConfig::default());
    let int_vars: Vec<VarId> = program
        .vars
        .iter()
        .enumerate()
        .filter(|(_, v)| v.ty == Type::Int)
        .map(|(i, _)| VarId(i as u32))
        .collect();
    let mut exprs = Vec::new();
    punch_holes(d, &mut program.body, &int_vars, &mut exprs);
    program.num_eholes = exprs.len() as u32;
    let domains = HoleDomains {
        exprs,
        ..HoleDomains::default()
    };

    let mut ctx = SymCtx::new(&program);
    let mut explorer = Explorer::new(
        &program,
        ExploreConfig {
            max_unroll: 3,
            check_feasibility: false,
            smt: fuzz_smt_config(),
            ..ExploreConfig::default()
        },
    );
    const PATH_LIMIT: usize = 64;
    let paths = explorer.enumerate(&mut ctx, &EmptyFiller, PATH_LIMIT);
    if paths.is_empty() {
        return OracleOutcome::skip("no-path");
    }
    let path = d.pick(&paths).clone();

    // the goal: equalities between final and initial versions, the shape of
    // an inversion spec
    let mut eqs = Vec::new();
    for _ in 0..1 + d.choose(3) {
        let (u, w) = (*d.pick(&int_vars), *d.pick(&int_vars));
        let lhs = ctx.var_term(u, path.final_version(u));
        let w_version = if d.chance(1, 2) {
            path.final_version(w)
        } else {
            0
        };
        let rhs = ctx.var_term(w, w_version);
        eqs.push(ctx.arena.mk_eq(lhs, rhs));
    }
    let goal = ctx.arena.mk_and(eqs);
    let whole = Constraint {
        hyps: path.conjuncts.clone(),
        goal,
        label: ConstraintLabel::SafePath,
    };
    let parts = Slicer::new(&domains).slice(&mut ctx, &whole);
    let kept: usize = parts.iter().map(|p| p.hyps.len()).sum();
    let shape = if parts.len() > 1 {
        "split"
    } else if kept < whole.hyps.len() {
        "sliced"
    } else {
        "unsliced"
    };

    let mut filler = MapFiller::default();
    for (h, dom) in domains.exprs.iter().enumerate() {
        filler.exprs.insert(EHoleId(h as u32), d.pick(dom).clone());
    }
    let Some(valid) = validity(&mut ctx, &program, &filler, &whole.hyps, whole.goal) else {
        return OracleOutcome::skip("unknown");
    };
    let mut each = Vec::with_capacity(parts.len());
    for p in &parts {
        match validity(&mut ctx, &program, &filler, &p.hyps, p.goal) {
            Some(v) => each.push(v),
            None => return OracleOutcome::skip("unknown-part"),
        }
    }
    let detail = format!("{}-{shape}", if valid { "valid" } else { "invalid" });
    if valid == each.iter().all(|&v| v) {
        OracleOutcome::pass(detail)
    } else {
        OracleOutcome::fail(
            vec![format!(
                "constraint over {} hypotheses is valid={valid}, but its {} parts \
                 (keeping {kept}) say {each:?}",
                whole.hyps.len(),
                parts.len()
            )],
            detail,
        )
    }
}

// ---------------------------------------------------------------------------
// 8. shortcut
// ---------------------------------------------------------------------------

fn shortcut_exactness(d: &mut Decisions) -> OracleOutcome {
    let mut f = gen_formula(d, FormulaConfig::default());
    let asserts = f.asserts.clone();
    let mut session = SmtSession::with_cache(fuzz_smt_config(), Arc::new(QueryCache::new()));
    match session.check_under(&mut f.arena, &asserts) {
        SmtResult::Unsat => core_subsumption(d, &mut f, &mut session),
        SmtResult::Sat(model) => witness_replay(d, &mut f, &model),
        SmtResult::Unknown(_) => OracleOutcome::skip("unknown"),
    }
}

/// `keep` with `extra` conjuncts generated over `f` inserted at random
/// positions.
fn with_conjuncts(
    d: &mut Decisions,
    f: &mut GenFormula,
    keep: &[TermId],
    extra: u64,
) -> Vec<TermId> {
    let mut out = keep.to_vec();
    for _ in 0..extra {
        let t = gen_conjunct(d, f, FormulaConfig::default());
        let at = d.choose(out.len() as u64 + 1) as usize;
        out.insert(at, t);
    }
    out
}

/// After an `Unsat` with a core: a random superset, queried through the
/// same cache, must be answered `Unsat` by a core hit (by an exact hit if
/// it adds nothing new) and must not be satisfiable; a random variant that
/// drops asserts must not be satisfiable whenever a core hit answers it.
fn core_subsumption(
    d: &mut Decisions,
    f: &mut GenFormula,
    session: &mut SmtSession,
) -> OracleOutcome {
    if session.last_unsat_core().is_none() {
        return OracleOutcome::skip("unsat-no-core");
    }
    let mut violations = Vec::new();
    let asserts = f.asserts.clone();
    let extra = 1 + d.choose(3);
    let superset = with_conjuncts(d, f, &asserts, extra);
    let adds_nothing = superset.iter().all(|t| asserts.contains(t));
    let before = session.stats();
    let v = session.verdict_under(&mut f.arena, &superset);
    let after = session.stats();
    let core_hit = after.core_hits > before.core_hits;
    if v != Verdict::Unsat || core_hit == adds_nothing || after.cache_hits == before.cache_hits {
        violations.push(format!(
            "superset of an unsat query answered {} with {} core hit(s)",
            verdict_name(v),
            after.core_hits - before.core_hits
        ));
    }
    let fresh = Verdict::of(&solve_fresh_asserts(f, &superset));
    if fresh == (Verdict::Sat { complete: true }) {
        violations.push("superset of an unsat query is satisfiable".to_owned());
    }

    let kept: Vec<TermId> = asserts
        .iter()
        .copied()
        .filter(|_| !d.chance(1, 3))
        .collect();
    let extra = d.choose(3);
    let variant = with_conjuncts(d, f, &kept, extra);
    let before = session.stats().core_hits;
    let v = session.verdict_under(&mut f.arena, &variant);
    let variant_hit = session.stats().core_hits > before;
    if variant_hit {
        let fresh = Verdict::of(&solve_fresh_asserts(f, &variant));
        if !v.agrees_with(fresh) {
            violations.push(format!(
                "core hit answered {} but a fresh solve says {}",
                verdict_name(v),
                verdict_name(fresh)
            ));
        }
    }
    let detail = if variant_hit {
        "core-hit-twice"
    } else {
        "core-hit"
    };
    if violations.is_empty() {
        OracleOutcome::pass(detail)
    } else {
        OracleOutcome::fail(violations, detail)
    }
}

/// After a `Sat`: the formula is extended or perturbed, gets defining
/// equations for fresh variables (which may chain or form cycles), and is
/// split the way `solve` replays (all but the last conjunct as hypotheses,
/// the last one's negation as the goal). Whenever the witness the model
/// induces refutes that split — i.e. satisfies every conjunct — the
/// witness, exported as a model, must pass the independent
/// [`check_model`], and a fresh solve must not be `Unsat`.
fn witness_replay(d: &mut Decisions, f: &mut GenFormula, model: &Model) -> OracleOutcome {
    let mut asserts = f.asserts.clone();
    let n = 1 + d.choose(3) as usize;
    asserts.extend(gen_definitions(d, f, FormulaConfig::default(), n));
    let mut conjuncts = if d.chance(1, 2) {
        let at = d.choose(f.asserts.len() as u64) as usize;
        asserts.remove(at);
        with_conjuncts(d, f, &asserts, 1)
    } else {
        let extra = 1 + d.choose(2);
        with_conjuncts(d, f, &asserts, extra)
    };
    // the goal is a random conjunct (a definition left out of the
    // hypotheses defines nothing)
    let last = conjuncts.len() - 1;
    let at = d.choose(conjuncts.len() as u64) as usize;
    conjuncts.swap(at, last);
    let (&last, hyps) = conjuncts.split_last().expect("at least one conjunct");
    let goal = f.arena.mk_not(last);
    let defs = Definitions::of(&f.arena, hyps);
    let mut witness = Witness::new(&f.arena, model, &defs);
    if !witness.refutes(hyps, goal) {
        return OracleOutcome::pass("not-replayed");
    }
    let exported = witness.into_model();
    let res = check_model(&f.arena, &conjuncts, &exported);
    let mut violations: Vec<String> = res
        .falsified
        .iter()
        .map(|i| format!("replayed witness falsifies conjunct #{i}"))
        .collect();
    violations.extend(res.euf_conflicts);
    if solve_fresh_asserts(f, &conjuncts).is_unsat() {
        violations.push("replayed witness satisfies a formula the solver calls unsat".to_owned());
    }
    if violations.is_empty() {
        OracleOutcome::pass("replayed")
    } else {
        OracleOutcome::fail(violations, "replayed")
    }
}

// ---------------------------------------------------------------------------
// 9. ground
// ---------------------------------------------------------------------------

/// Rounds of instantiation the `ground` oracle runs (the solver's default).
const GROUND_ROUNDS: usize = 3;

/// Bindings one axiom may have in one reference round before the run is
/// declared too large to enumerate.
const GROUND_BINDING_LIMIT: usize = 4096;

fn ground_exactness(d: &mut Decisions) -> OracleOutcome {
    let mut g = gen_axioms(d);
    let compiled = CompiledAxioms::compile(&g.arena, &g.axioms);
    // the reference works in the same arena, so hash-consing makes an
    // instance it builds the very term instantiation builds
    let Some((expected, rounds)) = reference_instances(&mut g, &compiled) else {
        return OracleOutcome::skip("too-many-bindings");
    };
    // the reference has at most this many instances: the cap binds only
    // when instantiation returns too many
    let config = InstConfig {
        max_rounds: GROUND_ROUNDS,
        max_instances: GROUND_ROUNDS * g.axioms.len() * GROUND_BINDING_LIMIT,
    };
    let run = catch_unwind(AssertUnwindSafe(|| {
        instantiate(
            &mut g.arena,
            &compiled,
            &g.roots,
            config,
            &Budget::unlimited(),
        )
    }));
    let out = match run {
        Ok(out) => out,
        Err(panic) => {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|m| m.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            return OracleOutcome::fail(vec![format!("instantiate panicked: {msg}")], "panic");
        }
    };
    let mut violations = Vec::new();
    let mut terms = HashSet::new();
    for &t in g.roots.iter().chain(&g.axioms).chain(&out.instances) {
        collect_subterms(&g.arena, t, &mut terms);
    }
    let mut terms: Vec<TermId> = terms.into_iter().collect();
    terms.sort_unstable();
    for t in terms {
        let walked = walk_ground(&g.arena, t);
        if g.arena.is_ground(t) != walked {
            violations.push(format!(
                "groundness bit of {} is {}, a walk of its subterms says {walked}",
                g.arena.display(t),
                !walked
            ));
        }
    }
    let mut got = out.instances.clone();
    got.sort_unstable();
    if got != expected || out.truncated || out.stopped.is_some() {
        let show = |t: Option<&TermId>| t.map(|&t| g.arena.display(t).to_string());
        let missing = expected.iter().find(|e| !got.contains(e));
        let extra = got.iter().find(|e| !expected.contains(e));
        violations.push(format!(
            "instantiate returned {} instances, the reference {} (truncated={}, stopped={:?}); \
             first missing {:?}, first extra {:?}",
            got.len(),
            expected.len(),
            out.truncated,
            out.stopped,
            show(missing),
            show(extra)
        ));
    }
    let detail = format!("rounds-{rounds}");
    if violations.is_empty() {
        OracleOutcome::pass(detail)
    } else {
        OracleOutcome::fail(violations, detail)
    }
}

/// Whether no bound variable occurs in `t`, by walking its subterms.
fn walk_ground(arena: &TermArena, t: TermId) -> bool {
    let mut subs = HashSet::new();
    collect_subterms(arena, t, &mut subs);
    !subs
        .iter()
        .any(|&s| matches!(arena.term(s), Term::Var { version, .. } if *version == BOUND_VERSION))
}

/// The instances of `g`'s axioms, sorted, with the number of
/// rounds that produced any: round by round, every binding of an axiom's
/// bound variables to ground universe terms of their sorts under which
/// every one of its triggers, instantiated, is a universe term, minus the
/// bindings of earlier rounds. `None` when a round has too many bindings
/// to enumerate.
fn reference_instances(
    g: &mut GenAxioms,
    compiled: &CompiledAxioms,
) -> Option<(Vec<TermId>, usize)> {
    let arena = &mut g.arena;
    let mut universe = HashSet::new();
    for &r in &g.roots {
        collect_subterms(arena, r, &mut universe);
    }
    let mut done = HashSet::new();
    let mut instances = Vec::new();
    let mut rounds = 0;
    for _ in 0..GROUND_ROUNDS {
        let mut ground: Vec<TermId> = universe
            .iter()
            .copied()
            .filter(|&t| walk_ground(arena, t))
            .collect();
        ground.sort_unstable();
        let mut new = Vec::new();
        for (i, &ax) in g.axioms.iter().enumerate() {
            let triggers = compiled.triggers(i);
            let Term::Forall(decls, body) = arena.term(ax).clone() else {
                continue;
            };
            if triggers.is_empty() {
                continue;
            }
            let vars: Vec<TermId> = decls
                .iter()
                .map(|&(sym, sort)| arena.mk_bound(sym, sort))
                .collect();
            let domains: Vec<Vec<TermId>> = vars
                .iter()
                .map(|&v| {
                    let sort = arena.sort(v);
                    ground
                        .iter()
                        .copied()
                        .filter(|&t| arena.sort(t) == sort)
                        .collect()
                })
                .collect();
            let combos: usize = domains.iter().map(Vec::len).product();
            if combos > GROUND_BINDING_LIMIT {
                return None;
            }
            for k in 0..combos {
                let mut map = HashMap::new();
                let mut rest = k;
                for (&v, dom) in vars.iter().zip(&domains) {
                    map.insert(v, dom[rest % dom.len()]);
                    rest /= dom.len();
                }
                if !triggers
                    .iter()
                    .all(|&p| universe.contains(&arena.substitute(p, &map)))
                {
                    continue;
                }
                let key: Vec<TermId> = vars.iter().map(|v| map[v]).collect();
                if done.insert((ax, key)) {
                    new.push(arena.substitute(body, &map));
                }
            }
        }
        if new.is_empty() {
            break;
        }
        rounds += 1;
        for &t in &new {
            collect_subterms(arena, t, &mut universe);
        }
        instances.extend(new);
    }
    instances.sort_unstable();
    Some((instances, rounds))
}

/// A fresh one-shot solve of `asserts` in `f`'s arena.
fn solve_fresh_asserts(f: &mut GenFormula, asserts: &[TermId]) -> SmtResult {
    let mut smt = Smt::new(fuzz_smt_config());
    for &a in asserts {
        smt.assert_term(&mut f.arena, a);
    }
    smt.check(&mut f.arena)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_names_roundtrip() {
        for o in ALL_ORACLES {
            assert_eq!(OracleKind::from_name(o.name()), Some(o));
        }
        assert_eq!(OracleKind::from_name("nope"), None);
    }

    #[test]
    fn every_oracle_passes_on_a_spread_of_seeds() {
        for (i, oracle) in ALL_ORACLES.into_iter().enumerate() {
            for seed in 0..25u64 {
                let mut d = Decisions::record(seed * 31 + i as u64);
                let out = run_oracle(oracle, &mut d);
                assert!(
                    out.violations.is_empty(),
                    "{} seed {seed}: {:?}",
                    oracle.name(),
                    out.violations
                );
            }
        }
    }

    #[test]
    fn oracle_outcomes_replay_identically_from_the_tape() {
        for (i, oracle) in ALL_ORACLES.into_iter().enumerate() {
            let mut rec = Decisions::record(1000 + i as u64);
            let first = run_oracle(oracle, &mut rec);
            let tape = rec.tape();
            let mut rep = Decisions::replay(&tape);
            let second = run_oracle(oracle, &mut rep);
            assert_eq!(first.violations, second.violations, "{}", oracle.name());
            assert_eq!(first.skipped, second.skipped, "{}", oracle.name());
            assert_eq!(first.detail, second.detail, "{}", oracle.name());
        }
    }
}
