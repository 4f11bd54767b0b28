//! The `solve` procedure (§2.3): reduces the synthesis constraints to SAT
//! over indicator variables and enumerates up to `m` verified solutions.
//!
//! Each unknown gets an exactly-one block of indicator variables over its
//! finite domain. The loop is a lazy CEGIS over indicators: a SAT model
//! proposes a full assignment; every constraint is verified by an SMT
//! validity query under that assignment; a failed constraint contributes a
//! blocking clause over exactly the holes that occur in it — the
//! generalization that makes the search converge. The engine hands over
//! constraints as the parts of its [`Slicer`](crate::Slicer), so those are
//! the holes the failing part can observe, not every hole on its path.
//!
//! Verification goes through a persistent [`SmtSession`] owned by the
//! engine: the session carries the library axioms and the normalized-query
//! cache, so repeated validity checks across PINS iterations short-circuit.
//! Constraints are verified in index order and the first one that fails
//! yields the blocking clause, as in the paper's serial loop.
//!
//! **The hole memo.** A part proven valid leaves the unsat core of its
//! query behind, and the candidate's choices on the holes of the core's
//! hypotheses (and goal) become a [`HoleMemo`] entry: every later candidate
//! that agrees on those holes substitutes them into the same terms, so its
//! query contains the same core, and the part is valid without a query
//! being built. A part that fails is blocked in the SAT formula and never
//! proposed again, so the memo keeps no failures.
//!
//! **One translation per hole occurrence and candidate.** Candidates are
//! substituted straight from the domain table: each term's hole
//! occurrences are found once per run ([`SymCtx::fill_holes`]), and each
//! (occurrence, candidate) pair is translated into a term once per run.
//!
//! **Counterexample replay.** When the session has no axioms and no
//! assertions of its own, every SMT refutation of a part's `hyps ∧ ¬goal`
//! leaves its model behind, and a later candidate is first checked against
//! the part's stored models, most recently successful first. A model whose
//! [`Witness`] satisfies the new candidate's hypotheses and falsifies its
//! goal is a concrete counterexample: the solver could not have answered
//! `Unsat`, and anything else refutes the candidate, so it is blocked
//! exactly as the query would have blocked it — without the query. The
//! witness is checked against the part alone, so a session whose queries
//! also carry library axioms (quantified: a concrete witness cannot check
//! them) or persistent assertions (which a witness that recomputes defined
//! variables may break) never replays.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use pins_budget::StopReason;

use pins_ir::{EHoleId, PHoleId, Program};
use pins_logic::TermId;
use pins_sat::{Lit, SolveResult, Solver as SatSolver, Var};
use pins_smt::{Definitions, Model, SmtResult, SmtSession, Witness};
use pins_symexec::{HoleKind, MapFiller, SymCtx};
use pins_trace::MetricsRegistry;

use crate::constraints::{Constraint, HoleSet};
use crate::domains::HoleDomains;
use crate::memo::HoleMemo;
use crate::session::Session;

/// A full assignment: per hole, the index of the chosen candidate in its
/// domain (`usize::MAX` marks an empty-domain hole, treated as unfilled).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Solution {
    /// Per expression hole.
    pub exprs: Vec<usize>,
    /// Per predicate hole.
    pub preds: Vec<usize>,
}

impl Solution {
    /// Converts to a hole filler using the domain table.
    pub fn to_filler(&self, domains: &HoleDomains) -> MapFiller {
        let mut filler = MapFiller::default();
        for (h, &choice) in self.exprs.iter().enumerate() {
            if choice != usize::MAX {
                filler
                    .exprs
                    .insert(EHoleId(h as u32), domains.exprs[h][choice].clone());
            }
        }
        for (h, &choice) in self.preds.iter().enumerate() {
            if choice != usize::MAX {
                filler
                    .preds
                    .insert(PHoleId(h as u32), domains.preds[h][choice].clone());
            }
        }
        filler
    }
}

pins_trace::counter_table! {
    /// Timing and counting statistics from `solve`: the view of the
    /// `phase.sat`, `phase.smt_reduction` and `solve.*` cells.
    pub struct SolveStats / pub(crate) SolveMetrics {
        /// Time in SAT solving.
        sat_time: Duration = "phase.sat",
        /// Time in SMT validity checking (the paper's "SMT reduction").
        smt_time: Duration = "phase.smt_reduction",
        /// Number of SMT validity queries issued (excluding hole-memo hits
        /// and replayed refutations).
        smt_queries: u64 = "solve.smt_queries",
        /// Constraint checks the hole memo answered valid without building
        /// a query.
        memo_hits: u64 = "solve.memo_hits",
        /// Number of candidate assignments proposed by SAT.
        candidates_proposed: u64 = "solve.candidates",
        /// Final SAT formula size (vars + literal occurrences).
        sat_size: usize = "solve.sat_size",
        /// Normalized-query cache hits attributable to `solve`.
        cache_hits: u64 = "solve.cache_hits",
        /// Normalized-query cache misses attributable to `solve`.
        cache_misses: u64 = "solve.cache_misses",
        /// Number of `solve` calls that reused solver/session state built by an
        /// earlier call of the same solver (incremental reuse across PINS
        /// iterations).
        sessions_reused: u64 = "solve.sessions_reused",
        /// Verification queries that panicked and were degraded to "constraint
        /// unverified" instead of aborting the search.
        worker_panics: u64 = "solve.worker_panics",
        /// Candidate-enumeration SAT solves interrupted by the shared budget.
        sat_interrupts: u64 = "solve.sat_interrupts",
        /// Constraint checks a stored countermodel refuted without a query.
        replay_hits: u64 = "solve.replay_hits",
        /// Time spent replaying stored countermodels, hits and misses alike
        /// (part of `phase.smt_reduction`).
        replay_time: Duration = "solve.replay_time",
    }
    fixed {
        /// Always 1: constraint verification is serial. Kept only so that
        /// existing readers still compile; the benchmark change that drops
        /// perfbench's `parallel` workload deletes it.
        #[deprecated(note = "constraint verification is serial; this always reads 1")]
        workers: usize = 1,
    }
}

/// How one constraint part fared under a candidate.
enum Check {
    /// A stored countermodel refuted it; no query was issued.
    Replayed,
    /// The session answered: whether the part is valid.
    Queried(bool),
}

/// Verifies one constraint part under a candidate, given its substituted
/// hypotheses and goal: replays `countermodels` (when the session replays)
/// on them, and asks the session for validity only when no stored model
/// refutes it. A model refuting the query joins `countermodels` at the
/// front. Replay time accrues to `replay_time`.
fn verify_one(
    ctx: &mut SymCtx,
    smt: &mut SmtSession,
    mut hyps: Vec<TermId>,
    goal: TermId,
    countermodels: Option<&mut Vec<Model>>,
    replay_time: &mut Duration,
) -> Check {
    let Some(models) = countermodels else {
        return Check::Queried(smt.entails(&mut ctx.arena, &hyps, goal));
    };
    let t0 = Instant::now();
    let defs = Definitions::of(&ctx.arena, &hyps);
    let hit = models
        .iter()
        .position(|m| Witness::new(&ctx.arena, m, &defs).refutes(&hyps, goal));
    *replay_time += t0.elapsed();
    if let Some(i) = hit {
        models[..=i].rotate_right(1);
        return Check::Replayed;
    }
    // the same query `entails` asks, but with a model kept on `Sat` (a
    // cached `Sat` is solved again, so what is stored never depends on
    // whether the verdict was cached)
    hyps.push(ctx.arena.mk_not(goal));
    match smt.check_under(&mut ctx.arena, &hyps) {
        SmtResult::Unsat => Check::Queried(true),
        SmtResult::Sat(model) => {
            models.insert(0, model);
            Check::Queried(false)
        }
        SmtResult::Unknown(_) => Check::Queried(false),
    }
}

/// Every hole occurrence's candidates as terms, each translated once per
/// run: per occurrence id, per choice in the hole's domain.
#[derive(Debug, Default)]
struct Translations {
    terms: Vec<Vec<Option<TermId>>>,
}

impl Translations {
    /// `t` with each hole occurrence replaced by `s`'s candidate for its
    /// hole, translated under the occurrence's version map; unfilled holes
    /// stay symbolic.
    fn fill(
        &mut self,
        ctx: &mut SymCtx,
        program: &Program,
        domains: &HoleDomains,
        s: &Solution,
        t: TermId,
    ) -> TermId {
        ctx.fill_holes(t, |ctx, occ| {
            let (choice, options) = match ctx.occurrence(occ).kind {
                HoleKind::Expr(h) => (s.exprs[h.0 as usize], domains.exprs[h.0 as usize].len()),
                HoleKind::Pred(h) => (s.preds[h.0 as usize], domains.preds[h.0 as usize].len()),
            };
            if choice == usize::MAX {
                return None;
            }
            let i = occ as usize;
            if self.terms.len() <= i {
                self.terms.resize(i + 1, Vec::new());
            }
            if self.terms[i].is_empty() {
                self.terms[i] = vec![None; options];
            }
            if let Some(term) = self.terms[i][choice] {
                return Some(term);
            }
            let occurrence = ctx.occurrence(occ).clone();
            let term = match occurrence.kind {
                HoleKind::Expr(h) => ctx.expr_term(
                    program,
                    &domains.exprs[h.0 as usize][choice],
                    &occurrence.vmap,
                    occurrence.sort,
                ),
                HoleKind::Pred(h) => ctx.pred_term(
                    program,
                    &domains.preds[h.0 as usize][choice],
                    &occurrence.vmap,
                ),
            };
            self.terms[i][choice] = Some(term);
            Some(term)
        })
    }
}

/// The incremental hole solver, persistent across PINS iterations
/// (blocking clauses learned from old constraints remain valid as the
/// constraint set grows).
pub struct HoleSolver {
    sat: SatSolver,
    evars: Vec<Vec<Var>>,
    pvars: Vec<Vec<Var>>,
    /// Per constraint part, in order: the restricted assignments known to
    /// make it valid.
    memo: HoleMemo,
    translations: Translations,
    /// Per constraint: the models of its SMT refutations, most recently
    /// successful first (empty unless the session replays).
    countermodels: Vec<Vec<Model>>,
    /// Whether an earlier `solve` call proposed a candidate, i.e. built
    /// state the next call reuses.
    proposed_before: bool,
    /// The budget stop that ended the most recent `solve` call early, if any.
    last_stop: Option<StopReason>,
    /// Where the statistics are written; detached until
    /// [`bind_metrics`](HoleSolver::bind_metrics) is called.
    metrics: SolveMetrics,
}

impl HoleSolver {
    /// Builds the indicator encoding for the domain table.
    pub fn new(domains: &HoleDomains) -> Self {
        let mut sat = SatSolver::new();
        let mut evars = Vec::new();
        for dom in &domains.exprs {
            let vars: Vec<Var> = dom.iter().map(|_| sat.new_var()).collect();
            exactly_one(&mut sat, &vars);
            evars.push(vars);
        }
        let mut pvars = Vec::new();
        for dom in &domains.preds {
            let vars: Vec<Var> = dom.iter().map(|_| sat.new_var()).collect();
            exactly_one(&mut sat, &vars);
            pvars.push(vars);
        }
        HoleSolver {
            sat,
            evars,
            pvars,
            memo: HoleMemo::new(),
            translations: Translations::default(),
            countermodels: Vec::new(),
            proposed_before: false,
            last_stop: None,
            metrics: SolveMetrics::default(),
        }
    }

    /// Binds the solver's counters to shared cells in `registry` (keys
    /// `phase.sat`, `phase.smt_reduction`, `solve.*`). Subsequent `solve`
    /// calls bump those cells at event time.
    pub fn bind_metrics(&mut self, registry: &MetricsRegistry) {
        self.metrics = SolveMetrics::bind(registry);
    }

    /// The statistics this solver writes: its own while detached, the
    /// registry cells' totals once bound.
    pub fn stats(&self) -> SolveStats {
        self.metrics.view()
    }

    /// The budget stop that ended the most recent `solve` call early, if any.
    pub fn last_stop(&self) -> Option<StopReason> {
        self.last_stop
    }

    /// Registers the holes occurring in constraint `idx`, per hypothesis
    /// and goal (call once per new constraint, in order).
    pub fn register_constraint(&mut self, ctx: &mut SymCtx, idx: usize, c: &Constraint) {
        assert_eq!(idx, self.memo.len(), "constraints must register in order");
        let terms = c.hyps.iter().copied().chain(std::iter::once(c.goal));
        let slots = terms.map(|t| HoleSet::of_term(ctx, t)).collect();
        self.memo.add(slots);
        self.countermodels.push(Vec::new());
    }

    /// `t` with `s`'s candidates substituted for its holes, through this
    /// solver's per-run translations.
    pub(crate) fn fill(
        &mut self,
        ctx: &mut SymCtx,
        program: &Program,
        domains: &HoleDomains,
        s: &Solution,
        t: TermId,
    ) -> TermId {
        self.translations.fill(ctx, program, domains, s, t)
    }

    fn extract_solution(sat: &SatSolver, evars: &[Vec<Var>], pvars: &[Vec<Var>]) -> Solution {
        let pick = |vars: &Vec<Var>| -> usize {
            vars.iter()
                .position(|&v| sat.value(v) == Some(true))
                .unwrap_or(usize::MAX)
        };
        Solution {
            exprs: evars.iter().map(pick).collect(),
            preds: pvars.iter().map(pick).collect(),
        }
    }

    /// Verifies one constraint under a solution: from the hole memo, else
    /// by replay or query, learning from the unsat core of a valid answer.
    #[allow(clippy::too_many_arguments)]
    fn verify(
        &mut self,
        ctx: &mut SymCtx,
        session: &Session,
        constraints: &[Constraint],
        c: usize,
        solution: &Solution,
        domains: &HoleDomains,
        smt: &mut SmtSession,
    ) -> bool {
        if self.memo.lookup(c, solution) == Some(true) {
            self.metrics.memo_hits.inc();
            return true;
        }
        let t0 = Instant::now();
        let replays = smt.axioms().is_empty() && smt.assertions().is_empty();
        let countermodels = replays.then_some(&mut self.countermodels[c]);
        let translations = &mut self.translations;
        let mut replay_time = Duration::ZERO;
        // a query that panics (e.g. a poisoned constraint hitting an encoder
        // `panic!`) degrades to "unverified" instead of tearing down the solve
        let check = catch_unwind(AssertUnwindSafe(|| {
            let part = &constraints[c];
            let mut fill = |t| translations.fill(ctx, &session.composed, domains, solution, t);
            let hyps: Vec<TermId> = part.hyps.iter().map(|&h| fill(h)).collect();
            let goal = fill(part.goal);
            verify_one(ctx, smt, hyps, goal, countermodels, &mut replay_time)
        }));
        let valid = match check {
            Ok(Check::Replayed) => {
                self.metrics.replay_hits.inc();
                false
            }
            Ok(Check::Queried(v)) => {
                self.metrics.smt_queries.inc();
                v
            }
            Err(_) => {
                self.metrics.smt_queries.inc();
                self.metrics.worker_panics.inc();
                false
            }
        };
        if valid {
            self.memo.learn_unsat(c, solution, smt.last_unsat_core());
        }
        self.metrics.replay_time.add_duration(replay_time);
        self.metrics.smt_time.add_duration(t0.elapsed());
        valid
    }

    /// Adds a blocking clause rejecting the restricted assignment of
    /// constraint `c` under `s` (every extension of that assignment fails
    /// the constraint too), to this call's snapshot and to the main formula
    /// later calls start from.
    fn block(&mut self, c: usize, s: &Solution, snapshot: &mut SatSolver) {
        let holes = self.memo.holes(c);
        let mut clause = Vec::new();
        for &h in &holes.exprs {
            let choice = s.exprs[h as usize];
            if choice != usize::MAX {
                clause.push(Lit::neg(self.evars[h as usize][choice]));
            }
        }
        for &h in &holes.preds {
            let choice = s.preds[h as usize];
            if choice != usize::MAX {
                clause.push(Lit::neg(self.pvars[h as usize][choice]));
            }
        }
        // an empty clause (no holes occur in the constraint) correctly makes
        // the system unsatisfiable: the constraint fails unconditionally
        snapshot.add_clause(&clause);
        self.sat.add_clause(&clause);
    }

    /// Finds up to `m` solutions satisfying all constraints (Algorithm 1's
    /// `solve(C, Δp, Δe, m)`).
    ///
    /// `smt` is the engine's persistent session (it already carries the
    /// library axioms).
    pub fn solve(
        &mut self,
        ctx: &mut SymCtx,
        session: &Session,
        domains: &HoleDomains,
        constraints: &[Constraint],
        m: usize,
        smt: &mut SmtSession,
    ) -> Vec<Solution> {
        if self.proposed_before {
            self.metrics.sessions_reused.inc();
        }
        let before = smt.stats();
        // register any new constraints
        for (idx, constraint) in constraints.iter().enumerate().skip(self.memo.len()) {
            self.register_constraint(ctx, idx, constraint);
        }
        let mut found = Vec::new();
        self.last_stop = None;
        let mut snapshot = self.sat.clone();
        // candidate enumeration runs under the session's shared budget, so a
        // deadline or cancellation interrupts SAT search too, not just SMT
        snapshot.set_budget(smt.budget().clone());
        loop {
            let t0 = Instant::now();
            let res = snapshot.solve();
            self.metrics.sat_time.add_duration(t0.elapsed());
            self.metrics
                .sat_size
                .record_max(snapshot.formula_size() as u64);
            match res {
                SolveResult::Unsat => break,
                SolveResult::Interrupted(reason) => {
                    self.metrics.sat_interrupts.inc();
                    self.last_stop = Some(reason);
                    break;
                }
                SolveResult::Sat => {
                    let s = Self::extract_solution(&snapshot, &self.evars, &self.pvars);
                    self.proposed_before = true;
                    self.metrics.candidates_proposed.inc();
                    if let Some(c) = (0..constraints.len())
                        .find(|&c| !self.verify(ctx, session, constraints, c, &s, domains, smt))
                    {
                        self.block(c, &s, &mut snapshot);
                        continue;
                    }
                    // verified: block the exact full assignment in the
                    // snapshot only (the solution remains globally valid)
                    let mut clause = Vec::new();
                    for (h, &choice) in s.exprs.iter().enumerate() {
                        if choice != usize::MAX {
                            clause.push(Lit::neg(self.evars[h][choice]));
                        }
                    }
                    for (h, &choice) in s.preds.iter().enumerate() {
                        if choice != usize::MAX {
                            clause.push(Lit::neg(self.pvars[h][choice]));
                        }
                    }
                    found.push(s);
                    if found.len() >= m || clause.is_empty() {
                        break;
                    }
                    snapshot.add_clause(&clause);
                }
            }
        }
        let after = smt.stats();
        self.metrics
            .cache_hits
            .add(after.cache_hits - before.cache_hits);
        self.metrics
            .cache_misses
            .add(after.cache_misses - before.cache_misses);
        found
    }
}

fn exactly_one(sat: &mut SatSolver, vars: &[Var]) {
    if vars.is_empty() {
        return; // empty-domain hole: left unconstrained (unfilled)
    }
    let lits: Vec<Lit> = vars.iter().map(|&v| Lit::pos(v)).collect();
    sat.add_clause(&lits);
    for i in 0..vars.len() {
        for j in (i + 1)..vars.len() {
            sat.add_clause(&[Lit::neg(vars[i]), Lit::neg(vars[j])]);
        }
    }
}
