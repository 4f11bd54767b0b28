//! Algorithm 1: the PINS main loop.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pins_budget::Budget;
use pins_ir::{Expr, Pred, Program, Stmt, Value};
use pins_logic::{FxHashSet, TermId};
use pins_prng::SplitMix64;
use pins_smt::{QueryCache, SessionStats, SmtConfig, SmtResult, SmtSession};
use pins_symexec::{ExploreConfig, Explorer, MapFiller, PathResult, SymCtx};
use pins_trace::{MetricsRegistry, Phase, ProvenanceCtx};

use crate::constraints::{
    init_constraints, safepath_constraint, terminate_constraints, Constraint, HoleSet, Slicer,
};
use crate::domains::{build_domains, DomainConfig, HoleDomains};
use crate::memo::HoleMemo;
use crate::session::Session;
use crate::solve::{HoleSolver, Solution, SolveStats};

/// PINS configuration.
#[derive(Debug, Clone)]
pub struct PinsConfig {
    /// Number of solutions requested from the solver per iteration
    /// (the paper uses `m = 10`).
    pub m: usize,
    /// Iteration safety bound.
    pub max_iterations: usize,
    /// Maximum atoms per predicate-hole conjunction.
    pub pred_subset_max: usize,
    /// Ablation: replace the `infeasible`-count `pickOne` heuristic by
    /// uniformly random selection (§2.3 reports this is ~20% slower).
    pub pick_random: bool,
    /// RNG seed for tie-breaking.
    pub seed: u64,
    /// Symbolic-execution options.
    pub explore: ExploreConfig,
    /// SMT options for constraint verification.
    pub smt: SmtConfig,
    /// Has no effect: constraint verification is serial. Kept only so that
    /// existing callers still compile; the benchmark change that drops
    /// perfbench's `parallel` workload deletes it.
    #[deprecated(note = "constraint verification is serial; this field is ignored")]
    pub verify_workers: usize,
    /// Optional wall-clock budget, layered over the caller's [`Budget`].
    pub time_budget: Option<Duration>,
}

impl Default for PinsConfig {
    #[allow(deprecated)]
    fn default() -> Self {
        PinsConfig {
            m: 10,
            max_iterations: 64,
            pred_subset_max: 1,
            pick_random: false,
            seed: 0x9142,
            explore: ExploreConfig::default(),
            smt: SmtConfig::default(),
            verify_workers: 1,
            time_budget: None,
        }
    }
}

pins_trace::counter_table! {
    /// The engine's own phase timers and pickOne's memo hits; `solve` times
    /// the other two phases ([`SolveStats`]).
    pub(crate) struct PhaseTimes / pub(crate) PhaseMetrics {
        /// Symbolic execution (includes its SMT feasibility queries).
        symexec: Duration = "phase.symexec",
        /// The `pickOne` heuristic.
        pickone: Duration = "phase.pickone",
        /// Total wall-clock time of the run.
        total: Duration = "phase.total",
        /// Path checks of `pickOne` the hole memo answered without a query.
        pickone_memo_hits: u64 = "pickone.memo_hits",
    }
}

/// Per-phase timing breakdown, mirroring the paper's Table 4 columns: a
/// view composed from the engine's, the solver's and both sessions' key
/// tables.
#[derive(Debug, Clone, Default)]
pub struct PinsStats {
    /// Symbolic execution (includes its SMT feasibility queries).
    pub symexec_time: Duration,
    /// SMT reduction: constraint verification inside `solve`.
    pub smt_reduction_time: Duration,
    /// SAT solving inside `solve`.
    pub sat_time: Duration,
    /// The `pickOne` heuristic.
    pub pickone_time: Duration,
    /// Total wall-clock time of the run.
    pub total_time: Duration,
    /// Final SAT formula size (the paper's `|SAT|`).
    pub sat_size: usize,
    /// SMT validity queries issued by `solve`.
    pub smt_queries: u64,
    /// SMT feasibility queries issued by symbolic execution: the queries of
    /// the `feas` sessions.
    pub feasibility_queries: u64,
    /// Normalized-query cache hits on the engine's session (validity,
    /// pickOne, and test-generation traffic combined).
    pub smt_cache_hits: u64,
    /// Normalized-query cache misses on the engine's session.
    pub smt_cache_misses: u64,
    /// Cache hits on the engine's session answered by a subsuming unsat
    /// core rather than an exact key (a subset of `smt_cache_hits`).
    pub smt_core_hits: u64,
    /// Constraint checks in `solve` refuted by a replayed countermodel,
    /// without a query.
    pub replay_hits: u64,
    /// Constraint checks in `solve` the hole memo answered valid, without
    /// a query.
    pub solve_memo_hits: u64,
    /// Path checks in `pickOne` the hole memo answered, without a query.
    pub pickone_memo_hits: u64,
    /// `solve` calls that reused solver state from an earlier iteration.
    pub sessions_reused: u64,
    /// Verification queries that panicked and were degraded to "constraint
    /// unverified" instead of aborting the run.
    pub worker_panics: u64,
    /// Candidate-enumeration SAT solves interrupted by the shared budget.
    pub sat_interrupts: u64,
    /// Budget-limited `Unknown` SMT answers retried at doubled budgets.
    pub smt_retries: u64,
    /// Cached `Unknown` entries upgraded to a definitive verdict by a retry.
    pub smt_cache_upgrades: u64,
    /// Final SMT `Unknown` answers that hit the wall-clock deadline.
    pub unknown_deadline: u64,
    /// Final SMT `Unknown` answers caused by an external cancellation.
    pub unknown_cancelled: u64,
    /// Final SMT `Unknown` answers that exhausted a step or round limit.
    pub unknown_step_limit: u64,
    /// Final SMT `Unknown` answers degraded from exact-rational overflow.
    pub unknown_overflow: u64,
}

impl PinsStats {
    /// Reads the Table-4 view from a [`MetricsRegistry`] the engine was run
    /// against (see [`Pins::run_with`]): the engine's `phase.*` timers,
    /// [`SolveStats`], and the [`SessionStats`] of the `smt` (engine) and
    /// `feas` (symbolic execution) sessions. Failed runs have it too.
    pub fn from_registry(registry: &MetricsRegistry) -> PinsStats {
        let phases = PhaseTimes::from_registry(registry);
        let solve = SolveStats::from_registry(registry);
        let smt = SessionStats::from_registry(registry, "smt");
        PinsStats {
            symexec_time: phases.symexec,
            smt_reduction_time: solve.smt_time,
            sat_time: solve.sat_time,
            pickone_time: phases.pickone,
            total_time: phases.total,
            sat_size: solve.sat_size,
            smt_queries: solve.smt_queries,
            feasibility_queries: SessionStats::from_registry(registry, "feas").queries,
            smt_cache_hits: smt.cache_hits,
            smt_cache_misses: smt.cache_misses,
            smt_core_hits: smt.core_hits,
            replay_hits: solve.replay_hits,
            solve_memo_hits: solve.memo_hits,
            pickone_memo_hits: phases.pickone_memo_hits,
            sessions_reused: solve.sessions_reused,
            worker_panics: solve.worker_panics,
            sat_interrupts: solve.sat_interrupts,
            smt_retries: smt.retries,
            smt_cache_upgrades: smt.cache_upgrades,
            unknown_deadline: smt.unknown_deadline,
            unknown_cancelled: smt.unknown_cancelled,
            unknown_step_limit: smt.unknown_step_limit,
            unknown_overflow: smt.unknown_overflow,
        }
    }
}

/// A concrete test input generated from an explored path (§2.5).
#[derive(Debug, Clone)]
pub struct ConcreteTest {
    /// Input variable name and value, for the original program `P`.
    pub inputs: Vec<(String, Value)>,
}

/// A verified solution rendered back to the IR.
#[derive(Debug, Clone)]
pub struct ResolvedSolution {
    /// Template-hole assignment.
    pub filler: MapFiller,
    /// The synthesized inverse program (template with holes substituted).
    pub inverse: Program,
}

/// The result of a successful PINS run.
///
/// Statistics are exposed through [`stats`](PinsOutcome::stats) (the typed
/// Table-4 view) and [`metrics`](PinsOutcome::metrics) (the raw
/// [`MetricsRegistry`] the run was instrumented against).
#[derive(Debug, Clone)]
pub struct PinsOutcome {
    /// The surviving solutions (1–4 on the paper's benchmarks).
    pub solutions: Vec<ResolvedSolution>,
    /// Full loop iterations executed.
    pub iterations: usize,
    /// Paths explored (the size of `F`).
    pub paths_explored: usize,
    /// Whether the run stabilized (vs. hitting a budget with candidates).
    pub converged: bool,
    /// The registry every subsystem counter of this run was routed through.
    metrics: MetricsRegistry,
    /// Concrete tests generated from the explored paths.
    pub tests: Vec<ConcreteTest>,
    /// log2 of the paper-comparable search space.
    pub search_space_log2: f64,
}

impl PinsOutcome {
    /// The typed per-phase statistics (the paper's Table 4 columns), read
    /// from [`metrics`](PinsOutcome::metrics). When several runs share one
    /// registry, these are their totals.
    pub fn stats(&self) -> PinsStats {
        PinsStats::from_registry(&self.metrics)
    }

    /// The metrics registry the run recorded into: every `smt.*`,
    /// `solve.*`, `explore.*`, and `phase.*` cell, including keys the typed
    /// view does not surface. Shares cells with the registry passed to
    /// [`Pins::run_with`], if any.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }
}

/// Failure modes of a PINS run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PinsError {
    /// The constraint system admits no template instantiation: the template
    /// or candidate sets must be refined (§3's feedback loop). Carries the
    /// number of paths that sufficed to rule everything out.
    NoSolution {
        /// Iterations executed.
        iterations: usize,
        /// Paths explored.
        paths_explored: usize,
    },
    /// The iteration budget was exhausted before stabilization.
    BudgetExhausted,
}

impl std::fmt::Display for PinsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PinsError::NoSolution {
                iterations,
                paths_explored,
            } => write!(
                f,
                "no template instantiation satisfies the constraints \
                 ({iterations} iterations, {paths_explored} paths)"
            ),
            PinsError::BudgetExhausted => write!(f, "budget exhausted before stabilization"),
        }
    }
}

impl std::error::Error for PinsError {}

/// The PINS engine.
#[derive(Debug, Clone)]
pub struct Pins {
    config: PinsConfig,
}

impl Pins {
    /// Creates an engine with the given configuration.
    pub fn new(config: PinsConfig) -> Self {
        Pins { config }
    }

    /// Runs Algorithm 1 on a session.
    ///
    /// # Errors
    ///
    /// [`PinsError::NoSolution`] when the constraint system eliminates every
    /// candidate; [`PinsError::BudgetExhausted`] when iteration or time
    /// budgets run out before any candidate survives.
    pub fn run(&self, session: &mut Session) -> Result<PinsOutcome, PinsError> {
        self.run_with_budget(session, Budget::unlimited())
    }

    /// Runs Algorithm 1 under an externally owned [`Budget`]: cancelling the
    /// budget (from any thread) makes the run return
    /// [`PinsError::BudgetExhausted`] at the next poll point instead of
    /// running to completion.
    pub fn run_with_budget(
        &self,
        session: &mut Session,
        budget: Budget,
    ) -> Result<PinsOutcome, PinsError> {
        self.run_with(session, budget, &MetricsRegistry::new())
    }

    /// Runs Algorithm 1 routing every subsystem counter and phase duration
    /// through a caller-owned [`MetricsRegistry`].
    ///
    /// [`PinsConfig::time_budget`] is layered over `budget` as a child, so
    /// SAT, simplex, instantiation and exploration all observe the one
    /// deadline. Each run owns its query cache: a run in a process that ran
    /// others before it repeats their counts exactly.
    ///
    /// The registry also covers *failed* runs: on `Err` it still holds
    /// everything recorded up to the stop, and [`PinsStats::from_registry`]
    /// reads the Table-4 view from it. Passing the same registry to several
    /// runs accumulates their counters.
    pub fn run_with(
        &self,
        session: &mut Session,
        budget: Budget,
        metrics: &MetricsRegistry,
    ) -> Result<PinsOutcome, PinsError> {
        let mut span = pins_trace::span("pins.run");
        let phases = PhaseMetrics::bind(metrics);
        let t0 = Instant::now();
        let budget = budget.child(self.config.time_budget, None);
        let result = self.run_inner(session, budget, metrics, &phases);
        phases.total.add_duration(t0.elapsed());
        if span.is_active() {
            span.record_str("program", &session.original.name);
            match &result {
                Ok(o) => {
                    span.record("solved", true);
                    span.record("converged", o.converged);
                    span.record_u64("iterations", o.iterations as u64);
                    span.record_u64("solutions", o.solutions.len() as u64);
                    span.record_u64("paths", o.paths_explored as u64);
                }
                Err(e) => {
                    span.record("solved", false);
                    span.record_str("error", &e.to_string());
                }
            }
        }
        result
    }

    fn run_inner(
        &self,
        session: &Session,
        budget: Budget,
        metrics: &MetricsRegistry,
        phases: &PhaseMetrics,
    ) -> Result<PinsOutcome, PinsError> {
        let mut rng = SplitMix64::new(self.config.seed);

        let mut ctx = SymCtx::new(&session.composed);
        let axioms = session.axiom_terms(&mut ctx.arena);
        // one provenance context for the whole run: the loop below mutates
        // it (iteration, phase, path) and every query span reads it
        let prov = ProvenanceCtx::new(&session.original.name);
        // one query cache for the whole run, shared by its two persistent
        // sessions: `smt` (validity, pickOne, test generation) and `feas`
        // (symbolic execution); both carry the library axioms
        let cache = Arc::new(QueryCache::new());
        let open_session = |prefix: &str| {
            let mut s = SmtSession::with_cache(self.config.smt, Arc::clone(&cache));
            s.set_budget(budget.clone());
            s.bind_metrics(metrics, prefix);
            s.set_provenance(prov.clone());
            for &ax in &axioms {
                s.assert_axiom(ax);
            }
            s
        };
        let mut smt = open_session("smt");
        let mut explorer = Explorer::new(
            &session.composed,
            self.config.explore.clone(),
            Some(open_session("feas")),
        );
        explorer.set_budget(budget.clone());
        let domains = build_domains(
            session,
            DomainConfig {
                pred_subset_max: self.config.pred_subset_max,
                include_true_invariant: true,
            },
        );
        // every constraint reaches the solver as the parts the slicer cuts
        let mut slicer = Slicer::new(&domains);
        slicer.bind_metrics(metrics);
        let mut constraints: Vec<Constraint> = Vec::new();
        let termination = terminate_constraints(session, &domains, &mut ctx);
        slicer.add(&mut ctx, termination, &mut constraints);
        let mut solver = HoleSolver::new(&domains);
        solver.bind_metrics(metrics);

        let mut explored: FxHashSet<TermId> = FxHashSet::default();
        let mut paths: Vec<PathResult> = Vec::new();
        // per explored path, in order: whether it is infeasible under
        // restricted assignments
        let mut path_memo = HoleMemo::new();

        let mut last_size = usize::MAX;
        let mut iterations = 0;
        loop {
            if iterations >= self.config.max_iterations {
                return Err(PinsError::BudgetExhausted);
            }
            if budget.check().is_err() {
                return Err(PinsError::BudgetExhausted);
            }
            let mut iter_span = pins_trace::span("pins.iteration");
            if iter_span.is_active() {
                iter_span.record_u64("iteration", iterations as u64);
                iter_span.record_u64("constraints", constraints.len() as u64);
                iter_span.record_u64("paths", paths.len() as u64);
            }
            prov.set_iteration(iterations as u64);
            let sols = {
                let _phase = prov.enter_phase(Phase::Solve);
                solver.solve(
                    &mut ctx,
                    session,
                    &domains,
                    &constraints,
                    self.config.m,
                    &mut smt,
                )
            };
            if sols.is_empty() {
                // an empty solution set means "every candidate refuted" only
                // when the search actually ran to completion; a budget trip
                // mid-enumeration is exhaustion, not a refutation
                if solver.last_stop().is_some() || budget.check().is_err() {
                    return Err(PinsError::BudgetExhausted);
                }
                return Err(PinsError::NoSolution {
                    iterations,
                    paths_explored: explored.len(),
                });
            }
            if iter_span.is_active() {
                iter_span.record_u64("solutions", sols.len() as u64);
            }
            if sols.len() == last_size && sols.len() < self.config.m {
                return Ok(self.finalize(
                    session,
                    &mut ctx,
                    &domains,
                    &mut smt,
                    &mut solver,
                    metrics,
                    sols,
                    iterations,
                    &paths,
                    true,
                ));
            }
            last_size = sols.len();

            // pickOne (§2.3): prefer solutions contradicting many explored paths
            let t0 = Instant::now();
            let pick_phase = prov.enter_phase(Phase::PickOne);
            let pick = if self.config.pick_random {
                rng.gen_index(sols.len())
            } else {
                self.pick_one(
                    session,
                    &mut ctx,
                    &domains,
                    &mut smt,
                    &mut solver,
                    &sols,
                    &paths,
                    &mut path_memo,
                    phases,
                    &mut rng,
                )
            };
            drop(pick_phase);
            phases.pickone.add_duration(t0.elapsed());
            let filler = sols[pick].to_filler(&domains);

            // symbolic execution guided by the chosen solution; if a bad
            // candidate makes the search wander past its step budget, fall
            // back to the other solutions before concluding anything
            let t0 = Instant::now();
            let symexec_phase = prov.enter_phase(Phase::Symexec);
            prov.set_path(paths.len() as u64 + 1); // the path about to be found
            let mut path = None;
            let mut any_budget_hit = false;
            let mut order: Vec<usize> = (0..sols.len()).collect();
            order.swap(0, pick);
            for idx in order {
                let f = if idx == pick {
                    filler.clone()
                } else {
                    sols[idx].to_filler(&domains)
                };
                path = explorer.explore_one(&mut ctx, &f, &explored);
                any_budget_hit |= explorer.budget_hit;
                if path.is_some() {
                    break;
                }
            }
            drop(symexec_phase);
            prov.set_path(0);
            phases.symexec.add_duration(t0.elapsed());

            let Some(path) = path else {
                // every feasible path within bounds is covered (or the step
                // budget cut the search off for every candidate, in which
                // case the solution set is only path-complete up to bounds)
                return Ok(self.finalize(
                    session,
                    &mut ctx,
                    &domains,
                    &mut smt,
                    &mut solver,
                    metrics,
                    sols,
                    iterations,
                    &paths,
                    !any_budget_hit,
                ));
            };
            explored.insert(path.key);
            let slots = path
                .conjuncts
                .iter()
                .map(|&c| HoleSet::of_term(&mut ctx, c));
            path_memo.add(slots.collect());

            // extend the constraint system
            let safe = safepath_constraint(session, &session.spec, &mut ctx, &path);
            slicer.add(&mut ctx, [safe], &mut constraints);
            let init = init_constraints(session, &domains, &mut ctx, &path);
            slicer.add(&mut ctx, init, &mut constraints);
            paths.push(path);
            iterations += 1;
        }
    }

    /// The `infeasible(S)` heuristic: count explored paths whose condition
    /// becomes unsatisfiable under `S`; pick the solution maximizing it,
    /// breaking ties randomly. `memo` answers a path from an earlier
    /// candidate's verdict on it: exactly when the candidates agree on the
    /// path's holes, or, for an infeasible path, on the holes of its
    /// conjuncts in the unsat core.
    #[allow(clippy::too_many_arguments)]
    fn pick_one(
        &self,
        session: &Session,
        ctx: &mut SymCtx,
        domains: &HoleDomains,
        smt: &mut SmtSession,
        solver: &mut HoleSolver,
        sols: &[Solution],
        paths: &[PathResult],
        memo: &mut HoleMemo,
        phases: &PhaseMetrics,
        rng: &mut SplitMix64,
    ) -> usize {
        let prov = smt.provenance().clone();
        let mut best: Vec<usize> = Vec::new();
        let mut best_count = -1i64;
        for (i, s) in sols.iter().enumerate() {
            let mut count = 0i64;
            for (p, path) in paths.iter().enumerate() {
                prov.set_path(p as u64 + 1);
                let infeasible = if let Some(v) = memo.lookup(p, s) {
                    phases.pickone_memo_hits.inc();
                    v
                } else {
                    let subst: Vec<TermId> = path
                        .conjuncts
                        .iter()
                        .map(|&c| solver.fill(ctx, &session.composed, domains, s, c))
                        .collect();
                    let v = smt.verdict_under(&mut ctx.arena, &subst).is_unsat();
                    if v {
                        memo.learn_unsat(p, s, smt.last_unsat_core());
                    } else {
                        memo.learn_other(p, s);
                    }
                    v
                };
                if infeasible {
                    count += 1;
                }
            }
            match count.cmp(&best_count) {
                std::cmp::Ordering::Greater => {
                    best_count = count;
                    best = vec![i];
                }
                std::cmp::Ordering::Equal => best.push(i),
                std::cmp::Ordering::Less => {}
            }
        }
        prov.set_path(0);
        best[rng.gen_index(best.len())]
    }

    #[allow(clippy::too_many_arguments)]
    fn finalize(
        &self,
        session: &Session,
        ctx: &mut SymCtx,
        domains: &HoleDomains,
        smt: &mut SmtSession,
        solver: &mut HoleSolver,
        metrics: &MetricsRegistry,
        sols: Vec<Solution>,
        iterations: usize,
        paths: &[PathResult],
        converged: bool,
    ) -> PinsOutcome {
        let solutions: Vec<ResolvedSolution> = sols
            .iter()
            .map(|s| resolve_solution(session, domains, s))
            .collect();
        let tests = if let Some(first) = sols.first() {
            let _phase = smt.provenance().clone().enter_phase(Phase::TestGen);
            generate_tests(session, ctx, domains, smt, solver, first, paths)
        } else {
            Vec::new()
        };
        PinsOutcome {
            solutions,
            iterations,
            paths_explored: paths.len(),
            converged,
            metrics: metrics.clone(),
            tests,
            search_space_log2: domains.paper_search_space_log2,
        }
    }
}

/// Renders a solution as an inverse program: the template part of the
/// composed program with holes substituted.
pub fn resolve_solution(
    session: &Session,
    domains: &HoleDomains,
    solution: &Solution,
) -> ResolvedSolution {
    let filler = solution.to_filler(domains);
    // restrict to template holes
    let mut template_filler = MapFiller::default();
    for (h, e) in &filler.exprs {
        if h.0 < session.composed.num_eholes {
            template_filler.exprs.insert(*h, e.clone());
        }
    }
    for (h, p) in &filler.preds {
        if h.0 < session.composed.num_pholes {
            template_filler.preds.insert(*h, p.clone());
        }
    }
    let body: Vec<Stmt> = session
        .template_body()
        .iter()
        .map(|s| subst_stmt(s, &template_filler))
        .collect();
    let mut inverse = session.composed.clone();
    inverse.name = format!("{}_inv", session.original.name);
    inverse.body = body;
    inverse.num_eholes = 0;
    inverse.num_pholes = 0;
    inverse.ehole_names.clear();
    inverse.phole_names.clear();
    // parameters: the template's parameters resolved in the composed table
    inverse.params = session
        .template
        .params
        .iter()
        .filter_map(|&(v, m)| {
            let name = &session.template.var(v).name;
            session.composed.var_by_name(name).map(|cv| (cv, m))
        })
        .collect();
    ResolvedSolution {
        filler: template_filler,
        inverse,
    }
}

fn subst_expr(e: &Expr, filler: &MapFiller) -> Expr {
    match e {
        Expr::Hole(h) => filler.exprs.get(h).cloned().unwrap_or(Expr::Hole(*h)),
        Expr::Int(_) | Expr::Var(_) => e.clone(),
        Expr::Add(a, b) => Expr::Add(
            Box::new(subst_expr(a, filler)),
            Box::new(subst_expr(b, filler)),
        ),
        Expr::Sub(a, b) => Expr::Sub(
            Box::new(subst_expr(a, filler)),
            Box::new(subst_expr(b, filler)),
        ),
        Expr::Mul(a, b) => Expr::Mul(
            Box::new(subst_expr(a, filler)),
            Box::new(subst_expr(b, filler)),
        ),
        Expr::Sel(a, b) => Expr::Sel(
            Box::new(subst_expr(a, filler)),
            Box::new(subst_expr(b, filler)),
        ),
        Expr::Upd(a, b, c) => Expr::Upd(
            Box::new(subst_expr(a, filler)),
            Box::new(subst_expr(b, filler)),
            Box::new(subst_expr(c, filler)),
        ),
        Expr::Call(f, args) => Expr::Call(
            f.clone(),
            args.iter().map(|a| subst_expr(a, filler)).collect(),
        ),
    }
}

fn subst_pred(p: &Pred, filler: &MapFiller) -> Pred {
    match p {
        Pred::Hole(h) => filler.preds.get(h).cloned().unwrap_or(Pred::Hole(*h)),
        Pred::Bool(_) | Pred::Star => p.clone(),
        Pred::Cmp(op, a, b) => Pred::Cmp(*op, subst_expr(a, filler), subst_expr(b, filler)),
        Pred::And(items) => Pred::And(items.iter().map(|q| subst_pred(q, filler)).collect()),
        Pred::Or(items) => Pred::Or(items.iter().map(|q| subst_pred(q, filler)).collect()),
        Pred::Not(q) => Pred::Not(Box::new(subst_pred(q, filler))),
        Pred::Call(f, args) => Pred::Call(
            f.clone(),
            args.iter().map(|a| subst_expr(a, filler)).collect(),
        ),
    }
}

fn subst_stmt(s: &Stmt, filler: &MapFiller) -> Stmt {
    match s {
        Stmt::Assign(pairs) => Stmt::Assign(
            pairs
                .iter()
                .map(|(v, e)| (*v, subst_expr(e, filler)))
                .collect(),
        ),
        Stmt::If(p, t, e) => Stmt::If(
            subst_pred(p, filler),
            t.iter().map(|x| subst_stmt(x, filler)).collect(),
            e.iter().map(|x| subst_stmt(x, filler)).collect(),
        ),
        Stmt::While(id, p, body) => Stmt::While(
            *id,
            subst_pred(p, filler),
            body.iter().map(|x| subst_stmt(x, filler)).collect(),
        ),
        Stmt::Assume(p) => Stmt::Assume(subst_pred(p, filler)),
        Stmt::Exit => Stmt::Exit,
        Stmt::Skip => Stmt::Skip,
    }
}

/// Generates concrete test inputs from the explored paths under the first
/// surviving solution (§2.5: "our implementation uses the SMT solver to
/// output a concrete input that will take that path").
fn generate_tests(
    session: &Session,
    ctx: &mut SymCtx,
    domains: &HoleDomains,
    smt: &mut SmtSession,
    solver: &mut HoleSolver,
    solution: &Solution,
    paths: &[PathResult],
) -> Vec<ConcreteTest> {
    let prov = smt.provenance().clone();
    let mut tests = Vec::new();
    for (i, path) in paths.iter().enumerate() {
        prov.set_path(i as u64 + 1);
        let subst: Vec<TermId> = path
            .conjuncts
            .iter()
            .map(|&c| solver.fill(ctx, &session.composed, domains, solution, c))
            .collect();
        let SmtResult::Sat(model) = smt.check_under(&mut ctx.arena, &subst) else {
            continue; // path infeasible under the final solution
        };
        let mut inputs = Vec::new();
        for v in session.original.inputs() {
            let name = session.original.var(v).name.clone();
            let cv = session
                .composed
                .var_by_name(&name)
                .expect("input survives composition");
            let term = ctx.var_term(cv, 0);
            let value = match session.composed.var(cv).ty {
                pins_ir::Type::Int => Value::Int(model.eval_int(&ctx.arena, term)),
                pins_ir::Type::IntArray => {
                    let entries = model.arrays.get(&term).cloned().unwrap_or_default();
                    Value::Arr(entries.into_iter().collect())
                }
                pins_ir::Type::Abstract(_) => Value::Seq(Vec::new()),
            };
            inputs.push((name, value));
        }
        tests.push(ConcreteTest { inputs });
    }
    prov.set_path(0);
    tests
}
