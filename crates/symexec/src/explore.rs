//! The symbolic executor of Figure 3: solution-guided backtracking path
//! search with SMT feasibility checks (Rule ASSUME) and explored-set
//! avoidance (Rule EXIT), plus bounded exhaustive enumeration used by the
//! termination-constraint generator, the bounded model checker, and the
//! path-count experiment.

use std::collections::{HashMap, HashSet};

use pins_budget::{Budget, StopReason};
use pins_ir::{EHoleId, Expr, LoopId, PHoleId, Pred, Program, Stmt, VarId};
use pins_logic::{collect_subterms, Sort, Term, TermId};
use pins_smt::{SmtConfig, SmtSession};
use pins_trace::MetricsRegistry;

use crate::ctx::{version_of, HoleKind, SymCtx, VersionMap};

/// Supplies candidate instantiations for holes during guided execution.
///
/// A *solution* from the PINS `solve` step implements this; the executor
/// substitutes the candidates when checking path feasibility, exactly as
/// `S(p)` in Rule ASSUME of the paper. A partial filler leaves unmatched
/// holes symbolic (they act as unconstrained constants).
pub trait HoleFiller {
    /// Candidate for an expression hole.
    fn expr(&self, h: EHoleId) -> Option<Expr>;
    /// Candidate for a predicate hole.
    fn pred(&self, h: PHoleId) -> Option<Pred>;
}

/// Leaves every hole symbolic.
#[derive(Debug, Clone, Copy, Default)]
pub struct EmptyFiller;

impl HoleFiller for EmptyFiller {
    fn expr(&self, _h: EHoleId) -> Option<Expr> {
        None
    }
    fn pred(&self, _h: PHoleId) -> Option<Pred> {
        None
    }
}

/// A map-backed filler (the concrete shape of a PINS solution).
#[derive(Debug, Clone, Default)]
pub struct MapFiller {
    /// Expression-hole assignments.
    pub exprs: HashMap<EHoleId, Expr>,
    /// Predicate-hole assignments.
    pub preds: HashMap<PHoleId, Pred>,
}

impl HoleFiller for MapFiller {
    fn expr(&self, h: EHoleId) -> Option<Expr> {
        self.exprs.get(&h).cloned()
    }
    fn pred(&self, h: PHoleId) -> Option<Pred> {
        self.preds.get(&h).cloned()
    }
}

/// Exploration parameters.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Maximum times each loop may be entered on a single path.
    pub max_unroll: u32,
    /// Overall statement budget per path search.
    pub max_steps: u64,
    /// Try the loop-exit branch before the enter branch (short paths first).
    pub exit_first: bool,
    /// Check feasibility with the SMT solver at each assumption.
    pub check_feasibility: bool,
    /// Axioms passed to feasibility checks.
    pub axioms: Vec<TermId>,
    /// SMT configuration for feasibility checks.
    pub smt: SmtConfig,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_unroll: 8,
            max_steps: 100_000,
            exit_first: true,
            check_feasibility: true,
            axioms: Vec::new(),
            smt: SmtConfig::default(),
        }
    }
}

/// The result of symbolically executing one path.
#[derive(Debug, Clone)]
pub struct PathResult {
    /// Path-condition conjuncts (may contain hole occurrences).
    pub conjuncts: Vec<TermId>,
    /// The same conjuncts with the guiding solution substituted.
    pub substituted: Vec<TermId>,
    /// Final version map `V'`.
    pub final_vmap: VersionMap,
    /// Per loop: (conjunct-prefix length, version map) at first entry to the
    /// loop *statement* on this path — the paper's `init` prefixes.
    pub loop_entries: Vec<(LoopId, usize, VersionMap)>,
    /// Canonical identity of the path (the interned conjunction).
    pub key: TermId,
}

impl PathResult {
    /// The final SSA version of `v` on this path (0 when the path never
    /// assigns it). `SymCtx::var_term(v, final_version(v))` is the term
    /// denoting `v`'s value at path exit — the handle differential
    /// harnesses use to compare symbolic exit states against concrete runs.
    pub fn final_version(&self, v: VarId) -> u32 {
        version_of(&self.final_vmap, v)
    }
}

#[derive(Clone)]
struct State<'p> {
    frames: Vec<(&'p [Stmt], usize)>,
    vmap: VersionMap,
    conjuncts: Vec<TermId>,
    substituted: Vec<TermId>,
    unrolls: HashMap<LoopId, u32>,
    loop_entries: Vec<(LoopId, usize, VersionMap)>,
}

enum Mode {
    /// Stop at the first complete admissible path.
    FindOne,
    /// Collect up to `limit` complete paths.
    Collect { limit: usize },
}

/// The symbolic executor.
pub struct Explorer<'p> {
    program: &'p Program,
    config: ExploreConfig,
    steps: u64,
    /// Persistent solver session for feasibility queries; repeated prefixes
    /// across backtracking hit the shared normalized-query cache.
    session: SmtSession,
    /// Shared cancellation/deadline budget, polled periodically between
    /// symbolic steps (feasibility queries poll it inside the solver).
    budget: Budget,
    /// Set when the last search stopped on the step budget rather than by
    /// exhausting the (bounded) path space.
    pub budget_hit: bool,
    /// Why the last search was interrupted by the shared budget, if it was.
    pub stop_reason: Option<StopReason>,
}

/// How many symbolic steps pass between budget polls (a power of two so the
/// modulus folds to a mask).
const BUDGET_POLL_MASK: u64 = 0x1FF;

impl<'p> Explorer<'p> {
    /// Creates an explorer over `program`.
    pub fn new(program: &'p Program, config: ExploreConfig) -> Self {
        let mut session = SmtSession::new(config.smt);
        for &ax in &config.axioms {
            session.assert_axiom(ax);
        }
        Explorer {
            program,
            config,
            steps: 0,
            session,
            budget: Budget::unlimited(),
            budget_hit: false,
            stop_reason: None,
        }
    }

    /// Installs the shared budget for subsequent searches; the explorer's
    /// solver session inherits it so feasibility queries stop too.
    pub fn set_budget(&mut self, budget: Budget) {
        self.session.set_budget(budget.clone());
        self.budget = budget;
    }

    /// Binds the internal solver session's counters to `registry` under
    /// `session_prefix` (e.g. `"feas"`), kept separate from the engine's own
    /// `smt.*` cells. Every feasibility query is one query of that session,
    /// so `{session_prefix}.queries` counts them.
    pub fn bind_metrics(&mut self, registry: &MetricsRegistry, session_prefix: &str) {
        self.session.bind_metrics(registry, session_prefix);
    }

    /// Installs the shared provenance context on the internal solver
    /// session, so feasibility queries are attributed to the engine's
    /// current benchmark/iteration/phase/path.
    pub fn set_provenance(&mut self, prov: pins_trace::ProvenanceCtx) {
        self.session.set_provenance(prov);
    }

    fn initial_state(&self) -> State<'p> {
        State {
            frames: vec![(self.program.body.as_slice(), 0)],
            vmap: VersionMap::new(),
            conjuncts: Vec::new(),
            substituted: Vec::new(),
            unrolls: HashMap::new(),
            loop_entries: Vec::new(),
        }
    }

    /// Finds one complete feasible path whose key is not in `avoid`,
    /// guided by `filler` (Algorithm 1, line 11). Returns `None` when the
    /// search space within bounds is exhausted.
    pub fn explore_one(
        &mut self,
        ctx: &mut SymCtx,
        filler: &dyn HoleFiller,
        avoid: &HashSet<TermId>,
    ) -> Option<PathResult> {
        self.steps = 0;
        self.budget_hit = false;
        self.stop_reason = None;
        let mut span = pins_trace::span("symexec.explore_one");
        let queries_before = self.session.stats().queries;
        let mut out = Vec::new();
        let state = self.initial_state();
        self.search(ctx, filler, avoid, state, &Mode::FindOne, &mut out);
        let found = out.pop();
        if span.is_active() {
            span.record_u64("steps", self.steps);
            span.record_u64(
                "feasibility_queries",
                self.session.stats().queries - queries_before,
            );
            span.record("found", found.is_some());
            span.record("budget_hit", self.budget_hit);
            span.record_u64("avoided_paths", avoid.len() as u64);
        }
        found
    }

    /// Enumerates complete paths (bounded by `max_unroll` and `limit`),
    /// with feasibility pruning only if configured. Used for termination
    /// constraints, BMC unrolling, and the path-count claim of §2.4.
    pub fn enumerate(
        &mut self,
        ctx: &mut SymCtx,
        filler: &dyn HoleFiller,
        limit: usize,
    ) -> Vec<PathResult> {
        self.steps = 0;
        self.budget_hit = false;
        self.stop_reason = None;
        let mut span = pins_trace::span("symexec.enumerate");
        let queries_before = self.session.stats().queries;
        let mut out = Vec::new();
        let avoid = HashSet::new();
        let state = self.initial_state();
        self.search(
            ctx,
            filler,
            &avoid,
            state,
            &Mode::Collect { limit },
            &mut out,
        );
        if span.is_active() {
            span.record_u64("steps", self.steps);
            span.record_u64(
                "feasibility_queries",
                self.session.stats().queries - queries_before,
            );
            span.record_u64("paths", out.len() as u64);
            span.record_u64("limit", limit as u64);
            span.record("budget_hit", self.budget_hit);
        }
        out
    }

    fn feasible(&mut self, ctx: &mut SymCtx, substituted: &[TermId]) -> bool {
        if !self.config.check_feasibility {
            return true;
        }
        !self
            .session
            .verdict_under(&mut ctx.arena, substituted)
            .is_unsat()
    }

    /// Substitutes hole occurrences in `t` using `filler` (the `S(p)` of
    /// Rule ASSUME), translating candidates under each occurrence's map.
    pub fn apply_filler(&self, ctx: &mut SymCtx, t: TermId, filler: &dyn HoleFiller) -> TermId {
        apply_filler_term(ctx, self.program, t, filler)
    }

    /// Returns `true` when the search should stop (found a path in
    /// `FindOne` mode, or hit the limit in `Collect` mode).
    fn search(
        &mut self,
        ctx: &mut SymCtx,
        filler: &dyn HoleFiller,
        avoid: &HashSet<TermId>,
        mut state: State<'p>,
        mode: &Mode,
        out: &mut Vec<PathResult>,
    ) -> bool {
        // advance deterministically until a choice point or path end
        loop {
            if self.steps >= self.config.max_steps {
                self.budget_hit = true;
                return true; // budget exhausted: stop the whole search
            }
            if self.steps & BUDGET_POLL_MASK == 0 {
                if let Err(reason) = self.budget.check() {
                    self.budget_hit = true;
                    self.stop_reason = Some(reason);
                    return true; // shared budget tripped: stop the search
                }
            }
            self.steps += 1;
            let Some(&(block, idx)) = state.frames.last() else {
                return self.finish(ctx, avoid, state, mode, out);
            };
            if idx >= block.len() {
                state.frames.pop();
                continue;
            }
            state.frames.last_mut().unwrap().1 += 1;
            match &block[idx] {
                Stmt::Skip => {}
                Stmt::Exit => state.frames.clear(),
                Stmt::Assign(pairs) => self.do_assign(ctx, filler, &mut state, pairs),
                Stmt::Assume(p) => {
                    if !self.do_assume(ctx, filler, &mut state, p, false) {
                        return false;
                    }
                }
                Stmt::If(p, then_b, else_b) => {
                    let mut branches: Vec<(bool, &'p [Stmt])> =
                        vec![(false, then_b.as_slice()), (true, else_b.as_slice())];
                    if self.config.exit_first {
                        branches.reverse();
                    }
                    for (negate, body) in branches {
                        let mut s2 = state.clone();
                        if self.do_assume(ctx, filler, &mut s2, p, negate) {
                            s2.frames.push((body, 0));
                            if self.search(ctx, filler, avoid, s2, mode, out) {
                                return true;
                            }
                        }
                    }
                    return false;
                }
                Stmt::While(id, p, body) => {
                    let entered = state.unrolls.get(id).copied().unwrap_or(0);
                    if !state.loop_entries.iter().any(|(l, _, _)| l == id) {
                        state
                            .loop_entries
                            .push((*id, state.conjuncts.len(), state.vmap.clone()));
                    }
                    let mut options: Vec<bool> = if entered < self.config.max_unroll {
                        vec![true, false] // enter, then exit
                    } else {
                        vec![false]
                    };
                    if self.config.exit_first {
                        options.reverse();
                    }
                    for enter in options {
                        let mut s2 = state.clone();
                        if enter {
                            if !self.do_assume(ctx, filler, &mut s2, p, false) {
                                continue;
                            }
                            *s2.unrolls.entry(*id).or_insert(0) += 1;
                            // after the body, re-run the While statement
                            let fi = s2.frames.len() - 1;
                            s2.frames[fi].1 = idx;
                            s2.frames.push((body.as_slice(), 0));
                        } else if !self.do_assume(ctx, filler, &mut s2, p, true) {
                            continue;
                        }
                        if self.search(ctx, filler, avoid, s2, mode, out) {
                            return true;
                        }
                    }
                    return false;
                }
            }
        }
    }

    fn finish(
        &mut self,
        ctx: &mut SymCtx,
        avoid: &HashSet<TermId>,
        state: State<'p>,
        mode: &Mode,
        out: &mut Vec<PathResult>,
    ) -> bool {
        let key = ctx.arena.mk_and(state.conjuncts.clone());
        if avoid.contains(&key) {
            return false; // Rule EXIT: path already explored
        }
        out.push(PathResult {
            conjuncts: state.conjuncts,
            substituted: state.substituted,
            final_vmap: state.vmap,
            loop_entries: state.loop_entries,
            key,
        });
        match mode {
            Mode::FindOne => true,
            Mode::Collect { limit } => out.len() >= *limit,
        }
    }

    fn do_assign(
        &mut self,
        ctx: &mut SymCtx,
        filler: &dyn HoleFiller,
        state: &mut State<'p>,
        pairs: &[(VarId, Expr)],
    ) {
        // Rule ASSN: evaluate RHS under the old map, bump versions, equate.
        let old = state.vmap.clone();
        let mut eqs = Vec::with_capacity(pairs.len());
        for (v, e) in pairs {
            let sort = ctx.var_sort(*v);
            let rhs = ctx.expr_term(self.program, e, &old, sort);
            let new_version = version_of(&state.vmap, *v) + 1;
            state.vmap.insert(*v, new_version);
            let lhs = ctx.var_term(*v, new_version);
            eqs.push(ctx.arena.mk_eq(lhs, rhs));
        }
        for eq in eqs {
            let sub = self.apply_filler(ctx, eq, filler);
            state.conjuncts.push(eq);
            state.substituted.push(sub);
        }
    }

    /// Conjoins `p` (negated if `negate`) and checks feasibility under the
    /// filler. Returns false when the extended path is infeasible.
    fn do_assume(
        &mut self,
        ctx: &mut SymCtx,
        filler: &dyn HoleFiller,
        state: &mut State<'p>,
        p: &Pred,
        negate: bool,
    ) -> bool {
        if matches!(p, Pred::Star) {
            return true; // free nondeterministic choice, no constraint
        }
        let mut t = ctx.pred_term(self.program, p, &state.vmap);
        if negate {
            t = ctx.arena.mk_not(t);
        }
        if t == ctx.arena.mk_true() {
            return true;
        }
        let sub = self.apply_filler(ctx, t, filler);
        if sub == ctx.arena.mk_false() {
            return false;
        }
        state.conjuncts.push(t);
        state.substituted.push(sub);
        let snapshot = state.substituted.clone();
        self.feasible(ctx, &snapshot)
    }
}

/// Substitutes hole occurrences in `t` via `filler`: each occurrence is
/// replaced by its candidate translated under the occurrence's version map.
pub fn apply_filler_term(
    ctx: &mut SymCtx,
    program: &Program,
    t: TermId,
    filler: &dyn HoleFiller,
) -> TermId {
    let mut holes: Vec<(TermId, u32)> = Vec::new();
    {
        let mut subs = HashSet::new();
        collect_subterms(&ctx.arena, t, &mut subs);
        for s in subs {
            if let Term::Hole(occ, _) = ctx.arena.term(s) {
                holes.push((s, *occ));
            }
        }
    }
    if holes.is_empty() {
        return t;
    }
    let mut map = HashMap::new();
    for (hole_term, occ_id) in holes {
        let occ = ctx.occurrence(occ_id).clone();
        let replacement = match occ.kind {
            HoleKind::Expr(h) => filler
                .expr(h)
                .map(|e| ctx.expr_term(program, &e, &occ.vmap, occ.sort)),
            HoleKind::Pred(h) => filler
                .pred(h)
                .map(|p| ctx.pred_term(program, &p, &occ.vmap)),
        };
        if let Some(r) = replacement {
            map.insert(hole_term, r);
        }
    }
    ctx.arena.substitute(t, &map)
}

/// The sort a candidate must have to fill holes assigned to variable `v`.
pub fn sort_for_var(ctx: &SymCtx, v: VarId) -> Sort {
    ctx.var_sort(v)
}
