//! The DPLL(T) main loop: Tseitin CNF over theory atoms, an online theory
//! state (EUF + simplex, see [`crate::theory`]) that CDCL drives from its
//! trail and that explains its conflicts back as clauses, and a final check
//! at full assignments that adds lemmas on demand (array read-over-write,
//! integer disequality splits, e-matching instances, model-based theory
//! combination) or builds the model.

use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

use pins_budget::{Budget, StopReason};
use pins_logic::{Sort, Term, TermArena, TermId};
use pins_sat::{Lit, SolveResult, Solver as SatSolver, Var};

use crate::ematch::{ematch_round, EmatchConfig};
use crate::inst::{instantiate, InstConfig};
use crate::linear::linearize;
use crate::model::Model;
use crate::prep::{preprocess, Prepped};
use crate::rational::Rat;
use crate::simplex::Lia;
use crate::theory::{TheoryState, TheoryTimes};
use crate::trigger::CompiledAxioms;

/// Solver configuration knobs.
#[derive(Debug, Clone, Copy)]
pub struct SmtConfig {
    /// Quantifier-instantiation budget.
    pub inst: InstConfig,
    /// Bound on final-check rounds — CDCL searches whose full assignment
    /// needed new lemmas or atoms — before answering `Unknown`.
    pub max_theory_rounds: usize,
    /// Branch-and-bound depth for integer feasibility.
    pub bb_depth: u32,
    /// Per-query wall-clock limit (layered over any shared budget).
    pub time_limit: Option<Duration>,
    /// Per-query step limit over conflicts + pivots + instantiation rounds.
    pub step_limit: Option<u64>,
    /// Whether a session retries a budget-limited `Unknown` once with
    /// doubled budgets before giving up.
    pub retry_unknown: bool,
    /// Whether asserts registered through
    /// [`Smt::assert_term_tracked`] are guarded by assumption literals so
    /// every `Unsat` answer carries an unsat core of assert provenance ids
    /// ([`Smt::unsat_core`]). Tracking costs one selector variable and one
    /// extra literal per tracked root clause.
    pub track_cores: bool,
}

impl Default for SmtConfig {
    fn default() -> Self {
        SmtConfig {
            inst: InstConfig::default(),
            max_theory_rounds: 5000,
            bb_depth: 40,
            time_limit: None,
            step_limit: None,
            retry_unknown: true,
            track_cores: true,
        }
    }
}

impl SmtConfig {
    /// The escalated configuration a session retries with after a
    /// budget-limited `Unknown`: every budget knob doubled.
    pub fn escalate(&self) -> SmtConfig {
        SmtConfig {
            inst: InstConfig {
                max_rounds: self.inst.max_rounds.saturating_mul(2),
                max_instances: self.inst.max_instances.saturating_mul(2),
            },
            max_theory_rounds: self.max_theory_rounds.saturating_mul(2),
            bb_depth: self.bb_depth.saturating_mul(2),
            time_limit: self.time_limit.map(|d| d.saturating_mul(2)),
            step_limit: self.step_limit.map(|s| s.saturating_mul(2)),
            retry_unknown: false, // one escalation only
            track_cores: self.track_cores,
        }
    }
}

/// The verdict of a `check` call.
#[derive(Debug)]
pub enum SmtResult {
    /// Satisfiable, with a model. If [`Model::complete`] is false the answer
    /// is "satisfiable modulo the grounded approximation" (quantifier or
    /// branching budget was hit).
    Sat(Model),
    /// Proven unsatisfiable (trustworthy even with axioms: instantiation
    /// only strengthens refutations).
    Unsat,
    /// No verdict: the budget ran out, the query was cancelled, or theory
    /// arithmetic overflowed. The payload says which.
    Unknown(StopReason),
}

impl SmtResult {
    /// Whether the result proves unsatisfiability.
    pub fn is_unsat(&self) -> bool {
        matches!(self, SmtResult::Unsat)
    }

    /// Whether the result is (possibly approximately) satisfiable.
    pub fn is_sat(&self) -> bool {
        matches!(self, SmtResult::Sat(_))
    }
}

/// Counters for the instrumentation PINS reports in Table 4.
#[derive(Debug, Clone, Copy, Default)]
pub struct SmtStats {
    /// CDCL search calls: one per final-check round.
    pub sat_rounds: u64,
    /// Theory conflicts fed back to CDCL as clauses.
    pub theory_conflicts: u64,
    /// Theory lemmas (array, diseq-split) added.
    pub lemmas: u64,
    /// Quantifier instances generated.
    pub instances: u64,
    /// Final SAT formula size (vars + literal occurrences).
    pub formula_size: usize,
    /// Time in CNF preparation: preprocessing of the instances, Tseitin
    /// encoding of the asserted formulas and theory atom compilation.
    pub prep_time: Duration,
    /// Time in upfront quantifier instantiation ([`instantiate`](crate::instantiate)).
    pub inst_time: Duration,
    /// Time inside the SAT core across all rounds, theory hooks excluded.
    pub sat_time: Duration,
    /// Time in the EUF engine (asserting equalities, congruence closure,
    /// disequality checks, the lemma scan of the final check).
    pub euf_time: Duration,
    /// Time in the simplex/branch-and-bound LIA engine (bounds, EUF merges
    /// mirrored as bounds, feasibility checks, and model-based theory
    /// combination and model building, which read LIA values).
    pub lia_time: Duration,
    /// Time in congruence-aware e-matching rounds.
    pub ematch_time: Duration,
}

/// What the final check made of a full assignment.
enum Outcome {
    Ok(Box<Model>),
    Progress(Vec<TermId>, Vec<TermId>),
}

/// Bound on the iterative core-refinement passes after an assumption-level
/// `Unsat`: each pass re-solves under only the current core, which lets
/// conflict analysis shrink it further. Refinement re-uses the learnt
/// clause database, so a pass is normally pure propagation.
const CORE_REFINE_ROUNDS: usize = 3;

/// The unsat core of the most recent `Unsat` answer, as the provenance ids
/// passed to [`Smt::assert_term_tracked`].
#[derive(Debug, Clone, Default)]
pub struct TrackedCore {
    /// Sorted, deduplicated provenance ids whose conjunction (with the
    /// untracked asserts and axioms) is unsatisfiable.
    pub ids: Vec<u32>,
    /// Whether the ids were extracted from conflict analysis (`true`, every
    /// fresh solve) or are a sound over-approximation (`false`).
    pub exact: bool,
}

/// A one-shot SMT solver instance: assert formulas, then call
/// [`Smt::check`].
pub struct Smt {
    config: SmtConfig,
    sat: SatSolver,
    lit_of: HashMap<TermId, Lit>,
    atom_var: HashMap<TermId, Var>,
    var_atoms: Vec<(TermId, Var)>,
    /// Ground roots to assert, each with the provenance id of the tracked
    /// assert it came from (`None` = hard, untracked).
    ground: Vec<(TermId, Option<u32>)>,
    /// Quantified axioms, compiled once as they are asserted.
    axioms: CompiledAxioms,
    /// Selector literals guarding tracked roots, in first-use order.
    selectors: Vec<(u32, Lit)>,
    /// Tracked asserts that lifted quantified axioms during preprocessing:
    /// their axiom halves are untracked, so they are forced into every core.
    forced_core: Vec<u32>,
    /// Core of the most recent `Unsat` answer (see [`Smt::unsat_core`]).
    last_core: Option<TrackedCore>,
    exact: bool,
    true_lit: Option<Lit>,
    diseq_split: HashSet<TermId>,
    array_done: HashSet<(TermId, TermId)>,
    mbtc_done: HashSet<(TermId, TermId)>,
    ematch_done: HashSet<(TermId, Vec<TermId>)>,
    ematch_count: usize,
    /// Shared budget; `check` layers the config's per-query limits on top.
    budget: Budget,
    /// Statistics for the current instance.
    pub stats: SmtStats,
}

impl Smt {
    /// Creates a solver with the given configuration.
    pub fn new(config: SmtConfig) -> Self {
        Smt {
            config,
            sat: SatSolver::new(),
            lit_of: HashMap::new(),
            atom_var: HashMap::new(),
            var_atoms: Vec::new(),
            ground: Vec::new(),
            axioms: CompiledAxioms::default(),
            selectors: Vec::new(),
            forced_core: Vec::new(),
            last_core: None,
            exact: true,
            true_lit: None,
            diseq_split: HashSet::new(),
            array_done: HashSet::new(),
            mbtc_done: HashSet::new(),
            ematch_done: HashSet::new(),
            ematch_count: 0,
            budget: Budget::unlimited(),
            stats: SmtStats::default(),
        }
    }

    /// Attaches a shared budget. `check` derives a per-query child from it
    /// using the config's `time_limit`/`step_limit`.
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    /// Asserts a formula (conjunction semantics across calls). `Forall`
    /// subformulas in positive positions are registered as axioms to be
    /// instantiated; negated universals are skolemized.
    pub fn assert_term(&mut self, arena: &mut TermArena, t: TermId) {
        self.assert_with_prov(arena, t, None);
    }

    /// Asserts a formula labelled with a caller-chosen provenance id. When
    /// [`SmtConfig::track_cores`] is on, every ground root of the formula is
    /// guarded by an assumption literal, so an `Unsat` answer reports (via
    /// [`Smt::unsat_core`]) which tracked asserts the refutation used.
    pub fn assert_term_tracked(&mut self, arena: &mut TermArena, t: TermId, prov: u32) {
        self.assert_with_prov(arena, t, Some(prov));
    }

    fn assert_with_prov(&mut self, arena: &mut TermArena, t: TermId, prov: Option<u32>) {
        let mut prep = Prepped::default();
        let exact = preprocess(arena, t, &mut prep);
        if !exact && !prep.axioms.is_empty() {
            // positive forall was lifted: sat answers are approximate
            self.exact = false;
        }
        if let Some(p) = prov {
            if !prep.axioms.is_empty() {
                // the quantified half is instantiated untracked; keeping the
                // assert in every core keeps cores sound (over-approximate)
                self.forced_core.push(p);
            }
        }
        self.ground
            .extend(prep.ground.into_iter().map(|g| (g, prov)));
        for ax in prep.axioms {
            self.axioms.push(arena, ax);
        }
    }

    /// The unsat core of the most recent `Unsat` answer from
    /// [`Smt::check`], as provenance ids of tracked asserts. `None` when no
    /// `Unsat` has been produced or tracking is off. An empty id list means
    /// the untracked asserts and axioms are unsatisfiable on their own.
    pub fn unsat_core(&self) -> Option<&TrackedCore> {
        self.last_core.as_ref()
    }

    fn true_lit(&mut self) -> Lit {
        if let Some(l) = self.true_lit {
            return l;
        }
        let v = self.sat.new_var();
        let l = Lit::pos(v);
        self.sat.add_clause(&[l]);
        self.true_lit = Some(l);
        l
    }

    fn atom_lit(&mut self, t: TermId) -> Lit {
        if let Some(&v) = self.atom_var.get(&t) {
            return Lit::pos(v);
        }
        let v = self.sat.new_var();
        self.atom_var.insert(t, v);
        self.var_atoms.push((t, v));
        Lit::pos(v)
    }

    /// Tseitin-encodes boolean structure, returning the defining literal.
    fn encode(&mut self, arena: &mut TermArena, t: TermId) -> Lit {
        if let Some(&l) = self.lit_of.get(&t) {
            return l;
        }
        let lit = match arena.term(t).clone() {
            Term::BoolConst(b) => {
                let tl = self.true_lit();
                if b {
                    tl
                } else {
                    !tl
                }
            }
            Term::Var {
                sort: Sort::Bool, ..
            } => self.atom_lit(t),
            Term::Eq(a, b) if arena.sort(a).is_bool() => {
                let la = self.encode(arena, a);
                let lb = self.encode(arena, b);
                let v = self.sat.new_var();
                let lv = Lit::pos(v);
                self.sat.add_clause(&[!lv, !la, lb]);
                self.sat.add_clause(&[!lv, la, !lb]);
                self.sat.add_clause(&[lv, la, lb]);
                self.sat.add_clause(&[lv, !la, !lb]);
                lv
            }
            Term::Eq(..) | Term::Le(..) | Term::Lt(..) => self.atom_lit(t),
            Term::App(..) => {
                debug_assert!(arena.sort(t).is_bool(), "non-atom App in boolean position");
                self.atom_lit(t)
            }
            Term::Not(a) => {
                let la = self.encode(arena, a);
                !la
            }
            Term::And(kids) => {
                let lits: Vec<Lit> = kids.iter().map(|&k| self.encode(arena, k)).collect();
                let v = self.sat.new_var();
                let lv = Lit::pos(v);
                let mut back = vec![lv];
                for &l in &lits {
                    self.sat.add_clause(&[!lv, l]);
                    back.push(!l);
                }
                self.sat.add_clause(&back);
                lv
            }
            Term::Or(kids) => {
                let lits: Vec<Lit> = kids.iter().map(|&k| self.encode(arena, k)).collect();
                let v = self.sat.new_var();
                let lv = Lit::pos(v);
                let mut fwd = vec![!lv];
                for &l in &lits {
                    self.sat.add_clause(&[lv, !l]);
                    fwd.push(l);
                }
                self.sat.add_clause(&fwd);
                lv
            }
            Term::Forall(..) => {
                // residual nested quantifier: weaken to a free variable
                self.exact = false;
                Lit::pos(self.sat.new_var())
            }
            other => panic!("cannot encode non-boolean term {other:?}"),
        };
        self.lit_of.insert(t, lit);
        lit
    }

    fn assert_root(&mut self, arena: &mut TermArena, t: TermId) {
        let l = self.encode(arena, t);
        self.sat.add_clause(&[l]);
    }

    /// The selector literal guarding the tracked assert `prov`, allocated on
    /// first use. Selector variables only ever occur negatively in clauses,
    /// so a SAT-level refutation at decision level 0 is independent of every
    /// tracked assert (the empty core is sound).
    fn selector(&mut self, prov: u32) -> Lit {
        if let Some(&(_, l)) = self.selectors.iter().find(|&&(p, _)| p == prov) {
            return l;
        }
        let l = Lit::pos(self.sat.new_var());
        self.selectors.push((prov, l));
        l
    }

    /// Maps the SAT layer's failed-assumption set back to provenance ids,
    /// after bounded iterative refinement: re-solving under only the current
    /// core (modulo the theories) lets conflict analysis shrink it, and the
    /// persistent learnt clauses make each pass near-free propagation in the
    /// common case.
    fn extract_core(&mut self, th: &mut TheoryState) -> TrackedCore {
        let mut core_lits = self.sat.assumption_core().to_vec();
        for _ in 0..CORE_REFINE_ROUNDS {
            if core_lits.len() <= 1 {
                break;
            }
            match self.sat.solve_with_theory(&core_lits, th) {
                SolveResult::Unsat => {
                    let smaller = self.sat.assumption_core().to_vec();
                    if smaller.len() < core_lits.len() {
                        core_lits = smaller;
                    } else {
                        break;
                    }
                }
                // a full assignment the final check has not vetted, or a
                // budget stop: the previous core is already sound, keep it
                SolveResult::Sat => {
                    self.sat.backtrack_theory(th);
                    break;
                }
                SolveResult::Interrupted(_) => break,
            }
        }
        let mut ids: Vec<u32> = core_lits
            .iter()
            .filter_map(|l| {
                self.selectors
                    .iter()
                    .find(|&&(_, s)| s == *l)
                    .map(|&(p, _)| p)
            })
            .collect();
        ids.extend(self.forced_core.iter().copied());
        ids.sort_unstable();
        ids.dedup();
        TrackedCore { ids, exact: true }
    }

    /// Runs the decision procedure.
    pub fn check(&mut self, arena: &mut TermArena) -> SmtResult {
        // layer the per-query limits over the shared budget
        let budget = self
            .budget
            .child(self.config.time_limit, self.config.step_limit);
        let mut span = pins_trace::span("smt.check");
        if span.is_active() {
            if let Some(t) = budget.time_left() {
                span.record_u64("budget_ms_left", t.as_millis() as u64);
            }
            if let Some(s) = budget.steps_left() {
                span.record_u64("budget_steps_left", s);
            }
        }
        let before = self.stats;
        let result = self.check_inner(arena, &budget);
        if span.is_active() {
            span.record_str(
                "verdict",
                match &result {
                    SmtResult::Sat(_) => "sat",
                    SmtResult::Unsat => "unsat",
                    SmtResult::Unknown(_) => "unknown",
                },
            );
            if let SmtResult::Unknown(reason) = &result {
                span.record_str("stop_reason", &reason.to_string());
            }
            span.record_u64("sat_rounds", self.stats.sat_rounds - before.sat_rounds);
            span.record_u64(
                "theory_conflicts",
                self.stats.theory_conflicts - before.theory_conflicts,
            );
            span.record_u64("lemmas", self.stats.lemmas - before.lemmas);
            span.record_u64(
                "instances",
                self.stats.instances.saturating_sub(before.instances),
            );
            span.record_u64("formula_size", self.stats.formula_size as u64);
            let us = |now: Duration, then: Duration| now.saturating_sub(then).as_micros() as u64;
            let (now, then) = (&self.stats, &before);
            span.record_u64("prep_us", us(now.prep_time, then.prep_time));
            span.record_u64("inst_us", us(now.inst_time, then.inst_time));
            span.record_u64("sat_us", us(now.sat_time, then.sat_time));
            span.record_u64("euf_us", us(now.euf_time, then.euf_time));
            span.record_u64("lia_us", us(now.lia_time, then.lia_time));
            span.record_u64("ematch_us", us(now.ematch_time, then.ematch_time));
        }
        result
    }

    fn check_inner(&mut self, arena: &mut TermArena, budget: &Budget) -> SmtResult {
        self.sat.set_budget(budget.clone());
        self.last_core = None;
        // ground the axioms against the asserted formulas
        let t_inst = Instant::now();
        let roots = self.ground.clone();
        let root_terms: Vec<TermId> = roots.iter().map(|&(g, _)| g).collect();
        let out = instantiate(arena, &self.axioms, &root_terms, self.config.inst, budget);
        self.stats.inst_time += t_inst.elapsed();
        if out.truncated {
            self.exact = false;
        }
        if let Some(reason) = out.stopped {
            self.stats.formula_size = self.sat.formula_size();
            return SmtResult::Unknown(reason);
        }
        let t_prep = Instant::now();
        self.stats.instances = out.instances.len() as u64;
        let mut to_assert = roots;
        for inst in out.instances {
            let mut prep = Prepped::default();
            preprocess(arena, inst, &mut prep);
            to_assert.extend(prep.ground.into_iter().map(|g| (g, None)));
            // nested axioms inside instances are not supported
            if !prep.axioms.is_empty() {
                self.exact = false;
            }
        }
        let track = self.config.track_cores;
        for (g, prov) in to_assert {
            match prov {
                Some(p) if track => {
                    // guarded root: selector => root, so the root is only
                    // required while its selector is assumed true
                    let s = self.selector(p);
                    let l = self.encode(arena, g);
                    self.sat.add_clause(&[!s, l]);
                }
                _ => self.assert_root(arena, g),
            }
        }
        let sels: Vec<Lit> = self.selectors.iter().map(|&(_, l)| l).collect();
        // the theory state lives for this check: atoms are compiled once,
        // and lemma rounds only add to it
        let mut th = TheoryState::new(budget.clone(), self.config.bb_depth);
        th.record_atoms(arena, &self.var_atoms);
        self.stats.prep_time += t_prep.elapsed();

        let result = self.search_rounds(arena, &mut th, &sels, budget);
        self.stats.formula_size = self.sat.formula_size();
        result
    }

    /// The final-check rounds of [`Smt::check`]: each runs one CDCL search
    /// modulo the theory state; a full assignment the final check extends
    /// with lemmas or atoms starts the next round.
    fn search_rounds(
        &mut self,
        arena: &mut TermArena,
        th: &mut TheoryState,
        sels: &[Lit],
        budget: &Budget,
    ) -> SmtResult {
        let mut recorded = self.var_atoms.len();
        for _round in 0..self.config.max_theory_rounds {
            if let Err(reason) = budget.charge(1) {
                return SmtResult::Unknown(reason);
            }
            self.stats.sat_rounds += 1;
            let before = th.times;
            let t_sat = Instant::now();
            let sat_verdict = self.sat.solve_with_theory(sels, th);
            let spent = t_sat.elapsed();
            self.note_theory(before, th.times, spent);
            match sat_verdict {
                SolveResult::Unsat => {
                    if self.config.track_cores {
                        self.last_core = Some(self.extract_core(th));
                    }
                    return SmtResult::Unsat;
                }
                SolveResult::Interrupted(reason) => return SmtResult::Unknown(reason),
                SolveResult::Sat => match self.final_stage(arena, th, budget) {
                    Outcome::Ok(mut model) => {
                        model.complete = model.complete && self.exact;
                        return SmtResult::Sat(*model);
                    }
                    Outcome::Progress(lemmas, atoms) => {
                        self.stats.lemmas += lemmas.len() as u64;
                        // timeline sample: every 16th lemma round of a check
                        if self.stats.sat_rounds & 0xF == 0 {
                            pins_trace::point("smt.lemma", || {
                                vec![
                                    ("count", (lemmas.len() as u64).into()),
                                    ("new_atoms", (atoms.len() as u64).into()),
                                    ("total", self.stats.lemmas.into()),
                                ]
                            });
                        }
                        self.sat.backtrack_theory(th);
                        for lem in lemmas {
                            self.assert_root(arena, lem);
                        }
                        for a in atoms {
                            let _ = self.atom_lit(a); // register; SAT decides it
                        }
                        let t_rec = Instant::now();
                        th.record_atoms(arena, &self.var_atoms[recorded..]);
                        recorded = self.var_atoms.len();
                        self.stats.prep_time += t_rec.elapsed();
                    }
                },
            }
        }
        SmtResult::Unknown(StopReason::StepLimit)
    }

    /// Books one search's time: the theory hooks' share goes to EUF/LIA,
    /// the rest to SAT; samples the theory-conflict timeline.
    fn note_theory(&mut self, before: TheoryTimes, after: TheoryTimes, spent: Duration) {
        let euf = after.euf - before.euf;
        let lia = after.lia - before.lia;
        self.stats.euf_time += euf;
        self.stats.lia_time += lia;
        self.stats.sat_time += spent.saturating_sub(euf + lia);
        for _ in before.conflicts..after.conflicts {
            self.stats.theory_conflicts += 1;
            // timeline sample: every 16th theory conflict of a check
            if self.stats.theory_conflicts & 0xF == 0 {
                pins_trace::point("smt.theory_conflict", || {
                    vec![("count", self.stats.theory_conflicts.into())]
                });
            }
        }
    }

    /// The final check on a full assignment the theory state accepted:
    /// lemmas first (integer disequality splits, array read-over-write),
    /// then e-matching instances, then model-based theory combination; with
    /// nothing left to add, the model.
    fn final_stage(
        &mut self,
        arena: &mut TermArena,
        th: &mut TheoryState,
        budget: &Budget,
    ) -> Outcome {
        let t_euf = Instant::now();
        let mut lemmas: Vec<TermId> = Vec::new();
        // ---- integer disequality splits: !(a=b) => a<b \/ b<a -------------
        for &(atom, v) in &self.var_atoms {
            if self.sat.value(v) != Some(false) {
                continue;
            }
            if let Term::Eq(a, b) = *arena.term(atom) {
                if arena.sort(a).is_int() && self.diseq_split.insert(atom) {
                    let lt1 = arena.mk_lt(a, b);
                    let lt2 = arena.mk_lt(b, a);
                    lemmas.push(arena.mk_or(vec![atom, lt1, lt2]));
                }
            }
        }
        // ---- array lemmas on demand ----------------------------------------
        for &(s, a, i) in &th.sels {
            let ra = th.euf.root_of(a);
            for &(u, b, j, v) in &th.upds {
                if th.euf.root_of(u) != ra || !self.array_done.insert((s, u)) {
                    continue;
                }
                let guard = arena.mk_eq(a, u);
                let ij = arena.mk_eq(i, j);
                let sv = arena.mk_eq(s, v);
                let then_case = arena.mk_and(vec![ij, sv]);
                let nij = arena.mk_not(ij);
                let sel_b = arena.mk_sel(b, i);
                let sb = arena.mk_eq(s, sel_b);
                let else_case = arena.mk_and(vec![nij, sb]);
                let body = arena.mk_or(vec![then_case, else_case]);
                let lemma = arena.mk_implies(guard, body);
                if lemma != arena.mk_true() {
                    lemmas.push(lemma);
                }
            }
        }
        self.stats.euf_time += t_euf.elapsed();
        if !lemmas.is_empty() {
            return Outcome::Progress(lemmas, vec![]);
        }

        // ---- congruence-aware axiom instantiation ---------------------------
        if !self.axioms.is_empty() && self.ematch_count < self.config.inst.max_instances {
            let t_ematch = Instant::now();
            let new_instances = ematch_round(
                arena,
                &th.euf,
                &self.axioms,
                &mut self.ematch_done,
                self.ematch_count,
                EmatchConfig {
                    max_instances: self.config.inst.max_instances,
                    max_branches: 64,
                },
                budget,
            );
            if !new_instances.is_empty() {
                self.ematch_count += new_instances.len();
                self.stats.instances += new_instances.len() as u64;
                pins_trace::point("smt.ematch.round", || {
                    vec![
                        ("instances", (new_instances.len() as u64).into()),
                        ("total", (self.ematch_count as u64).into()),
                    ]
                });
                let mut ground = Vec::new();
                for inst in new_instances {
                    let mut prep = Prepped::default();
                    preprocess(arena, inst, &mut prep);
                    ground.extend(prep.ground);
                }
                if !ground.is_empty() {
                    self.stats.ematch_time += t_ematch.elapsed();
                    return Outcome::Progress(ground, vec![]);
                }
            }
            self.stats.ematch_time += t_ematch.elapsed();
        }

        let t_lia = Instant::now();
        let out = self.combine_and_model(arena, th);
        self.stats.lia_time += t_lia.elapsed();
        out
    }

    /// Model-based theory combination, then model construction, on the
    /// live state's integral simplex assignment.
    fn combine_and_model(&mut self, arena: &mut TermArena, th: &TheoryState) -> Outcome {
        let (euf, lia, lvar) = (&th.euf, &th.lia, &th.lvar);
        let class_terms = euf.class_of_terms();
        // integer terms under uninterpreted/array operators whose LIA values
        // coincide but whose EUF classes differ get a fresh equality atom.
        // The kids need not be opaque `lvar` atoms: `f(x)` with `x = 2` must
        // merge with `f(2)`, and `sel(a, y - z)` with `y - z = 3` must merge
        // with `sel(a, 3)` — any kid whose linear form evaluates under the
        // LIA assignment takes part. Pairs are restricted to kids that can
        // occupy *corresponding* congruence positions (same function symbol
        // and argument index; all array indices together; all update values
        // together): a merge across unrelated slots can never complete a
        // congruence, and value-coincidence is transitive, so any pair a
        // later round needs is regenerated within its own slot.
        const SLOT_SEL_UPD_IDX: u64 = 1;
        const SLOT_UPD_VAL: u64 = 2;
        const SLOT_APP_BASE: u64 = 3;
        let mut shared: Vec<(u64, i64, TermId)> = Vec::new();
        {
            let mut seen = HashSet::new();
            let mut add = |arena: &TermArena, slot: u64, k: TermId, seen: &mut HashSet<_>| {
                if arena.sort(k).is_int() && seen.insert((slot, k)) {
                    if let Some(v) = eval_int(arena, k, lvar, lia) {
                        shared.push((slot, v, k));
                    }
                }
            };
            for &(t, _) in &class_terms {
                match arena.term(t) {
                    Term::App(f, args) => {
                        let (f, args) = (*f, args.clone());
                        for (pos, k) in args.into_iter().enumerate() {
                            let slot = SLOT_APP_BASE + ((f.index() as u64) << 16) + pos as u64;
                            add(arena, slot, k, &mut seen);
                        }
                    }
                    Term::Sel(_, i) => add(arena, SLOT_SEL_UPD_IDX, *i, &mut seen),
                    Term::Upd(_, i, v) => {
                        let (i, v) = (*i, *v);
                        add(arena, SLOT_SEL_UPD_IDX, i, &mut seen);
                        add(arena, SLOT_UPD_VAL, v, &mut seen);
                    }
                    _ => continue,
                }
            }
        }
        shared.sort_unstable();
        let mut new_atoms = Vec::new();
        for i in 0..shared.len() {
            for j in (i + 1)..shared.len() {
                let (slot_s, val_s, s) = shared[i];
                let (slot_t, val_t, t) = shared[j];
                if slot_s != slot_t || val_s != val_t {
                    break; // sorted: the (slot, value) group ends here
                }
                if s == t || euf.same_class(s, t) {
                    continue;
                }
                let key = (s.min(t), s.max(t));
                if !self.mbtc_done.insert(key) {
                    continue;
                }
                let eq = arena.mk_eq(s, t);
                if !self.atom_var.contains_key(&eq) {
                    new_atoms.push(eq);
                }
            }
        }
        if !new_atoms.is_empty() {
            return Outcome::Progress(vec![], new_atoms);
        }

        // ---- build the model -------------------------------------------------
        let mut model = Model {
            complete: !th.int_incomplete,
            ..Default::default()
        };
        for (&t, &v) in lvar {
            if let Some(val) = lia.value(v).to_i64() {
                model.ints.insert(t, val);
            } else {
                // saturate instead of truncating bits on out-of-range values
                let f = lia.value(v).floor();
                let clamped = i64::try_from(f).unwrap_or(if f < 0 { i64::MIN } else { i64::MAX });
                model.ints.insert(t, clamped);
                model.complete = false;
            }
        }
        // nonlinear products enter LIA as opaque atoms with no product
        // axioms, so the assignment may give one a value unrelated to its
        // operands' actual product; a model where that happens only
        // satisfies the linear abstraction, not the formula
        for &t in lvar.keys() {
            if let Term::Mul(a, b) = arena.term(t) {
                let (a, b) = (*a, *b);
                let got = model.ints.get(&t).copied();
                let product = match (eval_lin(arena, a, lvar, lia), eval_lin(arena, b, lvar, lia)) {
                    (Some(va), Some(vb)) => va.checked_mul(vb),
                    _ => None,
                };
                if product.is_none() || product != got {
                    model.complete = false;
                }
            }
        }
        for &(atom, v) in &self.var_atoms {
            model.bools.insert(atom, self.sat.value(v).unwrap_or(false));
        }
        // array contents: group sel values under each array-variable class
        let mut arrays: HashMap<u32, Vec<(i64, i64)>> = HashMap::new();
        for &(s, a, i) in &th.sels {
            if let (Some(root), Some(&sv)) = (euf.root_of(a), lvar.get(&s)) {
                let idx = eval_lin(arena, i, lvar, lia);
                if let (Some(idx), Some(val)) = (idx, lia.value(sv).to_i64()) {
                    arrays.entry(root).or_default().push((idx, val));
                }
            }
        }
        for &(t, root) in &class_terms {
            if arena.sort(t).is_array() && matches!(arena.term(t), Term::Var { .. }) {
                if let Some(entries) = arrays.get(&root) {
                    let mut e = entries.clone();
                    e.sort_unstable();
                    e.dedup_by_key(|p| p.0);
                    model.arrays.insert(t, e);
                }
            }
        }
        for &(t, root) in &class_terms {
            if matches!(arena.sort(t), Sort::Unint(_)) {
                model.unints.insert(t, root as u64);
            }
        }
        Outcome::Ok(Box::new(model))
    }
}

/// Evaluates an integer term *semantically* under the LIA assignment:
/// arithmetic is computed structurally (so a nonlinear product evaluates to
/// the actual product of its operands, not to whatever value its opaque LIA
/// atom happened to receive), and only true leaves — variables, `sel`s,
/// applications — read the assignment through their linear form. Model-based
/// theory combination must use this view, because the independent model
/// evaluation it guards against computes products the same way.
fn eval_int(arena: &TermArena, t: TermId, lvar: &HashMap<TermId, usize>, lia: &Lia) -> Option<i64> {
    match arena.term(t) {
        Term::IntConst(v) => Some(*v),
        Term::Add(a, b) => {
            let (a, b) = (*a, *b);
            eval_int(arena, a, lvar, lia)?.checked_add(eval_int(arena, b, lvar, lia)?)
        }
        Term::Sub(a, b) => {
            let (a, b) = (*a, *b);
            eval_int(arena, a, lvar, lia)?.checked_sub(eval_int(arena, b, lvar, lia)?)
        }
        Term::Mul(a, b) => {
            let (a, b) = (*a, *b);
            eval_int(arena, a, lvar, lia)?.checked_mul(eval_int(arena, b, lvar, lia)?)
        }
        _ => eval_lin(arena, t, lvar, lia),
    }
}

/// Evaluates an integer term's linear form under the LIA assignment.
fn eval_lin(arena: &TermArena, t: TermId, lvar: &HashMap<TermId, usize>, lia: &Lia) -> Option<i64> {
    let e = linearize(arena, t);
    if e.overflowed {
        return None;
    }
    let mut acc = Rat::from_int(e.constant);
    for (&term, &c) in &e.coeffs {
        let v = lvar.get(&term)?;
        acc = acc.checked_add(Rat::from_int(c).checked_mul(lia.value(*v))?)?;
    }
    acc.to_i64()
}
