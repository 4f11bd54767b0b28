use pins_budget::{Budget, StopReason};

use crate::heap::ActivityHeap;

/// A propositional variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub(crate) u32);

impl Var {
    /// Raw index of the variable.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A literal: a variable or its negation.
///
/// Encoded as `var << 1 | sign`, where sign 1 means negated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// The positive literal of `v`.
    pub fn pos(v: Var) -> Lit {
        Lit(v.0 << 1)
    }

    /// The negative literal of `v`.
    pub fn neg(v: Var) -> Lit {
        Lit(v.0 << 1 | 1)
    }

    /// A literal of `v` with the given polarity (`true` = positive).
    pub fn new(v: Var, positive: bool) -> Lit {
        if positive {
            Lit::pos(v)
        } else {
            Lit::neg(v)
        }
    }

    /// The literal's variable.
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Whether the literal is negated.
    pub fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }

    /// Raw code: `var << 1 | sign`. Stable across calls; usable as an
    /// external tag (the SMT layer uses it to label theory assertions).
    pub fn code(self) -> u32 {
        self.0
    }

    /// Reconstructs a literal from [`Lit::code`].
    pub fn from_code(code: u32) -> Lit {
        Lit(code)
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

/// Result of a `solve` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveResult {
    /// A satisfying assignment was found (query it with [`Solver::value`]).
    Sat,
    /// The formula (under the given assumptions) is unsatisfiable.
    Unsat,
    /// The attached [`Budget`] ran out before a verdict was reached. The
    /// solver state stays valid: clauses persist and `solve` may be called
    /// again (e.g. with a larger budget).
    Interrupted(StopReason),
}

const L_UNDEF: i8 = 0;

#[derive(Debug, Clone)]
struct Clause {
    lits: Vec<Lit>,
    learnt: bool,
    deleted: bool,
    activity: f64,
}

#[derive(Debug, Clone, Copy)]
struct Watcher {
    cref: u32,
    blocker: Lit,
}

/// Why a [`Theory`] rejected the current trail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TheoryConflict {
    /// A clause that is valid in the theory and false under the trail: the
    /// negations of the trail literals that explain the inconsistency.
    Clause(Vec<Lit>),
    /// The theory ran out of budget (or overflowed); the search stops with
    /// [`SolveResult::Interrupted`].
    Stop(StopReason),
}

/// A theory solver driven from the CDCL trail (DPLL(T)).
///
/// The solver calls [`Theory::propagate`] at every unit-propagation
/// fixpoint, [`Theory::backtrack`] whenever it cuts the trail back, and
/// [`Theory::final_check`] once every variable is assigned. A theory keeps
/// its own backtrackable state aligned with the trail: it asserts the trail
/// literals it has not seen yet and undoes the ones a backtrack removed.
pub trait Theory {
    /// Asserts the trail literals past the ones already seen.
    fn propagate(&mut self, trail: &[Lit]) -> Result<(), TheoryConflict>;
    /// The trail was cut back to its first `len` literals.
    fn backtrack(&mut self, len: usize);
    /// Checks a full assignment (after a successful `propagate`).
    fn final_check(&mut self, trail: &[Lit]) -> Result<(), TheoryConflict>;
}

/// The empty theory behind plain [`Solver::solve`]: every hook accepts.
struct NoTheory;

impl Theory for NoTheory {
    #[inline(always)]
    fn propagate(&mut self, _: &[Lit]) -> Result<(), TheoryConflict> {
        Ok(())
    }
    #[inline(always)]
    fn backtrack(&mut self, _: usize) {}
    #[inline(always)]
    fn final_check(&mut self, _: &[Lit]) -> Result<(), TheoryConflict> {
        Ok(())
    }
}

/// What became of a theory conflict clause handed to the search.
enum Learned {
    /// The clause is false at level 0: the formula is unsatisfiable.
    Unsat,
    /// The clause was attached; analyze it as the conflict.
    Conflict(u32),
    /// A unit clause: its literal was enqueued at level 0.
    Unit,
}

/// Minimum conflicts before a solve call earns a `sat.solve` trace event.
/// Keeps tracing overhead bounded: trivial calls (the overwhelming majority
/// in a CEGIS loop) stay silent, while the calls that dominate wall-clock
/// time are always visible.
const SAT_TRACE_MIN_CONFLICTS: u64 = 64;

/// A CDCL SAT solver. See the crate docs for an overview.
#[derive(Debug, Clone)]
pub struct Solver {
    clauses: Vec<Clause>,
    learnt_refs: Vec<u32>,
    watches: Vec<Vec<Watcher>>,
    /// Per-variable assignment: +1 true, -1 false, 0 unassigned.
    assign: Vec<i8>,
    level: Vec<u32>,
    reason: Vec<Option<u32>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f64,
    order: ActivityHeap,
    polarity: Vec<bool>,
    seen: Vec<bool>,
    ok: bool,
    max_learnts: f64,
    /// Assumption literals responsible for the most recent
    /// [`SolveResult::Unsat`] answer (see [`Solver::assumption_core`]).
    assumption_core: Vec<Lit>,
    /// Work budget charged per conflict and per decision.
    budget: Budget,
    /// Statistics: total conflicts encountered.
    pub conflicts: u64,
    /// Statistics: total decisions made.
    pub decisions: u64,
    /// Statistics: total propagations performed.
    pub propagations: u64,
    /// Statistics: total Luby restarts taken.
    pub restarts: u64,
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Solver {
            clauses: Vec::new(),
            learnt_refs: Vec::new(),
            watches: Vec::new(),
            assign: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            cla_inc: 1.0,
            order: ActivityHeap::new(),
            polarity: Vec::new(),
            seen: Vec::new(),
            ok: true,
            max_learnts: 1000.0,
            assumption_core: Vec::new(),
            budget: Budget::unlimited(),
            conflicts: 0,
            decisions: 0,
            propagations: 0,
            restarts: 0,
        }
    }

    /// Attaches the work budget polled during search. The default budget is
    /// unlimited.
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assign.len() as u32);
        self.assign.push(L_UNDEF);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.polarity.push(false);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.grow();
        self.order.insert(v.0, &self.activity);
        v
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// Number of original (problem) clauses currently alive.
    pub fn num_clauses(&self) -> usize {
        self.clauses
            .iter()
            .filter(|c| !c.learnt && !c.deleted)
            .count()
    }

    /// Sum of literal counts over live problem clauses plus variables — the
    /// `|SAT|` size measure reported in the paper's Table 2.
    pub fn formula_size(&self) -> usize {
        self.num_vars()
            + self
                .clauses
                .iter()
                .filter(|c| !c.learnt && !c.deleted)
                .map(|c| c.lits.len())
                .sum::<usize>()
    }

    fn lit_value(&self, l: Lit) -> i8 {
        let a = self.assign[l.var().index()];
        if l.is_neg() {
            -a
        } else {
            a
        }
    }

    /// The model value of `v` after a [`SolveResult::Sat`] answer, or `None`
    /// if the variable is unassigned.
    pub fn value(&self, v: Var) -> Option<bool> {
        match self.assign[v.index()] {
            1 => Some(true),
            -1 => Some(false),
            _ => None,
        }
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Adds a clause. Returns `false` if the clause system became trivially
    /// unsatisfiable. May be called between `solve` calls (the solver resets
    /// to decision level 0 first).
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        self.cancel_until(0);
        if !self.ok {
            return false;
        }
        let mut ls: Vec<Lit> = lits.to_vec();
        ls.sort_unstable();
        ls.dedup();
        // tautology / level-0 simplification
        let mut simplified = Vec::with_capacity(ls.len());
        for (i, &l) in ls.iter().enumerate() {
            if i + 1 < ls.len() && ls[i + 1] == !l {
                return true; // tautology: contains l and !l adjacent after sort
            }
            match self.lit_value(l) {
                1 => return true, // already satisfied at level 0
                -1 => {}          // falsified at level 0: drop
                _ => simplified.push(l),
            }
        }
        match simplified.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.unchecked_enqueue(simplified[0], None);
                if self.propagate().is_some() {
                    self.ok = false;
                    false
                } else {
                    true
                }
            }
            _ => {
                self.attach(simplified, false);
                true
            }
        }
    }

    fn attach(&mut self, lits: Vec<Lit>, learnt: bool) -> u32 {
        let cref = self.clauses.len() as u32;
        let w0 = Watcher {
            cref,
            blocker: lits[1],
        };
        let w1 = Watcher {
            cref,
            blocker: lits[0],
        };
        self.watches[(!lits[0]).code() as usize].push(w0);
        self.watches[(!lits[1]).code() as usize].push(w1);
        if learnt {
            self.learnt_refs.push(cref);
        }
        self.clauses.push(Clause {
            lits,
            learnt,
            deleted: false,
            activity: 0.0,
        });
        cref
    }

    fn unchecked_enqueue(&mut self, l: Lit, from: Option<u32>) {
        debug_assert_eq!(self.lit_value(l), L_UNDEF);
        let v = l.var().index();
        self.assign[v] = if l.is_neg() { -1 } else { 1 };
        self.level[v] = self.decision_level();
        self.reason[v] = from;
        self.trail.push(l);
    }

    /// Unit propagation; returns the conflicting clause reference on conflict.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.propagations += 1;
            let mut i = 0;
            let mut ws = std::mem::take(&mut self.watches[p.code() as usize]);
            let mut j = 0;
            let mut conflict = None;
            'outer: while i < ws.len() {
                let w = ws[i];
                i += 1;
                // quick check: blocker already true
                if self.lit_value(w.blocker) == 1 {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                let cref = w.cref as usize;
                if self.clauses[cref].deleted {
                    continue; // lazily drop watcher
                }
                // make sure the false literal is lits[1]
                let false_lit = !p;
                {
                    let c = &mut self.clauses[cref];
                    if c.lits[0] == false_lit {
                        c.lits.swap(0, 1);
                    }
                }
                let first = self.clauses[cref].lits[0];
                if first != w.blocker && self.lit_value(first) == 1 {
                    ws[j] = Watcher {
                        cref: w.cref,
                        blocker: first,
                    };
                    j += 1;
                    continue;
                }
                // look for a new watch
                let len = self.clauses[cref].lits.len();
                for k in 2..len {
                    let lk = self.clauses[cref].lits[k];
                    if self.lit_value(lk) != -1 {
                        self.clauses[cref].lits.swap(1, k);
                        self.watches[(!lk).code() as usize].push(Watcher {
                            cref: w.cref,
                            blocker: first,
                        });
                        continue 'outer;
                    }
                }
                // clause is unit or conflicting
                ws[j] = Watcher {
                    cref: w.cref,
                    blocker: first,
                };
                j += 1;
                if self.lit_value(first) == -1 {
                    // conflict: copy remaining watchers back and bail
                    while i < ws.len() {
                        ws[j] = ws[i];
                        j += 1;
                        i += 1;
                    }
                    conflict = Some(w.cref);
                } else {
                    self.unchecked_enqueue(first, Some(w.cref));
                }
            }
            ws.truncate(j);
            debug_assert!(self.watches[p.code() as usize].is_empty() || conflict.is_none());
            // merge watchers added while we were iterating (new watches for other lits
            // never target p's list, but be safe)
            let added = std::mem::replace(&mut self.watches[p.code() as usize], ws);
            self.watches[p.code() as usize].extend(added);
            if conflict.is_some() {
                self.qhead = self.trail.len();
                return conflict;
            }
        }
        None
    }

    fn cancel_until(&mut self, target: u32) {
        if self.decision_level() <= target {
            return;
        }
        let lim = self.trail_lim[target as usize];
        for idx in (lim..self.trail.len()).rev() {
            let l = self.trail[idx];
            let v = l.var();
            self.assign[v.index()] = L_UNDEF;
            self.polarity[v.index()] = !l.is_neg();
            self.reason[v.index()] = None;
            self.order.insert(v.0, &self.activity);
        }
        self.trail.truncate(lim);
        self.trail_lim.truncate(target as usize);
        self.qhead = self.trail.len();
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.increased(v.0, &self.activity);
    }

    fn bump_clause(&mut self, cref: u32) {
        let c = &mut self.clauses[cref as usize];
        c.activity += self.cla_inc;
        if c.activity > 1e20 {
            for &r in &self.learnt_refs {
                self.clauses[r as usize].activity *= 1e-20;
            }
            self.cla_inc *= 1e-20;
        }
    }

    /// First-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal first) and the backjump level.
    fn analyze(&mut self, conflict: u32) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit(0)]; // slot for the asserting literal
        let mut path_c = 0u32;
        let mut p: Option<Lit> = None;
        let mut confl = conflict;
        let mut index = self.trail.len();
        let mut to_clear: Vec<Var> = Vec::new();
        loop {
            if self.clauses[confl as usize].learnt {
                self.bump_clause(confl);
            }
            let lits = self.clauses[confl as usize].lits.clone();
            let start = if p.is_none() { 0 } else { 1 };
            for &q in &lits[start..] {
                let v = q.var();
                if !self.seen[v.index()] && self.level[v.index()] > 0 {
                    self.seen[v.index()] = true;
                    to_clear.push(v);
                    self.bump_var(v);
                    if self.level[v.index()] >= self.decision_level() {
                        path_c += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // next resolvent: most recent seen literal on the trail
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let pl = self.trail[index];
            p = Some(pl);
            self.seen[pl.var().index()] = false;
            path_c -= 1;
            if path_c == 0 {
                break;
            }
            confl = self.reason[pl.var().index()].expect("resolvent must have a reason");
        }
        learnt[0] = !p.unwrap();

        // clause minimisation: drop literals implied by the rest
        let mut kept = vec![learnt[0]];
        'lits: for &l in &learnt[1..] {
            if let Some(r) = self.reason[l.var().index()] {
                let rlits = &self.clauses[r as usize].lits;
                for &q in &rlits[1..] {
                    if !self.seen[q.var().index()] && self.level[q.var().index()] > 0 {
                        kept.push(l);
                        continue 'lits;
                    }
                }
                // all antecedents are already in the learnt clause: redundant
            } else {
                kept.push(l);
            }
        }
        let mut learnt = kept;

        for v in to_clear {
            self.seen[v.index()] = false;
        }

        // compute backjump level and move that literal to position 1
        let bt = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()]
        };
        (learnt, bt)
    }

    fn reduce_db(&mut self) {
        let mut refs = self.learnt_refs.clone();
        refs.retain(|&r| !self.clauses[r as usize].deleted);
        refs.sort_by(|&a, &b| {
            self.clauses[a as usize]
                .activity
                .partial_cmp(&self.clauses[b as usize].activity)
                .unwrap()
        });
        let target = refs.len() / 2;
        let mut removed = 0;
        for &r in refs.iter() {
            if removed >= target {
                break;
            }
            if self.is_locked(r) || self.clauses[r as usize].lits.len() <= 2 {
                continue;
            }
            self.clauses[r as usize].deleted = true;
            removed += 1;
        }
        self.learnt_refs
            .retain(|&r| !self.clauses[r as usize].deleted);
    }

    fn is_locked(&self, cref: u32) -> bool {
        let first = self.clauses[cref as usize].lits[0];
        self.lit_value(first) == 1 && self.reason[first.var().index()] == Some(cref)
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        while let Some(v) = self.order.pop_max(&self.activity) {
            if self.assign[v as usize] == L_UNDEF {
                return Some(Var(v));
            }
        }
        None
    }

    /// The assumption literals responsible for the most recent
    /// [`SolveResult::Unsat`] answer: a subset of the `assumptions` passed to
    /// [`Solver::solve_with_assumptions`] whose conjunction with the clause
    /// set is already unsatisfiable. Empty means the clauses alone are unsat
    /// (no assumption needed). Overwritten by every solve call.
    pub fn assumption_core(&self) -> &[Lit] {
        &self.assumption_core
    }

    /// Conflict analysis against a falsified assumption `p` (MiniSat's
    /// `analyzeFinal`): walks the trail backwards from the first decision,
    /// expanding reason clauses, and collects the assumption decisions the
    /// conflict ultimately rests on. Returns them as assumption literals
    /// (including `p` itself).
    fn analyze_final(&mut self, p: Lit) -> Vec<Lit> {
        let mut core = vec![p];
        if self.decision_level() == 0 {
            return core;
        }
        self.seen[p.var().index()] = true;
        let start = self.trail_lim[0];
        for idx in (start..self.trail.len()).rev() {
            let l = self.trail[idx];
            let v = l.var().index();
            if !self.seen[v] {
                continue;
            }
            self.seen[v] = false;
            match self.reason[v] {
                // a seen decision above level 0 is an assumption enqueue
                None => core.push(l),
                Some(cref) => {
                    let lits = self.clauses[cref as usize].lits.clone();
                    for &q in &lits[1..] {
                        if self.level[q.var().index()] > 0 {
                            self.seen[q.var().index()] = true;
                        }
                    }
                }
            }
        }
        self.seen[p.var().index()] = false;
        // defensive: clear any marks left below the walked range
        for l in &self.trail[..start] {
            self.seen[l.var().index()] = false;
        }
        core.sort_unstable();
        core.dedup();
        core
    }

    /// The Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
    fn luby(mut x: u64) -> u64 {
        let mut size = 1u64;
        let mut seq = 0u32;
        while size < x + 1 {
            seq += 1;
            size = 2 * size + 1;
        }
        while size - 1 != x {
            size = (size - 1) / 2;
            seq -= 1;
            x %= size;
        }
        1u64 << seq
    }

    /// Solves the current clause set.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with_assumptions(&[])
    }

    /// Solves under the given assumption literals. The assumptions only hold
    /// for this call; the learnt clauses persist.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.traced_search(assumptions, &mut NoTheory)
    }

    /// Solves under assumptions modulo `theory` (DPLL(T)). Theory conflicts
    /// are learnt as clauses inside the search. On [`SolveResult::Sat`] the
    /// full assignment stays on the trail so the caller can finish its
    /// theory work; call [`Solver::backtrack_theory`] before changing the
    /// clause set. Every other result leaves the solver at level 0 with the
    /// theory backtracked to match.
    pub fn solve_with_theory<T: Theory>(
        &mut self,
        assumptions: &[Lit],
        theory: &mut T,
    ) -> SolveResult {
        let result = self.traced_search(assumptions, theory);
        if result != SolveResult::Sat {
            self.backtrack_theory(theory);
        }
        result
    }

    /// Cuts the trail back to level 0 and tells `theory`, so the theory
    /// state matches the trail before clauses are added.
    pub fn backtrack_theory<T: Theory>(&mut self, theory: &mut T) {
        self.cancel_until(0);
        theory.backtrack(self.trail.len());
    }

    fn traced_search<T: Theory>(&mut self, assumptions: &[Lit], theory: &mut T) -> SolveResult {
        if !pins_trace::is_enabled() {
            return self.search(assumptions, theory);
        }
        // Tracing path: the engine makes thousands of SAT calls per query,
        // so per-call events are sampled — only calls that did real search
        // work are recorded. Exact counters still accumulate on the solver
        // and surface through the enclosing query's registry cells.
        let (c0, d0, p0, r0) = (
            self.conflicts,
            self.decisions,
            self.propagations,
            self.restarts,
        );
        let start = std::time::Instant::now();
        let result = self.search(assumptions, theory);
        let conflicts = self.conflicts - c0;
        if conflicts >= SAT_TRACE_MIN_CONFLICTS {
            let verdict = match result {
                SolveResult::Sat => "sat",
                SolveResult::Unsat => "unsat",
                SolveResult::Interrupted(_) => "interrupted",
            };
            pins_trace::point("sat.solve", || {
                vec![
                    ("dur_us", (start.elapsed().as_micros() as u64).into()),
                    ("conflicts", conflicts.into()),
                    ("decisions", (self.decisions - d0).into()),
                    ("propagations", (self.propagations - p0).into()),
                    ("restarts", (self.restarts - r0).into()),
                    ("vars", (self.num_vars() as u64).into()),
                    ("verdict", verdict.into()),
                ]
            });
        }
        result
    }

    /// Attaches a theory conflict clause so conflict analysis can resolve
    /// it: backjumps to the clause's highest level first, so the clause has
    /// a literal at the current decision level.
    fn learn_theory_clause<T: Theory>(&mut self, mut lits: Vec<Lit>, theory: &mut T) -> Learned {
        lits.sort_unstable();
        lits.dedup();
        lits.retain(|&l| self.level[l.var().index()] > 0);
        debug_assert!(lits.iter().all(|&l| self.lit_value(l) == -1));
        if lits.is_empty() {
            self.ok = false;
            return Learned::Unsat;
        }
        // the two highest-level literals become the watches
        lits.sort_by_key(|&l| std::cmp::Reverse(self.level[l.var().index()]));
        let top = self.level[lits[0].var().index()];
        if top < self.decision_level() {
            self.cancel_until(top);
            theory.backtrack(self.trail.len());
        }
        if lits.len() == 1 {
            self.cancel_until(0);
            theory.backtrack(self.trail.len());
            self.unchecked_enqueue(lits[0], None);
            return Learned::Unit;
        }
        Learned::Conflict(self.attach(lits, true))
    }

    /// The CDCL search loop behind [`Solver::solve_with_assumptions`] and
    /// [`Solver::solve_with_theory`].
    fn search<T: Theory>(&mut self, assumptions: &[Lit], theory: &mut T) -> SolveResult {
        self.cancel_until(0);
        theory.backtrack(self.trail.len());
        self.assumption_core.clear();
        if !self.ok {
            return SolveResult::Unsat;
        }
        if self.propagate().is_some() {
            self.ok = false;
            return SolveResult::Unsat;
        }
        let mut restart_count = 0u64;
        let mut conflicts_until_restart = 100 * Self::luby(restart_count);
        let mut conflicts_this_restart = 0u64;
        // a conflict clause from the theory's final check, analyzed at the
        // next loop head
        let mut final_conflict: Option<u32> = None;
        loop {
            let mut confl = match final_conflict.take() {
                Some(cref) => Some(cref),
                None => self.propagate(),
            };
            if confl.is_none() {
                match theory.propagate(&self.trail) {
                    Ok(()) => {}
                    Err(TheoryConflict::Stop(reason)) => return SolveResult::Interrupted(reason),
                    Err(TheoryConflict::Clause(lits)) => {
                        match self.learn_theory_clause(lits, theory) {
                            Learned::Unsat => return SolveResult::Unsat,
                            Learned::Unit => continue,
                            Learned::Conflict(cref) => confl = Some(cref),
                        }
                    }
                }
            }
            if let Some(confl) = confl {
                self.conflicts += 1;
                conflicts_this_restart += 1;
                // timeline sample: every 256th conflict process-wide, so a
                // long solve leaves a sparse trail of search-shape events
                // while the disabled path stays a single masked branch
                if self.conflicts & 0xFF == 0 {
                    pins_trace::point("sat.conflict.sample", || {
                        vec![
                            ("conflicts", self.conflicts.into()),
                            ("level", (self.decision_level() as u64).into()),
                            ("trail", (self.trail.len() as u64).into()),
                            ("learnts", (self.learnt_refs.len() as u64).into()),
                        ]
                    });
                }
                if let Err(reason) = self.budget.charge(1) {
                    return SolveResult::Interrupted(reason);
                }
                if self.decision_level() == 0 {
                    self.ok = false;
                    return SolveResult::Unsat;
                }
                let (learnt, bt) = self.analyze(confl);
                self.cancel_until(bt);
                theory.backtrack(self.trail.len());
                if learnt.len() == 1 {
                    self.unchecked_enqueue(learnt[0], None);
                } else {
                    let asserting = learnt[0];
                    let cref = self.attach(learnt, true);
                    self.bump_clause(cref);
                    self.unchecked_enqueue(asserting, Some(cref));
                }
                self.var_inc /= 0.95;
                self.cla_inc /= 0.999;
                if self.learnt_refs.len() as f64 >= self.max_learnts {
                    self.reduce_db();
                    self.max_learnts *= 1.1;
                }
            } else {
                if conflicts_this_restart >= conflicts_until_restart {
                    restart_count += 1;
                    self.restarts += 1;
                    pins_trace::point("sat.restart", || {
                        vec![
                            ("restart", restart_count.into()),
                            ("conflicts", self.conflicts.into()),
                            ("learnts", (self.learnt_refs.len() as u64).into()),
                        ]
                    });
                    conflicts_until_restart = 100 * Self::luby(restart_count);
                    conflicts_this_restart = 0;
                    self.cancel_until(0);
                    theory.backtrack(self.trail.len());
                    continue;
                }
                // decide: assumptions first, then VSIDS
                if (self.decision_level() as usize) < assumptions.len() {
                    let p = assumptions[self.decision_level() as usize];
                    match self.lit_value(p) {
                        1 => {
                            // already satisfied: open a dummy level
                            self.trail_lim.push(self.trail.len());
                        }
                        -1 => {
                            // the assumption is falsified by earlier
                            // assumptions + propagation: extract which ones
                            self.assumption_core = self.analyze_final(p);
                            return SolveResult::Unsat;
                        }
                        _ => {
                            self.trail_lim.push(self.trail.len());
                            self.unchecked_enqueue(p, None);
                        }
                    }
                } else {
                    // poll before popping the heap so an interrupt cannot
                    // lose an unassigned variable from the decision order
                    if let Err(reason) = self.budget.charge(1) {
                        return SolveResult::Interrupted(reason);
                    }
                    match self.pick_branch_var() {
                        None => match theory.final_check(&self.trail) {
                            Ok(()) => return SolveResult::Sat,
                            Err(TheoryConflict::Stop(reason)) => {
                                return SolveResult::Interrupted(reason)
                            }
                            Err(TheoryConflict::Clause(lits)) => {
                                // the final check's clause is resolved at the
                                // next loop head like a propagation conflict
                                match self.learn_theory_clause(lits, theory) {
                                    Learned::Unsat => return SolveResult::Unsat,
                                    Learned::Unit => {}
                                    Learned::Conflict(cref) => final_conflict = Some(cref),
                                }
                            }
                        },
                        Some(v) => {
                            self.decisions += 1;
                            self.trail_lim.push(self.trail.len());
                            let lit = Lit::new(v, self.polarity[v.index()]);
                            self.unchecked_enqueue(lit, None);
                        }
                    }
                }
            }
        }
    }
}
