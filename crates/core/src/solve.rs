//! The `solve` procedure (§2.3): reduces the synthesis constraints to SAT
//! over indicator variables and enumerates up to `m` verified solutions.
//!
//! Each unknown gets an exactly-one block of indicator variables over its
//! finite domain. The loop is a lazy CEGIS over indicators: a SAT model
//! proposes a full assignment; every constraint is verified by an SMT
//! validity query under that assignment (with memoization keyed on the
//! restricted assignment of the holes that actually occur in the
//! constraint); a failed constraint contributes a blocking clause over
//! exactly those holes — the generalization that makes the search converge.
//! The engine hands over constraints as the parts of its
//! [`Slicer`](crate::Slicer), so those are the holes the failing part can
//! observe, not every hole on its path.
//!
//! Verification goes through a persistent [`SmtSession`] owned by the
//! engine: the session carries the library axioms and the normalized-query
//! cache, so repeated validity checks across PINS iterations short-circuit.
//! With `workers >= 2` the per-constraint queries of one candidate are
//! dispatched in waves to a scoped thread pool (one forked session per
//! worker). Workers only *verify* — the blocking clause is still chosen as
//! the first failing constraint in index order, so the search trajectory
//! (and therefore the returned `Solution` set) is identical to the serial
//! run.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use pins_budget::StopReason;

use pins_ir::{EHoleId, PHoleId};
use pins_logic::TermId;
use pins_sat::{Lit, SolveResult, Solver as SatSolver, Var};
use pins_smt::SmtSession;
use pins_symexec::{apply_filler_term, MapFiller, SymCtx};
use pins_trace::{Counter, MetricsRegistry};

use crate::constraints::{Constraint, HoleSet};
use crate::domains::HoleDomains;
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

/// Timing and counting statistics from `solve`.
#[derive(Debug, Clone, Default)]
pub struct SolveStats {
    /// Time in SAT solving.
    pub sat_time: Duration,
    /// Time in SMT validity checking (the paper's "SMT reduction").
    pub smt_time: Duration,
    /// Number of SMT validity queries issued (excluding local memo hits).
    pub smt_queries: u64,
    /// Number of candidate assignments proposed by SAT.
    pub candidates_proposed: u64,
    /// Final SAT formula size (vars + literal occurrences).
    pub sat_size: usize,
    /// Normalized-query cache hits attributable to `solve` (parent session
    /// and workers combined).
    pub cache_hits: u64,
    /// Normalized-query cache misses attributable to `solve`.
    pub cache_misses: u64,
    /// Number of `solve` calls that reused solver/session state built by an
    /// earlier call (incremental reuse across PINS iterations).
    pub sessions_reused: u64,
    /// Size of the verification worker pool used (1 = serial).
    pub workers: usize,
    /// SMT queries issued by each parallel worker slot.
    pub worker_queries: Vec<u64>,
    /// Verification queries that panicked and were degraded to "constraint
    /// unverified" instead of aborting the search (serial and parallel).
    pub worker_panics: u64,
    /// Candidate-enumeration SAT solves interrupted by the shared budget.
    pub sat_interrupts: u64,
    /// The budget stop that ended the most recent `solve` call early, if any.
    pub last_stop: Option<StopReason>,
}

impl SolveStats {
    /// Reconstructs the `solve`-attributable statistics from a
    /// [`MetricsRegistry`] that a [`HoleSolver`] was bound to with
    /// [`HoleSolver::bind_metrics`]. `last_stop` is not a counter and comes
    /// back `None`; everything else mirrors the live struct.
    pub fn from_registry(registry: &MetricsRegistry) -> SolveStats {
        let worker_queries: Vec<u64> = {
            // `snapshot_prefixed` strips the prefix: keys are `{slot}.queries`
            let per_slot = registry.snapshot_prefixed("solve.worker.");
            let mut v = vec![0u64; per_slot.len()];
            for (key, n) in per_slot {
                if let Some(slot) = key
                    .strip_suffix(".queries")
                    .and_then(|idx| idx.parse::<usize>().ok())
                {
                    if slot < v.len() {
                        v[slot] = n;
                    }
                }
            }
            v
        };
        SolveStats {
            sat_time: registry.duration("phase.sat"),
            smt_time: registry.duration("phase.smt_reduction"),
            smt_queries: registry.get("solve.smt_queries"),
            candidates_proposed: registry.get("solve.candidates"),
            sat_size: registry.get("solve.sat_size") as usize,
            cache_hits: registry.get("solve.cache_hits"),
            cache_misses: registry.get("solve.cache_misses"),
            sessions_reused: registry.get("solve.sessions_reused"),
            workers: registry.get("solve.workers") as usize,
            worker_queries,
            worker_panics: registry.get("solve.worker_panics"),
            sat_interrupts: registry.get("solve.sat_interrupts"),
            last_stop: None,
        }
    }
}

/// Registry handles for the counters `solve` maintains. Detached by default
/// (every operation is a plain atomic bump on a private cell); bound to
/// shared registry cells by [`HoleSolver::bind_metrics`].
#[derive(Default)]
struct SolveMetrics {
    sat_time: Counter,
    smt_time: Counter,
    smt_queries: Counter,
    candidates: Counter,
    sat_size: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
    sessions_reused: Counter,
    workers: Counter,
    worker_panics: Counter,
    sat_interrupts: Counter,
    /// Kept to mint per-worker-slot counters (`solve.worker.{w}.queries`)
    /// lazily, since the pool size is only known at `solve` time.
    registry: Option<MetricsRegistry>,
}

impl SolveMetrics {
    fn bind(registry: &MetricsRegistry) -> SolveMetrics {
        SolveMetrics {
            sat_time: registry.counter("phase.sat"),
            smt_time: registry.counter("phase.smt_reduction"),
            smt_queries: registry.counter("solve.smt_queries"),
            candidates: registry.counter("solve.candidates"),
            sat_size: registry.counter("solve.sat_size"),
            cache_hits: registry.counter("solve.cache_hits"),
            cache_misses: registry.counter("solve.cache_misses"),
            sessions_reused: registry.counter("solve.sessions_reused"),
            workers: registry.counter("solve.workers"),
            worker_panics: registry.counter("solve.worker_panics"),
            sat_interrupts: registry.counter("solve.sat_interrupts"),
            registry: Some(registry.clone()),
        }
    }

    fn worker_slot(&self, w: usize) -> Counter {
        match &self.registry {
            Some(r) => r.counter(&format!("solve.worker.{w}.queries")),
            None => Counter::detached(),
        }
    }
}

/// Runs [`verify_one`] with panic isolation: a query that panics (e.g. a
/// poisoned constraint hitting an encoder `panic!`) degrades to `None`
/// ("unverified") instead of tearing down the solve. Used by BOTH the serial
/// and the parallel path so the two produce identical verdicts.
fn verify_one_isolated(
    ctx: &mut SymCtx,
    program: &pins_ir::Program,
    smt: &mut SmtSession,
    constraint: &Constraint,
    filler: &MapFiller,
) -> Option<bool> {
    catch_unwind(AssertUnwindSafe(|| {
        verify_one(ctx, program, smt, constraint, filler)
    }))
    .ok()
}

/// Verifies a single constraint under a filled-in candidate: substitutes the
/// filler into the hypotheses and goal, then asks the session for validity.
fn verify_one(
    ctx: &mut SymCtx,
    program: &pins_ir::Program,
    smt: &mut SmtSession,
    constraint: &Constraint,
    filler: &MapFiller,
) -> bool {
    let hyps: Vec<TermId> = constraint
        .hyps
        .iter()
        .map(|&h| apply_filler_term(ctx, program, h, filler))
        .collect();
    let goal = apply_filler_term(ctx, program, constraint.goal, filler);
    smt.entails(&mut ctx.arena, &hyps, goal)
}

/// A solution's choices restricted to the holes one constraint (or path)
/// mentions: `(is_expr, hole id, chosen candidate)` triples.
pub(crate) type RestrictedKey = Vec<(bool, u32, usize)>;

/// `s` restricted to `holes`.
pub(crate) fn restrict(holes: &HoleSet, s: &Solution) -> RestrictedKey {
    let exprs = holes.exprs.iter().map(|&h| (true, h, s.exprs[h as usize]));
    let preds = holes.preds.iter().map(|&h| (false, h, s.preds[h as usize]));
    exprs.chain(preds).collect()
}

/// The incremental hole solver, persistent across PINS iterations
/// (blocking clauses learned from old constraints remain valid as the
/// constraint set grows).
pub struct HoleSolver {
    sat: SatSolver,
    evars: Vec<Vec<Var>>,
    pvars: Vec<Vec<Var>>,
    /// `(constraint index, restricted assignment) -> verified?`
    cache: HashMap<(usize, RestrictedKey), bool>,
    holes_of: Vec<HoleSet>,
    /// Statistics accumulated across calls.
    pub stats: SolveStats,
    /// Registry handles mirroring `stats`; detached until
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
            cache: HashMap::new(),
            holes_of: Vec::new(),
            stats: SolveStats::default(),
            metrics: SolveMetrics::default(),
        }
    }

    /// Binds the solver's counters to shared cells in `registry` (keys
    /// `phase.sat`, `phase.smt_reduction`, `solve.*`). Subsequent `solve`
    /// calls bump those cells at event time — including the per-worker query
    /// counts folded back from the parallel verification pool — so the
    /// registry and the typed [`SolveStats`] stay consistent whether
    /// verification runs serial or parallel.
    pub fn bind_metrics(&mut self, registry: &MetricsRegistry) {
        self.metrics = SolveMetrics::bind(registry);
    }

    /// Registers the holes occurring in constraint `idx` (call once per new
    /// constraint, in order).
    pub fn register_constraint(&mut self, ctx: &SymCtx, idx: usize, c: &Constraint) {
        assert_eq!(
            idx,
            self.holes_of.len(),
            "constraints must register in order"
        );
        let terms = c.hyps.iter().copied().chain(std::iter::once(c.goal));
        self.holes_of.push(HoleSet::of(ctx, terms));
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

    fn restricted_key(&self, c: usize, s: &Solution) -> RestrictedKey {
        restrict(&self.holes_of[c], s)
    }

    /// Verifies one constraint under a solution, with memoization (serial
    /// path).
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
        let key = self.restricted_key(c, solution);
        if let Some(&v) = self.cache.get(&(c, key.clone())) {
            return v;
        }
        let filler = solution.to_filler(domains);
        let t0 = Instant::now();
        let valid = match verify_one_isolated(ctx, &session.composed, smt, &constraints[c], &filler)
        {
            Some(v) => v,
            None => {
                self.stats.worker_panics += 1;
                self.metrics.worker_panics.inc();
                false
            }
        };
        let dt = t0.elapsed();
        self.stats.smt_time += dt;
        self.metrics.smt_time.add_duration(dt);
        self.stats.smt_queries += 1;
        self.metrics.smt_queries.inc();
        self.cache.insert((c, key), valid);
        valid
    }

    /// Returns the index of the first constraint that fails under `s`, or
    /// `None` if all pass — the serial reference semantics that the parallel
    /// path must reproduce.
    #[allow(clippy::too_many_arguments)]
    fn first_failing(
        &mut self,
        ctx: &mut SymCtx,
        session: &Session,
        domains: &HoleDomains,
        constraints: &[Constraint],
        s: &Solution,
        smt: &mut SmtSession,
        workers: usize,
    ) -> Option<usize> {
        if workers >= 2 && constraints.len() >= 2 {
            return self.first_failing_parallel(
                ctx,
                session,
                domains,
                constraints,
                s,
                smt,
                workers,
            );
        }
        (0..constraints.len())
            .find(|&c| !self.verify(ctx, session, constraints, c, s, domains, smt))
    }

    /// Parallel verification: constraint indices are dispatched in waves of
    /// `workers * 2`; within a wave, uncached indices are split round-robin
    /// across scoped worker threads, each with its own cloned translation
    /// context and a forked session sharing the parent's query cache.
    ///
    /// Determinism: waves are processed in index order and the first wave
    /// containing a failure yields its *minimum* failing index, which is
    /// exactly the serial first-failure. Worker verdicts equal serial
    /// verdicts (verification is pure given constraint + filler), so the
    /// memo table converges to the same contents in either mode.
    #[allow(clippy::too_many_arguments)]
    fn first_failing_parallel(
        &mut self,
        ctx: &mut SymCtx,
        session: &Session,
        domains: &HoleDomains,
        constraints: &[Constraint],
        s: &Solution,
        smt: &mut SmtSession,
        workers: usize,
    ) -> Option<usize> {
        let n = constraints.len();
        let filler = s.to_filler(domains);
        let program = &session.composed;
        if self.stats.worker_queries.len() < workers {
            self.stats.worker_queries.resize(workers, 0);
        }
        let wave_size = workers * 2;
        let mut start = 0;
        while start < n {
            let end = n.min(start + wave_size);
            let wave: Vec<usize> = (start..end).collect();
            start = end;

            let mut results: HashMap<usize, bool> = HashMap::new();
            let mut keys: HashMap<usize, RestrictedKey> = HashMap::new();
            let mut pending: Vec<usize> = Vec::new();
            for &c in &wave {
                let key = self.restricted_key(c, s);
                if let Some(&v) = self.cache.get(&(c, key.clone())) {
                    results.insert(c, v);
                } else {
                    pending.push(c);
                }
                keys.insert(c, key);
            }

            if !pending.is_empty() {
                let t0 = Instant::now();
                let chunks: Vec<Vec<usize>> = (0..workers)
                    .map(|w| pending.iter().copied().skip(w).step_by(workers).collect())
                    .collect();
                type WorkerOutcome = (Vec<(usize, bool)>, u64, pins_smt::SessionStats);
                let outcomes: Vec<Result<WorkerOutcome, ()>> = std::thread::scope(|scope| {
                    let handles: Vec<_> = chunks
                        .iter()
                        .map(|chunk| {
                            let chunk = chunk.clone();
                            let mut wctx = ctx.clone();
                            let mut wsmt = smt.fork();
                            let filler = &filler;
                            scope.spawn(move || {
                                // per-query panic isolation, mirroring the
                                // serial path: a poisoned query counts as
                                // unverified and the worker moves on
                                let mut panics = 0u64;
                                let out: Vec<(usize, bool)> = chunk
                                    .into_iter()
                                    .map(|c| {
                                        let ok = verify_one_isolated(
                                            &mut wctx,
                                            program,
                                            &mut wsmt,
                                            &constraints[c],
                                            filler,
                                        )
                                        .unwrap_or_else(|| {
                                            panics += 1;
                                            false
                                        });
                                        (c, ok)
                                    })
                                    .collect();
                                (out, panics, wsmt.stats)
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().map_err(|_| ()))
                        .collect()
                });
                let dt = t0.elapsed();
                self.stats.smt_time += dt;
                self.metrics.smt_time.add_duration(dt);
                for (w, outcome) in outcomes.into_iter().enumerate() {
                    match outcome {
                        Ok((pairs, panics, wstats)) => {
                            self.stats.smt_queries += wstats.queries;
                            self.metrics.smt_queries.add(wstats.queries);
                            self.stats.worker_queries[w] += wstats.queries;
                            self.metrics.worker_slot(w).add(wstats.queries);
                            self.stats.worker_panics += panics;
                            self.metrics.worker_panics.add(panics);
                            // fold worker traffic into the parent session so
                            // its counters stay the single source of truth
                            smt.stats.absorb(&wstats);
                            for (c, ok) in pairs {
                                results.insert(c, ok);
                            }
                        }
                        Err(()) => {
                            // the whole worker died (a panic that escaped
                            // catch_unwind, e.g. a double panic): degrade its
                            // entire chunk to unverified rather than abort
                            self.stats.worker_panics += 1;
                            self.metrics.worker_panics.inc();
                            for &c in &chunks[w] {
                                results.insert(c, false);
                            }
                        }
                    }
                }
            }

            for &c in &wave {
                self.cache
                    .insert((c, keys.remove(&c).unwrap()), results[&c]);
            }
            if let Some(&c) = wave.iter().find(|&&c| !results[&c]) {
                return Some(c);
            }
        }
        None
    }

    /// Adds a blocking clause rejecting the restricted assignment of
    /// constraint `c` under `s` (every extension of that assignment fails
    /// the constraint too).
    fn block(&mut self, c: usize, s: &Solution, into_main: bool, snapshot: &mut SatSolver) {
        let holes = &self.holes_of[c];
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
        if into_main {
            self.sat.add_clause(&clause);
        }
    }

    /// Finds up to `m` solutions satisfying all constraints (Algorithm 1's
    /// `solve(C, Δp, Δe, m)`).
    ///
    /// `smt` is the engine's persistent session (it already carries the
    /// library axioms); `workers >= 2` enables the parallel verification
    /// path, which returns the same solutions in the same order as serial.
    #[allow(clippy::too_many_arguments)]
    pub fn solve(
        &mut self,
        ctx: &mut SymCtx,
        session: &Session,
        domains: &HoleDomains,
        constraints: &[Constraint],
        m: usize,
        smt: &mut SmtSession,
        workers: usize,
    ) -> Vec<Solution> {
        if self.stats.smt_queries > 0 || self.stats.candidates_proposed > 0 {
            self.stats.sessions_reused += 1;
            self.metrics.sessions_reused.inc();
        }
        self.stats.workers = self.stats.workers.max(workers.max(1));
        self.metrics.workers.record_max(workers.max(1) as u64);
        let before = smt.stats;
        // register any new constraints
        for (idx, constraint) in constraints.iter().enumerate().skip(self.holes_of.len()) {
            self.register_constraint(ctx, idx, constraint);
        }
        let mut found = Vec::new();
        self.stats.last_stop = None;
        let mut snapshot = self.sat.clone();
        // candidate enumeration runs under the session's shared budget, so a
        // deadline or cancellation interrupts SAT search too, not just SMT
        snapshot.set_budget(smt.budget().clone());
        loop {
            let t0 = Instant::now();
            let res = snapshot.solve();
            let dt = t0.elapsed();
            self.stats.sat_time += dt;
            self.metrics.sat_time.add_duration(dt);
            self.stats.sat_size = self.stats.sat_size.max(snapshot.formula_size());
            self.metrics
                .sat_size
                .record_max(snapshot.formula_size() as u64);
            match res {
                SolveResult::Unsat => break,
                SolveResult::Interrupted(reason) => {
                    self.stats.sat_interrupts += 1;
                    self.metrics.sat_interrupts.inc();
                    self.stats.last_stop = Some(reason);
                    break;
                }
                SolveResult::Sat => {
                    let s = Self::extract_solution(&snapshot, &self.evars, &self.pvars);
                    self.stats.candidates_proposed += 1;
                    self.metrics.candidates.inc();
                    if let Some(c) =
                        self.first_failing(ctx, session, domains, constraints, &s, smt, workers)
                    {
                        self.block(c, &s, true, &mut snapshot);
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
        // the session's own counters already include the worker traffic that
        // `absorb` folded back in, so this delta is identical whether
        // verification ran serial or parallel — and the registry mirror
        // therefore is too
        let hits = smt.stats.cache_hits - before.cache_hits;
        let misses = smt.stats.cache_misses - before.cache_misses;
        self.stats.cache_hits += hits;
        self.metrics.cache_hits.add(hits);
        self.stats.cache_misses += misses;
        self.metrics.cache_misses.add(misses);
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
