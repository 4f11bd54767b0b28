//! The online theory state of one [`Smt::check`](crate::Smt::check): EUF
//! and the simplex, both backtrackable, driven from the CDCL trail through
//! the [`pins_sat::Theory`] hook.
//!
//! Atoms are compiled once, when they are recorded: each equality gets its
//! congruence-closure nodes, each arithmetic atom the simplex bound each
//! polarity stands for (one slack row per distinct linear form, sign
//! normalized so `e <= k` and `-e <= k'` share a row). Atoms may be recorded
//! at any decision level: node ids, linear views, `sel`/`upd` lists, simplex
//! variables, slack rows (definitions) and compiled atoms persist, and only
//! a node's seat in the current congruence classes is undone and redone by
//! a backtrack (see [`crate::euf`]). At every propagation fixpoint the state
//! first closes the congruences that registrations and re-seated nodes
//! queued, then asserts the new trail literals — one checkpoint per theory
//! literal — closes congruence, mirrors every new union of integer classes
//! into the simplex as a pair of trailed bounds, and checks disequalities
//! and rational feasibility. A conflict goes back to CDCL as a clause over
//! the trail literals that explain it (at level 0, an empty clause). A
//! backtrack restores the checkpoint of the first literal it removed; the
//! simplex keeps its assignment as the next warm start. The final check at
//! a full assignment runs branch-and-bound; the remaining final-check work
//! (lemmas, e-matching, theory combination, the model) needs the term arena
//! and is done by the solver on this live state.

use std::time::{Duration, Instant};

use pins_budget::{Budget, StopReason};
use pins_logic::{FxHashMap, Term, TermArena, TermId};
use pins_sat::{Lit, Theory, TheoryConflict, Var};

use crate::euf::{Euf, EufMark};
use crate::linear::linearize;
use crate::rational::Rat;
use crate::simplex::{Conflict, Lia};

/// Reason tags at or above this base name a live EUF union (whose
/// explanation is expanded on demand); below it they are SAT literal codes.
const SYNTH_BASE: u32 = 1 << 30;

/// One side of a linear atom, compiled against the simplex.
#[derive(Debug, Clone, Copy)]
enum Bound {
    /// Holds whatever the assignment (a constant comparison that is true).
    True,
    /// Never holds (a constant comparison that is false).
    False,
    /// The linear form overflowed `i64`: asserting it degrades the query.
    Overflow,
    /// `var <= value`.
    Upper(usize, Rat),
    /// `var >= value`.
    Lower(usize, Rat),
}

/// A recorded theory atom.
#[derive(Debug, Clone, Copy)]
enum Atom {
    /// `a = b` over non-boolean sorts; integer equalities also carry the
    /// bounds `a - b <= 0` and `b - a <= 0` asserted when the atom is true.
    Eq {
        a: u32,
        b: u32,
        int: Option<[Bound; 2]>,
    },
    /// A boolean application, equal to the `true` node when asserted.
    Pred { node: u32 },
    /// `Le`/`Lt`: the bound each polarity asserts.
    Arith { pos: Bound, neg: Bound },
}

/// A node's integer view: `constant + sum c * x` over simplex variables.
#[derive(Debug, Clone, Default)]
struct Lin {
    terms: Vec<(usize, i64)>,
    constant: i64,
    overflowed: bool,
}

/// Where a theory literal's assertion began, so a backtrack can undo it.
#[derive(Debug, Clone, Copy)]
struct Checkpoint {
    trail_idx: usize,
    euf: EufMark,
    lia: usize,
    synced: usize,
}

/// Time spent in each theory, and the conflicts returned to CDCL.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TheoryTimes {
    pub euf: Duration,
    pub lia: Duration,
    pub conflicts: u64,
}

/// The live EUF + simplex state of one check.
#[derive(Debug)]
pub(crate) struct TheoryState {
    pub euf: Euf,
    pub lia: Lia,
    /// Simplex variable of each opaque integer term.
    pub lvar: FxHashMap<TermId, usize>,
    /// Registered `sel` nodes as `(term, array, index)`.
    pub sels: Vec<(TermId, TermId, TermId)>,
    /// Registered `upd` nodes as `(term, array, index, value)`.
    pub upds: Vec<(TermId, TermId, TermId, TermId)>,
    /// Set by the last final check when branch-and-bound ran out of depth.
    pub int_incomplete: bool,
    pub times: TheoryTimes,
    atoms: Vec<Option<Atom>>,
    node_lin: Vec<Option<Lin>>,
    merge_bounds: FxHashMap<(u32, u32), [Bound; 2]>,
    tt: Option<u32>,
    /// Trail literals already asserted.
    seen: usize,
    checkpoints: Vec<Checkpoint>,
    /// Unions already mirrored into the simplex.
    synced: usize,
    budget: Budget,
    bb_depth: u32,
}

impl TheoryState {
    pub fn new(budget: Budget, bb_depth: u32) -> TheoryState {
        let mut lia = Lia::new();
        lia.set_budget(budget.clone());
        TheoryState {
            euf: Euf::new(),
            lia,
            lvar: FxHashMap::default(),
            sels: Vec::new(),
            upds: Vec::new(),
            int_incomplete: false,
            times: TheoryTimes::default(),
            atoms: Vec::new(),
            node_lin: Vec::new(),
            merge_bounds: FxHashMap::default(),
            tt: None,
            seen: 0,
            checkpoints: Vec::new(),
            synced: 0,
            budget,
            bb_depth,
        }
    }

    /// Compiles the atoms behind SAT variables, at any decision level. The
    /// congruences new terms complete are closed at the next `propagate`.
    pub fn record_atoms(&mut self, arena: &mut TermArena, atoms: &[(TermId, Var)]) {
        for &(t, v) in atoms {
            let atom = match arena.term(t).clone() {
                Term::Eq(a, b) if !arena.sort(a).is_bool() => {
                    let na = self.register(arena, a);
                    let nb = self.register(arena, b);
                    let int = arena.sort(a).is_int().then(|| self.eq_bounds(na, nb));
                    Some(Atom::Eq { a: na, b: nb, int })
                }
                Term::App(..) if arena.sort(t).is_bool() => {
                    let node = self.register(arena, t);
                    if self.tt.is_none() {
                        let tt = arena.mk_true();
                        self.tt = Some(self.register(arena, tt));
                    }
                    Some(Atom::Pred { node })
                }
                Term::Le(a, b) | Term::Lt(a, b) => {
                    let na = self.register(arena, a);
                    let nb = self.register(arena, b);
                    let strict = matches!(arena.term(t), Term::Lt(..));
                    // a - b <= 0 (or <= -1); negated: b - a <= -1 (or <= 0)
                    let (pos_k, neg_k) = if strict { (-1, 0) } else { (0, -1) };
                    let d = self.diff(na, nb);
                    let pos = self.compile_le(&d, pos_k);
                    let neg = self.compile_le(&negate(&d), neg_k);
                    Some(Atom::Arith { pos, neg })
                }
                _ => None,
            };
            let i = v.index();
            if self.atoms.len() <= i {
                self.atoms.resize(i + 1, None);
            }
            self.atoms[i] = atom;
        }
    }

    /// Registers `t`'s subterm DAG with EUF, giving every new integer node
    /// its linear view.
    fn register(&mut self, arena: &TermArena, t: TermId) -> u32 {
        let before = self.euf.num_nodes();
        let n = self.euf.add_term(arena, t);
        for node in before..self.euf.num_nodes() {
            let term = self.euf.term(node as u32);
            match arena.term(term) {
                Term::Sel(a, i) => self.sels.push((term, *a, *i)),
                Term::Upd(b, j, v) => self.upds.push((term, *b, *j, *v)),
                _ => {}
            }
            let lin = arena.sort(term).is_int().then(|| {
                let e = linearize(arena, term);
                let mut terms: Vec<(usize, i64)> = e
                    .coeffs
                    .iter()
                    .map(|(&o, &c)| {
                        let lia = &mut self.lia;
                        (*self.lvar.entry(o).or_insert_with(|| lia.new_var()), c)
                    })
                    .collect();
                terms.sort_unstable();
                Lin {
                    terms,
                    constant: e.constant,
                    overflowed: e.overflowed,
                }
            });
            self.node_lin.push(lin);
        }
        n
    }

    /// `lin(a) - lin(b)` for two integer nodes.
    fn diff(&self, a: u32, b: u32) -> Lin {
        let la = self.node_lin[a as usize].as_ref().expect("integer node");
        let lb = self.node_lin[b as usize].as_ref().expect("integer node");
        let mut out = Lin {
            terms: Vec::with_capacity(la.terms.len() + lb.terms.len()),
            overflowed: la.overflowed || lb.overflowed,
            constant: 0,
        };
        match la.constant.checked_sub(lb.constant) {
            Some(c) => out.constant = c,
            None => out.overflowed = true,
        }
        let (mut i, mut j) = (0, 0);
        while i < la.terms.len() || j < lb.terms.len() {
            let left = j == lb.terms.len() || (i < la.terms.len() && la.terms[i].0 < lb.terms[j].0);
            if left {
                out.terms.push(la.terms[i]);
                i += 1;
                continue;
            }
            let (v, c) = lb.terms[j];
            j += 1;
            let own = if i < la.terms.len() && la.terms[i].0 == v {
                i += 1;
                la.terms[i - 1].1
            } else {
                0
            };
            match own.checked_sub(c) {
                Some(0) => {}
                Some(d) => out.terms.push((v, d)),
                None => out.overflowed = true,
            }
        }
        out
    }

    /// The bounds `lin(a) - lin(b) = 0` asserts, compiled once per pair.
    fn eq_bounds(&mut self, a: u32, b: u32) -> [Bound; 2] {
        if let Some(&bs) = self.merge_bounds.get(&(a, b)) {
            return bs;
        }
        let d = self.diff(a, b);
        let bs = [self.compile_le(&d, 0), self.compile_le(&negate(&d), 0)];
        self.merge_bounds.insert((a, b), bs);
        bs
    }

    /// Compiles `lin <= rhs`: a constant verdict, a bound on a single
    /// variable (rounded to an integer), or a bound on the slack of the
    /// sign-normalized form.
    fn compile_le(&mut self, lin: &Lin, rhs: i64) -> Bound {
        if lin.overflowed {
            return Bound::Overflow;
        }
        let k = rhs as i128 - lin.constant as i128;
        match lin.terms.as_slice() {
            [] => {
                if k >= 0 {
                    Bound::True
                } else {
                    Bound::False
                }
            }
            &[(v, c)] => {
                let q = Rat::from_int128(k).checked_div(Rat::from_int(c));
                match q {
                    Some(q) if c > 0 => Bound::Upper(v, Rat::from_int128(q.floor())),
                    Some(q) => Bound::Lower(v, Rat::from_int128(q.ceil())),
                    None => Bound::Overflow,
                }
            }
            terms => {
                let flip = terms[0].1 < 0;
                let key: Option<Vec<(usize, i64)>> = if flip {
                    terms
                        .iter()
                        .map(|&(v, c)| c.checked_neg().map(|n| (v, n)))
                        .collect()
                } else {
                    Some(terms.to_vec())
                };
                let Some(key) = key else {
                    return Bound::Overflow;
                };
                match self.lia.slack_for(&key) {
                    Ok(s) if flip => Bound::Lower(s, Rat::from_int128(-k)),
                    Ok(s) => Bound::Upper(s, Rat::from_int128(k)),
                    Err(_) => Bound::Overflow,
                }
            }
        }
    }

    fn assert_bound(&mut self, b: Bound, reason: u32) -> Result<(), Conflict> {
        match b {
            Bound::True => Ok(()),
            Bound::False => Err(Conflict::Infeasible(vec![reason])),
            Bound::Overflow => Err(Conflict::Stopped(StopReason::Overflow)),
            Bound::Upper(v, c) => self.lia.assert_upper(v, c, reason),
            Bound::Lower(v, c) => self.lia.assert_lower(v, c, reason),
        }
    }

    /// Asserts one theory literal.
    fn assert_atom(&mut self, atom: Atom, value: bool, tag: u32) -> Result<(), Conflict> {
        match atom {
            Atom::Eq { a, b, int } => {
                if !value {
                    self.euf.diseq(a, b, tag);
                    return Ok(());
                }
                self.euf.merge(a, b, tag);
                if let Some([le, ge]) = int {
                    self.assert_bound(le, tag)?;
                    self.assert_bound(ge, tag)?;
                }
                Ok(())
            }
            Atom::Pred { node } => {
                let tt = self.tt.expect("true node registered with predicates");
                if value {
                    self.euf.merge(node, tt, tag);
                } else {
                    self.euf.diseq(node, tt, tag);
                }
                Ok(())
            }
            Atom::Arith { pos, neg } => self.assert_bound(if value { pos } else { neg }, tag),
        }
    }

    /// Closes congruence and mirrors the new unions of integer classes into
    /// the simplex: the edge `a -> b` asserts `lin(a) = lin(b)`, explained
    /// by the edge itself. Every class is spanned by its edges, so all its
    /// members end up equal in the simplex.
    fn sync(&mut self) -> Result<(), Conflict> {
        self.euf.close();
        while self.synced < self.euf.unions().len() {
            let i = self.synced;
            self.synced += 1;
            let (a, b, _) = self.euf.unions()[i];
            if self.node_lin[a as usize].is_some() {
                let [le, ge] = self.eq_bounds(a, b);
                let reason = SYNTH_BASE + i as u32;
                self.assert_bound(le, reason)?;
                self.assert_bound(ge, reason)?;
            }
        }
        Ok(())
    }

    /// Turns a theory conflict into a CDCL clause (or a stop), expanding
    /// union reasons into the literals behind them.
    fn conflict(&mut self, c: Conflict) -> TheoryConflict {
        match c {
            Conflict::Stopped(reason) => TheoryConflict::Stop(reason),
            Conflict::Infeasible(tags) => {
                self.times.conflicts += 1;
                if let Err(reason) = self.budget.charge(1) {
                    return TheoryConflict::Stop(reason);
                }
                let mut codes = Vec::with_capacity(tags.len());
                for t in tags {
                    if t >= SYNTH_BASE {
                        codes.extend(self.euf.explain_union((t - SYNTH_BASE) as usize));
                    } else {
                        codes.push(t);
                    }
                }
                codes.sort_unstable();
                codes.dedup();
                TheoryConflict::Clause(codes.into_iter().map(|t| !Lit::from_code(t)).collect())
            }
        }
    }

    /// Asserts the unseen trail literals, each theory literal after a
    /// checkpoint of its own.
    fn assert_new(&mut self, trail: &[Lit]) -> Result<(), Conflict> {
        while self.seen < trail.len() {
            let idx = self.seen;
            self.seen += 1;
            let lit = trail[idx];
            let Some(atom) = self.atoms.get(lit.var().index()).copied().flatten() else {
                continue;
            };
            self.checkpoints.push(Checkpoint {
                trail_idx: idx,
                euf: self.euf.mark(),
                lia: self.lia.mark(),
                synced: self.synced,
            });
            let t0 = Instant::now();
            self.assert_atom(atom, !lit.is_neg(), lit.code())?;
            self.euf.close();
            let t1 = Instant::now();
            self.sync()?;
            let t2 = Instant::now();
            match atom {
                Atom::Arith { .. } => self.times.lia += t1 - t0,
                _ => self.times.euf += t1 - t0,
            }
            self.times.lia += t2 - t1;
        }
        Ok(())
    }
}

fn negate(lin: &Lin) -> Lin {
    Lin {
        terms: lin
            .terms
            .iter()
            .map(|&(v, c)| (v, c.wrapping_neg()))
            .collect(),
        constant: lin.constant.wrapping_neg(),
        overflowed: lin.overflowed
            || lin.constant == i64::MIN
            || lin.terms.iter().any(|&(_, c)| c == i64::MIN),
    }
}

impl Theory for TheoryState {
    fn propagate(&mut self, trail: &[Lit]) -> Result<(), TheoryConflict> {
        // congruences queued by new registrations and re-seated nodes hold
        // at the current level, before any new literal
        if self.euf.has_pending() {
            let t0 = Instant::now();
            let queued = self.sync();
            self.times.euf += t0.elapsed();
            if let Err(c) = queued {
                return Err(self.conflict(c));
            }
        }
        if let Err(c) = self.assert_new(trail) {
            return Err(self.conflict(c));
        }
        let t0 = Instant::now();
        let euf = self.euf.check();
        let t1 = Instant::now();
        self.times.euf += t1 - t0;
        if let Err(tags) = euf {
            return Err(self.conflict(Conflict::Infeasible(tags)));
        }
        let lia = self.lia.check();
        self.times.lia += t1.elapsed();
        lia.map_err(|c| self.conflict(c))
    }

    fn backtrack(&mut self, len: usize) {
        let mut restore = None;
        while self.checkpoints.last().is_some_and(|c| c.trail_idx >= len) {
            restore = self.checkpoints.pop();
        }
        if let Some(c) = restore {
            self.euf.undo_to(c.euf);
            self.lia.backtrack(c.lia);
            self.synced = c.synced;
        }
        self.seen = self.seen.min(len);
    }

    fn final_check(&mut self, _trail: &[Lit]) -> Result<(), TheoryConflict> {
        let t0 = Instant::now();
        self.lia.int_incomplete = false;
        let out = self.lia.check_int(self.bb_depth);
        self.int_incomplete = self.lia.int_incomplete;
        self.times.lia += t0.elapsed();
        out.map_err(|c| self.conflict(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pins_logic::Sort;
    use pins_prng::SplitMix64;

    fn cases(light: usize, heavy: usize) -> usize {
        if cfg!(feature = "heavy-tests") {
            heavy
        } else {
            light
        }
    }

    /// A random pool of mixed atoms over four integers, an integer array,
    /// `f: Int -> Int` and `p: Int -> Bool`.
    fn atom_pool(arena: &mut TermArena, rng: &mut SplitMix64, n: usize) -> Vec<TermId> {
        let xs: Vec<TermId> = (0..4)
            .map(|i| {
                let s = arena.sym(&format!("x{i}"));
                arena.mk_var(s, 0, Sort::Int)
            })
            .collect();
        let a_sym = arena.sym("a");
        let a = arena.mk_var(a_sym, 0, Sort::IntArray);
        let f = arena.declare_fun("f", vec![Sort::Int], Sort::Int);
        let p = arena.declare_fun("p", vec![Sort::Int], Sort::Bool);
        let mut atoms = Vec::new();
        while atoms.len() < n {
            let x = |rng: &mut SplitMix64| xs[rng.gen_index(4)];
            let (i, j, k) = (x(rng), x(rng), x(rng));
            let c = arena.mk_int(rng.gen_range(-2..3));
            let atom = match rng.gen_index(10) {
                0 => arena.mk_eq(i, j),
                1 => arena.mk_eq(i, c),
                2 => {
                    let fi = arena.mk_app(f, vec![i]);
                    arena.mk_eq(fi, j)
                }
                3 => {
                    let s = arena.mk_sel(a, i);
                    arena.mk_eq(s, j)
                }
                4 => {
                    let u = arena.mk_upd(a, i, j);
                    let s = arena.mk_sel(u, k);
                    arena.mk_eq(s, c)
                }
                5 => {
                    let sum = arena.mk_add(i, j);
                    arena.mk_le(sum, c)
                }
                6 => arena.mk_lt(i, j),
                7 => {
                    let two = arena.mk_int(2);
                    let lhs = arena.mk_mul(two, i);
                    let rhs = arena.mk_add(j, c);
                    arena.mk_le(lhs, rhs)
                }
                8 => arena.mk_app(p, vec![i]),
                _ => {
                    let u = arena.mk_upd(a, i, j);
                    arena.mk_eq(a, u)
                }
            };
            // constant folding can turn an atom into true/false
            if matches!(
                arena.term(atom),
                Term::Eq(..) | Term::Le(..) | Term::Lt(..) | Term::App(..)
            ) && !atoms.contains(&atom)
            {
                atoms.push(atom);
            }
        }
        atoms
    }

    fn fresh(arena: &mut TermArena, atoms: &[(TermId, Var)]) -> TheoryState {
        let mut th = TheoryState::new(Budget::unlimited(), 40);
        th.record_atoms(arena, atoms);
        th
    }

    /// `Ok(complete)` when the literals are theory-consistent (`complete` =
    /// branch-and-bound settled integrality), else the conflict clause.
    fn verdict(th: &mut TheoryState, trail: &[Lit]) -> Result<bool, Vec<Lit>> {
        let out = th.propagate(trail).and_then(|()| th.final_check(trail));
        match out {
            Ok(()) => Ok(!th.int_incomplete),
            Err(TheoryConflict::Clause(c)) => Err(c),
            Err(TheoryConflict::Stop(r)) => panic!("unlimited budget stopped: {r}"),
        }
    }

    /// Random assert / new-level / backtrack / record sequences: after every
    /// step the live state's verdict equals that of a fresh state given the
    /// atoms recorded so far and only the literals on the trail, and every
    /// conflict clause's literals are inconsistent on their own. Most atoms
    /// are recorded mid-sequence, at whatever level the trail is on, so
    /// backtracks cut below their registration and re-seat their nodes.
    #[test]
    fn live_state_agrees_with_fresh_state_under_backtracking() {
        let mut conflicts = 0;
        let mut late = 0;
        for case in 0..cases(300, 5000) {
            let mut rng = SplitMix64::new(0x7e0_0000 + case as u64);
            let mut arena = TermArena::new();
            let pool = atom_pool(&mut arena, &mut rng, 18);
            let mut sat = pins_sat::Solver::new();
            let atoms: Vec<(TermId, Var)> = pool.iter().map(|&t| (t, sat.new_var())).collect();
            let mut recorded = 6;
            let mut live = fresh(&mut arena, &atoms[..recorded]);
            let mut trail: Vec<Lit> = Vec::new();
            let mut levels: Vec<usize> = Vec::new();
            for _step in 0..50 {
                match rng.gen_index(7) {
                    0 => levels.push(trail.len()),
                    1 if !levels.is_empty() => {
                        let to = rng.gen_index(levels.len());
                        trail.truncate(levels[to]);
                        levels.truncate(to);
                        live.backtrack(trail.len());
                    }
                    2 if recorded < atoms.len() => {
                        let n = (1 + rng.gen_index(3)).min(atoms.len() - recorded);
                        live.record_atoms(&mut arena, &atoms[recorded..recorded + n]);
                        recorded += n;
                        late += usize::from(!trail.is_empty());
                    }
                    _ => {
                        let free: Vec<Var> = atoms[..recorded]
                            .iter()
                            .map(|&(_, v)| v)
                            .filter(|&v| trail.iter().all(|l| l.var() != v))
                            .collect();
                        if free.is_empty() {
                            continue;
                        }
                        let v = free[rng.gen_index(free.len())];
                        trail.push(Lit::new(v, rng.gen_bool(0.5)));
                    }
                }
                let known = &atoms[..recorded];
                // a conflict is resolved the way CDCL would: by taking
                // literals back until the trail is consistent again
                loop {
                    let got = verdict(&mut live, &trail);
                    let want = verdict(&mut fresh(&mut arena, known), &trail);
                    match (&got, &want) {
                        (Ok(true), Err(_)) | (Err(_), Ok(true)) => {
                            panic!("case {case}: live {got:?} vs fresh {want:?} on {trail:?}")
                        }
                        _ => {}
                    }
                    let Err(clause) = got else { break };
                    conflicts += 1;
                    let expl: Vec<Lit> = clause.iter().map(|&l| !l).collect();
                    assert!(
                        expl.iter().all(|l| trail.contains(l)),
                        "case {case}: explanation {expl:?} not on the trail {trail:?}"
                    );
                    assert!(
                        !matches!(verdict(&mut fresh(&mut arena, known), &expl), Ok(true)),
                        "case {case}: explanation {expl:?} is consistent on its own"
                    );
                    if trail.is_empty() {
                        break; // the recorded atoms clash on their own
                    }
                    trail.pop();
                    levels.retain(|&l| l <= trail.len());
                    live.backtrack(trail.len());
                }
            }
        }
        assert!(conflicts > 0, "the generator never produced a conflict");
        assert!(late > 0, "no atom was recorded above the base level");
    }

    /// A sign-flipped linear form with an `i64::MIN` coefficient has no
    /// negation: the atom degrades the query instead of wrapping (or, in a
    /// debug build, panicking).
    #[test]
    fn unnegatable_coefficient_degrades_to_overflow() {
        let mut arena = TermArena::new();
        let (xs, ys) = (arena.sym("x"), arena.sym("y"));
        let (x, y) = (
            arena.mk_var(xs, 0, Sort::Int),
            arena.mk_var(ys, 0, Sort::Int),
        );
        let (zero, min) = (arena.mk_int(0), arena.mk_int(i64::MIN));
        // `x = 0` is recorded first, so `x` takes the lower simplex variable
        // and leads the form `-x + MIN*y` with a negative coefficient
        let x0 = arena.mk_eq(x, zero);
        let my = arena.mk_mul(min, y);
        let lhs = arena.mk_sub(my, x);
        let atom = arena.mk_le(lhs, zero);
        let mut sat = pins_sat::Solver::new();
        let (v0, v1) = (sat.new_var(), sat.new_var());
        let mut th = fresh(&mut arena, &[(x0, v0), (atom, v1)]);
        assert_eq!(
            th.propagate(&[Lit::pos(v1)]),
            Err(TheoryConflict::Stop(StopReason::Overflow))
        );
    }

    /// Terms registered above a checkpoint and congruent there are seated
    /// again when a backtrack removes the equality behind the congruence,
    /// and the congruence is found again once the equality comes back.
    #[test]
    fn congruence_among_reseated_nodes_is_found_again() {
        let mut arena = TermArena::new();
        let (xs, ys) = (arena.sym("x"), arena.sym("y"));
        let (x, y) = (
            arena.mk_var(xs, 0, Sort::Int),
            arena.mk_var(ys, 0, Sort::Int),
        );
        let f = arena.declare_fun("f", vec![Sort::Int], Sort::Int);
        let (fx, fy) = (arena.mk_app(f, vec![x]), arena.mk_app(f, vec![y]));
        let xy = arena.mk_eq(x, y);
        let fxy = arena.mk_eq(fx, fy);
        let mut sat = pins_sat::Solver::new();
        let (v0, v1) = (sat.new_var(), sat.new_var());
        let mut th = fresh(&mut arena, &[(xy, v0)]);
        let eq = Lit::pos(v0);
        assert_eq!(verdict(&mut th, &[eq]), Ok(true));
        // f(x) and f(y) are registered while x = y holds: congruent at once
        th.record_atoms(&mut arena, &[(fxy, v1)]);
        let diseq = Lit::neg(v1);
        assert_eq!(verdict(&mut th, &[eq, diseq]), Err(vec![!eq, !diseq]));
        // below x = y they are apart ...
        th.backtrack(0);
        assert_eq!(verdict(&mut th, &[diseq]), Ok(true));
        // ... and congruent again once it is back
        assert_eq!(verdict(&mut th, &[diseq, eq]), Err(vec![!eq, !diseq]));
    }
}
