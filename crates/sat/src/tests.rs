use crate::{Lit, SolveResult, Solver, Theory, TheoryConflict, Var};
use pins_prng::SplitMix64;

/// Number of randomized cases to run: small by default so the hermetic
/// tier-1 run stays fast, larger under `--features heavy-tests`.
fn cases(light: usize, heavy: usize) -> usize {
    if cfg!(feature = "heavy-tests") {
        heavy
    } else {
        light
    }
}

fn vars(s: &mut Solver, n: usize) -> Vec<Var> {
    (0..n).map(|_| s.new_var()).collect()
}

#[test]
fn empty_formula_is_sat() {
    let mut s = Solver::new();
    assert_eq!(s.solve(), SolveResult::Sat);
}

#[test]
fn unit_clause_forces_value() {
    let mut s = Solver::new();
    let v = s.new_var();
    assert!(s.add_clause(&[Lit::neg(v)]));
    assert_eq!(s.solve(), SolveResult::Sat);
    assert_eq!(s.value(v), Some(false));
}

#[test]
fn contradictory_units_are_unsat() {
    let mut s = Solver::new();
    let v = s.new_var();
    assert!(s.add_clause(&[Lit::pos(v)]));
    assert!(!s.add_clause(&[Lit::neg(v)]));
    assert_eq!(s.solve(), SolveResult::Unsat);
}

#[test]
fn simple_implication_chain() {
    let mut s = Solver::new();
    let v = vars(&mut s, 5);
    for i in 0..4 {
        s.add_clause(&[Lit::neg(v[i]), Lit::pos(v[i + 1])]);
    }
    s.add_clause(&[Lit::pos(v[0])]);
    assert_eq!(s.solve(), SolveResult::Sat);
    for &x in &v {
        assert_eq!(s.value(x), Some(true));
    }
}

#[test]
#[allow(clippy::needless_range_loop)] // j indexes every pigeon's row
fn pigeonhole_3_into_2_is_unsat() {
    // 3 pigeons, 2 holes: p[i][j] = pigeon i in hole j
    let mut s = Solver::new();
    let p: Vec<Vec<Var>> = (0..3).map(|_| vars(&mut s, 2)).collect();
    for row in &p {
        s.add_clause(&[Lit::pos(row[0]), Lit::pos(row[1])]);
    }
    for j in 0..2 {
        for i1 in 0..3 {
            for i2 in (i1 + 1)..3 {
                s.add_clause(&[Lit::neg(p[i1][j]), Lit::neg(p[i2][j])]);
            }
        }
    }
    assert_eq!(s.solve(), SolveResult::Unsat);
}

#[test]
#[allow(clippy::needless_range_loop)] // j indexes every pigeon's row
fn pigeonhole_5_into_4_is_unsat() {
    let n = 5;
    let mut s = Solver::new();
    let p: Vec<Vec<Var>> = (0..n).map(|_| vars(&mut s, n - 1)).collect();
    for row in &p {
        let lits: Vec<Lit> = row.iter().map(|&v| Lit::pos(v)).collect();
        s.add_clause(&lits);
    }
    for j in 0..n - 1 {
        for i1 in 0..n {
            for i2 in (i1 + 1)..n {
                s.add_clause(&[Lit::neg(p[i1][j]), Lit::neg(p[i2][j])]);
            }
        }
    }
    assert_eq!(s.solve(), SolveResult::Unsat);
}

#[test]
fn tautologies_are_ignored() {
    let mut s = Solver::new();
    let v = s.new_var();
    assert!(s.add_clause(&[Lit::pos(v), Lit::neg(v)]));
    assert_eq!(s.num_clauses(), 0);
    assert_eq!(s.solve(), SolveResult::Sat);
}

#[test]
fn assumptions_restrict_but_do_not_persist() {
    let mut s = Solver::new();
    let a = s.new_var();
    let b = s.new_var();
    s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
    // unsat under both-false assumptions
    assert_eq!(
        s.solve_with_assumptions(&[Lit::neg(a), Lit::neg(b)]),
        SolveResult::Unsat
    );
    // still sat without them
    assert_eq!(s.solve(), SolveResult::Sat);
    // and sat under a single assumption, which the model must respect
    assert_eq!(s.solve_with_assumptions(&[Lit::neg(a)]), SolveResult::Sat);
    assert_eq!(s.value(a), Some(false));
    assert_eq!(s.value(b), Some(true));
}

#[test]
fn model_enumeration_with_blocking_clauses() {
    let mut s = Solver::new();
    let v = vars(&mut s, 3);
    // no constraints: 8 models
    let mut count = 0;
    while s.solve() == SolveResult::Sat {
        count += 1;
        assert!(count <= 8, "enumerated too many models");
        let blocking: Vec<Lit> = v
            .iter()
            .map(|&x| Lit::new(x, !s.value(x).unwrap()))
            .collect();
        if !s.add_clause(&blocking) {
            break;
        }
    }
    assert_eq!(count, 8);
}

#[test]
fn exactly_one_constraint() {
    let mut s = Solver::new();
    let v = vars(&mut s, 4);
    let all: Vec<Lit> = v.iter().map(|&x| Lit::pos(x)).collect();
    s.add_clause(&all);
    for i in 0..4 {
        for j in (i + 1)..4 {
            s.add_clause(&[Lit::neg(v[i]), Lit::neg(v[j])]);
        }
    }
    let mut models = 0;
    while s.solve() == SolveResult::Sat {
        models += 1;
        assert!(models <= 4);
        let trues: Vec<_> = v.iter().filter(|&&x| s.value(x) == Some(true)).collect();
        assert_eq!(trues.len(), 1);
        let blocking: Vec<Lit> = v
            .iter()
            .map(|&x| Lit::new(x, !s.value(x).unwrap()))
            .collect();
        if !s.add_clause(&blocking) {
            break;
        }
    }
    assert_eq!(models, 4);
}

#[test]
fn lit_negation_round_trips() {
    let v = Var(7);
    let l = Lit::pos(v);
    assert_eq!(!(!l), l);
    assert_eq!((!l).var(), v);
    assert!((!l).is_neg());
}

/// Brute-force satisfiability for cross-checking (up to ~12 variables).
fn brute_force(num_vars: usize, clauses: &[Vec<(usize, bool)>]) -> bool {
    'outer: for m in 0u32..(1 << num_vars) {
        for clause in clauses {
            let sat = clause
                .iter()
                .any(|&(v, positive)| ((m >> v) & 1 == 1) == positive);
            if !sat {
                continue 'outer;
            }
        }
        return true;
    }
    false
}

fn random_clause(rng: &mut SplitMix64, num_vars: usize) -> Vec<(usize, bool)> {
    let len = rng.gen_index(4) + 1;
    (0..len)
        .map(|_| (rng.gen_index(num_vars), rng.gen_bool(0.5)))
        .collect()
}

fn random_clauses(
    rng: &mut SplitMix64,
    num_vars: usize,
    min: usize,
    max: usize,
) -> Vec<Vec<(usize, bool)>> {
    let count = min + rng.gen_index(max - min);
    (0..count).map(|_| random_clause(rng, num_vars)).collect()
}

#[test]
fn solver_agrees_with_brute_force() {
    let mut rng = SplitMix64::new(0x5A7_0001);
    for _ in 0..cases(96, 512) {
        let clauses = random_clauses(&mut rng, 6, 1, 30);
        let mut s = Solver::new();
        let v = vars(&mut s, 6);
        let mut consistent = true;
        for clause in &clauses {
            let lits: Vec<Lit> = clause.iter().map(|&(i, pos)| Lit::new(v[i], pos)).collect();
            consistent &= s.add_clause(&lits);
        }
        let expected = brute_force(6, &clauses);
        let got = consistent && s.solve() == SolveResult::Sat;
        assert_eq!(got, expected, "disagreement on {clauses:?}");
        if got {
            // model must satisfy every clause
            for clause in &clauses {
                let ok = clause.iter().any(|&(i, pos)| s.value(v[i]) == Some(pos));
                assert!(ok, "model does not satisfy {clause:?}");
            }
        }
    }
}

#[test]
fn assumption_solving_matches_augmented_formula() {
    let mut rng = SplitMix64::new(0x5A7_0002);
    for _ in 0..cases(96, 512) {
        // solving with assumptions == solving with those units added
        let clauses = random_clauses(&mut rng, 5, 1, 20);
        let assumps: Vec<(usize, bool)> = (0..rng.gen_index(3))
            .map(|_| (rng.gen_index(5), rng.gen_bool(0.5)))
            .collect();
        let build = |extra: bool| {
            let mut s = Solver::new();
            let v = vars(&mut s, 5);
            let mut consistent = true;
            for clause in &clauses {
                let lits: Vec<Lit> = clause.iter().map(|&(i, pos)| Lit::new(v[i], pos)).collect();
                consistent &= s.add_clause(&lits);
            }
            if extra {
                for &(i, pos) in &assumps {
                    consistent &= s.add_clause(&[Lit::new(v[i], pos)]);
                }
            }
            (s, v, consistent)
        };
        let (mut s1, v1, c1) = build(false);
        let a: Vec<Lit> = assumps
            .iter()
            .map(|&(i, pos)| Lit::new(v1[i], pos))
            .collect();
        let r1 = c1 && s1.solve_with_assumptions(&a) == SolveResult::Sat;
        let (mut s2, _, c2) = build(true);
        let r2 = c2 && s2.solve() == SolveResult::Sat;
        assert_eq!(r1, r2, "assumption mismatch on {clauses:?} / {assumps:?}");
    }
}

/// A theory that accepts every assignment except, optionally, two true
/// literals among `amo` (at most one of them may hold). It mirrors the
/// trail it was told about and checks that the solver reports every cut
/// before the trail changes underneath it.
#[derive(Default)]
struct Mirror {
    seen: Vec<Lit>,
    cuts: Vec<usize>,
    amo: Vec<Var>,
}

impl Mirror {
    fn check(&self, trail: &[Lit]) -> Result<(), TheoryConflict> {
        let on: Vec<Lit> = trail
            .iter()
            .copied()
            .filter(|l| !l.is_neg() && self.amo.contains(&l.var()))
            .take(2)
            .collect();
        match on[..] {
            [a, b] => Err(TheoryConflict::Clause(vec![!a, !b])),
            _ => Ok(()),
        }
    }
}

impl Theory for Mirror {
    fn propagate(&mut self, trail: &[Lit]) -> Result<(), TheoryConflict> {
        assert!(
            trail.starts_with(&self.seen),
            "the trail changed without a backtrack: {:?} then {trail:?}",
            self.seen
        );
        self.seen = trail.to_vec();
        self.check(trail)
    }
    fn backtrack(&mut self, len: usize) {
        self.seen.truncate(len);
        self.cuts.push(len);
    }
    fn final_check(&mut self, trail: &[Lit]) -> Result<(), TheoryConflict> {
        self.check(trail)
    }
}

/// A solver whose only clauses are none, stopped at the full assignment
/// `x0 .. x4` made by assumptions: `x_i` is the decision of level `i + 1`.
fn five_levels() -> (Solver, Vec<Var>, Vec<Lit>, Mirror) {
    let mut s = Solver::new();
    let x = vars(&mut s, 5);
    let assumps: Vec<Lit> = x.iter().map(|&v| Lit::pos(v)).collect();
    let mut th = Mirror::default();
    assert_eq!(s.solve_with_theory(&assumps, &mut th), SolveResult::Sat);
    th.cuts.clear();
    (s, x, assumps, th)
}

#[test]
fn live_clause_with_two_open_literals_keeps_the_trail() {
    let (mut s, x, assumps, mut th) = five_levels();
    let (y, z) = (s.new_var(), s.new_var());
    s.add_clause_live(&[Lit::pos(y), Lit::pos(z), Lit::neg(x[2])], &mut th);
    assert!(th.cuts.is_empty(), "attach only: no backjump");
    assert_eq!((s.value(y), s.value(z)), (None, None));
    assert_eq!(s.resume_with_theory(&assumps, &mut th), SolveResult::Sat);
    assert!(s.value(y) == Some(true) || s.value(z) == Some(true));
}

#[test]
fn live_clause_satisfied_below_its_false_literals_keeps_the_trail() {
    let (mut s, x, assumps, mut th) = five_levels();
    // x1 is true at level 2, below the false literal of level 4
    s.add_clause_live(&[Lit::pos(x[1]), Lit::neg(x[3])], &mut th);
    assert!(th.cuts.is_empty(), "attach only: no backjump");
    assert_eq!(s.resume_with_theory(&assumps, &mut th), SolveResult::Sat);
}

#[test]
fn live_clause_with_one_open_literal_propagates_at_the_highest_false_level() {
    let (mut s, x, assumps, mut th) = five_levels();
    let y = s.new_var();
    s.add_clause_live(&[Lit::pos(y), Lit::neg(x[1]), Lit::neg(x[3])], &mut th);
    // back to level 4: x4 (level 5) is gone, y is implied
    assert_eq!(th.cuts, vec![4]);
    assert_eq!(s.value(x[4]), None);
    assert_eq!(s.value(y), Some(true));
    assert_eq!(s.resume_with_theory(&assumps, &mut th), SolveResult::Sat);
    assert_eq!(s.value(y), Some(true));
}

#[test]
fn live_clause_true_above_its_false_literals_is_propagated_lower() {
    let (mut s, x, assumps, mut th) = five_levels();
    // x4 is true at level 5, the false literals sit at levels 1 and 2
    s.add_clause_live(&[Lit::pos(x[4]), Lit::neg(x[0]), Lit::neg(x[1])], &mut th);
    assert_eq!(th.cuts, vec![2]);
    assert_eq!(s.value(x[2]), None);
    assert_eq!(s.value(x[4]), Some(true), "re-implied at level 2");
    assert_eq!(s.resume_with_theory(&assumps, &mut th), SolveResult::Sat);
}

#[test]
fn live_clause_false_under_the_trail_is_analyzed_on_resume() {
    let (mut s, x, assumps, mut th) = five_levels();
    s.add_clause_live(&[Lit::neg(x[1]), Lit::neg(x[3])], &mut th);
    assert_eq!(th.cuts, vec![4], "backjump to the clause's top level");
    assert_eq!(s.resume_with_theory(&assumps, &mut th), SolveResult::Unsat);
    let mut core = s.assumption_core().to_vec();
    core.sort_unstable();
    assert_eq!(core, vec![Lit::pos(x[1]), Lit::pos(x[3])]);
}

#[test]
fn live_unit_lemma_is_a_fact_that_survives_backjumps() {
    let (mut s, x, assumps, mut th) = five_levels();
    let (y, z) = (s.new_var(), s.new_var());
    s.add_clause_live(&[Lit::pos(y)], &mut th);
    assert!(th.cuts.is_empty(), "a unit over a new atom never backjumps");
    assert_eq!(s.value(y), Some(true));
    // this clause backjumps to level 1, below where y was enqueued
    s.add_clause_live(&[Lit::pos(z), Lit::neg(x[0])], &mut th);
    assert_eq!(th.cuts, vec![1]);
    assert_eq!(s.value(y), Some(true), "the unit fact is put back");
    // a false unit: backjump just below the level that falsified it
    th.cuts.clear();
    let (mut s2, x2, assumps2, mut th2) = five_levels();
    s2.add_clause_live(&[Lit::neg(x2[2])], &mut th2);
    assert_eq!(th2.cuts, vec![2]);
    assert_eq!(s2.value(x2[2]), Some(false));
    assert_eq!(
        s2.resume_with_theory(&assumps2, &mut th2),
        SolveResult::Unsat
    );
    assert_eq!(s2.assumption_core(), &[Lit::pos(x2[2])]);
    assert_eq!(s.resume_with_theory(&assumps, &mut th), SolveResult::Sat);
    assert_eq!((s.value(y), s.value(z)), (Some(true), Some(true)));
}

/// Random clause sets, solved modulo an at-most-one theory, extended after
/// every `Sat` with live clauses over old and new variables (units
/// included) and resumed: every verdict equals a fresh solve of the same
/// clauses, every `Sat` model satisfies every clause, and every unit
/// clause holds on the trail after each live attach.
#[test]
fn resumed_search_agrees_with_a_fresh_solve() {
    let mut rng = SplitMix64::new(0x5A7_0003);
    let mut resumes = 0;
    for case in 0..cases(300, 3000) {
        let mut s = Solver::new();
        let mut xs = vars(&mut s, 8);
        let mut clauses: Vec<Vec<(usize, bool)>> = random_clauses(&mut rng, 8, 1, 16);
        let amo: Vec<usize> = (0..8).filter(|_| rng.gen_bool(0.3)).collect();
        let assumps: Vec<(usize, bool)> = (0..rng.gen_index(3))
            .map(|_| (rng.gen_index(8), rng.gen_bool(0.5)))
            .collect();
        let lit = |xs: &[Var], &(i, pos): &(usize, bool)| Lit::new(xs[i], pos);
        for c in &clauses {
            let lits: Vec<Lit> = c.iter().map(|p| lit(&xs, p)).collect();
            s.add_clause(&lits);
        }
        let a: Vec<Lit> = assumps.iter().map(|p| lit(&xs, p)).collect();
        let mut th = Mirror {
            amo: amo.iter().map(|&i| xs[i]).collect(),
            ..Mirror::default()
        };
        let mut got = s.solve_with_theory(&a, &mut th);
        // live unit clauses; one that does not hold right after an attach
        // means the clause set is unsatisfiable (or the unit was lost)
        let mut units: Vec<(usize, bool)> = Vec::new();
        let mut dead = false;
        for _round in 0..4 {
            if got != SolveResult::Sat {
                break;
            }
            for _ in 0..1 + rng.gen_index(3) {
                if rng.gen_bool(0.3) {
                    xs.push(s.new_var());
                }
                let c = random_clause(&mut rng, xs.len());
                let lits: Vec<Lit> = c.iter().map(|p| lit(&xs, p)).collect();
                s.add_clause_live(&lits, &mut th);
                if c.len() == 1 {
                    units.push(c[0]);
                }
                clauses.push(c);
                dead |= units.iter().any(|&(i, pos)| s.value(xs[i]) != Some(pos));
            }
            got = s.resume_with_theory(&a, &mut th);
            resumes += 1;
        }
        let mut fresh = Solver::new();
        let fv = vars(&mut fresh, xs.len());
        for c in &clauses {
            let lits: Vec<Lit> = c.iter().map(|p| lit(&fv, p)).collect();
            fresh.add_clause(&lits);
        }
        for (k, &i) in amo.iter().enumerate() {
            for &j in &amo[k + 1..] {
                fresh.add_clause(&[Lit::neg(fv[i]), Lit::neg(fv[j])]);
            }
        }
        let fa: Vec<Lit> = assumps.iter().map(|p| lit(&fv, p)).collect();
        let want = fresh.solve_with_assumptions(&fa);
        assert_eq!(got, want, "case {case}: resumed vs fresh on {clauses:?}");
        assert!(
            !dead || want == SolveResult::Unsat,
            "case {case}: a unit fact was lost from the trail"
        );
        if got == SolveResult::Sat {
            for c in &clauses {
                assert!(
                    c.iter().any(|&(i, pos)| s.value(xs[i]) == Some(pos)),
                    "case {case}: model violates {c:?}"
                );
            }
            let on = amo
                .iter()
                .filter(|&&i| s.value(xs[i]) == Some(true))
                .count();
            assert!(on <= 1, "case {case}: theory model violates at-most-one");
        }
    }
    assert!(resumes > 0);
}
