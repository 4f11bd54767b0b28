use pins_logic::{Sort, TermArena, TermId};
use pins_prng::SplitMix64;

use crate::{SmtConfig, SmtResult, SmtSession};

fn cases(light: usize, heavy: usize) -> usize {
    if cfg!(feature = "heavy-tests") {
        heavy
    } else {
        light
    }
}

fn cfg() -> SmtConfig {
    SmtConfig::default()
}

fn int_var(a: &mut TermArena, name: &str) -> TermId {
    let s = a.sym(name);
    a.mk_var(s, 0, Sort::Int)
}

fn arr_var(a: &mut TermArena, name: &str) -> TermId {
    let s = a.sym(name);
    a.mk_var(s, 0, Sort::IntArray)
}

/// One-shot check of a conjunction through a fresh session (its cache is
/// its own, so tests stay independent of each other's cached verdicts).
fn check_formulas(
    arena: &mut TermArena,
    assertions: &[TermId],
    axioms: &[TermId],
    config: SmtConfig,
) -> SmtResult {
    let mut session = SmtSession::new(config);
    for &ax in axioms {
        session.assert_axiom(ax);
    }
    session.check_under(arena, assertions)
}

/// Whether `hyps |= goal` modulo `axioms`, via a fresh session's `entails`.
fn is_valid(
    arena: &mut TermArena,
    hyps: &[TermId],
    goal: TermId,
    axioms: &[TermId],
    config: SmtConfig,
) -> bool {
    let mut session = SmtSession::new(config);
    for &ax in axioms {
        session.assert_axiom(ax);
    }
    session.entails(arena, hyps, goal)
}

fn sat(arena: &mut TermArena, fs: &[TermId]) -> bool {
    check_formulas(arena, fs, &[], cfg()).is_sat()
}

fn unsat(arena: &mut TermArena, fs: &[TermId]) -> bool {
    check_formulas(arena, fs, &[], cfg()).is_unsat()
}

// ---------- pure boolean ----------

#[test]
fn boolean_tautology_negation_unsat() {
    let mut a = TermArena::new();
    let p = a.sym("p");
    let vp = a.mk_var(p, 0, Sort::Bool);
    let np = a.mk_not(vp);
    let taut = a.mk_or(vec![vp, np]);
    let neg = a.mk_not(taut);
    assert!(unsat(&mut a, &[neg]));
}

#[test]
fn boolean_equivalence_atoms() {
    let mut a = TermArena::new();
    let p = a.sym("p");
    let q = a.sym("q");
    let vp = a.mk_var(p, 0, Sort::Bool);
    let vq = a.mk_var(q, 0, Sort::Bool);
    let iff = a.mk_eq(vp, vq);
    let nq = a.mk_not(vq);
    // p <-> q, p, !q is unsat
    assert!(unsat(&mut a, &[iff, vp, nq]));
    // p <-> q, p, q is sat
    assert!(sat(&mut a, &[iff, vp, vq]));
}

// ---------- arithmetic ----------

#[test]
fn simple_bounds_sat_with_model() {
    let mut a = TermArena::new();
    let x = int_var(&mut a, "x");
    let two = a.mk_int(2);
    let five = a.mk_int(5);
    let lo = a.mk_lt(two, x);
    let hi = a.mk_lt(x, five);
    match check_formulas(&mut a, &[lo, hi], &[], cfg()) {
        SmtResult::Sat(m) => {
            let v = m.ints[&x];
            assert!(v > 2 && v < 5);
            assert!(m.complete);
        }
        other => panic!("expected sat, got {other:?}"),
    }
}

#[test]
fn contradictory_bounds_unsat() {
    let mut a = TermArena::new();
    let x = int_var(&mut a, "x");
    let five = a.mk_int(5);
    let three = a.mk_int(3);
    let lo = a.mk_ge(x, five);
    let hi = a.mk_le(x, three);
    assert!(unsat(&mut a, &[lo, hi]));
}

#[test]
fn integers_have_no_middle() {
    // 2 < x and x < 4 forces x = 3; x != 3 makes it unsat (needs b&b/splits)
    let mut a = TermArena::new();
    let x = int_var(&mut a, "x");
    let two = a.mk_int(2);
    let four = a.mk_int(4);
    let three = a.mk_int(3);
    let lo = a.mk_lt(two, x);
    let hi = a.mk_lt(x, four);
    let ne = a.mk_neq(x, three);
    assert!(unsat(&mut a, &[lo, hi, ne]));
}

#[test]
fn linear_system_solved() {
    // x + y = 10, x - y = 4  =>  x = 7, y = 3
    let mut a = TermArena::new();
    let x = int_var(&mut a, "x");
    let y = int_var(&mut a, "y");
    let sum = a.mk_add(x, y);
    let diff = a.mk_sub(x, y);
    let ten = a.mk_int(10);
    let four = a.mk_int(4);
    let e1 = a.mk_eq(sum, ten);
    let e2 = a.mk_eq(diff, four);
    match check_formulas(&mut a, &[e1, e2], &[], cfg()) {
        SmtResult::Sat(m) => {
            assert_eq!(m.ints[&x], 7);
            assert_eq!(m.ints[&y], 3);
        }
        other => panic!("expected sat, got {other:?}"),
    }
}

#[test]
fn parity_conflict_via_branch_and_bound() {
    // 2x = 2y + 1 has no integer solution
    let mut a = TermArena::new();
    let x = int_var(&mut a, "x");
    let y = int_var(&mut a, "y");
    let two = a.mk_int(2);
    let lhs = a.mk_mul(two, x);
    let ty = a.mk_mul(two, y);
    let one = a.mk_int(1);
    let rhs = a.mk_add(ty, one);
    let eq = a.mk_eq(lhs, rhs);
    assert!(unsat(&mut a, &[eq]));
}

#[test]
fn implication_validity() {
    // x > 5 |= x > 3
    let mut a = TermArena::new();
    let x = int_var(&mut a, "x");
    let five = a.mk_int(5);
    let three = a.mk_int(3);
    let hyp = a.mk_gt(x, five);
    let goal = a.mk_gt(x, three);
    assert!(is_valid(&mut a, &[hyp], goal, &[], cfg()));
    // and the converse is not valid
    assert!(!is_valid(&mut a, &[goal], hyp, &[], cfg()));
}

// ---------- EUF ----------

#[test]
fn congruence_unsat() {
    let mut a = TermArena::new();
    let f = a.declare_fun("f", vec![Sort::Int], Sort::Int);
    let x = int_var(&mut a, "x");
    let y = int_var(&mut a, "y");
    let fx = a.mk_app(f, vec![x]);
    let fy = a.mk_app(f, vec![y]);
    let exy = a.mk_eq(x, y);
    let dfxy = a.mk_neq(fx, fy);
    assert!(unsat(&mut a, &[exy, dfxy]));
    // without x=y it is satisfiable
    let mut a2 = TermArena::new();
    let f = a2.declare_fun("f", vec![Sort::Int], Sort::Int);
    let x = int_var(&mut a2, "x");
    let y = int_var(&mut a2, "y");
    let fx = a2.mk_app(f, vec![x]);
    let fy = a2.mk_app(f, vec![y]);
    let dfxy = a2.mk_neq(fx, fy);
    assert!(sat(&mut a2, &[dfxy]));
}

#[test]
fn arithmetic_implies_congruence() {
    // x <= y, y <= x, f(x) != f(y): needs LIA->EUF combination
    let mut a = TermArena::new();
    let f = a.declare_fun("f", vec![Sort::Int], Sort::Int);
    let x = int_var(&mut a, "x");
    let y = int_var(&mut a, "y");
    let le1 = a.mk_le(x, y);
    let le2 = a.mk_le(y, x);
    let fx = a.mk_app(f, vec![x]);
    let fy = a.mk_app(f, vec![y]);
    let ne = a.mk_neq(fx, fy);
    assert!(unsat(&mut a, &[le1, le2, ne]));
}

#[test]
fn congruence_with_offset_arguments() {
    // i = j implies f(i+1) = f(j+1)
    let mut a = TermArena::new();
    let f = a.declare_fun("f", vec![Sort::Int], Sort::Int);
    let i = int_var(&mut a, "i");
    let j = int_var(&mut a, "j");
    let one = a.mk_int(1);
    let i1 = a.mk_add(i, one);
    let j1 = a.mk_add(j, one);
    let fi = a.mk_app(f, vec![i1]);
    let fj = a.mk_app(f, vec![j1]);
    let eij = a.mk_eq(i, j);
    let ne = a.mk_neq(fi, fj);
    assert!(unsat(&mut a, &[eij, ne]));
}

#[test]
fn boolean_predicates_respect_congruence() {
    let mut a = TermArena::new();
    let p = a.declare_fun("p", vec![Sort::Int], Sort::Bool);
    let x = int_var(&mut a, "x");
    let y = int_var(&mut a, "y");
    let px = a.mk_app(p, vec![x]);
    let py = a.mk_app(p, vec![y]);
    let exy = a.mk_eq(x, y);
    let npy = a.mk_not(py);
    assert!(unsat(&mut a, &[exy, px, npy]));
}

// ---------- arrays ----------

#[test]
fn read_over_write_same_index() {
    let mut a = TermArena::new();
    let arr = arr_var(&mut a, "A");
    let i = int_var(&mut a, "i");
    let v = int_var(&mut a, "v");
    let upd = a.mk_upd(arr, i, v);
    let read = a.mk_sel(upd, i); // folds to v in the arena
    let ne = a.mk_neq(read, v);
    assert!(unsat(&mut a, &[ne]));
}

#[test]
fn read_over_write_distinct_symbolic_indices() {
    // i != j  =>  sel(upd(A, i, v), j) = sel(A, j)
    let mut a = TermArena::new();
    let arr = arr_var(&mut a, "A");
    let i = int_var(&mut a, "i");
    let j = int_var(&mut a, "j");
    let v = int_var(&mut a, "v");
    let upd = a.mk_upd(arr, i, v);
    let lhs = a.mk_sel(upd, j);
    let rhs = a.mk_sel(arr, j);
    let neij = a.mk_neq(i, j);
    let ne = a.mk_neq(lhs, rhs);
    assert!(unsat(&mut a, &[neij, ne]));
}

#[test]
fn read_over_write_aliased_indices() {
    // i = j  =>  sel(upd(A, i, v), j) = v
    let mut a = TermArena::new();
    let arr = arr_var(&mut a, "A");
    let i = int_var(&mut a, "i");
    let j = int_var(&mut a, "j");
    let v = int_var(&mut a, "v");
    let upd = a.mk_upd(arr, i, v);
    let lhs = a.mk_sel(upd, j);
    let eij = a.mk_eq(i, j);
    let ne = a.mk_neq(lhs, v);
    assert!(unsat(&mut a, &[eij, ne]));
}

#[test]
fn array_assignment_chain() {
    // A1 = upd(A0, 0, 7), x = sel(A1, 0), x != 7 is unsat
    let mut a = TermArena::new();
    let a0 = arr_var(&mut a, "A0");
    let a1 = arr_var(&mut a, "A1");
    let zero = a.mk_int(0);
    let seven = a.mk_int(7);
    let upd = a.mk_upd(a0, zero, seven);
    let easgn = a.mk_eq(a1, upd);
    let x = int_var(&mut a, "x");
    let sel = a.mk_sel(a1, zero);
    let ex = a.mk_eq(x, sel);
    let ne = a.mk_neq(x, seven);
    assert!(unsat(&mut a, &[easgn, ex, ne]));
}

#[test]
fn array_two_writes_last_wins() {
    // A2 = upd(upd(A0, i, 1), i, 2); sel(A2, i) != 2 unsat
    let mut a = TermArena::new();
    let a0 = arr_var(&mut a, "A0");
    let i = int_var(&mut a, "i");
    let one = a.mk_int(1);
    let two = a.mk_int(2);
    let u1 = a.mk_upd(a0, i, one);
    let u2 = a.mk_upd(u1, i, two);
    let s = a.mk_sel(u2, i);
    let ne = a.mk_neq(s, two);
    assert!(unsat(&mut a, &[ne]));
}

#[test]
fn array_writes_preserve_other_cells() {
    // A1 = upd(A0, i, v); j != i; sel(A1, j) != sel(A0, j) unsat
    let mut a = TermArena::new();
    let a0 = arr_var(&mut a, "A0");
    let a1 = arr_var(&mut a, "A1");
    let i = int_var(&mut a, "i");
    let j = int_var(&mut a, "j");
    let v = int_var(&mut a, "v");
    let u = a.mk_upd(a0, i, v);
    let easgn = a.mk_eq(a1, u);
    let ne_ij = a.mk_neq(i, j);
    let s1 = a.mk_sel(a1, j);
    let s0 = a.mk_sel(a0, j);
    let ne = a.mk_neq(s1, s0);
    assert!(unsat(&mut a, &[easgn, ne_ij, ne]));
}

// ---------- quantified axioms ----------

#[test]
fn axiom_drives_unsat() {
    // forall s. strlen(s) >= 0; strlen(w) = -1 is unsat
    let mut a = TermArena::new();
    let str_sort = Sort::Unint(a.sym("Str"));
    let strlen = a.declare_fun("strlen", vec![str_sort], Sort::Int);
    let s = a.sym("s");
    let bs = a.mk_bound(s, str_sort);
    let app = a.mk_app(strlen, vec![bs]);
    let zero = a.mk_int(0);
    let body = a.mk_ge(app, zero);
    let ax = a.mk_forall(vec![(s, str_sort)], body);

    let w = a.sym("w");
    let vw = a.mk_var(w, 0, str_sort);
    let lw = a.mk_app(strlen, vec![vw]);
    let minus1 = a.mk_int(-1);
    let bad = a.mk_eq(lw, minus1);
    assert!(check_formulas(&mut a, &[bad], &[ax], cfg()).is_unsat());
}

#[test]
fn strlen_append_axiom() {
    // forall s, c. strlen(append(s,c)) = strlen(s) + 1
    // strlen(w) = 3 and strlen(append(w, c)) != 4 is unsat
    let mut a = TermArena::new();
    let str_sort = Sort::Unint(a.sym("Str"));
    let ch_sort = Sort::Unint(a.sym("Char"));
    let strlen = a.declare_fun("strlen", vec![str_sort], Sort::Int);
    let append = a.declare_fun("append", vec![str_sort, ch_sort], str_sort);
    let s = a.sym("s");
    let c = a.sym("c");
    let bs = a.mk_bound(s, str_sort);
    let bc = a.mk_bound(c, ch_sort);
    let app = a.mk_app(append, vec![bs, bc]);
    let l1 = a.mk_app(strlen, vec![app]);
    let l0 = a.mk_app(strlen, vec![bs]);
    let one = a.mk_int(1);
    let l0p1 = a.mk_add(l0, one);
    let body = a.mk_eq(l1, l0p1);
    let ax = a.mk_forall(vec![(s, str_sort), (c, ch_sort)], body);

    let w = a.sym("w");
    let d = a.sym("d");
    let vw = a.mk_var(w, 0, str_sort);
    let vd = a.mk_var(d, 0, ch_sort);
    let lw = a.mk_app(strlen, vec![vw]);
    let three = a.mk_int(3);
    let h1 = a.mk_eq(lw, three);
    let appended = a.mk_app(append, vec![vw, vd]);
    let lap = a.mk_app(strlen, vec![appended]);
    let four = a.mk_int(4);
    let h2 = a.mk_neq(lap, four);
    assert!(check_formulas(&mut a, &[h1, h2], &[ax], cfg()).is_unsat());
}

#[test]
fn trig_axiom_for_rotation() {
    // forall t. cos(t)*cos(t) + sin(t)*sin(t) = 1, as used by Vector rotate
    let mut a = TermArena::new();
    let angle = Sort::Unint(a.sym("Angle"));
    let cos = a.declare_fun("cos", vec![angle], Sort::Int); // abstract reals
    let sin = a.declare_fun("sin", vec![angle], Sort::Int);
    let t = a.sym("t");
    let bt = a.mk_bound(t, angle);
    let ct = a.mk_app(cos, vec![bt]);
    let st = a.mk_app(sin, vec![bt]);
    let c2 = a.mk_mul(ct, ct);
    let s2 = a.mk_mul(st, st);
    let sum = a.mk_add(c2, s2);
    let one = a.mk_int(1);
    let body = a.mk_eq(sum, one);
    let ax = a.mk_forall(vec![(t, angle)], body);

    // with theta concrete: cos(theta)^2 + sin(theta)^2 = 2 is unsat
    let th = a.sym("theta");
    let vth = a.mk_var(th, 0, angle);
    let cth = a.mk_app(cos, vec![vth]);
    let sth = a.mk_app(sin, vec![vth]);
    let c2g = a.mk_mul(cth, cth);
    let s2g = a.mk_mul(sth, sth);
    let sumg = a.mk_add(c2g, s2g);
    let two = a.mk_int(2);
    let bad = a.mk_eq(sumg, two);
    assert!(check_formulas(&mut a, &[bad], &[ax], cfg()).is_unsat());
}

// ---------- negated quantifier (spec-shaped goals) ----------

#[test]
fn identity_spec_validity() {
    // A' = upd(A, 0, sel(A, 0)) |= forall k. sel(A', k) = sel(A, k)
    let mut a = TermArena::new();
    let arr = arr_var(&mut a, "A");
    let arr2 = arr_var(&mut a, "Aprime");
    let zero = a.mk_int(0);
    let s0 = a.mk_sel(arr, zero);
    let u = a.mk_upd(arr, zero, s0);
    let hyp = a.mk_eq(arr2, u);
    let k = a.sym("k");
    let bk = a.mk_bound(k, Sort::Int);
    let sk2 = a.mk_sel(arr2, bk);
    let sk = a.mk_sel(arr, bk);
    let body = a.mk_eq(sk2, sk);
    let goal = a.mk_forall(vec![(k, Sort::Int)], body);
    assert!(is_valid(&mut a, &[hyp], goal, &[], cfg()));
}

#[test]
fn identity_spec_invalid_when_element_changed() {
    // A' = upd(A, 0, sel(A,0) + 1) does NOT satisfy the identity spec
    let mut a = TermArena::new();
    let arr = arr_var(&mut a, "A");
    let arr2 = arr_var(&mut a, "Aprime");
    let zero = a.mk_int(0);
    let s0 = a.mk_sel(arr, zero);
    let one = a.mk_int(1);
    let s0p = a.mk_add(s0, one);
    let u = a.mk_upd(arr, zero, s0p);
    let hyp = a.mk_eq(arr2, u);
    let k = a.sym("k");
    let bk = a.mk_bound(k, Sort::Int);
    let sk2 = a.mk_sel(arr2, bk);
    let sk = a.mk_sel(arr, bk);
    let body = a.mk_eq(sk2, sk);
    let goal = a.mk_forall(vec![(k, Sort::Int)], body);
    assert!(!is_valid(&mut a, &[hyp], goal, &[], cfg()));
}

#[test]
fn bounded_identity_spec_validity() {
    // n <= 0 |= forall k. 0 <= k < n => sel(A', k) = sel(A, k)   (vacuous)
    let mut a = TermArena::new();
    let arr = arr_var(&mut a, "A");
    let arr2 = arr_var(&mut a, "Aprime");
    let n = int_var(&mut a, "n");
    let zero = a.mk_int(0);
    let hyp = a.mk_le(n, zero);
    let k = a.sym("k");
    let bk = a.mk_bound(k, Sort::Int);
    let lo = a.mk_le(zero, bk);
    let hi = a.mk_lt(bk, n);
    let range = a.mk_and(vec![lo, hi]);
    let sk2 = a.mk_sel(arr2, bk);
    let sk = a.mk_sel(arr, bk);
    let eq = a.mk_eq(sk2, sk);
    let body = a.mk_implies(range, eq);
    let goal = a.mk_forall(vec![(k, Sort::Int)], body);
    assert!(is_valid(&mut a, &[hyp], goal, &[], cfg()));
}

// ---------- mixed / regression shapes from PINS paths ----------

#[test]
fn versioned_path_condition_shape() {
    // A PINS-style path: n@0 >= 0, i@1 = 0, m@1 = 0, i@1 >= n@0 (loop skipped),
    // goal n@0 = 0 is implied (n >= 0 and 0 >= n).
    let mut a = TermArena::new();
    let n = int_var(&mut a, "n");
    let i_sym = a.sym("i");
    let i1 = a.mk_var(i_sym, 1, Sort::Int);
    let zero = a.mk_int(0);
    let h1 = a.mk_ge(n, zero);
    let h2 = a.mk_eq(i1, zero);
    let h3 = a.mk_ge(i1, n);
    let goal = a.mk_eq(n, zero);
    assert!(is_valid(&mut a, &[h1, h2, h3], goal, &[], cfg()));
}

#[test]
fn unsat_core_behaviour_over_many_irrelevant_facts() {
    let mut a = TermArena::new();
    let x = int_var(&mut a, "x");
    let mut hyps = Vec::new();
    // lots of satisfiable noise
    for k in 0..20 {
        let v = int_var(&mut a, &format!("noise{k}"));
        let c = a.mk_int(k);
        hyps.push(a.mk_ge(v, c));
    }
    let three = a.mk_int(3);
    let four = a.mk_int(4);
    hyps.push(a.mk_ge(x, four));
    hyps.push(a.mk_le(x, three));
    assert!(unsat(&mut a, &hyps));
}

#[test]
fn nonlinear_products_as_euf() {
    // x = y implies x*z = y*z (congruence over opaque products)
    let mut a = TermArena::new();
    let x = int_var(&mut a, "x");
    let y = int_var(&mut a, "y");
    let z = int_var(&mut a, "z");
    let xz = a.mk_mul(x, z);
    let yz = a.mk_mul(y, z);
    let exy = a.mk_eq(x, y);
    let ne = a.mk_neq(xz, yz);
    assert!(unsat(&mut a, &[exy, ne]));
}

#[test]
fn mul_div_inverse_axiom() {
    // forall x. x != 0 => mul(x, div(1, x)) = 1  (the paper's example axiom)
    let mut a = TermArena::new();
    let mul = a.declare_fun("mul", vec![Sort::Int, Sort::Int], Sort::Int);
    let div = a.declare_fun("div", vec![Sort::Int, Sort::Int], Sort::Int);
    let x = a.sym("x");
    let bx = a.mk_bound(x, Sort::Int);
    let zero = a.mk_int(0);
    let one = a.mk_int(1);
    let nz = a.mk_neq(bx, zero);
    let dx = a.mk_app(div, vec![one, bx]);
    let prod = a.mk_app(mul, vec![bx, dx]);
    let concl = a.mk_eq(prod, one);
    let body = a.mk_implies(nz, concl);
    let ax = a.mk_forall(vec![(x, Sort::Int)], body);

    // ground: c != 0, mul(c, div(1,c)) = 5 is unsat
    let c = int_var(&mut a, "c");
    let h1 = a.mk_neq(c, zero);
    let dc = a.mk_app(div, vec![one, c]);
    let pc = a.mk_app(mul, vec![c, dc]);
    let five = a.mk_int(5);
    let h2 = a.mk_eq(pc, five);
    assert!(check_formulas(&mut a, &[h1, h2], &[ax], cfg()).is_unsat());
}

// ---------- property tests ----------

/// A tiny random formula language over 3 int vars with small constants,
/// cross-checked against exhaustive evaluation on a small box.
#[derive(Debug, Clone)]
enum F {
    Le(usize, i64),
    Ge(usize, i64),
    EqSum(usize, usize, i64), // x + y = c
    Not(Box<F>),
    And(Box<F>, Box<F>),
    Or(Box<F>, Box<F>),
}

fn random_f(rng: &mut SplitMix64, depth: usize) -> F {
    if depth == 0 || rng.gen_bool(0.4) {
        match rng.gen_index(3) {
            0 => F::Le(rng.gen_index(3), rng.gen_range_inclusive(-4..=4)),
            1 => F::Ge(rng.gen_index(3), rng.gen_range_inclusive(-4..=4)),
            _ => F::EqSum(
                rng.gen_index(3),
                rng.gen_index(3),
                rng.gen_range_inclusive(-4..=4),
            ),
        }
    } else {
        match rng.gen_index(3) {
            0 => F::Not(Box::new(random_f(rng, depth - 1))),
            1 => F::And(
                Box::new(random_f(rng, depth - 1)),
                Box::new(random_f(rng, depth - 1)),
            ),
            _ => F::Or(
                Box::new(random_f(rng, depth - 1)),
                Box::new(random_f(rng, depth - 1)),
            ),
        }
    }
}

fn f_to_term(arena: &mut TermArena, f: &F, vars: &[TermId]) -> TermId {
    match f {
        F::Le(v, c) => {
            let cc = arena.mk_int(*c);
            arena.mk_le(vars[*v], cc)
        }
        F::Ge(v, c) => {
            let cc = arena.mk_int(*c);
            arena.mk_ge(vars[*v], cc)
        }
        F::EqSum(a, b, c) => {
            let sum = arena.mk_add(vars[*a], vars[*b]);
            let cc = arena.mk_int(*c);
            arena.mk_eq(sum, cc)
        }
        F::Not(inner) => {
            let t = f_to_term(arena, inner, vars);
            arena.mk_not(t)
        }
        F::And(a, b) => {
            let (ta, tb) = (f_to_term(arena, a, vars), f_to_term(arena, b, vars));
            arena.mk_and(vec![ta, tb])
        }
        F::Or(a, b) => {
            let (ta, tb) = (f_to_term(arena, a, vars), f_to_term(arena, b, vars));
            arena.mk_or(vec![ta, tb])
        }
    }
}

fn f_eval(f: &F, env: &[i64]) -> bool {
    match f {
        F::Le(v, c) => env[*v] <= *c,
        F::Ge(v, c) => env[*v] >= *c,
        F::EqSum(a, b, c) => env[*a] + env[*b] == *c,
        F::Not(inner) => !f_eval(inner, env),
        F::And(a, b) => f_eval(a, env) && f_eval(b, env),
        F::Or(a, b) => f_eval(a, env) || f_eval(b, env),
    }
}

#[test]
fn smt_agrees_with_bounded_enumeration() {
    let mut rng = SplitMix64::new(0x5317_0001);
    for _ in 0..cases(96, 512) {
        let f = random_f(&mut rng, 3);
        let mut arena = TermArena::new();
        let vars: Vec<TermId> = (0..3)
            .map(|i| int_var(&mut arena, &format!("v{i}")))
            .collect();
        // bound vars to the enumeration box so SAT/UNSAT agree with search
        let mut hyps = Vec::new();
        for &v in &vars {
            let lo = arena.mk_int(-6);
            let hi = arena.mk_int(6);
            hyps.push(arena.mk_ge(v, lo));
            hyps.push(arena.mk_le(v, hi));
        }
        let t = f_to_term(&mut arena, &f, &vars);
        hyps.push(t);

        let mut expected = false;
        'outer: for a in -6i64..=6 {
            for b in -6i64..=6 {
                for c in -6i64..=6 {
                    if f_eval(&f, &[a, b, c]) {
                        expected = true;
                        break 'outer;
                    }
                }
            }
        }
        let got = check_formulas(&mut arena, &hyps, &[], cfg());
        match got {
            SmtResult::Sat(m) => {
                assert!(expected, "solver said sat, enumeration said unsat: {f:?}");
                let env: Vec<i64> = vars
                    .iter()
                    .map(|v| m.ints.get(v).copied().unwrap_or(0))
                    .collect();
                assert!(
                    f_eval(&f, &env),
                    "model does not satisfy the formula: {env:?}"
                );
            }
            SmtResult::Unsat => assert!(!expected, "solver said unsat, enumeration found {f:?}"),
            SmtResult::Unknown(r) => panic!("unexpected unknown ({r}) on {f:?}"),
        }
    }
}

// ---------- congruence-aware e-matching (the theory-loop instantiator) ----------

#[test]
fn ematch_fires_through_equality_chains() {
    // wI = dget(...) is EUF-equal to an appendc chain; the charat axiom must
    // fire on charat(wI, i) even though wI is not syntactically appendc
    let mut a = TermArena::new();
    let str_sort = Sort::Unint(a.sym("Str"));
    let appendc = a.declare_fun("appendc", vec![str_sort, Sort::Int], str_sort);
    let charat = a.declare_fun("charat", vec![str_sort, Sort::Int], Sort::Int);
    let strlen = a.declare_fun("strlen", vec![str_sort], Sort::Int);
    // axiom: charat(appendc(s, c), strlen(s)) = c
    let s = a.sym("s");
    let c = a.sym("c");
    let bs = a.mk_bound(s, str_sort);
    let bc = a.mk_bound(c, Sort::Int);
    let app = a.mk_app(appendc, vec![bs, bc]);
    let lhs_len = a.mk_app(strlen, vec![bs]);
    let lhs = a.mk_app(charat, vec![app, lhs_len]);
    let body = a.mk_eq(lhs, bc);
    let ax = a.mk_forall(vec![(s, str_sort), (c, Sort::Int)], body);

    // ground: w = appendc(e, 7); v = w (a different name); strlen(e) = 0;
    // charat(v, 0) != 7 must be UNSAT
    let e_sym = a.sym("e");
    let ve = a.mk_var(e_sym, 0, str_sort);
    let seven = a.mk_int(7);
    let chain = a.mk_app(appendc, vec![ve, seven]);
    let w = a.sym("w");
    let vw = a.mk_var(w, 0, str_sort);
    let h1 = a.mk_eq(vw, chain);
    let len_e = a.mk_app(strlen, vec![ve]);
    let zero = a.mk_int(0);
    let h2 = a.mk_eq(len_e, zero);
    let read = a.mk_app(charat, vec![vw, zero]);
    let h3 = a.mk_neq(read, seven);
    assert!(check_formulas(&mut a, &[h1, h2, h3], &[ax], cfg()).is_unsat());
}

#[test]
fn ematch_respects_guard_conditions() {
    // forall x. x != 0 => f(x) = x; asserting f(5) = 9 is unsat, but
    // f(0) = 9 is fine
    let mut a = TermArena::new();
    let f = a.declare_fun("f", vec![Sort::Int], Sort::Int);
    let x = a.sym("x");
    let bx = a.mk_bound(x, Sort::Int);
    let zero = a.mk_int(0);
    let nz = a.mk_neq(bx, zero);
    let fx = a.mk_app(f, vec![bx]);
    let eq = a.mk_eq(fx, bx);
    let body = a.mk_implies(nz, eq);
    let ax = a.mk_forall(vec![(x, Sort::Int)], body);

    let five = a.mk_int(5);
    let nine = a.mk_int(9);
    let f5 = a.mk_app(f, vec![five]);
    let bad = a.mk_eq(f5, nine);
    assert!(check_formulas(&mut a, &[bad], &[ax], cfg()).is_unsat());

    let f0 = a.mk_app(f, vec![zero]);
    let ok = a.mk_eq(f0, nine);
    assert!(check_formulas(&mut a, &[ok], &[ax], cfg()).is_sat());
}

#[test]
fn object_adt_axioms_support_observational_reasoning() {
    // the Serialize benchmark's axiom set, distilled: reading field 0 of
    // addf(obj0(), v) yields v
    let mut a = TermArena::new();
    let obj = Sort::Unint(a.sym("Obj"));
    let nf = a.declare_fun("nf", vec![obj], Sort::Int);
    let fv = a.declare_fun("fv", vec![obj, Sort::Int], Sort::Int);
    let obj0 = a.declare_fun("obj0", vec![], obj);
    let addf = a.declare_fun("addf", vec![obj, Sort::Int], obj);

    let o0 = a.mk_app(obj0, vec![]);
    let nf_o0 = a.mk_app(nf, vec![o0]);
    let zero = a.mk_int(0);
    let ax1 = a.mk_eq(nf_o0, zero);

    let o = a.sym("o");
    let v = a.sym("v");
    let bo = a.mk_bound(o, obj);
    let bv = a.mk_bound(v, Sort::Int);
    let added = a.mk_app(addf, vec![bo, bv]);
    let nf_o = a.mk_app(nf, vec![bo]);
    let fv_at_end = a.mk_app(fv, vec![added, nf_o]);
    let body = a.mk_eq(fv_at_end, bv);
    let ax3 = a.mk_forall(vec![(o, obj), (v, Sort::Int)], body);

    // ground: q = addf(obj0(), 42); fv(q, 0) != 42 is unsat
    let q = a.sym("q");
    let vq = a.mk_var(q, 0, obj);
    let forty2 = a.mk_int(42);
    let built = a.mk_app(addf, vec![o0, forty2]);
    let h1 = a.mk_eq(vq, built);
    let read = a.mk_app(fv, vec![vq, zero]);
    let h2 = a.mk_neq(read, forty2);
    assert!(check_formulas(&mut a, &[h1, h2], &[ax1, ax3], cfg()).is_unsat());
}

// ---------- theory combination regressions ----------

#[test]
fn diseq_split_survives_unrelated_conflicts() {
    // regression for the lost-split-lemma soundness bug: an EUF conflict in
    // an early round must not permanently swallow the integer-disequality
    // split of an unrelated atom
    let mut a = TermArena::new();
    let f = a.declare_fun("f", vec![Sort::Int], Sort::Int);
    let x = int_var(&mut a, "x");
    let y = int_var(&mut a, "y");
    let z = int_var(&mut a, "z");
    let fx = a.mk_app(f, vec![x]);
    let fy = a.mk_app(f, vec![y]);
    // x = y, f(x) != f(y) is a contradiction the SAT core must navigate,
    // while z != 0 and 0 <= z <= 0 needs the split lemma for z
    let exy = a.mk_eq(x, y);
    let nfxy = a.mk_neq(fx, fy);
    let zero = a.mk_int(0);
    let nz = a.mk_neq(z, zero);
    let lo = a.mk_le(zero, z);
    let hi = a.mk_le(z, zero);
    let contradiction = a.mk_or(vec![nfxy, nz]);
    // (f(x)!=f(y) \/ z!=0) /\ x=y /\ 0<=z<=0 must be unsat
    assert!(unsat(&mut a, &[exy, contradiction, lo, hi]));
}

#[test]
fn arrays_and_arithmetic_share_index_reasoning() {
    // A2 = upd(A, i+1, 5); j = i + 1; sel(A2, j) != 5 unsat — the index
    // equality is arithmetic, the array lemma needs it through MBTC/EUF
    let mut a = TermArena::new();
    let arr = arr_var(&mut a, "A");
    let i = int_var(&mut a, "i");
    let j = int_var(&mut a, "j");
    let one = a.mk_int(1);
    let i1 = a.mk_add(i, one);
    let five = a.mk_int(5);
    let u = a.mk_upd(arr, i1, five);
    let a2 = arr_var(&mut a, "A2");
    let h1 = a.mk_eq(a2, u);
    let h2 = a.mk_eq(j, i1);
    let read = a.mk_sel(a2, j);
    let h3 = a.mk_neq(read, five);
    assert!(unsat(&mut a, &[h1, h2, h3]));
}

#[test]
fn bool_extern_predicates_combine_with_arithmetic() {
    // p(x) and !p(y) and x <= y and y <= x is unsat (congruence via LIA-implied x=y)
    let mut a = TermArena::new();
    let p = a.declare_fun("p", vec![Sort::Int], Sort::Bool);
    let x = int_var(&mut a, "x");
    let y = int_var(&mut a, "y");
    let px = a.mk_app(p, vec![x]);
    let py = a.mk_app(p, vec![y]);
    let npy = a.mk_not(py);
    let le1 = a.mk_le(x, y);
    let le2 = a.mk_le(y, x);
    assert!(unsat(&mut a, &[px, npy, le1, le2]));
}

#[test]
fn large_upd_chain_positions_resolve() {
    let mut a = TermArena::new();
    let arr = arr_var(&mut a, "A");
    let mut chain = arr;
    for k in 0..10 {
        let idx = a.mk_int(k);
        let val = a.mk_int(100 + k);
        chain = a.mk_upd(chain, idx, val);
    }
    // overwrite position 4
    let four = a.mk_int(4);
    let nine9 = a.mk_int(999);
    chain = a.mk_upd(chain, four, nine9);
    let read = a.mk_sel(chain, four);
    let ne = a.mk_neq(read, nine9);
    assert!(unsat(&mut a, &[ne]));
    // and position 7 still holds 107
    let seven = a.mk_int(7);
    let read7 = a.mk_sel(chain, seven);
    let v107 = a.mk_int(107);
    let ne7 = a.mk_neq(read7, v107);
    assert!(unsat(&mut a, &[ne7]));
}

#[test]
fn skolemized_array_spec_counterexample_model() {
    // an off-by-one "inverse" and the identity spec: sat with a witness index
    let mut a = TermArena::new();
    let arr = arr_var(&mut a, "A");
    let arr2 = arr_var(&mut a, "B");
    let n = int_var(&mut a, "n");
    let one = a.mk_int(1);
    let two = a.mk_int(2);
    let hyp_n = a.mk_ge(n, two);
    // B = upd(A, 1, A[1] + 1): differs from A at index 1
    let s1 = a.mk_sel(arr, one);
    let s1p = a.mk_add(s1, one);
    let u = a.mk_upd(arr, one, s1p);
    let hyp_b = a.mk_eq(arr2, u);
    let k = a.sym("k");
    let bk = a.mk_bound(k, Sort::Int);
    let zero = a.mk_int(0);
    let lo = a.mk_le(zero, bk);
    let hi = a.mk_lt(bk, n);
    let range = a.mk_and(vec![lo, hi]);
    let sa = a.mk_sel(arr, bk);
    let sb = a.mk_sel(arr2, bk);
    let eq = a.mk_eq(sa, sb);
    let body = a.mk_implies(range, eq);
    let spec = a.mk_forall(vec![(k, Sort::Int)], body);
    assert!(
        !is_valid(&mut a, &[hyp_n, hyp_b], spec, &[], cfg()),
        "the broken write must falsify the identity spec"
    );
}

// ---------- the incremental session ----------

mod session {
    use std::sync::Arc;

    use super::{cases, cfg, int_var, F};
    use crate::{QueryCache, SmtResult, SmtSession, Verdict};
    use pins_logic::{TermArena, TermId};
    use pins_prng::SplitMix64;

    fn fresh_session() -> SmtSession {
        SmtSession::new(cfg())
    }

    fn bounds(a: &mut TermArena, v: TermId, lo: i64, hi: i64) -> (TermId, TermId) {
        let l = a.mk_int(lo);
        let h = a.mk_int(hi);
        (a.mk_ge(v, l), a.mk_le(v, h))
    }

    #[test]
    fn push_pop_restores_assertions_and_models() {
        let mut a = TermArena::new();
        let x = int_var(&mut a, "x");
        let (lo, hi) = bounds(&mut a, x, 0, 10);
        let mut s = fresh_session();
        s.assert(lo);
        s.assert(hi);
        assert!(s.check(&mut a).is_sat());

        s.push();
        let twenty = a.mk_int(20);
        let conflict = a.mk_ge(x, twenty);
        s.assert(conflict);
        assert_eq!(s.depth(), 1);
        assert!(s.check(&mut a).is_unsat());
        s.pop();

        // the scope is gone: satisfiable again, with an in-bounds model
        assert_eq!(s.depth(), 0);
        assert_eq!(s.assertions(), &[lo, hi]);
        match s.check(&mut a) {
            SmtResult::Sat(m) => {
                let v = m.ints[&x];
                assert!(
                    (0..=10).contains(&v),
                    "model must satisfy restored scope: {v}"
                );
            }
            other => panic!("expected sat after pop, got {other:?}"),
        }
    }

    #[test]
    fn nested_scopes_unwind_in_order() {
        let mut a = TermArena::new();
        let x = int_var(&mut a, "x");
        let zero = a.mk_int(0);
        let five = a.mk_int(5);
        let ge0 = a.mk_ge(x, zero);
        let ge5 = a.mk_ge(x, five);
        let lt0 = a.mk_lt(x, zero);

        let mut s = fresh_session();
        s.assert(ge0);
        s.push();
        s.assert(ge5);
        s.push();
        s.assert(lt0);
        assert_eq!(s.depth(), 2);
        assert!(s.check(&mut a).is_unsat());
        s.pop();
        assert_eq!(s.assertions(), &[ge0, ge5]);
        assert!(s.check(&mut a).is_sat());
        s.pop();
        assert_eq!(s.assertions(), &[ge0]);
    }

    #[test]
    #[should_panic(expected = "pop without matching push")]
    fn unbalanced_pop_panics() {
        let mut s = fresh_session();
        s.pop();
    }

    #[test]
    fn assumptions_do_not_leak() {
        let mut a = TermArena::new();
        let x = int_var(&mut a, "x");
        let zero = a.mk_int(0);
        let ge0 = a.mk_ge(x, zero);
        let lt0 = a.mk_lt(x, zero);

        let mut s = fresh_session();
        s.assert(ge0);
        assert!(s.check_under(&mut a, &[lt0]).is_unsat());
        // the contradictory assumption must not persist
        assert_eq!(s.assertions(), &[ge0]);
        assert!(s.check(&mut a).is_sat());
        assert!(s.check_under(&mut a, &[lt0]).is_unsat());
    }

    #[test]
    fn cache_counts_hits_and_repeats_verdicts() {
        let mut a = TermArena::new();
        let x = int_var(&mut a, "x");
        let (lo, hi) = bounds(&mut a, x, 3, 5);
        let zero = a.mk_int(0);
        let lt0 = a.mk_lt(x, zero);
        let mut s = fresh_session();
        s.assert(lo);
        assert!(s.is_unsat_under(&mut a, &[lt0]));
        let misses = s.stats().cache_misses;
        assert_eq!(s.stats().cache_hits, 0);
        assert!(misses > 0);
        // identical query: served from cache
        assert!(s.is_unsat_under(&mut a, &[lt0]));
        assert_eq!(s.stats().cache_hits, 1);
        assert_eq!(s.stats().cache_misses, misses);
        assert_eq!(s.stats().queries, 2);
        let _ = hi;
    }

    #[test]
    fn sessions_over_one_cache_share_verdicts() {
        let mut a = TermArena::new();
        let x = int_var(&mut a, "x");
        let zero = a.mk_int(0);
        let ge0 = a.mk_ge(x, zero);
        let lt0 = a.mk_lt(x, zero);
        let mut first = fresh_session();
        first.assert(ge0);
        assert!(first.is_unsat_under(&mut a, &[lt0]));

        let mut second = SmtSession::with_cache(first.config(), Arc::clone(first.cache()));
        second.assert(ge0);
        // same query through another session: answered by the shared cache
        assert!(second.is_unsat_under(&mut a, &[lt0]));
        assert_eq!(second.stats().cache_hits, 1);
        assert_eq!(second.stats().cache_misses, 0);
        assert_eq!(first.stats().cache_hits, 0);
    }

    /// Term ids repeat across arenas: `x < 1 ∧ x < 2` in one arena and
    /// `1 < x ∧ x < 2` in another get the same ids, in the same order. One
    /// session over both must still answer each arena's own query.
    #[test]
    fn one_session_over_two_arenas_answers_each_arena_on_its_own() {
        let build = |lo_first: bool| {
            let mut a = TermArena::new();
            let x = int_var(&mut a, "x");
            let one = a.mk_int(1);
            let lo = if lo_first {
                a.mk_lt(x, one)
            } else {
                a.mk_lt(one, x)
            };
            let two = a.mk_int(2);
            let hi = a.mk_lt(x, two);
            (a, vec![lo, hi])
        };
        let (mut a, fa) = build(true); // x < 1 ∧ x < 2: satisfiable
        let (mut b, fb) = build(false); // 1 < x < 2: no integer
        assert_eq!(fa, fb, "the two arenas must reuse the same term ids");
        let mut s = fresh_session();
        assert!(s.verdict_under(&mut a, &fa).is_sat());
        assert_eq!(s.verdict_under(&mut b, &fb), Verdict::Unsat);
        assert_eq!(s.stats().cache_hits, 0, "{:?}", s.stats());
        assert_eq!(fresh_session().verdict_under(&mut b, &fb), Verdict::Unsat);
    }

    #[test]
    fn sat_with_model_re_solves_but_counts_the_hit() {
        let mut a = TermArena::new();
        let x = int_var(&mut a, "x");
        let (lo, hi) = bounds(&mut a, x, 2, 4);
        let mut s = fresh_session();
        s.assert(lo);
        s.assert(hi);
        assert!(s.check(&mut a).is_sat());
        // verdict cached as Sat; a model-producing check must still return a
        // usable model for this arena
        match s.check(&mut a) {
            SmtResult::Sat(m) => assert!((2..=4).contains(&m.ints[&x])),
            other => panic!("expected sat, got {other:?}"),
        }
        assert_eq!(s.stats().sat_resolves, 1);
        assert_eq!(s.stats().cache_hits, 1);
        // verdict-only queries short-circuit entirely
        assert!(s.verdict_under(&mut a, &[]).is_sat());
        assert_eq!(s.stats().cache_hits, 2);
    }

    #[test]
    fn entails_on_implication_and_converse() {
        let mut a = TermArena::new();
        let x = int_var(&mut a, "x");
        let five = a.mk_int(5);
        let three = a.mk_int(3);
        let hyp = a.mk_gt(x, five);
        let goal = a.mk_gt(x, three);
        let mut s = fresh_session();
        assert!(s.entails(&mut a, &[hyp], goal));
        assert!(!s.entails(&mut a, &[goal], hyp));
    }

    /// The cached verdict of every query must equal a fresh solve of the same
    /// formula, on a randomized corpus (the cache key must not conflate
    /// distinct formulas, and re-asking must not change answers).
    #[test]
    fn cached_verdicts_match_fresh_solves_on_random_corpus() {
        let mut rng = SplitMix64::new(0x5E55_0001);
        let mut cached = fresh_session();
        let mut corpus: Vec<F> = Vec::new();
        for _ in 0..cases(48, 256) {
            corpus.push(super::random_f(&mut rng, 3));
        }
        // cache entries name terms by arena, so the whole corpus lives in
        // one arena for round 2 to hit (hash-consing makes repeats cheap)
        let mut arena = TermArena::new();
        let vars: Vec<TermId> = (0..3)
            .map(|i| int_var(&mut arena, &format!("v{i}")))
            .collect();
        let mut box_fs = Vec::new();
        for &v in &vars {
            let (lo, hi) = bounds(&mut arena, v, -6, 6);
            box_fs.push(lo);
            box_fs.push(hi);
        }
        // round 1: populate the cache; round 2: all answers must come from
        // the cache and agree with a brand-new session per query
        let mut first: Vec<Verdict> = Vec::new();
        for round in 0..2 {
            for (i, f) in corpus.iter().enumerate() {
                let mut fs = box_fs.clone();
                fs.push(super::f_to_term(&mut arena, f, &vars));
                let got = cached.verdict_under(&mut arena, &fs);
                if round == 0 {
                    let fresh = fresh_session().verdict_under(&mut arena, &fs);
                    assert_eq!(got, fresh, "cached session diverged on {f:?}");
                    first.push(got);
                } else {
                    assert_eq!(got, first[i], "verdict changed between rounds on {f:?}");
                }
            }
        }
        assert!(
            cached.stats().cache_hits >= corpus.len() as u64,
            "round 2 must be served by the cache: {:?}",
            cached.stats()
        );
    }

    /// Satellite: two configurations that differ ONLY in a budget field must
    /// never share a cache entry — a budget can turn `Unsat` into `Unknown`,
    /// so replaying the other config's verdict would be unsound.
    #[test]
    fn configs_differing_only_in_budget_fields_never_share_cache_entries() {
        use std::time::Duration;

        let base = cfg();
        let variants: Vec<(&str, crate::SmtConfig)> = vec![
            ("time_limit", {
                let mut c = base;
                c.time_limit = Some(Duration::from_secs(3600));
                c
            }),
            ("step_limit", {
                let mut c = base;
                c.step_limit = Some(u64::MAX / 2);
                c
            }),
            ("retry_unknown", {
                let mut c = base;
                c.retry_unknown = !base.retry_unknown;
                c
            }),
        ];
        for (field, variant) in variants {
            let cache = Arc::new(QueryCache::new());
            let mut a = TermArena::new();
            let x = int_var(&mut a, "x");
            let zero = a.mk_int(0);
            let ge0 = a.mk_ge(x, zero);
            let lt0 = a.mk_lt(x, zero);

            let mut s1 = SmtSession::with_cache(base, Arc::clone(&cache));
            let mut s2 = SmtSession::with_cache(variant, Arc::clone(&cache));
            assert!(s1.verdict_under(&mut a, &[ge0, lt0]).is_unsat());
            assert!(s2.verdict_under(&mut a, &[ge0, lt0]).is_unsat());
            assert_eq!(
                s2.stats().cache_misses,
                1,
                "config differing only in `{field}` must MISS, not reuse s1's entry"
            );
            assert_eq!(s2.stats().cache_hits, 0, "`{field}` variant hit the cache");
        }
    }

    /// A budget-limited `Unknown` is retried once at doubled budgets; when
    /// the retry settles the query, the original config's cache entry is
    /// upgraded in place so later same-config queries get the definitive
    /// verdict from the cache.
    #[test]
    fn retry_escalation_upgrades_budget_limited_unknowns_in_place() {
        use pins_budget::StopReason;

        // an unsat core the solver needs a handful of steps for
        let build = |a: &mut TermArena| -> Vec<TermId> {
            let x = int_var(a, "x");
            let y = int_var(a, "y");
            let one = a.mk_int(1);
            let f1 = a.mk_le(x, y);
            let sum = a.mk_add(y, one);
            let f2 = a.mk_le(sum, x); // x <= y and y + 1 <= x
            vec![f1, f2]
        };

        // find a step limit where the base run is budget-limited but the
        // doubled retry is definitive (the solver is deterministic, so the
        // probe is stable across runs)
        let mut exercised_upgrade = false;
        for limit in 1..=256u64 {
            let mut config = cfg();
            config.step_limit = Some(limit);
            config.retry_unknown = true;
            let cache = Arc::new(QueryCache::new());
            let mut s = SmtSession::with_cache(config, Arc::clone(&cache));
            let mut a = TermArena::new();
            let fs = build(&mut a);
            let v = s.verdict_under(&mut a, &fs);
            if s.stats().retries == 1 && v.is_unsat() {
                assert_eq!(
                    s.stats().cache_upgrades,
                    1,
                    "definitive retry must upgrade the original entry"
                );
                // the upgraded entry is at the ORIGINAL config's key: a new
                // same-config session must get Unsat as a pure cache hit
                let mut s2 = SmtSession::with_cache(config, Arc::clone(&cache));
                assert!(s2.verdict_under(&mut a, &fs).is_unsat());
                assert_eq!(
                    s2.stats().cache_hits,
                    1,
                    "upgrade did not land at the original key"
                );
                assert_eq!(s2.stats().cache_misses, 0);
                exercised_upgrade = true;
                break;
            }
            // sanity: tiny limits must degrade, not hang or panic
            if limit == 1 {
                assert_eq!(
                    v,
                    Verdict::Unknown {
                        reason: StopReason::StepLimit
                    }
                );
                assert_eq!(s.stats().retries, 1, "unknowns are retried once");
            }
        }
        assert!(
            exercised_upgrade,
            "no step limit in 1..=256 produced a budget-limited base run with a \
             definitive doubled retry"
        );
    }

    /// Cancellation is a caller kill switch: it must not be retried, and it
    /// must be reported as `Unknown(Cancelled)`.
    #[test]
    fn cancelled_sessions_answer_unknown_without_retrying() {
        use pins_budget::Budget;
        use pins_budget::StopReason;

        let mut a = TermArena::new();
        let x = int_var(&mut a, "x");
        let zero = a.mk_int(0);
        let ge0 = a.mk_ge(x, zero);
        let lt0 = a.mk_lt(x, zero);

        let mut s = fresh_session();
        let budget = Budget::unlimited();
        s.set_budget(budget.clone());
        budget.cancel();
        let v = s.verdict_under(&mut a, &[ge0, lt0]);
        assert_eq!(
            v,
            Verdict::Unknown {
                reason: StopReason::Cancelled
            }
        );
        assert_eq!(
            s.stats().retries,
            0,
            "cancellation must not trigger a retry"
        );
        assert_eq!(s.stats().unknown_cancelled, 1);
    }
}

mod xray {
    use std::sync::Arc;

    use super::{cfg, int_var};
    use crate::session::MissCause;
    use crate::{CoreSlot, QueryCache, SmtSession};
    use pins_logic::{Sort, TermArena, TermId};

    fn fresh_session() -> SmtSession {
        SmtSession::new(cfg())
    }

    /// Twenty satisfiable noise facts plus one contradictory pair: the
    /// extracted core must contain the pair, shed (at least most of) the
    /// noise, and itself be unsat when re-solved fresh.
    #[test]
    fn core_pinpoints_the_contradiction_among_noise() {
        let mut a = TermArena::new();
        let x = int_var(&mut a, "x");
        let mut fs = Vec::new();
        for k in 0..20 {
            let v = int_var(&mut a, &format!("noise{k}"));
            let c = a.mk_int(k);
            fs.push(a.mk_ge(v, c));
        }
        let three = a.mk_int(3);
        let four = a.mk_int(4);
        fs.push(a.mk_ge(x, four)); // index 20
        fs.push(a.mk_le(x, three)); // index 21
        let mut s = fresh_session();
        assert!(s.verdict_under(&mut a, &fs).is_unsat());

        let core = s.last_unsat_core().expect("unsat must carry a core");
        assert!(core.exact, "no fallback should be needed here");
        let idxs: Vec<usize> = core
            .members
            .iter()
            .map(|m| match m.slot {
                CoreSlot::Assumption(i) => i,
                CoreSlot::Assertion(i) => panic!("no persistent assertions, got {i}"),
            })
            .collect();
        assert!(
            idxs.contains(&20) && idxs.contains(&21),
            "core {idxs:?} misses the pair"
        );
        assert!(
            core.len() < fs.len(),
            "core kept every assert: {} of {}",
            core.len(),
            fs.len()
        );
        // the defining property: the members alone are unsat
        let members: Vec<TermId> = idxs.iter().map(|&i| fs[i]).collect();
        assert!(fresh_session().verdict_under(&mut a, &members).is_unsat());
        assert_eq!(s.stats().cores, 1);
        assert_eq!(s.stats().cores_inexact, 0);
    }

    /// Core members carry their origin: persistent assertions vs. per-query
    /// assumptions.
    #[test]
    fn core_slots_distinguish_assertions_from_assumptions() {
        let mut a = TermArena::new();
        let x = int_var(&mut a, "x");
        let three = a.mk_int(3);
        let four = a.mk_int(4);
        let lo = a.mk_ge(x, four);
        let hi = a.mk_le(x, three);
        let mut s = fresh_session();
        s.assert(lo);
        assert!(s.is_unsat_under(&mut a, &[hi]));
        let core = s.last_unsat_core().expect("core");
        let mut slots: Vec<CoreSlot> = core.members.iter().map(|m| m.slot).collect();
        slots.sort_by_key(|s| match s {
            CoreSlot::Assertion(i) => (0, *i),
            CoreSlot::Assumption(i) => (1, *i),
        });
        assert_eq!(slots, vec![CoreSlot::Assertion(0), CoreSlot::Assumption(0)]);
    }

    /// A second session hitting the cached `Unsat` entry gets the stored
    /// core, resolved against its own query positions, with the same
    /// content id.
    #[test]
    fn cache_hits_replay_the_stored_core() {
        let cache = Arc::new(QueryCache::new());
        let mut a = TermArena::new();
        let x = int_var(&mut a, "x");
        let noise = int_var(&mut a, "n");
        let zero = a.mk_int(0);
        let fs = vec![a.mk_ge(noise, zero), a.mk_ge(x, zero), a.mk_lt(x, zero)];

        let mut s1 = SmtSession::with_cache(cfg(), Arc::clone(&cache));
        assert!(s1.verdict_under(&mut a, &fs).is_unsat());
        let id1 = s1.last_unsat_core().expect("fresh core").id;

        let mut s2 = SmtSession::with_cache(cfg(), Arc::clone(&cache));
        assert!(s2.verdict_under(&mut a, &fs).is_unsat());
        assert_eq!(s2.stats().cache_hits, 1, "second solve must be a hit");
        let core2 = s2
            .last_unsat_core()
            .expect("cache hit must replay the core");
        assert_eq!(core2.id, id1, "content id must be stable across sessions");
        assert_eq!(s2.stats().cores, 1);
    }

    /// With `track_cores` off there is no core, and the config fingerprint
    /// keeps tracked and untracked entries apart in a shared cache.
    #[test]
    fn cores_off_yields_no_core_and_a_distinct_cache_key() {
        let cache = Arc::new(QueryCache::new());
        let mut off = cfg();
        off.track_cores = false;
        let mut a = TermArena::new();
        let x = int_var(&mut a, "x");
        let zero = a.mk_int(0);
        let fs = vec![a.mk_ge(x, zero), a.mk_lt(x, zero)];

        let mut s1 = SmtSession::with_cache(off, Arc::clone(&cache));
        assert!(s1.verdict_under(&mut a, &fs).is_unsat());
        assert!(s1.last_unsat_core().is_none());

        let mut s2 = SmtSession::with_cache(cfg(), Arc::clone(&cache));
        assert!(s2.verdict_under(&mut a, &fs).is_unsat());
        assert_eq!(
            s2.stats().cache_misses,
            1,
            "tracked config must not reuse the untracked entry"
        );
        assert!(s2.last_unsat_core().is_some());
    }

    /// When a quantified axiom participates in the refutation, the asserted
    /// fact that grounded it stays in the core (axiom instances themselves
    /// are untracked), and the core re-solves to unsat with the axioms.
    #[test]
    fn axiom_driven_unsat_keeps_the_grounding_assert_in_the_core() {
        let mut a = TermArena::new();
        let str_sort = Sort::Unint(a.sym("Str"));
        let strlen = a.declare_fun("strlen", vec![str_sort], Sort::Int);
        let s = a.sym("s");
        let bs = a.mk_bound(s, str_sort);
        let app = a.mk_app(strlen, vec![bs]);
        let zero = a.mk_int(0);
        let body = a.mk_ge(app, zero);
        let ax = a.mk_forall(vec![(s, str_sort)], body);

        let w = a.sym("w");
        let vw = a.mk_var(w, 0, str_sort);
        let lw = a.mk_app(strlen, vec![vw]);
        let minus1 = a.mk_int(-1);
        let bad = a.mk_eq(lw, minus1);

        let mut sess = fresh_session();
        sess.assert_axiom(ax);
        assert!(sess.is_unsat_under(&mut a, &[bad]));
        let core = sess.last_unsat_core().expect("core");
        assert!(
            core.members
                .iter()
                .any(|m| m.slot == CoreSlot::Assumption(0)),
            "the grounding assert must survive in the core"
        );
        // re-solving the core members (with the same axioms) stays unsat
        let mut again = fresh_session();
        again.assert_axiom(ax);
        assert!(again.is_unsat_under(&mut a, &[bad]));
    }

    /// Miss taxonomy: a brand-new query is `FirstSeen`; the same structural
    /// query under a different config is `ConfigMismatch` (definitive
    /// precedent) and the per-cause counters add up to total misses.
    #[test]
    fn miss_causes_distinguish_first_seen_from_config_churn() {
        let cache = Arc::new(QueryCache::new());
        let mut a = TermArena::new();
        let x = int_var(&mut a, "x");
        let zero = a.mk_int(0);
        let fs = vec![a.mk_ge(x, zero), a.mk_lt(x, zero)];

        let mut s1 = SmtSession::with_cache(cfg(), Arc::clone(&cache));
        assert!(s1.verdict_under(&mut a, &fs).is_unsat());
        assert_eq!(s1.stats().miss_first_seen, 1);

        let mut other = cfg();
        other.max_theory_rounds += 1; // semantically irrelevant, new key
        let mut s2 = SmtSession::with_cache(other, Arc::clone(&cache));
        assert!(s2.verdict_under(&mut a, &fs).is_unsat());
        assert_eq!(s2.stats().miss_config_mismatch, 1, "{:?}", s2.stats());

        // every miss has exactly one cause
        for st in [s1.stats(), s2.stats()] {
            assert_eq!(
                st.miss_first_seen
                    + st.miss_config_mismatch
                    + st.miss_budget_retry
                    + st.miss_near_miss,
                st.cache_misses
            );
        }
        assert_eq!(
            MissCause::NearMiss.as_str(),
            "near_miss",
            "stable trace tags"
        );
    }

    /// A structural precedent that was budget-limited classifies later
    /// misses on the same formula as `BudgetRetry` (the escalation-ladder
    /// signature), not `ConfigMismatch`.
    #[test]
    fn budget_limited_precedents_classify_as_budget_retry() {
        let cache = Arc::new(QueryCache::new());
        let mut a = TermArena::new();
        let x = int_var(&mut a, "x");
        let y = int_var(&mut a, "y");
        let one = a.mk_int(1);
        let f1 = a.mk_le(x, y);
        let sum = a.mk_add(y, one);
        let f2 = a.mk_le(sum, x);

        let mut tiny = cfg();
        tiny.step_limit = Some(1); // guaranteed Unknown(StepLimit)
        let mut s1 = SmtSession::with_cache(tiny, Arc::clone(&cache));
        assert!(!s1.verdict_under(&mut a, &[f1, f2]).is_definitive());

        let mut s2 = SmtSession::with_cache(cfg(), Arc::clone(&cache));
        assert!(s2.verdict_under(&mut a, &[f1, f2]).is_unsat());
        assert_eq!(s2.stats().miss_budget_retry, 1, "{:?}", s2.stats());
    }

    /// A query within [`crate::NEAR_MISS_DELTA`] atoms of a cached one is a
    /// `NearMiss`; a disjoint query is `FirstSeen`.
    #[test]
    fn near_misses_are_detected_within_the_delta_bound() {
        let cache = Arc::new(QueryCache::new());
        let mut a = TermArena::new();
        let mut fs: Vec<TermId> = Vec::new();
        for k in 0..8 {
            let v = int_var(&mut a, &format!("v{k}"));
            let c = a.mk_int(k);
            fs.push(a.mk_ge(v, c));
        }
        let mut s1 = SmtSession::with_cache(cfg(), Arc::clone(&cache));
        assert!(s1.verdict_under(&mut a, &fs).is_sat());

        // drop one atom, add one: delta 2 <= NEAR_MISS_DELTA
        let mut near = fs.clone();
        near.pop();
        let w = int_var(&mut a, "w");
        let hundred = a.mk_int(100);
        near.push(a.mk_le(w, hundred));
        let mut s2 = SmtSession::with_cache(cfg(), Arc::clone(&cache));
        assert!(s2.verdict_under(&mut a, &near).is_sat());
        assert_eq!(s2.stats().miss_near_miss, 1, "{:?}", s2.stats());

        // a structurally disjoint query shares no atoms: FirstSeen
        let z = int_var(&mut a, "z");
        let seven = a.mk_int(7);
        let other = vec![a.mk_eq(z, seven)];
        let mut s3 = SmtSession::with_cache(cfg(), Arc::clone(&cache));
        assert!(s3.verdict_under(&mut a, &other).is_sat());
        assert_eq!(s3.stats().miss_first_seen, 1, "{:?}", s3.stats());
    }

    /// The incrementality audit measures consecutive queries: shared
    /// prefix, added/removed atoms, and the pure-extension flag.
    #[test]
    fn audit_measures_deltas_between_consecutive_queries() {
        let mut a = TermArena::new();
        let x = int_var(&mut a, "x");
        let y = int_var(&mut a, "y");
        let zero = a.mk_int(0);
        let ten = a.mk_int(10);
        let f1 = a.mk_ge(x, zero);
        let f2 = a.mk_le(x, ten);
        let f3 = a.mk_ge(y, zero);
        let f4 = a.mk_le(y, ten);

        let mut s = fresh_session();
        s.assert(f1);
        s.assert(f2);
        // query 1: first query, no pair measured
        assert!(s.verdict_under(&mut a, &[]).is_sat());
        assert_eq!(s.stats().audit_pairs, 0);

        // query 2: pure extension (adds f3, removes nothing)
        assert!(s.verdict_under(&mut a, &[f3]).is_sat());
        assert_eq!(s.stats().audit_pairs, 1);
        assert_eq!(s.stats().audit_shared_prefix, 2);
        assert_eq!(s.stats().audit_added, 1);
        assert_eq!(s.stats().audit_removed, 0);
        assert_eq!(s.stats().audit_pure_extensions, 1);

        // query 3: swaps f3 for f4 (prefix still shared, one in, one out)
        assert!(s.verdict_under(&mut a, &[f4]).is_sat());
        assert_eq!(s.stats().audit_pairs, 2);
        assert_eq!(s.stats().audit_shared_prefix, 4);
        assert_eq!(s.stats().audit_added, 2);
        assert_eq!(s.stats().audit_removed, 1);
        assert_eq!(s.stats().audit_pure_extensions, 1);
    }

    /// `last_unsat_core` is per-query state: a sat query after an unsat one
    /// clears it.
    #[test]
    fn last_core_resets_on_every_query() {
        let mut a = TermArena::new();
        let x = int_var(&mut a, "x");
        let zero = a.mk_int(0);
        let ge0 = a.mk_ge(x, zero);
        let lt0 = a.mk_lt(x, zero);
        let mut s = fresh_session();
        assert!(s.is_unsat_under(&mut a, &[ge0, lt0]));
        assert!(s.last_unsat_core().is_some());
        assert!(s.verdict_under(&mut a, &[ge0]).is_sat());
        assert!(s.last_unsat_core().is_none());
    }
}

mod core_index {
    use std::sync::Arc;

    use super::{cfg, int_var};
    use crate::{CoreSlot, QueryCache, SmtConfig, SmtSession, Verdict};
    use pins_logic::{TermArena, TermId};

    /// `x >= 0`, `x < 0` (a two-member core) and a satisfiable bystander
    /// `y >= 3`, all over one arena.
    fn facts(a: &mut TermArena) -> (TermId, TermId, TermId) {
        let x = int_var(a, "x");
        let y = int_var(a, "y");
        let zero = a.mk_int(0);
        let three = a.mk_int(3);
        (a.mk_ge(x, zero), a.mk_lt(x, zero), a.mk_ge(y, three))
    }

    fn seeded(cache: &Arc<QueryCache>, config: SmtConfig, a: &mut TermArena) -> SmtSession {
        let (ge, lt, _) = facts(a);
        let mut s = SmtSession::with_cache(config, Arc::clone(cache));
        assert!(s.verdict_under(a, &[ge, lt]).is_unsat());
        assert_eq!(s.stats().core_hits, 0, "a first solve is a miss");
        s
    }

    #[test]
    fn a_superset_of_a_known_core_hits_without_solving() {
        let cache = Arc::new(QueryCache::new());
        let mut a = TermArena::new();
        let mut s = seeded(&cache, cfg(), &mut a);
        let (ge, lt, bystander) = facts(&mut a);
        assert!(s.verdict_under(&mut a, &[bystander, lt, ge]).is_unsat());
        let st = s.stats();
        assert_eq!((st.core_hits, st.cache_hits, st.cache_misses), (1, 1, 1));
        assert_eq!(cache.len(), 1, "a core hit adds no cache entry");
        // a model-producing check is answered the same way
        assert!(s.check_under(&mut a, &[ge, bystander, lt]).is_unsat());
        assert_eq!(s.stats().core_hits, 2);
    }

    #[test]
    fn a_query_missing_one_core_member_does_not_hit() {
        let cache = Arc::new(QueryCache::new());
        let mut a = TermArena::new();
        let mut s = seeded(&cache, cfg(), &mut a);
        let (ge, _, bystander) = facts(&mut a);
        assert!(s.verdict_under(&mut a, &[ge, bystander]).is_sat());
        assert_eq!(s.stats().core_hits, 0);
        assert_eq!(s.stats().cache_misses, 2);
    }

    #[test]
    fn cores_do_not_cross_configs_or_axiom_sets() {
        let cache = Arc::new(QueryCache::new());
        let mut a = TermArena::new();
        seeded(&cache, cfg(), &mut a);
        let (ge, lt, bystander) = facts(&mut a);

        let mut other = cfg();
        other.max_theory_rounds += 1;
        let mut s = SmtSession::with_cache(other, Arc::clone(&cache));
        assert!(s.verdict_under(&mut a, &[ge, lt, bystander]).is_unsat());
        assert_eq!(s.stats().core_hits, 0, "another config must solve");

        let mut s = SmtSession::with_cache(cfg(), Arc::clone(&cache));
        s.assert_axiom(bystander); // any extra axiom is another scope
        assert!(s.verdict_under(&mut a, &[ge, lt, bystander]).is_unsat());
        assert_eq!(s.stats().core_hits, 0, "another axiom set must solve");
    }

    #[test]
    fn a_core_hit_resolves_the_core_to_the_query_slots() {
        let cache = Arc::new(QueryCache::new());
        let mut a = TermArena::new();
        let mut fresh = seeded(&cache, cfg(), &mut a);
        let id = fresh.last_unsat_core().expect("tracked core").id;
        let (ge, lt, bystander) = facts(&mut a);
        let mut s = SmtSession::with_cache(cfg(), Arc::clone(&cache));
        s.assert(bystander);
        s.assert(lt);
        assert!(s.is_unsat_under(&mut a, &[bystander, ge]));
        assert_eq!(s.stats().core_hits, 1);
        let core = s.last_unsat_core().expect("a core hit carries its core");
        let mut slots: Vec<CoreSlot> = core.members.iter().map(|m| m.slot).collect();
        slots.sort_by_key(|slot| format!("{slot:?}"));
        assert_eq!(slots, vec![CoreSlot::Assertion(1), CoreSlot::Assumption(1)]);
        assert_eq!(core.id, id, "the same core, by content");
        assert_eq!(s.stats().cores, 1);
        // the subsumed query's verdict is the one a fresh solve reaches
        assert!(fresh.verdict_under(&mut a, &[lt, bystander, ge]).is_unsat());
    }

    #[test]
    fn core_hits_count_as_hits_and_partition_queries() {
        let cache = Arc::new(QueryCache::new());
        let mut a = TermArena::new();
        let mut s = seeded(&cache, cfg(), &mut a);
        let (ge, lt, bystander) = facts(&mut a);
        let queries: [&[TermId]; 5] = [
            &[ge, lt],
            &[ge, lt, bystander],
            &[bystander],
            &[lt, bystander, ge],
            &[ge, bystander],
        ];
        let verdicts: Vec<Verdict> = queries.iter().map(|q| s.verdict_under(&mut a, q)).collect();
        assert!(verdicts[0].is_unsat() && verdicts[1].is_unsat() && verdicts[3].is_unsat());
        let st = s.stats();
        assert_eq!(st.queries, 6);
        assert_eq!(st.cache_hits + st.cache_misses, st.queries);
        assert!(st.core_hits <= st.cache_hits);
        assert_eq!(st.core_hits, 2, "{st:?}");
        assert_eq!(cache.len() as u64, st.cache_misses);
    }
}

mod witness {
    use super::{arr_var, int_var};
    use crate::{Definitions, Model, Witness};
    use pins_logic::{Sort, TermArena, TermId};

    fn versioned(a: &mut TermArena, name: &str, version: u32) -> TermId {
        let s = a.sym(name);
        a.mk_var(s, version, Sort::Int)
    }

    /// `x1 = x0 + 1` is computed forward whichever side the arena puts the
    /// variable on, overriding a stale model value.
    #[test]
    fn definitions_work_in_both_orientations() {
        let mut a = TermArena::new();
        let x0 = versioned(&mut a, "x", 0);
        let x1 = versioned(&mut a, "x", 1); // older than the sum: left side
        let one = a.mk_int(1);
        let sum = a.mk_add(x0, one);
        let y1 = versioned(&mut a, "y", 1); // newer than the sum: right side
        let def_x = a.mk_eq(x1, sum);
        let def_y = a.mk_eq(sum, y1);
        let mut model = Model::default();
        model.ints.insert(x0, 5);
        model.ints.insert(x1, 0);
        model.ints.insert(y1, 0);
        let (six, seven) = (a.mk_int(6), a.mk_int(7));
        for (v, def) in [(x1, def_x), (y1, def_y)] {
            let holds = a.mk_eq(v, six);
            let fails = a.mk_eq(v, seven);
            let hyps = [def];
            let defs = Definitions::of(&a, &hyps);
            let mut w = Witness::new(&a, &model, &defs);
            assert_eq!(w.int(v), Some(6));
            assert!(!w.refutes(&hyps, holds));
            assert!(w.refutes(&hyps, fails));
        }
    }

    #[test]
    fn cycles_overflow_and_uninterpreted_sorts_give_no_verdict() {
        let mut a = TermArena::new();
        let x = int_var(&mut a, "x");
        let y = int_var(&mut a, "y");
        let one = a.mk_int(1);
        let zero = a.mk_int(0);
        let model = Model::default();

        // x = y + 1 and y = x - 1 define each other
        let yp = a.mk_add(y, one);
        let xm = a.mk_sub(x, one);
        let hyps = [a.mk_eq(x, yp), a.mk_eq(y, xm)];
        let goal = a.mk_le(x, zero);
        // y = x + 1 overflows at x = i64::MAX
        let xp = a.mk_add(x, one);
        let overflowing = [a.mk_eq(y, xp)];
        let negative = a.mk_le(y, zero);
        // values of an uninterpreted sort are not modelled
        let obj = a.symbols_mut().intern("Obj");
        let (us, vs) = (a.sym("u"), a.sym("v"));
        let u = a.mk_var(us, 0, Sort::Unint(obj));
        let v = a.mk_var(vs, 0, Sort::Unint(obj));
        let same = a.mk_eq(u, v);

        let defs = Definitions::of(&a, &hyps);
        let mut w = Witness::new(&a, &model, &defs);
        assert_eq!(w.int(x), None);
        assert!(!Witness::new(&a, &model, &defs).refutes(&hyps, goal));

        let mut big = Model::default();
        big.ints.insert(x, i64::MAX);
        let defs = Definitions::of(&a, &overflowing);
        let mut w = Witness::new(&a, &big, &defs);
        assert_eq!(w.holds(overflowing[0]), None);
        assert!(!Witness::new(&a, &big, &defs).refutes(&overflowing, negative));

        let defs = Definitions::default();
        assert_eq!(Witness::new(&a, &model, &defs).holds(same), None);
    }

    /// An uninterpreted application is undetermined even where the model
    /// values it: a witness never interprets a function.
    #[test]
    fn applications_give_no_verdict() {
        let mut a = TermArena::new();
        let f = a.declare_fun("f", vec![Sort::Int], Sort::Int);
        let x = int_var(&mut a, "x");
        let y = int_var(&mut a, "y");
        let fx = a.mk_app(f, vec![x]);
        let mut model = Model::default();
        model.ints.insert(x, 1);
        model.ints.insert(y, 7);
        model.ints.insert(fx, 7);
        let seven = a.mk_int(7);
        let eq = a.mk_eq(fx, seven);
        let hyps = [a.mk_eq(y, fx)];
        let goal = a.mk_le(y, seven);
        let defs = Definitions::of(&a, &hyps);
        let mut w = Witness::new(&a, &model, &defs);
        assert_eq!(w.int(x), Some(1));
        assert_eq!(w.int(fx), None);
        assert_eq!(w.holds(eq), None);
        assert_eq!(
            w.int(y),
            None,
            "a definition through `f` is undetermined too"
        );
        assert!(!Witness::new(&a, &model, &defs).refutes(&hyps, goal));
        assert!(!w.into_model().ints.contains_key(&fx));
    }

    #[test]
    fn arrays_default_to_zero_and_updates_apply() {
        let mut a = TermArena::new();
        let arr = arr_var(&mut a, "A");
        let empty = arr_var(&mut a, "B");
        let (one, two, three, zero) = (a.mk_int(1), a.mk_int(2), a.mk_int(3), a.mk_int(0));
        let mut model = Model::default();
        model.arrays.insert(arr, vec![(1, 5)]);
        let at1 = a.mk_sel(arr, one);
        let at2 = a.mk_sel(arr, two);
        let written = a.mk_upd(arr, two, three);
        let read = a.mk_sel(written, two);
        // clearing the one stored cell leaves the all-zero array
        let cleared = a.mk_upd(arr, one, zero);
        let same = a.mk_eq(cleared, empty);
        let differs = a.mk_eq(arr, empty);
        let defs = Definitions::default();
        let mut w = Witness::new(&a, &model, &defs);
        assert_eq!((w.int(at1), w.int(at2)), (Some(5), Some(0)));
        assert_eq!(w.int(read), Some(3));
        assert_eq!(w.holds(same), Some(true));
        assert_eq!(w.holds(differs), Some(false));
    }

    /// `∀k. 0 <= k < n => A[k] = B[k]` is falsified at a stored cell, and
    /// never concluded true when no pool value falsifies it.
    #[test]
    fn a_forall_is_falsified_from_the_pool_but_never_concluded_true() {
        let mut a = TermArena::new();
        let arr = arr_var(&mut a, "A");
        let other = arr_var(&mut a, "B");
        let n = int_var(&mut a, "n");
        let k = a.sym("k");
        let bk = a.mk_bound(k, Sort::Int);
        let zero = a.mk_int(0);
        let lo = a.mk_le(zero, bk);
        let hi = a.mk_lt(bk, n);
        let range = a.mk_and(vec![lo, hi]);
        let (sa, sb) = (a.mk_sel(arr, bk), a.mk_sel(other, bk));
        let eq = a.mk_eq(sa, sb);
        let body = a.mk_implies(range, eq);
        let all = a.mk_forall(vec![(k, Sort::Int)], body);
        let not_all = a.mk_not(all);
        let defs = Definitions::default();

        let mut differ = Model::default();
        differ.ints.insert(n, 5);
        differ.arrays.insert(arr, vec![(2, 7)]);
        let mut w = Witness::new(&a, &differ, &defs);
        assert_eq!(w.holds(all), Some(false));
        assert_eq!(w.holds(not_all), Some(true));

        let mut agree = differ.clone();
        agree.arrays.insert(other, vec![(2, 7)]);
        let mut w = Witness::new(&a, &agree, &defs);
        assert_eq!(w.holds(all), None);
        assert_eq!(w.holds(not_all), None);
    }
}
