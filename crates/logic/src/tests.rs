use std::collections::{HashMap, HashSet};

use crate::*;

fn setup() -> (TermArena, TermId, TermId) {
    let mut a = TermArena::new();
    let x = a.sym("x");
    let y = a.sym("y");
    let vx = a.mk_var(x, 0, Sort::Int);
    let vy = a.mk_var(y, 0, Sort::Int);
    (a, vx, vy)
}

#[test]
fn interning_dedupes() {
    let (mut a, vx, vy) = setup();
    let t1 = a.mk_add(vx, vy);
    let t2 = a.mk_add(vx, vy);
    assert_eq!(t1, t2);
}

#[test]
fn add_constant_folds() {
    let (mut a, vx, _) = setup();
    let two = a.mk_int(2);
    let three = a.mk_int(3);
    assert_eq!(a.mk_add(two, three), a.mk_int(5));
    let zero = a.mk_int(0);
    assert_eq!(a.mk_add(vx, zero), vx);
    assert_eq!(a.mk_add(zero, vx), vx);
}

#[test]
fn add_overflow_does_not_fold() {
    let mut a = TermArena::new();
    let big = a.mk_int(i64::MAX);
    let one = a.mk_int(1);
    let t = a.mk_add(big, one);
    assert!(matches!(a.term(t), Term::Add(..)));
}

#[test]
fn sub_laws() {
    let (mut a, vx, _) = setup();
    assert_eq!(a.mk_sub(vx, vx), a.mk_int(0));
    let zero = a.mk_int(0);
    assert_eq!(a.mk_sub(vx, zero), vx);
    let five = a.mk_int(5);
    let three = a.mk_int(3);
    assert_eq!(a.mk_sub(five, three), a.mk_int(2));
}

#[test]
fn mul_laws() {
    let (mut a, vx, _) = setup();
    let zero = a.mk_int(0);
    let one = a.mk_int(1);
    assert_eq!(a.mk_mul(vx, zero), zero);
    assert_eq!(a.mk_mul(one, vx), vx);
    let two = a.mk_int(2);
    let three = a.mk_int(3);
    assert_eq!(a.mk_mul(two, three), a.mk_int(6));
}

#[test]
fn eq_reflexive_and_const() {
    let (mut a, vx, vy) = setup();
    assert_eq!(a.mk_eq(vx, vx), a.mk_true());
    let two = a.mk_int(2);
    let three = a.mk_int(3);
    assert_eq!(a.mk_eq(two, three), a.mk_false());
    // canonical ordering means eq(x,y) == eq(y,x)
    assert_eq!(a.mk_eq(vx, vy), a.mk_eq(vy, vx));
}

#[test]
fn bool_eq_simplifies_against_constants() {
    let mut a = TermArena::new();
    let p = a.sym("p");
    let vp = a.mk_var(p, 0, Sort::Bool);
    let t = a.mk_true();
    let f = a.mk_false();
    assert_eq!(a.mk_eq(vp, t), vp);
    assert_eq!(a.mk_eq(vp, f), a.mk_not(vp));
}

#[test]
fn comparisons_fold() {
    let (mut a, vx, _) = setup();
    let two = a.mk_int(2);
    let three = a.mk_int(3);
    assert_eq!(a.mk_lt(two, three), a.mk_true());
    assert_eq!(a.mk_le(three, two), a.mk_false());
    assert_eq!(a.mk_lt(vx, vx), a.mk_false());
    assert_eq!(a.mk_le(vx, vx), a.mk_true());
}

#[test]
fn not_flips_inequalities() {
    let (mut a, vx, vy) = setup();
    let lt = a.mk_lt(vx, vy);
    let nlt = a.mk_not(lt);
    assert_eq!(nlt, a.mk_le(vy, vx));
    assert_eq!(a.mk_not(nlt), lt);
}

#[test]
fn and_or_flatten_and_absorb() {
    let (mut a, vx, vy) = setup();
    let p = a.mk_lt(vx, vy);
    let q = a.mk_le(vy, vx); // q == not p
    let t = a.mk_true();
    let f = a.mk_false();
    assert_eq!(a.mk_and(vec![p, t]), p);
    assert_eq!(a.mk_and(vec![p, f]), f);
    assert_eq!(a.mk_or(vec![p, f]), p);
    assert_eq!(a.mk_or(vec![p, t]), t);
    // complementary literals
    assert_eq!(a.mk_and(vec![p, q]), f);
    assert_eq!(a.mk_or(vec![p, q]), t);
    // nested flattening
    let pq = a.mk_eq(vx, vy);
    let inner = a.mk_and(vec![p, pq]);
    let outer = a.mk_and(vec![inner, pq]);
    assert_eq!(outer, inner);
}

#[test]
fn implies_desugars() {
    let (mut a, vx, vy) = setup();
    let p = a.mk_lt(vx, vy);
    let q = a.mk_eq(vx, vy);
    let imp = a.mk_implies(p, q);
    let np = a.mk_not(p);
    assert_eq!(imp, a.mk_or(vec![np, q]));
    assert_eq!(a.mk_implies(a.mk_false(), q), a.mk_true());
}

#[test]
fn sel_over_upd_folds() {
    let mut a = TermArena::new();
    let arr = a.sym("A");
    let va = a.mk_var(arr, 0, Sort::IntArray);
    let i0 = a.mk_int(0);
    let i1 = a.mk_int(1);
    let v = a.mk_int(42);
    let upd = a.mk_upd(va, i0, v);
    assert_eq!(a.mk_sel(upd, i0), v);
    let read_other = a.mk_sel(upd, i1);
    assert_eq!(read_other, a.mk_sel(va, i1));
}

#[test]
fn ite_simplifies() {
    let (mut a, vx, vy) = setup();
    let c = a.mk_lt(vx, vy);
    assert_eq!(a.mk_ite(a.mk_true(), vx, vy), vx);
    assert_eq!(a.mk_ite(a.mk_false(), vx, vy), vy);
    assert_eq!(a.mk_ite(c, vx, vx), vx);
}

#[test]
fn app_requires_declaration_and_sorts() {
    let mut a = TermArena::new();
    let str_sort = Sort::Unint(a.sym("Str"));
    let f = a.declare_fun("strlen", vec![str_sort], Sort::Int);
    let s = a.sym("s");
    let vs = a.mk_var(s, 0, str_sort);
    let app = a.mk_app(f, vec![vs]);
    assert_eq!(a.sort(app), Sort::Int);
}

#[test]
#[should_panic(expected = "arity mismatch")]
fn app_arity_checked() {
    let mut a = TermArena::new();
    let f = a.declare_fun("g", vec![Sort::Int], Sort::Int);
    a.mk_app(f, vec![]);
}

#[test]
fn substitution_replaces_and_renormalises() {
    let (mut a, vx, vy) = setup();
    let sum = a.mk_add(vx, vy);
    let zero = a.mk_int(0);
    let mut map = HashMap::new();
    map.insert(vy, zero);
    let out = a.substitute(sum, &map);
    assert_eq!(out, vx);
}

#[test]
fn substitution_in_formulas() {
    let (mut a, vx, vy) = setup();
    let lt = a.mk_lt(vx, vy);
    let two = a.mk_int(2);
    let three = a.mk_int(3);
    let mut map = HashMap::new();
    map.insert(vx, two);
    map.insert(vy, three);
    assert_eq!(a.substitute(lt, &map), a.mk_true());
}

#[test]
fn collect_vars_skips_bound() {
    let mut a = TermArena::new();
    let x = a.sym("x");
    let k = a.sym("k");
    let vx = a.mk_var(x, 2, Sort::Int);
    let bk = a.mk_bound(k, Sort::Int);
    let body = a.mk_lt(bk, vx);
    let q = a.mk_forall(vec![(k, Sort::Int)], body);
    let mut vars = HashSet::new();
    collect_vars(&a, q, &mut vars);
    assert_eq!(vars.len(), 1);
    let v = vars.iter().next().unwrap();
    assert_eq!(v.sym, x);
    assert_eq!(v.version, 2);
}

#[test]
fn display_round_trip_shapes() {
    let (mut a, vx, vy) = setup();
    let sum = a.mk_add(vx, vy);
    assert_eq!(a.display(sum).to_string(), "(+ x@0 y@0)");
    let lt = a.mk_lt(sum, vx);
    assert_eq!(a.display(lt).to_string(), "(< (+ x@0 y@0) x@0)");
}

#[test]
fn collect_subterms_complete() {
    let (mut a, vx, vy) = setup();
    let sum = a.mk_add(vx, vy);
    let lt = a.mk_lt(sum, vx);
    let mut subs = HashSet::new();
    collect_subterms(&a, lt, &mut subs);
    assert!(subs.contains(&lt) && subs.contains(&sum) && subs.contains(&vx) && subs.contains(&vy));
    assert_eq!(subs.len(), 4);
}

#[test]
fn hole_terms_are_opaque() {
    let mut a = TermArena::new();
    let h0 = a.mk_hole(0, Sort::Int);
    let h1 = a.mk_hole(1, Sort::Int);
    assert_ne!(h0, h1);
    assert_eq!(a.mk_hole(0, Sort::Int), h0);
    assert_eq!(a.display(h0).to_string(), "hole#0");
}

#[test]
fn fresh_symbols_never_collide() {
    let mut t = SymbolTable::new();
    let a = t.intern("x");
    let b = t.fresh("x");
    let c = t.fresh("x");
    assert_ne!(a, b);
    assert_ne!(b, c);
    assert_eq!(t.name(a), "x");
    assert_ne!(t.name(b), t.name(c));
}

#[test]
fn groundness_bit_tracks_bound_variables_through_every_operator() {
    let (mut a, vx, vy) = setup();
    let k = a.sym("k");
    let bk = a.mk_bound(k, Sort::Int);
    let arr = a.sym("arr");
    let va = a.mk_var(arr, 0, Sort::IntArray);
    let f = a.declare_fun("f", vec![Sort::Int, Sort::Int], Sort::Int);
    let ground_app = a.mk_app(f, vec![vx, vy]);
    let open_app = a.mk_app(f, vec![vx, bk]);
    let open_sel = a.mk_sel(va, bk);
    let open_upd = a.mk_upd(va, vx, bk);
    let body = a.mk_le(open_sel, ground_app);
    let q = a.mk_forall(vec![(k, Sort::Int)], body);
    let guard = a.mk_lt(vx, vy);
    let wrapped = a.mk_and(vec![guard, q]);
    for t in [vx, ground_app, guard, a.mk_true()] {
        assert!(a.is_ground(t), "{}", a.display(t));
    }
    // a closed `Forall` still has its bound variable inside: the bit is
    // about occurrence, not about binding
    for t in [bk, open_app, open_sel, open_upd, body, q, wrapped] {
        assert!(!a.is_ground(t), "{}", a.display(t));
    }
    // the bit agrees with a walk of the subterm DAG on every term
    for i in 0..a.len() {
        let t = TermId(i as u32);
        let mut subs = HashSet::new();
        collect_subterms(&a, t, &mut subs);
        let walked = !subs
            .iter()
            .any(|&s| matches!(a.term(s), Term::Var { version, .. } if *version == BOUND_VERSION));
        assert_eq!(a.is_ground(t), walked, "{}", a.display(t));
    }
}
