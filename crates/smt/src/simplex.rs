//! A Dutertre–de Moura style simplex core for linear *integer* arithmetic.
//!
//! All atoms PINS generates compare integer-sorted terms, so strict
//! inequalities are tightened to non-strict ones over the integers before
//! they reach this module (`x < y` becomes `x + 1 <= y`); no
//! delta-rationals are needed. Rational relaxation is solved with the
//! classic bounds-aware simplex; integrality is restored by branch-and-bound
//! with explanation propagation.
//!
//! Every pivot and every branch-and-bound node charges the attached
//! [`Budget`], and all rational arithmetic is checked: a deadline, step
//! limit, cancellation, or overflow surfaces as [`Conflict::Stopped`]
//! rather than a hang or a panic.

use std::collections::{BTreeSet, HashMap};

use pins_budget::{Budget, StopReason};

use crate::rational::Rat;

/// A reason tag attached to an asserted bound. The SMT layer uses SAT
/// literal codes; branch-and-bound uses private marker tags above
/// [`MARKER_BASE`], which never leak out of [`Lia::check_int`].
pub type Reason = u32;

const MARKER_BASE: Reason = u32::MAX / 2;

/// Why a theory operation failed to make progress.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Conflict {
    /// The asserted bounds are jointly infeasible; the payload is an
    /// explanation over the caller's reason tags.
    Infeasible(Vec<Reason>),
    /// Work was cut short — budget exhaustion, cancellation, or rational
    /// overflow. No verdict; the caller degrades to `Unknown`.
    Stopped(StopReason),
}

impl Conflict {
    /// The infeasibility explanation; panics on `Stopped` (test helper).
    pub fn reasons(self) -> Vec<Reason> {
        match self {
            Conflict::Infeasible(r) => r,
            Conflict::Stopped(s) => panic!("expected infeasibility, got stop: {s}"),
        }
    }
}

const OVERFLOW: Conflict = Conflict::Stopped(StopReason::Overflow);

fn add(a: Rat, b: Rat) -> Result<Rat, Conflict> {
    a.checked_add(b).ok_or(OVERFLOW)
}

fn sub(a: Rat, b: Rat) -> Result<Rat, Conflict> {
    a.checked_sub(b).ok_or(OVERFLOW)
}

fn mul(a: Rat, b: Rat) -> Result<Rat, Conflict> {
    a.checked_mul(b).ok_or(OVERFLOW)
}

fn div(a: Rat, b: Rat) -> Result<Rat, Conflict> {
    a.checked_div(b).ok_or(OVERFLOW)
}

fn gcd_u128(a: u128, b: u128) -> u128 {
    let (mut a, mut b) = (a, b);
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

#[derive(Debug, Clone, Copy)]
struct Bound {
    value: Rat,
    reason: Reason,
}

#[derive(Debug, Clone, Default)]
struct Row {
    basic: usize,
    /// `basic = sum c * x` over non-basic `x`, sorted by variable, non-zero.
    coeffs: Vec<(usize, Rat)>,
}

impl Row {
    fn coeff(&self, v: usize) -> Option<Rat> {
        self.coeffs
            .binary_search_by_key(&v, |&(u, _)| u)
            .ok()
            .map(|i| self.coeffs[i].1)
    }
}

fn remove_row(col: &mut Vec<usize>, row: usize) {
    if let Some(p) = col.iter().position(|&r| r == row) {
        col.swap_remove(p);
    }
}

/// A backtrackable linear-integer-arithmetic solver.
///
/// Usage: create variables, take a slack variable per distinct linear
/// expression ([`Lia::slack_for`]; its row persists), assert bounds, then
/// call [`Lia::check`] (rational) or [`Lia::check_int`] (integer). Bound
/// assertions are trailed: [`Lia::backtrack`] restores the bounds of an
/// earlier [`Lia::mark`] while the assignment stays as it is — still
/// feasible for the looser bounds — and serves as the next check's warm
/// start. Only basic variables whose value or bounds changed are scanned
/// for violations, and each variable keeps the list of rows it occurs in,
/// so a pivot touches only the rows that mention the entering variable.
///
/// Bound assertions and checks return a `Conflict`: either infeasibility
/// *explanations* (sets of reason tags whose bounds are jointly
/// integer-infeasible) or an early stop.
#[derive(Debug, Default)]
pub struct Lia {
    values: Vec<Rat>,
    lower: Vec<Option<Bound>>,
    upper: Vec<Option<Bound>>,
    rows: Vec<Row>,
    /// var -> row index if basic
    row_of: Vec<Option<usize>>,
    /// var -> rows it occurs in while non-basic
    col: Vec<Vec<usize>>,
    /// memo: normalised expression -> slack var
    slack_of: HashMap<Vec<(usize, i64)>, usize>,
    /// var -> gcd of the integer coefficients defining it (0: not a slack);
    /// a slack's bounds round inward to multiples of it
    gcd: Vec<u128>,
    /// bound changes, oldest first: (var, is upper, previous bound)
    trail: Vec<(usize, bool, Option<Bound>)>,
    /// basic variables that may violate a bound
    dirty: BTreeSet<usize>,
    next_marker: Reason,
    /// Work budget charged per pivot and per branch-and-bound node.
    budget: Budget,
    /// Set when branch-and-bound hit its depth budget and answered "sat"
    /// without restoring integrality; the SMT layer reports `Unknown`.
    pub int_incomplete: bool,
}

impl Lia {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Lia {
            next_marker: MARKER_BASE,
            ..Default::default()
        }
    }

    /// Attaches the work budget charged by pivots and branching.
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    /// Allocates a fresh integer variable.
    pub fn new_var(&mut self) -> usize {
        let v = self.values.len();
        self.values.push(Rat::ZERO);
        self.lower.push(None);
        self.upper.push(None);
        self.row_of.push(None);
        self.col.push(Vec::new());
        self.gcd.push(0);
        v
    }

    /// Number of variables (including slacks).
    pub fn num_vars(&self) -> usize {
        self.values.len()
    }

    /// Current (rational) value of `v`.
    pub fn value(&self, v: usize) -> Rat {
        self.values[v]
    }

    /// The current bound-trail position, for [`Lia::backtrack`].
    pub fn mark(&self) -> usize {
        self.trail.len()
    }

    /// Restores the bounds of `mark`. Values are kept: they satisfy the
    /// looser bounds and warm-start the next check.
    pub fn backtrack(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let (v, is_upper, old) = self.trail.pop().expect("non-empty trail");
            if is_upper {
                self.upper[v] = old;
            } else {
                self.lower[v] = old;
            }
        }
    }

    /// Returns the slack variable standing for the linear expression, creating
    /// its defining row on first use. `expr` maps variables to coefficients;
    /// it must be non-empty and is normalised by sorting.
    pub fn slack_for(&mut self, expr: &[(usize, i64)]) -> Result<usize, Conflict> {
        let mut key: Vec<(usize, i64)> = expr.to_vec();
        key.sort_unstable();
        if let Some(&s) = self.slack_of.get(&key) {
            return Ok(s);
        }
        // express the row over non-basic variables only
        let mut acc: HashMap<usize, Rat> = HashMap::new();
        for &(v, c) in &key {
            let c = Rat::from_int(c);
            if let Some(r) = self.row_of[v] {
                for &(u, cu) in &self.rows[r].coeffs {
                    let e = acc.entry(u).or_insert(Rat::ZERO);
                    *e = add(*e, mul(c, cu)?)?;
                }
            } else {
                let e = acc.entry(v).or_insert(Rat::ZERO);
                *e = add(*e, c)?;
            }
        }
        let mut coeffs: Vec<(usize, Rat)> = acc.into_iter().filter(|(_, c)| !c.is_zero()).collect();
        coeffs.sort_unstable_by_key(|&(u, _)| u);
        // value of the slack = current value of the expression
        let mut val = Rat::ZERO;
        for &(u, cu) in &coeffs {
            val = add(val, mul(cu, self.values[u])?)?;
        }
        let s = self.new_var();
        self.values[s] = val;
        let row_idx = self.rows.len();
        for &(u, _) in &coeffs {
            self.col[u].push(row_idx);
        }
        self.rows.push(Row { basic: s, coeffs });
        self.row_of[s] = Some(row_idx);
        let mut g: u128 = 0;
        for &(_, c) in &key {
            g = gcd_u128(g, (c as i128).unsigned_abs());
        }
        self.gcd[s] = g;
        self.slack_of.insert(key, s);
        Ok(s)
    }

    /// GCD-based tightening: a slack `s = sum c_i * x_i` over integer
    /// variables is always a multiple of `g = gcd(c_i)`, so its bounds round
    /// inward to multiples of `g`. Detects e.g. `2x - 2y = 1` directly,
    /// which plain branch-and-bound diverges on.
    fn tighten(&self, v: usize, c: Rat, upper: bool) -> Result<Rat, Conflict> {
        let g = self.gcd[v];
        if g <= 1 {
            return Ok(c);
        }
        let gr = Rat::from_int128(g as i128);
        let q = div(c, gr)?;
        let q = if upper { q.floor() } else { q.ceil() };
        mul(gr, Rat::from_int128(q))
    }

    /// Asserts `v >= c`. On immediate conflict with the existing upper bound,
    /// returns the two reasons.
    pub fn assert_lower(&mut self, v: usize, c: Rat, reason: Reason) -> Result<(), Conflict> {
        let c = self.tighten(v, c, false)?;
        if let Some(lb) = self.lower[v] {
            if c <= lb.value {
                return Ok(());
            }
        }
        if let Some(ub) = self.upper[v] {
            if c > ub.value {
                return Err(Conflict::Infeasible(vec![reason, ub.reason]));
            }
        }
        self.trail.push((v, false, self.lower[v]));
        self.lower[v] = Some(Bound { value: c, reason });
        if self.row_of[v].is_some() {
            self.dirty.insert(v);
        } else if self.values[v] < c {
            self.update_nonbasic(v, c)?;
        }
        Ok(())
    }

    /// Asserts `v <= c`.
    pub fn assert_upper(&mut self, v: usize, c: Rat, reason: Reason) -> Result<(), Conflict> {
        let c = self.tighten(v, c, true)?;
        if let Some(ub) = self.upper[v] {
            if c >= ub.value {
                return Ok(());
            }
        }
        if let Some(lb) = self.lower[v] {
            if c < lb.value {
                return Err(Conflict::Infeasible(vec![reason, lb.reason]));
            }
        }
        self.trail.push((v, true, self.upper[v]));
        self.upper[v] = Some(Bound { value: c, reason });
        if self.row_of[v].is_some() {
            self.dirty.insert(v);
        } else if self.values[v] > c {
            self.update_nonbasic(v, c)?;
        }
        Ok(())
    }

    fn update_nonbasic(&mut self, v: usize, c: Rat) -> Result<(), Conflict> {
        let delta = sub(c, self.values[v])?;
        self.values[v] = c;
        for &i in &self.col[v] {
            let row = &self.rows[i];
            let coeff = row.coeff(v).expect("column lists match rows");
            let b = row.basic;
            self.values[b] = add(self.values[b], mul(coeff, delta)?)?;
            self.dirty.insert(b);
        }
        Ok(())
    }

    /// Bland's rule: the smallest violating basic variable; `true` = below
    /// its lower bound. Drops dirty entries that turn out to be in bounds.
    fn violation(&mut self) -> Option<(usize, bool)> {
        while let Some(&b) = self.dirty.first() {
            if self.row_of[b].is_some() {
                let val = self.values[b];
                if self.lower[b].is_some_and(|lb| val < lb.value) {
                    return Some((b, true));
                }
                if self.upper[b].is_some_and(|ub| val > ub.value) {
                    return Some((b, false));
                }
            }
            self.dirty.pop_first();
        }
        None
    }

    /// Restores the rational feasibility invariant. On infeasibility, returns
    /// an explanation (set of bound reasons).
    pub fn check(&mut self) -> Result<(), Conflict> {
        loop {
            self.budget.charge(1).map_err(Conflict::Stopped)?;
            let Some((xi, below)) = self.violation() else {
                return Ok(());
            };
            let r = self.row_of[xi].expect("violating var must be basic");
            let target = if below {
                self.lower[xi].unwrap().value
            } else {
                self.upper[xi].unwrap().value
            };
            // pivot column (Bland: smallest suitable non-basic var; the row
            // is sorted by variable)
            let pivot = self.rows[r].coeffs.iter().find_map(|&(j, a)| {
                let can_rise = self.upper[j].is_none_or(|ub| self.values[j] < ub.value);
                let can_fall = self.lower[j].is_none_or(|lb| self.values[j] > lb.value);
                let suitable = if below {
                    (a > Rat::ZERO && can_rise) || (a < Rat::ZERO && can_fall)
                } else {
                    (a < Rat::ZERO && can_rise) || (a > Rat::ZERO && can_fall)
                };
                suitable.then_some(j)
            });
            match pivot {
                Some(xj) => self.pivot_and_update(r, xi, xj, target)?,
                None => {
                    // infeasible: collect the explanation from the row
                    let mut expl = Vec::new();
                    let (own, pos, neg) = if below {
                        (self.lower[xi], &self.upper, &self.lower)
                    } else {
                        (self.upper[xi], &self.lower, &self.upper)
                    };
                    expl.push(own.unwrap().reason);
                    for &(j, a) in &self.rows[r].coeffs {
                        let b = if a > Rat::ZERO { pos[j] } else { neg[j] };
                        expl.push(b.expect("bound must exist").reason);
                    }
                    expl.sort_unstable();
                    expl.dedup();
                    return Err(Conflict::Infeasible(expl));
                }
            }
        }
    }

    /// Pivot basic `xi` (row `r`) with non-basic `xj`, setting `xi` to `target`.
    fn pivot_and_update(
        &mut self,
        r: usize,
        xi: usize,
        xj: usize,
        target: Rat,
    ) -> Result<(), Conflict> {
        let a_ij = self.rows[r].coeff(xj).expect("pivot column in row");
        let theta = div(sub(target, self.values[xi])?, a_ij)?;
        self.values[xi] = target;
        self.values[xj] = add(self.values[xj], theta)?;
        for &i in &self.col[xj] {
            if i != r {
                let row = &self.rows[i];
                let c = row.coeff(xj).expect("column lists match rows");
                let b = row.basic;
                self.values[b] = add(self.values[b], mul(c, theta)?)?;
                self.dirty.insert(b);
            }
        }
        // rewrite row r: xi = a_ij * xj + rest  =>  xj = (xi - rest) / a_ij
        let inv = a_ij.checked_recip().ok_or(OVERFLOW)?;
        let old = std::mem::take(&mut self.rows[r].coeffs);
        let mut new_coeffs: Vec<(usize, Rat)> = Vec::with_capacity(old.len());
        for &(k, c) in &old {
            if k != xj {
                new_coeffs.push((k, div(c, a_ij)?.checked_neg().ok_or(OVERFLOW)?));
            }
        }
        let at = new_coeffs.partition_point(|&(k, _)| k < xi);
        new_coeffs.insert(at, (xi, inv));
        self.rows[r] = Row {
            basic: xj,
            coeffs: new_coeffs,
        };
        self.row_of[xi] = None;
        self.row_of[xj] = Some(r);
        self.col[xi].push(r);
        // substitute xj in every other row that mentions it
        let users = std::mem::take(&mut self.col[xj]);
        for i in users {
            if i != r {
                self.substitute(i, r, xj)?;
            }
        }
        self.dirty.insert(xj);
        Ok(())
    }

    /// Replaces non-basic `xj` in row `i` by row `r`'s definition of it,
    /// keeping the column lists in step.
    fn substitute(&mut self, i: usize, r: usize, xj: usize) -> Result<(), Conflict> {
        let mut a = std::mem::take(&mut self.rows[i].coeffs);
        let at = a
            .binary_search_by_key(&xj, |&(u, _)| u)
            .expect("column lists match rows");
        let c = a.remove(at).1;
        let b = &self.rows[r].coeffs;
        let mut out: Vec<(usize, Rat)> = Vec::with_capacity(a.len() + b.len());
        let (mut p, mut q) = (0, 0);
        while p < a.len() || q < b.len() {
            let take_a = q == b.len() || (p < a.len() && a[p].0 < b[q].0);
            if take_a {
                out.push(a[p]);
                p += 1;
                continue;
            }
            let (k, ck) = b[q];
            q += 1;
            let scaled = mul(c, ck)?;
            if p < a.len() && a[p].0 == k {
                let sum = add(a[p].1, scaled)?;
                p += 1;
                if sum.is_zero() {
                    remove_row(&mut self.col[k], i);
                } else {
                    out.push((k, sum));
                }
            } else if !scaled.is_zero() {
                out.push((k, scaled));
                self.col[k].push(i);
            }
        }
        self.rows[i].coeffs = out;
        Ok(())
    }

    /// Checks satisfiability over the *integers* via branch-and-bound.
    ///
    /// Each branch asserts its bound on the trail and pops it afterwards; the
    /// assignment a successful branch leaves behind is integral and satisfies
    /// the looser bounds too (unless the depth budget ran out, flagged by
    /// `int_incomplete`). On failure returns an explanation over the
    /// caller's reason tags, or an early stop.
    pub fn check_int(&mut self, max_depth: u32) -> Result<(), Conflict> {
        self.budget.charge(1).map_err(Conflict::Stopped)?;
        self.check()?;
        let frac = (0..self.values.len()).find(|&v| !self.values[v].is_integer());
        let Some(x) = frac else {
            return Ok(());
        };
        if max_depth == 0 {
            self.int_incomplete = true;
            return Ok(());
        }
        let val = self.values[x];
        let marker = self.next_marker;
        self.next_marker += 1;
        let mark = self.mark();

        let left = self
            .assert_upper(x, Rat::from_int128(val.floor()), marker)
            .and_then(|()| self.check_int(max_depth - 1));
        self.backtrack(mark);
        let e1 = match left {
            Ok(()) => return Ok(()),
            Err(Conflict::Stopped(s)) => return Err(Conflict::Stopped(s)),
            Err(Conflict::Infeasible(e1)) if !e1.contains(&marker) => {
                return Err(Conflict::Infeasible(e1)); // independent of the branch
            }
            Err(Conflict::Infeasible(e1)) => e1,
        };
        let right = self
            .assert_lower(x, Rat::from_int128(val.ceil()), marker)
            .and_then(|()| self.check_int(max_depth - 1));
        self.backtrack(mark);
        match right {
            Ok(()) => Ok(()),
            Err(Conflict::Stopped(s)) => Err(Conflict::Stopped(s)),
            Err(Conflict::Infeasible(e2)) if !e2.contains(&marker) => Err(Conflict::Infeasible(e2)),
            Err(Conflict::Infeasible(e2)) => {
                let mut expl: Vec<Reason> =
                    e1.into_iter().chain(e2).filter(|&t| t != marker).collect();
                expl.sort_unstable();
                expl.dedup();
                Err(Conflict::Infeasible(expl))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(v: i64) -> Rat {
        Rat::from_int(v)
    }

    #[test]
    fn feasible_box() {
        let mut lia = Lia::new();
        let x = lia.new_var();
        let y = lia.new_var();
        lia.assert_lower(x, r(1), 0).unwrap();
        lia.assert_upper(x, r(5), 1).unwrap();
        lia.assert_lower(y, r(2), 2).unwrap();
        lia.assert_upper(y, r(3), 3).unwrap();
        assert!(lia.check_int(20).is_ok());
        assert!(lia.value(x) >= r(1) && lia.value(x) <= r(5));
        assert!(lia.value(y) >= r(2) && lia.value(y) <= r(3));
    }

    #[test]
    fn direct_bound_clash() {
        let mut lia = Lia::new();
        let x = lia.new_var();
        lia.assert_lower(x, r(5), 7).unwrap();
        let e = lia.assert_upper(x, r(4), 9).unwrap_err().reasons();
        assert!(e.contains(&7) && e.contains(&9));
    }

    #[test]
    fn sum_constraint_infeasible() {
        // x + y >= 10, x <= 3, y <= 3
        let mut lia = Lia::new();
        let x = lia.new_var();
        let y = lia.new_var();
        let s = lia.slack_for(&[(x, 1), (y, 1)]).unwrap();
        lia.assert_lower(s, r(10), 0).unwrap();
        lia.assert_upper(x, r(3), 1).unwrap();
        lia.assert_upper(y, r(3), 2).unwrap();
        let e = lia.check_int(20).unwrap_err().reasons();
        assert_eq!(e, vec![0, 1, 2]);
    }

    #[test]
    fn sum_constraint_feasible_model() {
        let mut lia = Lia::new();
        let x = lia.new_var();
        let y = lia.new_var();
        let s = lia.slack_for(&[(x, 1), (y, 1)]).unwrap();
        lia.assert_lower(s, r(10), 0).unwrap();
        lia.assert_upper(x, r(7), 1).unwrap();
        lia.assert_upper(y, r(7), 2).unwrap();
        assert!(lia.check_int(20).is_ok());
        let (vx, vy) = (lia.value(x), lia.value(y));
        assert!(vx + vy >= r(10));
        assert!(vx <= r(7) && vy <= r(7));
        assert!(vx.is_integer() && vy.is_integer());
    }

    #[test]
    fn integrality_requires_branching() {
        // 2x + 3y = 1 with x = 0 has a rational solution but no integer one
        let mut lia = Lia::new();
        let x = lia.new_var();
        let y = lia.new_var();
        let s = lia.slack_for(&[(x, 2), (y, 3)]).unwrap();
        lia.assert_lower(s, r(1), 0).unwrap();
        lia.assert_upper(s, r(1), 1).unwrap();
        lia.assert_lower(x, r(0), 2).unwrap();
        lia.assert_upper(x, r(0), 3).unwrap();
        let e = lia.check_int(20).unwrap_err().reasons();
        assert!(!e.is_empty());
        assert!(
            e.iter().all(|&t| t < MARKER_BASE),
            "markers must not leak: {e:?}"
        );
    }

    #[test]
    fn integral_branching_succeeds() {
        // 2x + 3y = 7 with 0 <= x,y <= 5 has integer solutions (2,1).
        let mut lia = Lia::new();
        let x = lia.new_var();
        let y = lia.new_var();
        let s = lia.slack_for(&[(x, 2), (y, 3)]).unwrap();
        lia.assert_lower(s, r(7), 0).unwrap();
        lia.assert_upper(s, r(7), 1).unwrap();
        for (v, lo_r, hi_r) in [(x, 2, 3), (y, 4, 5)] {
            lia.assert_lower(v, r(0), lo_r).unwrap();
            lia.assert_upper(v, r(5), hi_r).unwrap();
        }
        assert!(lia.check_int(30).is_ok());
        let (vx, vy) = (
            lia.value(x).to_i64().unwrap(),
            lia.value(y).to_i64().unwrap(),
        );
        assert_eq!(2 * vx + 3 * vy, 7);
    }

    #[test]
    fn slack_reuse() {
        let mut lia = Lia::new();
        let x = lia.new_var();
        let y = lia.new_var();
        let s1 = lia.slack_for(&[(x, 1), (y, -1)]).unwrap();
        let s2 = lia.slack_for(&[(y, -1), (x, 1)]).unwrap();
        assert_eq!(s1, s2);
    }

    #[test]
    fn equality_chain() {
        // x = y, y = z, x >= 3, z <= 2 -> infeasible
        let mut lia = Lia::new();
        let x = lia.new_var();
        let y = lia.new_var();
        let z = lia.new_var();
        let xy = lia.slack_for(&[(x, 1), (y, -1)]).unwrap();
        let yz = lia.slack_for(&[(y, 1), (z, -1)]).unwrap();
        lia.assert_lower(xy, r(0), 0).unwrap();
        lia.assert_upper(xy, r(0), 1).unwrap();
        lia.assert_lower(yz, r(0), 2).unwrap();
        lia.assert_upper(yz, r(0), 3).unwrap();
        lia.assert_lower(x, r(3), 4).unwrap();
        lia.assert_upper(z, r(2), 5).unwrap();
        assert!(lia.check_int(20).is_err());
    }

    #[test]
    fn step_limit_stops_branching() {
        let mut lia = Lia::new();
        lia.set_budget(Budget::with_limits(None, Some(1)));
        let x = lia.new_var();
        let y = lia.new_var();
        let s = lia.slack_for(&[(x, 2), (y, 3)]).unwrap();
        lia.assert_lower(s, r(1), 0).unwrap();
        lia.assert_upper(s, r(1), 1).unwrap();
        lia.assert_lower(x, r(0), 2).unwrap();
        lia.assert_upper(x, r(0), 3).unwrap();
        match lia.check_int(20) {
            Err(Conflict::Stopped(StopReason::StepLimit)) => {}
            other => panic!("expected step-limit stop, got {other:?}"),
        }
    }

    #[test]
    fn gcd_tightening_refutes_at_assertion() {
        // 2x = 1: the slack's bounds round inward to multiples of 2 and cross
        let mut lia = Lia::new();
        let x = lia.new_var();
        let s = lia.slack_for(&[(x, 2)]).unwrap();
        lia.assert_lower(s, r(1), 0).unwrap();
        let e = lia.assert_upper(s, r(1), 1).unwrap_err().reasons();
        assert_eq!(e, vec![1, 0]);
    }

    #[test]
    fn backtrack_restores_bounds_and_keeps_a_feasible_assignment() {
        // x + y >= 10, then x <= 3 and y <= 3 (infeasible), then back
        let mut lia = Lia::new();
        let x = lia.new_var();
        let y = lia.new_var();
        let s = lia.slack_for(&[(x, 1), (y, 1)]).unwrap();
        lia.assert_lower(s, r(10), 0).unwrap();
        assert!(lia.check().is_ok());
        let mark = lia.mark();
        lia.assert_upper(x, r(3), 1).unwrap();
        lia.assert_upper(y, r(3), 2).unwrap();
        assert_eq!(lia.check().unwrap_err().reasons(), vec![0, 1, 2]);
        lia.backtrack(mark);
        assert!(lia.check_int(20).is_ok());
        assert!(lia.value(x) + lia.value(y) >= r(10));
    }

    #[test]
    fn overflow_degrades_to_stop() {
        // chain x1 = K*x0, x2 = K*x1, ... with K = 2^62 and x0 >= 3 forces
        // values past i128 range during bound propagation
        let mut lia = Lia::new();
        let k = 1i64 << 62;
        let mut prev = lia.new_var();
        lia.assert_lower(prev, r(3), 0).unwrap();
        let mut tag = 1;
        let mut stopped = false;
        for _ in 0..4 {
            let next = lia.new_var();
            let s = match lia.slack_for(&[(next, 1), (prev, -k)]) {
                Ok(s) => s,
                Err(Conflict::Stopped(StopReason::Overflow)) => {
                    stopped = true;
                    break;
                }
                Err(other) => panic!("unexpected {other:?}"),
            };
            let res = lia
                .assert_lower(s, r(0), tag)
                .and_then(|()| lia.assert_upper(s, r(0), tag + 1))
                .and_then(|()| lia.check_int(10));
            match res {
                Ok(()) => {}
                Err(Conflict::Stopped(StopReason::Overflow)) => {
                    stopped = true;
                    break;
                }
                Err(other) => panic!("unexpected {other:?}"),
            }
            tag += 2;
            prev = next;
        }
        assert!(stopped, "expected an overflow stop, not a panic");
    }
}
