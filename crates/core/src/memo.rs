//! The hole memo: what a query is known to answer under restricted hole
//! assignments, learnt from unsat cores.

use pins_logic::FxHashSet;
use pins_smt::{CoreSlot, UnsatCore};

use crate::constraints::HoleSet;
use crate::solve::Solution;

/// Restricted hole assignments known to make a query `Unsat`, or not, per
/// subject.
///
/// A *subject* is a query shape that recurs once per candidate: a
/// constraint part in `solve` (hypotheses, then the negated goal) or an
/// explored path in pickOne (its conjuncts). When a subject's query under
/// a candidate is `Unsat`, the session's unsat core names the query slots
/// that matter; every later candidate that agrees with this one on the
/// holes of *those* slots substitutes them into the same terms, so its
/// query contains the same core and is `Unsat` too — the memo answers it
/// without the query being built. With no core (core tracking off), the
/// whole subject's hole set is the key, which is exact. Inexact cores
/// over-approximate their slots, so they stay sound.
#[derive(Debug, Default)]
pub struct HoleMemo {
    subjects: Vec<Subject>,
    /// The key buffer lookups fill, so that they allocate nothing.
    key: Vec<u32>,
}

#[derive(Debug)]
struct Subject {
    /// Per query slot: the holes its term mentions.
    slots: Vec<HoleSet>,
    /// Every hole the subject mentions.
    holes: HoleSet,
    /// Per core hole set: the assignments over it known `Unsat`.
    unsat: Vec<(HoleSet, FxHashSet<Box<[u32]>>)>,
    /// Assignments over `holes` known not to be `Unsat`.
    other: FxHashSet<Box<[u32]>>,
}

/// `s`'s choices on `holes`, expression holes first, into `key`.
fn restrict(key: &mut Vec<u32>, holes: &HoleSet, s: &Solution) {
    key.clear();
    // an unfilled hole (`usize::MAX`) becomes `u32::MAX`
    key.extend(holes.exprs.iter().map(|&h| s.exprs[h as usize] as u32));
    key.extend(holes.preds.iter().map(|&h| s.preds[h as usize] as u32));
}

impl HoleMemo {
    /// An empty memo.
    pub fn new() -> HoleMemo {
        HoleMemo::default()
    }

    /// Registers a subject whose query slot `j` mentions the holes
    /// `slots[j]`, and returns its index (subjects are numbered in order).
    pub fn add(&mut self, slots: Vec<HoleSet>) -> usize {
        let mut holes = HoleSet::default();
        for s in &slots {
            holes.union(s);
        }
        self.subjects.push(Subject {
            slots,
            holes,
            unsat: Vec::new(),
            other: FxHashSet::default(),
        });
        self.subjects.len() - 1
    }

    /// Number of subjects registered.
    pub fn len(&self) -> usize {
        self.subjects.len()
    }

    /// Whether no subject is registered.
    pub fn is_empty(&self) -> bool {
        self.subjects.is_empty()
    }

    /// Every hole subject `i` mentions.
    pub fn holes(&self, i: usize) -> &HoleSet {
        &self.subjects[i].holes
    }

    /// What subject `i`'s query is known to answer under `s`: `Some(true)`
    /// for `Unsat`, `Some(false)` for not `Unsat`, `None` when unknown.
    pub fn lookup(&mut self, i: usize, s: &Solution) -> Option<bool> {
        let subject = &self.subjects[i];
        if !subject.other.is_empty() {
            restrict(&mut self.key, &subject.holes, s);
            if subject.other.contains(&self.key[..]) {
                return Some(false);
            }
        }
        for (holes, known) in &subject.unsat {
            restrict(&mut self.key, holes, s);
            if known.contains(&self.key[..]) {
                return Some(true);
            }
        }
        None
    }

    /// Records that subject `i`'s query under `s` is `Unsat`, with the
    /// session's unsat core of that query (`None` without core tracking):
    /// every assignment agreeing with `s` on the holes of the core's slots
    /// is `Unsat` from now on. `CoreSlot::Assumption(j)` is slot `j`;
    /// session assertions mention no holes.
    pub fn learn_unsat(&mut self, i: usize, s: &Solution, core: Option<&UnsatCore>) {
        let subject = &mut self.subjects[i];
        let holes = core
            .and_then(|core| {
                let mut holes = HoleSet::default();
                for m in &core.members {
                    if let CoreSlot::Assumption(j) = m.slot {
                        holes.union(subject.slots.get(j)?);
                    }
                }
                Some(holes)
            })
            .unwrap_or_else(|| subject.holes.clone());
        restrict(&mut self.key, &holes, s);
        let key: Box<[u32]> = self.key[..].into();
        match subject.unsat.iter_mut().find(|(h, _)| *h == holes) {
            Some((_, known)) => {
                known.insert(key);
            }
            None => subject.unsat.push((holes, FxHashSet::from_iter([key]))),
        }
    }

    /// Records that subject `i`'s query under `s` is not `Unsat` (keyed on
    /// all of its holes: a satisfiable query has no core to generalize).
    pub fn learn_other(&mut self, i: usize, s: &Solution) {
        let subject = &mut self.subjects[i];
        restrict(&mut self.key, &subject.holes, s);
        subject.other.insert(self.key[..].into());
    }
}
