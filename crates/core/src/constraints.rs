//! Constraint generation: `safepath` (§2.3 "Safety constraints"),
//! `bounded`/`decrease` termination constraints, and the lazily-added
//! `init` invariant constraints — plus the [`Slicer`] every generated
//! constraint passes through before the hole solver sees it.

use std::collections::{BTreeSet, HashMap, HashSet};

use pins_ir::{Expr, LoopId, Pred, Stmt, VarId};
use pins_logic::{collect_vars, Sort, Term, TermArena, TermId, VarKey, BOUND_VERSION};
use pins_symexec::{
    version_of, EmptyFiller, ExploreConfig, Explorer, HoleKind, PathResult, SymCtx, VersionMap,
};
use pins_trace::MetricsRegistry;

use crate::domains::{expr_vars, pred_vars, HoleDomains};
use crate::session::{Session, Spec};

/// Why a constraint exists (used in reporting and debugging).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstraintLabel {
    /// A path must satisfy the specification.
    SafePath,
    /// The loop guard bounds the ranking function from below.
    Bounded(LoopId),
    /// The ranking function decreases across the loop body.
    Decrease(LoopId),
    /// The dynamic invariant is maintained by the loop body.
    InvMaintain(LoopId),
    /// The dynamic invariant holds on a path prefix reaching the loop.
    InvInit(LoopId),
}

/// A universally quantified implication `forall X: (/\ hyps) => goal`,
/// with unknowns occurring as hole terms.
#[derive(Debug, Clone)]
pub struct Constraint {
    /// Hypothesis conjuncts.
    pub hyps: Vec<TermId>,
    /// Conclusion.
    pub goal: TermId,
    /// Provenance.
    pub label: ConstraintLabel,
}

/// Locates the body of loop `id` in `program`.
fn find_loop_body(stmts: &[Stmt], id: LoopId) -> Option<&Vec<Stmt>> {
    for s in stmts {
        match s {
            Stmt::While(l, _, body) => {
                if *l == id {
                    return Some(body);
                }
                if let Some(b) = find_loop_body(body, id) {
                    return Some(b);
                }
            }
            Stmt::If(_, t, e) => {
                if let Some(b) = find_loop_body(t, id).or_else(|| find_loop_body(e, id)) {
                    return Some(b);
                }
            }
            _ => {}
        }
    }
    None
}

/// Generates the `terminate(P)` constraints of §2.3 for every template
/// loop: `bounded(l)` plus, per loop-body path, `decrease(l)` and the
/// invariant-maintenance constraint. Body paths are enumerated with inner
/// loops taking only their exit branch, per the paper's heuristic.
pub fn terminate_constraints(
    session: &Session,
    domains: &HoleDomains,
    ctx: &mut SymCtx,
) -> Vec<Constraint> {
    let program = &session.composed;
    let mut out = Vec::new();
    let vmap0 = VersionMap::new();
    for (i, &(loop_id, guard_hole)) in session.template_loops.iter().enumerate() {
        let rank_hole = domains.rank_holes[i].1;
        let inv_hole = domains.inv_holes[i].1;
        let guard0 = ctx.pred_term(program, &Pred::Hole(guard_hole), &vmap0);
        let rank0 = ctx.expr_term(program, &Expr::Hole(rank_hole), &vmap0, Sort::Int);
        let inv0 = ctx.pred_term(program, &Pred::Hole(inv_hole), &vmap0);
        let zero = ctx.arena.mk_int(0);

        // bounded(l): guard => rank >= 0 (over all states)
        let bounded_goal = ctx.arena.mk_ge(rank0, zero);
        out.push(Constraint {
            hyps: vec![guard0],
            goal: bounded_goal,
            label: ConstraintLabel::Bounded(loop_id),
        });

        // body paths: all paths through the loop body, inner loops exit-only
        let body = find_loop_body(&program.body, loop_id)
            .expect("template loop body exists")
            .clone();
        let mut body_prog = program.clone();
        body_prog.body = body;
        let cfg = ExploreConfig {
            max_unroll: 0, // inner loops take the exit branch only
            check_feasibility: false,
            ..ExploreConfig::default()
        };
        let mut explorer = Explorer::new(&body_prog, cfg);
        let paths = explorer.enumerate(ctx, &EmptyFiller, 256);
        for path in paths {
            let rank_v =
                ctx.expr_term(program, &Expr::Hole(rank_hole), &path.final_vmap, Sort::Int);
            let inv_v = ctx.pred_term(program, &Pred::Hole(inv_hole), &path.final_vmap);
            let mut hyps = vec![guard0, inv0];
            hyps.extend(path.conjuncts.iter().copied());
            // decrease(l): rank strictly decreases
            let dec_goal = ctx.arena.mk_lt(rank_v, rank0);
            out.push(Constraint {
                hyps: hyps.clone(),
                goal: dec_goal,
                label: ConstraintLabel::Decrease(loop_id),
            });
            // invariant maintained across the body
            out.push(Constraint {
                hyps,
                goal: inv_v,
                label: ConstraintLabel::InvMaintain(loop_id),
            });
        }
    }
    out
}

/// Builds the `safepath(f, V', spec)` constraint for an explored path.
pub fn safepath_constraint(
    session: &Session,
    spec: &Spec,
    ctx: &mut SymCtx,
    path: &PathResult,
) -> Constraint {
    let _ = session;
    let goal = spec.to_term(ctx, &path.final_vmap);
    Constraint {
        hyps: path.conjuncts.clone(),
        goal,
        label: ConstraintLabel::SafePath,
    }
}

/// Builds the lazily-added `init` constraints for a freshly explored path:
/// each template loop reached on the path must have its dynamic invariant
/// implied by the path prefix (§2.3 "To compute body and init...").
pub fn init_constraints(
    session: &Session,
    domains: &HoleDomains,
    ctx: &mut SymCtx,
    path: &PathResult,
) -> Vec<Constraint> {
    let program = &session.composed;
    let mut out = Vec::new();
    for &(loop_id, prefix_len, ref vmap) in &path.loop_entries {
        let Some(pos) = session
            .template_loops
            .iter()
            .position(|&(l, _)| l == loop_id)
        else {
            continue; // a loop of the original program: no synthesis obligations
        };
        let inv_hole = domains.inv_holes[pos].1;
        let inv_v = ctx.pred_term(program, &Pred::Hole(inv_hole), vmap);
        out.push(Constraint {
            hyps: path.conjuncts[..prefix_len].to_vec(),
            goal: inv_v,
            label: ConstraintLabel::InvInit(loop_id),
        });
    }
    out
}

/// The holes occurring in some terms, each kind sorted by id. A failed
/// constraint's blocking clause ranges over exactly these holes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HoleSet {
    /// Expression holes.
    pub(crate) exprs: Vec<u32>,
    /// Predicate holes.
    pub(crate) preds: Vec<u32>,
}

impl HoleSet {
    /// The holes occurring in `terms`.
    pub fn of(ctx: &SymCtx, terms: impl IntoIterator<Item = TermId>) -> HoleSet {
        HoleSet::of_occurrences(ctx, &occurrences(&ctx.arena, terms))
    }

    fn of_occurrences(ctx: &SymCtx, occs: &BTreeSet<u32>) -> HoleSet {
        let mut exprs = BTreeSet::new();
        let mut preds = BTreeSet::new();
        for &occ in occs {
            match ctx.occurrence(occ).kind {
                HoleKind::Expr(e) => exprs.insert(e.0),
                HoleKind::Pred(p) => preds.insert(p.0),
            };
        }
        HoleSet {
            exprs: exprs.into_iter().collect(),
            preds: preds.into_iter().collect(),
        }
    }

    /// Number of holes.
    pub fn len(&self) -> usize {
        self.exprs.len() + self.preds.len()
    }

    /// Whether no hole occurs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn union(&mut self, other: &HoleSet) {
        for (mine, theirs) in [
            (&mut self.exprs, &other.exprs),
            (&mut self.preds, &other.preds),
        ] {
            mine.extend_from_slice(theirs);
            mine.sort_unstable();
            mine.dedup();
        }
    }
}

/// The hole-occurrence ids in `terms`, ascending.
fn occurrences(arena: &TermArena, terms: impl IntoIterator<Item = TermId>) -> BTreeSet<u32> {
    let mut out = BTreeSet::new();
    let mut seen = HashSet::new();
    let mut stack: Vec<TermId> = terms.into_iter().collect();
    while let Some(t) = stack.pop() {
        if !seen.insert(t) {
            continue;
        }
        match arena.term(t) {
            Term::Hole(occ, _) => {
                out.insert(*occ);
            }
            _ => stack.extend(arena.children(t)),
        }
    }
    out
}

/// What the slicer knows about one hypothesis or goal conjunct.
#[derive(Debug)]
struct TermInfo {
    /// The free variables the term can read once its holes are filled by
    /// any candidate of their domains, sorted.
    reads: Vec<VarKey>,
    /// The variables `v` this term defines as `v = t` (either orientation)
    /// with `v` absent from the reads of `t`.
    defines: Vec<VarKey>,
    /// The holes occurring in the term.
    holes: HoleSet,
}

/// Splits every constraint at its goal's top-level conjunction and slices
/// each part to its cone of influence, so that a failed part blocks only
/// the holes it can observe instead of every hole on the path.
///
/// A part keeps its goal conjunct and every hypothesis except a
/// definition `v = t` whose free variable `v` is absent from `t` and from
/// everything else the part keeps; dropping one definition can expose
/// another, so the rule runs to a fixpoint. "Absent" counts hole
/// occurrences by what they could become: the variables any candidate of
/// the hole's domain reads, under the occurrence's version map. The slice
/// is exact — for every filler, a constraint is valid iff all its parts
/// are: `H => g1 /\ g2` holds iff `H => g1` and `H => g2` do, and `v = t`
/// with `v` free nowhere else constrains nothing, since `exists v. v = t`
/// is valid when `v` does not occur in `t` (the library axioms are closed).
/// Guards, negations and inequalities are never dropped.
///
/// Parts whose slices mention the same holes would block the same
/// assignments, so they are merged back into one constraint (their kept
/// hypotheses united, their goals conjoined): nothing is lost and each
/// candidate costs one query fewer. A constraint or part equal to one
/// already added (same hypothesis list, same goal) is skipped: it could
/// never be the first to fail.
pub struct Slicer {
    /// Per expression hole: the variables any candidate of its domain reads.
    expr_reads: Vec<Vec<VarId>>,
    /// Per predicate hole: likewise.
    pred_reads: Vec<Vec<VarId>>,
    /// Per-term facts, memoized: path prefixes recur across constraints.
    infos: Vec<TermInfo>,
    info_of: HashMap<TermId, usize>,
    /// Every `(hyps, goal)` added so far.
    seen: HashSet<(Vec<TermId>, TermId)>,
    metrics: SliceMetrics,
}

pins_trace::counter_table! {
    /// What the slicer did: the view of the `slice.*` cells.
    pub struct SliceStats / SliceMetrics {
        /// Constraints sliced (duplicates excluded).
        constraints: u64 = "slice.constraints",
        /// Constraints and parts skipped as duplicates.
        duplicates: u64 = "slice.duplicates",
        /// Parts added.
        parts: u64 = "slice.parts",
        /// Constraints with a part mentioning strictly fewer holes than the
        /// whole constraint.
        narrowed: u64 = "slice.narrowed",
    }
}

impl Slicer {
    /// A slicer for constraints over the holes of `domains`.
    pub fn new(domains: &HoleDomains) -> Slicer {
        fn reads<T>(dom: &[T], vars_of: fn(&T, &mut Vec<VarId>)) -> Vec<VarId> {
            let mut out = Vec::new();
            for cand in dom {
                vars_of(cand, &mut out);
            }
            out
        }
        Slicer {
            expr_reads: domains.exprs.iter().map(|d| reads(d, expr_vars)).collect(),
            pred_reads: domains.preds.iter().map(|d| reads(d, pred_vars)).collect(),
            infos: Vec::new(),
            info_of: HashMap::new(),
            seen: HashSet::new(),
            metrics: SliceMetrics::default(),
        }
    }

    /// Binds the slicer's counters to `registry`: `slice.constraints`,
    /// `slice.duplicates`, `slice.parts` and `slice.narrowed`.
    pub fn bind_metrics(&mut self, registry: &MetricsRegistry) {
        self.metrics = SliceMetrics::bind(registry);
    }

    /// Appends the parts of every constraint in `new` to `out`, skipping
    /// constraints and parts already added.
    pub fn add(
        &mut self,
        ctx: &mut SymCtx,
        new: impl IntoIterator<Item = Constraint>,
        out: &mut Vec<Constraint>,
    ) {
        for c in new {
            let key = (c.hyps.clone(), c.goal);
            if self.seen.contains(&key) {
                self.metrics.duplicates.inc();
                continue;
            }
            self.metrics.constraints.inc();
            let (parts, narrowed) = self.slice_parts(ctx, &c);
            if narrowed {
                self.metrics.narrowed.inc();
            }
            for part in parts {
                if self.seen.insert((part.hyps.clone(), part.goal)) {
                    self.metrics.parts.inc();
                    out.push(part);
                } else {
                    self.metrics.duplicates.inc();
                }
            }
            self.seen.insert(key);
        }
    }

    /// The parts of `c`, in the order of their first goal conjunct. For
    /// every filler, `c` is valid iff every part is.
    pub fn slice(&mut self, ctx: &mut SymCtx, c: &Constraint) -> Vec<Constraint> {
        self.slice_parts(ctx, c).0
    }

    /// [`slice`](Self::slice), plus whether some part mentions strictly
    /// fewer holes than `c`.
    fn slice_parts(&mut self, ctx: &mut SymCtx, c: &Constraint) -> (Vec<Constraint>, bool) {
        let mut unique = HashSet::new();
        let hyps: Vec<TermId> = c
            .hyps
            .iter()
            .copied()
            .filter(|&h| unique.insert(h))
            .collect();
        let hyp_infos: Vec<usize> = hyps.iter().map(|&h| self.info(ctx, h)).collect();
        let goals = match ctx.arena.term(c.goal) {
            Term::And(kids) => kids.clone(),
            _ => vec![c.goal],
        };
        let goal_infos: Vec<usize> = goals.iter().map(|&g| self.info(ctx, g)).collect();

        // one entry per distinct hole set: (holes, kept hypotheses, goals)
        let mut parts: Vec<(HoleSet, Vec<bool>, Vec<TermId>)> = Vec::new();
        for (&g, &gi) in goals.iter().zip(&goal_infos) {
            let kept = self.cone(&hyp_infos, gi);
            let mut holes = self.infos[gi].holes.clone();
            for (&k, &hi) in kept.iter().zip(&hyp_infos) {
                if k {
                    holes.union(&self.infos[hi].holes);
                }
            }
            match parts.iter_mut().find(|p| p.0 == holes) {
                Some(part) => {
                    for (mine, k) in part.1.iter_mut().zip(kept) {
                        *mine |= k;
                    }
                    part.2.push(g);
                }
                None => parts.push((holes, kept, vec![g])),
            }
        }

        let mut all = HoleSet::default();
        for &i in hyp_infos.iter().chain(&goal_infos) {
            all.union(&self.infos[i].holes);
        }
        let narrowed = parts.iter().any(|p| p.0.len() < all.len());
        let parts = parts
            .into_iter()
            .map(|(_, kept, goals)| Constraint {
                hyps: hyps
                    .iter()
                    .zip(&kept)
                    .filter(|(_, &k)| k)
                    .map(|(&h, _)| h)
                    .collect(),
                goal: ctx.arena.mk_and(goals),
                label: c.label,
            })
            .collect();
        (parts, narrowed)
    }

    /// Which hypotheses (by position in `hyps`) the cone of influence of
    /// goal `goal` keeps: the greatest fixpoint of the definition-dropping
    /// rule. A droppable definition stays droppable as others go (its
    /// variable keeps exactly one reader, itself), so the fixpoint does not
    /// depend on the visiting order.
    fn cone(&self, hyps: &[usize], goal: usize) -> Vec<bool> {
        let mut readers: HashMap<VarKey, u32> = HashMap::new();
        for &i in hyps.iter().chain(std::iter::once(&goal)) {
            for &v in &self.infos[i].reads {
                *readers.entry(v).or_insert(0) += 1;
            }
        }
        let mut kept = vec![true; hyps.len()];
        loop {
            let mut changed = false;
            // back to front: SSA definitions chain forward, so one pass
            // usually reaches the fixpoint
            for (k, &i) in hyps.iter().enumerate().rev() {
                let info = &self.infos[i];
                if kept[k] && info.defines.iter().any(|v| readers[v] == 1) {
                    kept[k] = false;
                    changed = true;
                    for v in &info.reads {
                        *readers.get_mut(v).expect("counted above") -= 1;
                    }
                }
            }
            if !changed {
                return kept;
            }
        }
    }

    /// The memoized [`TermInfo`] of `t`, by index into `infos`.
    fn info(&mut self, ctx: &SymCtx, t: TermId) -> usize {
        if let Some(&i) = self.info_of.get(&t) {
            return i;
        }
        let mut vars = HashSet::new();
        collect_vars(&ctx.arena, t, &mut vars);
        let occs = occurrences(&ctx.arena, [t]);
        for &occ in &occs {
            let occ = ctx.occurrence(occ);
            let reads = match occ.kind {
                HoleKind::Expr(e) => self.expr_reads.get(e.0 as usize),
                HoleKind::Pred(p) => self.pred_reads.get(p.0 as usize),
            };
            for &x in reads.into_iter().flatten() {
                vars.insert(VarKey {
                    sym: ctx.var_sym(x),
                    version: version_of(&occ.vmap, x),
                    sort: ctx.var_sort(x),
                });
            }
        }
        let holes = HoleSet::of_occurrences(ctx, &occs);
        let mut reads: Vec<VarKey> = vars.into_iter().collect();
        reads.sort_unstable();
        let mut defines = Vec::new();
        if let Term::Eq(a, b) = *ctx.arena.term(t) {
            for (lhs, rhs) in [(a, b), (b, a)] {
                if let Term::Var { sym, version, sort } = *ctx.arena.term(lhs) {
                    if version != BOUND_VERSION {
                        let v = VarKey { sym, version, sort };
                        let r = self.info(ctx, rhs);
                        if self.infos[r].reads.binary_search(&v).is_err() {
                            defines.push(v);
                        }
                    }
                }
            }
        }
        let i = self.infos.len();
        self.infos.push(TermInfo {
            reads,
            defines,
            holes,
        });
        self.info_of.insert(t, i);
        i
    }
}
