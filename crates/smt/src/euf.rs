//! Congruence closure (EUF) with proof-forest explanations, undoable.
//!
//! The engine registers the full subterm DAG of every term it is given,
//! treating *all* operators — uninterpreted applications, `sel`/`upd`, and
//! even the arithmetic operators — as congruence-respecting function symbols
//! (which is sound and improves equality propagation between the theories).
//! Conflicts come with explanations: the set of asserted atom tags whose
//! equalities force the clash, extracted from a Nieuwenhuis–Oliveras style
//! proof forest.
//!
//! Every change made after registration — unions, use-list moves,
//! signature-table entries, proof edges, disequalities — is logged, so
//! [`Euf::undo_to`] restores any earlier [`Euf::mark`]. Union-find runs
//! without path compression (union by rank keeps `find` logarithmic) so a
//! union is undone by resetting one parent pointer. Terms are registered
//! once and never unregistered; register them only at the base level.

use std::collections::{HashMap, HashSet};

use pins_logic::{Term, TermArena, TermId};

/// Why two nodes were merged.
#[derive(Debug, Clone, Copy)]
pub enum Cause {
    /// An equality asserted by the SAT model, tagged by the caller.
    Asserted(u32),
    /// Congruence of two application nodes with pairwise-equal children.
    Congruence(u32, u32),
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Signature {
    /// Operator code: distinguishes App(f)/Sel/Upd/Add/Sub/Mul.
    op: (u8, u32),
    children: Vec<u32>,
}

/// One logged change, reverted by [`Euf::undo_to`].
#[derive(Debug)]
enum Undo {
    /// `union(a, b)`: the proof edge `a -> b` was added after rerooting `a`'s
    /// proof tree away from `old_root`; `loser` joined `winner`, whose use
    /// list had `uses` entries and whose constant witness was `old_const`.
    Union {
        a: u32,
        old_root: u32,
        loser: u32,
        winner: u32,
        bumped: bool,
        uses: usize,
        old_const: Option<(i64, u32)>,
    },
    /// A signature-table entry was inserted.
    Sig(Signature),
    /// A disequality was pushed.
    Diseq,
}

/// An undoable congruence-closure solver.
#[derive(Debug, Default)]
pub struct Euf {
    terms: Vec<TermId>,
    node_of: HashMap<TermId, u32>,
    /// union-find parent (roots point to themselves)
    uf: Vec<u32>,
    rank: Vec<u32>,
    /// proof forest: edge to another node with a cause
    proof: Vec<Option<(u32, Cause)>>,
    /// per-root list of application nodes with a member as a child
    use_list: Vec<Vec<u32>>,
    /// per-node operator structure (None for leaves)
    #[allow(clippy::type_complexity)]
    sig_template: Vec<Option<((u8, u32), Vec<u32>)>>,
    sig_table: HashMap<Signature, u32>,
    /// per-root integer constant witness
    int_const: Vec<Option<(i64, u32)>>,
    pending: Vec<(u32, u32, Cause)>,
    diseqs: Vec<(u32, u32, u32)>,
    /// Live unions in order: `(a, b, cause)` for the proof edge `a -> b`.
    unions: Vec<(u32, u32, Cause)>,
    undo: Vec<Undo>,
    /// A constant clash `(n0, n1)` found by the union logged at undo index
    /// `.2`, reported by every check until that union is undone.
    clash: Option<(u32, u32, usize)>,
}

/// A point [`Euf::undo_to`] can return to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EufMark(usize);

impl Euf {
    /// Creates an empty engine.
    pub fn new() -> Self {
        Self::default()
    }

    fn op_code(arena: &TermArena, t: TermId) -> Option<((u8, u32), Vec<TermId>)> {
        match arena.term(t) {
            Term::App(f, args) => Some(((0, f.index() as u32), args.clone())),
            Term::Sel(a, b) => Some(((1, 0), vec![*a, *b])),
            Term::Upd(a, b, c) => Some(((2, 0), vec![*a, *b, *c])),
            Term::Add(a, b) => Some(((3, 0), vec![*a, *b])),
            Term::Sub(a, b) => Some(((4, 0), vec![*a, *b])),
            Term::Mul(a, b) => Some(((5, 0), vec![*a, *b])),
            _ => None,
        }
    }

    /// Number of registered nodes.
    pub fn num_nodes(&self) -> usize {
        self.terms.len()
    }

    /// The term of a node.
    pub fn term(&self, n: u32) -> TermId {
        self.terms[n as usize]
    }

    /// Registers `t` and its subterm DAG; returns its node. Registration is
    /// not logged: call it only where the state is never undone.
    pub fn add_term(&mut self, arena: &TermArena, t: TermId) -> u32 {
        if let Some(&n) = self.node_of.get(&t) {
            return n;
        }
        let structure = Self::op_code(arena, t);
        let child_nodes: Option<((u8, u32), Vec<u32>)> = structure.map(|(op, kids)| {
            let kid_nodes = kids.iter().map(|&k| self.add_term(arena, k)).collect();
            (op, kid_nodes)
        });
        let n = self.terms.len() as u32;
        self.terms.push(t);
        self.node_of.insert(t, n);
        self.uf.push(n);
        self.rank.push(0);
        self.proof.push(None);
        self.use_list.push(Vec::new());
        self.int_const.push(match arena.term(t) {
            Term::IntConst(v) => Some((*v, n)),
            _ => None,
        });
        self.sig_template.push(child_nodes.clone());
        if let Some((op, kids)) = child_nodes {
            for &k in &kids {
                let rk = self.find(k);
                self.use_list[rk as usize].push(n);
            }
            let sig = Signature {
                op,
                children: kids.iter().map(|&k| self.find(k)).collect(),
            };
            if let Some(&other) = self.sig_table.get(&sig) {
                if self.find(other) != self.find(n) {
                    self.pending.push((n, other, Cause::Congruence(n, other)));
                }
            } else {
                self.sig_table.insert(sig, n);
            }
        }
        n
    }

    /// The class root of a node.
    pub fn find(&self, mut n: u32) -> u32 {
        while self.uf[n as usize] != n {
            n = self.uf[n as usize];
        }
        n
    }

    /// Queues `a = b` (registered nodes) with atom tag `tag`; [`Euf::close`]
    /// merges it.
    pub fn merge(&mut self, a: u32, b: u32, tag: u32) {
        self.pending.push((a, b, Cause::Asserted(tag)));
    }

    /// Asserts `a != b` (registered nodes) with atom tag `tag`.
    pub fn diseq(&mut self, a: u32, b: u32, tag: u32) {
        self.diseqs.push((a, b, tag));
        self.undo.push(Undo::Diseq);
    }

    /// Asserts `a = b` with atom tag `tag`, registering both terms.
    pub fn assert_eq(&mut self, arena: &TermArena, a: TermId, b: TermId, tag: u32) {
        let na = self.add_term(arena, a);
        let nb = self.add_term(arena, b);
        self.merge(na, nb, tag);
    }

    /// Asserts `a != b` with atom tag `tag`, registering both terms.
    pub fn assert_neq(&mut self, arena: &TermArena, a: TermId, b: TermId, tag: u32) {
        let na = self.add_term(arena, a);
        let nb = self.add_term(arena, b);
        self.diseq(na, nb, tag);
    }

    /// The current undo point.
    pub fn mark(&self) -> EufMark {
        debug_assert!(self.pending.is_empty(), "mark inside an unclosed batch");
        EufMark(self.undo.len())
    }

    /// Reverts every change logged since `mark`, and drops queued merges.
    pub fn undo_to(&mut self, mark: EufMark) {
        self.pending.clear();
        if self.clash.is_some_and(|c| c.2 >= mark.0) {
            self.clash = None;
        }
        while self.undo.len() > mark.0 {
            match self.undo.pop().expect("non-empty log") {
                Undo::Union {
                    a,
                    old_root,
                    loser,
                    winner,
                    bumped,
                    uses,
                    old_const,
                } => {
                    self.unions.pop();
                    let moved = self.use_list[winner as usize].split_off(uses);
                    self.use_list[loser as usize] = moved;
                    self.int_const[winner as usize] = old_const;
                    if bumped {
                        self.rank[winner as usize] -= 1;
                    }
                    self.uf[loser as usize] = loser;
                    self.proof[a as usize] = None;
                    self.reroot(old_root);
                }
                Undo::Sig(sig) => {
                    self.sig_table.remove(&sig);
                }
                Undo::Diseq => {
                    self.diseqs.pop();
                }
            }
        }
    }

    /// The live unions, oldest first: `(a, b, cause)` per proof edge. Every
    /// class is spanned by the edges of its members.
    pub fn unions(&self) -> &[(u32, u32, Cause)] {
        &self.unions
    }

    /// Reverses the proof-forest path from `n` to its tree root so that `n`
    /// becomes the root of its explanation tree.
    fn reroot(&mut self, n: u32) {
        let mut prev: Option<(u32, Cause)> = None;
        let mut cur = n;
        loop {
            let next = self.proof[cur as usize];
            self.proof[cur as usize] = prev;
            match next {
                Some((to, cause)) => {
                    prev = Some((cur, cause));
                    cur = to;
                }
                None => break,
            }
        }
    }

    fn proof_root(&self, mut n: u32) -> u32 {
        while let Some((to, _)) = self.proof[n as usize] {
            n = to;
        }
        n
    }

    fn union(&mut self, a: u32, b: u32, cause: Cause) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return;
        }
        // proof forest edge a -> b
        let old_root = self.proof_root(a);
        self.reroot(a);
        self.proof[a as usize] = Some((b, cause));
        self.unions.push((a, b, cause));

        // merge smaller-rank class into larger
        let (winner, loser) = if self.rank[ra as usize] >= self.rank[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        let bumped = self.rank[winner as usize] == self.rank[loser as usize];
        if bumped {
            self.rank[winner as usize] += 1;
        }
        self.uf[loser as usize] = winner;
        // constant witnesses: two distinct constants in one class clash
        let old_const = self.int_const[winner as usize];
        match (old_const, self.int_const[loser as usize]) {
            (None, Some(c)) => self.int_const[winner as usize] = Some(c),
            (Some((v0, n0)), Some((v1, n1))) if v0 != v1 && self.clash.is_none() => {
                self.clash = Some((n0, n1, self.undo.len()));
            }
            _ => {}
        }
        let uses = self.use_list[winner as usize].len();
        self.undo.push(Undo::Union {
            a,
            old_root,
            loser,
            winner,
            bumped,
            uses,
            old_const,
        });
        // recompute signatures of parents of the losing class
        let parents = std::mem::take(&mut self.use_list[loser as usize]);
        for &p in &parents {
            if let Some((op, kids)) = &self.sig_template[p as usize] {
                let sig = Signature {
                    op: *op,
                    children: kids.iter().map(|&k| self.find(k)).collect(),
                };
                if let Some(&other) = self.sig_table.get(&sig) {
                    if self.find(other) != self.find(p) {
                        self.pending.push((p, other, Cause::Congruence(p, other)));
                    }
                } else {
                    self.sig_table.insert(sig.clone(), p);
                    self.undo.push(Undo::Sig(sig));
                }
            }
        }
        self.use_list[winner as usize].extend(parents);
    }

    /// Runs the closure over the queued merges.
    pub fn close(&mut self) {
        while let Some((a, b, cause)) = self.pending.pop() {
            self.union(a, b, cause);
        }
    }

    /// Runs the closure and checks disequalities and integer-constant clashes.
    /// On conflict, returns the asserted atom tags responsible.
    pub fn check(&mut self) -> Result<(), Vec<u32>> {
        self.close();
        if let Some((n0, n1, _)) = self.clash {
            let mut expl = self.explain(n0, n1);
            expl.sort_unstable();
            expl.dedup();
            return Err(expl);
        }
        for i in 0..self.diseqs.len() {
            let (a, b, tag) = self.diseqs[i];
            if self.find(a) == self.find(b) {
                let mut expl = self.explain(a, b);
                expl.push(tag);
                expl.sort_unstable();
                expl.dedup();
                return Err(expl);
            }
        }
        Ok(())
    }

    /// Whether `a` and `b` are currently in the same class (both must have
    /// been added).
    pub fn same_class(&self, a: TermId, b: TermId) -> bool {
        match (self.node_of.get(&a), self.node_of.get(&b)) {
            (Some(&na), Some(&nb)) => self.find(na) == self.find(nb),
            _ => false,
        }
    }

    /// All registered terms together with their class root node.
    pub fn class_of_terms(&self) -> Vec<(TermId, u32)> {
        (0..self.terms.len() as u32)
            .map(|n| (self.terms[n as usize], self.find(n)))
            .collect()
    }

    /// The class root of a registered term.
    pub fn root_of(&self, t: TermId) -> Option<u32> {
        let n = *self.node_of.get(&t)?;
        Some(self.find(n))
    }

    /// The asserted tags behind the live union `unions()[i]`.
    pub fn explain_union(&self, i: usize) -> Vec<u32> {
        let mut tags = Vec::new();
        let mut queue = Vec::new();
        push_cause(&self.sig_template, self.unions[i].2, &mut tags, &mut queue);
        tags.extend(self.explain_pairs(queue));
        tags
    }

    /// Explains why `a` and `b` are congruent: the set of asserted tags.
    fn explain(&self, a: u32, b: u32) -> Vec<u32> {
        self.explain_pairs(vec![(a, b)])
    }

    #[allow(clippy::needless_range_loop)]
    fn explain_pairs(&self, mut queue: Vec<(u32, u32)>) -> Vec<u32> {
        let mut tags = Vec::new();
        let mut seen: HashSet<(u32, u32)> = HashSet::new();
        while let Some((x, y)) = queue.pop() {
            if x == y || !seen.insert((x.min(y), x.max(y))) {
                continue;
            }
            // collect proof paths to the common ancestor
            let px = self.proof_path(x);
            let py = self.proof_path(y);
            let setx: HashMap<u32, usize> =
                px.iter().enumerate().map(|(i, &(n, _))| (n, i)).collect();
            let mut common = None;
            for (j, &(n, _)) in py.iter().enumerate() {
                if let Some(&i) = setx.get(&n) {
                    common = Some((i, j));
                    break;
                }
            }
            let (ci, cj) = common
                .unwrap_or_else(|| panic!("explain called on nodes not in the same proof tree"));
            for k in 0..ci {
                push_cause(
                    &self.sig_template,
                    px[k].1.expect("edge"),
                    &mut tags,
                    &mut queue,
                );
            }
            for k in 0..cj {
                push_cause(
                    &self.sig_template,
                    py[k].1.expect("edge"),
                    &mut tags,
                    &mut queue,
                );
            }
        }
        tags
    }

    /// Nodes on the proof path from `n` to its proof-tree root, with the
    /// cause of each outgoing edge (`None` for the root entry).
    fn proof_path(&self, n: u32) -> Vec<(u32, Option<Cause>)> {
        let mut path = Vec::new();
        let mut cur = n;
        loop {
            match self.proof[cur as usize] {
                Some((to, cause)) => {
                    path.push((cur, Some(cause)));
                    cur = to;
                }
                None => {
                    path.push((cur, None));
                    return path;
                }
            }
        }
    }
}

#[allow(clippy::type_complexity)]
fn push_cause(
    templates: &[Option<((u8, u32), Vec<u32>)>],
    cause: Cause,
    tags: &mut Vec<u32>,
    queue: &mut Vec<(u32, u32)>,
) {
    match cause {
        Cause::Asserted(tag) => tags.push(tag),
        Cause::Congruence(p, q) => {
            let kp = &templates[p as usize].as_ref().expect("app node").1;
            let kq = &templates[q as usize].as_ref().expect("app node").1;
            queue.extend(kp.iter().copied().zip(kq.iter().copied()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pins_logic::Sort;

    fn setup() -> (TermArena, TermId, TermId, TermId) {
        let mut a = TermArena::new();
        let x = a.sym("x");
        let y = a.sym("y");
        let z = a.sym("z");
        let vx = a.mk_var(x, 0, Sort::Int);
        let vy = a.mk_var(y, 0, Sort::Int);
        let vz = a.mk_var(z, 0, Sort::Int);
        (a, vx, vy, vz)
    }

    #[test]
    fn transitivity() {
        let (arena, x, y, z) = setup();
        let mut e = Euf::new();
        e.assert_eq(&arena, x, y, 1);
        e.assert_eq(&arena, y, z, 2);
        assert!(e.check().is_ok());
        assert!(e.same_class(x, z));
    }

    #[test]
    fn diseq_conflict_explained() {
        let (arena, x, y, z) = setup();
        let mut e = Euf::new();
        e.assert_eq(&arena, x, y, 1);
        e.assert_eq(&arena, y, z, 2);
        e.assert_neq(&arena, x, z, 3);
        let expl = e.check().unwrap_err();
        assert_eq!(expl, vec![1, 2, 3]);
    }

    #[test]
    fn congruence_propagates() {
        let (mut arena, x, y, _) = setup();
        let f = arena.declare_fun("f", vec![Sort::Int], Sort::Int);
        let fx = arena.mk_app(f, vec![x]);
        let fy = arena.mk_app(f, vec![y]);
        let mut e = Euf::new();
        e.assert_eq(&arena, x, y, 1);
        e.add_term(&arena, fx);
        e.add_term(&arena, fy);
        assert!(e.check().is_ok());
        assert!(e.same_class(fx, fy));
    }

    #[test]
    fn congruence_conflict_has_minimal_explanation() {
        let (mut arena, x, y, z) = setup();
        let f = arena.declare_fun("f", vec![Sort::Int], Sort::Int);
        let fx = arena.mk_app(f, vec![x]);
        let fy = arena.mk_app(f, vec![y]);
        let mut e = Euf::new();
        e.assert_eq(&arena, x, y, 1);
        e.assert_eq(&arena, y, z, 2); // irrelevant
        e.assert_neq(&arena, fx, fy, 3);
        let expl = e.check().unwrap_err();
        assert_eq!(expl, vec![1, 3], "tag 2 must not appear");
    }

    #[test]
    fn nested_congruence() {
        let (mut arena, x, y, _) = setup();
        let f = arena.declare_fun("g", vec![Sort::Int], Sort::Int);
        let fx = arena.mk_app(f, vec![x]);
        let ffx = arena.mk_app(f, vec![fx]);
        let fy = arena.mk_app(f, vec![y]);
        let ffy = arena.mk_app(f, vec![fy]);
        let mut e = Euf::new();
        e.assert_eq(&arena, x, y, 1);
        e.assert_neq(&arena, ffx, ffy, 2);
        let expl = e.check().unwrap_err();
        assert_eq!(expl, vec![1, 2]);
    }

    #[test]
    fn distinct_constants_clash() {
        let (mut arena, x, _, _) = setup();
        let one = arena.mk_int(1);
        let two = arena.mk_int(2);
        let mut e = Euf::new();
        e.assert_eq(&arena, x, one, 1);
        e.assert_eq(&arena, x, two, 2);
        let expl = e.check().unwrap_err();
        assert_eq!(expl, vec![1, 2]);
    }

    #[test]
    fn arithmetic_ops_respect_congruence() {
        let (mut arena, x, y, z) = setup();
        let xz = arena.mk_add(x, z);
        let yz = arena.mk_add(y, z);
        let mut e = Euf::new();
        e.assert_eq(&arena, x, y, 1);
        e.add_term(&arena, xz);
        e.add_term(&arena, yz);
        assert!(e.check().is_ok());
        assert!(e.same_class(xz, yz));
    }

    #[test]
    fn sel_congruence_over_arrays() {
        let mut arena = TermArena::new();
        let a1 = arena.sym("A");
        let a2 = arena.sym("B");
        let i = arena.sym("i");
        let va = arena.mk_var(a1, 0, Sort::IntArray);
        let vb = arena.mk_var(a2, 0, Sort::IntArray);
        let vi = arena.mk_var(i, 0, Sort::Int);
        let sa = arena.mk_sel(va, vi);
        let sb = arena.mk_sel(vb, vi);
        let mut e = Euf::new();
        e.assert_eq(&arena, va, vb, 1);
        e.assert_neq(&arena, sa, sb, 2);
        let expl = e.check().unwrap_err();
        assert_eq!(expl, vec![1, 2]);
    }
}
