//! Translation context: maps IR programs into logic terms under version
//! maps, tracking hole occurrences exactly as in Figure 3 of the paper
//! (an unknown evaluated under version map `V` becomes the pair `(hole, V)`).

use std::collections::BTreeMap;

use pins_ir::{CmpOp, EHoleId, Expr, PHoleId, Pred, Program, Type, VarId};
use pins_logic::{FxHashMap, FxHashSet, Sort, Symbol, Term, TermArena, TermId};

/// A version map `V`: SSA-style version per variable (absent = version 0).
pub type VersionMap = BTreeMap<VarId, u32>;

/// Version of `v` under `vmap`.
pub fn version_of(vmap: &VersionMap, v: VarId) -> u32 {
    vmap.get(&v).copied().unwrap_or(0)
}

/// Which unknown an occurrence refers to.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum HoleKind {
    /// Expression hole.
    Expr(EHoleId),
    /// Predicate hole.
    Pred(PHoleId),
}

/// An unknown paired with the version map at its evaluation point.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct HoleOcc {
    /// The unknown.
    pub kind: HoleKind,
    /// The version map at the occurrence.
    pub vmap: VersionMap,
    /// The sort the occurrence must produce.
    pub sort: Sort,
}

/// Shared translation state for one synthesis session: the term arena, the
/// variable/function symbol tables, the hole-occurrence registry, and the
/// hole occurrences found in each term asked about so far.
#[derive(Debug, Clone)]
pub struct SymCtx {
    /// The term arena all formulas live in.
    pub arena: TermArena,
    var_syms: Vec<Symbol>,
    var_sorts: Vec<Sort>,
    occs: Vec<HoleOcc>,
    occ_ids: FxHashMap<HoleOcc, u32>,
    /// Per term: its `(hole term, occurrence id)` pairs, as a range of
    /// `hole_lists`.
    holes_of: FxHashMap<TermId, (u32, u32)>,
    hole_lists: Vec<(TermId, u32)>,
}

impl SymCtx {
    /// Creates a context for `program`, declaring symbols for its variables
    /// and extern functions.
    pub fn new(program: &Program) -> Self {
        let mut arena = TermArena::new();
        let mut var_syms = Vec::with_capacity(program.vars.len());
        let mut var_sorts = Vec::with_capacity(program.vars.len());
        for v in &program.vars {
            var_syms.push(arena.sym(&v.name));
            var_sorts.push(sort_of(&mut arena, &v.ty));
        }
        for e in &program.externs {
            let args: Vec<Sort> = e.args.iter().map(|t| sort_of(&mut arena, t)).collect();
            let ret = if e.returns_bool {
                Sort::Bool
            } else {
                sort_of(&mut arena, &e.ret)
            };
            arena.declare_fun(&e.name, args, ret);
        }
        SymCtx {
            arena,
            var_syms,
            var_sorts,
            occs: Vec::new(),
            occ_ids: FxHashMap::default(),
            holes_of: FxHashMap::default(),
            hole_lists: Vec::new(),
        }
    }

    /// The sort of variable `v`.
    pub fn var_sort(&self, v: VarId) -> Sort {
        self.var_sorts[v.0 as usize]
    }

    /// The logic symbol of variable `v`.
    pub fn var_sym(&self, v: VarId) -> Symbol {
        self.var_syms[v.0 as usize]
    }

    /// The term for variable `v` at `version`.
    pub fn var_term(&mut self, v: VarId, version: u32) -> TermId {
        let sym = self.var_syms[v.0 as usize];
        let sort = self.var_sorts[v.0 as usize];
        self.arena.mk_var(sym, version, sort)
    }

    /// The term for variable `v` under `vmap`.
    pub fn var_at(&mut self, v: VarId, vmap: &VersionMap) -> TermId {
        self.var_term(v, version_of(vmap, v))
    }

    /// All hole occurrences registered so far.
    pub fn occurrences(&self) -> &[HoleOcc] {
        &self.occs
    }

    /// The occurrence with the given id.
    pub fn occurrence(&self, id: u32) -> &HoleOcc {
        &self.occs[id as usize]
    }

    /// The hole occurrences in `t`: every distinct hole term once, with its
    /// occurrence id. The first call for a term walks it; later calls read
    /// the list back.
    pub fn holes_in(&mut self, t: TermId) -> &[(TermId, u32)] {
        let (start, len) = self.hole_range(t);
        &self.hole_lists[start..start + len]
    }

    /// Where `t`'s hole occurrences sit in `hole_lists`.
    fn hole_range(&mut self, t: TermId) -> (usize, usize) {
        if let Some(&(start, len)) = self.holes_of.get(&t) {
            return (start as usize, len as usize);
        }
        let start = self.hole_lists.len();
        let mut seen = FxHashSet::default();
        let mut stack = vec![t];
        while let Some(s) = stack.pop() {
            if !seen.insert(s) {
                continue;
            }
            match self.arena.term(s) {
                Term::Hole(occ, _) => self.hole_lists.push((s, *occ)),
                _ => stack.extend(self.arena.children(s)),
            }
        }
        let len = self.hole_lists.len() - start;
        self.holes_of.insert(t, (start as u32, len as u32));
        (start, len)
    }

    /// `t` with each hole occurrence replaced by what `fill` returns for
    /// its occurrence id; `None` leaves the occurrence symbolic. A term
    /// without holes comes back as it is, without a walk.
    pub fn fill_holes(
        &mut self,
        t: TermId,
        mut fill: impl FnMut(&mut SymCtx, u32) -> Option<TermId>,
    ) -> TermId {
        let (start, len) = self.hole_range(t);
        if len == 0 {
            return t;
        }
        let mut map = FxHashMap::default();
        for i in start..start + len {
            let (hole, occ) = self.hole_lists[i];
            if let Some(r) = fill(self, occ) {
                map.insert(hole, r);
            }
        }
        self.arena.substitute(t, &map)
    }

    fn register_occ(&mut self, occ: HoleOcc) -> TermId {
        let sort = occ.sort;
        let id = if let Some(&id) = self.occ_ids.get(&occ) {
            id
        } else {
            let id = self.occs.len() as u32;
            self.occ_ids.insert(occ.clone(), id);
            self.occs.push(occ);
            id
        };
        self.arena.mk_hole(id, sort)
    }

    /// Translates an expression under `vmap`. `expected` disambiguates the
    /// sort of holes appearing at this position.
    pub fn expr_term(
        &mut self,
        program: &Program,
        e: &Expr,
        vmap: &VersionMap,
        expected: Sort,
    ) -> TermId {
        match e {
            Expr::Int(v) => self.arena.mk_int(*v),
            Expr::Var(v) => self.var_at(*v, vmap),
            Expr::Add(a, b) => {
                let ta = self.expr_term(program, a, vmap, Sort::Int);
                let tb = self.expr_term(program, b, vmap, Sort::Int);
                self.arena.mk_add(ta, tb)
            }
            Expr::Sub(a, b) => {
                let ta = self.expr_term(program, a, vmap, Sort::Int);
                let tb = self.expr_term(program, b, vmap, Sort::Int);
                self.arena.mk_sub(ta, tb)
            }
            Expr::Mul(a, b) => {
                let ta = self.expr_term(program, a, vmap, Sort::Int);
                let tb = self.expr_term(program, b, vmap, Sort::Int);
                self.arena.mk_mul(ta, tb)
            }
            Expr::Sel(a, i) => {
                let ta = self.expr_term(program, a, vmap, Sort::IntArray);
                let ti = self.expr_term(program, i, vmap, Sort::Int);
                self.arena.mk_sel(ta, ti)
            }
            Expr::Upd(a, i, v) => {
                let ta = self.expr_term(program, a, vmap, Sort::IntArray);
                let ti = self.expr_term(program, i, vmap, Sort::Int);
                let tv = self.expr_term(program, v, vmap, Sort::Int);
                self.arena.mk_upd(ta, ti, tv)
            }
            Expr::Call(f, args) => {
                let decl = program
                    .extern_by_name(f)
                    .unwrap_or_else(|| panic!("undeclared extern {f}"))
                    .clone();
                let targs: Vec<TermId> = args
                    .iter()
                    .zip(&decl.args)
                    .map(|(a, ty)| {
                        let s = sort_of(&mut self.arena, ty);
                        self.expr_term(program, a, vmap, s)
                    })
                    .collect();
                let sym = self
                    .arena
                    .symbols()
                    .get(f)
                    .expect("extern declared in new()");
                self.arena.mk_app(sym, targs)
            }
            Expr::Hole(h) => self.register_occ(HoleOcc {
                kind: HoleKind::Expr(*h),
                vmap: vmap.clone(),
                sort: expected,
            }),
        }
    }

    /// Translates a predicate under `vmap`. `Pred::Star` becomes `true`
    /// (the choice itself is made by the executor).
    pub fn pred_term(&mut self, program: &Program, p: &Pred, vmap: &VersionMap) -> TermId {
        match p {
            Pred::Bool(b) => self.arena.mk_bool(*b),
            Pred::Star => self.arena.mk_true(),
            Pred::Cmp(op, a, b) => {
                let ta = self.expr_term(program, a, vmap, Sort::Int);
                let tb = self.expr_term(program, b, vmap, Sort::Int);
                match op {
                    CmpOp::Eq => self.arena.mk_eq(ta, tb),
                    CmpOp::Ne => self.arena.mk_neq(ta, tb),
                    CmpOp::Lt => self.arena.mk_lt(ta, tb),
                    CmpOp::Le => self.arena.mk_le(ta, tb),
                    CmpOp::Gt => self.arena.mk_gt(ta, tb),
                    CmpOp::Ge => self.arena.mk_ge(ta, tb),
                }
            }
            Pred::And(items) => {
                let ts: Vec<TermId> = items
                    .iter()
                    .map(|q| self.pred_term(program, q, vmap))
                    .collect();
                self.arena.mk_and(ts)
            }
            Pred::Or(items) => {
                let ts: Vec<TermId> = items
                    .iter()
                    .map(|q| self.pred_term(program, q, vmap))
                    .collect();
                self.arena.mk_or(ts)
            }
            Pred::Not(q) => {
                let t = self.pred_term(program, q, vmap);
                self.arena.mk_not(t)
            }
            Pred::Call(f, args) => {
                let decl = program
                    .extern_by_name(f)
                    .unwrap_or_else(|| panic!("undeclared extern {f}"))
                    .clone();
                let targs: Vec<TermId> = args
                    .iter()
                    .zip(&decl.args)
                    .map(|(a, ty)| {
                        let s = sort_of(&mut self.arena, ty);
                        self.expr_term(program, a, vmap, s)
                    })
                    .collect();
                let sym = self
                    .arena
                    .symbols()
                    .get(f)
                    .expect("extern declared in new()");
                self.arena.mk_app(sym, targs)
            }
            Pred::Hole(h) => self.register_occ(HoleOcc {
                kind: HoleKind::Pred(*h),
                vmap: vmap.clone(),
                sort: Sort::Bool,
            }),
        }
    }
}

/// Maps an IR type to a logic sort.
pub fn sort_of(arena: &mut TermArena, ty: &Type) -> Sort {
    match ty {
        Type::Int => Sort::Int,
        Type::IntArray => Sort::IntArray,
        Type::Abstract(name) => Sort::Unint(arena.sym(name)),
    }
}
