//! Synthesis sessions: the composed program `P ; T`, the identity
//! specification, the candidate sets, and the library axioms.

use pins_ir::{
    parse_pred_in, parse_program, CmpOp, Expr, ExternDecl, LoopId, PHoleId, Pred, Program, Stmt,
    Type, VarId,
};
use pins_logic::{Sort, TermArena, TermId};
use pins_symexec::{sort_of, SymCtx, VersionMap};

/// One item of the inversion specification: an input of `P` must be
/// reproduced by an output of the inverse template `T`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecItem {
    /// Integer equality: `input@0 = output@V'`.
    IntEq {
        /// The original input.
        input: VarId,
        /// The reconstructing output.
        output: VarId,
    },
    /// Element-wise array equality on `[0, len@0)`:
    /// `forall k. 0 <= k < len@0 => input@0[k] = output@V'[k]`.
    ArrayEq {
        /// The original input array.
        input: VarId,
        /// The reconstructing output array.
        output: VarId,
        /// The input holding the relevant length.
        len: VarId,
    },
    /// Equality at an uninterpreted sort: `input@0 = output@V'`.
    AbsEq {
        /// The original input.
        input: VarId,
        /// The reconstructing output.
        output: VarId,
    },
    /// Equality of two variables both read at the end of execution (used
    /// when the original program computes a length the template must match,
    /// e.g. the flattened-data cursor of the packet wrapper; sound when the
    /// template never writes the left variable).
    IntEqFinal {
        /// A variable of the original program, read at the final map.
        left: VarId,
        /// The template output, read at the final map.
        right: VarId,
    },
    /// Element-wise array equality on `[0, len@V')` where the bound is read
    /// at the *final* version map.
    ArrayEqFinalLen {
        /// The original input array (read at version 0).
        input: VarId,
        /// The reconstructing output array (read at the final map).
        output: VarId,
        /// The variable holding the relevant length, read at the final map.
        len: VarId,
    },
    /// Observational equality of abstract values: the reconstructed object
    /// need not be the same term, but all observations must agree:
    /// `len_fun(in@0) = len_fun(out@V')` and
    /// `forall j. 0 <= j < len_fun(in@0) => obs_fun(in@0, j) = obs_fun(out@V', j)`.
    ObsEq {
        /// The original input.
        input: VarId,
        /// The reconstructing output.
        output: VarId,
        /// Unary extern returning the observation count.
        len_fun: String,
        /// Binary extern observing element `j`.
        obs_fun: String,
    },
}

/// The inversion specification (the paper's identity function requirement,
/// derived from `in(...)` of `P` and `out(...)` of `T`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Spec {
    /// The items, conjoined.
    pub items: Vec<SpecItem>,
}

impl Spec {
    /// Builds the specification formula with outputs read at `final_vmap`.
    pub fn to_term(&self, ctx: &mut SymCtx, final_vmap: &VersionMap) -> TermId {
        let mut parts = Vec::new();
        for item in &self.items {
            match item {
                SpecItem::IntEq { input, output } | SpecItem::AbsEq { input, output } => {
                    let a = ctx.var_term(*input, 0);
                    let b = ctx.var_at(*output, final_vmap);
                    parts.push(ctx.arena.mk_eq(a, b));
                }
                SpecItem::IntEqFinal { left, right } => {
                    let a = ctx.var_at(*left, final_vmap);
                    let b = ctx.var_at(*right, final_vmap);
                    parts.push(ctx.arena.mk_eq(a, b));
                }
                SpecItem::ArrayEqFinalLen { input, output, len } => {
                    let a0 = ctx.var_term(*input, 0);
                    let bv = ctx.var_at(*output, final_vmap);
                    let n = ctx.var_at(*len, final_vmap);
                    let k = ctx.arena.symbols_mut().fresh("k");
                    let bk = ctx.arena.mk_bound(k, Sort::Int);
                    let zero = ctx.arena.mk_int(0);
                    let lo = ctx.arena.mk_le(zero, bk);
                    let hi = ctx.arena.mk_lt(bk, n);
                    let range = ctx.arena.mk_and(vec![lo, hi]);
                    let sa = ctx.arena.mk_sel(a0, bk);
                    let sb = ctx.arena.mk_sel(bv, bk);
                    let eq = ctx.arena.mk_eq(sa, sb);
                    let body = ctx.arena.mk_implies(range, eq);
                    parts.push(ctx.arena.mk_forall(vec![(k, Sort::Int)], body));
                }
                SpecItem::ObsEq {
                    input,
                    output,
                    len_fun,
                    obs_fun,
                } => {
                    let a0 = ctx.var_term(*input, 0);
                    let bv = ctx.var_at(*output, final_vmap);
                    let len_sym = ctx
                        .arena
                        .symbols()
                        .get(len_fun)
                        .expect("len_fun declared as extern");
                    let obs_sym = ctx
                        .arena
                        .symbols()
                        .get(obs_fun)
                        .expect("obs_fun declared as extern");
                    let len_in = ctx.arena.mk_app(len_sym, vec![a0]);
                    let len_out = ctx.arena.mk_app(len_sym, vec![bv]);
                    parts.push(ctx.arena.mk_eq(len_in, len_out));
                    let j = ctx.arena.symbols_mut().fresh("j");
                    let bj = ctx.arena.mk_bound(j, Sort::Int);
                    let zero = ctx.arena.mk_int(0);
                    let lo = ctx.arena.mk_le(zero, bj);
                    let hi = ctx.arena.mk_lt(bj, len_in);
                    let range = ctx.arena.mk_and(vec![lo, hi]);
                    let oa = ctx.arena.mk_app(obs_sym, vec![a0, bj]);
                    let ob = ctx.arena.mk_app(obs_sym, vec![bv, bj]);
                    let eq = ctx.arena.mk_eq(oa, ob);
                    let body = ctx.arena.mk_implies(range, eq);
                    parts.push(ctx.arena.mk_forall(vec![(j, Sort::Int)], body));
                }
                SpecItem::ArrayEq { input, output, len } => {
                    let a0 = ctx.var_term(*input, 0);
                    let bv = ctx.var_at(*output, final_vmap);
                    let n0 = ctx.var_term(*len, 0);
                    let k = ctx.arena.symbols_mut().fresh("k");
                    let bk = ctx.arena.mk_bound(k, Sort::Int);
                    let zero = ctx.arena.mk_int(0);
                    let lo = ctx.arena.mk_le(zero, bk);
                    let hi = ctx.arena.mk_lt(bk, n0);
                    let range = ctx.arena.mk_and(vec![lo, hi]);
                    let sa = ctx.arena.mk_sel(a0, bk);
                    let sb = ctx.arena.mk_sel(bv, bk);
                    let eq = ctx.arena.mk_eq(sa, sb);
                    let body = ctx.arena.mk_implies(range, eq);
                    parts.push(ctx.arena.mk_forall(vec![(k, Sort::Int)], body));
                }
            }
        }
        ctx.arena.mk_and(parts)
    }
}

/// A quantified library axiom, stored as data: bound variables plus a
/// predicate over a scratch program that declares them (and the externs).
#[derive(Debug, Clone)]
pub struct AxiomDef {
    scratch: Program,
    bound: Vec<VarId>,
    body: Pred,
}

impl AxiomDef {
    /// Parses an axiom. `vars` are the universally quantified variables;
    /// `body_src` is a DSL predicate over them (externs from `externs`).
    ///
    /// # Panics
    ///
    /// Panics on parse errors — axioms are library-author input.
    pub fn parse(externs: &[ExternDecl], vars: &[(&str, Type)], body_src: &str) -> AxiomDef {
        let mut scratch = Program {
            name: "axiom".into(),
            externs: externs.to_vec(),
            ..Program::default()
        };
        let bound: Vec<VarId> = vars
            .iter()
            .map(|(name, ty)| scratch.add_local(name, ty.clone()))
            .collect();
        let body = parse_pred_in(&scratch, body_src)
            .unwrap_or_else(|e| panic!("bad axiom {body_src:?}: {e}"));
        AxiomDef {
            scratch,
            bound,
            body,
        }
    }

    /// Translates the axiom into a closed `forall` term in `arena`.
    pub fn to_term(&self, arena: &mut TermArena) -> TermId {
        for e in &self.scratch.externs {
            let args: Vec<Sort> = e.args.iter().map(|t| sort_of(arena, t)).collect();
            let ret = if e.returns_bool {
                Sort::Bool
            } else {
                sort_of(arena, &e.ret)
            };
            arena.declare_fun(&e.name, args, ret);
        }
        let binders: Vec<(pins_logic::Symbol, Sort)> = self
            .bound
            .iter()
            .map(|&v| {
                let decl = self.scratch.var(v);
                let sym = arena.sym(&decl.name);
                (sym, sort_of(arena, &decl.ty))
            })
            .collect();
        let body = ax_pred(arena, &self.scratch, &self.bound, &self.body);
        arena.mk_forall(binders, body)
    }
}

fn ax_expr(arena: &mut TermArena, p: &Program, bound: &[VarId], e: &Expr) -> TermId {
    match e {
        Expr::Int(v) => arena.mk_int(*v),
        Expr::Var(v) => {
            let decl = p.var(*v);
            let sym = arena.sym(&decl.name);
            let sort = sort_of(arena, &decl.ty);
            debug_assert!(bound.contains(v), "axiom references unbound variable");
            arena.mk_bound(sym, sort)
        }
        Expr::Add(a, b) => {
            let (ta, tb) = (ax_expr(arena, p, bound, a), ax_expr(arena, p, bound, b));
            arena.mk_add(ta, tb)
        }
        Expr::Sub(a, b) => {
            let (ta, tb) = (ax_expr(arena, p, bound, a), ax_expr(arena, p, bound, b));
            arena.mk_sub(ta, tb)
        }
        Expr::Mul(a, b) => {
            let (ta, tb) = (ax_expr(arena, p, bound, a), ax_expr(arena, p, bound, b));
            arena.mk_mul(ta, tb)
        }
        Expr::Sel(a, i) => {
            let (ta, ti) = (ax_expr(arena, p, bound, a), ax_expr(arena, p, bound, i));
            arena.mk_sel(ta, ti)
        }
        Expr::Upd(a, i, v) => {
            let ta = ax_expr(arena, p, bound, a);
            let ti = ax_expr(arena, p, bound, i);
            let tv = ax_expr(arena, p, bound, v);
            arena.mk_upd(ta, ti, tv)
        }
        Expr::Call(f, args) => {
            let targs: Vec<TermId> = args.iter().map(|a| ax_expr(arena, p, bound, a)).collect();
            let sym = arena.sym(f);
            arena.mk_app(sym, targs)
        }
        Expr::Hole(_) => panic!("axioms cannot contain holes"),
    }
}

fn ax_pred(arena: &mut TermArena, p: &Program, bound: &[VarId], pr: &Pred) -> TermId {
    match pr {
        Pred::Bool(b) => arena.mk_bool(*b),
        Pred::Cmp(op, a, b) => {
            let (ta, tb) = (ax_expr(arena, p, bound, a), ax_expr(arena, p, bound, b));
            match op {
                CmpOp::Eq => arena.mk_eq(ta, tb),
                CmpOp::Ne => arena.mk_neq(ta, tb),
                CmpOp::Lt => arena.mk_lt(ta, tb),
                CmpOp::Le => arena.mk_le(ta, tb),
                CmpOp::Gt => arena.mk_gt(ta, tb),
                CmpOp::Ge => arena.mk_ge(ta, tb),
            }
        }
        Pred::And(items) => {
            let ts: Vec<TermId> = items.iter().map(|q| ax_pred(arena, p, bound, q)).collect();
            arena.mk_and(ts)
        }
        Pred::Or(items) => {
            let ts: Vec<TermId> = items.iter().map(|q| ax_pred(arena, p, bound, q)).collect();
            arena.mk_or(ts)
        }
        Pred::Not(q) => {
            let t = ax_pred(arena, p, bound, q);
            arena.mk_not(t)
        }
        Pred::Call(f, args) => {
            let targs: Vec<TermId> = args.iter().map(|a| ax_expr(arena, p, bound, a)).collect();
            let sym = arena.sym(f);
            arena.mk_app(sym, targs)
        }
        Pred::Hole(_) | Pred::Star => panic!("axioms cannot contain holes or `*`"),
    }
}

/// A full synthesis problem: everything the engine needs.
#[derive(Debug, Clone)]
pub struct Session {
    /// The composed program `P ; T`.
    pub composed: Program,
    /// `composed.body[..split]` is the original program's body.
    pub split: usize,
    /// The original program `P` alone (used by validation and baselines).
    pub original: Program,
    /// The inverse template `T` alone, pre-composition (for reporting).
    pub template: Program,
    /// The inversion specification.
    pub spec: Spec,
    /// Candidate expressions Δe, over the composed program's variables.
    pub expr_candidates: Vec<Expr>,
    /// Candidate predicates Δp, over the composed program's variables.
    pub pred_candidates: Vec<Pred>,
    /// Library axioms.
    pub axioms: Vec<AxiomDef>,
    /// Loops of the template part, with their guard holes (termination
    /// constraints are generated for these).
    pub template_loops: Vec<(LoopId, PHoleId)>,
}

impl Session {
    /// Composes `original` with the inverse `template` and records the
    /// template's loops.
    pub fn compose(original: Program, template: Program) -> Session {
        let (composed, _, _) = original.concat(&template);
        let split = original.body.len();
        let mut template_loops = Vec::new();
        collect_template_loops(&composed.body[split..], &mut template_loops);
        Session {
            composed,
            split,
            original,
            template,
            spec: Spec::default(),
            expr_candidates: Vec::new(),
            pred_candidates: Vec::new(),
            axioms: Vec::new(),
            template_loops,
        }
    }

    /// Parses `original_src` and `template_src` and composes them.
    ///
    /// # Panics
    ///
    /// Panics on parse errors (benchmark definitions are static inputs).
    pub fn from_sources(original_src: &str, template_src: &str) -> Session {
        let original =
            parse_program(original_src).unwrap_or_else(|e| panic!("bad original program: {e}"));
        let template =
            parse_program(template_src).unwrap_or_else(|e| panic!("bad template program: {e}"));
        Session::compose(original, template)
    }

    /// Translates all axioms into `arena`.
    pub fn axiom_terms(&self, arena: &mut TermArena) -> Vec<TermId> {
        self.axioms.iter().map(|a| a.to_term(arena)).collect()
    }

    /// The body of the inverse template inside the composed program.
    pub fn template_body(&self) -> &[Stmt] {
        &self.composed.body[self.split..]
    }
}

fn collect_template_loops(stmts: &[Stmt], out: &mut Vec<(LoopId, PHoleId)>) {
    for s in stmts {
        match s {
            Stmt::While(id, guard, body) => {
                if let Pred::Hole(h) = guard {
                    out.push((*id, *h));
                }
                collect_template_loops(body, out);
            }
            Stmt::If(_, t, e) => {
                collect_template_loops(t, out);
                collect_template_loops(e, out);
            }
            _ => {}
        }
    }
}
