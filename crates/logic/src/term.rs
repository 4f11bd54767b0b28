use std::sync::atomic::{AtomicU64, Ordering};

use crate::sort::Sort;
use crate::symbol::{Symbol, SymbolTable};
use crate::FxHashMap;

/// A handle to an interned term in a [`TermArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub(crate) u32);

impl TermId {
    /// Raw index of the term inside its arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Version number used for variables bound by a quantifier.
///
/// Bound variables carry this sentinel so that free-variable collection and
/// version-map reasoning never confuse them with program variables.
pub const BOUND_VERSION: u32 = u32::MAX;

/// The structure of a term.
///
/// Terms are created through the `mk_*` constructors on [`TermArena`], which
/// normalise and intern them; the enum itself is exposed for pattern matching
/// via [`TermArena::term`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Term {
    /// An integer literal.
    IntConst(i64),
    /// A boolean literal.
    BoolConst(bool),
    /// A (versioned) variable. The version is the SSA-style index assigned by
    /// the symbolic executor; version 0 denotes the initial value.
    Var {
        /// The variable's name.
        sym: Symbol,
        /// The SSA version, or [`BOUND_VERSION`] for quantifier-bound variables.
        version: u32,
        /// The variable's sort.
        sort: Sort,
    },
    /// Integer addition.
    Add(TermId, TermId),
    /// Integer subtraction.
    Sub(TermId, TermId),
    /// Integer multiplication (non-linear occurrences are handled by the SMT
    /// layer as an axiomatised uninterpreted function).
    Mul(TermId, TermId),
    /// Array read `sel(a, i)`.
    Sel(TermId, TermId),
    /// Functional array write `upd(a, i, v)`.
    Upd(TermId, TermId, TermId),
    /// Application of an uninterpreted function.
    App(Symbol, Vec<TermId>),
    /// Equality (on `Int`, `IntArray`, uninterpreted sorts, or `Bool`, where
    /// it is logical equivalence).
    Eq(TermId, TermId),
    /// Integer `<=`.
    Le(TermId, TermId),
    /// Integer `<`.
    Lt(TermId, TermId),
    /// Logical negation.
    Not(TermId),
    /// N-ary conjunction (flattened, deduplicated, sorted).
    And(Vec<TermId>),
    /// N-ary disjunction (flattened, deduplicated, sorted).
    Or(Vec<TermId>),
    /// If-then-else on a non-boolean sort.
    Ite(TermId, TermId, TermId),
    /// Universal quantification. Bound variables occur in the body as
    /// [`Term::Var`] with version [`BOUND_VERSION`].
    Forall(Vec<(Symbol, Sort)>, TermId),
    /// An unknown-occurrence placeholder: an expression or predicate hole of
    /// the synthesis template, paired (externally, by occurrence id) with the
    /// version map at which it was evaluated.
    Hole(u32, Sort),
}

/// The declared signature of an uninterpreted function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunDecl {
    /// Function name.
    pub name: Symbol,
    /// Argument sorts.
    pub args: Vec<Sort>,
    /// Result sort.
    pub ret: Sort,
}

/// The hash-consing arena that owns all terms and the symbol table.
#[derive(Debug)]
pub struct TermArena {
    /// Process-unique identity ([`TermArena::id`]).
    id: u64,
    terms: Vec<Term>,
    sorts: Vec<Sort>,
    /// Per term: whether no [`BOUND_VERSION`] variable occurs in it.
    ground: Vec<bool>,
    intern: FxHashMap<Term, TermId>,
    symbols: SymbolTable,
    fun_decls: FxHashMap<Symbol, FunDecl>,
    true_id: TermId,
    false_id: TermId,
}

impl Default for TermArena {
    fn default() -> Self {
        Self::new()
    }
}

/// The next arena identity to hand out.
static NEXT_ARENA_ID: AtomicU64 = AtomicU64::new(0);

/// An identity no other arena of this process has. `Relaxed` suffices: the
/// counter publishes no other data, and `fetch_add` alone keeps ids unique.
fn fresh_arena_id() -> u64 {
    NEXT_ARENA_ID.fetch_add(1, Ordering::Relaxed)
}

/// A clone is a new arena: it gets a fresh [`id`](TermArena::id), because
/// the two diverge as soon as either interns a term.
impl Clone for TermArena {
    fn clone(&self) -> Self {
        TermArena {
            id: fresh_arena_id(),
            terms: self.terms.clone(),
            sorts: self.sorts.clone(),
            ground: self.ground.clone(),
            intern: self.intern.clone(),
            symbols: self.symbols.clone(),
            fun_decls: self.fun_decls.clone(),
            true_id: self.true_id,
            false_id: self.false_id,
        }
    }
}

impl TermArena {
    /// Creates an arena pre-populated with `true` and `false`.
    pub fn new() -> Self {
        let mut arena = TermArena {
            id: fresh_arena_id(),
            terms: Vec::new(),
            sorts: Vec::new(),
            ground: Vec::new(),
            intern: FxHashMap::default(),
            symbols: SymbolTable::new(),
            fun_decls: FxHashMap::default(),
            true_id: TermId(0),
            false_id: TermId(0),
        };
        arena.true_id = arena.insert(Term::BoolConst(true), Sort::Bool);
        arena.false_id = arena.insert(Term::BoolConst(false), Sort::Bool);
        arena
    }

    fn insert(&mut self, term: Term, sort: Sort) -> TermId {
        if let Some(&id) = self.intern.get(&term) {
            return id;
        }
        let id = TermId(self.terms.len() as u32);
        let ground = self.ground_of(&term);
        self.intern.insert(term.clone(), id);
        self.terms.push(term);
        self.sorts.push(sort);
        self.ground.push(ground);
        id
    }

    /// Whether `term` (not yet interned) is ground, from its children's bits.
    fn ground_of(&self, term: &Term) -> bool {
        let g = |k: &TermId| self.ground[k.0 as usize];
        match term {
            Term::Var { version, .. } => *version != BOUND_VERSION,
            Term::IntConst(_) | Term::BoolConst(_) | Term::Hole(..) => true,
            Term::Add(a, b)
            | Term::Sub(a, b)
            | Term::Mul(a, b)
            | Term::Sel(a, b)
            | Term::Eq(a, b)
            | Term::Le(a, b)
            | Term::Lt(a, b) => g(a) && g(b),
            Term::Upd(a, b, c) | Term::Ite(a, b, c) => g(a) && g(b) && g(c),
            Term::Not(a) | Term::Forall(_, a) => g(a),
            Term::App(_, kids) | Term::And(kids) | Term::Or(kids) => kids.iter().all(g),
        }
    }

    /// This arena's process-unique identity. A [`TermId`] names one term
    /// only together with it: equal ids of two arenas are unrelated.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The structure of term `id`.
    pub fn term(&self, id: TermId) -> &Term {
        &self.terms[id.0 as usize]
    }

    /// The sort of term `id`.
    pub fn sort(&self, id: TermId) -> Sort {
        self.sorts[id.0 as usize]
    }

    /// Whether no quantifier-bound ([`BOUND_VERSION`]) variable occurs in
    /// term `id`, under a `Forall` included. Computed once, when the term is
    /// interned, from its children's bits.
    pub fn is_ground(&self, id: TermId) -> bool {
        self.ground[id.0 as usize]
    }

    /// Number of interned terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether the arena holds only the two boolean constants.
    pub fn is_empty(&self) -> bool {
        self.terms.len() <= 2
    }

    /// Access to the symbol table.
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Mutable access to the symbol table.
    pub fn symbols_mut(&mut self) -> &mut SymbolTable {
        &mut self.symbols
    }

    /// Interns a symbol name (shorthand for `symbols_mut().intern`).
    pub fn sym(&mut self, name: &str) -> Symbol {
        self.symbols.intern(name)
    }

    /// Declares an uninterpreted function. Re-declaring with an identical
    /// signature is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if `name` was previously declared with a different signature.
    pub fn declare_fun(&mut self, name: &str, args: Vec<Sort>, ret: Sort) -> Symbol {
        let sym = self.symbols.intern(name);
        let decl = FunDecl {
            name: sym,
            args,
            ret,
        };
        if let Some(existing) = self.fun_decls.get(&sym) {
            assert_eq!(
                existing, &decl,
                "function {name} re-declared with a different signature"
            );
        } else {
            self.fun_decls.insert(sym, decl);
        }
        sym
    }

    /// The declaration of an uninterpreted function, if declared.
    pub fn fun_decl(&self, sym: Symbol) -> Option<&FunDecl> {
        self.fun_decls.get(&sym)
    }

    /// All declared uninterpreted functions.
    pub fn fun_decls(&self) -> impl Iterator<Item = &FunDecl> {
        self.fun_decls.values()
    }

    // ----- leaf constructors -------------------------------------------------

    /// The constant `true`.
    pub fn mk_true(&self) -> TermId {
        self.true_id
    }

    /// The constant `false`.
    pub fn mk_false(&self) -> TermId {
        self.false_id
    }

    /// A boolean literal.
    pub fn mk_bool(&self, b: bool) -> TermId {
        if b {
            self.true_id
        } else {
            self.false_id
        }
    }

    /// An integer literal.
    pub fn mk_int(&mut self, v: i64) -> TermId {
        self.insert(Term::IntConst(v), Sort::Int)
    }

    /// A versioned variable.
    pub fn mk_var(&mut self, sym: Symbol, version: u32, sort: Sort) -> TermId {
        self.insert(Term::Var { sym, version, sort }, sort)
    }

    /// A quantifier-bound variable (version [`BOUND_VERSION`]).
    pub fn mk_bound(&mut self, sym: Symbol, sort: Sort) -> TermId {
        self.mk_var(sym, BOUND_VERSION, sort)
    }

    /// A hole-occurrence placeholder of the given sort.
    pub fn mk_hole(&mut self, occurrence: u32, sort: Sort) -> TermId {
        self.insert(Term::Hole(occurrence, sort), sort)
    }

    // ----- arithmetic --------------------------------------------------------

    fn int_val(&self, id: TermId) -> Option<i64> {
        match self.term(id) {
            Term::IntConst(v) => Some(*v),
            _ => None,
        }
    }

    /// `a + b`, with constant folding and `x + 0 = x`.
    pub fn mk_add(&mut self, a: TermId, b: TermId) -> TermId {
        debug_assert!(self.sort(a).is_int() && self.sort(b).is_int());
        match (self.int_val(a), self.int_val(b)) {
            (Some(x), Some(y)) => {
                if let Some(z) = x.checked_add(y) {
                    return self.mk_int(z);
                }
            }
            (Some(0), _) => return b,
            (_, Some(0)) => return a,
            _ => {}
        }
        // commutative canonicalisation improves sharing downstream
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.insert(Term::Add(a, b), Sort::Int)
    }

    /// `a - b`, with constant folding, `x - 0 = x` and `x - x = 0`.
    pub fn mk_sub(&mut self, a: TermId, b: TermId) -> TermId {
        debug_assert!(self.sort(a).is_int() && self.sort(b).is_int());
        if a == b {
            return self.mk_int(0);
        }
        match (self.int_val(a), self.int_val(b)) {
            (Some(x), Some(y)) => {
                if let Some(z) = x.checked_sub(y) {
                    return self.mk_int(z);
                }
            }
            (_, Some(0)) => return a,
            _ => {}
        }
        self.insert(Term::Sub(a, b), Sort::Int)
    }

    /// `-a`.
    pub fn mk_neg(&mut self, a: TermId) -> TermId {
        let zero = self.mk_int(0);
        self.mk_sub(zero, a)
    }

    /// `a * b`, with constant folding and unit/zero laws.
    pub fn mk_mul(&mut self, a: TermId, b: TermId) -> TermId {
        debug_assert!(self.sort(a).is_int() && self.sort(b).is_int());
        match (self.int_val(a), self.int_val(b)) {
            (Some(x), Some(y)) => {
                if let Some(z) = x.checked_mul(y) {
                    return self.mk_int(z);
                }
            }
            (Some(0), _) | (_, Some(0)) => return self.mk_int(0),
            (Some(1), _) => return b,
            (_, Some(1)) => return a,
            _ => {}
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.insert(Term::Mul(a, b), Sort::Int)
    }

    // ----- arrays ------------------------------------------------------------

    /// `sel(a, i)` with read-over-write folding when indices are syntactically
    /// equal or provably distinct constants.
    pub fn mk_sel(&mut self, a: TermId, i: TermId) -> TermId {
        debug_assert!(self.sort(a).is_array() && self.sort(i).is_int());
        if let Term::Upd(base, j, v) = self.term(a).clone() {
            if i == j {
                return v;
            }
            if let (Some(x), Some(y)) = (self.int_val(i), self.int_val(j)) {
                if x != y {
                    return self.mk_sel(base, i);
                }
            }
        }
        self.insert(Term::Sel(a, i), Sort::Int)
    }

    /// `upd(a, i, v)`.
    pub fn mk_upd(&mut self, a: TermId, i: TermId, v: TermId) -> TermId {
        debug_assert!(self.sort(a).is_array() && self.sort(i).is_int() && self.sort(v).is_int());
        self.insert(Term::Upd(a, i, v), Sort::IntArray)
    }

    // ----- uninterpreted functions -------------------------------------------

    /// An application `f(args)` of a previously declared function.
    ///
    /// # Panics
    ///
    /// Panics if `f` is undeclared or the argument sorts mismatch.
    pub fn mk_app(&mut self, f: Symbol, args: Vec<TermId>) -> TermId {
        let decl = self
            .fun_decls
            .get(&f)
            .unwrap_or_else(|| panic!("undeclared function {}", self.symbols.name(f)))
            .clone();
        assert_eq!(
            decl.args.len(),
            args.len(),
            "arity mismatch applying {}",
            self.symbols.name(f)
        );
        for (expected, &arg) in decl.args.iter().zip(&args) {
            assert_eq!(
                *expected,
                self.sort(arg),
                "sort mismatch applying {}",
                self.symbols.name(f)
            );
        }
        self.insert(Term::App(f, args), decl.ret)
    }

    // ----- relations ----------------------------------------------------------

    /// `a = b` (equivalence on booleans), canonically ordered, with folding.
    pub fn mk_eq(&mut self, a: TermId, b: TermId) -> TermId {
        debug_assert_eq!(
            self.sort(a),
            self.sort(b),
            "equality between different sorts"
        );
        if a == b {
            return self.mk_true();
        }
        if let (Some(x), Some(y)) = (self.int_val(a), self.int_val(b)) {
            return self.mk_bool(x == y);
        }
        if let (Term::BoolConst(x), Term::BoolConst(y)) = (self.term(a), self.term(b)) {
            return self.mk_bool(x == y);
        }
        // `phi = true` is `phi`; `phi = false` is `not phi`.
        if self.sort(a).is_bool() {
            if a == self.true_id {
                return b;
            }
            if b == self.true_id {
                return a;
            }
            if a == self.false_id {
                return self.mk_not(b);
            }
            if b == self.false_id {
                return self.mk_not(a);
            }
        }
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        self.insert(Term::Eq(lo, hi), Sort::Bool)
    }

    /// `a <= b` with constant folding.
    pub fn mk_le(&mut self, a: TermId, b: TermId) -> TermId {
        debug_assert!(self.sort(a).is_int() && self.sort(b).is_int());
        if a == b {
            return self.mk_true();
        }
        if let (Some(x), Some(y)) = (self.int_val(a), self.int_val(b)) {
            return self.mk_bool(x <= y);
        }
        self.insert(Term::Le(a, b), Sort::Bool)
    }

    /// `a < b` with constant folding.
    pub fn mk_lt(&mut self, a: TermId, b: TermId) -> TermId {
        debug_assert!(self.sort(a).is_int() && self.sort(b).is_int());
        if a == b {
            return self.mk_false();
        }
        if let (Some(x), Some(y)) = (self.int_val(a), self.int_val(b)) {
            return self.mk_bool(x < y);
        }
        self.insert(Term::Lt(a, b), Sort::Bool)
    }

    /// `a >= b`.
    pub fn mk_ge(&mut self, a: TermId, b: TermId) -> TermId {
        self.mk_le(b, a)
    }

    /// `a > b`.
    pub fn mk_gt(&mut self, a: TermId, b: TermId) -> TermId {
        self.mk_lt(b, a)
    }

    /// `a != b`.
    pub fn mk_neq(&mut self, a: TermId, b: TermId) -> TermId {
        let eq = self.mk_eq(a, b);
        self.mk_not(eq)
    }

    // ----- boolean structure ----------------------------------------------------

    /// `not a`, with double-negation elimination and inequality flipping
    /// (`not (a < b)` becomes `b <= a`, keeping the atom set small).
    pub fn mk_not(&mut self, a: TermId) -> TermId {
        debug_assert!(self.sort(a).is_bool());
        match self.term(a).clone() {
            Term::BoolConst(b) => self.mk_bool(!b),
            Term::Not(inner) => inner,
            Term::Lt(x, y) => self.mk_le(y, x),
            Term::Le(x, y) => self.mk_lt(y, x),
            _ => self.insert(Term::Not(a), Sort::Bool),
        }
    }

    fn mk_nary(&mut self, items: Vec<TermId>, conj: bool) -> TermId {
        let (unit, absorb) = if conj {
            (self.true_id, self.false_id)
        } else {
            (self.false_id, self.true_id)
        };
        let mut flat: Vec<TermId> = Vec::with_capacity(items.len());
        let mut stack: Vec<TermId> = items;
        stack.reverse();
        while let Some(t) = stack.pop() {
            if t == unit {
                continue;
            }
            if t == absorb {
                return absorb;
            }
            match (self.term(t), conj) {
                (Term::And(kids), true) | (Term::Or(kids), false) => {
                    for &k in kids.iter().rev() {
                        stack.push(k);
                    }
                }
                _ => flat.push(t),
            }
        }
        flat.sort_unstable();
        flat.dedup();
        // complementary-literal check
        for &t in &flat {
            let neg = self.mk_not(t);
            if flat.binary_search(&neg).is_ok() {
                return absorb;
            }
        }
        match flat.len() {
            0 => unit,
            1 => flat[0],
            _ => {
                let node = if conj {
                    Term::And(flat)
                } else {
                    Term::Or(flat)
                };
                self.insert(node, Sort::Bool)
            }
        }
    }

    /// N-ary conjunction, flattened and deduplicated.
    pub fn mk_and(&mut self, items: Vec<TermId>) -> TermId {
        self.mk_nary(items, true)
    }

    /// Binary conjunction.
    pub fn mk_and2(&mut self, a: TermId, b: TermId) -> TermId {
        self.mk_and(vec![a, b])
    }

    /// N-ary disjunction, flattened and deduplicated.
    pub fn mk_or(&mut self, items: Vec<TermId>) -> TermId {
        self.mk_nary(items, false)
    }

    /// Binary disjunction.
    pub fn mk_or2(&mut self, a: TermId, b: TermId) -> TermId {
        self.mk_or(vec![a, b])
    }

    /// `a => b`, encoded as `not a \/ b`.
    pub fn mk_implies(&mut self, a: TermId, b: TermId) -> TermId {
        let na = self.mk_not(a);
        self.mk_or(vec![na, b])
    }

    /// `ite(c, t, e)`. On boolean sort this is expanded into clauses; on other
    /// sorts it is kept as a term (eliminated by the SMT preprocessor).
    pub fn mk_ite(&mut self, c: TermId, t: TermId, e: TermId) -> TermId {
        debug_assert!(self.sort(c).is_bool());
        debug_assert_eq!(self.sort(t), self.sort(e));
        if c == self.true_id {
            return t;
        }
        if c == self.false_id {
            return e;
        }
        if t == e {
            return t;
        }
        if self.sort(t).is_bool() {
            let pos = self.mk_implies(c, t);
            let neg = self.mk_or(vec![c, e]);
            return self.mk_and(vec![pos, neg]);
        }
        let sort = self.sort(t);
        self.insert(Term::Ite(c, t, e), sort)
    }

    /// Universal quantification over `vars` (which must appear in the body as
    /// bound variables, i.e. with version [`BOUND_VERSION`]).
    pub fn mk_forall(&mut self, vars: Vec<(Symbol, Sort)>, body: TermId) -> TermId {
        debug_assert!(self.sort(body).is_bool());
        if vars.is_empty() || body == self.true_id || body == self.false_id {
            return body;
        }
        self.insert(Term::Forall(vars, body), Sort::Bool)
    }

    /// The direct children of a term, in order.
    pub fn children(&self, id: TermId) -> Vec<TermId> {
        match self.term(id) {
            Term::IntConst(_) | Term::BoolConst(_) | Term::Var { .. } | Term::Hole(..) => vec![],
            Term::Add(a, b)
            | Term::Sub(a, b)
            | Term::Mul(a, b)
            | Term::Sel(a, b)
            | Term::Eq(a, b)
            | Term::Le(a, b)
            | Term::Lt(a, b) => vec![*a, *b],
            Term::Upd(a, b, c) | Term::Ite(a, b, c) => vec![*a, *b, *c],
            Term::App(_, args) => args.clone(),
            Term::Not(a) => vec![*a],
            Term::And(kids) | Term::Or(kids) => kids.clone(),
            Term::Forall(_, body) => vec![*body],
        }
    }
}
