use std::collections::HashMap;
use std::fmt;

/// An interned identifier.
///
/// Symbols name program variables, uninterpreted functions, and
/// uninterpreted sorts. Interning makes comparison and hashing O(1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub(crate) u32);

impl Symbol {
    /// The raw index of this symbol in its [`SymbolTable`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sym#{}", self.0)
    }
}

/// A bidirectional string interner.
#[derive(Debug, Default, Clone)]
pub struct SymbolTable {
    names: Vec<String>,
    /// Keyed by names from the programs PINS reads, so it keeps the
    /// standard library's collision-resistant hasher.
    by_name: HashMap<String, Symbol>,
}

impl SymbolTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its symbol (existing or fresh).
    pub fn intern(&mut self, name: &str) -> Symbol {
        if let Some(&s) = self.by_name.get(name) {
            return s;
        }
        let s = Symbol(self.names.len() as u32);
        self.names.push(name.to_owned());
        self.by_name.insert(name.to_owned(), s);
        s
    }

    /// Looks up a symbol without interning.
    pub fn get(&self, name: &str) -> Option<Symbol> {
        self.by_name.get(name).copied()
    }

    /// Returns the name of `sym`.
    ///
    /// # Panics
    ///
    /// Panics if `sym` does not belong to this table.
    pub fn name(&self, sym: Symbol) -> &str {
        &self.names[sym.0 as usize]
    }

    /// Generates a symbol guaranteed not to collide with any interned name,
    /// derived from `base`.
    pub fn fresh(&mut self, base: &str) -> Symbol {
        if self.by_name.contains_key(base) {
            let mut i = 0u32;
            loop {
                let cand = format!("{base}!{i}");
                if !self.by_name.contains_key(&cand) {
                    return self.intern(&cand);
                }
                i += 1;
            }
        } else {
            self.intern(base)
        }
    }

    /// Number of interned symbols.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}
