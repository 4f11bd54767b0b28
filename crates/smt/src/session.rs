//! A persistent, incremental solver session with a normalized-query cache.
//!
//! PINS's inner loop (§2.3 of the paper) issues thousands of SMT validity
//! queries per synthesis run, and the vast majority are repeats: the same
//! path condition re-checked under a slightly different candidate, the same
//! infeasibility probe issued by `pickOne` across iterations, the same axiom
//! set asserted before every query. The historical free-function entry
//! points (`check_formulas`, `is_unsat`, `is_valid`, removed in 0.2) rebuilt
//! everything from scratch each call.
//!
//! [`SmtSession`] replaces them. A session holds
//!
//! * a persistent **assertion set** with [`push`](SmtSession::push) /
//!   [`pop`](SmtSession::pop) scopes and a separate **axiom set** (quantified
//!   library facts that get trigger-instantiated rather than asserted),
//! * **assumption-based checks** ([`check_under`](SmtSession::check_under),
//!   [`verdict_under`](SmtSession::verdict_under)): extra conjuncts for one
//!   query only, without disturbing the persistent scope, and
//! * a **normalized-query cache** mapping (config, axioms, assertions ∪
//!   assumptions) to the verdict, plus an **unsat-core index** that answers
//!   any query containing a known core. [`SmtSession::new`] gives a session
//!   a cache of its own; [`SmtSession::with_cache`] shares one, as the
//!   engine's sessions of one run do. Nothing is shared between runs.
//!
//! Every query goes through one path: count, span, shape, audit, cache
//! lookup, core subsumption, miss classification, solve, latency. Its
//! counters live only in the session's [`SessionStats`] key table, whose
//! handles bind to a [`MetricsRegistry`].
//!
//! # Normalization and soundness
//!
//! A term is named in a cache key by its arena's identity
//! ([`TermArena::id`]) and its hash-consed [`TermId`]. Within one arena
//! equal ids are equal structures, so two queries that denote the same
//! conjunction share a key whatever their assertion order: the assertion
//! multiset is sorted and deduplicated. Terms of different arenas never
//! share a name, so a cache shared across arenas is still sound; it just
//! never hits across them. The cache stores the *verdict*, plus the unsat
//! core of a tracked `Unsat` as member fingerprints — never a model. When a
//! caller needs a model for a formula whose verdict is already cached as
//! satisfiable, the session re-solves ([`SessionStats::sat_resolves`]);
//! verdict-only callers (feasibility probes, validity checks) short-circuit
//! entirely.
//!
//! `Unsat` verdicts from the underlying solver are always sound, and
//! `Sat`/`Unknown` ones record their completeness, so replaying a cached
//! verdict is exactly as trustworthy as re-running the solver with the same
//! (fingerprinted) configuration.
//!
//! # Core subsumption
//!
//! Every non-empty core a fresh `Unsat` caches is also indexed under its
//! *scope*, the fingerprint of (config, axiom set), at its smallest member
//! fingerprint. A query that misses its exact key but whose normalized
//! assertions contain every member of a core in its scope is `Unsat` by
//! monotonicity: the core is unsatisfiable together with the same axioms,
//! and adding conjuncts keeps it so. An assert that lifted a quantified
//! axiom is forced into every core it takes part in, so the lifted axiom
//! stays inside the member fingerprint. Such a *core hit* counts as a cache
//! hit ([`SessionStats::core_hits`]), resolves the core to the query's own
//! slots, and adds no cache entry: the cache keeps one entry per solve.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pins_budget::{Budget, StopReason};
use pins_logic::{FxHashMap, TermArena, TermId};
use pins_trace::{Counter, Histogram, MetricsRegistry, Phase, ProvenanceCtx, PHASES};

use crate::solver::{Smt, SmtConfig, SmtResult, TrackedCore};

// ---------------------------------------------------------------------------
// fingerprints
// ---------------------------------------------------------------------------

/// splitmix64's finalizer: a bijective 64-bit mix.
fn fmix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Combines two 128-bit values non-commutatively.
fn mix(acc: u128, v: u128) -> u128 {
    let lo = fmix((acc as u64).wrapping_add(fmix(v as u64)));
    let hi = fmix(
        ((acc >> 64) as u64)
            .rotate_left(17)
            .wrapping_add(fmix((v >> 64) as u64))
            .wrapping_add(0x9E37_79B9_7F4A_7C15),
    );
    ((hi as u128) << 64) | lo as u128
}

fn mix_u64(acc: u128, v: u64) -> u128 {
    mix(acc, v as u128)
}

/// Arbitrary distinct seed (pi's hex digits), so an empty combination is not 0.
const FP_SEED: u128 = 0x243F_6A88_85A3_08D3_1319_8A2E_0370_7344;

/// Fingerprint of term `t`: its arena's identity and its hash-consed index,
/// mixed. Each half of the mix is a bijection of one of the two, so two
/// terms share a fingerprint exactly when they are the same term of the
/// same arena; the mixing spreads them evenly over the sorted order the
/// core index anchors on.
fn term_fp(arena: &TermArena, t: TermId) -> u128 {
    mix(FP_SEED, ((arena.id() as u128) << 64) | t.index() as u128)
}

// ---------------------------------------------------------------------------
// verdicts and the cache
// ---------------------------------------------------------------------------

/// The model-free outcome of a query: what the cache stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The conjunction is provably unsatisfiable (always sound).
    Unsat,
    /// A satisfying assignment was found; `complete` records whether the
    /// solver ran within all budgets (see [`crate::Model::complete`]).
    Sat {
        /// Whether the answer is exact rather than budget-limited.
        complete: bool,
    },
    /// The solver gave up within its budgets; `reason` records which budget
    /// tripped (deadline, cancellation, step limit, or arithmetic overflow).
    Unknown {
        /// Why the solver stopped short of a definitive verdict.
        reason: StopReason,
    },
}

impl Verdict {
    /// The verdict of a full solver result, dropping the model.
    pub fn of(result: &SmtResult) -> Verdict {
        match result {
            SmtResult::Unsat => Verdict::Unsat,
            SmtResult::Sat(m) => Verdict::Sat {
                complete: m.complete,
            },
            SmtResult::Unknown(reason) => Verdict::Unknown { reason: *reason },
        }
    }

    /// Whether the verdict is `Unsat`.
    pub fn is_unsat(self) -> bool {
        matches!(self, Verdict::Unsat)
    }

    /// Whether the verdict is `Sat` (complete or not).
    pub fn is_sat(self) -> bool {
        matches!(self, Verdict::Sat { .. })
    }

    /// Whether the verdict pins down an answer: `Unsat` (always sound) or a
    /// complete `Sat`. Budget-degraded results (`Unknown`, incomplete
    /// `Sat`) are not definitive.
    pub fn is_definitive(self) -> bool {
        matches!(self, Verdict::Unsat | Verdict::Sat { complete: true })
    }

    /// Whether two verdicts for the *same query* are mutually consistent.
    /// Non-definitive results are compatible with anything; two definitive
    /// results must agree on sat-vs-unsat. Differential harnesses
    /// (`pins-fuzz`) flag exactly the pairs for which this is `false` —
    /// any such pair witnesses a soundness bug in at least one of the runs.
    pub fn agrees_with(self, other: Verdict) -> bool {
        !(self.is_definitive() && other.is_definitive() && self.is_unsat() != other.is_unsat())
    }
}

/// Why a normalized-query cache miss happened — the pins-xray miss
/// taxonomy. Every miss is exactly one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MissCause {
    /// No equal query was ever solved through this cache.
    FirstSeen,
    /// The same assertion set was solved before under a *different*
    /// configuration fingerprint, and every verdict it reached there was
    /// definitive or sat — the miss is pure config churn.
    ConfigMismatch,
    /// The same assertion set was solved before under a different config
    /// and was budget-limited (`Unknown`) at least once: the miss belongs
    /// to a budget-escalation ladder (sessions retrying at doubled budgets).
    BudgetRetry,
    /// No equal query, but some cached query differs from this one by
    /// at most [`NEAR_MISS_DELTA`] assertions — the key smell that warm
    /// starting (ROADMAP item 1) would pay off.
    NearMiss,
}

impl MissCause {
    /// Stable tag used in trace events and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            MissCause::FirstSeen => "first_seen",
            MissCause::ConfigMismatch => "config_mismatch",
            MissCause::BudgetRetry => "budget_retry",
            MissCause::NearMiss => "near_miss",
        }
    }
}

/// Maximum assertion-set delta (|added| + |removed|) for a miss to count as
/// a structural near-miss.
pub const NEAR_MISS_DELTA: usize = 4;

/// Bound on how many structural keys the per-assertion inverted index keeps
/// per fingerprint; beyond it an assertion is too common to vote usefully.
const INVERTED_CAP: usize = 8;

/// The unsat core stored alongside a cached `Unsat` verdict: the member
/// formulas' fingerprints (a subset of the query's normalized assertion
/// set, so any session that hits the entry can resolve them back to its
/// own assert indices).
#[derive(Debug, Clone)]
pub(crate) struct CachedCore {
    /// Sorted fingerprints of the core members.
    pub(crate) fps: Vec<u128>,
    /// Whether the core came from conflict analysis rather than the
    /// all-asserts fallback over-approximation.
    pub(crate) exact: bool,
}

/// What the cache stores per normalized key.
#[derive(Debug, Clone)]
pub(crate) struct CacheEntry {
    /// The model-free verdict.
    pub(crate) verdict: Verdict,
    /// For `Unsat` verdicts produced with core tracking on: the core.
    pub(crate) core: Option<Arc<CachedCore>>,
}

/// What one structural query looked like when it was last solved; the
/// forensics side-index is keyed by config-independent structural keys.
#[derive(Debug, Default)]
struct StructuralSeen {
    /// Whether any config reached only a budget-limited verdict here.
    any_unknown: bool,
    /// Normalized assertion count (for near-miss delta computation).
    atoms: u32,
}

#[derive(Debug, Default)]
struct ForensicsIndex {
    /// Structural key (config-independent) → what was seen there.
    structural: FxHashMap<u128, StructuralSeen>,
    /// Assertion fingerprint → structural keys containing it (each list
    /// capped at [`INVERTED_CAP`]): the near-miss voting index.
    inverted: FxHashMap<u128, Vec<u128>>,
}

/// The core index: (scope, smallest member fingerprint) → the distinct
/// unsat cores anchored there.
type CoreIndex = FxHashMap<(u128, u128), Vec<Arc<CachedCore>>>;

/// Whether every element of sorted `sub` occurs in sorted `set`.
fn is_sorted_subset(sub: &[u128], set: &[u128]) -> bool {
    sub.iter().all(|x| set.binary_search(x).is_ok())
}

/// A map from normalized query fingerprints to verdicts, with an index over
/// the unsat cores of its `Unsat` entries. One run owns one, shared by its
/// sessions through [`SmtSession::with_cache`].
///
/// The map is guarded by a [`Mutex`] — queries take microseconds to
/// milliseconds, so contention on the lock is negligible next to solving.
/// A second mutex guards the core index, consulted on exact-key misses; a
/// third the miss-forensics side-index (structural keys and the near-miss
/// inverted index), touched only on the miss path. The cache counts
/// nothing: hits, core hits, misses and miss causes are counted by the
/// session that asked ([`SessionStats`]).
#[derive(Debug, Default)]
pub struct QueryCache {
    map: Mutex<FxHashMap<u128, CacheEntry>>,
    cores: Mutex<CoreIndex>,
    forensics: Mutex<ForensicsIndex>,
}

impl QueryCache {
    /// An empty cache.
    pub fn new() -> QueryCache {
        QueryCache::default()
    }

    /// Looks up a fingerprint. The entry carries the verdict plus, for
    /// tracked `Unsat` results, its core.
    pub(crate) fn lookup(&self, key: u128) -> Option<CacheEntry> {
        self.map.lock().unwrap().get(&key).cloned()
    }

    /// Records a verdict and (for `Unsat` with tracking) its core.
    pub(crate) fn insert_entry(&self, key: u128, verdict: Verdict, core: Option<Arc<CachedCore>>) {
        self.map
            .lock()
            .unwrap()
            .insert(key, CacheEntry { verdict, core });
    }

    /// Indexes an unsat core under `scope`, the fingerprint of the config
    /// and axiom set it is unsatisfiable under, at its smallest member. A
    /// core already indexed there is not added twice; a core without members
    /// (axioms unsat on their own) is not indexed.
    pub(crate) fn index_core(&self, scope: u128, core: Arc<CachedCore>) {
        let Some(&anchor) = core.fps.first() else {
            return;
        };
        let mut cores = self.cores.lock().unwrap();
        let list = cores.entry((scope, anchor)).or_default();
        if !list.iter().any(|c| c.fps == core.fps) {
            list.push(core);
        }
    }

    /// An indexed core under `scope` whose members all occur in
    /// `sorted_fps` (a query's sorted, deduplicated assertion fingerprints):
    /// a proof that the query is unsatisfiable. Candidates are the cores
    /// anchored at each of the query's fingerprints, in order.
    pub(crate) fn subsuming_core(
        &self,
        scope: u128,
        sorted_fps: &[u128],
    ) -> Option<Arc<CachedCore>> {
        let cores = self.cores.lock().unwrap();
        sorted_fps
            .iter()
            .filter_map(|&fp| cores.get(&(scope, fp)))
            .flatten()
            .find(|c| is_sorted_subset(&c.fps, sorted_fps))
            .cloned()
    }

    /// Classifies why `structural_key` (with normalized assertion
    /// fingerprints `sorted_fps`) missed the cache. Returns the cause and,
    /// for near-misses, the assertion-set delta to the closest cached query.
    pub(crate) fn classify_miss(
        &self,
        structural_key: u128,
        sorted_fps: &[u128],
    ) -> (MissCause, u64) {
        let f = self.forensics.lock().unwrap();
        if let Some(seen) = f.structural.get(&structural_key) {
            return if seen.any_unknown {
                (MissCause::BudgetRetry, 0)
            } else {
                (MissCause::ConfigMismatch, 0)
            };
        }
        // near-miss vote: count shared assertions per candidate structural
        // key through the inverted index, then take the smallest delta
        let mut shared: FxHashMap<u128, usize> = FxHashMap::default();
        for fp in sorted_fps {
            if let Some(keys) = f.inverted.get(fp) {
                for &k in keys {
                    *shared.entry(k).or_insert(0) += 1;
                }
            }
        }
        let n = sorted_fps.len();
        let mut best: Option<usize> = None;
        for (k, s) in &shared {
            let atoms = f.structural.get(k).map_or(0, |i| i.atoms as usize);
            let delta = atoms.saturating_sub(*s) + n.saturating_sub(*s);
            if best.is_none_or(|b| delta < b) {
                best = Some(delta);
            }
        }
        match best {
            Some(delta) if delta <= NEAR_MISS_DELTA => (MissCause::NearMiss, delta as u64),
            _ => (MissCause::FirstSeen, 0),
        }
    }

    /// Records a solved query into the forensics side-index so later misses
    /// can be classified against it.
    pub(crate) fn note_solved(&self, structural_key: u128, sorted_fps: &[u128], verdict: Verdict) {
        let mut f = self.forensics.lock().unwrap();
        let is_new = !f.structural.contains_key(&structural_key);
        if is_new {
            f.structural.insert(
                structural_key,
                StructuralSeen {
                    any_unknown: false,
                    atoms: sorted_fps.len() as u32,
                },
            );
            for fp in sorted_fps {
                let keys = f.inverted.entry(*fp).or_default();
                if keys.len() < INVERTED_CAP && !keys.contains(&structural_key) {
                    keys.push(structural_key);
                }
            }
        }
        if matches!(verdict, Verdict::Unknown { .. }) {
            if let Some(seen) = f.structural.get_mut(&structural_key) {
                seen.any_unknown = true;
            }
        }
    }

    /// Number of distinct cached queries.
    pub fn len(&self) -> usize {
        self.map.lock().unwrap().len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// ---------------------------------------------------------------------------
// unsat cores at the session level
// ---------------------------------------------------------------------------

/// Which session-level formula an unsat-core member refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreSlot {
    /// Index into [`SmtSession::assertions`] at query time.
    Assertion(usize),
    /// Index into the assumption slice the query was issued with.
    Assumption(usize),
}

/// One member of an unsat core: a position in the query plus the
/// fingerprint of the formula there (its arena and term id, mixed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreMember {
    /// Where the formula sat in the query.
    pub slot: CoreSlot,
    /// Fingerprint of the formula.
    pub fingerprint: u128,
}

/// The unsat core attached to an `Unsat` verdict: a subset of the query's
/// asserted formulas that is already unsatisfiable (together with any
/// quantified axioms in scope — axiom instances are never tracked, so a core
/// is relative to the axiom set).
#[derive(Debug, Clone)]
pub struct UnsatCore {
    /// Core members in query order.
    pub members: Vec<CoreMember>,
    /// Whether the core came from conflict analysis (`true`) or is the
    /// all-asserts fallback over-approximation (`false`).
    pub exact: bool,
    /// Content id: a hash of the member fingerprints, the same for the same
    /// members of one arena, so stable within a run and across its sessions
    /// but not across runs — what `pins-report --xray` aggregates on.
    pub id: u64,
}

impl UnsatCore {
    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the core has no members (unsatisfiability came from the
    /// axioms alone).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

/// Content id over a sorted, deduplicated fingerprint set.
fn core_id(fps: &[u128]) -> u64 {
    let mut h = mix_u64(FP_SEED, 0xc04e);
    for &fp in fps {
        h = mix(h, fp);
    }
    (h as u64) ^ ((h >> 64) as u64)
}

// ---------------------------------------------------------------------------
// query shapes
// ---------------------------------------------------------------------------

/// The normalized fingerprints of one query, computed once and reused for
/// the cache key, the structural (config-independent) forensics key, core
/// provenance mapping, and the incrementality audit.
#[derive(Debug)]
struct QueryShape {
    /// Assertion then assumption fingerprints in query order (not
    /// deduplicated): index = core provenance id.
    ordered: Vec<u128>,
    /// Sorted, deduplicated assertion ∪ assumption fingerprints.
    sorted: Vec<u128>,
    /// Sorted, deduplicated axiom fingerprints.
    ax: Vec<u128>,
}

impl QueryShape {
    /// The cache key under `config_fp` (a config fingerprint or the
    /// structural seed).
    fn key_for(&self, config_fp: u128) -> u128 {
        let mut key = config_fp;
        key = mix_u64(key, self.ax.len() as u64);
        for &h in &self.ax {
            key = mix(key, h);
        }
        key = mix_u64(key, self.sorted.len() as u64);
        for &h in &self.sorted {
            key = mix(key, h);
        }
        key
    }

    /// The scope unsat cores are indexed under: `config_fp` and the axiom
    /// set, without the assertions.
    fn core_scope(&self, config_fp: u128) -> u128 {
        let mut scope = mix_u64(config_fp, 0xc02e);
        scope = mix_u64(scope, self.ax.len() as u64);
        for &h in &self.ax {
            scope = mix(scope, h);
        }
        scope
    }

    /// The config-independent key the miss-forensics index is built on:
    /// same hash chain as a cache key but seeded with a distinct constant,
    /// so structural keys never collide with real cache keys by accident.
    fn structural_key(&self) -> u128 {
        self.key_for(mix_u64(FP_SEED, 0x57ac))
    }
}

/// What the incrementality audit measured for one consecutive-query pair.
#[derive(Debug, Clone, Copy)]
struct AuditDelta {
    /// Length of the shared ordered prefix with the previous query.
    shared_prefix: u64,
    /// Atoms in this query but not the previous one.
    added: u64,
    /// Atoms in the previous query but not this one.
    removed: u64,
}

/// How the session's one query path answered.
enum Answer {
    /// From the cache, without solving.
    Cached(Verdict),
    /// By the solver (a cache miss, or a `Sat` re-solved for its model).
    Solved(SmtResult),
}

// ---------------------------------------------------------------------------
// the session
// ---------------------------------------------------------------------------

pins_trace::counter_table! {
    /// Per-session query counters: the view of the cells a session writes
    /// ([`SmtSession::stats`]). A detached session counts its own traffic;
    /// a bound one writes the registry's `{prefix}.*` cells, which every
    /// session bound under the same prefix shares.
    pub struct SessionStats(prefix) / SessionCounters {
        /// Total queries issued through this session.
        queries: u64 = "queries",
        /// Queries answered from the shared cache without solving.
        cache_hits: u64 = "cache_hits",
        /// Queries that required an actual solve.
        cache_misses: u64 = "cache_misses",
        /// Cache hits answered `Unsat` because the query contains a known
        /// unsat core of its scope, not because its exact key was cached.
        core_hits: u64 = "core_hits",
        /// Model-producing checks whose verdict was cached as satisfiable and
        /// therefore had to re-solve for a model (the cache stores none).
        sat_resolves: u64 = "sat_resolves",
        /// Budget-limited `Unknown` results retried once at doubled budgets.
        retries: u64 = "retries",
        /// Cached budget-limited `Unknown` entries replaced in place because a
        /// retry at larger budgets reached a definitive verdict.
        cache_upgrades: u64 = "cache_upgrades",
        /// Final `Unknown` answers (after any retry) that hit the wall-clock
        /// deadline.
        unknown_deadline: u64 = "unknown.deadline",
        /// Final `Unknown` answers caused by an external cancellation.
        unknown_cancelled: u64 = "unknown.cancelled",
        /// Final `Unknown` answers that exhausted a step or round limit.
        unknown_step_limit: u64 = "unknown.step_limit",
        /// Final `Unknown` answers degraded from an arithmetic overflow in the
        /// exact rational LIA core.
        unknown_overflow: u64 = "unknown.overflow",
        /// Misses classified [`MissCause::FirstSeen`].
        miss_first_seen: u64 = "miss.first_seen",
        /// Misses classified [`MissCause::ConfigMismatch`].
        miss_config_mismatch: u64 = "miss.config_mismatch",
        /// Misses classified [`MissCause::BudgetRetry`].
        miss_budget_retry: u64 = "miss.budget_retry",
        /// Misses classified [`MissCause::NearMiss`].
        miss_near_miss: u64 = "miss.near_miss",
        /// Consecutive-query pairs measured by the incrementality audit.
        audit_pairs: u64 = "audit.pairs",
        /// Summed shared-prefix length (atoms) over audited pairs.
        audit_shared_prefix: u64 = "audit.shared_prefix",
        /// Summed atoms added relative to the previous query.
        audit_added: u64 = "audit.added",
        /// Summed atoms removed relative to the previous query.
        audit_removed: u64 = "audit.removed",
        /// Audited pairs that only *extended* the previous query (removed = 0):
        /// exactly the queries a push-scoped warm start would serve.
        audit_pure_extensions: u64 = "audit.pure_extensions",
        /// Time spent in uncached solves (cache misses and sat re-solves).
        solve_time: Duration = "audit.solve_ns",
        /// `Unsat` verdicts that carried an unsat core (fresh or cached).
        cores: u64 = "cores",
        /// Cores that were fallback over-approximations rather than exact.
        cores_inexact: u64 = "cores.inexact",
    }
}

impl SessionStats {
    /// Queries attributed to `phase` — the `{prefix}.queries.phase.{tag}`
    /// cell bound sessions write through. The cells over all of
    /// [`PHASES`] partition `{prefix}.queries`.
    pub fn phase_queries(registry: &MetricsRegistry, prefix: &str, phase: Phase) -> u64 {
        registry.get(&format!("{prefix}.queries.phase.{}", phase.as_str()))
    }

    /// Nanoseconds of solver time attributed to `phase` — the
    /// `{prefix}.query_ns.phase.{tag}` cell.
    pub fn phase_query_ns(registry: &MetricsRegistry, prefix: &str, phase: Phase) -> u64 {
        registry.get(&format!("{prefix}.query_ns.phase.{}", phase.as_str()))
    }
}

/// The registry handles a session writes through at event time: its
/// [`SessionStats`] counters, plus the histograms and per-phase cells that
/// have no field there. Detached until [`SmtSession::bind_metrics`].
#[derive(Debug, Default)]
struct SessionMetrics {
    counters: SessionCounters,
    /// Log-scaled assertion-set delta (added + removed atoms) between
    /// consecutive queries. Bound as `{prefix}.audit.delta_atoms`.
    audit_delta_atoms: Histogram,
    /// Log-scaled end-to-end query latency (nanoseconds, cache hits
    /// included). Bound as `{prefix}.query_ns`.
    query_ns: Histogram,
    /// Query count per originating [`Phase`] (`{prefix}.queries.phase.{tag}`).
    queries_by_phase: [Counter; PHASES.len()],
    /// Summed query nanoseconds per originating phase
    /// (`{prefix}.query_ns.phase.{tag}`) — the cost-attribution numerator.
    query_ns_by_phase: [Counter; PHASES.len()],
}

impl SessionMetrics {
    fn bind(registry: &MetricsRegistry, prefix: &str) -> SessionMetrics {
        let c = |name: &str| registry.counter(&format!("{prefix}.{name}"));
        SessionMetrics {
            counters: SessionCounters::bind(registry, prefix),
            audit_delta_atoms: registry.histogram(&format!("{prefix}.audit.delta_atoms")),
            query_ns: registry.histogram(&format!("{prefix}.query_ns")),
            queries_by_phase: std::array::from_fn(|i| {
                c(&format!("queries.phase.{}", PHASES[i].as_str()))
            }),
            query_ns_by_phase: std::array::from_fn(|i| {
                c(&format!("query_ns.phase.{}", PHASES[i].as_str()))
            }),
        }
    }

    fn note_unknown(&self, reason: StopReason) {
        let c = &self.counters;
        match reason {
            StopReason::Deadline => c.unknown_deadline.inc(),
            StopReason::Cancelled => c.unknown_cancelled.inc(),
            StopReason::StepLimit => c.unknown_step_limit.inc(),
            StopReason::Overflow => c.unknown_overflow.inc(),
        }
    }

    /// Bumps the total and per-phase query counters (one query issued).
    fn note_query(&self, phase: Phase) {
        self.counters.queries.inc();
        self.queries_by_phase[phase as usize].inc();
    }

    /// Records one query's end-to-end latency into the histogram and the
    /// per-phase attribution cell. Relaxed atomic adds only.
    fn note_latency(&self, phase: Phase, d: Duration) {
        self.query_ns.record_duration(d);
        self.query_ns_by_phase[phase as usize].add_duration(d);
    }
}

/// Explicit fingerprint of every [`SmtConfig`] field. The configuration
/// changes what a verdict means (budgets can turn `Unsat` into `Unknown`),
/// so it is part of every cache key. Each field is hashed individually —
/// hashing a `Debug` rendering instead would quietly merge configs whenever
/// a field (e.g. a budget knob) was missing from the derived output.
fn config_fingerprint(config: &SmtConfig) -> u128 {
    let mut h = mix_u64(FP_SEED, 0xc0f1);
    h = mix_u64(h, config.inst.max_rounds as u64);
    h = mix_u64(h, config.inst.max_instances as u64);
    h = mix_u64(h, config.max_theory_rounds as u64);
    h = mix_u64(h, config.bb_depth as u64);
    // Options hash a presence tag before the value so `None` and
    // `Some(0)` stay distinct.
    h = mix_u64(h, config.time_limit.is_some() as u64);
    h = mix_u64(h, config.time_limit.map_or(0, |d| d.as_nanos() as u64));
    h = mix_u64(h, config.step_limit.is_some() as u64);
    h = mix_u64(h, config.step_limit.unwrap_or(0));
    h = mix_u64(h, config.retry_unknown as u64);
    mix_u64(h, config.track_cores as u64)
}

/// A persistent solver session: scoped assertions, assumption-based checks,
/// and a normalized-query cache. See the [module docs](self).
#[derive(Debug)]
pub struct SmtSession {
    config: SmtConfig,
    config_fp: u128,
    /// Persistent ground assertions, in assertion order.
    assertions: Vec<TermId>,
    /// Quantified library axioms, instantiated rather than asserted.
    axioms: Vec<TermId>,
    /// Scope marks: (assertions.len(), axioms.len()) at each `push`.
    frames: Vec<(usize, usize)>,
    cache: Arc<QueryCache>,
    /// Shared cancellation/deadline budget every solve runs under. Not part
    /// of the cache key: it is external state (a caller-owned kill switch),
    /// not part of what the query *means*.
    budget: Budget,
    /// Where this session's counters are written (detached until
    /// [`bind_metrics`](Self::bind_metrics)); read them with
    /// [`stats`](Self::stats).
    metrics: SessionMetrics,
    /// Where queries come from: the engine mutates this shared context as
    /// the run moves through iterations/phases/paths, and every query span
    /// and per-phase counter reads it.
    prov: ProvenanceCtx,
    /// The unsat core of the most recent query, when that query was `Unsat`
    /// and core tracking was on (fresh solve or cache hit with a stored
    /// core). Reset at the start of every query.
    last_core: Option<UnsatCore>,
    /// Previous query's assertion fingerprints in assertion order — the
    /// incrementality audit's shared-prefix baseline.
    last_ordered: Vec<u128>,
    /// Previous query's sorted, deduplicated assertion fingerprints — the
    /// audit's added/removed baseline.
    last_sorted: Vec<u128>,
    /// Whether `last_ordered`/`last_sorted` describe a real previous query
    /// (the audit skips the session's first query).
    audit_primed: bool,
}

impl SmtSession {
    /// A session over a cache of its own.
    pub fn new(config: SmtConfig) -> SmtSession {
        SmtSession::with_cache(config, Arc::new(QueryCache::new()))
    }

    /// A session over `cache`, shared with the other sessions given it: the
    /// engine's validity and feasibility sessions of one run share one.
    pub fn with_cache(config: SmtConfig, cache: Arc<QueryCache>) -> SmtSession {
        let config_fp = config_fingerprint(&config);
        SmtSession {
            config,
            config_fp,
            assertions: Vec::new(),
            axioms: Vec::new(),
            frames: Vec::new(),
            cache,
            budget: Budget::unlimited(),
            metrics: SessionMetrics::default(),
            prov: ProvenanceCtx::default(),
            last_core: None,
            last_ordered: Vec::new(),
            last_sorted: Vec::new(),
            audit_primed: false,
        }
    }

    /// Binds this session's counters to `registry` cells under `prefix`
    /// (e.g. `"smt"` yields `smt.queries`, `smt.cache_hits`, ...); read the
    /// totals back with [`SessionStats::from_registry`].
    pub fn bind_metrics(&mut self, registry: &MetricsRegistry, prefix: &str) {
        self.metrics = SessionMetrics::bind(registry, prefix);
    }

    /// The counters this session writes: its own traffic while detached,
    /// the shared `{prefix}.*` registry cells once bound.
    pub fn stats(&self) -> SessionStats {
        self.metrics.counters.view()
    }

    /// Installs the shared provenance context queries are attributed to.
    pub fn set_provenance(&mut self, prov: ProvenanceCtx) {
        self.prov = prov;
    }

    /// The provenance context this session attributes queries to.
    pub fn provenance(&self) -> &ProvenanceCtx {
        &self.prov
    }

    /// Installs the shared budget every subsequent solve runs under.
    /// Cancelling it (from any clone, any thread) makes in-flight and future
    /// queries return `Unknown(Cancelled)`.
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    /// The shared budget this session's solves run under.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// The solver configuration used for every check.
    pub fn config(&self) -> SmtConfig {
        self.config
    }

    /// The cache this session reads and writes.
    pub fn cache(&self) -> &Arc<QueryCache> {
        &self.cache
    }

    /// The unsat core of the most recent query, when that query's verdict
    /// was `Unsat` and core tracking ([`SmtConfig::track_cores`]) was on.
    /// Cache hits resolve the stored core against the current query's
    /// assertion/assumption positions. `None` after any non-`Unsat` query,
    /// and after an `Unsat` cache hit whose entry predates core tracking.
    pub fn last_unsat_core(&self) -> Option<&UnsatCore> {
        self.last_core.as_ref()
    }

    /// Adds a persistent assertion to the current scope.
    pub fn assert(&mut self, t: TermId) {
        self.assertions.push(t);
    }

    /// Adds a quantified axiom to the current scope. Axioms are handed to
    /// the solver for trigger-based instantiation ahead of the assertions.
    pub fn assert_axiom(&mut self, t: TermId) {
        self.axioms.push(t);
    }

    /// The current persistent assertions, oldest first.
    pub fn assertions(&self) -> &[TermId] {
        &self.assertions
    }

    /// The current axioms, oldest first.
    pub fn axioms(&self) -> &[TermId] {
        &self.axioms
    }

    /// Opens a new assertion scope.
    pub fn push(&mut self) {
        self.frames.push((self.assertions.len(), self.axioms.len()));
    }

    /// Closes the innermost scope, dropping every assertion and axiom added
    /// since the matching [`push`](Self::push).
    ///
    /// # Panics
    ///
    /// Panics when there is no open scope.
    pub fn pop(&mut self) {
        let (na, nx) = self
            .frames
            .pop()
            .expect("SmtSession::pop without matching push");
        self.assertions.truncate(na);
        self.axioms.truncate(nx);
    }

    /// How many scopes are open.
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// The normalized shape of the current scope plus `assumptions`: every
    /// fingerprint a query needs, computed once. `ordered` holds the
    /// assertion-then-assumption fingerprints in query order (positions
    /// double as core provenance ids); `sorted` is the deduplicated
    /// conjunction multiset the cache keys hash.
    fn query_shape(&self, arena: &TermArena, assumptions: &[TermId]) -> QueryShape {
        let ordered: Vec<u128> = self
            .assertions
            .iter()
            .chain(assumptions)
            .map(|&t| term_fp(arena, t))
            .collect();
        // conjunction: order and multiplicity are irrelevant to the key
        let mut sorted = ordered.clone();
        sorted.sort_unstable();
        sorted.dedup();
        let mut ax: Vec<u128> = self.axioms.iter().map(|&t| term_fp(arena, t)).collect();
        ax.sort_unstable();
        ax.dedup();
        QueryShape {
            ordered,
            sorted,
            ax,
        }
    }

    /// Runs the underlying solver on the current scope plus `assumptions`,
    /// under `config` and the session's shared budget. When
    /// [`SmtConfig::track_cores`] is set, every assertion and assumption is
    /// tracked under its position in the query (the same positions as
    /// [`QueryShape::ordered`]) and an `Unsat` answer returns the tracked
    /// core alongside the result.
    fn solve(
        &mut self,
        arena: &mut TermArena,
        assumptions: &[TermId],
        config: SmtConfig,
    ) -> (SmtResult, Option<TrackedCore>) {
        let mut smt = Smt::new(config);
        smt.set_budget(self.budget.clone());
        for i in 0..self.axioms.len() {
            let ax = self.axioms[i];
            smt.assert_term(arena, ax);
        }
        let track = config.track_cores;
        for i in 0..self.assertions.len() {
            let t = self.assertions[i];
            if track {
                smt.assert_term_tracked(arena, t, i as u32);
            } else {
                smt.assert_term(arena, t);
            }
        }
        let base = self.assertions.len();
        for (j, &t) in assumptions.iter().enumerate() {
            if track {
                smt.assert_term_tracked(arena, t, (base + j) as u32);
            } else {
                smt.assert_term(arena, t);
            }
        }
        let result = smt.check(arena);
        let core = match result {
            SmtResult::Unsat => smt.unsat_core().cloned(),
            _ => None,
        };
        (result, core)
    }

    /// The cacheable form of a tracked core: its members' fingerprints,
    /// sorted and deduplicated.
    fn cached_core(&self, shape: &QueryShape, tracked: &TrackedCore) -> CachedCore {
        let mut fps: Vec<u128> = tracked
            .ids
            .iter()
            .filter_map(|&p| shape.ordered.get(p as usize).copied())
            .collect();
        fps.sort_unstable();
        fps.dedup();
        CachedCore {
            fps,
            exact: tracked.exact,
        }
    }

    /// The session-level view of a tracked core: provenance ids mapped back
    /// to assertion/assumption slots.
    fn core_of_tracked(&self, shape: &QueryShape, tracked: &TrackedCore) -> UnsatCore {
        let n = self.assertions.len();
        let members: Vec<CoreMember> = tracked
            .ids
            .iter()
            .filter_map(|&p| {
                let p = p as usize;
                shape.ordered.get(p).map(|&fp| CoreMember {
                    slot: if p < n {
                        CoreSlot::Assertion(p)
                    } else {
                        CoreSlot::Assumption(p - n)
                    },
                    fingerprint: fp,
                })
            })
            .collect();
        let mut fps: Vec<u128> = members.iter().map(|m| m.fingerprint).collect();
        fps.sort_unstable();
        fps.dedup();
        UnsatCore {
            members,
            exact: tracked.exact,
            id: core_id(&fps),
        }
    }

    /// Resolves a cache-hit core's fingerprints back to this query's slots.
    /// Key equality and core subsumption both imply the cached core's
    /// fingerprints are a subset of this query's normalized assertion set,
    /// so every member resolves; the first matching position is taken when
    /// a formula occurs twice.
    fn core_of_cached(&self, shape: &QueryShape, cached: &CachedCore) -> UnsatCore {
        let n = self.assertions.len();
        let members: Vec<CoreMember> = cached
            .fps
            .iter()
            .filter_map(|&fp| {
                shape
                    .ordered
                    .iter()
                    .position(|&o| o == fp)
                    .map(|p| CoreMember {
                        slot: if p < n {
                            CoreSlot::Assertion(p)
                        } else {
                            CoreSlot::Assumption(p - n)
                        },
                        fingerprint: fp,
                    })
            })
            .collect();
        UnsatCore {
            members,
            exact: cached.exact,
            id: core_id(&cached.fps),
        }
    }

    /// Books an `Unsat` verdict's core into `last_core`, the counters, and
    /// (when tracing) the query span.
    fn note_core(&mut self, core: UnsatCore, span: &mut pins_trace::Span) {
        self.metrics.counters.cores.inc();
        if !core.exact {
            self.metrics.counters.cores_inexact.inc();
        }
        if span.is_active() {
            span.record_u64("core_size", core.members.len() as u64);
            span.record_str("core_id", &format!("{:016x}", core.id));
            span.record("core_exact", core.exact);
        }
        self.last_core = Some(core);
    }

    /// Measures this query against the previous one for the incrementality
    /// audit and advances the baseline. Returns the delta for span stamping
    /// (`None` on the session's first query).
    fn note_audit(&mut self, shape: &QueryShape) -> Option<AuditDelta> {
        let delta = if self.audit_primed {
            let shared_prefix = shape
                .ordered
                .iter()
                .zip(self.last_ordered.iter())
                .take_while(|(a, b)| a == b)
                .count() as u64;
            // merge-walk the sorted fingerprint sets for the symmetric delta
            let (a, b) = (&shape.sorted, &self.last_sorted);
            let (mut i, mut j) = (0usize, 0usize);
            let (mut added, mut removed) = (0u64, 0u64);
            while i < a.len() && j < b.len() {
                match a[i].cmp(&b[j]) {
                    std::cmp::Ordering::Less => {
                        added += 1;
                        i += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        removed += 1;
                        j += 1;
                    }
                    std::cmp::Ordering::Equal => {
                        i += 1;
                        j += 1;
                    }
                }
            }
            added += (a.len() - i) as u64;
            removed += (b.len() - j) as u64;
            let c = &self.metrics.counters;
            c.audit_pairs.inc();
            c.audit_shared_prefix.add(shared_prefix);
            c.audit_added.add(added);
            c.audit_removed.add(removed);
            if removed == 0 {
                c.audit_pure_extensions.inc();
            }
            self.metrics.audit_delta_atoms.record(added + removed);
            Some(AuditDelta {
                shared_prefix,
                added,
                removed,
            })
        } else {
            None
        };
        self.last_ordered.clone_from(&shape.ordered);
        self.last_sorted.clone_from(&shape.sorted);
        self.audit_primed = true;
        delta
    }

    /// Stamps the audit fields onto the query span.
    fn stamp_audit(
        &self,
        span: &mut pins_trace::Span,
        shape: &QueryShape,
        delta: Option<&AuditDelta>,
    ) {
        if span.is_active() {
            span.record_u64("atoms", shape.ordered.len() as u64);
            if let Some(d) = delta {
                span.record_u64("shared_prefix", d.shared_prefix);
                span.record_u64("delta_added", d.added);
                span.record_u64("delta_removed", d.removed);
            }
        }
    }

    /// Books a cache miss: classifies it against the forensics index, bumps
    /// the per-cause counters, and stamps the query span.
    fn note_miss(&mut self, shape: &QueryShape, span: &mut pins_trace::Span) {
        let c = &self.metrics.counters;
        c.cache_misses.inc();
        let (cause, near_delta) = self
            .cache
            .classify_miss(shape.structural_key(), &shape.sorted);
        match cause {
            MissCause::FirstSeen => c.miss_first_seen.inc(),
            MissCause::ConfigMismatch => c.miss_config_mismatch.inc(),
            MissCause::BudgetRetry => c.miss_budget_retry.inc(),
            MissCause::NearMiss => c.miss_near_miss.inc(),
        }
        if span.is_active() {
            span.record_str("miss_cause", cause.as_str());
            if cause == MissCause::NearMiss {
                span.record_u64("near_delta", near_delta);
            }
        }
    }

    /// Solves on a cache miss: one attempt at the session config, plus (when
    /// [`SmtConfig::retry_unknown`] is set) one retry at doubled budgets if
    /// the first attempt was stopped by a recoverable budget. The final
    /// result is cached at the query's key; a retry result is additionally
    /// cached at the escalated config's own key, and a definitive one's
    /// write to the query's key upgrades the would-be `Unknown` entry in
    /// place ([`SessionStats::cache_upgrades`]). An `Unsat` result's tracked
    /// core is cached alongside the verdict, indexed for core subsumption,
    /// and surfaced through [`last_unsat_core`](Self::last_unsat_core).
    fn solve_and_cache(
        &mut self,
        arena: &mut TermArena,
        assumptions: &[TermId],
        shape: &QueryShape,
        span: &mut pins_trace::Span,
    ) -> SmtResult {
        let (mut result, mut tracked) = self.solve(arena, assumptions, self.config);
        if let SmtResult::Unknown(reason) = result {
            // a cancellation is a caller's kill switch, not a budget the
            // query outgrew: never retry it
            if self.config.retry_unknown && reason != StopReason::Cancelled {
                self.metrics.counters.retries.inc();
                let escalated = self.config.escalate();
                let (retried, retried_core) = self.solve(arena, assumptions, escalated);
                let esc_core = retried_core
                    .as_ref()
                    .map(|c| Arc::new(self.cached_core(shape, c)));
                self.cache_verdict(
                    shape,
                    config_fingerprint(&escalated),
                    Verdict::of(&retried),
                    esc_core,
                );
                if !matches!(retried, SmtResult::Unknown(_)) {
                    // the larger budget settled it: upgrade the entry the
                    // original key would otherwise pin to Unknown
                    self.metrics.counters.cache_upgrades.inc();
                }
                result = retried;
                tracked = retried_core;
            }
        }
        if let SmtResult::Unknown(reason) = result {
            self.metrics.note_unknown(reason);
        }
        let verdict = Verdict::of(&result);
        let cached = tracked
            .as_ref()
            .map(|c| Arc::new(self.cached_core(shape, c)));
        self.cache_verdict(shape, self.config_fp, verdict, cached);
        self.cache
            .note_solved(shape.structural_key(), &shape.sorted, verdict);
        if let Some(c) = tracked {
            let core = self.core_of_tracked(shape, &c);
            self.note_core(core, span);
        }
        result
    }

    /// Caches a solved verdict at `shape`'s key under `config_fp`, and
    /// indexes an `Unsat` verdict's core under the matching scope.
    fn cache_verdict(
        &self,
        shape: &QueryShape,
        config_fp: u128,
        verdict: Verdict,
        core: Option<Arc<CachedCore>>,
    ) {
        if let (Verdict::Unsat, Some(c)) = (verdict, &core) {
            self.cache
                .index_core(shape.core_scope(config_fp), Arc::clone(c));
        }
        self.cache
            .insert_entry(shape.key_for(config_fp), verdict, core);
    }

    /// Checks the current scope, producing a model on `Sat`.
    pub fn check(&mut self, arena: &mut TermArena) -> SmtResult {
        self.check_under(arena, &[])
    }

    /// Checks the current scope with extra `assumptions` for this query
    /// only, producing a model on `Sat`.
    ///
    /// `Unsat`/`Unknown` verdicts short-circuit through the cache; a cached
    /// satisfiable verdict still re-solves, because the cache stores no
    /// models (counted in [`SessionStats::sat_resolves`]).
    pub fn check_under(&mut self, arena: &mut TermArena, assumptions: &[TermId]) -> SmtResult {
        match self.query(arena, assumptions, true) {
            Answer::Solved(result) => result,
            Answer::Cached(Verdict::Unsat) => SmtResult::Unsat,
            Answer::Cached(Verdict::Unknown { reason }) => SmtResult::Unknown(reason),
            Answer::Cached(Verdict::Sat { .. }) => {
                unreachable!("a cached Sat verdict is re-solved for its model")
            }
        }
    }

    /// The verdict of the current scope plus `assumptions`, without a model.
    /// Any cached verdict short-circuits the solver entirely.
    pub fn verdict_under(&mut self, arena: &mut TermArena, assumptions: &[TermId]) -> Verdict {
        match self.query(arena, assumptions, false) {
            Answer::Cached(verdict) => verdict,
            Answer::Solved(result) => Verdict::of(&result),
        }
    }

    /// The one query path behind [`check_under`](Self::check_under) and
    /// [`verdict_under`](Self::verdict_under): counts the query, opens its
    /// span, measures its shape and audit delta, then answers from the cache
    /// (exact key, else a subsuming core) or solves. With `need_model`, a
    /// cached `Sat` verdict is solved again ([`SessionStats::sat_resolves`]).
    fn query(&mut self, arena: &mut TermArena, assumptions: &[TermId], need_model: bool) -> Answer {
        let started = Instant::now();
        let phase = self.prov.phase();
        self.metrics.note_query(phase);
        self.last_core = None;
        let mut span = self.query_span(assumptions.len());
        let shape = self.query_shape(arena, assumptions);
        let delta = self.note_audit(&shape);
        self.stamp_audit(&mut span, &shape, delta.as_ref());
        let key = shape.key_for(self.config_fp);
        let entry = self.cache.lookup(key);
        let subsumed = match entry {
            Some(_) => None,
            None => self
                .cache
                .subsuming_core(shape.core_scope(self.config_fp), &shape.sorted),
        };
        let answer = match (entry, subsumed) {
            (_, Some(c)) => {
                self.metrics.counters.cache_hits.inc();
                self.metrics.counters.core_hits.inc();
                let core = self.core_of_cached(&shape, &c);
                self.note_core(core, &mut span);
                if span.is_active() {
                    span.record("core_hit", true);
                }
                Answer::Cached(Verdict::Unsat)
            }
            (Some(entry), None) if !(need_model && entry.verdict.is_sat()) => {
                self.metrics.counters.cache_hits.inc();
                if let (Verdict::Unsat, Some(c)) = (entry.verdict, &entry.core) {
                    let core = self.core_of_cached(&shape, c);
                    self.note_core(core, &mut span);
                }
                Answer::Cached(entry.verdict)
            }
            (hit, None) => {
                if hit.is_some() {
                    // a cached `Sat`, solved again for its model
                    self.metrics.counters.cache_hits.inc();
                    self.metrics.counters.sat_resolves.inc();
                } else {
                    self.note_miss(&shape, &mut span);
                }
                let t0 = Instant::now();
                let result = self.solve_and_cache(arena, assumptions, &shape, &mut span);
                self.metrics.counters.solve_time.add_duration(t0.elapsed());
                Answer::Solved(result)
            }
        };
        if span.is_active() {
            let (cached, verdict) = match &answer {
                Answer::Cached(v) => (true, *v),
                Answer::Solved(r) => (false, Verdict::of(r)),
            };
            span.record("cached", cached);
            span.record_str(
                "verdict",
                match verdict {
                    Verdict::Sat { .. } => "sat",
                    Verdict::Unsat => "unsat",
                    Verdict::Unknown { .. } => "unknown",
                },
            );
        }
        self.metrics.note_latency(phase, started.elapsed());
        answer
    }

    /// Opens the per-query trace span, stamping the shared budget's
    /// remaining allowance and the query's provenance (benchmark,
    /// iteration, phase, path, CEGIS round). Inert (no allocation) when
    /// tracing is off.
    fn query_span(&self, assumptions: usize) -> pins_trace::Span {
        let mut span = pins_trace::span("smt.query");
        if span.is_active() {
            span.record_u64("assumptions", assumptions as u64);
            if let Some(t) = self.budget.time_left() {
                span.record_u64("budget_ms_left", t.as_millis() as u64);
            }
            if let Some(s) = self.budget.steps_left() {
                span.record_u64("budget_steps_left", s);
            }
            let bench = self.prov.benchmark();
            if !bench.is_empty() {
                span.record_str("bench", &bench);
            }
            span.record_str("phase", self.prov.phase().as_str());
            span.record_u64("iter", self.prov.iteration());
            let path = self.prov.path();
            if path != 0 {
                span.record_u64("path", path);
            }
            let round = self.prov.cegis_round();
            if round != 0 {
                span.record_u64("cegis_round", round);
            }
        }
        span
    }

    /// Whether the current scope plus `assumptions` is provably
    /// unsatisfiable.
    pub fn is_unsat_under(&mut self, arena: &mut TermArena, assumptions: &[TermId]) -> bool {
        self.verdict_under(arena, assumptions).is_unsat()
    }

    /// Whether `hyps |= goal` modulo the session's assertions and axioms,
    /// proven by refuting `hyps ∧ ¬goal`.
    pub fn entails(&mut self, arena: &mut TermArena, hyps: &[TermId], goal: TermId) -> bool {
        let neg = arena.mk_not(goal);
        let mut assumptions = Vec::with_capacity(hyps.len() + 1);
        assumptions.extend_from_slice(hyps);
        assumptions.push(neg);
        self.is_unsat_under(arena, &assumptions)
    }
}
