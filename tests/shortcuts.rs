//! The two exact shortcuts in front of the solver — counterexample replay
//! in `solve` and unsat-core subsumption in the query cache — change query
//! counts, never verdicts: the engine's own counts stay put while both
//! fire, and on real suite constraints every replayed refutation and every
//! core hit agrees with a fresh solve.

use pins::core::{
    build_domains, init_constraints, safepath_constraint, terminate_constraints, Constraint,
    DomainConfig, HoleDomains, Slicer, Solution, SolveStats,
};
use pins::fuzz::fuzz_smt_config;
use pins::logic::TermId;
use pins::prelude::*;
use pins::smt::{Definitions, Model, SessionStats, SmtResult, Verdict, Witness};
use pins::suite::{benchmark, BenchmarkId};
use pins::symexec::{apply_filler_term, EmptyFiller, ExploreConfig, Explorer, MapFiller, SymCtx};
use pins_prng::SplitMix64;

/// Runs a benchmark at `max_iterations` and returns its registry.
fn counted_run(id: BenchmarkId, max_iterations: Option<usize>) -> MetricsRegistry {
    let b = benchmark(id);
    let mut config = b.recommended_config();
    if let Some(cap) = max_iterations {
        config.max_iterations = cap;
    }
    let registry = MetricsRegistry::new();
    let budget = Budget::with_limits(config.time_budget, None);
    let result = Pins::new(config).run_with(&mut b.session(), budget, &registry);
    match (result, max_iterations) {
        (Ok(o), None) => assert!(o.converged, "{} must converge", b.name()),
        (Err(PinsError::BudgetExhausted), Some(_)) => {}
        (other, _) => panic!("{}: unexpected result {other:?}", b.name()),
    }
    registry
}

/// `[candidates, solve calls, sat_size]` of a run.
fn counts(registry: &MetricsRegistry) -> [u64; 3] {
    let solve = SolveStats::from_registry(registry);
    [
        solve.candidates_proposed,
        solve.sessions_reused + 1,
        solve.sat_size as u64,
    ]
}

#[test]
fn sum_i_keeps_its_counts_while_both_shortcuts_fire() {
    let registry = counted_run(BenchmarkId::SumI, None);
    // eight iterations, each adding one path, plus the solve that stabilized
    assert_eq!(counts(&registry), [998, 9, 4_588]);
    let solve = SolveStats::from_registry(&registry);
    let smt = SessionStats::from_registry(&registry, "smt");
    assert!(solve.replay_hits > 0, "{solve:?}");
    assert!(smt.core_hits > 0, "{smt:?}");
    assert!(smt.core_hits <= smt.cache_hits);
    // the run owns its cache, so its split does not depend on what else
    // ran in this process; most core hits never reach the session, since
    // the hole memo answers them first
    assert!(solve.memo_hits > 0, "{solve:?}");
    assert_eq!([smt.cache_hits, smt.cache_misses], [46, 162], "{smt:?}");
    assert_eq!(smt.cache_hits + smt.cache_misses, smt.queries);
    assert_eq!(solve.cache_hits + solve.cache_misses, solve.smt_queries);
}

#[test]
fn in_place_rl_keeps_its_counts_at_the_iteration_cap() {
    let registry = counted_run(BenchmarkId::InPlaceRl, Some(6));
    // six solve calls, each followed by one new path, until the cap
    assert_eq!(counts(&registry), [480, 6, 2_559]);
    assert!(SolveStats::from_registry(&registry).replay_hits > 0);
}

/// Fillers drawn per constraint part.
const FILLERS: usize = 12;

fn random_filler(domains: &HoleDomains, rng: &mut SplitMix64) -> MapFiller {
    let mut pick = |n: usize| {
        if n == 0 {
            usize::MAX
        } else {
            rng.gen_index(n)
        }
    };
    let s = Solution {
        exprs: domains.exprs.iter().map(|d| pick(d.len())).collect(),
        preds: domains.preds.iter().map(|d| pick(d.len())).collect(),
    };
    s.to_filler(domains)
}

/// The verdict of `hyps ∧ ¬goal` in a fresh session.
fn fresh(ctx: &mut SymCtx, axioms: &[TermId], query: &[TermId]) -> Verdict {
    let mut smt = SmtSession::new(fuzz_smt_config());
    for &ax in axioms {
        smt.assert_axiom(ax);
    }
    smt.verdict_under(&mut ctx.arena, query)
}

/// Verifies the benchmark's termination constraints and the `safepath` and
/// `init` constraints of its first `paths` paths, sliced into parts, under
/// random fillers — the way `solve` does: stored countermodels are replayed
/// first (axiom-free sessions only), and every query goes through one
/// session over one cache. Every replayed refutation must not be `Unsat`
/// in a fresh session, and every core hit must be `Unsat` there. Returns
/// (replayed refutations, core hits).
fn check_shortcuts(id: BenchmarkId, paths: usize, seed: u64) -> (usize, u64) {
    let b = benchmark(id);
    let session = b.session();
    let domains = build_domains(&session, DomainConfig::default());
    let program = &session.composed;
    let mut ctx = SymCtx::new(program);
    let axioms = session.axiom_terms(&mut ctx.arena);
    let mut whole = terminate_constraints(&session, &domains, &mut ctx);
    let config = ExploreConfig {
        max_unroll: 1,
        ..ExploreConfig::default()
    };
    for path in Explorer::new(program, config, None).enumerate(&mut ctx, &EmptyFiller, paths) {
        whole.push(safepath_constraint(
            &session,
            &session.spec,
            &mut ctx,
            &path,
        ));
        whole.extend(init_constraints(&session, &domains, &mut ctx, &path));
    }
    let mut parts: Vec<Constraint> = Vec::new();
    Slicer::new(&domains).add(&mut ctx, whole, &mut parts);

    let mut smt = SmtSession::new(fuzz_smt_config());
    for &ax in &axioms {
        smt.assert_axiom(ax);
    }
    let replays_on = axioms.is_empty();
    let mut rng = SplitMix64::new(seed);
    let (mut replayed, mut core_hits) = (0, 0);
    for part in &parts {
        let mut models: Vec<Model> = Vec::new();
        for _ in 0..FILLERS {
            let filler = random_filler(&domains, &mut rng);
            let mut query: Vec<TermId> = part
                .hyps
                .iter()
                .map(|&h| apply_filler_term(&mut ctx, program, h, &filler))
                .collect();
            let goal = apply_filler_term(&mut ctx, program, part.goal, &filler);
            let defs = Definitions::of(&ctx.arena, &query);
            let hit = replays_on
                && models
                    .iter()
                    .any(|m| Witness::new(&ctx.arena, m, &defs).refutes(&query, goal));
            query.push(ctx.arena.mk_not(goal));
            if hit {
                replayed += 1;
                assert_ne!(
                    fresh(&mut ctx, &axioms, &query),
                    Verdict::Unsat,
                    "{}: a replayed refutation of a {:?} part is unsat",
                    b.name(),
                    part.label
                );
                continue;
            }
            let before = smt.stats().core_hits;
            match smt.check_under(&mut ctx.arena, &query) {
                SmtResult::Sat(model) => models.insert(0, model),
                SmtResult::Unsat if smt.stats().core_hits > before => {
                    core_hits += 1;
                    assert_eq!(
                        fresh(&mut ctx, &axioms, &query),
                        Verdict::Unsat,
                        "{}: a core hit on a {:?} part is not unsat",
                        b.name(),
                        part.label
                    );
                }
                _ => {}
            }
        }
    }
    (replayed, core_hits)
}

#[test]
fn shortcuts_agree_with_fresh_solves_on_sum_i() {
    let (replayed, core_hits) = check_shortcuts(BenchmarkId::SumI, 8, 0x61);
    assert!(replayed > 0 && core_hits > 0, "{replayed} / {core_hits}");
}

#[test]
fn shortcuts_agree_with_fresh_solves_on_vector_shift() {
    let (replayed, core_hits) = check_shortcuts(BenchmarkId::VectorShift, 8, 0x62);
    assert!(replayed > 0 && core_hits > 0, "{replayed} / {core_hits}");
}

#[test]
fn shortcuts_agree_with_fresh_solves_on_in_place_rl() {
    let (replayed, _) = check_shortcuts(BenchmarkId::InPlaceRl, 8, 0x63);
    assert!(replayed > 0, "{replayed}");
}

#[test]
fn core_hits_agree_with_fresh_solves_on_vector_scale() {
    // a session with axioms: no replay, but cores still subsume
    let (replayed, core_hits) = check_shortcuts(BenchmarkId::VectorScale, 8, 0x64);
    assert_eq!(replayed, 0);
    assert!(core_hits > 0, "{core_hits}");
}
