//! The hole memo answers a constraint part or an explored path from an
//! earlier candidate's unsat core. On real suite parts and paths, under
//! random candidates that drift a few holes at a time, every memo hit must
//! give the verdict a fresh session gives the query it stood in for.

use pins::core::{
    build_domains, init_constraints, safepath_constraint, terminate_constraints, Constraint,
    DomainConfig, HoleDomains, HoleMemo, HoleSet, Slicer, Solution,
};
use pins::fuzz::fuzz_smt_config;
use pins::logic::TermId;
use pins::prelude::*;
use pins::smt::Verdict;
use pins::suite::{benchmark, BenchmarkId};
use pins::symexec::{apply_filler_term, EmptyFiller, ExploreConfig, Explorer, SymCtx};
use pins_prng::SplitMix64;

/// Candidates drawn per part or path.
const CANDIDATES: usize = 16;

/// A random choice for every hole (`usize::MAX` for an empty domain).
fn random_solution(domains: &HoleDomains, rng: &mut SplitMix64) -> Solution {
    let mut pick = |n: usize| if n == 0 { usize::MAX } else { rng.gen_index(n) };
    Solution {
        exprs: domains.exprs.iter().map(|d| pick(d.len())).collect(),
        preds: domains.preds.iter().map(|d| pick(d.len())).collect(),
    }
}

/// `s` with each hole redrawn with probability 1/4, so that consecutive
/// candidates agree on most holes, as the SAT enumeration's do.
fn drift(s: &Solution, domains: &HoleDomains, rng: &mut SplitMix64) -> Solution {
    let fresh = random_solution(domains, rng);
    let mut mix = |old: &[usize], new: &[usize]| -> Vec<usize> {
        old.iter()
            .zip(new)
            .map(|(&o, &n)| if rng.gen_bool(0.25) { n } else { o })
            .collect()
    };
    Solution {
        exprs: mix(&s.exprs, &fresh.exprs),
        preds: mix(&s.preds, &fresh.preds),
    }
}

/// The verdict of `query` in a fresh session over `axioms`.
fn fresh(ctx: &mut SymCtx, axioms: &[TermId], query: &[TermId]) -> Verdict {
    let mut smt = SmtSession::new(fuzz_smt_config());
    for &ax in axioms {
        smt.assert_axiom(ax);
    }
    smt.verdict_under(&mut ctx.arena, query)
}

/// What one benchmark's check saw.
#[derive(Debug, Default)]
struct Seen {
    /// Part checks the memo answered valid.
    part_hits: usize,
    /// Path checks the memo answered infeasible.
    path_unsat_hits: usize,
    /// Path checks the memo answered feasible (exact entries).
    path_other_hits: usize,
    /// Memo hits the run's own session answered differently (an exact
    /// cache entry from an incomplete or budget-limited solve).
    diverged: usize,
}

/// Drives the memo the way `solve` and pickOne do, over the benchmark's
/// termination constraints and the `safepath`/`init` constraints of its
/// first `paths` paths (sliced into parts), and over those paths'
/// conditions: look up, else query one shared session and learn from its
/// unsat core. Every hit is checked against a fresh session.
fn check_memo(id: BenchmarkId, paths: usize, seed: u64) -> Seen {
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
    let explored = Explorer::new(program, config, None).enumerate(&mut ctx, &EmptyFiller, paths);
    for path in &explored {
        whole.push(safepath_constraint(&session, &session.spec, &mut ctx, path));
        whole.extend(init_constraints(&session, &domains, &mut ctx, path));
    }
    let mut parts: Vec<Constraint> = Vec::new();
    Slicer::new(&domains).add(&mut ctx, whole, &mut parts);

    let mut smt = SmtSession::new(fuzz_smt_config());
    for &ax in &axioms {
        smt.assert_axiom(ax);
    }
    let mut rng = SplitMix64::new(seed);
    let mut seen = Seen::default();

    let mut memo = HoleMemo::new();
    for part in &parts {
        let slots = part.hyps.iter().chain([&part.goal]);
        let i = memo.add(slots.map(|&t| HoleSet::of(&ctx, [t])).collect());
        let mut s = random_solution(&domains, &mut rng);
        for _ in 0..CANDIDATES {
            s = drift(&s, &domains, &mut rng);
            let filler = s.to_filler(&domains);
            let mut query: Vec<TermId> = part
                .hyps
                .iter()
                .map(|&h| apply_filler_term(&mut ctx, program, h, &filler))
                .collect();
            let goal = apply_filler_term(&mut ctx, program, part.goal, &filler);
            query.push(ctx.arena.mk_not(goal));
            if memo.lookup(i, &s) == Some(true) {
                seen.part_hits += 1;
                assert_eq!(
                    fresh(&mut ctx, &axioms, &query),
                    Verdict::Unsat,
                    "{}: the memo proved a {:?} part valid, a fresh session does not",
                    b.name(),
                    part.label
                );
                if !smt.verdict_under(&mut ctx.arena, &query).is_unsat() {
                    seen.diverged += 1;
                }
            } else if smt.verdict_under(&mut ctx.arena, &query).is_unsat() {
                memo.learn_unsat(i, &s, smt.last_unsat_core());
            }
        }
    }

    let mut memo = HoleMemo::new();
    for path in &explored {
        let slots = path.conjuncts.iter().map(|&t| HoleSet::of(&ctx, [t]));
        let i = memo.add(slots.collect());
        let mut s = random_solution(&domains, &mut rng);
        for _ in 0..CANDIDATES {
            s = drift(&s, &domains, &mut rng);
            let filler = s.to_filler(&domains);
            let query: Vec<TermId> = path
                .conjuncts
                .iter()
                .map(|&c| apply_filler_term(&mut ctx, program, c, &filler))
                .collect();
            match memo.lookup(i, &s) {
                Some(infeasible) => {
                    if infeasible {
                        seen.path_unsat_hits += 1;
                    } else {
                        seen.path_other_hits += 1;
                    }
                    assert_eq!(
                        fresh(&mut ctx, &axioms, &query).is_unsat(),
                        infeasible,
                        "{}: the memo's verdict on path {i} differs from a fresh session's",
                        b.name()
                    );
                    if smt.verdict_under(&mut ctx.arena, &query).is_unsat() != infeasible {
                        seen.diverged += 1;
                    }
                }
                None => {
                    if smt.verdict_under(&mut ctx.arena, &query).is_unsat() {
                        memo.learn_unsat(i, &s, smt.last_unsat_core());
                    } else {
                        memo.learn_other(i, &s);
                    }
                }
            }
        }
    }
    seen
}

#[test]
fn memo_hits_agree_with_fresh_solves_on_sum_i() {
    let seen = check_memo(BenchmarkId::SumI, 8, 0x71);
    assert!(seen.part_hits > 0 && seen.path_unsat_hits > 0, "{seen:?}");
    assert_eq!(seen.diverged, 0, "{seen:?}");
}

#[test]
fn memo_hits_agree_with_fresh_solves_on_vector_shift() {
    let seen = check_memo(BenchmarkId::VectorShift, 8, 0x72);
    assert!(seen.part_hits > 0 && seen.path_unsat_hits > 0, "{seen:?}");
    assert_eq!(seen.diverged, 0, "{seen:?}");
}

#[test]
fn memo_hits_agree_with_fresh_solves_on_vector_scale() {
    // a session with library axioms
    let seen = check_memo(BenchmarkId::VectorScale, 8, 0x73);
    assert!(seen.part_hits > 0 && seen.path_unsat_hits > 0, "{seen:?}");
    assert_eq!(seen.diverged, 0, "{seen:?}");
}

#[test]
fn memo_hits_agree_with_fresh_solves_on_in_place_rl() {
    let seen = check_memo(BenchmarkId::InPlaceRl, 8, 0x74);
    assert!(seen.part_hits > 0 && seen.path_unsat_hits > 0, "{seen:?}");
    assert_eq!(seen.diverged, 0, "{seen:?}");
}
