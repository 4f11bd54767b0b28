//! Constraint slicing is exact on real suite constraints: for random
//! fillers drawn from the hole domains (and the engine's own inverses,
//! which make safety constraints valid), a constraint is valid iff every
//! one of its parts is, each query answered by a fresh session.

use pins::core::{
    build_domains, init_constraints, safepath_constraint, terminate_constraints, Constraint,
    DomainConfig, HoleDomains, HoleSet, Pins, Slicer, Solution,
};
use pins::fuzz::fuzz_smt_config;
use pins::logic::TermId;
use pins::smt::{SmtSession, Verdict};
use pins::suite::{benchmark, BenchmarkId};
use pins::symexec::{apply_filler_term, EmptyFiller, ExploreConfig, Explorer, MapFiller, SymCtx};
use pins_prng::SplitMix64;

/// Fillers drawn per constraint.
const FILLERS: usize = 8;

/// A uniformly random choice per hole (`usize::MAX` for an empty domain).
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

/// Whether a fresh session proves `c` under `s` (`Unsat` negation), in the
/// engine's terms: `Sat` — complete or not, as with quantified axioms —
/// is "not valid". `None` when the session gives up with `Unknown`.
fn validity(
    ctx: &mut SymCtx,
    program: &pins::ir::Program,
    axioms: &[TermId],
    c: &Constraint,
    filler: &MapFiller,
) -> Option<bool> {
    let mut query: Vec<TermId> = c
        .hyps
        .iter()
        .map(|&h| apply_filler_term(ctx, program, h, filler))
        .collect();
    let goal = apply_filler_term(ctx, program, c.goal, filler);
    query.push(ctx.arena.mk_not(goal));
    let mut smt = SmtSession::new(fuzz_smt_config());
    for &ax in axioms {
        smt.assert_axiom(ax);
    }
    match smt.verdict_under(&mut ctx.arena, &query) {
        Verdict::Unsat => Some(true),
        Verdict::Sat { .. } => Some(false),
        Verdict::Unknown { .. } => None,
    }
}

/// Checks the benchmark's termination constraints and the `safepath` and
/// `init` constraints of its first `paths` paths (loops entered at most
/// once), under [`FILLERS`] random fillers plus, with `synthesize`, every
/// inverse the engine returns; returns how many constraints had a part
/// observing fewer holes.
fn check_exact(id: BenchmarkId, paths: usize, seed: u64, synthesize: bool) -> usize {
    let b = benchmark(id);
    let mut session = b.session();
    let domains = build_domains(&session, DomainConfig::default());
    let mut rng = SplitMix64::new(seed);
    let mut fillers: Vec<MapFiller> = (0..FILLERS)
        .map(|_| random_filler(&domains, &mut rng))
        .collect();
    if synthesize {
        let outcome = Pins::new(b.recommended_config())
            .run(&mut session)
            .expect("the benchmark converges");
        // an inverse fills the template's holes; the synthetic ranking and
        // invariant holes get random candidates
        for inverse in outcome.solutions {
            let mut filler = random_filler(&domains, &mut rng);
            filler.exprs.extend(inverse.filler.exprs);
            filler.preds.extend(inverse.filler.preds);
            fillers.push(filler);
        }
    }
    let program = &session.composed;
    let mut ctx = SymCtx::new(program);
    let axioms = session.axiom_terms(&mut ctx.arena);
    let mut constraints = terminate_constraints(&session, &domains, &mut ctx);
    let config = ExploreConfig {
        max_unroll: 1,
        ..ExploreConfig::default()
    };
    for path in Explorer::new(program, config, None).enumerate(&mut ctx, &EmptyFiller, paths) {
        constraints.push(safepath_constraint(
            &session,
            &session.spec,
            &mut ctx,
            &path,
        ));
        constraints.extend(init_constraints(&session, &domains, &mut ctx, &path));
    }

    let mut slicer = Slicer::new(&domains);
    let (mut narrowed, mut decided, mut valid) = (0, 0, 0);
    for c in &constraints {
        let parts = slicer.slice(&mut ctx, c);
        let all = HoleSet::of(&ctx, c.hyps.iter().copied().chain([c.goal]));
        if parts
            .iter()
            .any(|p| HoleSet::of(&ctx, p.hyps.iter().copied().chain([p.goal])).len() < all.len())
        {
            narrowed += 1;
        }
        for filler in &fillers {
            let Some(whole) = validity(&mut ctx, program, &axioms, c, filler) else {
                continue;
            };
            let mut each = Vec::new();
            for p in &parts {
                each.push(validity(&mut ctx, program, &axioms, p, filler));
            }
            let Some(each) = each.into_iter().collect::<Option<Vec<bool>>>() else {
                continue;
            };
            assert_eq!(
                whole,
                each.iter().all(|&v| v),
                "{}: {:?} constraint valid={whole} but its {} parts say {each:?} under {filler:?}",
                b.name(),
                c.label,
                parts.len()
            );
            decided += 1;
            valid += usize::from(whole);
        }
    }
    // both directions of the equivalence were exercised
    assert!(
        decided >= constraints.len() && 0 < valid && valid < decided,
        "{}: {decided} decided comparisons, {valid} valid",
        b.name()
    );
    narrowed
}

#[test]
fn slicing_is_exact_on_sum_i() {
    check_exact(BenchmarkId::SumI, 8, 0x51, true);
}

#[test]
fn slicing_is_exact_on_lu_decomp() {
    assert_eq!(check_exact(BenchmarkId::LuDecomp, 1, 0x52, true), 1);
}

#[test]
fn slicing_is_exact_on_vector_shift() {
    assert!(check_exact(BenchmarkId::VectorShift, 8, 0x53, true) > 0);
}

#[test]
fn slicing_is_exact_on_in_place_rl() {
    assert!(check_exact(BenchmarkId::InPlaceRl, 8, 0x54, false) > 0);
}
