//! Host-speed calibration.
//!
//! The benchmark shares its host with other tenants, and how fast the host
//! runs the same code drifts by tens of percent over minutes, and within
//! the half minute of a single engine run. The orchestrator therefore times
//! a fixed kernel, which does not depend on the program under test, every
//! 0.4 s while an engine process runs, stopping that process for the pass,
//! and scales the times of a run by [`REFERENCE_S`] over the run's mean
//! kernel time (CPU time: over the median): the reported seconds are
//! seconds at the reference host speed. A change to the program moves them as it moves raw time; a change
//! in host load moves the kernel as well and largely cancels.
//!
//! Samples spread evenly over the engine's own time weigh the host's speed
//! as the engine met it, however long its processes run. The kernel never
//! runs next to an engine process, so that it touches neither the engine's
//! heap, nor its peak memory, nor its CPU; for a single-threaded workload
//! the orchestrator binds itself and every process it starts to one CPU,
//! so that the kernel times the CPU the engine runs on.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use pins_prng::SplitMix64;

/// Kernel seconds at the reference host speed. A single-copy pass took
/// 65-95 ms on a 2-core Xeon KVM guest (2.1 GHz) as its load varied, so
/// reported seconds there are about 0.65-0.9 raw seconds.
pub const REFERENCE_S: f64 = 0.060;

/// Times `copies` passes of the kernel run at once, one per thread, until
/// the last ends, in seconds: as many as the engine keeps threads busy, so
/// that the kernel meets the contention between CPUs that the engine meets.
///
/// A pass does three kinds of work like the engine's own, each over a few
/// MB, which host load slows by different amounts. Over explore runs whose
/// raw time ranged from 15 to 25 s, raw time over the summed kinds (the
/// ordered map timed twice) varied less (sd of its log 0.032) than over any
/// one kind alone (0.035-0.047).
pub fn kernel_s(copies: usize) -> f64 {
    let pass = || std::hint::black_box((ordered_map(), hash_and_sort(), term_trees()));
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 1..copies {
            s.spawn(pass);
        }
        pass();
    });
    t0.elapsed().as_secs_f64()
}

/// Inserts into, lookups in and range scans over an ordered map of small
/// vectors: allocation-heavy pointer chasing.
fn ordered_map() -> u64 {
    let mut rng = SplitMix64::new(3);
    let mut map: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for _ in 0..40_000 {
        let k = rng.next_u64() % 100_000;
        map.entry(k).or_default().push(k);
    }
    let mut acc = 0u64;
    for _ in 0..60_000 {
        let k = rng.next_u64() % 100_000;
        acc += map.get(&k).map_or(0, |v| v.len() as u64);
        acc += map.range(k..).next().map_or(0, |(_, v)| v[0]);
    }
    acc
}

/// Hash-map counting, then a sort and lookups over the sorted keys.
fn hash_and_sort() -> u64 {
    let mut rng = SplitMix64::new(1);
    let mut counts: HashMap<u64, u64> = HashMap::new();
    for _ in 0..60_000 {
        *counts.entry(rng.next_u64() % 200_000).or_insert(0) += 1;
    }
    let mut keys: Vec<u64> = (0..150_000).map(|_| rng.next_u64()).collect();
    keys.sort_unstable();
    keys.iter()
        .map(|k| counts.get(&(k % 200_000)).copied().unwrap_or(0))
        .sum()
}

/// Random boxed expression trees, built, walked and hash-consed.
fn term_trees() -> u64 {
    #[derive(PartialEq, Eq, Hash)]
    enum Term {
        Leaf(u64),
        Node(u32, Box<Term>, Box<Term>),
    }
    fn build(rng: &mut SplitMix64, depth: u32) -> Term {
        if depth == 0 || rng.next_u64().is_multiple_of(4) {
            Term::Leaf(rng.next_u64() % 64)
        } else {
            let op = (rng.next_u64() % 8) as u32;
            let lhs = build(rng, depth - 1);
            Term::Node(op, Box::new(lhs), Box::new(build(rng, depth - 1)))
        }
    }
    fn size(t: &Term) -> u64 {
        match t {
            Term::Leaf(_) => 1,
            Term::Node(_, a, b) => 1 + size(a) + size(b),
        }
    }
    let mut rng = SplitMix64::new(4);
    let mut seen: HashMap<Term, u64> = HashMap::new();
    let mut acc = 0;
    for i in 0..3000 {
        let t = build(&mut rng, 8);
        acc += size(&t);
        *seen.entry(t).or_insert(0) += i;
    }
    acc + seen.len() as u64
}
