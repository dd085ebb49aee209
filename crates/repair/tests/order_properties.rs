//! Property tests pinning the one total order the repair pipeline shares.
//!
//! Two consumers must agree on candidate ordering, or a sharded run
//! could apply fixes in a different sequence than a serial one and the
//! byte-identity contract would silently break:
//!
//! 1. [`merge_frontiers`] — the sharded initial-frontier merge;
//! 2. the resolution heap — `BinaryHeap<Reverse<HeapKey>>` where
//!    `HeapKey == Candidate::key()`; the property pinned here is that
//!    its pop order equals the frontier merge order.
//!
//! Seeded `cfd_prng` trials over arbitrary candidate sets: Ord-law
//! sanity (totality, antisymmetry, transitivity on the key tuples),
//! shard-decomposition invariance, and heap/merge agreement.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use cfd_prng::{trials, ChaCha8Rng, Rng};
use cfd_repair::shard::{merge_frontiers, Candidate};

/// The heap key layout shared with the resolution loop.
type Key = (u64, u64, u32, u32, u32);

/// Random candidate set with distinct `(cfd, tid)` pairs (the invariant
/// the frontier holds: one entry per dirty pair) but heavy collisions on
/// every other key component, so the tie-break chain is exercised.
fn rand_candidates(rng: &mut ChaCha8Rng) -> Vec<Candidate> {
    let n = rng.gen_range(0..40usize);
    let mut out = Vec::with_capacity(n);
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    while pairs.len() < n {
        let p = (rng.gen_range(0..4u32), rng.gen_range(0..32u32));
        if !pairs.contains(&p) {
            pairs.push(p);
        }
    }
    for (cfd, tid) in pairs {
        out.push(Candidate {
            cost: rng.gen_range(0..4u64),
            freq: u64::MAX - rng.gen_range(0..3u64),
            value: rng.gen_range(0..5u32),
            cfd,
            tid,
        });
    }
    out
}

/// Split a list into `shards` random pieces.
fn rand_shards(rng: &mut ChaCha8Rng, all: &[Candidate], shards: usize) -> Vec<Vec<Candidate>> {
    let mut parts: Vec<Vec<Candidate>> = (0..shards).map(|_| Vec::new()).collect();
    for c in all {
        parts[rng.gen_range(0..shards as u32) as usize].push(*c);
    }
    parts
}

#[test]
fn key_is_a_total_order() {
    trials(200, 0x0DD_0E5, |rng| {
        let cands = rand_candidates(rng);
        for a in &cands {
            // Reflexive equality.
            assert_eq!(a.key().cmp(&a.key()), std::cmp::Ordering::Equal);
            for b in &cands {
                // Totality + antisymmetry: exactly one verdict, and
                // equality only for the identical (cfd, tid) entry.
                match a.key().cmp(&b.key()) {
                    std::cmp::Ordering::Equal => assert_eq!(a, b),
                    ord => assert_eq!(b.key().cmp(&a.key()), ord.reverse()),
                }
                // Transitivity over a third element.
                for c in &cands {
                    if a.key() <= b.key() && b.key() <= c.key() {
                        assert!(a.key() <= c.key());
                    }
                }
            }
        }
    });
}

#[test]
fn merge_is_shard_decomposition_invariant() {
    trials(300, 0xF20_17E2, |rng| {
        let cands = rand_candidates(rng);
        let mut sorted = cands.clone();
        sorted.sort_unstable_by_key(|c| c.key());
        for shards in [1usize, 2, 3, 8] {
            let parts = rand_shards(rng, &cands, shards);
            assert_eq!(
                merge_frontiers(parts),
                sorted,
                "shards={shards}: merge must not depend on the partition"
            );
        }
    });
}

/// The heap the resolution loop pops must yield candidates in exactly
/// the frontier merge order.
#[test]
fn heap_pop_order_equals_merge_order() {
    trials(300, 0x8EA9_0243, |rng| {
        let cands = rand_candidates(rng);
        let merged = merge_frontiers(vec![cands.clone()]);
        let mut heap: BinaryHeap<Reverse<Key>> = cands.iter().map(|c| Reverse(c.key())).collect();
        let mut popped = Vec::with_capacity(cands.len());
        while let Some(Reverse(key)) = heap.pop() {
            popped.push(key);
        }
        let expected: Vec<_> = merged.iter().map(|c| c.key()).collect();
        assert_eq!(popped, expected, "heap pop order diverged from merge order");
    });
}
