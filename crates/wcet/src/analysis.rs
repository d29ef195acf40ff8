//! Single-unit cache-access classification (CHMC) by fixpoint.
//!
//! Takes the unit's access sequence — already routed (ifetch vs data)
//! and already filtered by the upstream level — and classifies each
//! position as always-hit / always-miss / first-miss / not-classified
//! under the *loop model*: the trace is treated as a loop body that may
//! repeat, entered either cold or from its own exit state. This is the
//! standard WCET setting (Hardy & Puaut), and it is sound for a single
//! pass too (a single pass is one iteration of the loop).
//!
//! * **Must** at the loop entry is the join of the cold state (empty)
//!   with the exit state; the must join is intersection, so the entry
//!   state is empty and no fixpoint iteration is needed — one walk from
//!   ⊥ suffices.
//! * **May** and **Persistence** iterate `entry ← entry ⊔ transfer(entry)`
//!   until stable; both lattices are finite so this terminates.
//! * A block is *persistent* when at every one of its accesses the
//!   persistence pre-state age is below ⊤ (= ways): it can miss at most
//!   once across all loop iterations, i.e. first-miss. The
//!   [`SetFootprint`] seed handles the common
//!   trivial case (a set whose whole footprint fits its ways) without
//!   any fixpoint at all.

use std::collections::{BTreeMap, BTreeSet};

use mlc_core::SetFootprint;

use crate::domain::{AbstractCache, DomainKind};

/// One access routed to a cache unit, in trace order.
#[derive(Debug, Clone, Copy)]
pub struct UnitAccess {
    /// Position in the original trace (for reporting and filtering).
    pub pos: usize,
    /// Block index in this unit's geometry.
    pub block: u64,
    /// `true` when the access definitely reaches this unit (`A` in the
    /// multi-level filter), `false` when it only may (`U`).
    pub definite: bool,
}

/// Cache hit/miss classification of one access position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Chmc {
    /// Guaranteed hit on every execution.
    AlwaysHit,
    /// Guaranteed miss on every execution.
    AlwaysMiss,
    /// Misses at most once across all repetitions of the sequence.
    FirstMiss,
    /// No guarantee either way.
    NotClassified,
}

/// Classifies every access in `accesses` against a `sets × ways` LRU
/// unit.
///
/// `allow_must` disables the must and persistence analyses (everything
/// hit-related degrades to [`Chmc::NotClassified`]) — used at levels
/// below L1 when the trace contains writes, whose dirty-victim
/// writeback traffic the static analysis does not model. `am_blocked`
/// restricts always-miss classification to blocks *not* in the set —
/// the same write traffic can refresh or insert written blocks behind
/// the analysis's back, so definite-absence only holds for blocks no
/// write ever touches.
pub fn classify_unit(
    sets: u64,
    ways: u32,
    accesses: &[UnitAccess],
    allow_must: bool,
    am_blocked: Option<&BTreeSet<u64>>,
) -> Vec<Chmc> {
    // --- May fixpoint: entry ← entry ⊔ transfer(entry), from cold. ---
    let may_entry = fixpoint(DomainKind::May, sets, ways, accesses);

    // --- Persistence fixpoint + per-block persistence judgement. ---
    let mut persistent: BTreeMap<u64, bool> = BTreeMap::new();
    if allow_must {
        // Trivial seed: a set whose distinct-block footprint fits its
        // ways can never evict, so every block there is persistent.
        let mut footprint = SetFootprint::new(sets, ways);
        for a in accesses {
            footprint.touch(a.block);
        }
        for a in accesses {
            persistent.insert(a.block, footprint.fits(a.block));
        }
        if persistent.values().any(|&fits| !fits) {
            let pers_entry = fixpoint(DomainKind::Persistence, sets, ways, accesses);
            // Walk once more from the entry state; a block survives if
            // no access to it ever sees the ⊤ age in its pre-state.
            let mut pers = pers_entry;
            for a in accesses {
                if pers.age(a.block) == Some(ways) {
                    persistent.insert(a.block, false);
                }
                step(&mut pers, a);
            }
        }
    }

    // --- Final walk: record pre-states and classify. ---
    // Must entry is always empty (cold ⊓ exit = ⊥), so the must walk
    // needs no fixpoint; may walks from its entry fixpoint.
    let mut must = AbstractCache::new(DomainKind::Must, sets, ways);
    let mut may = may_entry;
    let mut out = Vec::with_capacity(accesses.len());
    for a in accesses {
        let in_must = allow_must && must.contains(a.block);
        let in_may = may.contains(a.block);
        let blocked = am_blocked.is_some_and(|s| s.contains(&a.block));
        let chmc = if in_must {
            Chmc::AlwaysHit
        } else if !in_may && a.definite && !blocked {
            Chmc::AlwaysMiss
        } else if allow_must && persistent.get(&a.block).copied().unwrap_or(false) {
            Chmc::FirstMiss
        } else {
            Chmc::NotClassified
        };
        out.push(chmc);
        step(&mut must, a);
        step(&mut may, a);
    }
    out
}

/// Applies one access to an abstract state, respecting definiteness.
fn step(cache: &mut AbstractCache, a: &UnitAccess) {
    if a.definite {
        cache.access(a.block);
    } else {
        cache.access_maybe(a.block);
    }
}

/// Iterates `entry ← entry ⊔ transfer(entry)` from the cold state until
/// stable and returns the entry fixpoint.
fn fixpoint(kind: DomainKind, sets: u64, ways: u32, accesses: &[UnitAccess]) -> AbstractCache {
    let mut entry = AbstractCache::new(kind, sets, ways);
    loop {
        let mut exit = entry.clone();
        for a in accesses {
            step(&mut exit, a);
        }
        let mut joined = entry.clone();
        joined.join(&exit);
        if joined == entry {
            return entry;
        }
        entry = joined;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(blocks: &[u64]) -> Vec<UnitAccess> {
        blocks
            .iter()
            .enumerate()
            .map(|(pos, &block)| UnitAccess {
                pos,
                block,
                definite: true,
            })
            .collect()
    }

    #[test]
    fn repeated_block_in_fitting_set_is_first_miss_then_hits() {
        // 1 set × 2 ways, footprint {0, 8} fits: the cold first touch of
        // each block is a first-miss, repeats are always-hits.
        let accesses = seq(&[0, 8, 0, 8, 0]);
        let chmc = classify_unit(1, 2, &accesses, true, None);
        assert_eq!(
            chmc,
            vec![
                Chmc::FirstMiss,
                Chmc::FirstMiss,
                Chmc::AlwaysHit,
                Chmc::AlwaysHit,
                Chmc::AlwaysHit,
            ]
        );
    }

    #[test]
    fn thrashing_set_is_always_miss_everywhere() {
        // 1 set × 1 way, alternating blocks: each access definitely
        // evicts the other block, so every access is an always-miss —
        // even across loop iterations.
        let accesses = seq(&[0, 1, 0, 1]);
        let chmc = classify_unit(1, 1, &accesses, true, None);
        assert!(chmc.iter().all(|&c| c == Chmc::AlwaysMiss));
    }

    #[test]
    fn cyclic_streaming_is_always_miss() {
        // 1 set × 2 ways, cyclic [0, 8, 16]: every block's reuse
        // distance (within and across iterations) is 2 ≥ ways, so LRU
        // thrashes completely and the analysis proves it.
        let accesses = seq(&[0, 8, 16]);
        let chmc = classify_unit(1, 2, &accesses, true, None);
        assert!(chmc.iter().all(|&c| c == Chmc::AlwaysMiss));
    }

    #[test]
    fn block_that_survives_only_across_iterations_is_not_classified() {
        // 1 set × 2 ways, loop body [0, 8, 16, 0]. The exit state is
        // {16, 0}, so at the *entry* access to 0 the block is resident
        // from the previous iteration — a hit on every iteration but
        // the cold first one. The must analysis (cold entry join) can't
        // guarantee the hit, the may analysis can't rule it out, and 0
        // is evicted mid-body (by 16) so it isn't persistent either:
        // exactly NotClassified. The later re-access of 0 at reuse
        // distance 2 misses every iteration.
        let accesses = seq(&[0, 8, 16, 0]);
        let chmc = classify_unit(1, 2, &accesses, true, None);
        assert_eq!(
            chmc,
            vec![
                Chmc::NotClassified,
                Chmc::AlwaysMiss,
                Chmc::AlwaysMiss,
                Chmc::AlwaysMiss,
            ]
        );
    }

    #[test]
    fn must_hit_within_one_iteration_despite_overflow() {
        // 0 re-referenced at reuse distance 1 in a 2-way set hits even
        // though the set's total footprint (3 blocks) overflows.
        let accesses = seq(&[0, 8, 0, 16]);
        let chmc = classify_unit(1, 2, &accesses, true, None);
        assert_eq!(chmc[2], Chmc::AlwaysHit);
    }

    #[test]
    fn persistence_survives_non_fitting_but_stable_set() {
        // 2 ways; blocks 0 and 8 ping-pong, then 16 appears once. The
        // set footprint (3) does not fit, but the mid-body re-accesses
        // of 0 and 8 happen at reuse distance 1 < ways, so the must
        // analysis guarantees those hits even though nothing about the
        // loop entry state is known.
        let accesses = seq(&[0, 8, 0, 8, 16]);
        let chmc = classify_unit(1, 2, &accesses, true, None);
        // 0's second access hits within the iteration.
        assert_eq!(chmc[2], Chmc::AlwaysHit);
        assert_eq!(chmc[3], Chmc::AlwaysHit);
    }

    #[test]
    fn without_must_everything_degrades_to_not_classified_or_miss() {
        let accesses = seq(&[0, 8, 0, 8]);
        let chmc = classify_unit(1, 2, &accesses, false, None);
        // Hits can no longer be guaranteed (unmodeled write traffic may
        // have evicted anything), but nothing spuriously becomes a miss
        // either: the blocks may be resident.
        assert!(chmc.iter().all(|&c| c == Chmc::NotClassified));
    }

    #[test]
    fn am_blocked_suppresses_always_miss_for_written_blocks() {
        let accesses = seq(&[0, 1, 0, 1]);
        let blocked: BTreeSet<u64> = [0u64].into_iter().collect();
        let chmc = classify_unit(1, 1, &accesses, true, Some(&blocked));
        // Block 0 may be refreshed by write traffic: not always-miss.
        assert_eq!(chmc[0], Chmc::NotClassified);
        assert_eq!(chmc[2], Chmc::NotClassified);
        // Block 1 is unaffected.
        assert_eq!(chmc[1], Chmc::AlwaysMiss);
        assert_eq!(chmc[3], Chmc::AlwaysMiss);
    }

    #[test]
    fn maybe_accesses_cannot_create_hits_or_misses() {
        // A `U` access (filtered uncertainly by the upper level) must be
        // treated conservatively on both sides.
        let mut accesses = seq(&[0, 0]);
        accesses[0].definite = false;
        accesses[1].definite = false;
        let chmc = classify_unit(1, 2, &accesses, true, None);
        // Neither access can be an always-hit (the first may not have
        // happened, so the must state never gains the block) nor an
        // always-miss (it may have happened, so the may state has it).
        // The set's footprint fits, so both demote to first-miss.
        assert_eq!(chmc[0], Chmc::FirstMiss);
        assert_eq!(chmc[1], Chmc::FirstMiss);
    }

    #[test]
    fn distinct_sets_do_not_interfere() {
        // 2 sets × 1 way: even/odd blocks land in different sets.
        let accesses = seq(&[0, 1, 0, 1]);
        let chmc = classify_unit(2, 1, &accesses, true, None);
        assert_eq!(
            chmc,
            vec![
                Chmc::FirstMiss,
                Chmc::FirstMiss,
                Chmc::AlwaysHit,
                Chmc::AlwaysHit,
            ]
        );
    }
}
