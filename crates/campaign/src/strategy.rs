//! Pluggable search strategies, as adaptive batch schedulers.
//!
//! A strategy decides *which* fault points of the space to explore and in
//! *what order* — but it no longer commits to a full plan up front. The
//! engine repeatedly asks for the next **batch** of fault points (indices
//! into [`FaultSpace::points`]), drains that batch on the worker pool, and
//! feeds the completed [`RunRecord`](crate::engine::RunRecord)s back through
//! the [`CampaignHistory`] before asking again. Static strategies simply
//! emit their whole ordering in one batch; adaptive strategies (see
//! [`CoverageAdaptive`](crate::adaptive::CoverageAdaptive)) reorder or prune
//! the remainder between batches based on what the campaign has observed.
//!
//! The engine guarantees each fault point is dispatched at most once per
//! run: points already dispatched are filtered out of every batch, and an
//! empty (post-filter) batch ends the campaign. A strategy may therefore
//! re-emit its full ordering on every call and rely on the engine to keep
//! only the new points — the pattern the single-batch strategies below use.

use lfi_analyzer::CallSiteClass;
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::history::CampaignHistory;
use crate::space::FaultSpace;

/// A fault-space search strategy: a scheduler that emits fault points in
/// batches and may react to completed runs between batches.
pub trait Strategy: Send + Sync {
    /// Short name used in reports.
    fn name(&self) -> &str;

    /// Plan identity used to tag persisted campaign state: two strategy
    /// values with the same fingerprint must schedule the same units over
    /// the same space given the same history. Strategies with parameters
    /// that affect scheduling (sample size, sampling seed, batch size, ...)
    /// must fold them in here. The engine combines this fingerprint with a
    /// plan hash of the space and workload suites to form the state tag.
    fn fingerprint(&self) -> String {
        self.name().to_string()
    }

    /// Emit the next batch of fault points to explore, as indices into
    /// `space.points`. `history` carries every completed record (including
    /// ones resumed from a checkpoint) and which points have already been
    /// dispatched this run; the engine filters re-emitted points out, and
    /// stops when a batch is empty after filtering.
    fn next_batch(&self, space: &FaultSpace, history: &CampaignHistory) -> Vec<usize>;
}

/// Explore every fault point, in enumeration order, as one batch.
#[derive(Debug, Clone, Copy, Default)]
pub struct Exhaustive;

impl Strategy for Exhaustive {
    fn name(&self) -> &str {
        "exhaustive"
    }

    fn next_batch(&self, space: &FaultSpace, _history: &CampaignHistory) -> Vec<usize> {
        (0..space.len()).collect()
    }
}

/// Explore a uniform random sample of the fault space, as one batch.
/// Sampling is a seed-deterministic Fisher–Yates shuffle truncated to
/// `count` points, so the same seed always yields the same schedule.
#[derive(Debug, Clone, Copy)]
pub struct RandomSample {
    /// Number of fault points to sample (clamped to the space size).
    pub count: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Strategy for RandomSample {
    fn name(&self) -> &str {
        "random"
    }

    fn fingerprint(&self) -> String {
        format!("random(count={},seed={})", self.count, self.seed)
    }

    fn next_batch(&self, space: &FaultSpace, _history: &CampaignHistory) -> Vec<usize> {
        let mut indices: Vec<usize> = (0..space.len()).collect();
        let mut rng = StdRng::seed_from_u64(self.seed);
        // Partial Fisher–Yates: position i receives a uniform draw from the
        // not-yet-placed suffix.
        let take = self.count.min(indices.len());
        for i in 0..take {
            let j = rng.gen_range(i..indices.len());
            indices.swap(i, j);
        }
        indices.truncate(take);
        indices
    }
}

/// The paper's accuracy insight as a search strategy: prune fault points
/// whose call sites the baseline suite never reaches (they cannot inject),
/// and explore the remaining points in order of how likely an injection is
/// to expose a bug — analyzer-flagged *unchecked* sites first, partially
/// checked next, unclassified sites after them, and fully checked sites
/// last (still explored: recovery code behind a check can itself be buggy).
#[derive(Debug, Clone, Copy, Default)]
pub struct InjectionGuided;

/// Priority rank of a fault point (lower explores earlier). Interprocedural
/// verdicts refine the per-site classification: a point whose error provably
/// escapes unhandled ranks with the unchecked sites even if the local check
/// pattern looked partial, and a statically demoted point sinks below every
/// checked site — explored dead last, never dropped.
pub(crate) fn rank(point: &crate::space::FaultPoint) -> u8 {
    if point.demoted {
        return 4;
    }
    if point.verdict.is_some_and(|v| !v.is_handled()) {
        return 0;
    }
    match point.class {
        Some(CallSiteClass::Unchecked) => 0,
        Some(CallSiteClass::PartiallyChecked) => 1,
        None => 2,
        Some(CallSiteClass::Checked) => 3,
    }
}

/// The guided ordering over a space: unreached points pruned, the rest
/// sorted by fault-point rank. Shared by [`InjectionGuided`] and the
/// adaptive scheduler that starts from it.
pub(crate) fn guided_order(space: &FaultSpace) -> Vec<usize> {
    let mut indices: Vec<usize> = (0..space.len())
        .filter(|&i| space.points[i].reached != Some(false))
        .collect();
    indices.sort_by_key(|&i| (rank(&space.points[i]), i));
    indices
}

impl Strategy for InjectionGuided {
    fn name(&self) -> &str {
        "guided"
    }

    fn next_batch(&self, space: &FaultSpace, _history: &CampaignHistory) -> Vec<usize> {
        guided_order(space)
    }
}

#[cfg(test)]
mod tests {
    use crate::space::FaultPoint;

    use super::*;

    fn point(function: &str, offset: u64) -> FaultPoint {
        FaultPoint {
            target: "demo".into(),
            function: function.into(),
            offset,
            retval: -1,
            ..FaultPoint::default()
        }
    }

    fn space_of(points: Vec<FaultPoint>) -> FaultSpace {
        FaultSpace { points }
    }

    fn empty_history(space: &FaultSpace) -> CampaignHistory {
        CampaignHistory::for_space_size(space.len())
    }

    #[test]
    fn exhaustive_selects_everything_in_order() {
        let space = space_of((0..5).map(|i| point("read", i * 4)).collect());
        let history = empty_history(&space);
        assert_eq!(Exhaustive.next_batch(&space, &history), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn random_sample_is_deterministic_under_a_fixed_seed() {
        let space = space_of((0..50).map(|i| point("read", i * 4)).collect());
        let history = empty_history(&space);
        let a = RandomSample {
            count: 10,
            seed: 42,
        }
        .next_batch(&space, &history);
        let b = RandomSample {
            count: 10,
            seed: 42,
        }
        .next_batch(&space, &history);
        assert_eq!(a, b, "same seed, same schedule");
        assert_eq!(a.len(), 10);
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 10, "sampling is without replacement");

        let c = RandomSample {
            count: 10,
            seed: 43,
        }
        .next_batch(&space, &history);
        assert_ne!(a, c, "different seeds explore differently");
        // Plan-affecting parameters are part of the state fingerprint, so a
        // resumed state from a differently-parameterized sample is discarded
        // rather than silently misapplied.
        let fp = |count, seed| RandomSample { count, seed }.fingerprint();
        assert_ne!(fp(10, 42), fp(10, 43));
        assert_ne!(fp(10, 42), fp(20, 42));

        // Oversized requests clamp to the space.
        let all = RandomSample { count: 99, seed: 1 }.next_batch(&space, &history);
        assert_eq!(all.len(), 50);
    }

    #[test]
    fn injection_guided_prunes_unreached_and_prioritizes_unchecked() {
        let mut unreached = point("read", 0);
        unreached.reached = Some(false);
        let mut checked = point("read", 4);
        checked.class = Some(CallSiteClass::Checked);
        checked.reached = Some(true);
        let mut unchecked = point("read", 8);
        unchecked.class = Some(CallSiteClass::Unchecked);
        unchecked.reached = Some(true);
        let mut partial = point("read", 12);
        partial.class = Some(CallSiteClass::PartiallyChecked);
        partial.reached = Some(true);
        let unknown = point("read", 16); // no annotations at all

        let space = space_of(vec![unreached, checked, unchecked, partial, unknown]);
        let history = empty_history(&space);
        let batch = InjectionGuided.next_batch(&space, &history);
        // The unreached point (index 0) is pruned; the rest are ordered
        // unchecked, partial, unknown, checked.
        assert_eq!(batch, vec![2, 3, 4, 1]);
        assert!(batch.len() < space.len(), "guided explores fewer points");
    }

    #[test]
    fn verdicts_and_demotion_reorder_the_guided_schedule() {
        use lfi_analyzer::PropagationVerdict;

        // A partially checked site whose error provably escapes unhandled
        // jumps to the front; a demoted point sinks below checked sites but
        // is still scheduled (pruning never drops a unit).
        let mut escaping = point("read", 0);
        escaping.class = Some(CallSiteClass::PartiallyChecked);
        escaping.verdict = Some(PropagationVerdict::PropagatedUnchecked);
        let mut unchecked = point("read", 4);
        unchecked.class = Some(CallSiteClass::Unchecked);
        let mut checked = point("read", 8);
        checked.class = Some(CallSiteClass::Checked);
        checked.verdict = Some(PropagationVerdict::HandledLocally);
        let mut demoted = point("read", 12);
        demoted.class = Some(CallSiteClass::Unchecked);
        demoted.verdict = Some(PropagationVerdict::PropagatedChecked);
        demoted.demoted = true;

        let space = space_of(vec![demoted, checked, escaping, unchecked]);
        let history = empty_history(&space);
        let batch = InjectionGuided.next_batch(&space, &history);
        assert_eq!(batch, vec![2, 3, 1, 0]);
        assert_eq!(batch.len(), space.len(), "demotion reorders, never drops");
    }
}
