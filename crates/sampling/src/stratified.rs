//! Stratified sampling over a repaired relation (§6, "Sampling methods").
//!
//! Uniform sampling under-represents the tuples the repairing algorithm
//! actually touched — precisely the ones worth a human's attention. The
//! paper stratifies `Repr` by how suspicious the originating tuple was:
//! stratum `P_i` holds the tuples whose pre-repair violation count
//! `vio(t)` (or, alternatively, repair cost `cost(t', t)`) reaches the
//! threshold `v_i`, and a share `ξ_i` of the total sample budget `k` is
//! drawn from each stratum, with larger shares for more suspicious strata
//! (`ξ_i ≤ ξ_{i+1}`).
//!
//! Two pragmatic adjustments to the paper's scheme:
//!
//! 1. **Budget redistribution.** When a stratum's population is smaller
//!    than its share of the budget, the spare budget flows to the other
//!    strata (most suspicious first) instead of being silently lost.
//! 2. **Estimator.** The paper prints
//!    `p̂ = (Σ e_i·s_i)/(Σ |P_i|·s_i)` with `s_i = |P_i|/(ξ_i·k)`; that
//!    denominator reduces to the population size only under proportional
//!    allocation, while the sampler is deliberately *non*-proportional. We
//!    use the standard unbiased stratified (Horvitz–Thompson) estimator
//!    `p̂ = Σ e_i · (|P_i|/n_i) / N`, which coincides with the paper's
//!    formula in the proportional case.

use cfd_prng::Rng;

use cfd_model::TupleId;

/// A stratification plan: thresholds on the suspicion score and the sample
/// share per stratum.
#[derive(Clone, Debug)]
pub struct StratifiedPlan {
    /// Ascending suspicion thresholds; a tuple with score `s` lands in the
    /// highest stratum whose threshold is `≤ s`. The first threshold must
    /// be 0 so every tuple has a stratum.
    pub thresholds: Vec<usize>,
    /// Sample share `ξ_i` per stratum; must sum to 1 and be non-decreasing.
    pub shares: Vec<f64>,
    /// Total sample budget `k`.
    pub k: usize,
}

impl StratifiedPlan {
    /// A default two-strata plan: untouched/low-suspicion tuples vs tuples
    /// with at least one violation, weighted 30/70.
    pub fn default_two_strata(k: usize) -> Self {
        StratifiedPlan {
            thresholds: vec![0, 1],
            shares: vec![0.3, 0.7],
            k,
        }
    }

    /// Validate the plan's invariants.
    pub fn validate(&self) -> Result<(), String> {
        if self.thresholds.is_empty() || self.thresholds.len() != self.shares.len() {
            return Err("thresholds and shares must be non-empty and aligned".to_string());
        }
        if self.thresholds[0] != 0 {
            return Err("first threshold must be 0 so every tuple has a stratum".to_string());
        }
        if self.thresholds.windows(2).any(|w| w[0] >= w[1]) {
            return Err("thresholds must be strictly ascending".to_string());
        }
        if self.shares.windows(2).any(|w| w[0] > w[1]) {
            return Err("shares must be non-decreasing (ξ_i ≤ ξ_{i+1})".to_string());
        }
        let total: f64 = self.shares.iter().sum();
        if (total - 1.0).abs() > 1e-9 {
            return Err(format!("shares must sum to 1, got {total}"));
        }
        if self.shares.iter().any(|s| *s < 0.0) {
            return Err("shares must be non-negative".to_string());
        }
        Ok(())
    }

    /// Index of the stratum a suspicion score falls into.
    pub fn stratum_of(&self, score: usize) -> usize {
        match self.thresholds.binary_search(&score) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        }
    }
}

/// One stratum of a drawn sample.
#[derive(Clone, Debug)]
pub struct Stratum {
    /// Stratum index `i`.
    pub index: usize,
    /// Population size `|P_i|`.
    pub population: usize,
    /// Sampled tuple ids.
    pub sample: Vec<TupleId>,
    /// Final draw count after budget redistribution.
    pub requested: usize,
}

/// A complete stratified sample.
#[derive(Clone, Debug)]
pub struct StratifiedSample {
    /// Per-stratum draws.
    pub strata: Vec<Stratum>,
    /// The plan that produced it.
    pub plan: StratifiedPlan,
    /// Total population size `N`.
    pub population: usize,
}

impl StratifiedSample {
    /// Draw a stratified sample. `scored` supplies `(tuple, suspicion)`
    /// pairs — typically `vio(t)` of the *pre-repair* tuple.
    pub fn draw<R: Rng>(
        scored: impl IntoIterator<Item = (TupleId, usize)>,
        plan: StratifiedPlan,
        rng: &mut R,
    ) -> Result<Self, String> {
        plan.validate()?;
        let m = plan.thresholds.len();
        // Bucket the population. O(N) ids of memory — the certification
        // session already holds the relation, so this is proportional.
        let mut buckets: Vec<Vec<TupleId>> = vec![Vec::new(); m];
        for (id, score) in scored {
            buckets[plan.stratum_of(score)].push(id);
        }
        let population: usize = buckets.iter().map(Vec::len).sum();
        // Initial allocation by share, capped by population.
        let mut take: Vec<usize> = plan
            .shares
            .iter()
            .zip(&buckets)
            .map(|(share, b)| ((share * plan.k as f64).round() as usize).min(b.len()))
            .collect();
        // Redistribute spare budget, most suspicious strata first; trim
        // rounding overshoot (e.g. shares 0.5/0.5 at k = 5 round to
        // 3 + 3) from the least suspicious strata so the draw never
        // exceeds k.
        let budget = plan.k.min(population);
        let mut assigned: usize = take.iter().sum();
        while assigned < budget {
            let mut progressed = false;
            for i in (0..m).rev() {
                if assigned == budget {
                    break;
                }
                if take[i] < buckets[i].len() {
                    take[i] += 1;
                    assigned += 1;
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        for take_i in take.iter_mut().take(m) {
            if assigned <= budget {
                break;
            }
            let trim = (*take_i).min(assigned - budget);
            *take_i -= trim;
            assigned -= trim;
        }
        // Partial Fisher–Yates per bucket: uniform without replacement.
        let strata = buckets
            .into_iter()
            .enumerate()
            .map(|(index, mut bucket)| {
                let n = take[index];
                for i in 0..n {
                    let j = rng.gen_range(i..bucket.len());
                    bucket.swap(i, j);
                }
                let population = bucket.len();
                bucket.truncate(n);
                Stratum {
                    index,
                    population,
                    requested: n,
                    sample: bucket,
                }
            })
            .collect();
        Ok(StratifiedSample {
            strata,
            plan,
            population,
        })
    }

    /// Every sampled tuple id.
    pub fn all_ids(&self) -> impl Iterator<Item = TupleId> + '_ {
        self.strata.iter().flat_map(|s| s.sample.iter().copied())
    }

    /// Total drawn sample size.
    pub fn size(&self) -> usize {
        self.strata.iter().map(|s| s.sample.len()).sum()
    }

    /// Unbiased stratified estimate of the inaccuracy rate:
    /// `p̂ = Σ_i e_i · (|P_i| / n_i) / N`, given the number of inaccurate
    /// tuples `e_i` found in each stratum's sample. Strata with no drawn
    /// tuples contribute nothing.
    pub fn weighted_inaccuracy(&self, errors_per_stratum: &[usize]) -> f64 {
        assert_eq!(errors_per_stratum.len(), self.strata.len());
        if self.population == 0 {
            return 0.0;
        }
        let mut estimated_errors = 0.0;
        for (s, &e) in self.strata.iter().zip(errors_per_stratum) {
            if s.sample.is_empty() {
                continue;
            }
            let scale = s.population as f64 / s.sample.len() as f64;
            estimated_errors += e as f64 * scale;
        }
        estimated_errors / self.population as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_prng::ChaCha8Rng;
    use cfd_prng::SeedableRng;

    fn scored(n_clean: usize, n_dirty: usize) -> Vec<(TupleId, usize)> {
        (0..n_clean)
            .map(|i| (TupleId(i as u32), 0))
            .chain((0..n_dirty).map(|i| (TupleId((n_clean + i) as u32), 1 + (i % 3))))
            .collect()
    }

    #[test]
    fn plan_validation() {
        assert!(StratifiedPlan::default_two_strata(50).validate().is_ok());
        let bad = StratifiedPlan {
            thresholds: vec![0, 1],
            shares: vec![0.8, 0.2], // decreasing: suspicious strata must get more
            k: 10,
        };
        assert!(bad.validate().is_err());
        let bad2 = StratifiedPlan {
            thresholds: vec![1, 2],
            shares: vec![0.5, 0.5],
            k: 10,
        };
        assert!(bad2.validate().is_err(), "first threshold must be 0");
        let bad3 = StratifiedPlan {
            thresholds: vec![0, 1],
            shares: vec![0.5, 0.6],
            k: 10,
        };
        assert!(bad3.validate().is_err(), "shares must sum to 1");
    }

    #[test]
    fn stratum_of_picks_highest_threshold() {
        let plan = StratifiedPlan {
            thresholds: vec![0, 1, 5],
            shares: vec![0.2, 0.3, 0.5],
            k: 10,
        };
        assert_eq!(plan.stratum_of(0), 0);
        assert_eq!(plan.stratum_of(1), 1);
        assert_eq!(plan.stratum_of(4), 1);
        assert_eq!(plan.stratum_of(5), 2);
        assert_eq!(plan.stratum_of(99), 2);
    }

    #[test]
    fn draw_respects_shares() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let sample = StratifiedSample::draw(
            scored(900, 100),
            StratifiedPlan::default_two_strata(50),
            &mut rng,
        )
        .unwrap();
        assert_eq!(sample.strata[0].sample.len(), 15);
        assert_eq!(sample.strata[1].sample.len(), 35);
        assert_eq!(sample.strata[0].population, 900);
        assert_eq!(sample.strata[1].population, 100);
        // dirty tuples are ids ≥ 900
        for id in &sample.strata[1].sample {
            assert!(id.0 >= 900);
        }
        // no duplicates within a stratum
        let mut ids: Vec<_> = sample.all_ids().collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 50);
    }

    #[test]
    fn small_stratum_budget_is_redistributed() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let sample = StratifiedSample::draw(
            scored(995, 5),
            StratifiedPlan::default_two_strata(50),
            &mut rng,
        )
        .unwrap();
        // the dirty stratum has only 5 tuples; the clean stratum absorbs
        // the remaining budget so the full 50 are still inspected
        assert_eq!(sample.strata[1].sample.len(), 5);
        assert_eq!(sample.strata[0].sample.len(), 45);
        assert_eq!(sample.size(), 50);
    }

    #[test]
    fn empty_stratum_handled() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let sample = StratifiedSample::draw(
            scored(100, 0),
            StratifiedPlan::default_two_strata(30),
            &mut rng,
        )
        .unwrap();
        assert_eq!(sample.strata[1].sample.len(), 0);
        assert_eq!(sample.strata[0].sample.len(), 30);
        assert_eq!(sample.weighted_inaccuracy(&[0, 0]), 0.0);
    }

    #[test]
    fn budget_larger_than_population() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let sample = StratifiedSample::draw(
            scored(8, 2),
            StratifiedPlan::default_two_strata(50),
            &mut rng,
        )
        .unwrap();
        assert_eq!(sample.size(), 10); // everything inspected, no repeats
    }

    #[test]
    fn weighted_inaccuracy_is_unbiased_estimate() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let sample = StratifiedSample::draw(
            scored(900, 100),
            StratifiedPlan::default_two_strata(50),
            &mut rng,
        )
        .unwrap();
        // no errors anywhere → 0
        assert_eq!(sample.weighted_inaccuracy(&[0, 0]), 0.0);
        // every sampled dirty tuple wrong: e1 = 35 of n1 = 35 → the whole
        // dirty stratum extrapolates to 100 errors → p̂ = 100/1000 = 0.1
        let p = sample.weighted_inaccuracy(&[0, 35]);
        assert!((p - 0.1).abs() < 1e-12);
        // half the clean samples wrong too: + (7.5/15 extrapolates to 450)
        let p2 = sample.weighted_inaccuracy(&[15, 35]);
        assert!((p2 - (900.0 + 100.0) / 1000.0).abs() < 1e-12);
    }

    #[test]
    fn deterministic_under_seed() {
        let mut rng1 = ChaCha8Rng::seed_from_u64(9);
        let mut rng2 = ChaCha8Rng::seed_from_u64(9);
        let a = StratifiedSample::draw(
            scored(100, 10),
            StratifiedPlan::default_two_strata(20),
            &mut rng1,
        )
        .unwrap();
        let b = StratifiedSample::draw(
            scored(100, 10),
            StratifiedPlan::default_two_strata(20),
            &mut rng2,
        )
        .unwrap();
        assert_eq!(
            a.all_ids().collect::<Vec<_>>(),
            b.all_ids().collect::<Vec<_>>()
        );
    }
}
