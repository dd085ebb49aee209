//! The certification session: the sampling module of Fig. 3.
//!
//! `SAMPLING` draws a stratified sample of the repair, lets an [`Oracle`]
//! (the paper's domain expert) mark inaccurate tuples, computes the
//! weighted inaccuracy rate `p̂`, and accepts the repair iff the one-sided
//! z-test certifies `p̂ ≤ ε` at confidence δ. On rejection, the oracle's
//! corrections are returned so the caller can fold them into the database
//! and CFD set and re-run the repair — the feedback loop of §6.
//!
//! In the experiments the expert is simulated by comparing against the
//! known ground truth `Dopt` ("we could easily find out the inaccuracy
//! rate … by comparing the clean data and the repair", §7.1); that
//! simulation is [`GroundTruthOracle`].

use cfd_prng::Rng;

use cfd_model::{Relation, TupleId, Value};

use crate::stats::z_test_accept;
use crate::stratified::{StratifiedPlan, StratifiedSample};

/// The domain expert interface.
///
/// The exchange is value-level, not id-level: the repair under
/// certification and the oracle's reference data generally live in
/// *different* [`ValuePool`](cfd_model::ValuePool)s (each loaded dataset
/// gets its own), so raw [`ValueId`](cfd_model::ValueId)s are not
/// comparable across them. Each side resolves through its own pool and
/// the boundary carries self-contained [`Value`]s.
pub trait Oracle {
    /// Inspect a repaired tuple's values; return `None` when it is
    /// accurate, or the corrected values otherwise.
    fn inspect(&mut self, id: TupleId, repaired: &[Value]) -> Option<Vec<Value>>;
}

/// An oracle that knows the ground truth `Dopt` and flags any deviation.
pub struct GroundTruthOracle<'a> {
    dopt: &'a Relation,
}

impl<'a> GroundTruthOracle<'a> {
    /// Wrap a ground-truth relation.
    pub fn new(dopt: &'a Relation) -> Self {
        GroundTruthOracle { dopt }
    }
}

impl Oracle for GroundTruthOracle<'_> {
    fn inspect(&mut self, id: TupleId, repaired: &[Value]) -> Option<Vec<Value>> {
        let truth = self.dopt.tuple(id)?.values();
        if truth == repaired {
            None
        } else {
            Some(truth)
        }
    }
}

/// Configuration of one certification round.
#[derive(Clone, Debug)]
pub struct SamplingConfig {
    /// Tolerated inaccuracy rate ε.
    pub epsilon: f64,
    /// Confidence level δ.
    pub delta: f64,
    /// Stratification plan (thresholds, shares, sample budget k).
    pub plan: StratifiedPlan,
}

impl SamplingConfig {
    /// A sensible default: ε, δ with a two-strata plan of size `k`.
    pub fn new(epsilon: f64, delta: f64, k: usize) -> Self {
        SamplingConfig {
            epsilon,
            delta,
            plan: StratifiedPlan::default_two_strata(k),
        }
    }
}

/// Outcome of one certification round.
#[derive(Clone, Debug)]
pub struct CertifyOutcome {
    /// Accepted: the z-test certified `p̂ ≤ ε` at confidence δ.
    pub accepted: bool,
    /// Weighted sample inaccuracy rate `p̂`.
    pub p_hat: f64,
    /// Total tuples inspected by the oracle.
    pub inspected: usize,
    /// Inaccurate tuples found, with the oracle's corrected values.
    pub corrections: Vec<(TupleId, Vec<Value>)>,
    /// Per-stratum error counts `e_i`.
    pub errors_per_stratum: Vec<usize>,
    /// The drawn sample (for audit).
    pub sample: StratifiedSample,
}

/// Run one certification round over `repair`.
///
/// `suspicion` scores each tuple (typically the pre-repair `vio(t)`; the
/// paper also suggests `cost(t', t)` as an alternative). The oracle only
/// sees the sampled tuples — that is the whole point.
pub fn certify<R: Rng>(
    repair: &Relation,
    suspicion: impl Fn(TupleId) -> usize,
    config: &SamplingConfig,
    oracle: &mut dyn Oracle,
    rng: &mut R,
) -> Result<CertifyOutcome, String> {
    let scored = repair.ids().map(|id| (id, suspicion(id)));
    let sample = StratifiedSample::draw(scored, config.plan.clone(), rng)?;
    let mut errors_per_stratum = vec![0usize; sample.strata.len()];
    let mut corrections = Vec::new();
    let mut inspected = 0usize;
    for stratum in &sample.strata {
        for &id in &stratum.sample {
            let values = repair
                .tuple(id)
                .ok_or_else(|| format!("sampled dead tuple {id}"))?
                .values();
            inspected += 1;
            if let Some(fixed) = oracle.inspect(id, &values) {
                errors_per_stratum[stratum.index] += 1;
                corrections.push((id, fixed));
            }
        }
    }
    let p_hat = sample.weighted_inaccuracy(&errors_per_stratum);
    let k = sample.size().max(1);
    let accepted = z_test_accept(p_hat, config.epsilon, k, config.delta);
    Ok(CertifyOutcome {
        accepted,
        p_hat,
        inspected,
        corrections,
        errors_per_stratum,
        sample,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_model::{Schema, Tuple, Value, ValuePool};
    use cfd_prng::ChaCha8Rng;
    use cfd_prng::SeedableRng;

    fn relation(n: usize) -> Relation {
        let schema = Schema::new("r", &["a", "b"]).unwrap();
        let mut rel = Relation::new_in(schema, ValuePool::new_handle());
        for i in 0..n {
            rel.insert(Tuple::new_in(
                [format!("k{i}"), format!("v{i}")],
                rel.pool(),
            ))
            .unwrap();
        }
        rel
    }

    /// Corrupt `ids` in a copy of `rel`.
    fn corrupt(rel: &Relation, ids: &[u32]) -> Relation {
        let mut bad = rel.clone();
        for id in ids {
            bad.set_value(TupleId(*id), cfd_model::AttrId(1), Value::str("WRONG"))
                .unwrap();
        }
        bad
    }

    #[test]
    fn accurate_repair_is_accepted() {
        let dopt = relation(1000);
        let repair = dopt.clone();
        let mut oracle = GroundTruthOracle::new(&dopt);
        let config = SamplingConfig::new(0.05, 0.95, 100);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let out = certify(&repair, |_| 0, &config, &mut oracle, &mut rng).unwrap();
        assert!(out.accepted);
        assert_eq!(out.p_hat, 0.0);
        assert!(out.corrections.is_empty());
        assert_eq!(out.inspected, out.sample.size());
    }

    #[test]
    fn grossly_inaccurate_repair_is_rejected() {
        let dopt = relation(1000);
        // 30% of tuples wrong, all in the "suspicious" stratum
        let bad_ids: Vec<u32> = (0..300).collect();
        let repair = corrupt(&dopt, &bad_ids);
        let mut oracle = GroundTruthOracle::new(&dopt);
        let config = SamplingConfig::new(0.05, 0.95, 100);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let suspicion = |id: TupleId| if id.0 < 300 { 1 } else { 0 };
        let out = certify(&repair, suspicion, &config, &mut oracle, &mut rng).unwrap();
        assert!(!out.accepted);
        assert!(out.p_hat > 0.05);
        assert!(!out.corrections.is_empty());
    }

    #[test]
    fn corrections_come_from_the_oracle() {
        let dopt = relation(100);
        let repair = corrupt(&dopt, &[7]);
        let mut oracle = GroundTruthOracle::new(&dopt);
        // big sample: tuple 7 is certainly inspected (suspicion routes it
        // to the dirty stratum which is tiny)
        let config = SamplingConfig::new(0.05, 0.95, 100);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let suspicion = |id: TupleId| usize::from(id.0 == 7);
        let out = certify(&repair, suspicion, &config, &mut oracle, &mut rng).unwrap();
        let (id, fixed) = &out.corrections[0];
        assert_eq!(*id, TupleId(7));
        assert_eq!(fixed[1], Value::str("v7"));
    }

    #[test]
    fn feedback_loop_converges() {
        // reject → apply corrections → certify again → accept
        let dopt = relation(500);
        let bad_ids: Vec<u32> = (0..100).collect();
        let mut repair = corrupt(&dopt, &bad_ids);
        let config = SamplingConfig::new(0.05, 0.90, 120);
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let suspicion = |id: TupleId| if id.0 < 100 { 1 } else { 0 };
        let mut rounds = 0;
        loop {
            rounds += 1;
            let mut oracle = GroundTruthOracle::new(&dopt);
            let out = certify(&repair, suspicion, &config, &mut oracle, &mut rng).unwrap();
            if out.accepted {
                break;
            }
            assert!(rounds < 20, "loop failed to converge");
            for (id, fixed) in out.corrections {
                let attrs: Vec<_> = repair.schema().attr_ids().collect();
                for (a, v) in attrs.into_iter().zip(fixed) {
                    repair.set_value(id, a, v).unwrap();
                }
            }
        }
        assert!(rounds >= 2, "first round should reject at 20% noise");
    }

    #[test]
    fn oracle_compares_across_distinct_pools() {
        // The repair and the ground truth are loaded independently, so
        // they live in different pools and share no ValueIds; the
        // value-level oracle boundary must still line them up.
        use cfd_model::ValuePool;
        let dopt = relation(50);
        let pool = ValuePool::new_handle();
        let mut repair = Relation::new_in(Schema::new("r", &["a", "b"]).unwrap(), pool.clone());
        for i in 0..50 {
            let row = [format!("k{i}"), format!("v{i}")];
            repair
                .insert(Tuple::from_ids(
                    row.iter().map(|s| pool.intern(&Value::str(s))).collect(),
                ))
                .unwrap();
        }
        repair
            .set_value(TupleId(7), cfd_model::AttrId(1), Value::str("WRONG"))
            .unwrap();
        let mut oracle = GroundTruthOracle::new(&dopt);
        let config = SamplingConfig::new(0.05, 0.95, 50);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let suspicion = |id: TupleId| usize::from(id.0 == 7);
        let out = certify(&repair, suspicion, &config, &mut oracle, &mut rng).unwrap();
        assert_eq!(out.corrections.len(), 1, "only the corrupted tuple differs");
        assert_eq!(out.corrections[0].0, TupleId(7));
        assert_eq!(out.corrections[0].1[1], Value::str("v7"));
    }

    #[test]
    fn ground_truth_oracle_passes_exact_matches() {
        let dopt = relation(10);
        let mut oracle = GroundTruthOracle::new(&dopt);
        let t = dopt.tuple(TupleId(3)).unwrap().values();
        assert!(oracle.inspect(TupleId(3), &t).is_none());
    }
}
