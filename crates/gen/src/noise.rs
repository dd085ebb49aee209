//! Noise injection (§7.1).
//!
//! "We then introduced noise to attributes in Dopt such that each 'dirty'
//! tuple violates at least one or more CFDs. To add noise to an attribute,
//! we randomly changed it either to a new value which is close in terms of
//! DL metric (distance between 1 and 6) or to an existing value taken from
//! another tuple."
//!
//! Noise is stratified by the kind of violation it produces, which is what
//! the Fig. 14/15 sweeps vary:
//!
//! * **constant noise** corrupts an attribute pinned by a constant pattern
//!   row keyed on an *unchanged* attribute (CT/ST via the zip row of ϕ2,
//!   AC via ϕ5, CTY via ϕ6, VAT via ϕ7, zip by swapping to another city's
//!   zip) — a single tuple then violates a constant CFD;
//! * **variable noise** corrupts an attribute only constrained by embedded
//!   FDs (STR under ϕ1/ϕ4, name/PR under ϕ3) on a tuple that has a
//!   *partner* (same customer resp. same item), producing a two-tuple
//!   conflict.
//!
//! Weights follow §7.1 exactly: dirty attributes draw `w ∈ [0, a]`, clean
//! attributes `w ∈ [b, 1]`, default `a = 0.6`, `b = 0.5`.

use cfd_prng::ChaCha8Rng;
use cfd_prng::SliceRandom;
use cfd_prng::{Rng, SeedableRng};

use cfd_model::hash::{FixedMap, FixedSet};
use cfd_model::{AttrId, Relation, TupleId, Value, ValuePool};

use crate::order_schema::{order_attrs, OrderAttrs};
use crate::world::World;

/// Noise parameters.
#[derive(Clone, Debug)]
pub struct NoiseConfig {
    /// Noise rate ρ: fraction of tuples corrupted.
    pub rate: f64,
    /// RNG seed.
    pub seed: u64,
    /// Fraction of dirty tuples whose corruption violates *constant* CFDs
    /// (the rest violate variable CFDs) — the Fig. 14/15 knob.
    pub constant_share: f64,
    /// Probability of a DL-close typo (otherwise: swap in an existing
    /// value from another tuple).
    pub typo_prob: f64,
    /// Assign §7.1 weights (`a`/`b` bands). When false, all weights stay 1
    /// — the "no weight information" mode the paper also evaluates.
    pub assign_weights: bool,
    /// Upper band limit `a` for dirty attributes.
    pub weight_dirty_max: f64,
    /// Lower band limit `b` for clean attributes.
    pub weight_clean_min: f64,
}

impl Default for NoiseConfig {
    fn default() -> Self {
        NoiseConfig {
            rate: 0.05,
            seed: 1,
            constant_share: 0.5,
            typo_prob: 0.5,
            assign_weights: true,
            weight_dirty_max: 0.6,
            weight_clean_min: 0.5,
        }
    }
}

/// The dirty database plus ground-truth bookkeeping.
#[derive(Clone, Debug)]
pub struct NoiseOutcome {
    /// The dirty database `D` (ids aligned with `Dopt`), on a fresh pool
    /// whose use counts are exactly its cells' occurrences — the counts
    /// `FINDV`'s frequency tie-break reads, as a CLI load of `D` would
    /// leave them. Bind Σ into that pool before repairing `D`
    /// ([`Workload::sigma_for`](crate::Workload::sigma_for)).
    pub dirty: Relation,
    /// The corrupted cells.
    pub corrupted: Vec<(TupleId, AttrId)>,
    /// Dirty tuples that violate constant CFDs.
    pub constant_noise: usize,
    /// Dirty tuples that violate variable CFDs.
    pub variable_noise: usize,
}

/// Apply a 1–3 edit typo (substitution / insertion / deletion / adjacent
/// transposition), guaranteed different from the input.
fn typo<R: Rng>(rng: &mut R, s: &str) -> String {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";
    let mut chars: Vec<char> = s.chars().collect();
    let edits = rng.gen_range(1..=3);
    for _ in 0..edits {
        if chars.is_empty() {
            chars.push(ALPHABET[rng.gen_range(0..ALPHABET.len())] as char);
            continue;
        }
        match rng.gen_range(0..4) {
            0 => {
                // substitute
                let i = rng.gen_range(0..chars.len());
                chars[i] = ALPHABET[rng.gen_range(0..ALPHABET.len())] as char;
            }
            1 => {
                // insert
                let i = rng.gen_range(0..=chars.len());
                chars.insert(i, ALPHABET[rng.gen_range(0..ALPHABET.len())] as char);
            }
            2 => {
                // delete (keep non-empty)
                if chars.len() > 1 {
                    let i = rng.gen_range(0..chars.len());
                    chars.remove(i);
                }
            }
            _ => {
                // transpose
                if chars.len() > 1 {
                    let i = rng.gen_range(0..chars.len() - 1);
                    chars.swap(i, i + 1);
                }
            }
        }
    }
    let out: String = chars.into_iter().collect();
    if out == s {
        format!("{out}x")
    } else {
        out
    }
}

/// Pick a corrupted value for `attr` of `current`, avoiding `forbidden`.
fn corrupt_value<R: Rng>(
    rng: &mut R,
    cfg: &NoiseConfig,
    current: &str,
    pool: &[String],
    forbidden: &FixedSet<String>,
) -> String {
    for _ in 0..16 {
        let candidate = if rng.gen_bool(cfg.typo_prob) || pool.is_empty() {
            typo(rng, current)
        } else {
            pool[rng.gen_range(0..pool.len())].clone()
        };
        if candidate != current && !forbidden.contains(&candidate) {
            return candidate;
        }
    }
    // Deterministic escape hatch: append until fresh.
    let mut out = format!("{current}z");
    while forbidden.contains(&out) {
        out.push('z');
    }
    out
}

struct Plan {
    attr: AttrId,
    value: String,
    kind: NoiseKind,
}

#[derive(Clone, Copy, PartialEq)]
enum NoiseKind {
    Constant,
    Variable,
}

/// Inject noise into a copy of `dopt`, re-interned into a fresh pool
/// (see [`NoiseOutcome::dirty`]).
pub fn inject(dopt: &Relation, world: &World, cfg: &NoiseConfig) -> NoiseOutcome {
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let attrs: OrderAttrs = order_attrs(dopt.schema());
    let mut dirty = dopt.rekey_into(&ValuePool::new_handle());

    // Partner counts: variable noise needs a second order by the same
    // customer (STR) or of the same item (name/PR).
    let mut pn_count: FixedMap<Value, usize> = FixedMap::default();
    let mut id_count: FixedMap<Value, usize> = FixedMap::default();
    for (_, t) in dopt.iter() {
        *pn_count.entry(t.value(attrs.pn).clone()).or_insert(0) += 1;
        *id_count.entry(t.value(attrs.id).clone()).or_insert(0) += 1;
    }

    // Value pools for the "existing value from another tuple" flavour.
    let city_pool: Vec<String> = world.cities.iter().map(|c| c.name.clone()).collect();
    let state_pool: Vec<String> = world.cities.iter().map(|c| c.state.to_string()).collect();
    let ac_pool: Vec<String> = world.zips.iter().map(|z| z.area_code.clone()).collect();
    let street_pool: Vec<String> = world.streets.iter().map(|s| s.name.clone()).collect();
    let name_pool: Vec<String> = world.items.iter().map(|i| i.name.clone()).collect();
    let pr_pool: Vec<String> = world.items.iter().map(|i| i.price.clone()).collect();
    let cty_pool: Vec<String> = crate::world::COUNTRIES
        .iter()
        .map(|(c, _)| c.to_string())
        .collect();
    let vat_pool: Vec<String> = crate::world::COUNTRIES
        .iter()
        .map(|(_, v)| v.to_string())
        .collect();

    let n_dirty = ((dopt.len() as f64) * cfg.rate).round() as usize;
    let mut ids: Vec<TupleId> = dopt.ids().collect();
    ids.shuffle(&mut rng);

    let target_constant = ((n_dirty as f64) * cfg.constant_share).round() as usize;
    let mut planned: Vec<(TupleId, Plan)> = Vec::with_capacity(n_dirty);
    let mut constant_done = 0usize;
    let mut variable_done = 0usize;
    // Per-group corrupted values, so two partners are never corrupted to
    // the same value (which would silently cancel the conflict).
    let mut group_values: FixedMap<(u16, Value), FixedSet<String>> = FixedMap::default();

    for id in ids {
        if planned.len() >= n_dirty {
            break;
        }
        let t = dopt.tuple(id).expect("live");
        let want_constant = constant_done < target_constant;
        let has_str_partner = pn_count[&t.value(attrs.pn)] >= 2;
        let has_item_partner = id_count[&t.value(attrs.id)] >= 2;
        let make_variable = (!want_constant || variable_done >= n_dirty - target_constant)
            .then_some(())
            .is_some()
            && (has_str_partner || has_item_partner);
        let plan = if make_variable || (!want_constant && (has_str_partner || has_item_partner)) {
            // Variable noise: STR / name / PR.
            let mut options: Vec<u8> = Vec::new();
            if has_str_partner {
                options.push(0);
            }
            if has_item_partner {
                options.push(1);
                options.push(2);
            }
            let (attr, pool, group_key) = match options[rng.gen_range(0..options.len())] {
                0 => (
                    attrs.str_,
                    &street_pool,
                    (attrs.pn.0, t.value(attrs.pn).clone()),
                ),
                1 => (
                    attrs.name,
                    &name_pool,
                    (attrs.id.0, t.value(attrs.id).clone()),
                ),
                _ => (attrs.pr, &pr_pool, (attrs.id.0, t.value(attrs.id).clone())),
            };
            let current = t.value(attr).render().to_string();
            let forbidden = group_values.entry(group_key.clone()).or_default();
            forbidden.insert(current.clone());
            let value = corrupt_value(&mut rng, cfg, &current, pool, forbidden);
            group_values
                .get_mut(&group_key)
                .expect("just inserted")
                .insert(value.clone());
            variable_done += 1;
            Plan {
                attr,
                value,
                kind: NoiseKind::Variable,
            }
        } else {
            // Constant noise: CT / ST / AC / CTY / VAT / zip-swap.
            let choice = rng.gen_range(0..6);
            let empty = FixedSet::default();
            let (attr, value) = match choice {
                0 => {
                    let cur = t.value(attrs.ct).render().to_string();
                    (
                        attrs.ct,
                        corrupt_value(&mut rng, cfg, &cur, &city_pool, &empty),
                    )
                }
                1 => {
                    let cur = t.value(attrs.st).render().to_string();
                    (
                        attrs.st,
                        corrupt_value(&mut rng, cfg, &cur, &state_pool, &empty),
                    )
                }
                2 => {
                    let cur = t.value(attrs.ac).render().to_string();
                    (
                        attrs.ac,
                        corrupt_value(&mut rng, cfg, &cur, &ac_pool, &empty),
                    )
                }
                3 => {
                    let cur = t.value(attrs.cty).render().to_string();
                    (
                        attrs.cty,
                        corrupt_value(&mut rng, cfg, &cur, &cty_pool, &empty),
                    )
                }
                4 => {
                    let cur = t.value(attrs.vat).render().to_string();
                    (
                        attrs.vat,
                        corrupt_value(&mut rng, cfg, &cur, &vat_pool, &empty),
                    )
                }
                _ => {
                    // zip: swap to a zip of a *different city* so its ϕ2
                    // row contradicts the (unchanged) CT. A typo could
                    // miss every pattern row and slip through undetected.
                    let cur = t.value(attrs.zip).render().to_string();
                    let ct = t.value(attrs.ct).render().to_string();
                    let other = world
                        .zips
                        .iter()
                        .cycle()
                        .skip(rng.gen_range(0..world.zips.len()))
                        .find(|z| world.cities[z.city].name != ct)
                        .expect("more than one city exists");
                    let _ = cur;
                    (attrs.zip, other.zip.clone())
                }
            };
            constant_done += 1;
            Plan {
                attr,
                value,
                kind: NoiseKind::Constant,
            }
        };
        planned.push((id, plan));
    }

    let mut corrupted = Vec::with_capacity(planned.len());
    let (mut n_const, mut n_var) = (0usize, 0usize);
    for (id, plan) in &planned {
        dirty
            .set_value(*id, plan.attr, Value::str(&plan.value))
            .expect("live tuple");
        corrupted.push((*id, plan.attr));
        match plan.kind {
            NoiseKind::Constant => n_const += 1,
            NoiseKind::Variable => n_var += 1,
        }
    }

    // §7.1 weights: dirty cells draw from [0, a], clean cells from [b, 1].
    if cfg.assign_weights {
        let corrupted_set: FixedSet<(TupleId, AttrId)> = corrupted.iter().copied().collect();
        let all_attrs: Vec<AttrId> = dirty.schema().attr_ids().collect();
        let ids: Vec<TupleId> = dirty.ids().collect();
        for id in ids {
            for &a in &all_attrs {
                let w = if corrupted_set.contains(&(id, a)) {
                    rng.gen_range(0.0..cfg.weight_dirty_max)
                } else {
                    rng.gen_range(cfg.weight_clean_min..1.0)
                };
                dirty.set_weight(id, a, w).expect("live");
            }
        }
    }

    NoiseOutcome {
        dirty,
        corrupted,
        constant_noise: n_const,
        variable_noise: n_var,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate, GenConfig};
    use cfd_cfd::violation::detect;

    fn workload() -> crate::generator::Workload {
        generate(&GenConfig {
            n_tuples: 600,
            seed: 3,
            world: crate::world::WorldConfig {
                n_customers: 150,
                n_items: 100,
                ..Default::default()
            },
        })
    }

    #[test]
    fn noise_rate_respected() {
        let w = workload();
        let out = inject(
            &w.dopt,
            &w.world,
            &NoiseConfig {
                rate: 0.05,
                ..Default::default()
            },
        );
        assert_eq!(out.corrupted.len(), 30);
        assert_eq!(out.constant_noise + out.variable_noise, 30);
        // exactly the corrupted cells differ from Dopt
        assert_eq!(cfd_model::diff::dif(&w.dopt, &out.dirty), 30);
    }

    #[test]
    fn every_dirty_tuple_violates_something() {
        let w = workload();
        for share in [0.2, 0.5, 0.8] {
            let out = inject(
                &w.dopt,
                &w.world,
                &NoiseConfig {
                    rate: 0.08,
                    constant_share: share,
                    ..Default::default()
                },
            );
            let report = detect(&out.dirty, &w.sigma_for(&out.dirty));
            for (id, _) in &out.corrupted {
                assert!(
                    report.vio(*id) > 0,
                    "corrupted tuple {id} does not violate Σ (share {share})"
                );
            }
        }
    }

    #[test]
    fn constant_share_steers_noise_mix() {
        let w = workload();
        let lo = inject(
            &w.dopt,
            &w.world,
            &NoiseConfig {
                rate: 0.1,
                constant_share: 0.2,
                ..Default::default()
            },
        );
        let hi = inject(
            &w.dopt,
            &w.world,
            &NoiseConfig {
                rate: 0.1,
                constant_share: 0.8,
                ..Default::default()
            },
        );
        assert!(lo.constant_noise < hi.constant_noise);
        assert!(
            (lo.constant_noise as f64 - 12.0).abs() <= 3.0,
            "{}",
            lo.constant_noise
        );
        assert!(
            (hi.constant_noise as f64 - 48.0).abs() <= 3.0,
            "{}",
            hi.constant_noise
        );
    }

    #[test]
    fn weights_follow_bands() {
        let w = workload();
        let out = inject(&w.dopt, &w.world, &NoiseConfig::default());
        let corrupted: FixedSet<_> = out.corrupted.iter().copied().collect();
        for (id, t) in out.dirty.iter() {
            for a in out.dirty.schema().attr_ids() {
                let wt = t.weight(a);
                if corrupted.contains(&(id, a)) {
                    assert!(wt < 0.6, "dirty cell weight {wt}");
                } else {
                    assert!(wt >= 0.5, "clean cell weight {wt}");
                }
            }
        }
    }

    #[test]
    fn no_weights_mode_keeps_ones() {
        let w = workload();
        let out = inject(
            &w.dopt,
            &w.world,
            &NoiseConfig {
                assign_weights: false,
                ..Default::default()
            },
        );
        for (_, t) in out.dirty.iter() {
            assert!(t.weights().iter().all(|w| *w == 1.0));
        }
    }

    #[test]
    fn typo_always_differs() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for s in ["a", "walnut", "19014", ""] {
            for _ in 0..50 {
                assert_ne!(typo(&mut rng, s), s);
            }
        }
    }

    #[test]
    fn noise_is_deterministic() {
        let w = workload();
        let a = inject(&w.dopt, &w.world, &NoiseConfig::default());
        let b = inject(&w.dopt, &w.world, &NoiseConfig::default());
        assert_eq!(a.corrupted, b.corrupted);
    }

    #[test]
    fn zero_rate_is_identity() {
        let w = workload();
        let out = inject(
            &w.dopt,
            &w.world,
            &NoiseConfig {
                rate: 0.0,
                assign_weights: false,
                ..Default::default()
            },
        );
        assert_eq!(cfd_model::diff::dif(&w.dopt, &out.dirty), 0);
        assert!(out.corrupted.is_empty());
    }
}
