//! Generating `Dopt`: clean order data consistent with Σ by construction.
//!
//! §7.1: "We first populated the table such that the initial datasets are
//! consistent with all the CFDs in Σ. We refer to this 'correct' data as
//! Dopt." Each tuple joins a random customer (address side) with a random
//! catalog item (item side) and a random quantity; every functional
//! relationship flows from the [`World`], so `Dopt |= Σ` holds by
//! construction (and is asserted in tests).

use cfd_prng::ChaCha8Rng;
use cfd_prng::{Rng, SeedableRng};

use cfd_cfd::Sigma;
use cfd_model::{Relation, Tuple, Value, ValuePool};

use crate::order_schema::order_schema;
use crate::tableau::build_sigma;
use crate::world::{World, WorldConfig};

/// Configuration of a generated dataset.
#[derive(Clone, Debug)]
pub struct GenConfig {
    /// Number of order tuples.
    pub n_tuples: usize,
    /// Seed for the tuple draws (independent of the world seed).
    pub seed: u64,
    /// The world configuration.
    pub world: WorldConfig,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            n_tuples: 10_000,
            seed: 7,
            world: WorldConfig::default(),
        }
    }
}

impl GenConfig {
    /// Scale the customer/item pools with the target size so that tuples
    /// have partners (several orders per customer and per item) without
    /// the pools degenerating.
    pub fn sized(n_tuples: usize, seed: u64) -> Self {
        let world = WorldConfig {
            n_customers: (n_tuples / 3).max(10),
            n_items: (n_tuples / 4).max(10),
            ..WorldConfig::default()
        };
        GenConfig {
            n_tuples,
            seed,
            world,
        }
    }
}

/// A generated workload: the world, the constraints and the clean data.
pub struct Workload {
    /// The generating world.
    pub world: World,
    /// The experiment Σ, bound into `dopt`'s pool.
    pub sigma: Sigma,
    /// The clean database `Dopt` (all weights 1.0 until noise assigns
    /// them), on a pool of its own that counts exactly its cells.
    pub dopt: Relation,
}

impl Workload {
    /// Σ bound into `rel`'s pool: what a repair of `rel` needs when `rel`
    /// holds a pool other than `dopt`'s — as every dirty copy
    /// [`inject`](crate::inject) returns does.
    pub fn sigma_for(&self, rel: &Relation) -> Sigma {
        let sources = self.sigma.sources().to_vec();
        Sigma::normalize_in(self.sigma.schema().clone(), sources, rel.pool())
            .expect("Σ normalized once already")
    }
}

/// Generate a clean workload. Each call interns into a fresh pool: the
/// data first, then Σ's pattern constants (uncounted), the order a CLI
/// load of the rendered files takes.
pub fn generate(config: &GenConfig) -> Workload {
    let world = World::generate(config.world.clone());
    let schema = order_schema();
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let pool = ValuePool::new_handle();
    let mut dopt = Relation::new_in(schema, pool.clone());
    for _ in 0..config.n_tuples {
        let customer = &world.customers[rng.gen_range(0..world.customers.len())];
        let street = &world.streets[customer.street];
        let zip = &world.zips[street.zip];
        let city = &world.cities[street.city];
        let item = &world.items[rng.gen_range(0..world.items.len())];
        let qtt = rng.gen_range(1..=9i64);
        let tuple = Tuple::new_in(
            [
                Value::str(&item.id),
                Value::str(&item.name),
                Value::str(&item.price),
                Value::str(&zip.area_code),
                Value::str(&customer.phone),
                Value::str(&street.name),
                Value::str(&city.name),
                Value::str(city.state),
                Value::str(&zip.zip),
                Value::str(city.country),
                Value::str(city.vat),
                Value::str(&item.title),
                Value::Int(qtt),
            ],
            &pool,
        );
        dopt.insert(tuple).expect("schema matches");
    }
    let sigma = build_sigma(&world, &pool);
    Workload { world, sigma, dopt }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_cfd::violation::check;

    fn small() -> GenConfig {
        GenConfig {
            n_tuples: 500,
            seed: 11,
            world: WorldConfig {
                n_customers: 150,
                n_items: 80,
                ..Default::default()
            },
        }
    }

    #[test]
    fn dopt_is_consistent_by_construction() {
        let w = generate(&small());
        assert_eq!(w.dopt.len(), 500);
        assert!(check(&w.dopt, &w.sigma), "generated Dopt must satisfy Σ");
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&small());
        let b = generate(&small());
        for (id, t) in a.dopt.iter() {
            assert_eq!(b.dopt.tuple(id).unwrap().values(), t.values());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&small());
        let mut cfg = small();
        cfg.seed = 999;
        let b = generate(&cfg);
        let same = a
            .dopt
            .iter()
            .filter(|(id, t)| b.dopt.tuple(*id).unwrap().values() == t.values())
            .count();
        assert!(same < a.dopt.len() / 2, "seeds should decorrelate draws");
    }

    #[test]
    fn customers_and_items_repeat() {
        // partners are what make variable violations possible
        let w = generate(&small());
        let pn = w.dopt.schema().attr("PN").unwrap();
        let mut phones: Vec<_> = w.dopt.iter().map(|(_, t)| t.value(pn)).collect();
        let total = phones.len();
        phones.sort();
        phones.dedup();
        assert!(phones.len() < total, "customers must repeat across orders");
    }

    #[test]
    fn sized_scales_pools() {
        let cfg = GenConfig::sized(6000, 1);
        assert_eq!(cfg.world.n_customers, 2000);
        assert_eq!(cfg.world.n_items, 1500);
    }

    #[test]
    fn weights_default_to_one() {
        let w = generate(&small());
        let (_, t) = w.dopt.iter().next().unwrap();
        assert!(t.weights().iter().all(|w| *w == 1.0));
    }
}
