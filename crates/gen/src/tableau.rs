//! Building the experiment Σ from a [`World`].
//!
//! §7.1: "Our set Σ consists of 7 CFDs: 5 taken from Fig. 1 and Fig. 2,
//! together with two new cyclic CFDs. We included 300–5,000 tuples in the
//! pattern tableaus of these CFDs, enforcing patterns of semantically
//! related values which we identified through analyzing the real data."
//!
//! The seven CFDs (the first four from Fig. 1/2, ϕ5–ϕ7 the additions over
//! the extended schema — ϕ5 closes the cycle zip → AC → {CT, ST} →(with
//! STR) zip, matching the paper's "two new cyclic CFDs" alongside the
//! ϕ2/ϕ4 cycle):
//!
//! | name | embedded FD                 | pattern rows                     |
//! |------|-----------------------------|----------------------------------|
//! | ϕ1   | \[AC, PN\] → \[STR, CT, ST\]    | wildcard + one row per area code |
//! | ϕ2   | \[zip\] → \[CT, ST\]            | wildcard + one row per zip       |
//! | ϕ3   | \[id\] → \[name, PR\]           | wildcard (standard FD)           |
//! | ϕ4   | \[CT, STR\] → \[zip\]           | wildcard (standard FD)           |
//! | ϕ5   | \[zip\] → \[AC\]                | wildcard + one row per zip       |
//! | ϕ6   | \[ST\] → \[CTY\]                | wildcard + one row per state     |
//! | ϕ7   | \[CTY\] → \[VAT\]               | wildcard + one row per country   |

use cfd_cfd::pattern::{PatternRow, PatternValue};
use cfd_cfd::{Cfd, Sigma};
use cfd_model::{Schema, ValuePool};

use crate::order_schema::{order_attrs, order_schema};
use crate::world::World;

fn c(s: &str) -> PatternValue {
    PatternValue::constant(s)
}
const W: PatternValue = PatternValue::Wildcard;

/// Build the seven-CFD Σ of §7.1 for `world`, its pattern constants
/// interned (uncounted) into `pool`.
pub fn build_sigma(world: &World, pool: &ValuePool) -> Sigma {
    let schema: Schema = order_schema();
    let a = order_attrs(&schema);

    // ϕ1: [AC, PN] → [STR, CT, ST]
    let mut phi1_rows = vec![PatternRow::all_wildcards(2, 3)];
    for z in &world.zips {
        let city = &world.cities[z.city];
        phi1_rows.push(PatternRow::new(
            vec![c(&z.area_code), W],
            vec![W, c(&city.name), c(city.state)],
        ));
    }
    let phi1 = Cfd::new(
        "phi1",
        vec![a.ac, a.pn],
        vec![a.str_, a.ct, a.st],
        phi1_rows,
    )
    .expect("phi1 rows align");

    // ϕ2: [zip] → [CT, ST]
    let mut phi2_rows = vec![PatternRow::all_wildcards(1, 2)];
    for z in &world.zips {
        let city = &world.cities[z.city];
        phi2_rows.push(PatternRow::new(
            vec![c(&z.zip)],
            vec![c(&city.name), c(city.state)],
        ));
    }
    let phi2 = Cfd::new("phi2", vec![a.zip], vec![a.ct, a.st], phi2_rows).expect("phi2");

    // ϕ3: [id] → [name, PR] (standard FD)
    let phi3 = Cfd::standard_fd("phi3", vec![a.id], vec![a.name, a.pr]);

    // ϕ4: [CT, STR] → [zip] (standard FD)
    let phi4 = Cfd::standard_fd("phi4", vec![a.ct, a.str_], vec![a.zip]);

    // ϕ5: [zip] → [AC]
    let mut phi5_rows = vec![PatternRow::all_wildcards(1, 1)];
    for z in &world.zips {
        phi5_rows.push(PatternRow::new(vec![c(&z.zip)], vec![c(&z.area_code)]));
    }
    let phi5 = Cfd::new("phi5", vec![a.zip], vec![a.ac], phi5_rows).expect("phi5");

    // ϕ6: [ST] → [CTY]
    let mut phi6_rows = vec![PatternRow::all_wildcards(1, 1)];
    let mut seen_states = std::collections::BTreeSet::new();
    for city in &world.cities {
        if seen_states.insert(city.state) {
            phi6_rows.push(PatternRow::new(vec![c(city.state)], vec![c(city.country)]));
        }
    }
    let phi6 = Cfd::new("phi6", vec![a.st], vec![a.cty], phi6_rows).expect("phi6");

    // ϕ7: [CTY] → [VAT]
    let mut phi7_rows = vec![PatternRow::all_wildcards(1, 1)];
    for (country, vat) in crate::world::COUNTRIES {
        phi7_rows.push(PatternRow::new(vec![c(country)], vec![c(vat)]));
    }
    let phi7 = Cfd::new("phi7", vec![a.cty], vec![a.vat], phi7_rows).expect("phi7");

    Sigma::normalize_in(schema, vec![phi1, phi2, phi3, phi4, phi5, phi6, phi7], pool)
        .expect("experiment sigma is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::WorldConfig;
    use cfd_cfd::satisfiability::satisfiable;

    #[test]
    fn sigma_has_seven_sources() {
        let world = World::generate(WorldConfig::default());
        let sigma = build_sigma(&world, &ValuePool::new());
        assert_eq!(sigma.sources().len(), 7);
    }

    #[test]
    fn tableau_size_in_paper_range() {
        let world = World::generate(WorldConfig::default());
        let sigma = build_sigma(&world, &ValuePool::new());
        let rows: usize = sigma.sources().iter().map(|c| c.tableau().len()).sum();
        assert!((300..=5000).contains(&rows), "rows = {rows}");
    }

    #[test]
    fn tableau_scales_to_5000_rows() {
        let world = World::generate(WorldConfig {
            n_cities: 150,
            zips_per_city: 10,
            ..Default::default()
        });
        let sigma = build_sigma(&world, &ValuePool::new());
        let rows: usize = sigma.sources().iter().map(|c| c.tableau().len()).sum();
        assert!(rows >= 4500, "rows = {rows}");
    }

    #[test]
    fn sigma_is_cyclic() {
        // ϕ2 writes CT which ϕ4 reads; ϕ4 writes zip which ϕ2 reads.
        let world = World::generate(WorldConfig::default());
        let sigma = build_sigma(&world, &ValuePool::new());
        let ct = sigma.schema().attr("CT").unwrap();
        let zip = sigma.schema().attr("zip").unwrap();
        let phi2_writes_ct = sigma
            .iter()
            .any(|n| n.rhs_attr() == ct && n.lhs().contains(&zip));
        let phi4_writes_zip = sigma
            .iter()
            .any(|n| n.rhs_attr() == zip && n.lhs().contains(&ct));
        assert!(phi2_writes_ct && phi4_writes_zip);
    }

    #[test]
    fn sigma_is_satisfiable() {
        // A smaller world keeps the witness search snappy.
        let world = World::generate(WorldConfig {
            n_cities: 5,
            zips_per_city: 2,
            n_customers: 10,
            n_items: 10,
            ..Default::default()
        });
        let sigma = build_sigma(&world, &ValuePool::new());
        assert!(satisfiable(&sigma).is_satisfiable());
    }

    #[test]
    fn constant_variable_split_is_constant_heavy() {
        let world = World::generate(WorldConfig::default());
        let sigma = build_sigma(&world, &ValuePool::new());
        let (constants, variables) = sigma.constant_variable_split();
        assert!(constants > variables * 2, "{constants} vs {variables}");
        assert!(variables >= 7); // the embedded FDs stay variable
    }
}
