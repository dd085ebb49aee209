//! The synthetic world behind the `order` workload.
//!
//! The paper scraped sales data from AMAZON and other websites (§7.1); we
//! substitute a deterministic generator that reproduces the *correlations*
//! the experiments rely on: phone area codes, streets, cities, states, zip
//! codes and countries are functionally related exactly as the CFDs of the
//! evaluation Σ demand, so a generated database is consistent by
//! construction and every injected error is a genuine CFD violation.
//!
//! Functional structure (all enforced by construction):
//!
//! * `zip → (CT, ST)` — each zip belongs to one city;
//! * `zip → AC` — each zip has one area code (and `AC → (CT, ST)` follows);
//! * `(CT, STR) → zip` — each street of a city lies in one zip;
//! * `ST → CTY` and `CTY → VAT` — states partition into countries with one
//!   tax rate each;
//! * `(AC, PN) → (STR, CT, ST)` — a phone number identifies one customer
//!   at one address;
//! * `id → (name, PR, TT)` — an item catalog.

use cfd_model::hash::FixedSet;
use cfd_prng::ChaCha8Rng;
use cfd_prng::SliceRandom;
use cfd_prng::{Rng, SeedableRng};

/// US-style state codes partitioned across countries.
pub const STATES: [&str; 50] = [
    "AL", "AK", "AZ", "AR", "CA", "CO", "CT", "DE", "FL", "GA", "HI", "ID", "IL", "IN", "IA", "KS",
    "KY", "LA", "ME", "MD", "MA", "MI", "MN", "MS", "MO", "MT", "NE", "NV", "NH", "NJ", "NM", "NY",
    "NC", "ND", "OH", "OK", "OR", "PA", "RI", "SC", "SD", "TN", "TX", "UT", "VT", "VA", "WA", "WV",
    "WI", "WY",
];

/// Countries with their VAT rates.
pub const COUNTRIES: [(&str, &str); 5] = [
    ("USA", "0.07"),
    ("CAN", "0.05"),
    ("GBR", "0.20"),
    ("DEU", "0.19"),
    ("FRA", "0.20"),
];

const CITY_PREFIX: [&str; 20] = [
    "Spring", "River", "Oak", "Maple", "George", "Frank", "Madi", "Arling", "Center", "Clin",
    "Fair", "Green", "Bristo", "Salem", "Fremon", "Ash", "Bur", "Mill", "New", "Lake",
];
const CITY_SUFFIX: [&str; 12] = [
    "field", "ton", "ville", "burg", "town", "dale", "port", "wood", "mont", "view", "side",
    "haven",
];
const STREET_BASE: [&str; 24] = [
    "Walnut", "Spruce", "Canel", "Broad", "Elm", "Pine", "Cedar", "Chestnut", "Vine", "Market",
    "Front", "Dock", "Arch", "Race", "Locust", "Juniper", "Filbert", "Cherry", "Willow", "Poplar",
    "Sansom", "Ludlow", "Ranstead", "Ionic",
];
const ITEM_WORDS: [&str; 24] = [
    "Harry", "Porter", "Snow", "White", "Denver", "Atlas", "Quantum", "Garden", "Cooking",
    "History", "Galaxy", "Puzzle", "Dragon", "Winter", "Summer", "Secret", "Silent", "Golden",
    "Broken", "Hidden", "Lost", "Final", "First", "Last",
];

/// One city: name, state, country.
#[derive(Clone, Debug)]
pub struct City {
    /// City name (CT).
    pub name: String,
    /// State code (ST).
    pub state: &'static str,
    /// Country (CTY).
    pub country: &'static str,
    /// VAT of the country.
    pub vat: &'static str,
    /// Indices into [`World::zips`] of this city's zip codes.
    pub zips: Vec<usize>,
}

/// One zip code area.
#[derive(Clone, Debug)]
pub struct ZipArea {
    /// The 5-digit zip code.
    pub zip: String,
    /// The 3-digit area code (unique per zip).
    pub area_code: String,
    /// Index of the owning city.
    pub city: usize,
}

/// One street within a city.
#[derive(Clone, Debug)]
pub struct Street {
    /// Street name, unique within its city.
    pub name: String,
    /// Owning city index.
    pub city: usize,
    /// Index into [`World::zips`] — the street's zip.
    pub zip: usize,
}

/// One customer: a phone number bound to an address.
#[derive(Clone, Debug)]
pub struct Customer {
    /// 7-digit phone number, globally unique.
    pub phone: String,
    /// Index into [`World::streets`].
    pub street: usize,
}

/// One catalog item.
#[derive(Clone, Debug)]
pub struct Item {
    /// Item id, e.g. `a0042`.
    pub id: String,
    /// Item name.
    pub name: String,
    /// Price string, e.g. `17.99`.
    pub price: String,
    /// Title (TT).
    pub title: String,
}

/// Configuration of the synthetic world.
#[derive(Clone, Debug)]
pub struct WorldConfig {
    /// RNG seed; everything downstream is deterministic in it.
    pub seed: u64,
    /// Number of cities.
    pub n_cities: usize,
    /// Zip codes per city (drives pattern-tableau size: the experiment Σ
    /// carries one row per zip for ϕ2/ϕ5 and one per area code for ϕ1).
    pub zips_per_city: usize,
    /// Streets per city.
    pub streets_per_city: usize,
    /// Customer pool size.
    pub n_customers: usize,
    /// Item catalog size.
    pub n_items: usize,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            seed: 42,
            n_cities: 40,
            zips_per_city: 8,
            streets_per_city: 12,
            n_customers: 2_000,
            n_items: 1_000,
        }
    }
}

/// The generated world: the joint distribution every clean tuple is drawn
/// from.
#[derive(Clone, Debug)]
pub struct World {
    /// Cities with their states and countries.
    pub cities: Vec<City>,
    /// Zip areas (zip, area code, city).
    pub zips: Vec<ZipArea>,
    /// Streets (name, city, zip).
    pub streets: Vec<Street>,
    /// Customer pool.
    pub customers: Vec<Customer>,
    /// Item catalog.
    pub items: Vec<Item>,
    /// The config that produced this world.
    pub config: WorldConfig,
}

impl World {
    /// Generate a world deterministically from `config`.
    pub fn generate(config: WorldConfig) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        // Cities: unique names via (prefix, suffix) pairs, cycled.
        let mut cities = Vec::with_capacity(config.n_cities);
        for i in 0..config.n_cities {
            let prefix = CITY_PREFIX[i % CITY_PREFIX.len()];
            let suffix = CITY_SUFFIX[(i / CITY_PREFIX.len()) % CITY_SUFFIX.len()];
            let gen = i / (CITY_PREFIX.len() * CITY_SUFFIX.len());
            let name = if gen == 0 {
                format!("{prefix}{suffix}")
            } else {
                format!("{prefix}{suffix}{gen}")
            };
            let state = STATES[i % STATES.len()];
            // Country is a function of the state so ST → CTY holds.
            let (country, vat) = COUNTRIES[(i % STATES.len()) % COUNTRIES.len()];
            cities.push(City {
                name,
                state,
                country,
                vat,
                zips: Vec::new(),
            });
        }
        // Zip areas: unique 5-digit zips and 3-digit area codes. 900 area
        // codes (100–999) exist; reuse is avoided by extending to 4 digits
        // past 900 zips, mirroring overlay codes.
        let mut zips = Vec::new();
        #[allow(clippy::needless_range_loop)] // indexing both zips and cities
        for city_idx in 0..cities.len() {
            for _ in 0..config.zips_per_city {
                let serial = zips.len();
                let zip = format!("{:05}", 10000 + serial * 7 % 90000 + serial / 12857);
                let area_code = if serial < 900 {
                    format!("{}", 100 + serial)
                } else {
                    format!("{}", 1000 + serial)
                };
                cities[city_idx].zips.push(serial);
                zips.push(ZipArea {
                    zip,
                    area_code,
                    city: city_idx,
                });
            }
        }
        // De-duplicate zips that collided under the stride: rewrite any
        // duplicate deterministically.
        {
            let mut seen: FixedSet<String> = FixedSet::default();
            let mut next = 10000usize;
            for z in &mut zips {
                if !seen.insert(z.zip.clone()) {
                    loop {
                        let candidate = format!("{:05}", next % 100000);
                        next += 1;
                        if seen.insert(candidate.clone()) {
                            z.zip = candidate;
                            break;
                        }
                    }
                }
            }
        }
        // Streets: unique names within a city, each assigned one city zip.
        let mut streets = Vec::new();
        #[allow(clippy::needless_range_loop)]
        for (city_idx, city) in cities.iter().enumerate() {
            for s in 0..config.streets_per_city {
                let base = STREET_BASE[s % STREET_BASE.len()];
                let gen = s / STREET_BASE.len();
                let name = if gen == 0 {
                    format!("{base} St")
                } else {
                    format!("{base} St {gen}")
                };
                let zip = city.zips[rng.gen_range(0..city.zips.len())];
                streets.push(Street {
                    name,
                    city: city_idx,
                    zip,
                });
            }
        }
        // Customers: globally unique 7-digit phone numbers.
        let mut customers = Vec::with_capacity(config.n_customers);
        for i in 0..config.n_customers {
            let street = rng.gen_range(0..streets.len());
            customers.push(Customer {
                phone: format!("{:07}", 1000000 + i * 13 % 9000000),
                street,
            });
        }
        // Phone uniqueness under the stride: 13 and 9,000,000 are coprime,
        // so the first 9M customers get distinct phones.
        debug_assert!(config.n_customers < 9_000_000);
        // Item catalog.
        let mut items = Vec::with_capacity(config.n_items);
        for i in 0..config.n_items {
            let w1 = ITEM_WORDS[i % ITEM_WORDS.len()];
            let w2 = ITEM_WORDS[(i * 7 + 3) % ITEM_WORDS.len()];
            let cents = (i * 37) % 100;
            let dollars = 3 + (i * 13) % 60;
            items.push(Item {
                id: format!("a{i:05}"),
                name: format!("{w1} {w2} vol. {}", i % 9 + 1),
                price: format!("{dollars}.{cents:02}"),
                title: format!("{w2} {w1}"),
            });
        }
        let _ = SliceRandom::choose(&STREET_BASE[..], &mut rng); // burn for compat
        World {
            cities,
            zips,
            streets,
            customers,
            items,
            config,
        }
    }

    /// Total pattern-tableau rows the Σ built from this world will carry
    /// (per-zip rows for ϕ1/ϕ2/ϕ5 plus state and country rows plus the FD
    /// rows).
    pub fn tableau_rows(&self) -> usize {
        3 * self.zips.len() + STATES.len().min(self.cities.len()) + COUNTRIES.len() + 7
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_is_deterministic() {
        let a = World::generate(WorldConfig::default());
        let b = World::generate(WorldConfig::default());
        assert_eq!(a.zips.len(), b.zips.len());
        assert_eq!(a.customers[17].phone, b.customers[17].phone);
        assert_eq!(a.streets[33].zip, b.streets[33].zip);
    }

    #[test]
    fn zips_and_area_codes_unique() {
        let w = World::generate(WorldConfig {
            n_cities: 100,
            zips_per_city: 12,
            ..Default::default()
        });
        let zips: FixedSet<_> = w.zips.iter().map(|z| z.zip.clone()).collect();
        assert_eq!(zips.len(), w.zips.len());
        let acs: FixedSet<_> = w.zips.iter().map(|z| z.area_code.clone()).collect();
        assert_eq!(acs.len(), w.zips.len());
    }

    #[test]
    fn phones_unique() {
        let w = World::generate(WorldConfig {
            n_customers: 5000,
            ..Default::default()
        });
        let phones: FixedSet<_> = w.customers.iter().map(|c| c.phone.clone()).collect();
        assert_eq!(phones.len(), 5000);
    }

    #[test]
    fn city_names_unique() {
        let w = World::generate(WorldConfig {
            n_cities: 300,
            ..Default::default()
        });
        let names: FixedSet<_> = w.cities.iter().map(|c| c.name.clone()).collect();
        assert_eq!(names.len(), 300);
    }

    #[test]
    fn street_names_unique_within_city() {
        let w = World::generate(WorldConfig::default());
        for city_idx in 0..w.cities.len() {
            let names: FixedSet<_> = w
                .streets
                .iter()
                .filter(|s| s.city == city_idx)
                .map(|s| s.name.clone())
                .collect();
            assert_eq!(names.len(), w.config.streets_per_city);
        }
    }

    #[test]
    fn streets_point_at_their_city_zips() {
        let w = World::generate(WorldConfig::default());
        for s in &w.streets {
            assert_eq!(w.zips[s.zip].city, s.city);
        }
    }

    #[test]
    fn state_determines_country() {
        let w = World::generate(WorldConfig {
            n_cities: 200, // several cities per state
            ..Default::default()
        });
        let mut by_state: cfd_model::hash::FixedMap<&str, &str> = Default::default();
        for c in &w.cities {
            let prev = by_state.insert(c.state, c.country);
            if let Some(prev) = prev {
                assert_eq!(prev, c.country, "state {} maps to two countries", c.state);
            }
        }
    }

    #[test]
    fn item_ids_unique_and_items_well_formed() {
        let w = World::generate(WorldConfig::default());
        let ids: FixedSet<_> = w.items.iter().map(|i| i.id.clone()).collect();
        assert_eq!(ids.len(), w.items.len());
        for item in &w.items {
            assert!(item.price.contains('.'));
            assert!(!item.name.is_empty());
        }
    }

    #[test]
    fn tableau_rows_scale_with_zips() {
        let small = World::generate(WorldConfig::default());
        let big = World::generate(WorldConfig {
            n_cities: 100,
            zips_per_city: 16,
            ..Default::default()
        });
        assert!(big.tableau_rows() > small.tableau_rows());
        // paper range: 300–5,000 rows
        assert!(small.tableau_rows() >= 300, "{}", small.tableau_rows());
    }
}
