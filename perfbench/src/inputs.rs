//! Workload inputs, generated from the run seed with the §7.1 generator.
//! The program under test only ever sees the rendered bytes.

use cfdclean::gen::{generate, inject, GenConfig, NoiseConfig, Workload};
use cfdclean::model::{csv, Relation};

/// A generated `order` database: clean D_opt, a noisy copy at rate ρ,
/// the noisy copy's weights and Σ, all rendered as the CLI files.
pub struct Database {
    pub workload: Workload,
    pub clean_csv: Vec<u8>,
    pub dirty_csv: Vec<u8>,
    pub weights_csv: Vec<u8>,
    pub rules: String,
}

pub fn render(rel: &Relation) -> Vec<u8> {
    let mut out = Vec::new();
    csv::write_relation(rel, &mut out).expect("render generated relation");
    out
}

/// `tuples` orders at noise rate `rho`, default constant share — the
/// `cfdclean generate` recipe.
pub fn database(tuples: usize, rho: f64, seed: u64) -> Database {
    let workload = generate(&GenConfig::sized(tuples, seed));
    let noise = inject(
        &workload.dopt,
        &workload.world,
        &NoiseConfig {
            rate: rho,
            seed,
            ..Default::default()
        },
    );
    let mut weights_csv = Vec::new();
    csv::write_weights(&noise.dirty, &mut weights_csv).expect("render weights");
    let rules = workload
        .sigma
        .sources()
        .iter()
        .map(|c| cfdclean::cfd::parser::render_cfd(workload.dopt.schema(), c) + "\n")
        .collect();
    Database {
        clean_csv: render(&workload.dopt),
        dirty_csv: render(&noise.dirty),
        weights_csv,
        rules,
        workload,
    }
}

/// Fig. 12-style arrivals: `n` fresh orders drawn from the database's
/// world, every one corrupted. Returns the CSV header line, the noisy
/// rows and their clean originals (rendered cell text), aligned.
pub struct Arrivals {
    pub header: String,
    pub rows: Vec<String>,
    pub noisy_cells: Vec<Vec<String>>,
    pub truth_cells: Vec<Vec<String>>,
}

pub fn arrivals(db: &Database, n: usize, seed: u64) -> Arrivals {
    let fresh = generate(&GenConfig {
        n_tuples: n,
        seed: seed ^ 0x5eed,
        world: db.workload.world.config.clone(),
    });
    let noise = inject(
        &fresh.dopt,
        &db.workload.world,
        &NoiseConfig {
            rate: 1.0,
            seed,
            ..Default::default()
        },
    );
    let text = String::from_utf8(render(&noise.dirty)).expect("utf8 csv");
    let mut lines = text.lines();
    let header = lines.next().expect("csv header").to_string();
    let cells = |rel: &Relation| -> Vec<Vec<String>> {
        rel.iter()
            .map(|(_, t)| t.values().iter().map(|v| v.to_string()).collect())
            .collect()
    };
    Arrivals {
        header,
        rows: lines.map(str::to_string).collect(),
        noisy_cells: cells(&noise.dirty),
        truth_cells: cells(&fresh.dopt),
    }
}

/// Precision and recall of a repair (§7.1), from the three CSV renderings
/// parsed into one fresh pool so their value ids compare.
pub fn quality(dirty_csv: &[u8], repaired_csv: &[u8], clean_csv: &[u8]) -> (f64, f64) {
    use cfdclean::model::diff::RepairQuality;
    use cfdclean::model::ValuePool;
    let pool = ValuePool::new_handle();
    let parse = |name: &str, bytes: &[u8]| {
        csv::read_relation_in(name, &mut &*bytes, pool.clone()).expect("parse for evaluation")
    };
    let d = parse("d", dirty_csv);
    let repr = parse("repr", repaired_csv);
    let dopt = parse("dopt", clean_csv);
    let q = RepairQuality::evaluate(&d, &repr, &dopt);
    (q.precision(), q.recall())
}
