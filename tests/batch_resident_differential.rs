//! Differential suite for the resident `BATCHREPAIR` state.
//!
//! A [`DatasetHandle`] keeps one `BatchSeed`: the t=0 state of
//! `BATCHREPAIR` (dirty sets, group census and the priced `PICKNEXT`
//! frontier), built by the first default-config batch repair and shared
//! by every later one. The contracts pinned here, on §7.1 generator
//! workloads at several seeds:
//!
//! * **One-shot equivalence** — on one long-lived handle, repairs are
//!   interleaved with detects, inserts, a stream's open/feed/advance/
//!   close, reweighting, rebinding and picker switches. Every repair
//!   reply — CSV bytes, `.cfde`
//!   bytes, the detail line and the cost bits — equals a one-shot
//!   [`batch_repair`] on a fresh handle with the same data, weights,
//!   rules and config.
//! * **A base that is never written** — after every request, the
//!   resident seed's census checksum equals a fresh census build of the
//!   handle's relation.
//! * **Only the default config is resident** — a repair with another
//!   config neither stores a seed nor replaces the stored one.
//!
//! Pairwise merge pricing from one seed is covered by the `batch` unit
//! tests, which set `BatchConfig` directly.

use cfdclean::cfd::{violation, ViolationReport};
use cfdclean::gen::{generate, inject, GenConfig, NoiseConfig};
use cfdclean::model::snapshot::edit_log_to_vec;
use cfdclean::model::{csv, EditLog, Relation};
use cfdclean::repair::cost::repair_cost;
use cfdclean::repair::shard::{variable_shapes, GroupCensus};
use cfdclean::repair::{batch_repair, BatchConfig, PickStrategy, RepairOptions};
use cfdclean::{DatasetHandle, StreamConfig};

const TUPLES: usize = 2_000;
const SEEDS: [u64; 3] = [1, 7, 13];
/// A rule the generator's noisy relations satisfy: streams open only on a
/// clean base.
const CLEAN_RULES: &str = "key: [id, QTT] -> [TT] { (_, _ || _) }\n";

/// One §7.1 database with two weight assignments and a pool of arrivals.
struct Inputs {
    dirty_csv: Vec<u8>,
    weights: [Vec<u8>; 2],
    rules: String,
    /// Data rows of fresh tuples, without the header.
    arrivals: Vec<String>,
    header: String,
}

fn render(rel: &Relation) -> Vec<u8> {
    let mut out = Vec::new();
    csv::write_relation(rel, &mut out).unwrap();
    out
}

fn weights_of(rel: &Relation) -> Vec<u8> {
    let mut out = Vec::new();
    csv::write_weights(rel, &mut out).unwrap();
    out
}

fn inputs(seed: u64) -> Inputs {
    let w = generate(&GenConfig::sized(TUPLES, seed));
    let noise = |rel: &Relation, rate: f64, seed: u64| {
        inject(
            rel,
            &w.world,
            &NoiseConfig {
                rate,
                seed,
                ..Default::default()
            },
        )
        .dirty
    };
    let dirty = noise(&w.dopt, 0.05, seed);
    // The same clean relation under another noise seed: other weights,
    // row-aligned with `dirty`.
    let reweighted = noise(&w.dopt, 0.05, seed ^ 0x3e1);
    let fresh = generate(&GenConfig {
        n_tuples: 30,
        seed: seed ^ 0x5eed,
        world: w.world.config.clone(),
    });
    let text = String::from_utf8(render(&fresh.dopt)).unwrap();
    let mut lines = text.lines().map(str::to_string);
    let header = lines.next().unwrap();
    let rules = w
        .sigma
        .sources()
        .iter()
        .map(|c| cfdclean::cfd::parser::render_cfd(w.dopt.schema(), c) + "\n")
        .collect();
    Inputs {
        dirty_csv: render(&dirty),
        weights: [weights_of(&dirty), weights_of(&reweighted)],
        rules,
        arrivals: lines.collect(),
        header,
    }
}

/// What a repair request answers: CSV bytes, `.cfde` bytes, the detail
/// line and the bits of the repair cost.
#[derive(Debug, PartialEq)]
struct Reply {
    csv: Vec<u8>,
    edits: Vec<u8>,
    detail: String,
    cost_bits: u64,
}

/// The batch detail line the facade renders.
fn detail(stats: &cfdclean::repair::BatchStats) -> String {
    format!(
        "steps {} merges {} consts {} nulls {} cost {:.3}",
        stats.steps, stats.merges, stats.consts_set, stats.nulls_set, stats.cost
    )
}

/// The resident handle's reply.
fn warm(h: &DatasetHandle, opts: &RepairOptions) -> Reply {
    let run = h.repair(opts, true).unwrap();
    Reply {
        cost_bits: repair_cost(h.relation(), &run.repair).to_bits(),
        csv: run.csv,
        edits: run.edit_log.unwrap(),
        detail: run.detail,
    }
}

fn fresh_handle(inputs: &Inputs, weights: usize, rules: &str) -> DatasetHandle {
    let mut h = DatasetHandle::from_csv("orders", &inputs.dirty_csv).unwrap();
    h.apply_weights(&inputs.weights[weights]).unwrap();
    h.bind_rules(rules, "rules").unwrap();
    h
}

/// The one-shot reply: `batch_repair` over a fresh handle's relation.
fn one_shot(inputs: &Inputs, weights: usize, rules: &str, opts: &RepairOptions) -> Reply {
    let h = fresh_handle(inputs, weights, rules);
    let (d, sigma) = (h.relation(), h.sigma().unwrap());
    let out = batch_repair(d, sigma, opts.batch_config()).unwrap();
    assert!(violation::check(&out.repair, sigma));
    let log = EditLog::between(d, &out.repair).unwrap();
    Reply {
        csv: render(&out.repair),
        edits: edit_log_to_vec(&log, d.schema().name(), d.schema().arity(), d.pool()),
        detail: detail(&out.stats),
        cost_bits: out.stats.cost.to_bits(),
    }
}

fn cold_detect(inputs: &Inputs, weights: usize, rules: &str) -> ViolationReport {
    let h = fresh_handle(inputs, weights, rules);
    violation::detect(h.relation(), h.sigma().unwrap())
}

/// The resident seed's census, if any, equals a fresh build over the
/// handle's relation. Returns whether a seed is resident.
fn assert_census_untouched(h: &DatasetHandle, what: &str) -> bool {
    let Some(seed) = h.batch_seed() else {
        return false;
    };
    let fresh = GroupCensus::new(h.relation(), &variable_shapes(h.sigma().unwrap()));
    assert_eq!(seed.census().checksum(), fresh.checksum(), "{what}");
    true
}

/// The warm handle under test, with the weights and rules it holds.
struct Warm<'i> {
    inputs: &'i Inputs,
    handle: DatasetHandle,
    weights: usize,
    rules: String,
    seed: u64,
    checked: usize,
}

impl Warm<'_> {
    /// Repair on the warm handle and compare with the one-shot reply.
    fn repair(&mut self, opts: &RepairOptions, what: &str) -> Reply {
        let what = format!("seed {} step {}: {what}", self.seed, self.checked);
        self.checked += 1;
        let got = warm(&self.handle, opts);
        let want = one_shot(self.inputs, self.weights, &self.rules, opts);
        assert_eq!(got.detail, want.detail, "{what}");
        assert_eq!(got.cost_bits, want.cost_bits, "{what}");
        assert!(got == want, "{what}: reply bytes differ");
        let resident = assert_census_untouched(&self.handle, &what);
        assert!(
            resident || opts.batch_config() != BatchConfig::default(),
            "{what}: no seed"
        );
        got
    }

    fn detect(&mut self, what: &str) {
        let report = self.handle.detect().unwrap().clone();
        assert_eq!(
            report,
            cold_detect(self.inputs, self.weights, &self.rules),
            "seed {}: {what}",
            self.seed
        );
        assert_census_untouched(&self.handle, what);
    }

    fn updates(&self, from: usize, n: usize) -> Vec<u8> {
        let rows = &self.inputs.arrivals[from..from + n];
        format!("{}\n{}\n", self.inputs.header, rows.join("\n")).into_bytes()
    }
}

#[test]
fn resident_repairs_equal_one_shot_across_interleaved_requests() {
    let global = RepairOptions::new();
    let ordered = RepairOptions::new().pick(PickStrategy::DependencyOrdered);
    for seed in SEEDS {
        let inputs = inputs(seed);
        let mut w = Warm {
            inputs: &inputs,
            handle: fresh_handle(&inputs, 0, &inputs.rules),
            weights: 0,
            rules: inputs.rules.clone(),
            seed,
            checked: 0,
        };
        assert!(w.handle.batch_seed().is_none(), "the seed is lazy");
        let first = w.repair(&global, "first repair");
        let seed_ptr = std::ptr::from_ref(w.handle.batch_seed().unwrap());
        w.detect("detect");
        assert_eq!(w.repair(&global, "repeat"), first);

        // Inserts on a dirty base fail after interning ΔD into the pool.
        let updates = w.updates(0, 20);
        let err = w
            .handle
            .insert(&updates, None, cfdclean::repair::Ordering::Violations, 1);
        assert!(err.is_err(), "the base is dirty");
        assert_eq!(w.repair(&global, "after a failed insert"), first);

        // Another config runs on a seed of its own.
        w.repair(&ordered, "dependency-ordered");
        assert!(std::ptr::eq(seed_ptr, w.handle.batch_seed().unwrap()));
        assert_eq!(w.repair(&global, "back to the default"), first);

        // Reweighting drops the seed. A dependency-ordered repair sent
        // first stores none, so the default repairs after it still share
        // one seed.
        w.handle.apply_weights(&inputs.weights[1]).unwrap();
        w.weights = 1;
        assert!(
            w.handle.batch_seed().is_none(),
            "reweighting drops the seed"
        );
        w.repair(&ordered, "reweighted, dependency-ordered");
        assert!(
            w.handle.batch_seed().is_none(),
            "another config stores no seed"
        );
        let reweighted = w.repair(&global, "reweighted, default");
        let seed_ptr = std::ptr::from_ref(w.handle.batch_seed().unwrap());
        w.repair(&ordered, "reweighted, dependency-ordered again");
        assert_eq!(w.repair(&global, "reweighted, default again"), reweighted);
        assert!(std::ptr::eq(seed_ptr, w.handle.batch_seed().unwrap()));
        w.detect("reweighted detect");

        // Rebind to rules the base satisfies, so a stream can open.
        w.handle.bind_rules(CLEAN_RULES, "rules").unwrap();
        w.rules = CLEAN_RULES.to_string();
        assert!(w.handle.batch_seed().is_none(), "rebinding drops the seed");
        let clean = w.repair(&global, "clean rules");
        let updates = w.updates(0, 10);
        let run = w
            .handle
            .insert(&updates, None, cfdclean::repair::Ordering::Violations, 1);
        assert!(run.is_ok(), "seed {seed}: insert on a clean base");
        assert_eq!(w.repair(&global, "after an insert"), clean);
        w.handle.open_stream(StreamConfig::tumbling(10)).unwrap();
        let events: String = inputs.arrivals[10..30]
            .iter()
            .enumerate()
            .map(|(i, row)| format!("i {} {row}\n", i + 1))
            .collect();
        w.handle.stream_feed(&events).unwrap();
        assert_eq!(w.repair(&global, "stream fed"), clean);
        w.handle.stream_advance(12).unwrap();
        assert_eq!(w.repair(&ordered, "stream advanced"), clean);
        w.handle.stream_close().unwrap();
        assert_eq!(w.repair(&global, "stream closed"), clean);
        w.detect("detect after the stream");

        // Back to Σ: the seed is rebuilt for the reweighted relation.
        w.handle.bind_rules(&inputs.rules, "rules").unwrap();
        w.rules = inputs.rules.clone();
        w.repair(&global, "rebound");
        w.handle.apply_weights(&inputs.weights[0]).unwrap();
        w.weights = 0;
        assert_eq!(w.repair(&global, "original weights again"), first);
        assert_eq!(w.repair(&global, "and again"), first);
    }
}
