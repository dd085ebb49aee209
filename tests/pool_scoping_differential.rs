//! Cross-dataset pool-scoping differential suite.
//!
//! Repairs must depend only on (dataset, rules, config) — never on what
//! else the process loaded before or since. Under the old process-global
//! [`ValuePool`] that invariant did not hold: every dataset interned into
//! one dictionary, so loading dataset B inflated the `use_count`s that
//! `FINDV` uses to break candidate ties in dataset A, and running the
//! same repair twice re-interned Σ's pattern constants and drifted the
//! counters between runs. With dataset-scoped pools, an in-process
//! single-dataset run is state-identical to a fresh process — the pool
//! contains exactly the dataset's own values — which is what lets this
//! suite pin the fresh-process baseline without spawning one.
//!
//! Three gates:
//!
//! * **Cross-dataset differential** — load A and B in one process in
//!   both orders (detecting and repairing B in between, the realistic
//!   interference), and assert A's detect report, `BATCHREPAIR` output
//!   and `INCREPAIR` output are byte-identical (stats and exact cost
//!   bits included) to the single-dataset run.
//! * **Repeat-repair regression** — repairing the same loaded dataset
//!   twice in one process, re-normalizing Σ each time as the CLI does,
//!   must be byte-identical run to run.
//! * **Pool-growth gate** — a load / repair / evict loop over one
//!   long-lived pool returns slot count and byte estimate to baseline
//!   every round ([`ValuePool::retire_ids`] + [`ValuePool::compact`]).
//!
//! The workload is engineered to sit exactly on the historical failure
//! point: in A, candidates `x` and `y` have equal pool-wide use counts
//! (a `FINDV` tie), and B is `y`-heavy — under a shared pool, B's load
//! order would have flipped A's tie-break.

use cfdclean::cfd::pattern::{PatternRow, PatternValue};
use cfdclean::cfd::{violation, Cfd, Sigma, ViolationReport};
use cfdclean::model::csv::{read_relation_in, write_relation};
use cfdclean::model::{AttrId, Relation, Tuple, TupleId, Value, ValueId, ValuePool};
use cfdclean::repair::incremental::IncStats;
use cfdclean::repair::{batch_repair, inc_repair, BatchConfig, BatchStats, IncConfig};

/// Dataset A. Under `fd: [a] -> [b]`, group `k1` conflicts with `b`
/// split 2/2 between `x` and `y`; pool-wide both values occur exactly
/// three times (see `workload_sits_on_a_use_count_tie_break`), so the
/// `FINDV` winner rests on the tie-break that cross-dataset interning
/// used to perturb. Row `k2` additionally violates the constant rule
/// `(z0 || w0)` on `[d] -> [c]`.
const A_CSV: &str = "\
a,b,c,d
k1,x,w0,z0
k1,x,w1,z1
k1,y,w0,z0
k1,y,w1,z1
k2,x,w1,z0
k3,y,w0,z0
";

/// Dataset B: `y`-heavy (ten occurrences across its columns) and dirty
/// under the same rules, so detecting and repairing it does real work.
/// Under the old global pool, loading B shifted `use_count(y)` far past
/// `use_count(x)` and flipped A's `k1` resolution.
const B_CSV: &str = "\
a,b,c,d
m1,y,y,z0
m1,y,y,z0
m1,q,w0,z0
m2,y,y,y
m2,y,y,y
";

/// Every load gets its own pool, exactly like the CSV-import path.
fn load(csv: &str) -> Relation {
    read_relation_in("pooldiff", &mut csv.as_bytes(), ValuePool::new_handle()).unwrap()
}

fn cfds() -> Vec<Cfd> {
    let fd = Cfd::standard_fd("fd", vec![AttrId(0)], vec![AttrId(1)]);
    let cons = Cfd::new(
        "cons",
        vec![AttrId(3)],
        vec![AttrId(2)],
        vec![PatternRow::new(
            vec![PatternValue::constant("z0")],
            vec![PatternValue::constant("w0")],
        )],
    )
    .unwrap();
    vec![fd, cons]
}

/// Σ's pattern constants must live in the pool of the relation they are
/// matched against.
fn sigma_for(rel: &Relation) -> Sigma {
    Sigma::normalize_in(rel.schema().clone(), cfds(), rel.pool()).unwrap()
}

/// ΔD for the incremental leg, interned into the base's pool: one tuple
/// joining the contested `k1` group, one opening a fresh group.
fn delta_for(rel: &Relation) -> Vec<Tuple> {
    let pool = rel.pool();
    let row = |cells: [&str; 4]| {
        Tuple::from_ids(cells.iter().map(|c| pool.intern(&Value::str(*c))).collect())
    };
    vec![row(["k1", "q", "w1", "z0"]), row(["k4", "x", "w0", "z1"])]
}

fn render(rel: &Relation) -> Vec<u8> {
    let mut buf = Vec::new();
    write_relation(rel, &mut buf).unwrap();
    buf
}

/// Everything observable about one dataset.
#[derive(Debug, PartialEq)]
struct DatasetOutputs {
    detect: ViolationReport,
    batch_csv: Vec<u8>,
    batch_stats: BatchStats,
    batch_cost_bits: u64,
    inc_csv: Vec<u8>,
    inc_delta_ids: Vec<TupleId>,
    inc_stats: IncStats,
    inc_cost_bits: u64,
}

/// Detect, then run `BATCHREPAIR` and (over the repaired base)
/// `INCREPAIR`.
fn dataset_outputs(rel: &Relation, delta: &[Tuple]) -> DatasetOutputs {
    let sigma = sigma_for(rel);
    let detect = violation::detect(rel, &sigma);
    let batch = batch_repair(rel, &sigma, BatchConfig::default()).unwrap();
    let inc = inc_repair(&batch.repair, delta, &sigma, IncConfig::default()).unwrap();
    DatasetOutputs {
        detect,
        batch_csv: render(&batch.repair),
        batch_stats: batch.stats,
        batch_cost_bits: batch.stats.cost.to_bits(),
        inc_csv: render(&inc.repair),
        inc_delta_ids: inc.delta_ids,
        inc_stats: inc.stats,
        inc_cost_bits: inc.stats.cost.to_bits(),
    }
}

/// The cross-dataset interference source: fully exercise B (detect and
/// repair), which under the old global pool bumped shared counters.
fn churn(b: &Relation) {
    let sigma = sigma_for(b);
    let report = violation::detect(b, &sigma);
    assert!(report.total > 0, "B must be dirty for the churn to matter");
    batch_repair(b, &sigma, BatchConfig::default()).unwrap();
}

/// The workload really sits on the knife edge the suite is about: `x`
/// and `y` tie on pool-wide use count in A's own pool, so the `FINDV`
/// winner is decided by the tie-break that shared-pool history used to
/// perturb.
#[test]
fn workload_sits_on_a_use_count_tie_break() {
    let a = load(A_CSV);
    let x = a.pool().lookup(&Value::str("x")).unwrap();
    let y = a.pool().lookup(&Value::str("y")).unwrap();
    assert_eq!(a.pool().use_count(x), a.pool().use_count(y));
}

/// Satellite of the scoped-pool invariant: A's outputs with B loaded
/// and churned before or after it are byte-identical to A alone —
/// detect report, repairs, stats, and exact cost bits, at every corner.
#[test]
fn dataset_outputs_are_process_history_independent() {
    let alone = {
        let a = load(A_CSV);
        let delta = delta_for(&a);
        dataset_outputs(&a, &delta)
    };
    assert!(alone.detect.total > 0, "A must actually violate Σ");

    let a_then_b = {
        let a = load(A_CSV);
        let delta = delta_for(&a);
        let b = load(B_CSV);
        churn(&b);
        dataset_outputs(&a, &delta)
    };
    assert_eq!(
        alone, a_then_b,
        "loading and repairing B after A changed A's outputs"
    );

    let b_then_a = {
        let b = load(B_CSV);
        churn(&b);
        let a = load(A_CSV);
        let delta = delta_for(&a);
        dataset_outputs(&a, &delta)
    };
    assert_eq!(
        alone, b_then_a,
        "loading and repairing B before A changed A's outputs"
    );
}

/// Regression for the repeat-repair drift bug: running `repair` twice on
/// the same loaded dataset in one process re-normalizes Σ each time (as
/// the CLI does), which used to re-intern pattern constants with counted
/// occurrences, bump `use_count`, and flip `FINDV` tie-breaks on the
/// second run. Pattern interning is uncounted now; every run must be
/// byte-identical, cost bits included.
#[test]
fn repeat_repair_is_byte_identical() {
    let a = load(A_CSV);
    let run = || {
        let sigma = sigma_for(&a);
        let report = violation::detect(&a, &sigma);
        let out = batch_repair(&a, &sigma, BatchConfig::default()).unwrap();
        (
            report,
            render(&out.repair),
            out.stats,
            out.stats.cost.to_bits(),
        )
    };
    let first = run();
    for rerun in 1..4 {
        assert_eq!(
            first,
            run(),
            "repair run {rerun} on the same loaded dataset diverged from run 0"
        );
    }
}

/// Seal / compact interaction under many rounds of churn — the
/// discipline the streaming sessions (`cfdclean::stream`) lean on.
/// Sealed slots must drain exactly once: re-sealing a sealed slot is a
/// skip, compact drains the accumulated seals in one sweep, and a second
/// compact finds nothing. Values re-arriving while their old slot is
/// sealed (but not yet compacted) get fresh **append-order** ids — which
/// is exactly why a stream seals per window but never compacts
/// mid-flight: compaction opens the free list and its LIFO reuse would
/// make id assignment depend on reclamation history.
#[test]
fn many_round_seal_compact_churn_drains_each_slot_once() {
    let pool = ValuePool::new_handle();
    let anchor = pool.intern(&Value::str("anchor"));
    let baseline = pool.len();
    let mut sealed_total = 0usize;
    let mut last_id = anchor;
    for round in 0..5 {
        let a = pool.intern(&Value::str(format!("r{round}-a").as_str()));
        let b = pool.intern(&Value::str(format!("r{round}-b").as_str()));
        assert!(a > last_id && b > a, "round {round}: interns must append");
        pool.retire(a, 1);
        pool.retire(b, 1);
        assert_eq!(pool.seal_ids([a, b]), 2, "round {round}: both slots seal");
        assert_eq!(pool.len(), baseline, "round {round}: len back to baseline");
        // Re-sealing sealed slots, live slots, or null is a no-op skip.
        assert_eq!(pool.seal_ids([a, b, anchor, ValueId(0)]), 0);
        // The value re-arrives while its old slot is still sealed: it
        // must get a fresh append-ordered id, not the tombstoned one.
        let a2 = pool.intern(&Value::str(format!("r{round}-a").as_str()));
        assert!(a2 > b, "round {round}: re-arrival must not reuse the seal");
        assert_eq!(
            pool.lookup(&Value::str(format!("r{round}-a").as_str())),
            Some(a2)
        );
        pool.retire(a2, 1);
        assert_eq!(pool.seal_ids([a2]), 1);
        sealed_total += 3;
        last_id = a2;
    }
    // One compact drains every accumulated seal, exactly once.
    assert_eq!(pool.compact(), sealed_total);
    assert_eq!(pool.compact(), 0, "drained slots must not drain again");
    assert_eq!(pool.len(), baseline);
    // Post-compact the free list is open: new interns recycle ids below
    // the append frontier. Legal for request-scoped churn, fatal for an
    // open stream — hence seal-without-compact while streaming.
    let recycled = pool.intern(&Value::str("fresh-after-compact"));
    assert_eq!(
        recycled, last_id,
        "free list reuse is LIFO: last sealed, first out"
    );
}

/// Pool-growth gate: load, repair, and evict the same dataset over one
/// long-lived pool; slot count and byte estimate must return to the
/// post-first-round baseline every round. Eviction retires one
/// occurrence per live cell ([`ValuePool::retire_ids`]) and compacts
/// after dropping the relation, Σ, and repair output — Σ's constants
/// intern uncounted, and the repair only writes ids already present, so
/// the relation's cells are the pool's only counted occupants.
#[test]
fn load_repair_evict_loop_returns_pool_to_baseline() {
    let pool = ValuePool::new_handle();
    let mut baseline = None;
    for round in 0..6 {
        let rel = read_relation_in("gate", &mut A_CSV.as_bytes(), pool.clone()).unwrap();
        let sigma = sigma_for(&rel);
        let out = batch_repair(&rel, &sigma, BatchConfig::default()).unwrap();
        assert!(out.stats.cost > 0.0, "round {round} repaired nothing");
        let mut live: Vec<ValueId> = Vec::new();
        for (_, t) in rel.iter() {
            for a in rel.schema().attr_ids() {
                live.push(t.id(a));
            }
        }
        drop(out);
        drop(sigma);
        drop(rel);
        pool.retire_ids(live);
        let freed = pool.compact();
        assert!(freed > 0, "round {round} freed no slots");
        match baseline {
            None => baseline = Some((pool.len(), pool.approx_bytes())),
            Some(base) => assert_eq!(
                (pool.len(), pool.approx_bytes()),
                base,
                "round {round} grew the pool"
            ),
        }
    }
}
