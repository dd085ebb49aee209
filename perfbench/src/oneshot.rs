//! `oneshot_batch_20k`: the one-shot CLI `repair --weights --edits` path,
//! run in-process. Every operation parses the CSV into a fresh pool,
//! applies the weights, binds Σ (building the detection index), runs
//! BATCHREPAIR with default options and renders the repair and its edit
//! log.

use std::time::{Duration, Instant};

use cfdclean::cfd::parser::parse_rules;
use cfdclean::cfd::violation;
use cfdclean::cfd::{Engine, Sigma};
use cfdclean::model::diff::{dif, EditLog};
use cfdclean::model::snapshot::edit_log_to_vec;
use cfdclean::model::{csv, ValuePool};
use cfdclean::repair::shard::{variable_shapes, GroupCensus};
use cfdclean::repair::{batch_repair_with_parts, Parallelism, RepairOptions};
use cfdclean::DatasetHandle;

use crate::common::{ensure, median, ms_since, percentile, Digest, Speed, Tally, Tracer};
use crate::inputs::{database, quality, Database};
use crate::{Outcome, Scale};

/// What one operation produced; every later operation must match the
/// first.
#[derive(PartialEq)]
struct Output {
    csv: Vec<u8>,
    edits: Vec<u8>,
    cells_changed: usize,
}

pub struct Oneshot {
    db: Database,
    pub gen_s: f64,
}

pub fn prepare(scale: Scale, seed: u64) -> Oneshot {
    let t0 = Instant::now();
    let tuples = match scale {
        Scale::Full => 20_000,
        Scale::Toy => 2_000,
    };
    let db = database(tuples, 0.05, seed);
    Oneshot {
        db,
        gen_s: t0.elapsed().as_secs_f64(),
    }
}

/// The facade path, exactly as `cfdclean repair` drives it.
fn facade_op(db: &Database) -> Result<(Output, DatasetHandle), String> {
    let mut handle = DatasetHandle::from_csv("dirty", &db.dirty_csv).map_err(|e| e.to_string())?;
    handle
        .apply_weights(&db.weights_csv)
        .map_err(|e| e.to_string())?;
    handle
        .bind_rules(&db.rules, "rules")
        .map_err(|e| e.to_string())?;
    let run = handle
        .repair(&RepairOptions::default(), true)
        .map_err(|e| e.to_string())?;
    let out = Output {
        csv: run.csv,
        edits: run.edit_log.unwrap_or_default(),
        cells_changed: run.cells_changed,
    };
    Ok((out, handle))
}

/// Counters one traced operation reports besides its spans.
struct Counts {
    steps: usize,
    merges: usize,
    consts_set: usize,
    nulls_set: usize,
    cost: f64,
    carriers: usize,
    pool_len: usize,
    pool_bytes: usize,
}

/// The same operation as [`facade_op`], decomposed into the public layer
/// calls the facade makes, each under its own span. The census probe
/// runs after the operation span: it is not part of the reconciled sum.
fn traced_op(db: &Database, t: &mut Tracer) -> Result<(Output, Counts), String> {
    t.next_op();
    let (out, rel, sigma, stats) = t.span("oneshot.op", |t| {
        let mut rel = t
            .span("model.csv.parse", |_| {
                csv::read_relation_in("dirty", &mut &*db.dirty_csv, ValuePool::new_handle())
            })
            .map_err(|e| e.to_string())?;
        t.span("model.csv.weights", |_| {
            csv::read_weights(&mut rel, &mut &*db.weights_csv)
        })
        .map_err(|e| e.to_string())?;
        let sigma = t.span("cfd.bind", |_| {
            let cfds = parse_rules(rel.schema(), &db.rules).map_err(|e| e.to_string())?;
            Sigma::normalize_in(rel.schema().clone(), cfds, rel.pool()).map_err(|e| e.to_string())
        })?;
        let parts = t.span("cfd.index_build", |_| {
            Engine::build_with_threads(&rel, &sigma, Parallelism::default().get()).to_parts()
        });
        let opts = RepairOptions::default();
        let outcome = t
            .span("repair.batch", |_| {
                batch_repair_with_parts(&rel, &sigma, parts.clone(), opts.batch_config())
            })
            .map_err(|e| e.to_string())?;
        let clean = t.span("cfd.check", |_| violation::check(&outcome.repair, &sigma));
        ensure(clean, || "repair does not satisfy the rules".to_string())?;
        let mut csv_bytes = Vec::new();
        t.span("model.csv.render", |_| {
            csv::write_relation(&outcome.repair, &mut csv_bytes)
        })
        .map_err(|e| e.to_string())?;
        let edits = t
            .span("model.diff.editlog", |_| {
                EditLog::between(&rel, &outcome.repair).map(|log| {
                    edit_log_to_vec(&log, rel.schema().name(), rel.schema().arity(), rel.pool())
                })
            })
            .map_err(|e| e.to_string())?;
        let cells_changed = t.span("model.diff.dif", |_| dif(&rel, &outcome.repair));
        let out = Output {
            csv: csv_bytes,
            edits,
            cells_changed,
        };
        Ok::<_, String>((out, rel, sigma, outcome.stats))
    })?;
    let carriers = t.span("repair.census", |_| {
        GroupCensus::build(&rel, &variable_shapes(&sigma), &Parallelism::default()).carriers()
    });
    let counts = Counts {
        steps: stats.steps,
        merges: stats.merges,
        consts_set: stats.consts_set,
        nulls_set: stats.nulls_set,
        cost: stats.cost,
        carriers,
        pool_len: rel.pool().len(),
        pool_bytes: rel.pool().approx_bytes(),
    };
    Ok((out, counts))
}

/// Closed loop over `budget`: one caller, the next operation starts when
/// the previous one returned. Returns successful latencies.
fn measure(
    db: &Database,
    reference: &Output,
    budget: Duration,
    tally: &mut Tally,
    speed: &mut Speed,
) -> Vec<f64> {
    let mut samples = Vec::new();
    let deadline = Instant::now() + budget;
    while Instant::now() < deadline {
        // Every operation starts from the input bytes and builds all its
        // state anew, so the one after the speed kernel is sampled too.
        speed.tick();
        let t0 = Instant::now();
        let result = facade_op(db);
        let ms = ms_since(t0);
        let outcome = result.and_then(|(out, _handle)| {
            ensure(out == *reference, || {
                format!(
                    "repair output differs from the first operation ({} vs {} cells changed)",
                    out.cells_changed, reference.cells_changed
                )
            })
        });
        if tally.record(outcome) {
            samples.push(ms);
        }
    }
    samples
}

pub fn run(w: &Oneshot, budget: Duration, setups: usize, tracer: Option<&mut Tracer>) -> Outcome {
    let db = &w.db;
    let mut outcome = Outcome::new("oneshot_batch_20k", w.gen_s);
    // Set-up is the first operation: nothing stays warm between one-shot
    // runs. Repeat it and keep the median.
    let mut setup_s = Vec::new();
    let mut reference = None;
    for _ in 0..setups.max(1) {
        outcome.speed.tick();
        let t0 = Instant::now();
        let result = facade_op(db);
        setup_s.push(t0.elapsed().as_secs_f64());
        match result {
            Ok((out, _)) => {
                if reference.is_none() {
                    reference = Some(out);
                }
            }
            Err(e) => {
                outcome
                    .tally
                    .record(Err(format!("set-up repair failed: {e}")));
                return outcome;
            }
        }
    }
    outcome.setup_s = median(&setup_s);
    let reference = reference.expect("at least one set-up");
    let (precision, recall) = quality(&db.dirty_csv, &reference.csv, &db.clean_csv);
    let mut digest = Digest::default();
    digest.update(&reference.csv);
    digest.update(&reference.edits);
    outcome.digest = Some(digest.hex());

    let untraced = if tracer.is_some() { budget / 2 } else { budget };
    let samples = measure(
        db,
        &reference,
        untraced,
        &mut outcome.tally,
        &mut outcome.speed,
    );
    let f = outcome.speed.factor();
    let e2e = &mut outcome.e2e;
    e2e.put_family("repair_p50_ms", median(&samples) * f, "ms", "op_p50_ms");
    e2e.put("repair_p90_ms", percentile(&samples, 90.0) * f, "ms");
    outcome.set_generic(&samples, 90.0, precision, recall);
    outcome.note(format!(
        "{} repairs of {} tuples, {} cells changed per repair",
        samples.len(),
        db.workload.dopt.len(),
        reference.cells_changed
    ));

    if let Some(t) = tracer {
        trace(
            db,
            &reference,
            budget / 2,
            median(&samples),
            t,
            &mut outcome,
        );
    }
    outcome
}

fn trace(
    db: &Database,
    reference: &Output,
    budget: Duration,
    untraced_p50: f64,
    t: &mut Tracer,
    outcome: &mut Outcome,
) {
    let mut last = None;
    let deadline = Instant::now() + budget;
    let mut ops = 0;
    let mut steps = 0usize;
    let mut cells = 0usize;
    while Instant::now() < deadline || ops == 0 {
        ops += 1;
        let result = traced_op(db, t).and_then(|(out, counts)| {
            ensure(out == *reference, || {
                "traced decomposition differs from the facade output".to_string()
            })?;
            Ok((out, counts))
        });
        match result {
            Ok((out, counts)) => {
                steps += counts.steps;
                cells += out.cells_changed;
                last = Some(counts);
                outcome.tally.record(Ok(()));
            }
            Err(e) => {
                outcome.tally.record(Err(e));
            }
        }
    }
    let Some(c) = last else { return };
    let l = &mut outcome.layers;
    let parse_ms = t.median_ms("model.csv.parse");
    l.put("model.csv.parse_ms", parse_ms, "ms");
    l.put(
        "model.csv.parse_mb_per_s",
        db.dirty_csv.len() as f64 / 1e6 / (parse_ms / 1e3),
        "MB/s",
    );
    l.put(
        "model.csv.weights_ms",
        t.median_ms("model.csv.weights"),
        "ms",
    );
    l.put("model.csv.render_ms", t.median_ms("model.csv.render"), "ms");
    l.put(
        "model.csv.render_bytes",
        reference.csv.len() as f64,
        "bytes",
    );
    l.put(
        "model.diff.editlog_ms",
        t.median_ms("model.diff.editlog"),
        "ms",
    );
    l.put(
        "model.diff.editlog_bytes",
        reference.edits.len() as f64,
        "bytes",
    );
    l.put("model.diff.dif_ms", t.median_ms("model.diff.dif"), "ms");
    l.put("model.pool.len", c.pool_len as f64, "count");
    l.put("model.pool.bytes", c.pool_bytes as f64, "bytes");
    l.put("cfd.bind_ms", t.median_ms("cfd.bind"), "ms");
    l.put("cfd.index_build_ms", t.median_ms("cfd.index_build"), "ms");
    l.put("cfd.check_ms", t.median_ms("cfd.check"), "ms");
    l.put("repair.census_ms", t.median_ms("repair.census"), "ms");
    l.put("repair.census.carriers", c.carriers as f64, "count");
    l.put("repair.batch_ms", t.median_ms("repair.batch"), "ms");
    l.put("repair.batch.steps", c.steps as f64, "count");
    l.put("repair.batch.merges", c.merges as f64, "count");
    l.put("repair.batch.consts_set", c.consts_set as f64, "count");
    l.put("repair.batch.nulls_set", c.nulls_set as f64, "count");
    l.put("repair.batch.cost", c.cost, "cost");
    l.put(
        "repair.batch.cells_per_step",
        cells as f64 / steps.max(1) as f64,
        "ratio",
    );
    let coverage = median(&t.coverage("oneshot.op"));
    let traced_p50 = t.median_ms("oneshot.op");
    outcome.trace_report(t, coverage, traced_p50, untraced_p50);
}
