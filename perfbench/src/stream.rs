//! `stream_window_20k`: one `DatasetHandle` over the clean 20k base with
//! a tumbling stream open. Each window feeds 16 noisy inserts plus 16
//! deletes of the previous window's arrivals (the relation stays at the
//! base size), then `stream_advance` closes it.

use std::time::{Duration, Instant};

use cfdclean::cfd::check;
use cfdclean::model::diff::RepairQuality;
use cfdclean::model::TupleId;
use cfdclean::{DatasetHandle, StreamConfig, WindowResult};

use crate::common::{ensure, median, ms_since, percentile, Digest, Tracer};
use crate::inputs::{arrivals, database, Arrivals, Database};
use crate::{Outcome, Scale};

const PER_WINDOW: usize = 16;
/// Window size in timestamp units: one tick per event.
const WINDOW: u64 = 2 * PER_WINDOW as u64;
/// Windows whose `.cfde` logs are replayed on a second session and
/// digested for the cross-run stability check.
const REPLAYED: usize = 64;

pub struct Stream {
    db: Database,
    pool: Arrivals,
    pub gen_s: f64,
}

pub fn prepare(scale: Scale, seed: u64) -> Stream {
    let t0 = Instant::now();
    let (tuples, pool) = match scale {
        Scale::Full => (20_000, 2_048),
        Scale::Toy => (2_000, 256),
    };
    let db = database(tuples, 0.05, seed);
    let pool = arrivals(&db, pool, seed);
    Stream {
        db,
        pool,
        gen_s: t0.elapsed().as_secs_f64(),
    }
}

/// The event text of window `k`: inserts of the next pool rows, deletes
/// of the previous window's arrivals.
fn events(s: &Stream, k: u64, previous: &[TupleId]) -> String {
    let mut ev = String::new();
    let start = k * WINDOW;
    for i in 0..PER_WINDOW {
        let row = &s.pool.rows[(k as usize * PER_WINDOW + i) % s.pool.rows.len()];
        ev.push_str(&format!("i {} {row}\n", start + i as u64));
    }
    for (i, id) in previous.iter().enumerate() {
        ev.push_str(&format!("d {} {}\n", start + (PER_WINDOW + i) as u64, id.0));
    }
    ev
}

/// Feed and close window `k`; exactly one result must come back.
fn window(h: &mut DatasetHandle, events: &str, k: u64) -> Result<WindowResult, String> {
    h.stream_feed(events).map_err(|e| e.to_string())?;
    let mut closed = h
        .stream_advance((k + 1) * WINDOW)
        .map_err(|e| e.to_string())?;
    ensure(closed.len() == 1, || {
        format!("advance closed {} windows, expected 1", closed.len())
    })?;
    Ok(closed.pop().expect("one window"))
}

fn check_window(r: &WindowResult, previous: usize) -> Result<(), String> {
    ensure(
        r.inserted.len() == PER_WINDOW && r.cancelled == 0 && r.deleted.len() == previous,
        || {
            format!(
                "window {}: {} inserted, {} cancelled, {} deleted",
                r.window,
                r.inserted.len(),
                r.cancelled,
                r.deleted.len()
            )
        },
    )
}

/// Cell-level quality of the stream's repairs of its arrivals (§7.1).
#[derive(Default)]
struct Quality {
    noises: usize,
    changes: usize,
    residual: usize,
}

impl Quality {
    fn add(&mut self, s: &Stream, h: &DatasetHandle, k: u64, r: &WindowResult) {
        let rel = h.stream().expect("stream open").relation();
        for (i, id) in r.inserted.iter().enumerate() {
            let slot = (k as usize * PER_WINDOW + i) % s.pool.rows.len();
            let noisy = &s.pool.noisy_cells[slot];
            let truth = &s.pool.truth_cells[slot];
            let Some(t) = rel.tuple(*id) else { continue };
            for (a, v) in t.values().iter().enumerate() {
                let v = v.to_string();
                self.noises += usize::from(noisy[a] != truth[a]);
                self.changes += usize::from(noisy[a] != v);
                self.residual += usize::from(truth[a] != v);
            }
        }
    }

    fn precision_recall(&self) -> (f64, f64) {
        let q = RepairQuality {
            noises: self.noises,
            changes: self.changes,
            residual: self.residual,
        };
        (q.precision(), q.recall())
    }
}

/// An open stream plus the bookkeeping the next window needs.
struct Live {
    handle: DatasetHandle,
    pool_before: usize,
    next: u64,
    previous: Vec<TupleId>,
    /// Events and `.cfde` digests of the first [`REPLAYED`] windows.
    history: Vec<(String, u64)>,
}

fn open(s: &Stream) -> Result<Live, String> {
    let mut handle = DatasetHandle::from_csv("base", &s.db.clean_csv).map_err(|e| e.to_string())?;
    handle
        .bind_rules(&s.db.rules, "rules")
        .map_err(|e| e.to_string())?;
    let pool_before = handle.relation().pool().len();
    handle
        .open_stream(StreamConfig::tumbling(WINDOW))
        .map_err(|e| e.to_string())?;
    Ok(Live {
        handle,
        pool_before,
        next: 0,
        previous: Vec::new(),
        history: Vec::new(),
    })
}

impl Live {
    /// One window: returns its latency (feed + advance only) and result.
    fn step(
        &mut self,
        s: &Stream,
        tracer: Option<&mut Tracer>,
    ) -> Result<(f64, WindowResult), String> {
        let k = self.next;
        let ev = events(s, k, &self.previous);
        let t0 = Instant::now();
        let result = match tracer {
            None => window(&mut self.handle, &ev, k),
            Some(t) => {
                t.next_op();
                t.span("stream.window", |t| {
                    t.span("stream.feed", |_| self.handle.stream_feed(&ev))
                        .map_err(|e| e.to_string())?;
                    let mut closed = t
                        .span("stream.advance", |_| {
                            self.handle.stream_advance((k + 1) * WINDOW)
                        })
                        .map_err(|e| e.to_string())?;
                    ensure(closed.len() == 1, || {
                        format!("advance closed {} windows, expected 1", closed.len())
                    })?;
                    Ok(closed.pop().expect("one window"))
                })
            }
        };
        let ms = ms_since(t0);
        self.next += 1;
        let r = result?;
        check_window(&r, self.previous.len())?;
        if self.history.len() < REPLAYED {
            self.history.push((ev, Digest::of(&r.edit_log)));
        }
        self.previous = r.inserted.clone();
        Ok((ms, r))
    }
}

pub fn run(s: &Stream, budget: Duration, setups: usize, tracer: Option<&mut Tracer>) -> Outcome {
    let mut outcome = Outcome::new("stream_window_20k", s.gen_s);
    if let Err(e) = run_inner(s, budget, setups, tracer, &mut outcome) {
        outcome.tally.record(Err(e));
    }
    outcome
}

fn run_inner(
    s: &Stream,
    budget: Duration,
    setups: usize,
    mut tracer: Option<&mut Tracer>,
    outcome: &mut Outcome,
) -> Result<(), String> {
    // Set-up: parse, bind, open the stream and close two warm-up windows
    // (the first has no deletes). Repeated; the last one is measured.
    let mut setup_s = Vec::new();
    let mut live = None;
    for _ in 0..setups.max(1) {
        outcome.speed.tick();
        let t0 = Instant::now();
        let mut l = open(s)?;
        for _ in 0..2 {
            l.step(s, None)?;
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        live = Some(l);
    }
    outcome.setup_s = median(&setup_s);
    let mut live = live.expect("at least one set-up");
    let mut quality = Quality::default();

    let untraced = if tracer.is_some() { budget / 2 } else { budget };
    let plain = phase(s, &mut live, None, untraced, outcome, &mut quality);
    let samples = &plain.samples;
    let f = outcome.speed.factor();
    let (precision, recall) = quality.precision_recall();
    let e = &mut outcome.e2e;
    e.put_family("window_p50_ms", median(samples) * f, "ms", "op_p50_ms");
    e.put("window_p99_ms", percentile(samples, 99.0) * f, "ms");
    let total_s = samples.iter().sum::<f64>() * f / 1e3;
    e.put_family(
        "events_per_s",
        (samples.len() * 2 * PER_WINDOW) as f64 / total_s,
        "1/s",
        "ops_per_s",
    );
    outcome.set_generic(&plain.samples, 99.0, precision, recall);
    outcome.note(format!(
        "{} windows of {} inserts + {} deletes over a {}-tuple base",
        samples.len(),
        PER_WINDOW,
        PER_WINDOW,
        s.db.workload.dopt.len()
    ));

    if let Some(t) = tracer.as_deref_mut() {
        let traced = phase(
            s,
            &mut live,
            Some(&mut *t),
            budget / 2,
            outcome,
            &mut quality,
        );
        let pool = live.handle.relation().pool();
        let l = &mut outcome.layers;
        l.put("stream.feed_ms", t.median_ms("stream.feed"), "ms");
        l.put("stream.advance_ms", t.median_ms("stream.advance"), "ms");
        l.put("stream.edits_per_window", median(&traced.edits), "count");
        l.put(
            "stream.cancelled",
            (plain.cancelled + traced.cancelled) as f64,
            "count",
        );
        l.put(
            "model.diff.editlog_bytes",
            median(&traced.log_bytes),
            "bytes",
        );
        l.put("model.pool.len", pool.len() as f64, "count");
        l.put("model.pool.bytes", pool.approx_bytes() as f64, "bytes");
        let coverage = median(&t.coverage("stream.window"));
        outcome.trace_report(t, coverage, median(&traced.samples), median(&plain.samples));
    }

    // End-of-run checks: the evolved relation satisfies Σ, closing the
    // stream returns the pool to its pre-stream footprint, and a second
    // session replaying the first windows writes the same logs.
    let sigma_ok = {
        let h = &live.handle;
        let t0 = Instant::now();
        let ok = check(
            h.stream().map_err(|e| e.to_string())?.relation(),
            h.sigma().map_err(|e| e.to_string())?,
        );
        if tracer.is_some() {
            outcome.layers.put("cfd.check_ms", ms_since(t0), "ms");
        }
        ok
    };
    outcome.checks.push(ensure(sigma_ok, || {
        "final stream relation violates Σ".to_string()
    }));
    let (_, report) = live.handle.stream_close().map_err(|e| e.to_string())?;
    outcome
        .checks
        .push(ensure(report.pool_len == live.pool_before, || {
            format!(
                "stream close left the pool at {} values, {} before the stream",
                report.pool_len, live.pool_before
            )
        }));
    let mut digest = Digest::default();
    for (_, d) in &live.history {
        digest.update(&d.to_le_bytes());
    }
    outcome.digest = Some(digest.hex());
    outcome.checks.push(replay(s, &live.history));
    Ok(())
}

/// What one measured phase of windows produced.
#[derive(Default)]
struct Phase {
    samples: Vec<f64>,
    edits: Vec<f64>,
    log_bytes: Vec<f64>,
    cancelled: usize,
}

/// Closed loop over `budget`: the next window starts when the previous
/// one closed. Failed windows count in the tally and leave no sample.
fn phase(
    s: &Stream,
    live: &mut Live,
    mut tracer: Option<&mut Tracer>,
    budget: Duration,
    outcome: &mut Outcome,
    quality: &mut Quality,
) -> Phase {
    let mut out = Phase::default();
    let deadline = Instant::now() + budget;
    while Instant::now() < deadline {
        let k = live.next;
        // Right after the speed kernel the resident index is cold: that
        // window is checked but not sampled.
        let cold = outcome.speed.tick();
        match live.step(s, tracer.as_deref_mut()) {
            Ok((ms, r)) => {
                quality.add(s, &live.handle, k, &r);
                out.edits.push(r.edits as f64);
                out.log_bytes.push(r.edit_log.len() as f64);
                out.cancelled += r.cancelled;
                outcome.tally.record(Ok(()));
                if !cold {
                    out.samples.push(ms);
                }
            }
            Err(e) => {
                outcome.tally.record(Err(e));
                // A failed window leaves no arrivals to delete.
                live.previous.clear();
            }
        }
    }
    out
}

/// Replay the recorded windows on a fresh session: every `.cfde` must
/// match byte for byte.
fn replay(s: &Stream, history: &[(String, u64)]) -> Result<(), String> {
    let mut l = open(s)?;
    for (k, (ev, want)) in history.iter().enumerate() {
        let r = window(&mut l.handle, ev, k as u64)?;
        ensure(Digest::of(&r.edit_log) == *want, || {
            format!("replayed window {k} wrote a different edit log")
        })?;
    }
    Ok(())
}
