//! `daemon_mix_6k`: an in-process `cfd-server` on loopback TCP, one
//! client connection, a seeded request mix over two datasets opened from
//! catalog snapshots. Every reply is compared with an in-process twin
//! `Session` over the same snapshots.

use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cfd_prng::{ChaCha8Rng, Rng, SeedableRng};
use cfd_server::{
    decode_request, decode_response, encode_request, encode_response, Client, RepairSpec, Request,
    Response, Server, ServerConfig,
};
use cfdclean::cfd::parser::parse_rules;
use cfdclean::cfd::{check, CfdId, Engine, Sigma};
use cfdclean::model::{csv, Catalog, Relation, Tuple, TupleId, ValueId};
use cfdclean::repair::{
    inc_repair, Algorithm, IncConfig, Ordering, Parallelism, PickStrategy, RepairOptions,
};
use cfdclean::{read_cell, write_cell, DatasetHandle, EvictReport, InsertRun, Session};

use crate::common::{ensure, median, ms_since, percentile, Digest, Tracer};
use crate::inputs::{arrivals, database, quality, render, Database};
use crate::{Outcome, Scale};

const DETECT_LIMIT: u32 = 5;
const INSERT_K: u32 = 1;
const ALIAS: &str = "dirty-alias";

pub struct Daemon {
    db: Database,
    /// Fig. 12-style ΔD batches of 10, 20, …, 70 fully-dirty tuples.
    batches: Vec<Vec<u8>>,
    seed: u64,
    out_dir: PathBuf,
    pub gen_s: f64,
}

pub fn prepare(scale: Scale, seed: u64, out_dir: PathBuf) -> Daemon {
    let t0 = Instant::now();
    let tuples = match scale {
        Scale::Full => 6_000,
        Scale::Toy => 1_000,
    };
    let db = database(tuples, 0.05, seed);
    let pool = arrivals(&db, 280, seed);
    let mut batches = Vec::new();
    let mut next = 0;
    for size in (10..=70).step_by(10) {
        let rows = &pool.rows[next..next + size];
        next += size;
        batches.push(format!("{}\n{}\n", pool.header, rows.join("\n")).into_bytes());
    }
    Daemon {
        db,
        batches,
        seed,
        out_dir,
        gen_s: t0.elapsed().as_secs_f64(),
    }
}

#[derive(Clone, Copy)]
enum Kind {
    Detect,
    Insert(usize),
    Repair,
    Open,
}

/// Operation names, in [`Kind::slot`] order.
const KIND_NAMES: [&str; 4] = ["detect", "insert", "repair", "open"];
/// The twin's root span per operation kind, in [`Kind::slot`] order.
const TWIN_ROOTS: [&str; 4] = ["twin.detect", "twin.insert", "twin.repair", "twin.open"];

impl Kind {
    fn slot(self) -> usize {
        match self {
            Kind::Detect => 0,
            Kind::Insert(_) => 1,
            Kind::Repair => 2,
            Kind::Open => 3,
        }
    }

    fn name(self) -> &'static str {
        KIND_NAMES[self.slot()]
    }

    /// The request frames one operation sends.
    fn requests(self, d: &Daemon) -> Vec<Request> {
        match self {
            Kind::Detect => vec![detect_req()],
            Kind::Insert(i) => vec![insert_req(&d.batches[i])],
            Kind::Repair => vec![repair_req()],
            Kind::Open => open_reqs().to_vec(),
        }
    }
}

/// The request mix, dealt from shuffled decks of 100 so every deck holds
/// exactly 70 detects, 25 inserts, 3 repairs and 2 opens; the order and
/// each insert's ΔD batch come from the seeded PRNG.
struct Mix {
    rng: ChaCha8Rng,
    deck: Vec<Kind>,
    batches: usize,
}

impl Mix {
    fn new(seed: u64, batches: usize) -> Mix {
        Mix {
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0xda3e_0001),
            deck: Vec::new(),
            batches,
        }
    }

    fn draw(&mut self) -> Kind {
        if self.deck.is_empty() {
            let mut deck = Vec::with_capacity(100);
            deck.extend(std::iter::repeat_n(Kind::Detect, 70));
            for _ in 0..25 {
                deck.push(Kind::Insert(self.rng.gen_range(0..self.batches)));
            }
            deck.extend(std::iter::repeat_n(Kind::Repair, 3));
            deck.extend(std::iter::repeat_n(Kind::Open, 2));
            for i in (1..deck.len()).rev() {
                deck.swap(i, self.rng.gen_range(0..=i));
            }
            self.deck = deck;
        }
        self.deck.pop().expect("refilled above")
    }
}

fn detect_req() -> Request {
    Request::Detect {
        dataset: "dirty".into(),
        limit: DETECT_LIMIT,
    }
}

fn repair_req() -> Request {
    Request::Repair {
        dataset: "dirty".into(),
        spec: RepairSpec::default(),
        want_edits: true,
        want_stats: false,
    }
}

fn insert_req(csv: &[u8]) -> Request {
    Request::Insert {
        dataset: "base".into(),
        csv: csv.to_vec(),
        weights: None,
        ordering: b'v',
        k: INSERT_K,
    }
}

fn open_reqs() -> [Request; 2] {
    [
        Request::OpenSnapshot {
            name: "dirty".into(),
            as_name: Some(ALIAS.into()),
        },
        Request::Evict {
            dataset: ALIAS.into(),
        },
    ]
}

fn ok_reply(resp: Response) -> Result<Response, String> {
    match resp {
        Response::Err { kind, message } => Err(format!("daemon error {kind:?}: {message}")),
        ok => Ok(ok),
    }
}

/// A running daemon with one connected client.
struct Live {
    client: Client,
    serve: JoinHandle<std::io::Result<()>>,
    dir: PathBuf,
}

impl Live {
    fn call(&mut self, req: &Request) -> Result<Response, String> {
        self.client
            .request(req)
            .map_err(|e| e.to_string())
            .and_then(ok_reply)
    }

    fn stop(mut self) {
        let _ = self.client.request(&Request::Shutdown);
        drop(self.client);
        let _ = self.serve.join();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Save both snapshots, start the daemon, open both datasets.
fn start(d: &Daemon, round: usize) -> Result<Live, String> {
    let dir = d
        .out_dir
        .join(format!("catalog-{}-{round}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let catalog = Catalog::open(&dir).map_err(|e| e.to_string())?;
    let saver = Session::new().with_catalog(catalog);
    let s = |e: cfdclean::SessionError| e.to_string();
    saver
        .open_csv(
            "dirty",
            &d.db.dirty_csv,
            Some(&d.db.rules),
            Some(&d.db.weights_csv),
        )
        .map_err(s)?;
    saver.save_snapshot("dirty", "dirty").map_err(s)?;
    saver
        .open_csv("base", &d.db.clean_csv, Some(&d.db.rules), None)
        .map_err(s)?;
    saver.save_snapshot("base", "base").map_err(s)?;
    drop(saver);

    let server = Arc::new(
        Server::new(ServerConfig {
            catalog: Some(dir.clone()),
            ..ServerConfig::default()
        })
        .map_err(s)?,
    );
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let serve = std::thread::spawn(move || server.serve_tcp(listener));
    let client = Client::connect_tcp(addr).map_err(|e| e.to_string())?;
    let mut live = Live { client, serve, dir };
    for name in ["dirty", "base"] {
        live.call(&Request::OpenSnapshot {
            name: name.into(),
            as_name: None,
        })?;
    }
    Ok(live)
}

/// The in-process twin: a `Session` over the same catalog, answering
/// each request through the facade the daemon uses.
struct Twin {
    session: Session,
}

fn session_err(e: cfdclean::SessionError) -> String {
    e.to_string()
}

impl Twin {
    fn open(dir: &std::path::Path) -> Result<Twin, String> {
        let catalog = Catalog::open(dir).map_err(|e| e.to_string())?;
        let session = Session::new().with_catalog(catalog);
        session.open_snapshot("dirty").map_err(session_err)?;
        session.open_snapshot("base").map_err(session_err)?;
        Ok(Twin { session })
    }

    fn with<T>(
        &self,
        name: &str,
        f: impl FnOnce(&DatasetHandle) -> Result<T, String>,
    ) -> Result<T, String> {
        let entry = self.session.get(name).map_err(session_err)?;
        let cell = read_cell(&entry).map_err(session_err)?;
        f(cell.handle().map_err(session_err)?)
    }

    fn detect(&self) -> Result<Response, String> {
        self.with("dirty", |h| {
            h.detect_report(DETECT_LIMIT as usize)
                .map(Response::ok)
                .map_err(session_err)
        })
    }

    fn repair(&self) -> Result<Response, String> {
        // `RepairSpec::default()` lowered the way the daemon lowers it.
        let opts = RepairOptions::new()
            .algorithm(Algorithm::Batch)
            .pick(PickStrategy::GlobalBest)
            .k(2);
        self.with("dirty", |h| {
            let run = h.repair(&opts, true).map_err(session_err)?;
            let text = run.summary();
            let mut blobs = vec![run.csv];
            blobs.extend(run.edit_log);
            Ok(Response::Ok { text, blobs })
        })
    }

    fn insert(&self, csv_bytes: &[u8]) -> Result<Response, String> {
        let entry = self.session.get("base").map_err(session_err)?;
        let mut cell = write_cell(&entry).map_err(session_err)?;
        let run = cell
            .handle_mut()
            .map_err(session_err)?
            .insert(csv_bytes, None, Ordering::Violations, INSERT_K as usize)
            .map_err(session_err)?;
        Ok(Response::Ok {
            text: run.summary(),
            blobs: vec![run.csv],
        })
    }

    fn open_evict(&self) -> Result<[Response; 2], String> {
        let installed = self
            .session
            .open_snapshot_as("dirty", Some(ALIAS))
            .map_err(session_err)?;
        let tuples = read_cell(&installed.entry)
            .map_err(session_err)?
            .handle()
            .map_err(session_err)?
            .relation()
            .len();
        drop(installed);
        let report = self.session.evict(ALIAS).map_err(session_err)?;
        Ok([open_text(tuples), Response::ok(report.summary())])
    }
}

fn open_text(tuples: usize) -> Response {
    Response::ok(format!(
        "opened snapshot {:?} as {ALIAS:?}: {tuples} tuple(s)",
        "dirty"
    ))
}

/// The twin's replies, computed once per distinct request: `dirty` is
/// never written and `base` answers each ΔD identically over time (the
/// insert path seals what it interned), so one answer per request is the
/// expected answer for every repetition.
struct Expected {
    detect: Response,
    repair: Response,
    inserts: Vec<Option<Response>>,
    open: [Response; 2],
}

impl Expected {
    fn build(twin: &Twin, batches: usize) -> Result<Expected, String> {
        Ok(Expected {
            detect: twin.detect()?,
            repair: twin.repair()?,
            inserts: vec![None; batches],
            open: twin.open_evict()?,
        })
    }
}

/// Send one drawn operation; returns its client-observed latency and
/// the replies.
fn send(live: &mut Live, kind: Kind, d: &Daemon) -> Result<(f64, Vec<Response>), String> {
    let reqs = kind.requests(d);
    let t0 = Instant::now();
    let mut replies = Vec::with_capacity(reqs.len());
    for r in &reqs {
        replies.push(live.call(r)?);
    }
    Ok((ms_since(t0), replies))
}

fn check_replies(
    kind: Kind,
    replies: &[Response],
    expected: &mut Expected,
    twin: &Twin,
    d: &Daemon,
) -> Result<(), String> {
    let want: Vec<Response> = match kind {
        Kind::Detect => vec![expected.detect.clone()],
        Kind::Repair => vec![expected.repair.clone()],
        Kind::Insert(i) => {
            if expected.inserts[i].is_none() {
                expected.inserts[i] = Some(twin.insert(&d.batches[i])?);
            }
            vec![expected.inserts[i].clone().expect("filled above")]
        }
        Kind::Open => expected.open.to_vec(),
    };
    ensure(replies == want.as_slice(), || {
        format!("{} reply differs from the in-process twin", kind.name())
    })?;
    if let Kind::Open = kind {
        // Evicting the alias must return its pool to the empty baseline.
        ensure(
            matches!(&replies[1], Response::Ok { text, .. } if text.contains(", pool 1 value(s)")),
            || "evict did not return the alias pool to its baseline".to_string(),
        )?;
    }
    Ok(())
}

/// Latencies of every operation, and per kind.
#[derive(Default)]
struct Samples {
    all: Vec<f64>,
    by_kind: [Vec<f64>; 4],
}

impl Samples {
    fn push(&mut self, kind: Kind, ms: f64) {
        self.all.push(ms);
        self.by_kind[kind.slot()].push(ms);
    }
}

pub fn run(d: &Daemon, budget: Duration, setups: usize, tracer: Option<&mut Tracer>) -> Outcome {
    let mut outcome = Outcome::new("daemon_mix_6k", d.gen_s);
    if let Err(e) = run_inner(d, budget, setups, tracer, &mut outcome) {
        outcome.tally.record(Err(e));
    }
    outcome
}

fn run_inner(
    d: &Daemon,
    budget: Duration,
    setups: usize,
    tracer: Option<&mut Tracer>,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let warmup = [Kind::Detect, Kind::Insert(0), Kind::Repair, Kind::Open];
    let mut setup_s = Vec::new();
    let mut kept = None;
    for round in 0..setups.max(1) {
        outcome.speed.tick();
        let t0 = Instant::now();
        let mut live = start(d, round)?;
        let mut replies = Vec::new();
        for kind in warmup {
            match send(&mut live, kind, d) {
                Ok((_, r)) => replies.push(r),
                Err(e) => {
                    live.stop();
                    return Err(e);
                }
            }
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        if let Some((old, _)) = kept.replace((live, replies)) {
            old.stop();
        }
    }
    outcome.setup_s = median(&setup_s);
    let (mut live, warm_replies) = kept.expect("at least one set-up");

    let result = (|| {
        let twin = Twin::open(&live.dir)?;
        let mut expected = Expected::build(&twin, d.batches.len())?;
        let mut digest = Digest::default();
        for r in [
            &expected.detect,
            &expected.repair,
            &expected.open[0],
            &expected.open[1],
        ] {
            digest.update(&encode_response(r));
        }
        outcome.digest = Some(digest.hex());
        for (kind, replies) in warmup.iter().zip(&warm_replies) {
            outcome
                .tally
                .record(check_replies(*kind, replies, &mut expected, &twin, d));
        }
        let Response::Ok { blobs, .. } = &expected.repair else {
            unreachable!("twin replies are successes")
        };
        let (precision, recall) = quality(&d.db.dirty_csv, &blobs[0], &d.db.clean_csv);

        let mut mix = Mix::new(d.seed, d.batches.len());
        let untraced = if tracer.is_some() { budget / 2 } else { budget };
        let mut samples = Samples::default();
        let deadline = Instant::now() + untraced;
        while Instant::now() < deadline {
            let kind = mix.draw();
            // Right after the speed kernel the server's caches are cold:
            // that request is checked but not sampled.
            let cold = outcome.speed.tick();
            let result = send(&mut live, kind, d).and_then(|(ms, replies)| {
                check_replies(kind, &replies, &mut expected, &twin, d).map(|()| ms)
            });
            if let (Ok(ms), false) = (&result, cold) {
                samples.push(kind, *ms);
            }
            outcome.tally.record(result.map(|_| ()));
        }
        report(outcome, &samples, precision, recall);
        if let Some(t) = tracer {
            let raw_p50 = median(&samples.all);
            trace(
                d,
                &mut live,
                &twin,
                &mut mix,
                budget / 2,
                raw_p50,
                t,
                outcome,
            )?;
        }
        Ok::<_, String>(())
    })();
    live.stop();
    result
}

fn report(outcome: &mut Outcome, s: &Samples, precision: f64, recall: f64) {
    let f = outcome.speed.factor();
    let e = &mut outcome.e2e;
    let [detect, insert, repair, open] = &s.by_kind;
    e.put_family("detect_p50_ms", median(detect) * f, "ms", "op_p50_ms");
    e.put("detect_p99_ms", percentile(detect, 99.0) * f, "ms");
    e.put_family("insert_p50_ms", median(insert) * f, "ms", "op_p50_ms");
    e.put_family("repair_p50_ms", median(repair) * f, "ms", "op_p50_ms");
    e.put_family("open_p50_ms", median(open) * f, "ms", "op_p50_ms");
    let total_s: f64 = s.all.iter().sum::<f64>() * f / 1e3;
    e.put_family(
        "requests_per_s",
        s.all.len() as f64 / total_s,
        "1/s",
        "ops_per_s",
    );
    outcome.set_generic(&s.all, 99.0, precision, recall);
    outcome.note(format!(
        "{} operations: {} detect, {} insert, {} repair, {} open+evict",
        s.all.len(),
        detect.len(),
        insert.len(),
        repair.len(),
        open.len()
    ));
}

/// The daemon's `detect_report` body rendered from the public detect
/// result — the facade's rendering, replayed so the report can be
/// traced apart from the scan.
fn render_report(h: &DatasetHandle, report: &cfdclean::cfd::ViolationReport) -> String {
    use std::fmt::Write as _;
    let sigma = h.sigma().expect("rules bound");
    let rel = h.relation();
    let mut out = String::new();
    let _ = writeln!(out, "{} tuples, {} normalized CFDs", rel.len(), sigma.len());
    if report.total == 0 {
        let _ = writeln!(out, "clean: D |= \u{3a3}");
        return out;
    }
    let _ = writeln!(
        out,
        "dirty: {} violations across {} tuples",
        report.total,
        report.per_tuple.len()
    );
    let limit = DETECT_LIMIT as usize;
    let mut by_source: std::collections::BTreeMap<&str, (usize, Vec<TupleId>)> = Default::default();
    for (idx, ids) in report.per_cfd.iter().enumerate() {
        if ids.is_empty() {
            continue;
        }
        let entry = by_source
            .entry(sigma.get(CfdId(idx as u32)).source_name())
            .or_default();
        entry.0 += ids.len();
        for id in ids.iter().take(limit) {
            if entry.1.len() < limit && !entry.1.contains(id) {
                entry.1.push(*id);
            }
        }
    }
    for (name, (count, examples)) in by_source {
        let _ = writeln!(out, "  {name}: {count} violating tuple(s)");
        for id in examples {
            let t = rel.tuple(id).expect("reported tuple is live");
            let rendered: Vec<String> = t.values().iter().map(|v| v.to_string()).collect();
            let _ = writeln!(out, "    #{} = ({})", id.0, rendered.join(", "));
        }
    }
    out
}

/// Every non-null cell id of the live tuples, one per occurrence.
fn live_ids(rel: &Relation) -> Vec<ValueId> {
    let mut out = Vec::new();
    for (_, t) in rel.iter() {
        for a in rel.schema().attr_ids() {
            let id = t.id(a);
            if !id.is_null() {
                out.push(id);
            }
        }
    }
    out
}

/// Σ's pattern-constant ids: shielded from sealing while rules are bound.
fn constant_ids(sigma: &Sigma) -> std::collections::HashSet<ValueId> {
    let mut out = std::collections::HashSet::new();
    for cfd in sigma.iter() {
        for p in cfd.lhs_pattern_ids() {
            out.extend(p.as_const_id());
        }
        out.extend(cfd.rhs_pattern_id().as_const_id());
    }
    out
}

/// Counters a traced twin operation reports.
#[derive(Default)]
struct TwinCounts {
    violations: Vec<f64>,
    processed: Vec<f64>,
    modified: Vec<f64>,
    nulls: Vec<f64>,
    render_bytes: Vec<f64>,
    mapped_bytes: Vec<f64>,
    owned_bytes: Vec<f64>,
    freed_slots: Vec<f64>,
}

/// The twin's answer to one request, decomposed into public layer calls
/// under spans (the repair request stays one facade span: the one-shot
/// workload decomposes it).
fn twin_traced(
    twin: &Twin,
    kind: Kind,
    d: &Daemon,
    t: &mut Tracer,
    c: &mut TwinCounts,
) -> Result<Vec<Response>, String> {
    match kind {
        Kind::Detect => twin.with("dirty", |h| {
            t.span("twin.detect", |t| {
                let report = t.span("cfd.detect", |_| h.detect().map_err(session_err))?;
                c.violations.push(report.total as f64);
                let text = t.span("session.render_report", |_| render_report(h, &report));
                Ok(vec![Response::ok(text)])
            })
        }),
        Kind::Repair => t.span("twin.repair", |t| {
            t.span("session.repair", |_| twin.repair()).map(|r| vec![r])
        }),
        Kind::Insert(i) => {
            let entry = twin.session.get("base").map_err(session_err)?;
            let cell = write_cell(&entry).map_err(session_err)?;
            let h = cell.handle().map_err(session_err)?;
            t.span("twin.insert", |t| twin_insert(h, &d.batches[i], t, c))
                .map(|r| vec![r])
        }
        Kind::Open => {
            let catalog = twin.session.catalog().expect("twin has a catalog");
            t.span("twin.open", |t| {
                let (loaded, map) = t
                    .span("model.snapshot.open", |_| catalog.load_mapped("dirty"))
                    .map_err(|e| e.to_string())?;
                let rel = loaded.relation;
                c.mapped_bytes.push(rel.mapped_bytes() as f64);
                c.owned_bytes.push(rel.owned_bytes() as f64);
                let text = loaded.rules.ok_or("snapshot has no embedded rules")?;
                let sigma = t.span("cfd.bind", |_| {
                    let cfds = parse_rules(rel.schema(), &text).map_err(|e| e.to_string())?;
                    Sigma::normalize_in(rel.schema().clone(), cfds, rel.pool())
                        .map_err(|e| e.to_string())
                })?;
                let parts = t.span("cfd.index_build", |_| {
                    Engine::build_with_threads(&rel, &sigma, Parallelism::default().get())
                        .to_parts()
                });
                let opened = open_text(rel.len());
                let report = t.span("session.evict", |_| {
                    let pool = rel.pool().clone();
                    let live = live_ids(&rel);
                    let retired_cells = live.len();
                    drop(rel);
                    drop(parts);
                    drop(sigma);
                    drop(map);
                    pool.retire_ids(live);
                    let freed_slots = pool.compact();
                    EvictReport {
                        name: ALIAS.to_string(),
                        retired_cells,
                        freed_slots,
                        pool_len: pool.len(),
                        pool_bytes: pool.approx_bytes(),
                    }
                });
                c.freed_slots.push(report.freed_slots as f64);
                Ok(vec![opened, Response::ok(report.summary())])
            })
        }
    }
}

/// `DatasetHandle::insert`, call by call.
fn twin_insert(
    h: &DatasetHandle,
    batch: &[u8],
    t: &mut Tracer,
    c: &mut TwinCounts,
) -> Result<Response, String> {
    let base = h.relation();
    let sigma = h.sigma().map_err(session_err)?;
    let (updates, delta_ids) = t.span("model.csv.parse", |_| {
        csv::read_relation_in("updates", &mut &*batch, base.pool().clone())
            .map(|u| {
                let ids = live_ids(&u);
                (u, ids)
            })
            .map_err(|e| e.to_string())
    })?;
    let result = (|| {
        let report = t.span("cfd.detect", |_| h.detect().map_err(session_err))?;
        ensure(report.total == 0, || "base is not clean".to_string())?;
        let outcome = t.span("repair.inc", |_| {
            let delta: Vec<Tuple> = updates.iter().map(|(_, t)| t.to_tuple()).collect();
            inc_repair(
                base,
                &delta,
                sigma,
                IncConfig {
                    k: INSERT_K as usize,
                    ordering: Ordering::Violations,
                    ..IncConfig::default()
                },
            )
            .map_err(|e| e.to_string())
        })?;
        let clean = t.span("cfd.check", |_| check(&outcome.repair, sigma));
        ensure(clean, || {
            "merged relation does not satisfy the rules".to_string()
        })?;
        let csv_bytes = t.span("model.csv.render", |_| render(&outcome.repair));
        c.processed.push(outcome.stats.processed as f64);
        c.modified.push(outcome.stats.modified as f64);
        c.nulls.push(outcome.stats.nulls_introduced as f64);
        c.render_bytes.push(csv_bytes.len() as f64);
        let run = InsertRun {
            csv: csv_bytes,
            inserted: updates.len(),
            base_rows: base.len(),
            modified: outcome.stats.modified,
            nulls: outcome.stats.nulls_introduced,
            cost: outcome.stats.cost,
        };
        Ok(Response::Ok {
            text: run.summary(),
            blobs: vec![run.csv],
        })
    })();
    t.span("model.pool.hygiene", |_| {
        drop(updates);
        let protect = constant_ids(sigma);
        let pool = base.pool();
        pool.retire_ids(delta_ids.iter().copied());
        pool.seal_ids(delta_ids.into_iter().filter(|id| !protect.contains(id)));
    });
    result
}

#[allow(clippy::too_many_arguments)]
fn trace(
    d: &Daemon,
    live: &mut Live,
    twin: &Twin,
    mix: &mut Mix,
    budget: Duration,
    untraced_p50: f64,
    t: &mut Tracer,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let mut counts = TwinCounts::default();
    let mut client_ms: Vec<(Kind, f64)> = Vec::new();
    let mut overhead: [Vec<f64>; 4] = Default::default();
    let mut codec_us = Vec::new();
    let mut frame_bytes = Vec::new();
    // Every kind at least once, then the seeded mix.
    let mut forced = vec![Kind::Open, Kind::Repair, Kind::Insert(0), Kind::Detect];
    let deadline = Instant::now() + budget;
    while Instant::now() < deadline || !forced.is_empty() {
        let kind = forced.pop().unwrap_or_else(|| mix.draw());
        t.next_op();
        let result = (|| {
            let (ms, replies) = t.span("client.request", |_| send(live, kind, d))?;
            let twin_replies = twin_traced(twin, kind, d, t, &mut counts)?;
            ensure(replies == twin_replies, || {
                format!("traced twin {} differs from the daemon reply", kind.name())
            })?;
            Ok::<_, String>((ms, replies))
        })();
        let (ms, replies) = match result {
            Ok(ok) => ok,
            Err(e) => {
                outcome.tally.record(Err(e));
                continue;
            }
        };
        outcome.tally.record(Ok(()));
        client_ms.push((kind, ms));
        let twin_ms = t
            .spans
            .iter()
            .rev()
            .find(|s| s.name == TWIN_ROOTS[kind.slot()])
            .map(|s| s.ms())
            .unwrap_or(f64::NAN);
        overhead[kind.slot()].push(ms - twin_ms);
        // The wire codec on the same messages, outside the timed request.
        let reqs = kind.requests(d);
        let (us, bytes) = t.span("server.codec", |_| {
            let t0 = Instant::now();
            let mut bytes = 0usize;
            for (req, resp) in reqs.iter().zip(&replies) {
                let rb = encode_request(req);
                let back = decode_request(&rb).map_err(|e| e.to_string())?;
                let sb = encode_response(resp);
                let resp_back = decode_response(&sb).map_err(|e| e.to_string())?;
                ensure(back == *req && resp_back == *resp, || {
                    "codec round trip changed a message".to_string()
                })?;
                bytes += rb.len() + sb.len() + 8;
            }
            Ok::<_, String>((t0.elapsed().as_secs_f64() * 1e6, bytes))
        })?;
        codec_us.push(us);
        frame_bytes.push(bytes as f64);
    }
    let mut ping_us = Vec::new();
    for _ in 0..200 {
        let t0 = Instant::now();
        live.call(&Request::Ping)?;
        ping_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }

    let base_pool = twin.with("base", |h| {
        let pool = h.relation().pool();
        Ok((pool.len(), pool.approx_bytes()))
    })?;
    let l = &mut outcome.layers;
    l.put("server.ping_us", median(&ping_us), "us");
    l.put("server.codec_us", median(&codec_us), "us");
    l.put("server.frame_bytes", median(&frame_bytes), "bytes");
    for (slot, name) in KIND_NAMES.iter().enumerate() {
        l.put(
            format!("server.overhead.{name}_ms"),
            median(&overhead[slot]),
            "ms",
        );
        l.put(
            format!("twin.{name}_ms"),
            t.median_ms(TWIN_ROOTS[slot]),
            "ms",
        );
    }
    l.put("cfd.detect_ms", t.median_ms("cfd.detect"), "ms");
    l.put("cfd.detect.violations", median(&counts.violations), "count");
    l.put("cfd.check_ms", t.median_ms("cfd.check"), "ms");
    l.put("cfd.bind_ms", t.median_ms("cfd.bind"), "ms");
    l.put("cfd.index_build_ms", t.median_ms("cfd.index_build"), "ms");
    l.put("model.csv.parse_ms", t.median_ms("model.csv.parse"), "ms");
    l.put("model.csv.render_ms", t.median_ms("model.csv.render"), "ms");
    l.put(
        "model.csv.render_bytes",
        median(&counts.render_bytes),
        "bytes",
    );
    l.put(
        "model.snapshot.open_ms",
        t.median_ms("model.snapshot.open"),
        "ms",
    );
    l.put(
        "model.snapshot.mapped_bytes",
        median(&counts.mapped_bytes),
        "bytes",
    );
    l.put(
        "model.snapshot.owned_bytes",
        median(&counts.owned_bytes),
        "bytes",
    );
    l.put("model.pool.len", base_pool.0 as f64, "count");
    l.put("model.pool.bytes", base_pool.1 as f64, "bytes");
    l.put(
        "model.pool.hygiene_ms",
        t.median_ms("model.pool.hygiene"),
        "ms",
    );
    l.put("repair.inc_ms", t.median_ms("repair.inc"), "ms");
    l.put("repair.inc.processed", median(&counts.processed), "count");
    l.put("repair.inc.modified", median(&counts.modified), "count");
    l.put("repair.inc.nulls", median(&counts.nulls), "count");
    l.put(
        "repair.inc.modified_ratio",
        counts.modified.iter().sum::<f64>() / counts.processed.iter().sum::<f64>().max(1.0),
        "ratio",
    );
    l.put("session.evict_ms", t.median_ms("session.evict"), "ms");
    l.put(
        "session.evict.freed_slots",
        median(&counts.freed_slots),
        "count",
    );
    let coverage: Vec<f64> = ["twin.detect", "twin.insert", "twin.open"]
        .iter()
        .flat_map(|root| t.coverage(root))
        .collect();
    let traced: Vec<f64> = client_ms.iter().map(|(_, ms)| *ms).collect();
    outcome.trace_report(t, median(&coverage), median(&traced), untraced_p50);
    Ok(())
}
