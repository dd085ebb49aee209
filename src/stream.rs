//! Windowed streaming repair sessions: `INCREPAIR` over an unbounded
//! event stream.
//!
//! The paper repairs a one-shot ΔD batch against a clean base (§5). A
//! [`RepairSession`] generalizes that to continuous traffic: timestamped
//! insert/delete events are queued into **tumbling or sliding windows**,
//! each window closes into one incremental repair round over a resident
//! [`StreamRepairer`] (no index is ever rebuilt), and the durable output
//! per closed window is one id-stable `.cfde` edit log — the repair of
//! exactly that window's arrivals, byte-identical at either `CFD_SIMD`
//! setting and identical whether the events were fed in-process or
//! through the daemon.
//!
//! ## Window semantics
//!
//! With window size `W` and slide `S` (`1 ≤ S ≤ W`; `S = W` is
//! tumbling), window `k` covers `[k·S, k·S + W)`. An event with
//! timestamp `ts` belongs to every window covering `ts`; it **commits in
//! the first of them to close** — window `0` if `ts < W`, else window
//! `(ts − W) / S + 1` — so each event is repaired exactly once, at the
//! earliest moment its window can be sealed. [`RepairSession::advance`]
//! moves the watermark: every window whose end lies at or before it
//! closes, in order. Windows with no committed events close silently
//! (no result is emitted). An event whose commit window has already
//! closed is a **late event** and is rejected with a typed error at feed
//! time — nothing about already-emitted logs is ever revised.
//!
//! ## What closing a window does
//!
//! 1. The window's insert rows are parsed and bulk-interned into the
//!    dataset pool (the same canonical column-major order a one-shot
//!    insert uses) and staged — appended to the working relation with
//!    sequential ids, invisible to every index.
//! 2. The window's deletes apply, in arrival order: a delete of a tuple
//!    staged in this same window **cancels** it before resolution; a
//!    delete of an active tuple (base or a previous window's arrival) is
//!    pure index maintenance — deletions never violate CFDs (§3.3).
//! 3. Surviving staged tuples resolve through `TUPLERESOLVE` in the
//!    configured ordering, exactly as a one-shot [`cfd_repair::inc_repair`]
//!    of that batch against the evolved base.
//! 4. The window's edits (original → repaired cell ids) serialize to
//!    `.cfde` bytes **before** any pool hygiene — the bytes use a local
//!    first-occurrence dictionary, so they are pool-history-independent.
//! 5. Pool hygiene restores the ledger invariant: *stream-added counts
//!    equal the cell occurrences of live stream tuples.* Replaced
//!    original values are retired and sealed ([`ValuePool::seal_ids`] —
//!    released without free-list reuse, so later interns keep
//!    append-order ids); values that entered the live indexes are
//!    **pinned** and never sealed mid-stream (the append-only active
//!    domain and the distance memo may still reference them).
//!
//! [`RepairSession::close`] flushes every still-queued window regardless
//! of the watermark, then retires the stream's remaining pool counts and
//! seals every id the stream touched (Σ's pattern constants excepted),
//! returning the dictionary to its pre-stream footprint.
//!
//! ## Divergences from the one-shot path
//!
//! Deletions are index maintenance only (no re-repair of tuples that
//! conflicted with the departed one), and the active domain is
//! append-only — values contributed solely by since-deleted tuples
//! remain repair *candidates*. Both are deliberate; `cfd_repair::resident`
//! documents the reasoning. Where the divergences cannot bite — a single
//! window covering every event, no deletions — a stream is byte-identical
//! to one-shot `inc_repair`, and `tests/stream_differential.rs` pins it.

use std::collections::{BTreeMap, HashSet};

use cfd_cfd::Sigma;
use cfd_model::diff::{Edit, EditLog};
use cfd_model::snapshot::edit_log_to_vec;
use cfd_model::{csv, AttrId, Relation, Tuple, TupleId, ValueId, ValuePool};
use cfd_repair::{IncConfig, IncStats, Ordering, StreamRepairer};

use crate::session::SessionError;

/// Window geometry and repair knobs for one [`RepairSession`].
#[derive(Clone, Debug)]
pub struct StreamConfig {
    /// Window size `W` in timestamp units.
    pub size: u64,
    /// Window slide `S` (`1 ≤ S ≤ W`; `S = W` is tumbling).
    pub slide: u64,
    /// Tuple-processing order within a window's batch.
    pub ordering: Ordering,
    /// `TUPLERESOLVE`'s attribute-set size.
    pub k: usize,
}

impl StreamConfig {
    /// Tumbling windows of `size` (`S = W`).
    pub fn tumbling(size: u64) -> StreamConfig {
        StreamConfig::sliding(size, size)
    }

    /// Sliding windows of `size` advancing by `slide`.
    pub fn sliding(size: u64, slide: u64) -> StreamConfig {
        StreamConfig {
            size,
            slide,
            ordering: Ordering::Violations,
            k: 1,
        }
    }
}

/// What a freshly opened stream tells the feeder.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamInfo {
    /// The dataset the stream runs over.
    pub name: String,
    /// Window size.
    pub size: u64,
    /// Window slide.
    pub slide: u64,
    /// The id the stream's first insert will receive; subsequent inserts
    /// get sequential ids in event order. Deletes target these ids (or
    /// base tuple ids below this bound).
    pub next_tuple_id: u32,
}

impl StreamInfo {
    /// The deterministic summary line.
    pub fn summary(&self) -> String {
        format!(
            "stream open on {:?}: window {} slide {}, next tuple id {}",
            self.name, self.size, self.slide, self.next_tuple_id
        )
    }
}

/// One closed, event-bearing window: its repaired arrivals and the
/// durable `.cfde` edit log.
pub struct WindowResult {
    /// Window index `k`.
    pub window: u64,
    /// Window start `k·S`.
    pub start: u64,
    /// Window size `W` (the end is `start + size`).
    pub size: u64,
    /// Ids of the tuples this window inserted (ascending; cancelled
    /// inserts excluded).
    pub inserted: Vec<TupleId>,
    /// Inserts cancelled by a same-window delete.
    pub cancelled: usize,
    /// Previously-live tuples this window deleted, in arrival order.
    pub deleted: Vec<TupleId>,
    /// Serialized `.cfde` edit log: the cell repairs applied to this
    /// window's inserts. Pool-history-independent bytes.
    pub edit_log: Vec<u8>,
    /// Number of cell edits in the log.
    pub edits: usize,
    /// The window's repair counters.
    pub stats: IncStats,
}

impl WindowResult {
    /// The deterministic summary line (no timing, no paths).
    pub fn summary(&self) -> String {
        format!(
            "window {} [{}, {}): {} inserted, {} cancelled, {} deleted, {} edit(s), cost {:.3}",
            self.window,
            self.start,
            self.start as u128 + self.size as u128,
            self.inserted.len(),
            self.cancelled,
            self.deleted.len(),
            self.edits,
            self.stats.cost
        )
    }
}

/// What closing a stream returned to the allocator — the streaming
/// counterpart of the facade's `EvictReport` proof obligation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamCloseReport {
    /// The dataset the stream ran over.
    pub name: String,
    /// Event-bearing windows emitted over the stream's life.
    pub windows: u64,
    /// Total tuples resolved across all windows.
    pub processed: usize,
    /// Stream-held cell occurrences retired at close.
    pub retired_cells: usize,
    /// Dictionary slots sealed at close.
    pub sealed: usize,
    /// Pool slot count after close.
    pub pool_len: usize,
    /// Pool byte estimate after close.
    pub pool_bytes: usize,
}

impl StreamCloseReport {
    /// The deterministic summary line.
    pub fn summary(&self) -> String {
        format!(
            "stream closed on {:?}: {} window(s), {} tuple(s) resolved, retired {} cell(s), sealed {} slot(s), pool {} value(s)",
            self.name, self.windows, self.processed, self.retired_cells, self.sealed, self.pool_len
        )
    }
}

/// One queued event, stored un-interned until its window closes so that
/// a window's pool interactions happen in one canonical batch.
enum Queued {
    /// A raw CSV row (verbatim event-line remainder; parsed and interned
    /// at window close).
    Insert(String),
    /// A delete of a live tuple, or of an insert committed to the same
    /// window (which cancels it).
    Delete(TupleId),
}

/// A windowed streaming repair session over one dataset. See the module
/// docs for semantics; construction goes through
/// [`DatasetHandle::open_stream`](crate::session::DatasetHandle::open_stream).
pub struct RepairSession {
    name: String,
    sigma: Sigma,
    config: StreamConfig,
    repairer: StreamRepairer,
    /// The canonical CSV header line (trailing newline included) used to
    /// parse event rows exactly as a one-shot insert parses its updates.
    header: String,
    /// First id a stream insert can receive; ids below are base tuples.
    base_bound: TupleId,
    /// Committed-window index → events in arrival order.
    queue: BTreeMap<u64, Vec<Queued>>,
    /// Number of closed windows: every `k < closed` is sealed history.
    closed: u64,
    windows_emitted: u64,
    /// Accumulated repair counters across all windows.
    total: IncStats,
    /// Σ's pattern constants — uncounted interns that must never seal
    /// while the rules stay bound.
    protect: HashSet<ValueId>,
    /// Ids that entered the live indexes (activated finals): the
    /// append-only active domain and the distance memo may reference
    /// them, so they seal only at stream close.
    pinned: HashSet<ValueId>,
    /// Every id the stream interned or activated — the final close seals
    /// exactly these (minus `protect`; counted slots skip themselves).
    touched: HashSet<ValueId>,
}

impl RepairSession {
    /// Open a stream over a clean snapshot of a dataset. `relation` must
    /// be a clone sharing the dataset's pool; `protect` carries Σ's
    /// pattern-constant ids.
    pub(crate) fn open(
        name: String,
        relation: Relation,
        sigma: Sigma,
        protect: HashSet<ValueId>,
        config: StreamConfig,
    ) -> Result<RepairSession, SessionError> {
        if config.size == 0 || config.slide == 0 || config.slide > config.size {
            return Err(SessionError::Stream(format!(
                "invalid window geometry: size {} slide {} (need 1 <= slide <= size)",
                config.size, config.slide
            )));
        }
        if config.k == 0 {
            return Err(SessionError::Stream("k must be at least 1".to_string()));
        }
        if !cfd_cfd::check(&relation, &sigma) {
            return Err(SessionError::Data(format!(
                "base {name:?} is not clean; run `cfdclean repair` on it before streaming"
            )));
        }
        let mut header = Vec::new();
        // An empty relation over the same schema renders exactly the
        // canonical header line (and touches no pool).
        csv::write_relation(&Relation::new(relation.schema().clone()), &mut header)
            .map_err(|e| SessionError::Internal(format!("cannot render header: {e}")))?;
        let header = String::from_utf8(header)
            .map_err(|e| SessionError::Internal(format!("non-utf8 header: {e}")))?;
        let base_bound = TupleId(relation.slot_count() as u32);
        let repairer = StreamRepairer::new(
            relation,
            &sigma,
            IncConfig {
                k: config.k,
                ordering: config.ordering,
                ..IncConfig::default()
            },
        )?;
        Ok(RepairSession {
            name,
            sigma,
            config,
            repairer,
            header,
            base_bound,
            queue: BTreeMap::new(),
            closed: 0,
            windows_emitted: 0,
            total: IncStats::default(),
            protect,
            pinned: HashSet::new(),
            touched: HashSet::new(),
        })
    }

    /// The window an event with timestamp `ts` commits in: the first
    /// covering window to close.
    fn commit_window(&self, ts: u64) -> u64 {
        if ts < self.config.size {
            0
        } else {
            (ts - self.config.size) / self.config.slide + 1
        }
    }

    /// How many windows a watermark closes: every `k` with
    /// `k·S + W ≤ watermark`.
    fn closed_count(&self, watermark: u64) -> u64 {
        if watermark < self.config.size {
            0
        } else {
            (watermark - self.config.size) / self.config.slide + 1
        }
    }

    /// The stream's evolved relation: the base plus every surviving,
    /// repaired arrival, minus deletions. One-shot requests on the same
    /// dataset never see it — the resident relation is untouched.
    pub fn relation(&self) -> &Relation {
        self.repairer.work()
    }

    /// The stream's descriptor (feeders predict insert ids from it).
    pub fn info(&self) -> StreamInfo {
        StreamInfo {
            name: self.name.clone(),
            size: self.config.size,
            slide: self.config.slide,
            next_tuple_id: self.repairer.work().slot_count() as u32,
        }
    }

    /// Feed a batch of events, one per line:
    ///
    /// ```text
    /// i <ts> <csv row>      # insert the row (quoting as in data CSV)
    /// d <ts> <tuple id>     # delete the tuple with that id
    /// ```
    ///
    /// Blank lines and `#` comments are skipped. The batch is atomic:
    /// every line is validated (syntax, row shape, lateness) before any
    /// event is queued, so a rejected feed queues nothing. Returns the
    /// number of events accepted.
    pub fn feed(&mut self, events: &str) -> Result<usize, SessionError> {
        let mut parsed: Vec<(u64, Queued)> = Vec::new();
        for (i, raw) in events.lines().enumerate() {
            let line_no = i + 1;
            let line = raw.trim_end_matches('\r');
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = |m: String| SessionError::Stream(format!("event line {line_no}: {m}"));
            let mut parts = line.splitn(3, ' ');
            let tag = parts.next().unwrap_or("");
            let ts: u64 = parts
                .next()
                .ok_or_else(|| bad("missing timestamp".to_string()))?
                .parse()
                .map_err(|e| bad(format!("bad timestamp: {e}")))?;
            let rest = parts
                .next()
                .ok_or_else(|| bad("missing event body".to_string()))?;
            let queued = match tag {
                "i" => {
                    // Validate the row's shape now, against a throwaway
                    // pool: a malformed row must reject the feed, not
                    // poison a later window close.
                    let probe = format!("{}{rest}\n", self.header);
                    let batch = csv::read_relation_in(
                        "probe",
                        &mut probe.as_bytes(),
                        ValuePool::new_handle(),
                    )
                    .map_err(|e| bad(format!("bad insert row: {e}")))?;
                    if batch.len() != 1 {
                        return Err(bad("insert row is empty".to_string()));
                    }
                    Queued::Insert(rest.to_string())
                }
                "d" => {
                    let id: u32 = rest
                        .trim()
                        .parse()
                        .map_err(|e| bad(format!("bad tuple id: {e}")))?;
                    Queued::Delete(TupleId(id))
                }
                other => return Err(bad(format!("unknown event tag {other:?}"))),
            };
            let k = self.commit_window(ts);
            if k < self.closed {
                return Err(bad(format!(
                    "late event: ts {ts} commits in window {k}, which already closed"
                )));
            }
            parsed.push((k, queued));
        }
        let accepted = parsed.len();
        for (k, q) in parsed {
            self.queue.entry(k).or_default().push(q);
        }
        Ok(accepted)
    }

    /// Advance the watermark: close every window whose end lies at or
    /// before it, in order, returning one [`WindowResult`] per
    /// event-bearing window. Watermarks are monotone; a stale watermark
    /// closes nothing. A window whose deletes fail validation is
    /// discarded (its error propagates; the stream itself stays usable).
    pub fn advance(&mut self, watermark: u64) -> Result<Vec<WindowResult>, SessionError> {
        let target = self.closed_count(watermark);
        let mut out = Vec::new();
        while self.closed < target {
            let Some((&k, _)) = self.queue.range(self.closed..target).next() else {
                break;
            };
            self.closed = k + 1;
            if let Some(result) = self.close_window(k)? {
                out.push(result);
            }
        }
        self.closed = self.closed.max(target);
        Ok(out)
    }

    /// Close the stream: flush every still-queued window regardless of
    /// the watermark, then run the final pool hygiene. Returns the
    /// flushed windows' results and the close report.
    pub fn close(mut self) -> Result<(Vec<WindowResult>, StreamCloseReport), SessionError> {
        let mut out = Vec::new();
        while let Some((&k, _)) = self.queue.iter().next() {
            self.closed = self.closed.max(k + 1);
            if let Some(result) = self.close_window(k)? {
                out.push(result);
            }
        }
        let (retired_cells, sealed) = self.teardown();
        let pool = self.repairer.work().pool().clone();
        let report = StreamCloseReport {
            name: self.name.clone(),
            windows: self.windows_emitted,
            processed: self.total.processed,
            retired_cells,
            sealed,
            pool_len: pool.len(),
            pool_bytes: pool.approx_bytes(),
        };
        Ok((out, report))
    }

    /// Tear the stream down without flushing queued windows — the
    /// eviction path. Queued events were never interned, so dropping
    /// them is free; only the hygiene matters.
    pub(crate) fn abort(mut self) -> (usize, usize) {
        self.queue.clear();
        self.teardown()
    }

    /// Retire every live stream tuple's cell counts and seal every id
    /// the stream touched (Σ constants excepted; counted slots — base
    /// values the stream happened to share — skip themselves).
    fn teardown(&mut self) -> (usize, usize) {
        let work = self.repairer.work();
        let pool = work.pool().clone();
        let attrs: Vec<AttrId> = work.schema().attr_ids().collect();
        let mut retire: Vec<ValueId> = Vec::new();
        for (id, t) in work.iter() {
            if id < self.base_bound {
                continue;
            }
            for a in &attrs {
                let v = t.id(*a);
                if !v.is_null() {
                    retire.push(v);
                }
            }
        }
        let retired = retire.len();
        pool.retire_ids(retire);
        // Sort for a deterministic sealed-slot order (it feeds the free
        // list if the dataset is later compacted).
        let mut seal: Vec<ValueId> = self
            .touched
            .drain()
            .filter(|v| !self.protect.contains(v))
            .collect();
        seal.sort();
        let sealed = pool.seal_ids(seal);
        (retired, sealed)
    }

    /// Close one window: stage its inserts, apply its deletes, resolve,
    /// serialize the edit log, and restore the pool ledger. `None` for
    /// windows with no committed events.
    fn close_window(&mut self, k: u64) -> Result<Option<WindowResult>, SessionError> {
        let Some(events) = self.queue.remove(&k) else {
            return Ok(None);
        };
        let pool = self.repairer.work().pool().clone();
        let attrs: Vec<AttrId> = self.repairer.work().schema().attr_ids().collect();
        let rel_name = self.repairer.work().schema().name().to_string();
        let mut rows: Vec<&str> = Vec::new();
        let mut deletes: Vec<TupleId> = Vec::new();
        for e in &events {
            match e {
                Queued::Insert(row) => rows.push(row),
                Queued::Delete(id) => deletes.push(*id),
            }
        }

        // Validate every delete before mutating anything: each target
        // must be live (or about to be staged by this window) and
        // deleted at most once.
        let next = self.repairer.work().slot_count() as u64;
        let staged_range = next..next + rows.len() as u64;
        let mut seen: HashSet<TupleId> = HashSet::new();
        for d in &deletes {
            let live =
                staged_range.contains(&(d.0 as u64)) || self.repairer.work().tuple(*d).is_some();
            if !live || !seen.insert(*d) {
                return Err(SessionError::Stream(format!(
                    "window {k}: delete target #{} is not a live tuple",
                    d.0
                )));
            }
        }

        // Stage inserts: one canonical column-major intern pass into the
        // dataset pool, exactly like a one-shot insert's updates CSV.
        let mut originals: BTreeMap<TupleId, Tuple> = BTreeMap::new();
        if !rows.is_empty() {
            let mut batch_csv = self.header.clone();
            for r in &rows {
                batch_csv.push_str(r);
                batch_csv.push('\n');
            }
            let batch = csv::read_relation_in(&rel_name, &mut batch_csv.as_bytes(), pool.clone())
                .map_err(|e| {
                SessionError::Internal(format!(
                    "window {k}: feed-validated row failed to parse: {e}"
                ))
            })?;
            for (_, t) in batch.iter() {
                let t = t.to_tuple();
                for a in &attrs {
                    let v = t.id(*a);
                    if !v.is_null() {
                        self.touched.insert(v);
                    }
                }
                let id = self.repairer.stage(t.clone())?;
                originals.insert(id, t);
            }
        }

        // Apply deletes. Same-window targets cancel their staged insert;
        // anything else is a live active tuple (deletions never violate
        // CFDs, so index maintenance suffices). Only stream-held counts
        // are retired — base tuples' counts belong to the resident
        // relation, which still references them.
        let mut cancelled = 0usize;
        let mut deleted: Vec<TupleId> = Vec::new();
        let mut retire: Vec<ValueId> = Vec::new();
        let mut seal_now: Vec<ValueId> = Vec::new();
        for d in deletes {
            if let Some(orig) = originals.remove(&d) {
                self.repairer.unstage(d)?;
                for a in &attrs {
                    let v = orig.id(*a);
                    if !v.is_null() {
                        retire.push(v);
                        seal_now.push(v);
                    }
                }
                cancelled += 1;
            } else {
                let t = self.repairer.remove_active(&self.sigma, d)?;
                if d >= self.base_bound {
                    for a in &attrs {
                        let v = t.id(*a);
                        if !v.is_null() {
                            retire.push(v);
                            seal_now.push(v);
                        }
                    }
                }
                deleted.push(d);
            }
        }

        // Resolve the surviving batch — the paper's INCREPAIR against
        // the evolved base.
        let mut pending: Vec<TupleId> = originals.keys().copied().collect();
        let stats = self.repairer.resolve_pending(&self.sigma, &mut pending)?;

        // Derive the window's edits and pin the activated finals.
        let mut edits: Vec<Edit> = Vec::new();
        for (&id, orig) in &originals {
            let now = self
                .repairer
                .work()
                .require(id)
                .map_err(|e| SessionError::Internal(format!("resolved tuple vanished: {e}")))?
                .to_tuple();
            for a in &attrs {
                let (from, to) = (orig.id(*a), now.id(*a));
                if from != to {
                    edits.push(Edit {
                        tuple: id,
                        attr: *a,
                        from,
                        to,
                    });
                }
                if !to.is_null() {
                    self.pinned.insert(to);
                    self.touched.insert(to);
                }
            }
        }
        let log = EditLog::from_edits(edits.clone())
            .map_err(|e| SessionError::Internal(format!("window {k}: bad edit order: {e}")))?;
        // Serialize before any hygiene: the bytes resolve ids through
        // the pool, and sealed slots resolve to null.
        let edit_log = edit_log_to_vec(&log, &rel_name, attrs.len(), &pool);

        // Ledger fixups: a changed cell's count moves from the original
        // value to the final one. Interns run before the bulk retire so
        // a value that is both someone's final and someone else's
        // original never transits zero while still needed.
        for e in &edits {
            if !e.to.is_null() {
                let v = pool.resolve(e.to);
                pool.intern(&v);
            }
            if !e.from.is_null() {
                retire.push(e.from);
                seal_now.push(e.from);
            }
        }
        pool.retire_ids(retire);
        // Seal what this window released, except pinned/protected ids;
        // slots still counted (base-shared values) skip themselves.
        let mut seal: Vec<ValueId> = seal_now
            .into_iter()
            .filter(|v| !self.protect.contains(v) && !self.pinned.contains(v))
            .collect();
        seal.sort();
        seal.dedup();
        pool.seal_ids(seal);

        self.windows_emitted += 1;
        self.total.processed += stats.processed;
        self.total.modified += stats.modified;
        self.total.nulls_introduced += stats.nulls_introduced;
        self.total.cost += stats.cost;
        Ok(Some(WindowResult {
            window: k,
            start: k * self.config.slide,
            size: self.config.size,
            inserted: originals.keys().copied().collect(),
            cancelled,
            deleted,
            edits: log.len(),
            edit_log,
            stats,
        }))
    }
}
