//! Differential suite for the windowed streaming repair sessions.
//!
//! The contracts pinned here:
//!
//! * **Replay reconstruction** — replaying every window's events
//!   (original values) onto the initial snapshot and applying that
//!   window's `.cfde` edit log reconstructs the stream's final relation
//!   exactly, cell for cell.
//! * **One-shot equivalence** — a single window covering every event
//!   produces byte-identical edit-log bytes to a one-shot `inc_repair`
//!   of the same batch; a multi-window stream (no deletes) equals the
//!   sequence of one-shot repairs on the evolved bases.
//! * **Sliding ≡ tumbling at S = W**, and window-commit arithmetic.
//! * **Pool hygiene** — closing a stream returns the dictionary's slot
//!   count to its pre-stream value, every round; evicting a dataset
//!   with a stream still open reaches the same empty-pool baseline as a
//!   streamless eviction.

use cfdclean::model::diff::EditLog;
use cfdclean::model::snapshot::read_edit_log_in;
use cfdclean::model::{csv, Relation, TupleId};
use cfdclean::repair::{inc_repair, IncConfig, Ordering};
use cfdclean::{Session, SessionError, StreamConfig, WindowResult};

const CSV_DATA: &str = "AC,PN,CT,ST,zip\n\
                        212,5556611,NYC,NY,10012\n\
                        215,8883425,PHI,PA,19014\n";
const RULES: &str = "phi: [zip] -> [CT, ST] { (10012 || NYC, NY); (19014 || PHI, PA) }";

/// Rows whose zip pins CT/ST: some clean, some needing repair.
const R_CLEAN_NYC: &str = "212,7770001,NYC,NY,10012";
const R_DIRTY_NYC: &str = "212,7770002,PHX,AZ,10012"; // must become NYC,NY
const R_CLEAN_PHI: &str = "610,7770003,PHI,PA,19014";
const R_DIRTY_PHI: &str = "610,7770004,NYC,NY,19014"; // must become PHI,PA

fn open(session: &Session, name: &str) -> cfdclean::DatasetRef {
    session
        .open_csv(name, CSV_DATA.as_bytes(), Some(RULES), None)
        .expect("open")
        .entry
}

fn feed_line(kind: char, ts: u64, body: &str) -> String {
    format!("{kind} {ts} {body}\n")
}

/// Insert `rows` into `rel` (values re-parsed through the same pool) in
/// order, returning the assigned ids — the replay side of staging.
fn replay_insert(rel: &mut Relation, rows: &[&str]) -> Vec<TupleId> {
    let mut text = String::new();
    let mut header = Vec::new();
    let empty = Relation::new_in(rel.schema().clone(), rel.pool().clone());
    csv::write_relation(&empty, &mut header).unwrap();
    text.push_str(std::str::from_utf8(&header).unwrap());
    for r in rows {
        text.push_str(r);
        text.push('\n');
    }
    let batch = csv::read_relation_in("replay", &mut text.as_bytes(), rel.pool().clone()).unwrap();
    batch
        .iter()
        .map(|(_, t)| rel.insert(t.to_tuple()).unwrap())
        .collect()
}

fn assert_same_cells(a: &Relation, b: &Relation, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: live counts differ");
    let attrs: Vec<_> = a.schema().attr_ids().collect();
    for (id, ta) in a.iter() {
        let tb = b
            .require(id)
            .unwrap_or_else(|_| panic!("{what}: {id} missing"));
        for att in &attrs {
            assert_eq!(
                ta.value(*att),
                tb.value(*att),
                "{what}: cell ({id}, {att:?}) differs"
            );
        }
    }
}

/// The one-shot reference for one window: `inc_repair` the rows against
/// `base`, returning (evolved base, serialized edit-log bytes).
fn oneshot_window(
    base: &Relation,
    rows: &[&str],
    sigma: &cfdclean::cfd::Sigma,
) -> (Relation, Vec<u8>) {
    let mut staged = base.clone();
    let ids = replay_insert(&mut staged, rows);
    let delta: Vec<_> = ids
        .iter()
        .map(|id| staged.require(*id).unwrap().to_tuple())
        .collect();
    let cfg = IncConfig {
        k: 1,
        ordering: Ordering::Violations,
        ..IncConfig::default()
    };
    let out = inc_repair(base, &delta, sigma, cfg).expect("one-shot repair");
    assert_eq!(out.delta_ids, ids, "staging must assign the same ids");
    let log = EditLog::between(&staged, &out.repair).expect("same liveness");
    let bytes = cfdclean::model::snapshot::edit_log_to_vec(
        &log,
        base.schema().name(),
        base.schema().arity(),
        base.pool(),
    );
    (out.repair, bytes)
}

#[test]
fn replaying_window_logs_reconstructs_the_final_relation() {
    let session = Session::new();
    let entry = open(&session, "orders");
    let mut cell = entry.write().unwrap();
    let handle = cell.handle_mut().unwrap();
    handle.open_stream(StreamConfig::tumbling(10)).unwrap();

    // Window 0: two inserts (one dirty) and a cancelled insert.
    // Window 1: a dirty insert plus a delete of a window-0 arrival.
    // Window 2: a delete of a base tuple and a clean insert.
    let w0 = [R_CLEAN_NYC, R_DIRTY_NYC, R_CLEAN_PHI];
    let base_bound = handle.stream_info().unwrap().next_tuple_id;
    let mut events = String::new();
    events.push_str(&feed_line('i', 1, w0[0]));
    events.push_str(&feed_line('i', 3, w0[1]));
    events.push_str(&feed_line('i', 5, w0[2]));
    events.push_str(&feed_line('d', 7, &(base_bound + 2).to_string())); // cancels R_CLEAN_PHI
    events.push_str(&feed_line('i', 12, R_DIRTY_PHI));
    events.push_str(&feed_line('d', 14, &base_bound.to_string())); // deletes R_CLEAN_NYC
    events.push_str(&feed_line('d', 21, "0")); // deletes a base tuple
    events.push_str(&feed_line('i', 23, R_CLEAN_PHI));
    assert_eq!(handle.stream_feed(&events).unwrap(), 8);

    let mut results: Vec<WindowResult> = Vec::new();
    results.extend(handle.stream_advance(10).unwrap());
    assert_eq!(results.len(), 1, "only window 0 closes at watermark 10");
    results.extend(handle.stream_advance(40).unwrap());
    assert_eq!(results.len(), 3);

    // Replay: initial snapshot + per-window (inserts, deletes, log).
    let resident = handle.relation().clone();
    let mut replica = resident.clone();
    let window_rows: [&[&str]; 3] = [&w0, &[R_DIRTY_PHI], &[R_CLEAN_PHI]];
    for (r, rows) in results.iter().zip(window_rows) {
        let staged = replay_insert(&mut replica, rows);
        // Cancelled inserts are the staged ids the result does not list.
        for id in &staged {
            if !r.inserted.contains(id) {
                replica.delete(*id).unwrap();
            }
        }
        for id in &r.deleted {
            replica.delete(*id).unwrap();
        }
        let loaded = read_edit_log_in(&r.edit_log, replica.pool()).expect("parse .cfde");
        assert_eq!(loaded.relation, replica.schema().name());
        loaded.log.apply(&mut replica).expect("log applies cleanly");
    }
    assert_same_cells(handle.stream().unwrap().relation(), &replica, "replay");

    // The dirty arrivals were actually repaired.
    let report = results
        .iter()
        .map(|r| r.summary())
        .collect::<Vec<_>>()
        .join("\n");
    assert!(
        results[0].stats.modified >= 1,
        "window 0 repaired the PHX row:\n{report}"
    );
    assert!(
        results[1].stats.modified >= 1,
        "window 1 repaired the NYC row:\n{report}"
    );
    assert_eq!(results[0].cancelled, 1);
    assert_eq!(results[1].deleted, vec![TupleId(base_bound)]);
    assert_eq!(results[2].deleted, vec![TupleId(0)]);

    // The resident relation never moved.
    assert_eq!(
        resident.len(),
        2,
        "one-shot state is untouched by the stream"
    );
}

#[test]
fn single_window_stream_equals_one_shot_inc_repair_byte_for_byte() {
    let session = Session::new();
    let entry = open(&session, "orders");
    let mut cell = entry.write().unwrap();
    let handle = cell.handle_mut().unwrap();

    let rows = [R_DIRTY_NYC, R_CLEAN_NYC, R_DIRTY_PHI];
    let (_, expected) = {
        let sigma = handle.sigma().unwrap().clone();
        oneshot_window(&handle.relation().clone(), &rows, &sigma)
    };

    handle.open_stream(StreamConfig::tumbling(100)).unwrap();
    let mut events = String::new();
    for (i, r) in rows.iter().enumerate() {
        events.push_str(&feed_line('i', i as u64, r));
    }
    handle.stream_feed(&events).unwrap();
    let results = handle.stream_advance(100).unwrap();
    assert_eq!(results.len(), 1);
    assert_eq!(
        results[0].edit_log, expected,
        "single-window stream log != one-shot inc_repair log"
    );
    assert!(results[0].edits > 0, "the dirty rows force edits");
}

#[test]
fn multi_window_stream_equals_one_shot_sequence_on_evolved_bases() {
    let session = Session::new();
    let entry = open(&session, "orders");
    let mut cell = entry.write().unwrap();
    let handle = cell.handle_mut().unwrap();

    let windows: [&[&str]; 3] = [
        &[R_DIRTY_NYC, R_CLEAN_PHI],
        &[R_CLEAN_NYC],
        &[R_DIRTY_PHI, "212,7770005,BOS,MA,10012"],
    ];
    let sigma = handle.sigma().unwrap().clone();
    let mut evolved = handle.relation().clone();
    let mut expected_logs = Vec::new();
    for rows in windows {
        let (next, bytes) = oneshot_window(&evolved, rows, &sigma);
        expected_logs.push(bytes);
        evolved = next;
    }

    handle.open_stream(StreamConfig::tumbling(10)).unwrap();
    for (k, rows) in windows.iter().enumerate() {
        let mut events = String::new();
        for r in *rows {
            events.push_str(&feed_line('i', k as u64 * 10 + 1, r));
        }
        handle.stream_feed(&events).unwrap();
    }
    let results = handle.stream_advance(30).unwrap();
    assert_eq!(results.len(), 3);
    for (r, expected) in results.iter().zip(&expected_logs) {
        assert_eq!(
            &r.edit_log, expected,
            "window {} log != one-shot on evolved base",
            r.window
        );
    }
    assert_same_cells(
        handle.stream().unwrap().relation(),
        &evolved,
        "evolved base",
    );
}

#[test]
fn sliding_with_slide_equal_size_is_tumbling() {
    let run = |config: StreamConfig| {
        let session = Session::new();
        let entry = open(&session, "orders");
        let mut cell = entry.write().unwrap();
        let handle = cell.handle_mut().unwrap();
        handle.open_stream(config).unwrap();
        let mut events = String::new();
        for (i, r) in [R_DIRTY_NYC, R_CLEAN_PHI, R_DIRTY_PHI].iter().enumerate() {
            events.push_str(&feed_line('i', i as u64 * 7, r));
        }
        handle.stream_feed(&events).unwrap();
        let results = handle.stream_advance(60).unwrap();
        results
            .into_iter()
            .map(|r| (r.window, r.start, r.summary(), r.edit_log))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        run(StreamConfig::tumbling(10)),
        run(StreamConfig::sliding(10, 10))
    );
}

#[test]
fn sliding_windows_commit_events_at_first_close() {
    let session = Session::new();
    let entry = open(&session, "orders");
    let mut cell = entry.write().unwrap();
    let handle = cell.handle_mut().unwrap();
    // W = 10, S = 2: ts 13 is covered by windows 2..=6, commits in
    // window (13-10)/2+1 = 2, which closes at watermark 14.
    handle.open_stream(StreamConfig::sliding(10, 2)).unwrap();
    handle
        .stream_feed(&feed_line('i', 13, R_CLEAN_NYC))
        .unwrap();
    assert!(handle.stream_advance(13).unwrap().is_empty());
    let results = handle.stream_advance(14).unwrap();
    assert_eq!(results.len(), 1);
    assert_eq!(results[0].window, 2);
    assert_eq!(results[0].start, 4);
    // A later event into a closed window is late — typed error.
    let err = handle
        .stream_feed(&feed_line('i', 2, R_CLEAN_PHI))
        .unwrap_err();
    assert!(matches!(err, SessionError::Stream(_)), "late event: {err}");
    // But the same timestamp fed as part of a *pre-close* batch was fine
    // (window 0 closed at watermark 10 ≤ 14).
}

#[test]
fn closing_a_stream_returns_the_pool_to_its_pre_stream_footprint() {
    let session = Session::new();
    let entry = open(&session, "orders");
    let mut cell = entry.write().unwrap();
    let handle = cell.handle_mut().unwrap();
    let baseline = handle.relation().pool().len();

    let mut close_reports = Vec::new();
    for round in 0..3u64 {
        handle.open_stream(StreamConfig::tumbling(10)).unwrap();
        let mut events = String::new();
        events.push_str(&feed_line('i', 1, R_DIRTY_NYC));
        events.push_str(&feed_line('i', 2, R_CLEAN_PHI));
        events.push_str(&feed_line('i', 12, R_DIRTY_PHI));
        handle.stream_feed(&events).unwrap();
        handle.stream_advance(20).unwrap();
        // One window still queued — close() must flush it.
        handle
            .stream_feed(&feed_line('i', 25, R_CLEAN_NYC))
            .unwrap();
        let (flushed, report) = handle.stream_close().unwrap();
        assert_eq!(
            flushed.len(),
            1,
            "round {round}: close flushes the queued window"
        );
        assert_eq!(
            handle.relation().pool().len(),
            baseline,
            "round {round}: stream slots must seal back to baseline"
        );
        close_reports.push(report.summary());
        // The stream is gone; its API answers typed errors.
        assert!(matches!(
            handle.stream_feed("i 1 x"),
            Err(SessionError::Stream(_))
        ));
    }
    assert_eq!(
        close_reports[0], close_reports[1],
        "reclamation is deterministic"
    );
    assert_eq!(close_reports[1], close_reports[2]);
}

#[test]
fn evicting_a_dataset_with_an_open_stream_reclaims_the_pool() {
    let session = Session::new();
    let entry = open(&session, "orders");
    {
        let mut cell = entry.write().unwrap();
        let handle = cell.handle_mut().unwrap();
        handle.open_stream(StreamConfig::tumbling(10)).unwrap();
        let mut events = String::new();
        events.push_str(&feed_line('i', 1, R_DIRTY_NYC));
        events.push_str(&feed_line('i', 12, R_DIRTY_PHI));
        handle.stream_feed(&events).unwrap();
        // Close window 0 so the stream holds live repaired arrivals
        // (pinned values, fixed-up counts) *and* a queued window.
        handle.stream_advance(10).unwrap();
    }
    let report = session.evict("orders").unwrap();
    assert_eq!(
        report.pool_len,
        1,
        "only null survives: {}",
        report.summary()
    );
}

#[test]
fn stream_rejects_bad_geometry_bad_rows_and_double_opens() {
    let session = Session::new();
    let entry = open(&session, "orders");
    let mut cell = entry.write().unwrap();
    let handle = cell.handle_mut().unwrap();

    for (size, slide) in [(0, 0), (10, 0), (10, 11)] {
        let err = handle
            .open_stream(StreamConfig::sliding(size, slide))
            .unwrap_err();
        assert!(matches!(err, SessionError::Stream(_)), "{size}/{slide}");
    }
    handle.open_stream(StreamConfig::tumbling(10)).unwrap();
    assert!(matches!(
        handle.open_stream(StreamConfig::tumbling(10)),
        Err(SessionError::Stream(_))
    ));
    // Rules cannot be rebound under an open stream.
    assert!(matches!(
        handle.bind_rules(RULES, "rules"),
        Err(SessionError::Stream(_))
    ));

    // A malformed row rejects the whole feed batch atomically.
    let mut events = feed_line('i', 1, R_CLEAN_NYC);
    events.push_str(&feed_line('i', 2, "only,three,fields"));
    assert!(matches!(
        handle.stream_feed(&events),
        Err(SessionError::Stream(_))
    ));
    // Nothing was queued: closing everything emits no window.
    let (flushed, report) = handle.stream_close().unwrap();
    assert!(flushed.is_empty());
    assert_eq!(report.windows, 0);

    // Deleting a dead tuple is a typed error, not a panic.
    handle.open_stream(StreamConfig::tumbling(10)).unwrap();
    handle.stream_feed(&feed_line('d', 1, "99")).unwrap();
    assert!(matches!(
        handle.stream_advance(10),
        Err(SessionError::Stream(_))
    ));
    // The failed window is discarded; the stream keeps going.
    handle
        .stream_feed(&feed_line('i', 15, R_CLEAN_NYC))
        .unwrap();
    assert_eq!(handle.stream_advance(30).unwrap().len(), 1);
}
