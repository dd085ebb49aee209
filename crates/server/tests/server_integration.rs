//! End-to-end tests of the daemon over real sockets.
//!
//! The contract under test: any request sequence against a resident
//! `cfd-server` produces byte-identical results to the equivalent
//! one-shot runs (the [`cfdclean::DatasetHandle`] facade, which the CLI
//! routes through) — across concurrent connections and across
//! open → repair → evict cycles whose pool memory provably returns to
//! baseline. Robustness: malformed frames, oversized frames, and
//! mid-frame disconnects produce typed errors or clean closes, never a
//! wedged or crashed daemon.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use cfd_repair::RepairOptions;
use cfd_server::{
    Client, ErrorKind, RepairSpec, Request, Response, Server, ServerConfig, DEFAULT_MAX_FRAME,
};
use cfdclean::DatasetHandle;

const FIXTURES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures");

fn fixture(name: &str) -> Vec<u8> {
    std::fs::read(Path::new(FIXTURES).join(name)).expect(name)
}

fn rules_text() -> String {
    String::from_utf8(fixture("cust_rules.txt")).expect("rules are UTF-8")
}

/// The serial one-shot equivalent of opening the `cust` fixtures — the
/// exact path `cfdclean detect`/`repair` runs.
fn one_shot_cust() -> DatasetHandle {
    let mut h = DatasetHandle::from_csv("cust", &fixture("cust_dirty.csv")).expect("fixture CSV");
    h.apply_weights(&fixture("cust_weights.csv"))
        .expect("fixture weights");
    h.bind_rules(&rules_text(), "rules").expect("fixture rules");
    h
}

fn open_cust_request(name: &str) -> Request {
    Request::Open {
        name: name.to_string(),
        csv: fixture("cust_dirty.csv"),
        rules: Some(rules_text()),
        weights: Some(fixture("cust_weights.csv")),
    }
}

struct Daemon {
    addr: SocketAddr,
    handle: thread::JoinHandle<()>,
}

fn start(config: ServerConfig) -> Daemon {
    let server = Arc::new(Server::new(config).expect("server config"));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let handle = thread::spawn(move || {
        server.serve_tcp(listener).expect("serve loop");
    });
    Daemon { addr, handle }
}

impl Daemon {
    fn client(&self) -> Client {
        Client::connect_tcp(self.addr).expect("connect")
    }

    fn stop(self) {
        let mut c = self.client();
        let _ = c.request(&Request::Shutdown);
        self.handle.join().expect("serve thread exits cleanly");
    }
}

fn ok(resp: Response) -> (String, Vec<Vec<u8>>) {
    match resp {
        Response::Ok { text, blobs } => (text, blobs),
        Response::Err { kind, message } => panic!("unexpected error {kind:?}: {message}"),
    }
}

fn err(resp: Response) -> (ErrorKind, String) {
    match resp {
        Response::Err { kind, message } => (kind, message),
        Response::Ok { text, .. } => panic!("unexpected success: {text}"),
    }
}

#[test]
fn golden_cust_pipeline_through_the_client_matches_the_fixtures() {
    let daemon = start(ServerConfig::default());
    let mut c = daemon.client();

    let (text, _) = ok(c.request(&open_cust_request("cust")).unwrap());
    assert_eq!(text, "opened \"cust\": 4 tuple(s)");

    // Detect: byte-identical to the one-shot facade (and thus the CLI).
    let expected = one_shot_cust();
    let (detect_text, _) = ok(c
        .request(&Request::Detect {
            dataset: "cust".into(),
            limit: 5,
        })
        .unwrap());
    assert_eq!(detect_text, expected.detect_report(5).unwrap());

    // Repair: the CSV and edit-log attachments equal the committed
    // fixtures pinned by the golden suites.
    let (repair_text, blobs) = ok(c
        .request(&Request::Repair {
            dataset: "cust".into(),
            spec: RepairSpec::default(),
            want_edits: true,
            want_stats: true,
        })
        .unwrap());
    assert_eq!(blobs.len(), 2, "repair answers [csv, edit_log]");
    assert_eq!(
        blobs[0],
        fixture("cust_repaired.csv"),
        "repair CSV diverged"
    );
    assert_eq!(blobs[1], fixture("cust_repair.cfde"), "edit log diverged");
    let run = expected.repair(&RepairOptions::new().k(2), true).unwrap();
    assert_eq!(
        repair_text,
        format!("{}\n  {}", run.summary(), run.detail),
        "stats line diverged from the one-shot run"
    );

    // The resident dataset was not mutated by the repair.
    let (again, _) = ok(c
        .request(&Request::Detect {
            dataset: "cust".into(),
            limit: 5,
        })
        .unwrap());
    assert_eq!(again, detect_text);

    daemon.stop();
}

#[test]
fn concurrent_connections_interleave_without_perturbing_results() {
    let daemon = start(ServerConfig::default());
    let mut setup = daemon.client();
    ok(setup.request(&open_cust_request("cust")).unwrap());
    // A second dataset whose inserts exercise the write-lock path while
    // the readers hammer `cust`: base = the clean repair fixture.
    ok(setup
        .request(&Request::Open {
            name: "clean".into(),
            csv: fixture("cust_repaired.csv"),
            rules: Some(rules_text()),
            weights: None,
        })
        .unwrap());

    let expected = one_shot_cust();
    let detect_expected = expected.detect_report(5).unwrap();
    let repair_expected = fixture("cust_repaired.csv");

    // The insert delta: one row consistent with the rules' zip pattern.
    let delta = b"id,name,PR,AC,PN,STR,CT,ST,zip\n\
                  c9,Quinn,p1,212,5551000,Fifth Ave,NYC,NY,10012\n"
        .to_vec();
    let mut probe = daemon.client();
    let (insert_expected_text, insert_expected_blobs) = ok(probe
        .request(&Request::Insert {
            dataset: "clean".into(),
            csv: delta.clone(),
            weights: None,
            ordering: b'v',
            k: 2,
        })
        .unwrap());

    let addr = daemon.addr;
    let workers: Vec<_> = (0..4)
        .map(|w| {
            let detect_expected = detect_expected.clone();
            let repair_expected = repair_expected.clone();
            let insert_expected_text = insert_expected_text.clone();
            let insert_expected_blobs = insert_expected_blobs.clone();
            let delta = delta.clone();
            thread::spawn(move || {
                let mut c = Client::connect_tcp(addr).expect("worker connect");
                for round in 0..6 {
                    if w % 2 == 0 {
                        // Readers: pipelined detect + repair share the
                        // dataset's read lock.
                        let responses = c
                            .batch(&[
                                Request::Detect {
                                    dataset: "cust".into(),
                                    limit: 5,
                                },
                                Request::Repair {
                                    dataset: "cust".into(),
                                    spec: RepairSpec::default(),
                                    want_edits: false,
                                    want_stats: false,
                                },
                            ])
                            .expect("pipelined batch");
                        let [detect, repair]: [Response; 2] =
                            responses.try_into().expect("two responses");
                        let (text, _) = match detect {
                            Response::Ok { text, blobs } => (text, blobs),
                            Response::Err { kind, message } => {
                                panic!("worker {w} round {round}: {kind:?} {message}")
                            }
                        };
                        assert_eq!(text, detect_expected, "worker {w} round {round} detect");
                        match repair {
                            Response::Ok { blobs, .. } => {
                                assert_eq!(
                                    blobs[0], repair_expected,
                                    "worker {w} round {round} repair"
                                )
                            }
                            Response::Err { kind, message } => {
                                panic!("worker {w} round {round}: {kind:?} {message}")
                            }
                        }
                    } else {
                        // Writers: inserts serialize on `clean`'s write
                        // lock; each gives its pool slots back, so every
                        // answer is identical.
                        match c
                            .request(&Request::Insert {
                                dataset: "clean".into(),
                                csv: delta.clone(),
                                weights: None,
                                ordering: b'v',
                                k: 2,
                            })
                            .expect("insert request")
                        {
                            Response::Ok { text, blobs } => {
                                assert_eq!(text, insert_expected_text, "worker {w} round {round}");
                                assert_eq!(
                                    blobs, insert_expected_blobs,
                                    "worker {w} round {round} merge bytes"
                                );
                            }
                            Response::Err { kind, message } => {
                                panic!("worker {w} round {round}: {kind:?} {message}")
                            }
                        }
                    }
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("worker thread");
    }

    // After all the interleaving, the resident state still answers the
    // serial baseline.
    let (text, _) = ok(probe
        .request(&Request::Detect {
            dataset: "cust".into(),
            limit: 5,
        })
        .unwrap());
    assert_eq!(text, detect_expected);
    daemon.stop();
}

#[test]
fn evict_loop_returns_the_pool_to_baseline_every_round() {
    let daemon = start(ServerConfig::default());
    let mut c = daemon.client();
    let mut baseline = None;
    for round in 0..3 {
        ok(c.request(&open_cust_request("cust")).unwrap());
        let (_, blobs) = ok(c
            .request(&Request::Repair {
                dataset: "cust".into(),
                spec: RepairSpec::default(),
                want_edits: false,
                want_stats: false,
            })
            .unwrap());
        assert_eq!(blobs[0], fixture("cust_repaired.csv"));
        let (evict_text, _) = ok(c
            .request(&Request::Evict {
                dataset: "cust".into(),
            })
            .unwrap());
        assert!(
            evict_text.contains("pool 1 value(s)"),
            "round {round}: only null survives eviction, got: {evict_text}"
        );
        match &baseline {
            None => baseline = Some(evict_text),
            Some(b) => assert_eq!(&evict_text, b, "round {round} reclaimed differently"),
        }
        // The name is free again; the next round's open must succeed
        // (asserted by `ok` at the top of the loop).
        let (kind, _) = err(c
            .request(&Request::Detect {
                dataset: "cust".into(),
                limit: 5,
            })
            .unwrap());
        assert_eq!(kind, ErrorKind::UnknownDataset);
    }
    daemon.stop();
}

#[test]
fn lru_capacity_evicts_through_the_wire() {
    let daemon = start(ServerConfig {
        capacity: Some(1),
        ..ServerConfig::default()
    });
    let mut c = daemon.client();
    ok(c.request(&open_cust_request("a")).unwrap());
    let (text, _) = ok(c.request(&open_cust_request("b")).unwrap());
    assert!(
        text.starts_with("opened \"b\": 4 tuple(s)\nevicted \"a\":"),
        "open must report the LRU eviction, got: {text}"
    );
    let (stats, _) = ok(c.request(&Request::Stats).unwrap());
    assert_eq!(
        stats,
        "resident 1 dataset(s): b\ncapacity 1\nauto-evictions 1"
    );
    daemon.stop();
}

#[test]
fn snapshot_save_evict_reload_round_trips_through_the_catalog() {
    let dir = std::env::temp_dir().join(format!("cfd-server-catalog-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let daemon = start(ServerConfig {
        catalog: Some(PathBuf::from(&dir)),
        ..ServerConfig::default()
    });
    let mut c = daemon.client();
    ok(c.request(&open_cust_request("cust")).unwrap());
    let (save_text, _) = ok(c
        .request(&Request::SnapshotSave {
            dataset: "cust".into(),
            as_name: "gold".into(),
        })
        .unwrap());
    assert!(save_text.starts_with("saved 4 tuple(s) as dataset \"gold\" -> "));
    ok(c.request(&Request::Evict {
        dataset: "cust".into(),
    })
    .unwrap());

    // Reload from the catalog: embedded rules bind automatically and the
    // repair still matches the committed fixture.
    let (text, _) = ok(c
        .request(&Request::OpenSnapshot {
            name: "gold".into(),
            as_name: None,
        })
        .unwrap());
    assert_eq!(text, "opened snapshot \"gold\": 4 tuple(s)");
    let (_, blobs) = ok(c
        .request(&Request::Repair {
            dataset: "gold".into(),
            spec: RepairSpec::default(),
            want_edits: false,
            want_stats: false,
        })
        .unwrap());
    assert_eq!(blobs[0], fixture("cust_repaired.csv"));

    let (info, _) = ok(c
        .request(&Request::SnapshotInfo {
            name: Some("gold".into()),
        })
        .unwrap());
    assert!(info.starts_with("dataset \"gold\"\n"));
    assert!(info.contains("rules      embedded"));
    // Per-segment byte sizes and checksum status, one line per frame
    // in file order.
    for seg in ["META", "RULES", "DICT", "COLS", "VALIDITY"] {
        assert!(
            info.contains(&format!("segment    {seg:<8}")),
            "info must list the {seg} segment, got:\n{info}"
        );
    }
    assert!(info.contains("checksum ok"));
    assert!(!info.contains("checksum BAD"));
    let (listing, _) = ok(c.request(&Request::SnapshotInfo { name: None }).unwrap());
    assert!(listing.starts_with("gold: 4 live tuple(s)"));

    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn two_snapshot_opens_of_one_file_repair_alike() {
    let dir = std::env::temp_dir().join(format!("cfd-server-twoopen-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let daemon = start(ServerConfig {
        catalog: Some(PathBuf::from(&dir)),
        ..ServerConfig::default()
    });
    let mut c = daemon.client();
    ok(c.request(&open_cust_request("cust")).unwrap());
    ok(c.request(&Request::SnapshotSave {
        dataset: "cust".into(),
        as_name: "gold".into(),
    })
    .unwrap());
    ok(c.request(&Request::Evict {
        dataset: "cust".into(),
    })
    .unwrap());

    // Open the same snapshot twice: once under its own name, once under
    // an alias.
    let (text, _) = ok(c
        .request(&Request::OpenSnapshot {
            name: "gold".into(),
            as_name: None,
        })
        .unwrap());
    assert_eq!(text, "opened snapshot \"gold\": 4 tuple(s)");
    let (text, _) = ok(c
        .request(&Request::OpenSnapshot {
            name: "gold".into(),
            as_name: Some("gold2".into()),
        })
        .unwrap());
    assert_eq!(text, "opened snapshot \"gold\" as \"gold2\": 4 tuple(s)");

    let (stats, _) = ok(c.request(&Request::Stats).unwrap());
    assert!(
        stats.starts_with("resident 2 dataset(s): gold, gold2\n"),
        "both datasets must be resident, got: {stats}"
    );

    // Both datasets answer identical repairs.
    let mut repairs = Vec::new();
    for name in ["gold", "gold2"] {
        let (_, blobs) = ok(c
            .request(&Request::Repair {
                dataset: name.into(),
                spec: RepairSpec::default(),
                want_edits: false,
                want_stats: false,
            })
            .unwrap());
        assert_eq!(blobs[0], fixture("cust_repaired.csv"), "repair of {name}");
        repairs.push(blobs[0].clone());
    }
    assert_eq!(repairs[0], repairs[1]);

    // Evicting one dataset leaves the other resident and repairing.
    ok(c.request(&Request::Evict {
        dataset: "gold".into(),
    })
    .unwrap());
    let (stats, _) = ok(c.request(&Request::Stats).unwrap());
    assert!(
        stats.starts_with("resident 1 dataset(s): gold2\n"),
        "the survivor must stay resident, got: {stats}"
    );
    let (_, blobs) = ok(c
        .request(&Request::Repair {
            dataset: "gold2".into(),
            spec: RepairSpec::default(),
            want_edits: false,
            want_stats: false,
        })
        .unwrap());
    assert_eq!(blobs[0], fixture("cust_repaired.csv"));

    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn requests_without_a_catalog_answer_the_typed_error() {
    let daemon = start(ServerConfig::default());
    let mut c = daemon.client();
    let (kind, message) = err(c.request(&Request::SnapshotInfo { name: None }).unwrap());
    assert_eq!(kind, ErrorKind::NoCatalog);
    assert_eq!(message, "no snapshot catalog is attached to this session");
    daemon.stop();
}

/// Hand-write a frame to a raw socket (bypassing the client's codec) so
/// the server's framing is tested against arbitrary bytes.
fn raw_frame(stream: &mut TcpStream, payload: &[u8]) {
    stream
        .write_all(&(payload.len() as u32).to_le_bytes())
        .unwrap();
    stream.write_all(payload).unwrap();
    stream.flush().unwrap();
}

fn raw_response(stream: &mut TcpStream) -> Option<Response> {
    let mut len = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match stream.read(&mut len[got..]).unwrap() {
            0 if got == 0 => return None,
            0 => panic!("truncated response frame"),
            n => got += n,
        }
    }
    let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
    stream.read_exact(&mut payload).unwrap();
    Some(cfd_server::decode_response(&payload).expect("response decodes"))
}

#[test]
fn malformed_oversized_and_disconnecting_peers_never_wedge_the_daemon() {
    let daemon = start(ServerConfig::default());

    // A malformed payload inside an intact frame: typed error, and the
    // connection keeps serving.
    let mut s = TcpStream::connect(daemon.addr).unwrap();
    raw_frame(&mut s, &[0xff]);
    let (kind, message) = err(raw_response(&mut s).expect("error response"));
    assert_eq!(kind, ErrorKind::Protocol);
    assert!(message.contains("unknown opcode 0xff"), "got: {message}");
    raw_frame(&mut s, &cfd_server::encode_request(&Request::Ping));
    let (text, _) = ok(raw_response(&mut s).expect("ping response"));
    assert_eq!(text, "pong");

    // Trailing garbage after a complete request: same contract.
    let mut trailing = cfd_server::encode_request(&Request::List);
    trailing.push(0x00);
    raw_frame(&mut s, &trailing);
    let (kind, _) = err(raw_response(&mut s).expect("error response"));
    assert_eq!(kind, ErrorKind::Protocol);

    // An oversized length prefix: refused before allocation, answered,
    // then the connection closes (the frame boundary is lost).
    let mut s2 = TcpStream::connect(daemon.addr).unwrap();
    s2.write_all(&((DEFAULT_MAX_FRAME as u32) + 1).to_le_bytes())
        .unwrap();
    s2.flush().unwrap();
    let (kind, message) = err(raw_response(&mut s2).expect("oversized reply"));
    assert_eq!(kind, ErrorKind::Protocol);
    assert!(message.contains("oversized frame"), "got: {message}");
    assert!(
        raw_response(&mut s2).is_none(),
        "connection must close after an oversized frame"
    );

    // A mid-frame disconnect: the peer dies with half a frame written.
    let mut s3 = TcpStream::connect(daemon.addr).unwrap();
    s3.write_all(&100u32.to_le_bytes()).unwrap();
    s3.write_all(&[1, 2, 3]).unwrap();
    s3.flush().unwrap();
    drop(s3);

    // The daemon survives all of it.
    let mut c = daemon.client();
    let (text, _) = ok(c.request(&Request::Ping).unwrap());
    assert_eq!(text, "pong");
    daemon.stop();
}

#[test]
fn daemon_streams_equal_in_process_sessions_byte_for_byte() {
    use cfdclean::StreamConfig;

    // Clean base (streams demand one) + the same fixture rules.
    let open_clean = Request::Open {
        name: "live".into(),
        csv: fixture("cust_repaired.csv"),
        rules: Some(rules_text()),
        weights: None,
    };
    // Window 0: one dirty arrival (AC 212 pins NYC/NY) and one clean.
    // Window 1: another dirty arrival plus a delete of the w0 clean one.
    let w0 = "i 1 c7,Quinn,9.99,212,5550001,Fifth,PHI,PA,10012\n\
              i 4 c8,Ray,5.00,212,5550002,Fifth,NYC,NY,10012\n";
    let w1 = "i 12 c9,Sam,7.50,215,5550003,Walnut,NYC,NY,19014\n";

    // The in-process reference run.
    let mut h = DatasetHandle::from_csv("live", &fixture("cust_repaired.csv")).unwrap();
    h.bind_rules(&rules_text(), "rules").unwrap();
    let info = h.open_stream(StreamConfig::tumbling(10)).unwrap();
    let delete_clean = format!("d 13 {}\n", info.next_tuple_id + 1);
    let accepted0 = h.stream_feed(w0).unwrap();
    let local_w0 = h.stream_advance(10).unwrap();
    let accepted1 = h.stream_feed(&format!("{w1}{delete_clean}")).unwrap();
    let (local_flushed, local_report) = h.stream_close().unwrap();
    assert_eq!(local_w0.len(), 1);
    assert_eq!(local_flushed.len(), 1);
    assert!(local_w0[0].edits > 0, "the dirty arrival must be repaired");

    // The same sequence over the wire.
    let daemon = start(ServerConfig::default());
    let mut c = daemon.client();
    ok(c.request(&open_clean).unwrap());
    let (open_text, _) = ok(c
        .request(&Request::StreamOpen {
            dataset: "live".into(),
            size: 10,
            slide: 10,
            ordering: b'v',
            k: 1,
        })
        .unwrap());
    assert_eq!(open_text, info.summary());
    let (feed_text, _) = ok(c
        .request(&Request::StreamFeed {
            dataset: "live".into(),
            events: w0.as_bytes().to_vec(),
        })
        .unwrap());
    assert_eq!(feed_text, format!("accepted {accepted0} event(s)"));
    let (advance_text, advance_blobs) = ok(c
        .request(&Request::StreamAdvance {
            dataset: "live".into(),
            watermark: 10,
        })
        .unwrap());
    assert_eq!(advance_text, local_w0[0].summary());
    assert_eq!(
        advance_blobs,
        vec![local_w0[0].edit_log.clone()],
        "window 0 edit log diverged from the in-process stream"
    );
    let (feed_text, _) = ok(c
        .request(&Request::StreamFeed {
            dataset: "live".into(),
            events: format!("{w1}{delete_clean}").into_bytes(),
        })
        .unwrap());
    assert_eq!(feed_text, format!("accepted {accepted1} event(s)"));
    let (close_text, close_blobs) = ok(c
        .request(&Request::StreamClose {
            dataset: "live".into(),
        })
        .unwrap());
    assert_eq!(
        close_text,
        format!("{}\n{}", local_flushed[0].summary(), local_report.summary())
    );
    assert_eq!(close_blobs, vec![local_flushed[0].edit_log.clone()]);

    // Stream ops on a streamless dataset answer the typed kind.
    let (kind, _) = err(c
        .request(&Request::StreamFeed {
            dataset: "live".into(),
            events: b"i 1 x".to_vec(),
        })
        .unwrap());
    assert_eq!(kind, ErrorKind::Stream);
    // An advance past u8::MAX windows of queued events is impossible to
    // ship; geometry errors are typed too.
    let (kind, _) = err(c
        .request(&Request::StreamOpen {
            dataset: "live".into(),
            size: 5,
            slide: 9,
            ordering: b'v',
            k: 1,
        })
        .unwrap());
    assert_eq!(kind, ErrorKind::Stream);
    daemon.stop();
}

#[test]
fn zero_timeout_answers_typed_timeout_without_wedging_the_connection() {
    let daemon = start(ServerConfig {
        request_timeout: Some(Duration::ZERO),
        ..ServerConfig::default()
    });
    let mut c = daemon.client();
    // The open still happens server-side; its reply races the zero
    // deadline, so only the repair's reply is asserted.
    let _ = c.request(&open_cust_request("cust")).unwrap();
    let (kind, message) = err(c
        .request(&Request::Repair {
            dataset: "cust".into(),
            spec: RepairSpec::default(),
            want_edits: false,
            want_stats: false,
        })
        .unwrap());
    assert_eq!(kind, ErrorKind::Timeout);
    assert!(message.contains("timed out"), "got: {message}");
    // The connection still answers in order — the stale repair result is
    // discarded by sequence number, never delivered as this reply.
    let resp = c.request(&Request::Ping).unwrap();
    match resp {
        Response::Ok { text, .. } => assert_eq!(text, "pong"),
        Response::Err { kind, .. } => assert_eq!(kind, ErrorKind::Timeout),
    }
    daemon.stop();
}
