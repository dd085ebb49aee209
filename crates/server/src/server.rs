//! The resident daemon: a [`Session`] kept warm behind a socket.
//!
//! One listener thread accepts connections; each connection gets two
//! threads — an **I/O thread** that owns the stream (frame reads, frame
//! writes, protocol-error replies) and a **worker thread** that executes
//! requests against the shared session. The split is what makes
//! per-request timeouts honest: the I/O thread waits on the worker's
//! result channel with a deadline and answers `Timeout` if it passes;
//! the worker finishes the computation in the background (it may hold a
//! dataset lock until then) and its stale result is discarded by
//! sequence number. Nothing is ever killed mid-repair, so locks are
//! never poisoned by the timeout path.
//!
//! Concurrency follows the facade's locking model: detect and repair
//! requests take a dataset's read lock and run concurrently; insert and
//! evict take the write lock and serialize. Requests on one connection
//! are processed in order (pipelining is the batching mechanism — see
//! [`crate::client::Client::batch`]); concurrency comes from opening
//! multiple connections.

use std::io::{self, Read, Write};
use std::net::TcpListener;
#[cfg(unix)]
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use cfd_model::Catalog;
use cfd_repair::{Algorithm, Ordering, PickStrategy, RepairOptions};
use cfdclean::{read_cell, write_cell, Session, SessionError, StreamConfig, WindowResult};

use crate::protocol::{
    decode_request, encode_response, read_frame, write_frame, ErrorKind, ProtoError, RepairSpec,
    Request, Response, DEFAULT_MAX_FRAME,
};

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Snapshot catalog directory (enables the snapshot opcodes).
    pub catalog: Option<PathBuf>,
    /// LRU residency bound; `None` = unbounded.
    pub capacity: Option<usize>,
    /// Per-connection frame-size limit.
    pub max_frame: usize,
    /// Per-request deadline; `None` = wait forever.
    pub request_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            catalog: None,
            capacity: None,
            max_frame: DEFAULT_MAX_FRAME,
            request_timeout: None,
        }
    }
}

/// How the listener can be poked awake after a shutdown request flips
/// the flag (accept is blocking; a throwaway connection unblocks it).
#[derive(Clone)]
enum Wake {
    Tcp(std::net::SocketAddr),
    #[cfg(unix)]
    Unix(PathBuf),
}

impl Wake {
    fn poke(&self) {
        match self {
            Wake::Tcp(addr) => {
                let _ = std::net::TcpStream::connect(addr);
            }
            #[cfg(unix)]
            Wake::Unix(path) => {
                let _ = std::os::unix::net::UnixStream::connect(path);
            }
        }
    }
}

/// The daemon: shared session + configuration + shutdown flag. Cheap to
/// clone into connection threads via the inner `Arc`s.
pub struct Server {
    session: Arc<Session>,
    max_frame: usize,
    request_timeout: Option<Duration>,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Build a server (opening the catalog when configured).
    pub fn new(config: ServerConfig) -> Result<Server, SessionError> {
        let mut session = Session::new();
        if let Some(dir) = &config.catalog {
            let catalog = Catalog::open(dir).map_err(|e| {
                SessionError::Snapshot(format!("cannot open catalog {}: {e}", dir.display()))
            })?;
            session = session.with_catalog(catalog);
        }
        if let Some(cap) = config.capacity {
            session = session.with_capacity(cap);
        }
        Ok(Server {
            session: Arc::new(session),
            max_frame: config.max_frame,
            request_timeout: config.request_timeout,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The shared session (tests inspect residency through this).
    pub fn session(&self) -> &Arc<Session> {
        &self.session
    }

    /// The shutdown flag; setting it plus poking the listener ends
    /// [`serve_tcp`](Server::serve_tcp) / [`serve_unix`](Server::serve_unix).
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        self.shutdown.clone()
    }

    /// Serve connections on a bound TCP listener until a shutdown
    /// request arrives. Blocks the calling thread.
    pub fn serve_tcp(&self, listener: TcpListener) -> io::Result<()> {
        let wake = Wake::Tcp(listener.local_addr()?);
        for conn in listener.incoming() {
            if self.shutdown.load(AtomicOrdering::SeqCst) {
                break;
            }
            match conn {
                Ok(stream) => {
                    // One frame is written as two small syscalls (length
                    // prefix, payload); without TCP_NODELAY the second
                    // waits out Nagle against the peer's delayed ACK
                    // (~40 ms per response on loopback).
                    let _ = stream.set_nodelay(true);
                    self.spawn_connection(stream, wake.clone())
                }
                Err(_) => continue,
            }
        }
        Ok(())
    }

    /// Serve connections on a bound Unix-domain listener until a
    /// shutdown request arrives. Blocks the calling thread. The socket
    /// file is left for the caller to unlink.
    #[cfg(unix)]
    pub fn serve_unix(&self, listener: UnixListener, path: PathBuf) -> io::Result<()> {
        let wake = Wake::Unix(path);
        for conn in listener.incoming() {
            if self.shutdown.load(AtomicOrdering::SeqCst) {
                break;
            }
            match conn {
                Ok(stream) => self.spawn_connection(stream, wake.clone()),
                Err(_) => continue,
            }
        }
        Ok(())
    }

    fn spawn_connection<S: Read + Write + Send + 'static>(&self, stream: S, wake: Wake) {
        let session = self.session.clone();
        let shutdown = self.shutdown.clone();
        let max_frame = self.max_frame;
        let timeout = self.request_timeout;
        thread::spawn(move || {
            handle_connection(session, stream, max_frame, timeout, shutdown, wake);
        });
    }
}

/// The per-connection I/O loop. See the module docs for the two-thread
/// timeout design.
fn handle_connection<S: Read + Write>(
    session: Arc<Session>,
    mut stream: S,
    max_frame: usize,
    timeout: Option<Duration>,
    shutdown: Arc<AtomicBool>,
    wake: Wake,
) {
    let (req_tx, req_rx) = mpsc::channel::<(u64, Request)>();
    let (res_tx, res_rx) = mpsc::channel::<(u64, Response)>();
    let worker_session = session.clone();
    // Detached on purpose: if the connection dies while a repair is in
    // flight, the worker finishes (releasing its dataset lock) and then
    // exits when the request channel hangs up.
    thread::spawn(move || {
        for (seq, req) in req_rx {
            let resp = execute(&worker_session, &req);
            if res_tx.send((seq, resp)).is_err() {
                break;
            }
        }
    });

    let mut seq: u64 = 0;
    loop {
        let frame = match read_frame(&mut stream, max_frame) {
            Ok(Some(frame)) => frame,
            // Clean disconnect, mid-frame disconnect, transport error:
            // nothing sensible to reply to — exit and let the worker
            // drain.
            Ok(None) | Err(ProtoError::Truncated) | Err(ProtoError::Io(_)) => return,
            Err(e @ ProtoError::Oversized { .. }) => {
                // The offending payload was never read, so the frame
                // boundary is lost — answer and close.
                let _ = reply(
                    &mut stream,
                    &Response::err(ErrorKind::Protocol, e.to_string()),
                    max_frame,
                );
                return;
            }
            Err(e) => {
                let _ = reply(
                    &mut stream,
                    &Response::err(ErrorKind::Protocol, e.to_string()),
                    max_frame,
                );
                return;
            }
        };
        // Frame boundaries intact — a malformed payload is answered and
        // the connection continues.
        let req = match decode_request(&frame) {
            Ok(req) => req,
            Err(e) => {
                let ok = reply(
                    &mut stream,
                    &Response::err(ErrorKind::Protocol, format!("malformed request: {e}")),
                    max_frame,
                );
                if ok {
                    continue;
                }
                return;
            }
        };
        if matches!(req, Request::Shutdown) {
            // Answered inline, before the listener is poked: the poke
            // lets the accept loop (and typically the whole process)
            // exit, which must not race the reply onto a dead socket.
            let _ = reply(&mut stream, &Response::ok("shutting down"), max_frame);
            shutdown.store(true, AtomicOrdering::SeqCst);
            wake.poke();
            return;
        }
        seq += 1;
        if req_tx.send((seq, req)).is_err() {
            let _ = reply(
                &mut stream,
                &Response::err(ErrorKind::Internal, "request worker exited"),
                max_frame,
            );
            return;
        }
        let resp = await_result(&res_rx, seq, timeout);
        if !reply(&mut stream, &resp, max_frame) {
            return;
        }
    }
}

/// Wait for the worker's answer to request `seq`, discarding stale
/// results from previously timed-out requests.
fn await_result(
    res_rx: &mpsc::Receiver<(u64, Response)>,
    seq: u64,
    timeout: Option<Duration>,
) -> Response {
    let deadline = timeout.map(|t| Instant::now() + t);
    loop {
        let next = match deadline {
            Some(d) => res_rx.recv_timeout(d.saturating_duration_since(Instant::now())),
            None => res_rx
                .recv()
                .map_err(|_| mpsc::RecvTimeoutError::Disconnected),
        };
        match next {
            Ok((s, resp)) if s == seq => return resp,
            Ok(_) => continue, // stale result of a timed-out predecessor
            Err(mpsc::RecvTimeoutError::Timeout) => {
                return Response::err(
                    ErrorKind::Timeout,
                    format!(
                        "request timed out after {:?} (still executing; later requests queue behind it)",
                        timeout.expect("deadline implies timeout")
                    ),
                );
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                return Response::err(ErrorKind::Internal, "request worker exited");
            }
        }
    }
}

fn reply<S: Write>(stream: &mut S, resp: &Response, max_frame: usize) -> bool {
    write_frame(stream, &encode_response(resp), max_frame).is_ok()
}

fn kind_of(e: &SessionError) -> ErrorKind {
    match e {
        SessionError::UnknownDataset(_) => ErrorKind::UnknownDataset,
        SessionError::AlreadyOpen(_) => ErrorKind::AlreadyOpen,
        SessionError::Evicted(_) => ErrorKind::Evicted,
        SessionError::NoRules(_) => ErrorKind::NoRules,
        SessionError::NoCatalog => ErrorKind::NoCatalog,
        SessionError::Data(_) => ErrorKind::Data,
        SessionError::Rules(_) => ErrorKind::Rules,
        SessionError::Snapshot(_) => ErrorKind::Snapshot,
        SessionError::Repair(_) => ErrorKind::Repair,
        SessionError::Internal(_) => ErrorKind::Internal,
        SessionError::Poisoned(_) => ErrorKind::Poisoned,
        SessionError::Stream(_) => ErrorKind::Stream,
    }
}

fn parse_ordering(byte: u8) -> Result<Ordering, SessionError> {
    match byte {
        b'v' => Ok(Ordering::Violations),
        b'w' => Ok(Ordering::Weight),
        b'l' => Ok(Ordering::Linear),
        other => Err(SessionError::Data(format!(
            "unknown ordering {:?} (v, w, l)",
            other as char
        ))),
    }
}

/// Pack closed-window results into one response: summaries (plus an
/// optional trailer line) as the text, one `.cfde` edit log per window
/// as the blobs. The blob count field is a `u8`, so more than 255
/// event-bearing windows cannot ride one response — the caller must
/// advance in smaller watermark steps.
fn window_response(
    results: Vec<WindowResult>,
    trailer: Option<String>,
) -> Result<Response, SessionError> {
    if results.len() > 255 {
        return Err(SessionError::Stream(format!(
            "{} windows closed at once; a response carries at most 255 — advance in smaller watermark steps",
            results.len()
        )));
    }
    let mut lines: Vec<String> = Vec::new();
    let mut blobs = Vec::with_capacity(results.len());
    if results.is_empty() {
        lines.push("no window closed".to_string());
    }
    for r in results {
        lines.push(r.summary());
        blobs.push(r.edit_log);
    }
    lines.extend(trailer);
    Ok(Response::Ok {
        text: lines.join("\n"),
        blobs,
    })
}

/// Lower a wire [`RepairSpec`] to [`RepairOptions`], rejecting unknown
/// spellings with the CLI's error texts.
fn spec_to_options(spec: &RepairSpec) -> Result<RepairOptions, SessionError> {
    let algorithm: Algorithm = spec.algorithm.parse().map_err(|_| {
        SessionError::Data(format!(
            "unknown algorithm {:?} (batch, v-inc, w-inc, l-inc)",
            spec.algorithm
        ))
    })?;
    let pick: PickStrategy = spec.pick.parse().map_err(SessionError::Data)?;
    Ok(RepairOptions::new()
        .algorithm(algorithm)
        .pick(pick)
        .k(spec.k as usize))
}

/// Execute one request against the session. Every [`SessionError`]
/// becomes a typed error response; this function never panics on user
/// input.
fn execute(session: &Session, req: &Request) -> Response {
    match run(session, req) {
        Ok(resp) => resp,
        Err(e) => Response::err(kind_of(&e), e.to_string()),
    }
}

fn run(session: &Session, req: &Request) -> Result<Response, SessionError> {
    use std::fmt::Write as _;
    match req {
        Request::Ping => Ok(Response::ok("pong")),
        Request::Open {
            name,
            csv,
            rules,
            weights,
        } => {
            let installed = session.open_csv(name, csv, rules.as_deref(), weights.as_deref())?;
            let tuples = {
                let cell = read_cell(&installed.entry)?;
                cell.handle()?.relation().len()
            };
            let mut text = format!("opened {name:?}: {tuples} tuple(s)");
            for report in &installed.evicted {
                let _ = write!(text, "\n{}", report.summary());
            }
            Ok(Response::ok(text))
        }
        Request::OpenSnapshot { name, as_name } => {
            let installed = session.open_snapshot_as(name, as_name.as_deref())?;
            let tuples = {
                let cell = read_cell(&installed.entry)?;
                cell.handle()?.relation().len()
            };
            let mut text = match as_name {
                Some(alias) => {
                    format!("opened snapshot {name:?} as {alias:?}: {tuples} tuple(s)")
                }
                None => format!("opened snapshot {name:?}: {tuples} tuple(s)"),
            };
            for report in &installed.evicted {
                let _ = write!(text, "\n{}", report.summary());
            }
            Ok(Response::ok(text))
        }
        Request::Detect { dataset, limit } => {
            let entry = session.get(dataset)?;
            let cell = read_cell(&entry)?;
            let text = cell.handle()?.detect_report(*limit as usize)?;
            Ok(Response::ok(text))
        }
        Request::Repair {
            dataset,
            spec,
            want_edits,
            want_stats,
        } => {
            let opts = spec_to_options(spec)?;
            let entry = session.get(dataset)?;
            let cell = read_cell(&entry)?;
            let run = cell.handle()?.repair(&opts, *want_edits)?;
            let mut text = run.summary();
            if *want_stats {
                let _ = write!(text, "\n  {}", run.detail);
            }
            let mut blobs = vec![run.csv];
            if let Some(log) = run.edit_log {
                blobs.push(log);
            }
            Ok(Response::Ok { text, blobs })
        }
        Request::Insert {
            dataset,
            csv,
            weights,
            ordering,
            k,
        } => {
            let ordering = parse_ordering(*ordering)?;
            let entry = session.get(dataset)?;
            let mut cell = write_cell(&entry)?;
            let run = cell
                .handle_mut()?
                .insert(csv, weights.as_deref(), ordering, *k as usize)?;
            Ok(Response::Ok {
                text: run.summary(),
                blobs: vec![run.csv],
            })
        }
        Request::SnapshotSave { dataset, as_name } => {
            let (path, tuples) = session.save_snapshot(dataset, as_name)?;
            Ok(Response::ok(format!(
                "saved {tuples} tuple(s) as dataset {as_name:?} -> {}",
                path.display()
            )))
        }
        Request::SnapshotInfo { name } => Ok(Response::ok(snapshot_info_text(session, name)?)),
        Request::Evict { dataset } => {
            let report = session.evict(dataset)?;
            Ok(Response::ok(report.summary()))
        }
        Request::List => Ok(Response::ok(session.names().join("\n"))),
        Request::Stats => {
            let stats = session.stats();
            let mut text = format!("resident {} dataset(s)", stats.resident.len());
            if !stats.resident.is_empty() {
                let _ = write!(text, ": {}", stats.resident.join(", "));
            }
            match stats.capacity {
                Some(cap) => {
                    let _ = write!(text, "\ncapacity {cap}");
                }
                None => text.push_str("\ncapacity unbounded"),
            }
            let _ = write!(text, "\nauto-evictions {}", stats.auto_evictions);
            // Mapping accounting appends only when something is mapped,
            // so the baseline stats text (pinned by golden fixtures and
            // the LRU integration test) is unchanged for CSV-only use.
            if stats.mappings > 0 {
                let _ = write!(
                    text,
                    "\nmappings {}: {} dataset(s) mapped, {} mapped byte(s), {} owned byte(s)",
                    stats.mappings, stats.mapped_datasets, stats.mapped_bytes, stats.owned_bytes
                );
            }
            Ok(Response::ok(text))
        }
        // Never reaches the worker: the I/O thread answers shutdown
        // inline so the reply cannot race the process exiting.
        Request::Shutdown => Ok(Response::ok("shutting down")),
        Request::StreamOpen {
            dataset,
            size,
            slide,
            ordering,
            k,
        } => {
            let ordering = parse_ordering(*ordering)?;
            let entry = session.get(dataset)?;
            let mut cell = write_cell(&entry)?;
            let info = cell.handle_mut()?.open_stream(StreamConfig {
                size: *size,
                slide: *slide,
                ordering,
                k: *k as usize,
            })?;
            Ok(Response::ok(info.summary()))
        }
        Request::StreamFeed { dataset, events } => {
            let events = std::str::from_utf8(events)
                .map_err(|_| SessionError::Data("event batch is not valid UTF-8".to_string()))?;
            let entry = session.get(dataset)?;
            let mut cell = write_cell(&entry)?;
            let accepted = cell.handle_mut()?.stream_feed(events)?;
            Ok(Response::ok(format!("accepted {accepted} event(s)")))
        }
        Request::StreamAdvance { dataset, watermark } => {
            let entry = session.get(dataset)?;
            let mut cell = write_cell(&entry)?;
            let results = cell.handle_mut()?.stream_advance(*watermark)?;
            window_response(results, None)
        }
        Request::StreamClose { dataset } => {
            let entry = session.get(dataset)?;
            let mut cell = write_cell(&entry)?;
            let (flushed, report) = cell.handle_mut()?.stream_close()?;
            window_response(flushed, Some(report.summary()))
        }
    }
}

/// Render `snapshot info` output — the same block/list formats the CLI
/// prints, so golden fixtures compare across front ends.
fn snapshot_info_text(session: &Session, name: &Option<String>) -> Result<String, SessionError> {
    use std::fmt::Write as _;
    let mut out = String::new();
    match name {
        Some(name) => {
            let info = session.snapshot_info(name)?;
            let _ = writeln!(out, "dataset {name:?}");
            let _ = writeln!(
                out,
                "  relation   {}({})",
                info.relation,
                info.attrs.join(", ")
            );
            let _ = writeln!(
                out,
                "  tuples     {} live / {} slot(s)",
                info.live, info.slots
            );
            let _ = writeln!(out, "  dictionary {} distinct value(s)", info.dict_entries);
            let _ = writeln!(
                out,
                "  rules      {}",
                if info.has_rules { "embedded" } else { "none" }
            );
            let _ = writeln!(out, "  file       {} byte(s)", info.bytes);
            for seg in session.snapshot_segments(name)? {
                let _ = writeln!(
                    out,
                    "  segment    {:<8} {} byte(s), checksum {}",
                    seg.name,
                    seg.payload_bytes,
                    if seg.checksum_ok { "ok" } else { "BAD" }
                );
            }
        }
        None => {
            let names = session.snapshot_names()?;
            if names.is_empty() {
                let dir = session
                    .catalog()
                    .map(|c| c.dir().display().to_string())
                    .unwrap_or_default();
                let _ = writeln!(out, "catalog {dir} is empty");
            } else {
                for n in names {
                    let info = session.snapshot_info(&n)?;
                    let _ = writeln!(
                        out,
                        "{n}: {} live tuple(s), {} distinct value(s){}",
                        info.live,
                        info.dict_entries,
                        if info.has_rules {
                            ", rules embedded"
                        } else {
                            ""
                        }
                    );
                }
            }
        }
    }
    Ok(out)
}
