//! `cfdclean client` — drive a running `cfdclean serve` daemon.
//!
//! Each invocation opens one connection, sends one request, prints the
//! response text, and writes any binary attachments (repair CSVs, edit
//! logs) to the requested paths. The daemon's answers are byte-identical
//! to the equivalent one-shot commands, so pipelines can switch between
//! the two front ends freely.

use std::io::Write;

use cfd_server::{Client, ErrorKind, RepairSpec, Request, Response};

use crate::args::Args;
use crate::io::CliError;

pub const USAGE: &str = "cfdclean client <op> (--tcp ADDR | --unix PATH) [flags]

  ops (all take the connection flags; --name addresses an open dataset):
    ping
    open           --name N --data D.csv [--rules R.cfd] [--weights W.csv]
    open-snapshot  --name N [--as NAME]
    detect         --name N [--limit N]
    repair         --name N --out R.csv [--algorithm batch|v-inc|w-inc|l-inc]
                   [--pick global|dependency] [--k N]
                   [--emit-edits E.cfde] [--stats]
    insert         --name N --updates U.csv --out M.csv
                   [--weights W.csv] [--ordering v|w|l] [--k N]
    stream-open    --name N [--window W] [--slide S] [--ordering v|w|l] [--k N]
    stream-feed    --name N --events EV.txt  queue timestamped events
    stream-advance --name N --watermark TS --out-dir DIR
                                             close windows, write their .cfde logs
    stream-close   --name N --out-dir DIR    flush remaining windows + shut down
    save           --name N [--as NAME]      persist to the daemon's catalog
    info           [--name N]                describe / list catalog snapshots
    evict          --name N                  close + reclaim pool memory
    list                                     open dataset names
    stats                                    session status
    shutdown                                 stop the daemon";

fn connect(tcp: Option<String>, unix: Option<String>) -> Result<Client, CliError> {
    match (tcp, unix) {
        (Some(_), Some(_)) => Err("--tcp and --unix are mutually exclusive".into()),
        (None, None) => Err("one of --tcp or --unix is required".into()),
        (Some(addr), None) => {
            Ok(Client::connect_tcp(&addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?)
        }
        (None, Some(path)) => {
            #[cfg(unix)]
            {
                Ok(Client::connect_unix(&path)
                    .map_err(|e| format!("cannot connect to {path}: {e}"))?)
            }
            #[cfg(not(unix))]
            {
                let _ = path;
                Err("--unix is not supported on this platform".into())
            }
        }
    }
}

fn read_file(path: &str) -> Result<Vec<u8>, CliError> {
    std::fs::read(path).map_err(|e| format!("cannot open {path}: {e}").into())
}

fn write_file(path: &str, bytes: &[u8]) -> Result<(), CliError> {
    std::fs::write(path, bytes).map_err(|e| format!("cannot create {path}: {e}").into())
}

/// Dispatch one `client <op>` invocation.
pub fn run(op: &str, args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let tcp = args.get("tcp").map(str::to_string);
    let unix = args.get("unix").map(str::to_string);
    // Stream window logs go to a directory (one .cfde per closed
    // window, named by window number) instead of fixed blob paths.
    let mut out_dir: Option<String> = None;
    // Build the request (and remember where its attachments go) before
    // connecting, so flag errors don't need a live daemon.
    let (req, blob_paths): (Request, Vec<String>) = match op {
        "ping" => (Request::Ping, vec![]),
        "open" => {
            let name = args.require("name")?.to_string();
            let data = args.require("data")?.to_string();
            let rules = match args.get("rules") {
                Some(p) => {
                    Some(std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))?)
                }
                None => None,
            };
            let weights = match args.get("weights") {
                Some(p) => Some(read_file(p)?),
                None => None,
            };
            (
                Request::Open {
                    name,
                    csv: read_file(&data)?,
                    rules,
                    weights,
                },
                vec![],
            )
        }
        "open-snapshot" => (
            Request::OpenSnapshot {
                name: args.require("name")?.to_string(),
                as_name: args.get("as").map(str::to_string),
            },
            vec![],
        ),
        "detect" => (
            Request::Detect {
                dataset: args.require("name")?.to_string(),
                limit: args.get_parsed("limit", 5u32)?,
            },
            vec![],
        ),
        "repair" => {
            let dataset = args.require("name")?.to_string();
            let out_path = args.require("out")?.to_string();
            let emit_edits = args.get("emit-edits").map(str::to_string);
            let spec = RepairSpec {
                algorithm: args.get("algorithm").unwrap_or("batch").to_string(),
                pick: args.get("pick").unwrap_or("global").to_string(),
                k: args.get_parsed("k", 2u32)?,
            };
            let mut paths = vec![out_path];
            if let Some(e) = &emit_edits {
                paths.push(e.clone());
            }
            (
                Request::Repair {
                    dataset,
                    spec,
                    want_edits: emit_edits.is_some(),
                    want_stats: args.switch("stats"),
                },
                paths,
            )
        }
        "insert" => {
            let dataset = args.require("name")?.to_string();
            let updates = args.require("updates")?.to_string();
            let out_path = args.require("out")?.to_string();
            let weights = match args.get("weights") {
                Some(p) => Some(read_file(p)?),
                None => None,
            };
            let ordering = match args.get("ordering").unwrap_or("v") {
                "v" => b'v',
                "w" => b'w',
                "l" => b'l',
                other => return Err(format!("unknown --ordering {other:?} (v, w, l)").into()),
            };
            (
                Request::Insert {
                    dataset,
                    csv: read_file(&updates)?,
                    weights,
                    ordering,
                    k: args.get_parsed("k", 2u32)?,
                },
                vec![out_path],
            )
        }
        "stream-open" => {
            let window: u64 = args.get_parsed("window", 10)?;
            let ordering = match args.get("ordering").unwrap_or("v") {
                "v" => b'v',
                "w" => b'w',
                "l" => b'l',
                other => return Err(format!("unknown --ordering {other:?} (v, w, l)").into()),
            };
            (
                Request::StreamOpen {
                    dataset: args.require("name")?.to_string(),
                    size: window,
                    slide: args.get_parsed("slide", window)?,
                    ordering,
                    k: args.get_parsed("k", 1u32)?,
                },
                vec![],
            )
        }
        "stream-feed" => {
            let events = args.require("events")?.to_string();
            (
                Request::StreamFeed {
                    dataset: args.require("name")?.to_string(),
                    events: read_file(&events)?,
                },
                vec![],
            )
        }
        "stream-advance" => {
            out_dir = Some(args.require("out-dir")?.to_string());
            let watermark = args.require("watermark")?;
            let watermark: u64 = watermark
                .parse()
                .map_err(|_| format!("--watermark {watermark:?} is not a timestamp"))?;
            (
                Request::StreamAdvance {
                    dataset: args.require("name")?.to_string(),
                    watermark,
                },
                vec![],
            )
        }
        "stream-close" => {
            out_dir = Some(args.require("out-dir")?.to_string());
            (
                Request::StreamClose {
                    dataset: args.require("name")?.to_string(),
                },
                vec![],
            )
        }
        "save" => {
            let name = args.require("name")?.to_string();
            let as_name = args.get("as").unwrap_or(&name).to_string();
            (
                Request::SnapshotSave {
                    dataset: name,
                    as_name,
                },
                vec![],
            )
        }
        "info" => (
            Request::SnapshotInfo {
                name: args.get("name").map(str::to_string),
            },
            vec![],
        ),
        "evict" => (
            Request::Evict {
                dataset: args.require("name")?.to_string(),
            },
            vec![],
        ),
        "list" => (Request::List, vec![]),
        "stats" => (Request::Stats, vec![]),
        "shutdown" => (Request::Shutdown, vec![]),
        other => {
            return Err(format!(
                "unknown client op {other:?} (ping, open, open-snapshot, detect, repair, \
                 insert, stream-open, stream-feed, stream-advance, stream-close, save, \
                 info, evict, list, stats, shutdown)"
            )
            .into())
        }
    };
    args.reject_unknown()?;

    let mut client = connect(tcp, unix)?;
    match client.request(&req).map_err(|e| e.to_string())? {
        Response::Ok { text, blobs } => {
            if let Some(dir) = &out_dir {
                // Window summaries pair with blobs in order; everything
                // else in the text (e.g. the close report) passes through.
                if !blobs.is_empty() {
                    std::fs::create_dir_all(dir)
                        .map_err(|e| format!("cannot create {dir}: {e}"))?;
                }
                let mut logs = blobs.iter();
                for line in text.lines() {
                    match line
                        .strip_prefix("window ")
                        .and_then(|rest| rest.split(' ').next())
                        .and_then(|_| logs.next())
                    {
                        Some(bytes) => {
                            let k = line["window ".len()..]
                                .split(' ')
                                .next()
                                .expect("window summary names its number");
                            let path = format!("{dir}/window-{k}.cfde");
                            write_file(&path, bytes)?;
                            writeln!(out, "{line} -> {path}")?;
                        }
                        None => writeln!(out, "{line}")?,
                    }
                }
                return Ok(());
            }
            for (path, bytes) in blob_paths.iter().zip(&blobs) {
                write_file(path, bytes)?;
            }
            if !text.is_empty() {
                writeln!(out, "{text}")?;
            }
            for (i, path) in blob_paths.iter().enumerate() {
                if i < blobs.len() {
                    writeln!(out, "  -> {path}")?;
                }
            }
            Ok(())
        }
        Response::Err { kind, message } => Err(match kind {
            ErrorKind::Timeout => format!("timeout: {message}").into(),
            ErrorKind::Protocol => format!("protocol: {message}").into(),
            _ => message.into(),
        }),
    }
}
