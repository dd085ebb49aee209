//! # cfd-server
//!
//! A resident repair daemon over the [`cfdclean::Session`] facade: it
//! keeps datasets' relations, their dataset-scoped value-pool
//! dictionaries, their built detection indexes and their violation
//! reports in memory, and serves detect / repair / insert / snapshot /
//! evict operations over a framed socket protocol — TCP or (on Unix)
//! Unix-domain. One-shot CLI runs re-parse the CSV, re-intern the
//! dictionary, rebuild the violation-detection index and re-detect on
//! every invocation; the daemon builds the index once per `open`,
//! detects once per bound dataset, and answers every later detect
//! request by rendering the stored report.
//!
//! Everything is hand-rolled over `std` — `std::net` listeners, one
//! thread per connection, `mpsc` channels for the timeout plumbing — so
//! the crate adds no dependencies beyond the workspace.
//!
//! ## Determinism
//!
//! A sequence of requests against a daemon produces **byte-identical**
//! results to the equivalent sequence of one-shot CLI invocations —
//! repair CSVs, edit logs, violation reports, all of it (`tests/server_integration.rs` pins this). Two
//! properties carry the contract:
//!
//! * repairs never mutate the resident relation (they return fresh
//!   output), so a dataset's state is a function of its open + insert
//!   history, not of what was detected or repaired in between;
//! * inserts seal their delta dictionary entries
//!   ([`cfd_model::ValuePool::seal_ids`]) instead of free-listing them,
//!   so the pool's append-order id assignment — which the repair
//!   algorithms' `FINDV` tie-breaks observe — matches a fresh process
//!   run for run.
//!
//! ## Concurrency
//!
//! Datasets live behind per-dataset reader/writer locks inside the
//! shared [`Session`](cfdclean::Session): detects and repairs on the
//! same dataset run concurrently, detects reading its one violation
//! report and default-config batch repairs starting from its one
//! resident t=0 repair state (each copies what its repair loop mutates
//! and borrows the rest); inserts and evicts take the write side and
//! serialize. Requests on one connection run in order; parallelism
//! across datasets comes from opening multiple connections. An optional
//! LRU capacity bound auto-evicts the
//! least-recently-used dataset — eviction retires the dataset's
//! dictionary entries and compacts the pool, returning its memory.
//!
//! ## Wire protocol
//!
//! The protocol is a synchronous request/response exchange of
//! length-prefixed frames. It has no version negotiation, no
//! compression, and no encryption — it is a loopback/localhost protocol
//! for tooling, not an internet-facing service.
//!
//! ### Framing
//!
//! ```text
//! frame := len:u32-LE payload:[u8; len]
//! ```
//!
//! `len` counts payload bytes only. Frames above the server's limit
//! (default 32 MiB, hard ceiling 64 MiB) are refused before allocation
//! and the connection closes, since the boundary of the unread payload
//! is lost. EOF exactly at a frame boundary is a clean disconnect; EOF
//! inside a frame is an error. A malformed payload inside an intact
//! frame gets an `Err` response of kind `Protocol` and the connection
//! continues.
//!
//! ### Primitives
//!
//! All integers little-endian.
//!
//! ```text
//! u8, u32      fixed-width integers
//! bool         u8: 0 | 1
//! bytes        len:u32 data:[u8; len]
//! str          bytes, UTF-8 validated
//! opt<T>       tag:u8 (0 = absent | 1 = present) [T]
//! ```
//!
//! ### Requests
//!
//! First byte is the opcode; fields follow in order.
//!
//! ```text
//! 0x01 Ping
//! 0x02 Open          name:str csv:bytes rules:opt<str> weights:opt<bytes>
//! 0x03 OpenSnapshot  name:str
//! 0x04 Detect        dataset:str limit:u32
//! 0x05 Repair        dataset:str algorithm:str pick:str k:u32
//!                    want_edits:bool want_stats:bool
//! 0x06 Insert        dataset:str csv:bytes weights:opt<bytes>
//!                    ordering:u8 ('v'|'w'|'l') k:u32
//! 0x07 SnapshotSave  dataset:str as_name:str
//! 0x08 SnapshotInfo  name:opt<str>          (absent = list the catalog)
//! 0x09 Evict         dataset:str
//! 0x0a List
//! 0x0b Stats
//! 0x0c Shutdown
//! 0x0d StreamOpen    dataset:str size:u64 slide:u64
//!                    ordering:u8 ('v'|'w'|'l') k:u32
//! 0x0e StreamFeed    dataset:str events:bytes
//! 0x0f StreamAdvance dataset:str watermark:u64
//! 0x10 StreamClose   dataset:str
//! ```
//!
//! `algorithm` is the CLI spelling (`batch`, `v-inc`, `w-inc`,
//! `l-inc`); `pick` is `global` or `dependency`. Repair is serial and
//! runs one distance kernel, so the frame carries neither a thread count
//! nor a kernel choice. `Repair` frames in any retired layout — with a
//! `simd:opt<bool>` after `k`, with a `threads:opt<u32>` ahead of it, or
//! with those plus a speculation-depth `opt<u32>` between them — are at
//! least one byte longer than the current decoder reads, so they are
//! rejected with a `Protocol` error (trailing bytes or a bad tag), never
//! misread.
//!
//! The stream opcodes drive a windowed repair session
//! ([`cfdclean::RepairSession`], at most one per dataset, opened on a
//! clean base with bound rules). `StreamFeed`'s `events` payload is the
//! UTF-8 text event format — `i <ts> <csv-row>` / `d <ts> <tuple-id>`,
//! one event per line, `#` comments — queued without repairing.
//! `StreamAdvance` closes every window ending at or before `watermark`
//! and repairs each closed window's arrivals; `StreamClose` flushes all
//! remaining queued windows and reclaims the stream's dictionary slots.
//! All four take the dataset's write lock (they mutate stream state),
//! so they serialize with inserts and with each other; detects and
//! repairs on the same dataset keep answering from the unmodified
//! resident relation throughout.
//!
//! ### Responses
//!
//! ```text
//! ok  := 0x00 text:str nblobs:u8 blob:bytes ...
//! err := 0x01 kind:u8 message:str
//! ```
//!
//! `text` is the human-readable result (identical to the corresponding
//! CLI command's output where one exists). `blobs` carry binary
//! attachments: `Repair` → `[repaired_csv]` or
//! `[repaired_csv, edit_log]`; `Insert` → `[merged_csv]`;
//! `StreamAdvance` and `StreamClose` → one `.cfde` edit log per closed
//! window, paired in order with the `window k [...]` summary lines of
//! `text` (`nblobs` is a `u8`, so an advance that would close more than
//! 255 event-bearing windows is refused with a `Stream` error — advance
//! in smaller watermark steps); every other opcode sends none. Error
//! kinds:
//!
//! ```text
//! 0 UnknownDataset  1 AlreadyOpen  2 Evicted    3 NoRules
//! 4 NoCatalog       5 Data         6 Rules      7 Snapshot
//! 8 Repair          9 Internal    10 Protocol  11 Timeout
//! 12 Poisoned      13 Stream
//! ```
//!
//! `Timeout` (the per-request deadline passed; the work keeps running
//! and later requests on the connection queue behind it) and
//! `Protocol` are daemon-only; the rest map 1:1 onto
//! [`cfdclean::SessionError`]. `Poisoned` means a previous request
//! panicked while holding the dataset's lock — the dataset answers this
//! kind until it is evicted (eviction always succeeds and reclaims its
//! memory); other datasets are unaffected.
//!
//! ### Batching
//!
//! Batching is client-side pipelining: write N request frames, then
//! read N response frames ([`client::Client::batch`]). The server
//! processes each connection's requests strictly in order, so the
//! responses arrive in request order.

pub mod client;
pub mod protocol;
pub mod server;

pub use client::{Client, ClientError};
pub use protocol::{
    decode_request, decode_response, encode_request, encode_response, read_frame, write_frame,
    ErrorKind, ProtoError, RepairSpec, Request, Response, DEFAULT_MAX_FRAME, MAX_FRAME,
};
pub use server::{Server, ServerConfig};
