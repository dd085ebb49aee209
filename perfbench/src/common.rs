//! Shared measurement plumbing: latency samples, named metrics, the
//! span tracer, process memory, digests and run metadata.

use std::fmt::Write as _;
use std::time::Instant;

/// Nearest-rank percentile of unsorted samples (`p` in `0..=100`).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Tracks how fast the machine ran during a run, so its timings can be
/// scaled to a fixed reference speed.
///
/// Shared virtual machines drift between fast and slow states lasting
/// seconds to many minutes (on a 2-vCPU shared VM the same build measured
/// 1.9x apart half an hour later), far beyond any useful regression bound.
/// A fixed kernel that shares no code with the program — xorshift-indexed
/// updates of a 2 MiB table, so it meets the same core and cache
/// contention the workloads do — is timed between operations, and every
/// time the run reports is multiplied by `REFERENCE_MS / median kernel
/// time`; the raw median is reported beside them.
///
/// The factor must not depend on the program, so each kernel run starts
/// with an untimed pass and only the passes after it are timed: they
/// start on the table the first pass just brought into cache, whatever
/// the program left there. The kernel in turn evicts the program's working set, so
/// `tick` tells the caller when it ran, and workloads that keep state
/// warm across operations leave the next operation out of their samples.
pub struct Speed {
    table: Vec<u64>,
    runs: Vec<f64>,
    last: Option<Instant>,
}

/// Kernel time that defines the reference speed.
const REFERENCE_MS: f64 = 0.5;
const KERNEL_STEPS: usize = 150_000;
/// Timed passes per kernel run, after the untimed warming pass.
const TIMED_PASSES: usize = 4;
/// Time the kernel again when its last run is older than this.
const KERNEL_EVERY_MS: f64 = 200.0;

impl Speed {
    pub fn new() -> Speed {
        Speed {
            table: vec![0; 1 << 18],
            runs: Vec::new(),
            last: None,
        }
    }

    /// Time the kernel if it has not run in the last `KERNEL_EVERY_MS`;
    /// returns whether it ran. Called between operations, outside their
    /// timing.
    pub fn tick(&mut self) -> bool {
        if self.last.is_some_and(|t| ms_since(t) < KERNEL_EVERY_MS) {
            return false;
        }
        self.kernel();
        for _ in 0..TIMED_PASSES {
            let t0 = Instant::now();
            self.kernel();
            self.runs.push(ms_since(t0));
        }
        self.last = Some(Instant::now());
        true
    }

    fn kernel(&mut self) {
        let mask = self.table.len() - 1;
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        for _ in 0..KERNEL_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = &mut self.table[x as usize & mask];
            *slot = slot.wrapping_add(x);
        }
        std::hint::black_box(&self.table);
    }

    /// The median kernel time so far (ms).
    pub fn kernel_ms(&self) -> f64 {
        median(&self.runs)
    }

    /// The factor that scales this run's times to reference speed.
    pub fn factor(&self) -> f64 {
        REFERENCE_MS / self.kernel_ms()
    }
}

/// One reported number. `family` names the end-to-end metric whose bound
/// the compare mode applies to it (`None` for per-layer figures).
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub family: Option<&'static str>,
}

/// An ordered list of metrics, as a workload reports them.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
            family: None,
        });
    }

    pub fn put_family(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        family: &'static str,
    ) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
            family: Some(family),
        });
    }
}

/// Operation outcomes: every attempt counts, failures are kept out of
/// the latency samples and explained in `problems`.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Tally {
    /// Record one attempted operation; `Err` marks it failed.
    pub fn record(&mut self, outcome: Result<(), String>) -> bool {
        self.attempted += 1;
        let Err(problem) = outcome else { return true };
        self.failed += 1;
        if self.problems.len() < 8 {
            self.problems.push(problem);
        }
        false
    }

    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// A check that must hold; a miss is a failure of the run.
pub fn ensure(cond: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(what())
    }
}

/// 64-bit FNV-1a, for comparing output bytes without keeping them.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn of(bytes: &[u8]) -> u64 {
        let mut d = Digest::default();
        d.update(bytes);
        d.0
    }

    pub fn update(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// One traced call: name, interval, causing span and operation id.
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// In-memory span recorder. Spans nest through a stack (the benchmark
/// is single-threaded on the traced side) and are dumped at exit.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start a new operation: subsequent root spans carry its id.
    pub fn next_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now();
        out
    }

    /// Per operation, the summed duration (ms) of every span called
    /// `name`; operations without such a span are skipped.
    pub fn per_op_ms(&self, name: &str) -> Vec<f64> {
        let mut out: std::collections::BTreeMap<u64, f64> = Default::default();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *out.entry(s.op).or_default() += s.ms();
        }
        out.into_values().collect()
    }

    /// Median over operations of the summed duration of `name` spans.
    pub fn median_ms(&self, name: &str) -> f64 {
        median(&self.per_op_ms(name))
    }

    /// Children's covered time over the span's own duration, for every
    /// span called `root`.
    pub fn coverage(&self, root: &str) -> Vec<f64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == root && s.end_ns > s.start_ns)
            .map(|(i, s)| covered[i] as f64 / (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Self time (span minus covered children) summed per span name, in
    /// ms, sorted by descending self time.
    pub fn self_times(&self) -> Vec<(&'static str, f64, usize)> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: Vec<(&'static str, f64, usize)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = (s.end_ns - s.start_ns).saturating_sub(covered[i]) as f64 / 1e6;
            match by_name.iter_mut().find(|(n, _, _)| *n == s.name) {
                Some(e) => {
                    e.1 += own;
                    e.2 += 1;
                }
                None => by_name.push((s.name, own, 1)),
            }
        }
        by_name.sort_by(|a, b| b.1.total_cmp(&a.1));
        by_name
    }

    /// The span dump: one JSON object per line.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"op\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Quote a string as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values become `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}
