//! A minimal, dependency-free micro-benchmark harness.
//!
//! The container this workspace builds in has no network, so Criterion
//! cannot be vendored; the `harness = false` bench binaries use this
//! module instead. Methodology: warm up, size an inner batch so one batch
//! takes ≥ ~5 ms (amortizing timer overhead), run a fixed number of
//! batches, and report the median ns/iteration — the estimator least
//! sensitive to scheduler noise. Results render as an aligned table and
//! can be dumped as JSON for baselines checked into the repo.

use std::hint::black_box as std_black_box;
use std::io::Write as _;
use std::time::Instant;

/// Re-exported opaque value barrier.
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// One benchmark's measurement.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Group / label, e.g. `"index_build/interned"`.
    pub label: String,
    /// Median time per iteration, nanoseconds.
    pub median_ns: f64,
    /// Minimum observed batch average, nanoseconds.
    pub min_ns: f64,
    /// Iterations per batch used.
    pub batch: u64,
}

/// A collection of measurements with uniform methodology.
pub struct Harness {
    /// Number of timed batches per benchmark.
    pub batches: usize,
    /// Target wall-clock per batch, nanoseconds.
    pub target_batch_ns: u128,
    results: Vec<Measurement>,
}

impl Default for Harness {
    fn default() -> Self {
        Harness {
            batches: 11,
            target_batch_ns: 5_000_000,
            results: Vec::new(),
        }
    }
}

impl Harness {
    /// A harness with default methodology.
    pub fn new() -> Self {
        Harness::default()
    }

    /// A harness for expensive benchmarks (whole repair runs): fewer
    /// batches, no batching beyond a single iteration.
    pub fn coarse() -> Self {
        Harness {
            batches: 5,
            target_batch_ns: 0,
            results: Vec::new(),
        }
    }

    /// Time `f`, recording the result under `label`. Returns the
    /// measurement for immediate inspection.
    pub fn run<T>(&mut self, label: &str, mut f: impl FnMut() -> T) -> Measurement {
        // Warm-up and batch sizing.
        let mut batch: u64 = 1;
        loop {
            let start = Instant::now();
            for _ in 0..batch {
                std_black_box(f());
            }
            let elapsed = start.elapsed().as_nanos();
            if elapsed >= self.target_batch_ns || batch >= 1 << 20 {
                break;
            }
            // Grow towards the target, at least doubling.
            batch = (batch * 2).max(
                ((self.target_batch_ns as f64 / (elapsed.max(1)) as f64) * batch as f64) as u64,
            );
        }
        let mut per_iter: Vec<f64> = (0..self.batches)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..batch {
                    std_black_box(f());
                }
                start.elapsed().as_nanos() as f64 / batch as f64
            })
            .collect();
        per_iter.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
        let m = Measurement {
            label: label.to_string(),
            median_ns: per_iter[per_iter.len() / 2],
            min_ns: per_iter[0],
            batch,
        };
        eprintln!("{:<44} {:>14} /iter", m.label, fmt_ns(m.median_ns));
        self.results.push(m.clone());
        m
    }

    /// Record an already-measured scalar under `label` (e.g. a rate or a
    /// counter surfaced by a timed run). Rendered through the same table
    /// and JSON as timings — `median_ns`/`min_ns` carry the value, and
    /// `batch: 0` marks the entry as a recorded metric, not a timing.
    pub fn record(&mut self, label: &str, value: f64) {
        let m = Measurement {
            label: label.to_string(),
            median_ns: value,
            min_ns: value,
            batch: 0,
        };
        eprintln!("{:<44} {:>14} (recorded)", m.label, value);
        self.results.push(m);
    }

    /// All measurements so far.
    pub fn results(&self) -> &[Measurement] {
        &self.results
    }

    /// Render the results as an aligned table.
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<44} {:>14} {:>14}\n",
            "benchmark", "median", "min"
        ));
        for m in &self.results {
            if m.batch == 0 {
                // A recorded metric (see `record`), not a timing: print
                // the raw value instead of pretending it is nanoseconds.
                out.push_str(&format!(
                    "{:<44} {:>14} {:>14}\n",
                    m.label,
                    format!("{:.1}", m.median_ns),
                    "(recorded)"
                ));
                continue;
            }
            out.push_str(&format!(
                "{:<44} {:>14} {:>14}\n",
                m.label,
                fmt_ns(m.median_ns),
                fmt_ns(m.min_ns)
            ));
        }
        out
    }

    /// Write the measurements as a JSON array (hand-rolled: no serde in
    /// the offline container). Timings carry one decimal of a
    /// nanosecond; recorded metrics keep every digit, so a ratio such as
    /// a precision survives the round trip.
    pub fn write_json(&self, path: &str) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        writeln!(f, "[")?;
        for (i, m) in self.results.iter().enumerate() {
            let (median, min) = if m.batch == 0 {
                (format!("{:?}", m.median_ns), format!("{:?}", m.min_ns))
            } else {
                (format!("{:.1}", m.median_ns), format!("{:.1}", m.min_ns))
            };
            writeln!(
                f,
                "  {{ \"label\": \"{}\", \"median_ns\": {median}, \"min_ns\": {min}, \"batch\": {} }}{}",
                json_escape(&m.label),
                m.batch,
                if i + 1 < self.results.len() { "," } else { "" }
            )?;
        }
        writeln!(f, "]")?;
        Ok(())
    }
}

/// Escape a string for a JSON literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Human formatting for nanosecond figures.
fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_something_positive() {
        let mut h = Harness {
            batches: 3,
            target_batch_ns: 10_000,
            results: Vec::new(),
        };
        let m = h.run("noop-ish", || black_box(1u64 + black_box(2)));
        assert!(m.median_ns > 0.0);
        assert_eq!(h.results().len(), 1);
        assert!(h.table().contains("noop-ish"));
    }

    #[test]
    fn json_is_well_formed_enough() {
        let mut h = Harness {
            batches: 3,
            target_batch_ns: 1_000,
            results: Vec::new(),
        };
        h.run("a", || black_box(0));
        let dir = std::env::temp_dir().join("cfd_bench_harness_test.json");
        let path = dir.to_str().unwrap();
        h.write_json(path).unwrap();
        let text = std::fs::read_to_string(path).unwrap();
        assert!(text.trim_start().starts_with('['));
        assert!(text.contains("\"label\": \"a\""));
        std::fs::remove_file(path).ok();
    }
}
