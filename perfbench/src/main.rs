//! End-to-end and per-layer benchmark of the cfdclean repair system.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           [--scale full|toy] [--results FILE] [--out-dir DIR]
//! ```
//!
//! Three closed-loop workloads, one caller each, driven in-process
//! through the public `cfdclean` / `cfd-server` APIs on inputs the §7.1
//! generator makes from `--seed`:
//!
//! * `oneshot_batch_20k` — the one-shot CLI repair path per operation;
//! * `daemon_mix_6k` — a warm `cfd-server` request mix over loopback;
//! * `stream_window_20k` — tumbling stream windows over a resident base.
//!
//! `--trace 0` measures the named workload for `--seconds` and prints the
//! end-to-end metrics. `--trace 1` runs every workload, each half
//! untraced and half with spans around the public layer calls, and
//! prints the per-layer metrics, span coverage and tracing overhead; the
//! spans are written to `<out-dir>/spans-<workload>-<seed>.jsonl`.
//!
//! Every end-to-end time is scaled to a reference machine speed measured
//! by a fixed kernel timed between operations (see `common::Speed`); the
//! raw median is reported beside it. Per-layer times are raw.
//!
//! The last stdout line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. `--results FILE` also appends a detailed
//! record (metadata and every named metric) for the compare mode of
//! `run.py`.

mod common;
mod daemon;
mod inputs;
mod oneshot;
mod stream;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use common::{json_num, json_str, median, peak_rss_mb, percentile, Metrics, Speed, Tally, Tracer};

#[derive(Clone, Copy, PartialEq)]
pub enum Scale {
    Full,
    Toy,
}

const WORKLOADS: [&str; 3] = ["oneshot_batch_20k", "daemon_mix_6k", "stream_window_20k"];

/// Environment switches that would silently change the program under
/// measurement.
const GUARDED_ENV: [&str; 4] = ["CFD_THREADS", "CFD_SPECULATE", "CFD_SIMD", "CFD_MMAP"];

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

/// One workload's result.
pub struct Outcome {
    pub workload: &'static str,
    pub gen_s: f64,
    pub setup_s: f64,
    pub tally: Tally,
    /// The workload's named end-to-end metrics.
    pub e2e: Metrics,
    /// The metrics every workload reports (the contract set).
    pub generic: Metrics,
    /// Per-layer metrics of the traced run.
    pub layers: Metrics,
    /// End-of-run output checks.
    pub checks: Vec<Result<(), String>>,
    pub notes: Vec<String>,
    pub digest: Option<String>,
    pub speed: Speed,
}

impl Outcome {
    pub fn new(workload: &'static str, gen_s: f64) -> Outcome {
        Outcome {
            workload,
            gen_s,
            setup_s: f64::NAN,
            tally: Tally::default(),
            e2e: Metrics::default(),
            generic: Metrics::default(),
            layers: Metrics::default(),
            checks: Vec::new(),
            notes: Vec::new(),
            digest: None,
            speed: Speed::new(),
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The contract metrics from the operation latencies (raw ms):
    /// median and throughput at reference speed, and repair quality. The
    /// raw median and the speed kernel's time go to the named metrics,
    /// the `tail` percentile to the notes.
    pub fn set_generic(&mut self, samples: &[f64], tail: f64, precision: f64, recall: f64) {
        let f = self.speed.factor();
        let g = &mut self.generic;
        g.put("op_p50_ms", median(samples) * f, "ms");
        let busy_s = samples.iter().sum::<f64>() * f / 1e3;
        g.put("ops_per_s", samples.len() as f64 / busy_s, "1/s");
        g.put("precision", precision, "ratio");
        g.put("recall", recall, "ratio");
        self.e2e.put("raw_op_p50_ms", median(samples), "ms");
        self.e2e
            .put("speed_kernel_ms", self.speed.kernel_ms(), "ms");
        self.note(format!(
            "{} operations, p{tail} {:.4} ms",
            samples.len(),
            percentile(samples, tail) * f
        ));
    }

    /// Coverage, tracing overhead and the self-time table.
    pub fn trace_report(&mut self, t: &Tracer, coverage: f64, traced_p50: f64, untraced_p50: f64) {
        self.layers.put("trace.coverage", coverage, "ratio");
        self.layers.put("trace.op_p50_ms", traced_p50, "ms");
        self.layers
            .put("trace.overhead_ms", traced_p50 - untraced_p50, "ms");
        self.note(format!(
            "traced: coverage {:.1}% of op wall time, overhead {:+.4} ms on a {:.4} ms untraced median",
            coverage * 100.0,
            traced_p50 - untraced_p50,
            untraced_p50
        ));
        let mut table = String::from("self time by span (total ms, spans):");
        for (name, ms, n) in t.self_times() {
            let _ = write!(table, "\n    {name:<28} {ms:>12.3} {n:>8}");
        }
        self.note(table);
    }

    fn correct(&self) -> bool {
        self.tally.failed == 0 && self.checks.iter().all(Result::is_ok)
    }

    fn problems(&self) -> Vec<String> {
        let mut out = self.tally.problems.clone();
        out.extend(self.checks.iter().filter_map(|c| c.clone().err()));
        out
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    results: Option<PathBuf>,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        results: None,
        out_dir: PathBuf::from(".perfbench_out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--scale" => {
                args.scale = match value()?.as_str() {
                    "full" => Scale::Full,
                    "toy" => Scale::Toy,
                    other => return Err(format!("--scale takes full or toy, not {other:?}")),
                }
            }
            "--results" => args.results = Some(PathBuf::from(value()?)),
            "--out-dir" => args.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// The run metadata recorded with every result.
fn metadata(args: &Args, gen_s: f64) -> Vec<(&'static str, String)> {
    let opts = cfdclean::repair::RepairOptions::default();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = opts.parallelism().get();
    vec![
        ("nproc", nproc.to_string()),
        ("threads", threads.to_string()),
        ("speculate", opts.speculation().to_string()),
        ("simd", cfdclean::model::simd_enabled().to_string()),
        ("mmap", cfdclean::model::mapping::mmap_enabled().to_string()),
        // The program does not report its cargo features; the benchmark
        // always builds it with its default ones (`threads` above shows
        // whether they include `parallel`).
        ("features", "default".to_string()),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
        ),
        // A parallel speed-up is only meaningful with threads on cores.
        (
            "parallel_speedup_reportable",
            (nproc > 1 && threads > 1).to_string(),
        ),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        (
            "scale",
            if args.scale == Scale::Full {
                "full"
            } else {
                "toy"
            }
            .to_string(),
        ),
        ("gen_s", format!("{gen_s:.4}")),
    ]
}

fn run_workload(
    name: &str,
    args: &Args,
    budget: Duration,
    setups: usize,
    tracer: Option<&mut Tracer>,
) -> Outcome {
    match name {
        "oneshot_batch_20k" => {
            let w = oneshot::prepare(args.scale, args.seed);
            oneshot::run(&w, budget, setups, tracer)
        }
        "daemon_mix_6k" => {
            let w = daemon::prepare(args.scale, args.seed, args.out_dir.clone());
            daemon::run(&w, budget, setups, tracer)
        }
        _ => {
            let w = stream::prepare(args.scale, args.seed);
            stream::run(&w, budget, setups, tracer)
        }
    }
}

fn metrics_json(ms: &[&common::Metric]) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn detail_json(args: &Args, o: &Outcome, meta: &[(&'static str, String)]) -> String {
    let meta: Vec<String> = meta
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    let metric = |m: &common::Metric| {
        format!(
            "{}: {{\"value\": {}, \"unit\": {}, \"family\": {}}}",
            json_str(&m.name),
            json_num(m.value),
            json_str(m.unit),
            m.family.map_or("null".to_string(), json_str)
        )
    };
    let named: Vec<String> = o.e2e.0.iter().chain(&o.generic.0).map(metric).collect();
    let layers: Vec<String> = o.layers.0.iter().map(metric).collect();
    let problems: Vec<String> = o.problems().iter().map(|p| json_str(p)).collect();
    format!(
        "{{\"workload\": {}, \"trace\": {}, \"seed\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"digest\": {}, \"meta\": {{{}}}, \"metrics\": {{{}}}, \"layers\": {{{}}}, \"problems\": [{}]}}",
        json_str(o.workload),
        u8::from(args.trace),
        args.seed,
        o.correct(),
        o.tally.attempted,
        o.tally.failed,
        o.digest.as_deref().map_or("null".to_string(), json_str),
        meta.join(", "),
        named.join(", "),
        layers.join(", "),
        problems.join(", ")
    )
}

fn print_table(o: &Outcome, meta: &[(&'static str, String)]) {
    println!("== {}", o.workload);
    let meta: Vec<String> = meta.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("   meta {}", meta.join(" "));
    for m in o.e2e.0.iter().chain(&o.generic.0).chain(&o.layers.0) {
        println!("   {:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "   attempted {} failed {} correct {}",
        o.tally.attempted,
        o.tally.failed,
        o.correct()
    );
    for p in o.problems() {
        println!("   problem: {p}");
    }
    for n in &o.notes {
        println!("   {n}");
    }
}

fn append(path: &PathBuf, line: &str) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{line}")
}

fn main() -> ExitCode {
    let set: Vec<&str> = GUARDED_ENV
        .iter()
        .copied()
        .filter(|v| std::env::var_os(v).is_some())
        .collect();
    if !set.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set: the benchmark measures the program's defaults; unset it and run again",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.out_dir.display());
        return ExitCode::from(1);
    }
    let budget = Duration::from_secs_f64(args.seconds);

    let mut outcomes: Vec<(Outcome, Option<Tracer>)> = Vec::new();
    if args.trace {
        // Every workload, so every per-layer metric is measured in each
        // traced run; the named workload goes first.
        let mut order = vec![args.workload.clone()];
        order.extend(
            WORKLOADS
                .iter()
                .filter(|w| **w != args.workload)
                .map(|w| w.to_string()),
        );
        let share = budget / WORKLOADS.len() as u32;
        for name in order {
            let mut t = Tracer::new();
            let o = run_workload(&name, &args, share, 1, Some(&mut t));
            outcomes.push((o, Some(t)));
        }
    } else {
        let o = run_workload(&args.workload, &args, budget, SETUPS, None);
        outcomes.push((o, None));
    }
    let rss = peak_rss_mb();

    let mut metrics: Vec<common::Metric> = Vec::new();
    let (mut attempted, mut failed, mut correct) = (0u64, 0u64, true);
    for (o, t) in &mut outcomes {
        // Set-up time at reference speed, like every reported time.
        let setup_s = o.setup_s * o.speed.factor();
        o.e2e.put("error_rate", o.tally.error_rate(), "ratio");
        o.generic.put("setup_s", setup_s, "s");
        o.generic.put("peak_rss_mb", rss, "MB");
        let meta = metadata(&args, o.gen_s);
        print_table(o, &meta);
        attempted += o.tally.attempted;
        failed += o.tally.failed;
        correct &= o.correct();
        if let Some(path) = &args.results {
            if let Err(e) = append(path, &detail_json(&args, o, &meta)) {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
                return ExitCode::from(1);
            }
        }
        if args.trace {
            let short = o.workload.split('_').next().unwrap_or(o.workload);
            for m in &o.layers.0 {
                metrics.push(common::Metric {
                    name: format!("{short}.{}", m.name),
                    ..m.clone()
                });
            }
            if let Some(t) = t {
                let path = args
                    .out_dir
                    .join(format!("spans-{}-{}.jsonl", o.workload, args.seed));
                if let Err(e) = std::fs::write(&path, t.dump()) {
                    eprintln!("perfbench: cannot write {}: {e}", path.display());
                    return ExitCode::from(1);
                }
            }
        } else {
            metrics.extend(o.generic.0.iter().cloned());
        }
    }
    let refs: Vec<&common::Metric> = metrics.iter().collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        metrics_json(&refs)
    );
    ExitCode::SUCCESS
}
