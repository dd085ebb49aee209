//! # cfd-bench — the experiment harness of §7
//!
//! One runner per figure of the paper's evaluation, shared by the
//! `experiments` binary and the Criterion benches:
//!
//! | id | paper figure | runner |
//! |----|--------------|--------|
//! | F8  | Efficacy of CFDs vs FDs          | [`fig8`] |
//! | F9  | Precision vs noise rate          | [`fig9_10_13`] |
//! | F10 | Recall vs noise rate             | [`fig9_10_13`] |
//! | F11 | Scalability of BATCHREPAIR       | [`fig11`] |
//! | F12 | Scalability of INCREPAIR         | [`fig12`] |
//! | F13 | Runtime vs noise rate            | [`fig9_10_13`] |
//! | F14 | Accuracy vs % constant-CFD noise | [`fig14_15`] |
//! | F15 | Time vs % constant-CFD noise     | [`fig14_15`] |
//!
//! The paper ran 60k–300k tuples on a 2007 Xserve; [`Scale`] defaults to a
//! 10× reduction so the full suite finishes in minutes, `Scale::Full`
//! restores the paper's sizes. Absolute numbers differ from the paper —
//! the *shapes* (who wins, how curves trend) are the reproduction target;
//! EXPERIMENTS.md records both sides.

#![forbid(unsafe_code)]

use std::time::Instant;

use cfd_cfd::Engine;
use cfd_gen::{generate, inject, GenConfig, NoiseConfig, RunSummary, Workload};
use cfd_model::{Relation, Tuple};
use cfd_repair::{
    batch_repair, repair_via_incremental, BatchConfig, IncConfig, InsertRepairer, Ordering,
};

/// Experiment scale: paper sizes or a 10× reduction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// 10× smaller than the paper (default): base 6k tuples, Fig. 11
    /// sweeps 10k–30k.
    Small,
    /// The paper's sizes: base 60k tuples, Fig. 11 sweeps 100k–300k.
    Full,
}

impl Scale {
    /// The base database size (the paper's "60K tuples").
    pub fn base_tuples(self) -> usize {
        match self {
            Scale::Small => 6_000,
            Scale::Full => 60_000,
        }
    }

    /// The Fig. 11 sweep sizes (the paper's 100k–300k).
    pub fn fig11_sizes(self) -> Vec<usize> {
        match self {
            Scale::Small => vec![10_000, 15_000, 20_000, 25_000, 30_000],
            Scale::Full => vec![100_000, 150_000, 200_000, 250_000, 300_000],
        }
    }
}

/// Which repair algorithm a series describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algo {
    /// `BATCHREPAIR` with the cost-ordered PICKNEXT.
    Batch,
    /// L-INCREPAIR (linear scan) in the §5.3 whole-database mode.
    IncLinear,
    /// V-INCREPAIR (fewest violations first).
    IncViolations,
    /// W-INCREPAIR (highest weight first).
    IncWeight,
}

impl Algo {
    /// Display label matching the paper's legends.
    pub fn label(self) -> &'static str {
        match self {
            Algo::Batch => "BatchRepair",
            Algo::IncLinear => "L-IncRepair",
            Algo::IncViolations => "V-IncRepair",
            Algo::IncWeight => "W-IncRepair",
        }
    }

    /// All four algorithms in the paper's legend order.
    pub fn all() -> [Algo; 4] {
        [
            Algo::Batch,
            Algo::IncViolations,
            Algo::IncWeight,
            Algo::IncLinear,
        ]
    }
}

pub mod harness;

/// Generate the standard workload for a given size and seed.
pub fn workload(n_tuples: usize, seed: u64) -> Workload {
    generate(&GenConfig::sized(n_tuples, seed))
}

/// Run one algorithm on a dirty database and summarize quality + time.
/// Σ is bound into `dirty`'s pool outside the timer, as a CLI run binds
/// its rules file after loading the data.
pub fn run_algo(algo: Algo, dirty: &Relation, w: &Workload) -> RunSummary {
    let sigma = w.sigma_for(dirty);
    let t0 = Instant::now();
    let repair = match algo {
        Algo::Batch => {
            batch_repair(dirty, &sigma, BatchConfig::default())
                .expect("batch repair succeeds")
                .repair
        }
        Algo::IncLinear | Algo::IncViolations | Algo::IncWeight => {
            let ordering = match algo {
                Algo::IncLinear => Ordering::Linear,
                Algo::IncViolations => Ordering::Violations,
                _ => Ordering::Weight,
            };
            repair_via_incremental(
                dirty,
                &sigma,
                IncConfig {
                    ordering,
                    ..Default::default()
                },
            )
            .expect("incremental repair succeeds")
            .repair
        }
    };
    RunSummary::evaluate(dirty, &repair, &w.dopt, t0.elapsed())
}

/// One measured point of a series.
#[derive(Clone, Copy, Debug)]
pub struct Point {
    /// The x-axis value (noise %, tuple count, … depending on the figure).
    pub x: f64,
    /// Precision (%).
    pub precision: f64,
    /// Recall (%).
    pub recall: f64,
    /// Runtime in seconds.
    pub seconds: f64,
}

impl Point {
    fn from_summary(x: f64, s: &RunSummary) -> Point {
        Point {
            x,
            precision: s.precision * 100.0,
            recall: s.recall * 100.0,
            seconds: s.elapsed.as_secs_f64(),
        }
    }
}

/// A named series of points.
#[derive(Clone, Debug)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// The measured points.
    pub points: Vec<Point>,
}

/// Figure 8 — efficacy of CFDs vs FDs: `BATCHREPAIR` accuracy under the
/// full Σ vs under the embedded FDs only, ρ ∈ 2%..10%.
pub fn fig8(scale: Scale, seed: u64) -> Vec<Series> {
    // Half the base size: the FD-only repairs have no constant anchors to
    // prune with, so they run an order of magnitude longer than the CFD
    // side; the accuracy gap (the figure's point) is scale-insensitive.
    let w = workload(scale.base_tuples() / 2, seed);
    // All-wildcard rows intern no constant, so one binding serves every
    // dirty copy's pool.
    let fd_sigma = w
        .sigma
        .embedded_fds_in(w.dopt.pool())
        .expect("embedded FDs normalize");
    let mut cfd_prec = Vec::new();
    let mut cfd_rec = Vec::new();
    let mut fd_prec = Vec::new();
    let mut fd_rec = Vec::new();
    for rate_pct in [2, 4, 6, 8, 10] {
        let rate = rate_pct as f64 / 100.0;
        let noise = inject(
            &w.dopt,
            &w.world,
            &NoiseConfig {
                rate,
                seed,
                ..Default::default()
            },
        );
        let s_cfd = run_algo(Algo::Batch, &noise.dirty, &w);
        cfd_prec.push(Point::from_summary(rate_pct as f64, &s_cfd));
        cfd_rec.push(Point::from_summary(rate_pct as f64, &s_cfd));
        // same dirty data, FD-only Σ
        let t0 = Instant::now();
        let repair = batch_repair(&noise.dirty, &fd_sigma, BatchConfig::default())
            .expect("fd repair succeeds")
            .repair;
        let s_fd = RunSummary::evaluate(&noise.dirty, &repair, &w.dopt, t0.elapsed());
        fd_prec.push(Point::from_summary(rate_pct as f64, &s_fd));
        fd_rec.push(Point::from_summary(rate_pct as f64, &s_fd));
    }
    vec![
        Series {
            label: "BatchRepair (CFD/Prec)".into(),
            points: cfd_prec,
        },
        Series {
            label: "BatchRepair (CFD/Recall)".into(),
            points: cfd_rec,
        },
        Series {
            label: "BatchRepair (FD/Prec)".into(),
            points: fd_prec,
        },
        Series {
            label: "BatchRepair (FD/Recall)".into(),
            points: fd_rec,
        },
    ]
}

/// Figures 9, 10 and 13 share their runs: all four algorithms, ρ ∈
/// 1%..10%, reporting precision (F9), recall (F10) and runtime (F13).
pub fn fig9_10_13(scale: Scale, seed: u64) -> Vec<Series> {
    let w = workload(scale.base_tuples(), seed);
    let mut series: Vec<Series> = Algo::all()
        .iter()
        .map(|a| Series {
            label: a.label().to_string(),
            points: Vec::new(),
        })
        .collect();
    for rate_pct in 1..=10 {
        let rate = rate_pct as f64 / 100.0;
        let noise = inject(
            &w.dopt,
            &w.world,
            &NoiseConfig {
                rate,
                seed,
                ..Default::default()
            },
        );
        for (i, algo) in Algo::all().iter().enumerate() {
            let s = run_algo(*algo, &noise.dirty, &w);
            series[i]
                .points
                .push(Point::from_summary(rate_pct as f64, &s));
        }
    }
    series
}

/// Figure 11 — scalability of `BATCHREPAIR`: runtime over database sizes
/// at ρ = 5%.
pub fn fig11(scale: Scale, seed: u64) -> Vec<Series> {
    let mut points = Vec::new();
    for n in scale.fig11_sizes() {
        let w = workload(n, seed);
        let noise = inject(
            &w.dopt,
            &w.world,
            &NoiseConfig {
                rate: 0.05,
                seed,
                ..Default::default()
            },
        );
        let s = run_algo(Algo::Batch, &noise.dirty, &w);
        points.push(Point::from_summary(n as f64, &s));
    }
    vec![Series {
        label: "BatchRepair".into(),
        points,
    }]
}

/// Figure 12 — the incremental setting: a clean base of `base_tuples`,
/// inserting 10..70 dirty tuples; `INCREPAIR` (on ΔD only) vs
/// `BATCHREPAIR` (from scratch on D ⊕ ΔD).
///
/// §5 keeps INCREPAIR's indexes warm over the clean D, so the resident
/// state ([`InsertRepairer`] plus the detection parts whose rules it
/// reads) is built once, outside the timer, and every ΔD is timed through
/// it — staging, resolution, ΔD-only verification and the rollback that
/// readies it for the next ΔD. The one-time build is its own series,
/// repeated on every row. Each IncRepair and BatchRepair point is the
/// median of five runs: a single run of a few milliseconds is too noisy
/// to rank the two.
pub fn fig12(scale: Scale, seed: u64) -> Vec<Series> {
    let w = workload(scale.base_tuples(), seed);
    let config = IncConfig::default();
    let t0 = Instant::now();
    let parts = Engine::build(&w.dopt, &w.sigma).to_parts();
    let mut resident = InsertRepairer::new(&w.dopt, &w.sigma);
    let build_secs = t0.elapsed().as_secs_f64();
    let mut build_points = Vec::new();
    let mut inc_points = Vec::new();
    let mut batch_points = Vec::new();
    let point = |x: usize, seconds: f64| Point {
        x: x as f64,
        precision: 0.0,
        recall: 0.0,
        seconds,
    };
    for n_insert in [10usize, 20, 30, 40, 50, 60, 70] {
        let (_, delta) = fig12_delta(&w, n_insert, seed);
        // INCREPAIR on ΔD against the warm state over clean D; the
        // rollback leaves the state as it was, so every repeat is alike.
        let inc_secs = median_secs(|| {
            let out = resident
                .repair(&w.dopt, &delta, &w.sigma, &parts, config.clone())
                .expect("incremental insert repair succeeds");
            assert!(out.clean, "INCREPAIR left a violation");
        });
        build_points.push(point(n_insert, build_secs));
        inc_points.push(point(n_insert, inc_secs));
        // BATCHREPAIR on D ⊕ ΔD from scratch.
        let mut full = w.dopt.clone();
        for t in &delta {
            full.insert(t.clone()).expect("same schema");
        }
        let batch_secs = median_secs(|| {
            batch_repair(&full, &w.sigma, BatchConfig::default()).expect("batch succeeds");
        });
        batch_points.push(point(n_insert, batch_secs));
        // Give ΔD's occurrences back, so the next point starts from the
        // counts of D alone.
        w.dopt
            .pool()
            .retire_ids(delta.iter().flat_map(|t| t.ids().iter().copied()));
    }
    vec![
        Series {
            label: "IncRepair".into(),
            points: inc_points,
        },
        Series {
            label: "BatchRepair".into(),
            points: batch_points,
        },
        Series {
            label: "IncRepair one-time build".into(),
            points: build_points,
        },
    ]
}

/// Figure 12's ΔD of `n_insert` tuples: fresh clean orders drawn from
/// `w`'s world, every one corrupted ("inserted 10 to 70 dirty tuples").
/// Returns ΔD as generated, on a pool of its own, and the tuples Figure 12
/// inserts: the same rows re-interned by value into `w.dopt`'s pool,
/// counted as a CLI load of ΔD into the base would count them.
fn fig12_delta(w: &Workload, n_insert: usize, seed: u64) -> (Relation, Vec<Tuple>) {
    let fresh = generate(&GenConfig {
        n_tuples: n_insert,
        seed: seed ^ 0x5eed,
        world: w.world.config.clone(),
    });
    let noise = inject(
        &fresh.dopt,
        &w.world,
        &NoiseConfig {
            rate: 1.0,
            seed,
            ..Default::default()
        },
    );
    let delta = noise
        .dirty
        .rekey_into(w.dopt.pool())
        .iter()
        .map(|(_, t)| t.to_tuple())
        .collect();
    (noise.dirty, delta)
}

/// Timed runs per Figure 12 point; the point is their median.
const FIG12_REPEATS: usize = 5;

/// The median wall time of [`FIG12_REPEATS`] calls of `run`, in seconds.
fn median_secs(mut run: impl FnMut()) -> f64 {
    let mut secs: Vec<f64> = (0..FIG12_REPEATS)
        .map(|_| {
            let t0 = Instant::now();
            run();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    secs.sort_by(f64::total_cmp);
    secs[FIG12_REPEATS / 2]
}

/// Figures 14 and 15 — the constant-vs-variable violation mix: share of
/// constant-CFD noise from 20% to 80% at ρ = 5%, reporting accuracy (F14,
/// see [`fig14_tables`]) and runtime (F15) for `BATCHREPAIR` and
/// V-INCREPAIR. One series per algorithm; each point carries precision,
/// recall and time of one run.
pub fn fig14_15(scale: Scale, seed: u64) -> Vec<Series> {
    let w = workload(scale.base_tuples(), seed);
    let mut series = vec![
        Series {
            label: "BatchRepair".into(),
            points: Vec::new(),
        },
        Series {
            label: "IncRepair".into(),
            points: Vec::new(),
        },
    ];
    for share_pct in [20, 30, 40, 50, 60, 70, 80] {
        let noise = inject(
            &w.dopt,
            &w.world,
            &NoiseConfig {
                rate: 0.05,
                seed,
                constant_share: share_pct as f64 / 100.0,
                ..Default::default()
            },
        );
        let b = run_algo(Algo::Batch, &noise.dirty, &w);
        let v = run_algo(Algo::IncViolations, &noise.dirty, &w);
        series[0]
            .points
            .push(Point::from_summary(share_pct as f64, &b));
        series[1]
            .points
            .push(Point::from_summary(share_pct as f64, &v));
    }
    series
}

/// Figure 14's two accuracy tables over [`fig14_15`]'s series: precision,
/// then recall.
pub fn fig14_tables(series: &[Series]) -> String {
    const TITLE: &str = "Figure 14: Accuracy vs % of constant-CFD violations (ρ = 5%)";
    format!(
        "{}\n{}",
        render_table(
            &format!("{TITLE} — precision"),
            "const %",
            series,
            |p| p.precision,
            "%"
        ),
        render_table(
            &format!("{TITLE} — recall"),
            "const %",
            series,
            |p| p.recall,
            "%"
        ),
    )
}

/// Render a metric of a set of series as an aligned text table.
pub fn render_table(
    title: &str,
    x_label: &str,
    series: &[Series],
    metric: impl Fn(&Point) -> f64,
    unit: &str,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "# {title}");
    let _ = write!(out, "{x_label:>12}");
    for s in series {
        let _ = write!(out, "  {:>24}", s.label);
    }
    let _ = writeln!(out);
    let n = series.iter().map(|s| s.points.len()).max().unwrap_or(0);
    for i in 0..n {
        let x = series
            .iter()
            .find_map(|s| s.points.get(i).map(|p| p.x))
            .unwrap_or(0.0);
        let _ = write!(out, "{x:>12}");
        for s in series {
            match s.points.get(i) {
                Some(p) => {
                    let _ = write!(out, "  {:>22.2}{unit}", metric(p));
                }
                None => {
                    let _ = write!(out, "  {:>24}", "-");
                }
            }
        }
        let _ = writeln!(out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_sizes() {
        assert_eq!(Scale::Small.base_tuples(), 6_000);
        assert_eq!(Scale::Full.base_tuples(), 60_000);
        assert_eq!(Scale::Small.fig11_sizes().len(), 5);
    }

    #[test]
    fn algo_labels_are_distinct() {
        let labels: std::collections::BTreeSet<_> = Algo::all().iter().map(|a| a.label()).collect();
        assert_eq!(labels.len(), 4);
    }

    #[test]
    fn render_table_aligns_series() {
        let series = vec![Series {
            label: "X".into(),
            points: vec![Point {
                x: 1.0,
                precision: 99.5,
                recall: 80.0,
                seconds: 0.5,
            }],
        }];
        let table = render_table("T", "rate", &series, |p| p.precision, "%");
        assert!(table.contains("# T"));
        assert!(table.contains("99.50%"));
    }

    #[test]
    fn fig14_recall_table_prints_recall() {
        let series = vec![Series {
            label: "BatchRepair".into(),
            points: vec![Point {
                x: 20.0,
                precision: 97.25,
                recall: 61.75,
                seconds: 0.5,
            }],
        }];
        let tables = fig14_tables(&series);
        let (precision, recall) = tables.split_once("— recall").expect("a recall table");
        assert!(precision.contains("97.25%") && !precision.contains("61.75%"));
        assert!(recall.contains("61.75%") && !recall.contains("97.25%"));
    }

    #[test]
    fn fig12_delta_renders_the_generated_rows() {
        let w = workload(300, 4);
        let (generated, delta) = fig12_delta(&w, 20, 4);
        assert_eq!(delta.len(), 20);
        let pool = w.dopt.pool();
        for (t, (_, row)) in delta.iter().zip(generated.iter()) {
            let values: Vec<_> = t.ids().iter().map(|id| pool.resolve(*id)).collect();
            assert_eq!(values, row.values());
            assert_eq!(t.weights(), row.weights());
        }
    }

    #[test]
    fn tiny_run_algo_smoke() {
        let w = workload(300, 1);
        let noise = inject(
            &w.dopt,
            &w.world,
            &NoiseConfig {
                rate: 0.05,
                ..Default::default()
            },
        );
        let s = run_algo(Algo::Batch, &noise.dirty, &w);
        assert!(s.recall >= 0.0 && s.precision >= 0.0);
    }
}
