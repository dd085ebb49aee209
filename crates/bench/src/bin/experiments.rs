//! The experiment driver: regenerates every figure of §7.
//!
//! ```text
//! experiments [--scale small|full] [--seed N] [--json DIR] <fig8|fig9|fig10|fig11|fig12|fig13|fig14|fig15|all>
//! ```
//!
//! Figures 9/10/13 share one sweep (they are three views of the same
//! runs), as do 14/15. Output goes to stdout as aligned tables; `--json`
//! additionally writes machine-readable series for downstream plotting.

use std::io::Write as _;

use cfd_bench::harness::json_escape;
use cfd_bench::{fig11, fig12, fig14_15, fig8, fig9_10_13, render_table, Scale, Series};

struct Args {
    scale: Scale,
    seed: u64,
    json_dir: Option<String>,
    figures: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        scale: Scale::Small,
        seed: 42,
        json_dir: None,
        figures: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                let v = it.next().ok_or("--scale needs a value")?;
                args.scale = match v.as_str() {
                    "small" => Scale::Small,
                    "full" => Scale::Full,
                    other => return Err(format!("unknown scale `{other}`")),
                };
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                args.seed = v.parse().map_err(|_| format!("bad seed `{v}`"))?;
            }
            "--json" => {
                args.json_dir = Some(it.next().ok_or("--json needs a directory")?);
            }
            "--help" | "-h" => {
                return Err("usage: experiments [--scale small|full] [--seed N] [--json DIR] <figures…|all>".to_string());
            }
            fig if fig.starts_with("fig") || fig == "all" => {
                args.figures.push(fig.to_string());
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.figures.is_empty() {
        args.figures.push("all".to_string());
    }
    Ok(args)
}

fn write_json(dir: &str, name: &str, series: &[Series]) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    // Hand-rolled JSON: the container has no network, so serde cannot be
    // vendored; the payload shape is trivial.
    let mut out = String::from("[\n");
    for (si, s) in series.iter().enumerate() {
        out.push_str(&format!(
            "  {{\n    \"label\": \"{}\",\n    \"points\": [\n",
            json_escape(&s.label)
        ));
        for (pi, p) in s.points.iter().enumerate() {
            out.push_str(&format!(
                "      {{ \"x\": {}, \"precision\": {}, \"recall\": {}, \"seconds\": {} }}{}\n",
                p.x,
                p.precision,
                p.recall,
                p.seconds,
                if pi + 1 < s.points.len() { "," } else { "" }
            ));
        }
        out.push_str(&format!(
            "    ]\n  }}{}\n",
            if si + 1 < series.len() { "," } else { "" }
        ));
    }
    out.push_str("]\n");
    let mut f = std::fs::File::create(format!("{dir}/{name}.json"))?;
    writeln!(f, "{out}")?;
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let wants = |name: &str| args.figures.iter().any(|f| f == name || f == "all");
    let emit = |name: &str, series: &[Series]| {
        if let Some(dir) = &args.json_dir {
            if let Err(e) = write_json(dir, name, series) {
                eprintln!("warning: could not write {name}.json: {e}");
            }
        }
    };

    eprintln!(
        "scale: {:?} (base {} tuples), seed {}",
        args.scale,
        args.scale.base_tuples(),
        args.seed
    );

    if wants("fig8") {
        let series = fig8(args.scale, args.seed);
        let prec_series: Vec<Series> = series
            .iter()
            .filter(|s| s.label.contains("Prec"))
            .cloned()
            .collect();
        let recall_series: Vec<Series> = series
            .iter()
            .filter(|s| s.label.contains("Recall"))
            .cloned()
            .collect();
        println!(
            "{}",
            render_table(
                "Figure 8: Efficacy of CFDs vs FDs — precision (BatchRepair)",
                "noise %",
                &prec_series,
                |p| p.precision,
                "%"
            )
        );
        println!(
            "{}",
            render_table(
                "Figure 8: Efficacy of CFDs vs FDs — recall (BatchRepair)",
                "noise %",
                &recall_series,
                |p| p.recall,
                "%"
            )
        );
        emit("fig8", &series);
    }

    if wants("fig9") || wants("fig10") || wants("fig13") {
        let series = fig9_10_13(args.scale, args.seed);
        if wants("fig9") {
            println!(
                "{}",
                render_table(
                    "Figure 9: Precision vs noise rate",
                    "noise %",
                    &series,
                    |p| p.precision,
                    "%"
                )
            );
            emit("fig9", &series);
        }
        if wants("fig10") {
            println!(
                "{}",
                render_table(
                    "Figure 10: Recall vs noise rate",
                    "noise %",
                    &series,
                    |p| p.recall,
                    "%"
                )
            );
            emit("fig10", &series);
        }
        if wants("fig13") {
            println!(
                "{}",
                render_table(
                    "Figure 13: Runtime vs noise rate",
                    "noise %",
                    &series,
                    |p| p.seconds,
                    "s"
                )
            );
            emit("fig13", &series);
        }
    }

    if wants("fig11") {
        let series = fig11(args.scale, args.seed);
        println!(
            "{}",
            render_table(
                "Figure 11: Scalability of BatchRepair (ρ = 5%)",
                "tuples",
                &series,
                |p| p.seconds,
                "s"
            )
        );
        emit("fig11", &series);
    }

    if wants("fig12") {
        let series = fig12(args.scale, args.seed);
        println!(
            "{}",
            render_table(
                "Figure 12: IncRepair vs BatchRepair on small insertions",
                "#inserted",
                &series,
                |p| p.seconds * 1e3,
                "ms"
            )
        );
        emit("fig12", &series);
    }

    if wants("fig14") || wants("fig15") {
        let series = fig14_15(args.scale, args.seed);
        if wants("fig14") {
            println!(
                "{}",
                render_table(
                    "Figure 14: Accuracy vs % of constant-CFD violations (ρ = 5%)",
                    "const %",
                    &series,
                    |p| p.precision, // Recall-labelled series carry recall below
                    "%"
                )
            );
            let recall_view: Vec<Series> = series
                .iter()
                .filter(|s| s.label.contains("Recall"))
                .cloned()
                .collect();
            println!(
                "{}",
                render_table(
                    "Figure 14 (recall view)",
                    "const %",
                    &recall_view,
                    |p| p.recall,
                    "%"
                )
            );
            emit("fig14", &series);
        }
        if wants("fig15") {
            // one runtime row per algorithm (Prec/Recall share runs)
            let timing: Vec<Series> = series
                .iter()
                .filter(|s| s.label.contains("(Prec)"))
                .map(|s| Series {
                    label: s.label.replace(" (Prec)", ""),
                    points: s.points.clone(),
                })
                .collect();
            println!(
                "{}",
                render_table(
                    "Figure 15: Runtime vs % of constant-CFD violations (ρ = 5%)",
                    "const %",
                    &timing,
                    |p| p.seconds,
                    "s"
                )
            );
            emit("fig15", &series);
        }
    }
}
