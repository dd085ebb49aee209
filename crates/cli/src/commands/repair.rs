//! `cfdclean repair` — whole-database repair (BATCHREPAIR or an
//! INCREPAIR variant in §5.3 mode).
//!
//! Routed through the [`cfdclean::Session`] facade: flags lower onto
//! [`cfd_repair::RepairOptions`] and the repair runs on a one-shot
//! [`DatasetHandle`] — the identical path the `cfd-server` daemon
//! serves, so the written CSV and edit-log bytes match a daemon answer
//! for the same input and options.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use cfd_cfd::violation::check;
use cfd_repair::{Algorithm, PickStrategy, RepairOptions};
use cfdclean::DatasetHandle;

use crate::args::Args;
use crate::io::{
    load_edit_log, load_relation, load_weights, open_catalog, read_rules_text, save_relation,
    CliError,
};

pub const USAGE: &str = "cfdclean repair (--data D.csv | --snapshot NAME --catalog DIR)
                --out REPAIRED.csv [--rules R.cfd]
                [--weights W.csv] [--algorithm batch|v-inc|w-inc|l-inc]
                [--pick global|dependency] [--k N]
                [--emit-edits E.cfde | --apply-edits E.cfde] [--stats]
  Compute a repair of the input satisfying the rules.
    --data        dirty CSV file
    --snapshot    dirty dataset loaded from a catalog snapshot instead of
                  CSV (requires --catalog; uses the snapshot's embedded
                  rules when --rules is omitted)
    --catalog     the snapshot catalog directory
    --rules       CFD rule file (required with --data)
    --out         where to write the repair
    --weights     optional per-cell confidence weights (CSV, same shape)
    --algorithm   batch (default) or an IncRepair ordering
    --pick        BatchRepair PICKNEXT strategy (default global)
    --k           IncRepair attribute-set size (default 2)
    --emit-edits  also write the repair as an id-level edit log, replayable
                  with --apply-edits against the same input
    --apply-edits replay a previously emitted edit log instead of running
                  a repair algorithm (verifies every edit's old value and
                  that the result satisfies the rules)
    --stats       print repair statistics";

pub fn run(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let data = args.get("data").map(str::to_string);
    let snapshot = args.get("snapshot").map(str::to_string);
    let catalog = args.get("catalog").map(str::to_string);
    let rules = args.get("rules").map(str::to_string);
    let out_path = args.require("out")?.to_string();
    let weights = args.get("weights").map(str::to_string);
    let algorithm = args.get("algorithm").unwrap_or("batch").to_string();
    let pick = args.get("pick").unwrap_or("global").to_string();
    let k: usize = args.get_parsed("k", 2)?;
    let emit_edits = args.get("emit-edits").map(str::to_string);
    let apply_edits = args.get("apply-edits").map(str::to_string);
    let stats = args.switch("stats");
    args.reject_unknown()?;

    if emit_edits.is_some() && apply_edits.is_some() {
        return Err("--emit-edits and --apply-edits are mutually exclusive".into());
    }

    let algorithm: Algorithm = algorithm
        .parse()
        .map_err(|_| format!("unknown --algorithm {algorithm:?} (batch, v-inc, w-inc, l-inc)"))?;
    let pick: PickStrategy = pick
        .parse()
        .map_err(|_| format!("unknown --pick {pick:?}"))?;
    let opts = RepairOptions::new().algorithm(algorithm).pick(pick).k(k);

    // The input: a CSV file or a catalog snapshot (which may carry its
    // own rules).
    let (mut rel, embedded_rules) = match (&data, &snapshot) {
        (Some(_), Some(_)) => return Err("--data and --snapshot are mutually exclusive".into()),
        (None, None) => return Err("one of --data or --snapshot is required".into()),
        (Some(data), None) => (load_relation(Path::new(data))?, None),
        (None, Some(name)) => {
            let dir = catalog
                .as_deref()
                .ok_or("--snapshot requires --catalog DIR")?;
            let loaded = open_catalog(dir)?
                .load(name)
                .map_err(|e| format!("cannot load snapshot {name:?}: {e}"))?;
            (loaded.relation, loaded.rules)
        }
    };
    if let Some(w) = &weights {
        load_weights(&mut rel, Path::new(w))?;
    }
    let name = rel.schema().name().to_string();
    let mut handle = DatasetHandle::from_relation(name, rel);
    match (&rules, &embedded_rules) {
        (Some(path), _) => {
            let text = read_rules_text(Path::new(path))?;
            handle.bind_rules(&text, path)?;
        }
        (None, Some(text)) => handle.bind_rules(
            text,
            &format!(
                "snapshot {:?} embedded rules",
                snapshot.as_deref().unwrap_or("")
            ),
        )?,
        (None, None) => {
            return Err(if snapshot.is_some() {
                "--rules is required (the input snapshot carries no embedded rules)".into()
            } else {
                CliError::from("--rules is required with --data")
            })
        }
    }

    if let Some(log_path) = &apply_edits {
        return apply_edit_log(handle.relation(), handle.sigma()?, log_path, &out_path, out);
    }

    let t0 = Instant::now();
    let run = handle.repair(&opts, emit_edits.is_some())?;
    let elapsed = t0.elapsed();

    save_relation(&run.repair, Path::new(&out_path))?;
    if let (Some(log_path), Some(bytes)) = (&emit_edits, &run.edit_log) {
        std::fs::write(log_path, bytes).map_err(|e| format!("cannot write {log_path}: {e}"))?;
    }

    writeln!(
        out,
        "repaired {} tuples with {}: {} cell(s) changed in {:.2?} -> {out_path}",
        run.tuples, run.algorithm, run.cells_changed, elapsed
    )?;
    if stats {
        writeln!(out, "  {}", run.detail)?;
    }
    if let Some(log_path) = &emit_edits {
        writeln!(out, "  edit log -> {log_path}")?;
    }
    Ok(())
}

/// The `--apply-edits` path: replay a previously emitted id-level edit
/// log onto the loaded input instead of running a repair algorithm. The
/// log's own old-value verification plus the Σ check make a stale or
/// misaddressed log a hard error, never a silently wrong output.
fn apply_edit_log(
    rel: &cfd_model::Relation,
    sigma: &cfd_cfd::Sigma,
    log_path: &str,
    out_path: &str,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let loaded = load_edit_log(Path::new(log_path), rel.pool())?;
    if loaded.arity != rel.schema().arity() {
        return Err(format!(
            "edit log {log_path} was derived for arity {}, input has arity {}",
            loaded.arity,
            rel.schema().arity()
        )
        .into());
    }
    // Relation names are CSV file stems, so a mismatch is often benign
    // (dirty.csv vs restored.csv of the same dataset) — surface it as a
    // notice and let the per-edit old-value verification plus the Σ
    // check below decide whether the log actually fits.
    if loaded.relation != rel.schema().name() {
        writeln!(
            out,
            "note: edit log {log_path} was derived for relation {:?}, input is {:?}",
            loaded.relation,
            rel.schema().name()
        )?;
    }
    let mut repaired = rel.clone();
    loaded
        .log
        .apply(&mut repaired)
        .map_err(|e| format!("cannot replay {log_path}: {e}"))?;
    if !check(&repaired, sigma) {
        return Err(format!(
            "replayed relation does not satisfy the rules \
             (edit log {log_path} does not belong to this input/rule pair)"
        )
        .into());
    }
    save_relation(&repaired, Path::new(out_path))?;
    writeln!(
        out,
        "replayed {} edit(s) from {log_path} onto {} tuples -> {out_path}",
        loaded.log.len(),
        rel.len()
    )?;
    Ok(())
}
