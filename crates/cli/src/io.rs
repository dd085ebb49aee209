//! Shared file plumbing for the commands: CSV relations, weight files and
//! CFD rule files, with errors that name the offending path.

use std::fs;
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;

use cfd_cfd::parser::parse_rules;
use cfd_cfd::{Cfd, Sigma};
use cfd_model::{csv, Relation, ValuePool};

/// A CLI-level error: human-readable message, exit code 1.
pub type CliError = Box<dyn std::error::Error>;

fn context<E: std::fmt::Display>(what: &str, path: &Path, e: E) -> CliError {
    format!("{what} {}: {e}", path.display()).into()
}

/// Load a relation from a CSV file; the relation is named after the file
/// stem so rule files can reference it. Each load gets its own fresh
/// [`ValuePool`], so a command's output depends only on the files it was
/// given — never on what else the process loaded first. Commands that
/// combine two relations (e.g. an update delta against its base) must
/// load the second into the first's pool with [`load_relation_in`].
pub fn load_relation(path: &Path) -> Result<Relation, CliError> {
    load_relation_in(path, ValuePool::new_handle())
}

/// Load a relation from a CSV file into an explicit pool.
pub fn load_relation_in(
    path: &Path,
    pool: std::sync::Arc<ValuePool>,
) -> Result<Relation, CliError> {
    let file = fs::File::open(path).map_err(|e| context("cannot open", path, e))?;
    let name = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("relation");
    csv::read_relation_in(name, &mut BufReader::new(file), pool)
        .map_err(|e| context("cannot parse", path, e))
}

/// Apply a weight CSV (written by `--save-weights` or by hand) to `rel`.
pub fn load_weights(rel: &mut Relation, path: &Path) -> Result<(), CliError> {
    let file = fs::File::open(path).map_err(|e| context("cannot open", path, e))?;
    csv::read_weights(rel, &mut BufReader::new(file))
        .map_err(|e| context("cannot parse weights", path, e))
}

/// Write a relation to a CSV file.
pub fn save_relation(rel: &Relation, path: &Path) -> Result<(), CliError> {
    let file = fs::File::create(path).map_err(|e| context("cannot create", path, e))?;
    let mut w = BufWriter::new(file);
    csv::write_relation(rel, &mut w).map_err(|e| context("cannot write", path, e))?;
    w.flush().map_err(|e| context("cannot write", path, e))?;
    Ok(())
}

/// Write a relation's weights to a CSV file.
pub fn save_weights(rel: &Relation, path: &Path) -> Result<(), CliError> {
    let file = fs::File::create(path).map_err(|e| context("cannot create", path, e))?;
    let mut w = BufWriter::new(file);
    csv::write_weights(rel, &mut w).map_err(|e| context("cannot write", path, e))?;
    w.flush().map_err(|e| context("cannot write", path, e))?;
    Ok(())
}

/// Parse a rule file against `rel`'s schema and normalize it into a Σ.
pub fn load_sigma(rel: &Relation, path: &Path) -> Result<Sigma, CliError> {
    let text = read_rules_text(path)?;
    sigma_from_text(rel, &text, &path.display().to_string())
}

/// Read a rule file's text; parsing happens where the rules are bound
/// (the [`cfdclean::Session`] facade names this path in its errors).
pub fn read_rules_text(path: &Path) -> Result<String, CliError> {
    fs::read_to_string(path).map_err(|e| context("cannot read", path, e))
}

/// Parse rule text (from a file or a snapshot's embedded RULES segment)
/// against `rel`'s schema and normalize it into a Σ whose pattern
/// constants live in `rel`'s pool. `origin` names the source in error
/// messages.
pub fn sigma_from_text(rel: &Relation, text: &str, origin: &str) -> Result<Sigma, CliError> {
    let cfds =
        parse_rules(rel.schema(), text).map_err(|e| format!("cannot parse {origin}: {e}"))?;
    if cfds.is_empty() {
        return Err(format!("no rules in {origin}: the text parsed to zero CFDs").into());
    }
    Sigma::normalize_in(rel.schema().clone(), cfds, rel.pool())
        .map_err(|e| format!("cannot normalize rules in {origin}: {e}").into())
}

/// A handle on a snapshot catalog directory. Read operations error on a
/// missing directory (a mistyped `--catalog` must not silently create an
/// empty catalog); only `save` creates it.
pub fn open_catalog(dir: &str) -> Result<cfd_model::Catalog, CliError> {
    cfd_model::Catalog::open(dir).map_err(|e| format!("cannot open catalog {dir}: {e}").into())
}

/// Write an edit log derived against `rel` to `path`.
pub fn save_edit_log(
    log: &cfd_model::EditLog,
    rel: &Relation,
    path: &Path,
) -> Result<(), CliError> {
    let bytes = cfd_model::snapshot::edit_log_to_vec(
        log,
        rel.schema().name(),
        rel.schema().arity(),
        rel.pool(),
    );
    fs::write(path, bytes).map_err(|e| context("cannot write", path, e))
}

/// Read an edit-log file, interning its values into `pool` — pass the
/// pool of the relation the log will be replayed against.
pub fn load_edit_log(
    path: &Path,
    pool: &ValuePool,
) -> Result<cfd_model::snapshot::LoadedEditLog, CliError> {
    let bytes = fs::read(path).map_err(|e| context("cannot open", path, e))?;
    cfd_model::snapshot::read_edit_log_in(&bytes, pool)
        .map_err(|e| context("cannot parse", path, e))
}

/// Write CFDs to disk as rule-file text.
pub fn save_rules(schema: &cfd_model::Schema, cfds: &[Cfd], path: &Path) -> Result<(), CliError> {
    let mut text = String::new();
    for cfd in cfds {
        text.push_str(&cfd_cfd::parser::render_cfd(schema, cfd));
        text.push('\n');
    }
    fs::write(path, text).map_err(|e| context("cannot write", path, e))
}
