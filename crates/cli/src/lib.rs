//! Library surface of the `cfdclean` command-line tool.
//!
//! The binary (`src/main.rs`) is a thin shell over [`dispatch`]; tests
//! call [`dispatch`] directly with a capture buffer. Commands:
//!
//! | command | purpose |
//! |---|---|
//! | `detect`   | report CFD violations in a CSV file |
//! | `repair`   | whole-database repair (BATCHREPAIR / INCREPAIR §5.3), from CSV or a snapshot, optionally emitting / replaying id-level edit logs |
//! | `insert`   | incremental repair of inserted tuples (§5) |
//! | `stream`   | windowed streaming repair over a timestamped event log |
//! | `certify`  | §6 sampling certification of a repair |
//! | `generate` | emit the paper's synthetic workload |
//! | `snapshot` | save / load / describe persistent dataset snapshots |
//! | `catalog`  | combine a snapshot with its derived artifacts (diff two edit logs over one base) |
//! | `serve`    | run the resident repair daemon (datasets stay warm) |
//! | `client`   | drive a running daemon |

#![forbid(unsafe_code)]

use std::io::Write;

pub mod args;
pub mod commands;
pub mod io;

use args::Args;
use io::CliError;

/// The rule-file syntax, shown by `cfdclean help rules`.
pub const RULES_HELP: &str = "CFD rule file syntax (one rule per dependency):

  phi1: [AC, PN] -> [STR, CT, ST] {
    (212, _ || _, NYC, NY);
    (610, _ || _, PHI, PA)
  }
  fd3: [id] -> [name, PR]

`name: [X] -> [Y]` declares the embedded FD; the optional `{ ... }` block
lists pattern rows `(lhs-cells || rhs-cells)` where `_` is the wildcard
and constants may be quoted with single quotes. A rule without a tableau
is a plain FD (a single all-wildcard row). `#` starts a comment.";

/// Top-level usage.
pub const USAGE: &str = "usage: cfdclean <command> [flags]

commands:
  detect     report CFD violations in a CSV file
  repair     repair a CSV file against a rule file
  insert     insert + repair new tuples against a clean base
  stream     windowed streaming repair over a timestamped event log
  certify    certify a repair's accuracy by stratified sampling
  generate   emit a synthetic order workload
  snapshot   save, load, or describe persistent dataset snapshots
  catalog    operations over snapshots + edit logs (diff two repairs)
  serve      run the resident repair daemon
  client     drive a running daemon (same ops, results byte-identical)
  help       show help (try: cfdclean help rules)

run `cfdclean <command>` without flags for that command's usage";

/// Run one command line (without the program name). Output goes to `out`;
/// the error path returns the message for the caller to print.
pub fn dispatch<S: AsRef<str>>(argv: &[S], out: &mut dyn Write) -> Result<(), CliError> {
    let Some(command) = argv.first().map(|s| s.as_ref()) else {
        return Err(USAGE.into());
    };
    let rest = &argv[1..];
    let usage_for = |u: &str| -> CliError { u.into() };
    match command {
        "detect" | "repair" | "insert" | "stream" | "certify" | "generate" | "snapshot"
        | "catalog" | "serve" | "client"
            if rest.is_empty() =>
        {
            Err(usage_for(usage_of(command)))
        }
        "detect" => run_cmd(
            rest,
            &[],
            out,
            commands::detect::run,
            commands::detect::USAGE,
        ),
        "repair" => run_cmd(
            rest,
            &["stats"],
            out,
            commands::repair::run,
            commands::repair::USAGE,
        ),
        "insert" => run_cmd(
            rest,
            &[],
            out,
            commands::insert::run,
            commands::insert::USAGE,
        ),
        "stream" => run_cmd(
            rest,
            &[],
            out,
            commands::stream::run,
            commands::stream::USAGE,
        ),
        "certify" => run_cmd(
            rest,
            &[],
            out,
            commands::certify::run,
            commands::certify::USAGE,
        ),
        "generate" => run_cmd(
            rest,
            &[],
            out,
            commands::generate::run,
            commands::generate::USAGE,
        ),
        "snapshot" => {
            let Some(action) = rest.first().map(|s| s.as_ref()) else {
                return Err(usage_for(commands::snapshot::USAGE));
            };
            let usage = commands::snapshot::USAGE;
            let args = args::Args::parse(&rest[1..], &[]).map_err(|e| format!("{e}\n\n{usage}"))?;
            with_usage(out, usage, |out| {
                commands::snapshot::run(action, &args, out)
            })
        }
        "catalog" => {
            let Some(action) = rest.first().map(|s| s.as_ref()) else {
                return Err(usage_for(commands::catalog::USAGE));
            };
            let usage = commands::catalog::USAGE;
            let args = args::Args::parse(&rest[1..], &[]).map_err(|e| format!("{e}\n\n{usage}"))?;
            with_usage(out, usage, |out| commands::catalog::run(action, &args, out))
        }
        "serve" => run_cmd(rest, &[], out, commands::serve::run, commands::serve::USAGE),
        "client" => {
            let Some(op) = rest.first().map(|s| s.as_ref()) else {
                return Err(usage_for(commands::client::USAGE));
            };
            let usage = commands::client::USAGE;
            let args =
                args::Args::parse(&rest[1..], &["stats"]).map_err(|e| format!("{e}\n\n{usage}"))?;
            with_usage(out, usage, |out| commands::client::run(op, &args, out))
        }
        "help" => {
            match rest.first().map(|s| s.as_ref()) {
                Some("rules") => writeln!(out, "{RULES_HELP}")?,
                Some(cmd) => writeln!(out, "{}", usage_of(cmd))?,
                None => writeln!(out, "{USAGE}")?,
            }
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n\n{USAGE}").into()),
    }
}

fn usage_of(command: &str) -> &'static str {
    match command {
        "detect" => commands::detect::USAGE,
        "repair" => commands::repair::USAGE,
        "insert" => commands::insert::USAGE,
        "stream" => commands::stream::USAGE,
        "certify" => commands::certify::USAGE,
        "generate" => commands::generate::USAGE,
        "snapshot" => commands::snapshot::USAGE,
        "catalog" => commands::catalog::USAGE,
        "serve" => commands::serve::USAGE,
        "client" => commands::client::USAGE,
        _ => USAGE,
    }
}

fn run_cmd<S: AsRef<str>>(
    rest: &[S],
    switches: &[&str],
    out: &mut dyn Write,
    f: fn(&Args, &mut dyn Write) -> Result<(), CliError>,
    usage: &str,
) -> Result<(), CliError> {
    let args = Args::parse(rest, switches).map_err(|e| format!("{e}\n\n{usage}"))?;
    with_usage(out, usage, |out| f(&args, out))
}

/// Run a command on `out`, appending `usage` to its error unless writing
/// `out` failed: that error (a closed pipe, a full disk) is the output's,
/// not a usage mistake, and passes through unchanged.
fn with_usage(
    out: &mut dyn Write,
    usage: &str,
    command: impl FnOnce(&mut dyn Write) -> Result<(), CliError>,
) -> Result<(), CliError> {
    let mut output = Output { out, failed: false };
    match command(&mut output) {
        Err(e) if !output.failed => Err(format!("{e}\n\n{usage}").into()),
        result => result,
    }
}

/// A command's output, remembering whether a write to it failed.
struct Output<'o> {
    out: &'o mut dyn Write,
    failed: bool,
}

impl Write for Output<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let written = self.out.write(buf);
        self.failed |= written
            .as_ref()
            .is_err_and(|e| e.kind() != std::io::ErrorKind::Interrupted);
        written
    }

    fn flush(&mut self) -> std::io::Result<()> {
        let flushed = self.out.flush();
        self.failed |= flushed.is_err();
        flushed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::ErrorKind;

    /// An output whose reader has gone, like stdout piped into `head`.
    struct ClosedPipe;

    impl Write for ClosedPipe {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(ErrorKind::BrokenPipe.into())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_closed_output_is_not_a_usage_error() {
        let fixtures = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures");
        let data = format!("{fixtures}/cust_dirty.csv");
        let rules = format!("{fixtures}/cust_rules.txt");
        for (argv, usage) in [
            (
                vec!["detect", "--data", &data, "--rules", &rules],
                commands::detect::USAGE,
            ),
            (
                vec!["snapshot", "info", "--catalog", fixtures],
                commands::snapshot::USAGE,
            ),
        ] {
            let err = dispatch(&argv, &mut ClosedPipe).unwrap_err();
            let kind = err.downcast_ref::<std::io::Error>().map(|e| e.kind());
            assert_eq!(kind, Some(ErrorKind::BrokenPipe), "{argv:?}: {err}");
            assert!(!err.to_string().contains(usage), "{argv:?}: {err}");
        }
        // An error of the command itself still shows the usage.
        let missing = format!("{fixtures}/no_such.csv");
        let argv = ["detect", "--data", &missing, "--rules", &rules];
        let err = dispatch(&argv, &mut ClosedPipe).unwrap_err();
        assert!(err.to_string().contains(commands::detect::USAGE), "{err}");
    }
}
