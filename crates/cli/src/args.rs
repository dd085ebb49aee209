//! Minimal flag parser for the `cfdclean` binary.
//!
//! Hand-rolled on purpose: the session's dependency budget covers no CLI
//! framework, and the surface is small — long flags with one value
//! (`--data file.csv`), boolean switches (`--stats`), and a required
//! subcommand. Unknown flags are hard errors so typos do not silently run
//! a repair with defaults.

use std::collections::BTreeMap;

/// Parsed command line: the subcommand name plus its flags.
#[derive(Debug, Default)]
pub struct Args {
    /// Flags with values, e.g. `--data x.csv` → `("data", "x.csv")`.
    values: BTreeMap<String, String>,
    /// Boolean switches, e.g. `--stats`.
    switches: Vec<String>,
    /// Flags actually consumed by the command (for unknown-flag errors).
    consumed: std::cell::RefCell<Vec<String>>,
}

/// A command-line error: message plus the usage string to print.
#[derive(Debug)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parse `argv` (without the program name and subcommand). Switches in
    /// `switch_names` take no value; every other `--flag` consumes one.
    pub fn parse<S: AsRef<str>>(argv: &[S], switch_names: &[&str]) -> Result<Args, ArgError> {
        let mut args = Args::default();
        let mut it = argv.iter().map(|s| s.as_ref());
        while let Some(tok) = it.next() {
            let Some(name) = tok.strip_prefix("--") else {
                return Err(ArgError(format!(
                    "unexpected positional argument {tok:?} (flags are --name value)"
                )));
            };
            if name.is_empty() {
                return Err(ArgError("bare `--` is not a flag".to_string()));
            }
            if switch_names.contains(&name) {
                args.switches.push(name.to_string());
            } else {
                let value = it
                    .next()
                    .ok_or_else(|| ArgError(format!("flag --{name} expects a value")))?;
                if args
                    .values
                    .insert(name.to_string(), value.to_string())
                    .is_some()
                {
                    return Err(ArgError(format!("flag --{name} given twice")));
                }
            }
        }
        Ok(args)
    }

    /// A required flag value.
    pub fn require(&self, name: &str) -> Result<&str, ArgError> {
        self.consumed.borrow_mut().push(name.to_string());
        self.values
            .get(name)
            .map(|s| s.as_str())
            .ok_or_else(|| ArgError(format!("missing required flag --{name}")))
    }

    /// An optional flag value.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.consumed.borrow_mut().push(name.to_string());
        self.values.get(name).map(|s| s.as_str())
    }

    /// An optional flag parsed to `T`, with a default.
    pub fn get_parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, ArgError> {
        match self.get(name) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| {
                ArgError(format!(
                    "flag --{name}: cannot parse {raw:?} as {}",
                    std::any::type_name::<T>()
                ))
            }),
        }
    }

    /// Whether a boolean switch was given.
    pub fn switch(&self, name: &str) -> bool {
        self.consumed.borrow_mut().push(name.to_string());
        self.switches.iter().any(|s| s == name)
    }

    /// Error if any provided flag was never consumed by the command.
    pub fn reject_unknown(&self) -> Result<(), ArgError> {
        let consumed = self.consumed.borrow();
        for name in self.values.keys() {
            if !consumed.iter().any(|c| c == name) {
                return Err(ArgError(format!("unknown flag --{name}")));
            }
        }
        for name in &self.switches {
            if !consumed.iter().any(|c| c == name) {
                return Err(ArgError(format!("unknown flag --{name}")));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_values_and_switches() {
        // A switch takes no value, so a flag after it still parses.
        for argv in [
            ["--data", "x.csv", "--stats"],
            ["--stats", "--data", "x.csv"],
        ] {
            let a = Args::parse(&argv, &["stats"]).unwrap();
            assert_eq!(a.require("data").unwrap(), "x.csv");
            assert!(a.switch("stats"));
            assert!(a.reject_unknown().is_ok());
        }
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(Args::parse(&["--data"], &[]).is_err());
    }

    #[test]
    fn duplicate_flag_is_an_error() {
        assert!(Args::parse(&["--data", "a", "--data", "b"], &[]).is_err());
    }

    #[test]
    fn positional_rejected() {
        assert!(Args::parse(&["stray"], &[]).is_err());
    }

    #[test]
    fn unknown_flag_detected() {
        let a = Args::parse(&["--oops", "1"], &[]).unwrap();
        let _ = a.get("data");
        assert!(a.reject_unknown().is_err());
    }

    #[test]
    fn get_parsed_defaults_and_parses() {
        let a = Args::parse(&["--k", "2"], &[]).unwrap();
        assert_eq!(a.get_parsed("k", 1usize).unwrap(), 2);
        assert_eq!(a.get_parsed("seed", 42u64).unwrap(), 42);
    }

    #[test]
    fn get_parsed_rejects_garbage() {
        let a = Args::parse(&["--k", "two"], &[]).unwrap();
        assert!(a.get_parsed("k", 1usize).is_err());
    }
}
