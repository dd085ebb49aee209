//! Minimal flag parser for the `cfdclean` binary.
//!
//! Hand-rolled on purpose: the session's dependency budget covers no CLI
//! framework, and the surface is small — long flags with one value
//! (`--data file.csv`), boolean switches (`--stats`), and a required
//! subcommand. Unknown flags are hard errors so typos do not silently run
//! a repair with defaults. A token starting with `--` is always a flag,
//! never a value, so an undeclared flag reads as unknown wherever it
//! stands on the line.

use std::collections::BTreeMap;

/// Parsed command line: the subcommand name plus its flags.
#[derive(Debug, Default)]
pub struct Args {
    /// Flags with values, e.g. `--data x.csv` → `("data", "x.csv")`.
    values: BTreeMap<String, String>,
    /// Boolean switches, e.g. `--stats`.
    switches: Vec<String>,
    /// Flags that are not switches but have no value: the last token, or
    /// followed by another flag. An error once the command reads them
    /// (`expects a value`) or rejects them as unknown.
    bare: Vec<String>,
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
    /// `switch_names` take no value; every other `--flag` takes the next
    /// token as its value unless that token is a flag too.
    pub fn parse<S: AsRef<str>>(argv: &[S], switch_names: &[&str]) -> Result<Args, ArgError> {
        let mut args = Args::default();
        let mut it = argv.iter().map(|s| s.as_ref()).peekable();
        while let Some(tok) = it.next() {
            let Some(name) = tok.strip_prefix("--") else {
                return Err(ArgError(format!(
                    "unexpected positional argument {tok:?} (flags are --name value)"
                )));
            };
            if name.is_empty() {
                return Err(ArgError("bare `--` is not a flag".to_string()));
            }
            if args.values.contains_key(name) || args.bare.iter().any(|b| b == name) {
                return Err(ArgError(format!("flag --{name} given twice")));
            }
            if switch_names.contains(&name) {
                args.switches.push(name.to_string());
            } else if let Some(value) = it.next_if(|next| !next.starts_with("--")) {
                args.values.insert(name.to_string(), value.to_string());
            } else {
                args.bare.push(name.to_string());
            }
        }
        Ok(args)
    }

    /// A required flag value.
    pub fn require(&self, name: &str) -> Result<&str, ArgError> {
        self.consumed.borrow_mut().push(name.to_string());
        if self.bare.iter().any(|b| b == name) {
            return Err(ArgError(format!("flag --{name} expects a value")));
        }
        self.values
            .get(name)
            .map(|s| s.as_str())
            .ok_or_else(|| ArgError(format!("missing required flag --{name}")))
    }

    /// An optional flag value. A flag given without one reads as absent
    /// here, and [`reject_unknown`](Self::reject_unknown) reports it.
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

    /// Error if any provided flag was never consumed by the command, or
    /// a flag it reads was given without a value.
    pub fn reject_unknown(&self) -> Result<(), ArgError> {
        let consumed = self.consumed.borrow();
        if let Some(name) = self.bare.first() {
            return Err(ArgError(if consumed.iter().any(|c| c == name) {
                format!("flag --{name} expects a value")
            } else {
                format!("unknown flag --{name}")
            }));
        }
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
        // At the end of the line or before another flag, a flag the
        // command reads has no value.
        for argv in [&["--data"][..], &["--data", "--rules", "r.cfd"]] {
            let a = Args::parse(argv, &[]).unwrap();
            let err = a.require("data").unwrap_err();
            assert_eq!(err.0, "flag --data expects a value");
            assert_eq!(a.get("rules"), argv.get(2).copied());
            assert_eq!(a.reject_unknown().unwrap_err().0, err.0);
        }
        let a = Args::parse(&["--limit"], &[]).unwrap();
        assert_eq!(a.get("limit"), None);
        assert_eq!(
            a.reject_unknown().unwrap_err().0,
            "flag --limit expects a value"
        );
    }

    /// What `cfdclean detect` reads, then its unknown-flag check.
    fn detect_flags(argv: &[&str]) -> Result<(), ArgError> {
        let a = Args::parse(argv, &[])?;
        a.require("data")?;
        a.require("rules")?;
        a.get_parsed("limit", 5usize)?;
        a.reject_unknown()
    }

    #[test]
    fn undeclared_flag_is_unknown_wherever_it_stands() {
        for argv in [
            &["--data", "d.csv", "--no-simd", "--rules", "r.cfd"][..],
            &["--data", "d.csv", "--rules", "r.cfd", "--no-simd"],
            &["--no-simd", "--data", "d.csv", "--rules", "r.cfd"],
            &["--data", "d.csv", "--no-simd", "1", "--rules", "r.cfd"],
            &["--data", "d.csv", "--rules", "r.cfd", "--no-simd", "1"],
        ] {
            let err = detect_flags(argv).unwrap_err();
            assert_eq!(err.0, "unknown flag --no-simd", "{argv:?}");
        }
        assert!(detect_flags(&["--data", "d.csv", "--rules", "r.cfd"]).is_ok());
    }

    #[test]
    fn duplicate_flag_is_an_error() {
        assert!(Args::parse(&["--data", "a", "--data", "b"], &[]).is_err());
        assert!(Args::parse(&["--data", "--data", "b"], &[]).is_err());
        assert!(Args::parse(&["--data", "a", "--data"], &[]).is_err());
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
