//! A small argument parser for the `snowcat` CLI — flags of the form
//! `--name value` and `--flag`, with typed accessors and unknown-flag
//! rejection. Deliberately dependency-free.

use std::collections::BTreeMap;

/// Parsed command line: a subcommand plus `--key value` options.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// The subcommand (first non-flag token).
    pub command: Option<String>,
    opts: BTreeMap<String, String>,
    flags: Vec<String>,
    positionals: Vec<String>,
}

/// Parsing errors, rendered to the user as-is.
#[derive(Debug, PartialEq, Eq)]
pub enum ArgError {
    /// A value failed to parse as the requested type.
    BadValue(String, String),
    /// An option the command does not understand.
    Unknown(String),
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::BadValue(k, v) => write!(f, "--{k}: cannot parse {v:?}"),
            ArgError::Unknown(k) => write!(f, "unknown option --{k}"),
        }
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parse a token stream (excluding argv[0]).
    pub fn parse<I: IntoIterator<Item = String>>(tokens: I) -> Result<Self, ArgError> {
        let mut out = Args::default();
        let mut it = tokens.into_iter().peekable();
        while let Some(tok) = it.next() {
            if let Some(name) = tok.strip_prefix("--") {
                // A flag followed by another flag (or nothing) is boolean.
                match it.peek() {
                    Some(next) if !next.starts_with("--") => {
                        let v = it.next().expect("peeked");
                        out.opts.insert(name.to_string(), v);
                    }
                    _ => out.flags.push(name.to_string()),
                }
            } else if out.command.is_none() {
                out.command = Some(tok);
            } else {
                // Positional operands after the subcommand. Most commands
                // take none and reject them in `ensure_known`; the ones
                // that do (e.g. `status <dir>`) read them explicitly.
                out.positionals.push(tok);
            }
        }
        Ok(out)
    }

    /// String option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.opts.get(key).map(String::as_str)
    }

    /// String option with a default.
    pub fn get_or(&self, key: &str, default: &str) -> String {
        self.get(key).unwrap_or(default).to_string()
    }

    /// Typed option with a default.
    pub fn get_parse<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError> {
        Ok(self.get_parse_opt(key)?.unwrap_or(default))
    }

    /// Typed option without a default: `None` when absent.
    pub fn get_parse_opt<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, ArgError> {
        self.get(key)
            .map(|v| v.parse().map_err(|_| ArgError::BadValue(key.to_string(), v.to_string())))
            .transpose()
    }

    /// Boolean flag presence.
    pub fn has_flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// Positional operand by index (after the subcommand).
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positionals.get(i).map(String::as_str)
    }

    /// Reject any option/flag not in `allowed` and any positional operand
    /// (catches typos early). Commands that take positionals use
    /// [`Args::ensure_known_with_positionals`].
    pub fn ensure_known(&self, allowed: &[&str]) -> Result<(), ArgError> {
        self.ensure_known_with_positionals(allowed, 0)
    }

    /// Like [`Args::ensure_known`], but permitting up to `max_positionals`
    /// positional operands.
    pub fn ensure_known_with_positionals(
        &self,
        allowed: &[&str],
        max_positionals: usize,
    ) -> Result<(), ArgError> {
        for k in self.opts.keys().chain(self.flags.iter()) {
            if !allowed.contains(&k.as_str()) {
                return Err(ArgError::Unknown(k.clone()));
            }
        }
        if let Some(extra) = self.positionals.get(max_positionals) {
            return Err(ArgError::Unknown(extra.clone()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn parses_command_options_and_flags() {
        let a = parse("train --version 6.1 --ctis 40 --verbose");
        assert_eq!(a.command.as_deref(), Some("train"));
        assert_eq!(a.get("version"), Some("6.1"));
        assert_eq!(a.get_parse("ctis", 0usize).unwrap(), 40);
        assert!(a.has_flag("verbose"));
        assert!(!a.has_flag("quiet"));
    }

    #[test]
    fn typed_defaults_apply() {
        let a = parse("fuzz");
        assert_eq!(a.get_parse("iterations", 7usize).unwrap(), 7);
        assert_eq!(a.get_or("version", "5.12"), "5.12");
    }

    #[test]
    fn bad_value_is_reported() {
        let a = parse("fuzz --iterations banana");
        let err = a.get_parse("iterations", 0usize).unwrap_err();
        assert_eq!(err, ArgError::BadValue("iterations".into(), "banana".into()));
    }

    #[test]
    fn unknown_options_are_caught() {
        let a = parse("fuzz --iterations 3 --bogus 1");
        assert!(a.ensure_known(&["iterations"]).is_err());
        assert!(a.ensure_known(&["iterations", "bogus"]).is_ok());
    }

    #[test]
    fn stray_positional_is_an_error() {
        let a = parse("fuzz extra");
        let err = a.ensure_known(&["iterations"]).unwrap_err();
        assert_eq!(err, ArgError::Unknown("extra".into()));
    }

    #[test]
    fn positionals_are_accessible_when_permitted() {
        let a = parse("status /tmp/run --json");
        assert_eq!(a.positional(0), Some("/tmp/run"));
        assert!(a.ensure_known_with_positionals(&["json"], 1).is_ok());
        assert!(a.ensure_known_with_positionals(&["json"], 0).is_err());
    }

    #[test]
    fn trailing_boolean_flag() {
        let a = parse("kernel --stats");
        assert!(a.has_flag("stats"));
    }
}
