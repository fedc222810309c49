//! A small, dependency-free argument parser: positional arguments plus
//! `--flag value` options and declared boolean `--flag` switches.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Parsed command line: a subcommand, positionals, `--key value` options,
/// and boolean flags declared up front via [`Args::parse_with_flags`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Args {
    /// The subcommand (first argument).
    pub command: String,
    /// Positional arguments after the subcommand.
    pub positional: Vec<String>,
    /// `--key value` options.
    pub options: BTreeMap<String, String>,
    /// Boolean `--flag` switches that were present.
    pub flags: BTreeSet<String>,
}

/// Error produced when the command line is malformed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseArgsError {
    what: String,
}

impl fmt::Display for ParseArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid arguments: {}", self.what)
    }
}

impl std::error::Error for ParseArgsError {}

impl Args {
    /// Parses `argv` (without the program name).
    ///
    /// # Errors
    ///
    /// Returns an error when no subcommand is present or an option is
    /// missing its value.
    pub fn parse<I, S>(argv: I) -> Result<Self, ParseArgsError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Self::parse_with_flags(argv, &[])
    }

    /// Parses `argv` like [`Args::parse`], but treats every `--name` listed
    /// in `boolean_flags` as a valueless switch (recorded in [`Args::flags`])
    /// rather than a `--key value` option. Any other dangling `--option`
    /// still errors, so declared flags never swallow the next argument.
    ///
    /// # Errors
    ///
    /// Returns an error when no subcommand is present or an undeclared
    /// option is missing its value.
    pub fn parse_with_flags<I, S>(argv: I, boolean_flags: &[&str]) -> Result<Self, ParseArgsError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut it = argv.into_iter().map(Into::into);
        let command = it.next().ok_or_else(|| ParseArgsError {
            what: "missing subcommand".into(),
        })?;
        let mut positional = Vec::new();
        let mut options = BTreeMap::new();
        let mut flags = BTreeSet::new();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                if boolean_flags.contains(&key) {
                    flags.insert(key.to_string());
                    continue;
                }
                let value = it.next().ok_or_else(|| ParseArgsError {
                    what: format!("option --{key} is missing its value"),
                })?;
                options.insert(key.to_string(), value);
            } else {
                positional.push(a);
            }
        }
        Ok(Self {
            command,
            positional,
            options,
            flags,
        })
    }

    /// Option value, if present.
    pub fn opt(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// Whether a declared boolean flag was present.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.contains(key)
    }

    /// Option parsed as `T`, or `default` when absent.
    ///
    /// # Errors
    ///
    /// Returns an error when the value is present but unparsable.
    pub fn opt_parse<T: std::str::FromStr>(
        &self,
        key: &str,
        default: T,
    ) -> Result<T, ParseArgsError> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ParseArgsError {
                what: format!("option --{key}: cannot parse {v:?}"),
            }),
        }
    }

    /// The single required positional argument.
    ///
    /// # Errors
    ///
    /// Returns an error when it is missing.
    pub fn required_positional(&self, name: &str) -> Result<&str, ParseArgsError> {
        self.positional
            .first()
            .map(String::as_str)
            .ok_or_else(|| ParseArgsError {
                what: format!("missing required argument <{name}>"),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_subcommand_positionals_and_options() {
        let a = Args::parse([
            "optimize",
            "model.snapea",
            "--images",
            "8",
            "--out",
            "tuned.snapea",
        ])
        .unwrap();
        assert_eq!(a.command, "optimize");
        assert_eq!(a.positional, vec!["model.snapea"]);
        assert_eq!(a.opt("images"), Some("8"));
        assert_eq!(a.opt_parse("images", 0usize).unwrap(), 8);
        assert_eq!(a.opt_parse("missing", 3usize).unwrap(), 3);
        assert_eq!(a.required_positional("model").unwrap(), "model.snapea");
    }

    #[test]
    fn rejects_missing_subcommand_and_dangling_option() {
        assert!(Args::parse(Vec::<String>::new()).is_err());
        assert!(Args::parse(["x", "--flag"]).is_err());
    }

    #[test]
    fn declared_boolean_flags_take_no_value() {
        let a = Args::parse_with_flags(
            ["simulate", "--json", "model.snapea", "--images", "2"],
            &["json"],
        )
        .unwrap();
        assert!(a.flag("json"));
        assert!(!a.flag("quiet"));
        assert_eq!(a.positional, vec!["model.snapea"]);
        assert_eq!(a.opt("images"), Some("2"));
        // An undeclared dangling option still errors even with flags declared.
        assert!(Args::parse_with_flags(["x", "--other"], &["json"]).is_err());
    }

    #[test]
    fn unparsable_option_value_errors() {
        let a = Args::parse(["x", "--n", "abc"]).unwrap();
        assert!(a.opt_parse("n", 0usize).is_err());
    }

    #[test]
    fn missing_positional_errors() {
        let a = Args::parse(["inspect"]).unwrap();
        assert!(a.required_positional("model").is_err());
    }
}
