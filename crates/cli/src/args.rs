//! Minimal `--key value` argument parsing for the CLI.
//!
//! Kept dependency-free on purpose: the workspace's only external
//! dependencies are the ones justified in `DESIGN.md`.

use core::fmt;
use std::collections::BTreeMap;

/// A parsed command line: a subcommand name plus `--key value` options
/// and bare `--flag`s.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ParsedArgs {
    /// The subcommand (first positional argument).
    pub command: String,
    options: BTreeMap<String, String>,
    flags: Vec<String>,
}

/// Errors from argument parsing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArgError {
    /// No subcommand was given.
    MissingCommand,
    /// A value could not be parsed.
    BadValue {
        /// Option name.
        key: String,
        /// Raw value.
        value: String,
    },
    /// A positional argument appeared where options were expected.
    UnexpectedPositional(String),
    /// An option or flag was given more than once.
    DuplicateOption {
        /// Option name.
        key: String,
    },
    /// An option or flag the command does not accept (typically a
    /// typo, which must not silently fall back to a default).
    UnknownOption {
        /// Option name.
        key: String,
    },
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::MissingCommand => write!(f, "missing subcommand; try `sparsegossip help`"),
            Self::BadValue { key, value } => {
                write!(f, "option --{key} has invalid value {value:?}")
            }
            Self::UnexpectedPositional(a) => write!(f, "unexpected argument {a:?}"),
            Self::DuplicateOption { key } => write!(f, "option --{key} given more than once"),
            Self::UnknownOption { key } => {
                write!(f, "unknown option --{key}; try `sparsegossip help`")
            }
        }
    }
}

impl std::error::Error for ArgError {}

impl ParsedArgs {
    /// Parses `args` (without the program name).
    ///
    /// A token starting with `--` is an option; if the next token exists
    /// and does not start with `--`, it is the value, otherwise the
    /// token is a bare flag.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::MissingCommand`] if no subcommand was given
    /// and [`ArgError::UnexpectedPositional`] on stray positionals, and
    /// [`ArgError::DuplicateOption`] if an option or flag repeats (a
    /// later copy must not silently replace an earlier one).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, ArgError> {
        let mut iter = args.into_iter().peekable();
        let command = iter.next().ok_or(ArgError::MissingCommand)?;
        if command.starts_with("--") {
            return Err(ArgError::MissingCommand);
        }
        let mut parsed = Self {
            command,
            options: BTreeMap::new(),
            flags: Vec::new(),
        };
        while let Some(tok) = iter.next() {
            let Some(key) = tok.strip_prefix("--") else {
                return Err(ArgError::UnexpectedPositional(tok));
            };
            if parsed.has_option(key) {
                return Err(ArgError::DuplicateOption {
                    key: key.to_string(),
                });
            }
            match iter.peek() {
                Some(v) if !v.starts_with("--") => {
                    let value = iter.next().expect("peeked");
                    parsed.options.insert(key.to_string(), value);
                }
                _ => parsed.flags.push(key.to_string()),
            }
        }
        Ok(parsed)
    }

    /// Whether the bare flag `--name` was given.
    #[must_use]
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// Whether `--name` was given, with or without a value.
    #[must_use]
    pub fn has_option(&self, name: &str) -> bool {
        self.options.contains_key(name) || self.flag(name)
    }

    /// Checks every given option and flag against the names a command
    /// accepts, listed in `known` as groups of names.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::UnknownOption`] naming the first option
    /// (alphabetically), or else the first flag (in command-line
    /// order), that no group lists.
    pub fn reject_unknown(&self, known: &[&[&str]]) -> Result<(), ArgError> {
        let is_known = |key: &str| known.iter().any(|group| group.contains(&key));
        match self
            .options
            .keys()
            .chain(&self.flags)
            .find(|key| !is_known(key))
        {
            Some(key) => Err(ArgError::UnknownOption { key: key.clone() }),
            None => Ok(()),
        }
    }

    /// Parses `--name` as `T`, with a default when absent.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::BadValue`] if present but unparsable, or
    /// given as a bare flag with no value.
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, ArgError> {
        match self.options.get(name) {
            None if self.flag(name) => Err(ArgError::BadValue {
                key: name.to_string(),
                value: String::new(),
            }),
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgError::BadValue {
                key: name.to_string(),
                value: v.clone(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn to_args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_command_options_and_flags() {
        let p = ParsedArgs::parse(to_args("broadcast --side 64 --k 32 --frog")).unwrap();
        assert_eq!(p.command, "broadcast");
        assert_eq!(p.get::<u32>("side", 0).unwrap(), 64);
        assert_eq!(p.get::<usize>("k", 0).unwrap(), 32);
        assert!(p.flag("frog"));
        assert!(!p.flag("one-hop"));
    }

    #[test]
    fn repeated_options_and_flags_are_rejected() {
        for line in [
            "broadcast --side 64 --k 32 --seed 1 --k 8 --json",
            "broadcast --frog --side 64 --frog",
            "broadcast --k 8 --k",
            "broadcast --json --json 1",
        ] {
            let key = match ParsedArgs::parse(to_args(line)) {
                Err(ArgError::DuplicateOption { key }) => key,
                other => panic!("{line}: expected DuplicateOption, got {other:?}"),
            };
            assert!(line.matches(&format!("--{key}")).count() == 2, "{line}");
        }
        let err = ParsedArgs::parse(to_args("gossip --k 1 --k 2")).unwrap_err();
        assert_eq!(err.to_string(), "option --k given more than once");
    }

    #[test]
    fn defaults_apply_when_absent() {
        let p = ParsedArgs::parse(to_args("gossip")).unwrap();
        assert_eq!(p.get::<u32>("side", 48).unwrap(), 48);
        assert!(!p.has_option("side"));
    }

    #[test]
    fn rejects_missing_command_and_bad_values() {
        assert_eq!(
            ParsedArgs::parse(Vec::<String>::new()).unwrap_err(),
            ArgError::MissingCommand
        );
        assert_eq!(
            ParsedArgs::parse(to_args("--side 4")).unwrap_err(),
            ArgError::MissingCommand
        );
        let p = ParsedArgs::parse(to_args("broadcast --side four")).unwrap();
        assert!(matches!(
            p.get::<u32>("side", 0),
            Err(ArgError::BadValue { .. })
        ));
    }

    #[test]
    fn rejects_stray_positionals() {
        assert_eq!(
            ParsedArgs::parse(to_args("broadcast stray")).unwrap_err(),
            ArgError::UnexpectedPositional("stray".to_string())
        );
    }

    #[test]
    fn option_followed_by_option_is_a_flag() {
        let p = ParsedArgs::parse(to_args("x --a --b 3")).unwrap();
        assert!(p.flag("a"));
        assert_eq!(p.get::<u32>("b", 0).unwrap(), 3);
    }

    #[test]
    fn valued_option_without_a_value_is_rejected() {
        for (line, key) in [
            (
                "broadcast --side 64 --k 2 --seed 1 --json --max-steps",
                "max-steps",
            ),
            ("broadcast --radius --seed 1", "radius"),
        ] {
            let p = ParsedArgs::parse(to_args(line)).unwrap();
            assert!(p.has_option(key), "{line}");
            assert_eq!(
                p.get::<u64>(key, 7).unwrap_err(),
                ArgError::BadValue {
                    key: key.to_string(),
                    value: String::new(),
                },
                "{line}"
            );
        }
    }

    #[test]
    fn unknown_options_and_flags_are_rejected() {
        let known: &[&[&str]] = &[&["side", "k", "radius", "json"], &["frog"]];
        for (line, key) in [
            ("broadcast --side 64 --k 32 --radisu 2 --json", "radisu"),
            ("gossip --side 64 --k 32 --frogg", "frogg"),
            ("broadcast --frogg --radisu 2", "radisu"),
        ] {
            let p = ParsedArgs::parse(to_args(line)).unwrap();
            assert_eq!(
                p.reject_unknown(known).unwrap_err(),
                ArgError::UnknownOption {
                    key: key.to_string()
                },
                "{line}"
            );
        }
        let p = ParsedArgs::parse(to_args("broadcast --side 64 --radius 2 --frog --json")).unwrap();
        assert_eq!(p.reject_unknown(known), Ok(()));
        // A known valued option given as a bare flag is known; its
        // missing value is `get`'s error to report.
        let p = ParsedArgs::parse(to_args("broadcast --radius")).unwrap();
        assert_eq!(p.reject_unknown(known), Ok(()));
        let err = ParsedArgs::parse(to_args("gossip --frogg"))
            .unwrap()
            .reject_unknown(known)
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "unknown option --frogg; try `sparsegossip help`"
        );
    }

    #[test]
    fn error_messages_are_lowercase() {
        for e in [
            ArgError::MissingCommand,
            ArgError::BadValue {
                key: "k".into(),
                value: "x".into(),
            },
            ArgError::UnexpectedPositional("y".into()),
            ArgError::DuplicateOption { key: "k".into() },
            ArgError::UnknownOption { key: "z".into() },
        ] {
            assert!(e.to_string().chars().next().unwrap().is_lowercase());
        }
    }
}
