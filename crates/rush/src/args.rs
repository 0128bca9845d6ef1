//! One strict reader for `--key [value]` command lines, shared by the `rush`
//! CLI and the `run_all` orchestrator.
//!
//! [`Args::parse`] splits argv once into `--key [value]` pairs: a token is a
//! value only when it does not start with `--`, and a repeated key is
//! rejected. Typed getters ([`Args::get`], [`Args::opt`], [`Args::flag`])
//! then read the pairs, with parse and range errors that name the flag, and
//! [`Args::finish`] rejects every key no getter read, suggesting the nearest
//! known one. A command reads all of its options and calls `finish` before
//! it starts any work, so a misspelled flag never runs silently.

use std::fmt;
use std::num::{IntErrorKind, NonZeroU64};

/// A malformed command line: the message names the offending flag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgError {}

/// An option value type: parses the text after a `--key`.
pub trait Value: Sized {
    /// Parses `s`, or explains what was expected.
    fn parse_value(s: &str) -> Result<Self, String>;
}

macro_rules! int_value {
    ($($t:ty),*) => {$(
        impl Value for $t {
            fn parse_value(s: &str) -> Result<Self, String> {
                s.parse().map_err(|e: std::num::ParseIntError| match e.kind() {
                    IntErrorKind::Zero => format!("expected positive integer, got '{s}'"),
                    IntErrorKind::PosOverflow | IntErrorKind::NegOverflow => format!(
                        "expected integer in {}..={}, got '{s}'",
                        <$t>::MIN,
                        <$t>::MAX
                    ),
                    _ => format!("expected integer, got '{s}'"),
                })
            }
        }
    )*};
}

int_value!(u32, u64, usize, NonZeroU64);

impl Value for f64 {
    fn parse_value(s: &str) -> Result<Self, String> {
        s.parse().map_err(|_| format!("expected number, got '{s}'"))
    }
}

impl Value for String {
    fn parse_value(s: &str) -> Result<Self, String> {
        Ok(s.to_string())
    }
}

/// One `--key [value]` pair.
#[derive(Debug)]
struct Entry {
    key: String,
    value: Option<String>,
}

/// A command line split into `--key [value]` pairs (see the module docs).
#[derive(Debug)]
pub struct Args {
    entries: Vec<Entry>,
    /// Every key a getter asked for: the keys `finish` accepts and the
    /// candidates of its nearest-match hint.
    known: Vec<&'static str>,
}

impl Args {
    /// Splits `argv` (without the program or command name). Fails on a
    /// token that is neither a `--key` nor the value after one, and on a
    /// repeated key.
    pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Args, ArgError> {
        let mut entries: Vec<Entry> = Vec::new();
        for token in argv {
            match token.strip_prefix("--").filter(|k| !k.is_empty()) {
                Some(key) => {
                    if entries.iter().any(|e| e.key == key) {
                        return Err(ArgError(format!("--{key} given more than once")));
                    }
                    entries.push(Entry {
                        key: key.to_string(),
                        value: None,
                    });
                }
                None => match entries.last_mut() {
                    Some(last) if last.value.is_none() && !token.starts_with("--") => {
                        last.value = Some(token);
                    }
                    _ => return Err(ArgError(format!("expected --option, found '{token}'"))),
                },
            }
        }
        Ok(Args {
            entries,
            known: Vec::new(),
        })
    }

    /// Marks `key` as known; returns its entry when present.
    fn take(&mut self, key: &'static str) -> Option<&Entry> {
        self.known.push(key);
        self.entries.iter().find(|e| e.key == key)
    }

    /// `--key VALUE`, or `default` when the flag is absent.
    pub fn get<T: Value>(&mut self, key: &'static str, default: T) -> Result<T, ArgError> {
        Ok(self.opt(key)?.unwrap_or(default))
    }

    /// `--key VALUE`, or `None` when the flag is absent.
    pub fn opt<T: Value>(&mut self, key: &'static str) -> Result<Option<T>, ArgError> {
        let Some(entry) = self.take(key) else {
            return Ok(None);
        };
        let value = entry
            .value
            .as_deref()
            .ok_or_else(|| ArgError(format!("--{key} requires a value")))?;
        T::parse_value(value)
            .map(Some)
            .map_err(|e| ArgError(format!("--{key}: {e}")))
    }

    /// Whether the value-less `--key` is present.
    pub fn flag(&mut self, key: &'static str) -> Result<bool, ArgError> {
        match self.take(key) {
            None => Ok(false),
            Some(Entry { value: None, .. }) => Ok(true),
            Some(Entry { value: Some(v), .. }) => {
                Err(ArgError(format!("--{key} takes no value, got '{v}'")))
            }
        }
    }

    /// Fails on the first key no getter read, naming the nearest known key
    /// when one is close.
    pub fn finish(self) -> Result<(), ArgError> {
        let known = |key: &str| self.known.contains(&key);
        let Some(unread) = self.entries.iter().find(|e| !known(&e.key)) else {
            return Ok(());
        };
        let key = unread.key.as_str();
        let nearest = self
            .known
            .iter()
            .map(|k| (edit_distance(key, k), *k))
            .min()
            .filter(|&(d, _)| d <= 2 || 3 * d <= key.len());
        Err(ArgError(match nearest {
            Some((_, k)) => format!("unknown option --{key} (did you mean --{k}?)"),
            None => format!("unknown option --{key}"),
        }))
    }
}

/// Levenshtein distance between `a` and `b`, by characters.
fn edit_distance(a: &str, b: &str) -> usize {
    let b: Vec<char> = b.chars().collect();
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.chars().enumerate() {
        let mut diag = row[0];
        row[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let next = (diag + usize::from(ca != cb))
                .min(row[j] + 1)
                .min(row[j + 1] + 1);
            diag = row[j + 1];
            row[j + 1] = next;
        }
    }
    row[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(tokens: &[&str]) -> Result<Args, ArgError> {
        Args::parse(tokens.iter().map(|s| s.to_string()))
    }

    /// The `finish` error after getters asked for the `known` keys.
    fn finish_error(tokens: &[&str], known: &[&'static str]) -> String {
        let mut a = args(tokens).unwrap();
        for key in known {
            a.opt::<String>(key).unwrap();
        }
        a.finish().unwrap_err().to_string()
    }

    #[test]
    fn reads_values_flags_and_defaults() {
        let mut a = args(&["--days", "3", "--profile", "--scale", "-0.5", "--out", "f"]).unwrap();
        assert_eq!(a.get::<u32>("days", 30).unwrap(), 3);
        assert_eq!(a.get::<u64>("seed", 7).unwrap(), 7);
        assert!(a.flag("profile").unwrap());
        assert!(!a.flag("lenient").unwrap());
        assert_eq!(a.get::<f64>("scale", 1.0).unwrap(), -0.5);
        assert_eq!(a.opt::<String>("out").unwrap().as_deref(), Some("f"));
        assert_eq!(a.opt::<usize>("jobs").unwrap(), None);
        a.finish().unwrap();
    }

    #[test]
    fn malformed_command_lines_are_rejected() {
        for (tokens, message) in [
            (
                &["--seed", "1", "--seed", "2"][..],
                "--seed given more than once",
            ),
            (&["stray"], "expected --option, found 'stray'"),
            (&["--days", "3", "4"], "expected --option, found '4'"),
            (&["--"], "expected --option, found '--'"),
        ] {
            assert_eq!(args(tokens).unwrap_err().to_string(), message);
        }
    }

    #[test]
    fn getter_errors_name_the_flag() {
        let tokens = [
            "--days",
            "many",
            "--nodes",
            "4294967297",
            "--x",
            "1e",
            "--p",
            "v",
        ];
        let mut a = args(&tokens).unwrap();
        let mut b = args(&["--n", "-1", "--every", "0", "--t", "--q"]).unwrap();
        let errors = [
            a.get::<u32>("days", 0).map(drop),
            a.get::<u32>("nodes", 0).map(drop),
            a.get::<f64>("x", 0.0).map(drop),
            a.flag("p").map(drop),
            b.opt::<u64>("n").map(drop),
            b.opt::<NonZeroU64>("every").map(drop),
            // A token starting with `--` is never a value.
            b.opt::<String>("t").map(drop),
        ];
        let expected = [
            "--days: expected integer, got 'many'",
            "--nodes: expected integer in 0..=4294967295, got '4294967297'",
            "--x: expected number, got '1e'",
            "--p takes no value, got 'v'",
            "--n: expected integer, got '-1'",
            "--every: expected positive integer, got '0'",
            "--t requires a value",
        ];
        for (error, message) in errors.into_iter().zip(expected) {
            assert_eq!(error.unwrap_err().to_string(), message);
        }
        assert!(b.flag("q").unwrap());
    }

    #[test]
    fn finish_rejects_unread_keys_with_a_hint() {
        assert_eq!(
            finish_error(&["--tarce-out", "t"], &["trace-out", "metrics-out"]),
            "unknown option --tarce-out (did you mean --trace-out?)"
        );
        assert_eq!(
            finish_error(&["--dayz", "3"], &["days", "seed"]),
            "unknown option --dayz (did you mean --days?)"
        );
        // Nothing close: no hint.
        assert_eq!(
            finish_error(&["--trials", "3"], &["days", "out"]),
            "unknown option --trials"
        );
    }

    #[test]
    fn edit_distance_counts_single_character_edits() {
        assert_eq!(edit_distance("days", "days"), 0);
        assert_eq!(edit_distance("tarce-out", "trace-out"), 2);
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
    }
}
