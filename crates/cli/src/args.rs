//! A tiny dependency-free argument parser: positional arguments plus
//! `--flag value` / `--flag` options.

use std::collections::BTreeMap;

/// Parsed command line.
#[derive(Clone, Debug, Default)]
pub struct Args {
    /// Positional arguments in order (subcommand first).
    pub positional: Vec<String>,
    /// `--key value` options; bare `--key` stores an empty string.
    pub options: BTreeMap<String, String>,
}

/// Flags that never take a value (so `--json file.trace` leaves
/// `file.trace` positional).
pub const BOOL_FLAGS: &[&str] = &["help", "json", "once"];

impl Args {
    /// Parses an iterator of raw arguments (without the program name).
    /// Flags listed in [`BOOL_FLAGS`] never consume a value.
    pub fn parse(raw: impl IntoIterator<Item = String>) -> Args {
        let mut args = Args::default();
        let mut iter = raw.into_iter().peekable();
        while let Some(a) = iter.next() {
            if let Some(key) = a.strip_prefix("--") {
                let value = match iter.peek() {
                    Some(next) if !next.starts_with("--") && !BOOL_FLAGS.contains(&key) => {
                        iter.next().unwrap()
                    }
                    _ => String::new(),
                };
                args.options.insert(key.to_owned(), value);
            } else {
                args.positional.push(a);
            }
        }
        args
    }

    /// The subcommand (first positional), if any.
    #[must_use]
    pub fn command(&self) -> Option<&str> {
        self.positional.first().map(String::as_str)
    }

    /// An option's value.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// True when `--key` was present (with or without a value).
    #[must_use]
    pub fn has(&self, key: &str) -> bool {
        self.options.contains_key(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(items: &[&str]) -> Args {
        Args::parse(items.iter().map(ToString::to_string))
    }

    #[test]
    fn positional_and_options() {
        let a = parse(&["check", "--spec", "x > 0", "--json", "file.trace"]);
        assert_eq!(a.command(), Some("check"));
        assert_eq!(a.get("spec"), Some("x > 0"));
        assert!(a.has("json"));
        assert_eq!(a.get("json"), Some(""));
        assert_eq!(a.positional, vec!["check", "file.trace"]);
    }

    #[test]
    fn empty() {
        let a = parse(&[]);
        assert_eq!(a.command(), None);
        assert!(!a.has("x"));
    }

    #[test]
    fn flag_followed_by_flag() {
        let a = parse(&["--a", "--b", "v"]);
        assert_eq!(a.get("a"), Some(""));
        assert_eq!(a.get("b"), Some("v"));
    }
}
