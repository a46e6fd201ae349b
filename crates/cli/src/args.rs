//! A minimal `--flag value` argument parser (the allowed dependency set
//! has no CLI crate; this keeps `memifctl --help` honest without one).
//!
//! Every lookup is remembered. Typed lookups record the key with the
//! value it resolved to (the default when the flag is absent), so the
//! resolvers that turn a command line into a scenario leave behind a
//! complete `key=value` record of that scenario: `memifctl` writes it as
//! a trace's `#!` header, and a flag no lookup ever asked for is an
//! unknown flag.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::Display;

/// Parsed command line: a subcommand plus `--key value` options.
#[derive(Debug, Default)]
pub struct Args {
    /// The subcommand (first non-flag argument).
    pub command: Option<String>,
    opts: HashMap<String, String>,
    /// Every key looked up, in first-lookup order, with the effective
    /// value a typed lookup resolved it to (`None` for [`Args::get`]).
    read: RefCell<Vec<(String, Option<String>)>>,
}

impl Args {
    /// Parses `std::env::args`-style input (program name excluded).
    ///
    /// # Errors
    ///
    /// Returns a message for a dangling `--flag` without a value or for
    /// stray positional arguments after the subcommand.
    pub fn parse(input: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args::default();
        let mut it = input.peekable();
        while let Some(tok) = it.next() {
            if let Some(key) = tok.strip_prefix("--") {
                let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                args.opts.insert(key.to_owned(), value);
            } else if args.command.is_none() {
                args.command = Some(tok);
            } else {
                return Err(format!("unexpected positional argument '{tok}'"));
            }
        }
        Ok(args)
    }

    /// Builds an `Args` from pre-parsed `key=value` pairs — the replay
    /// path reconstructs the original command line from a trace header.
    /// A later pair overrides an earlier one with the same key.
    #[must_use]
    pub fn from_pairs(command: &str, pairs: impl IntoIterator<Item = (String, String)>) -> Args {
        Args {
            command: Some(command.to_owned()),
            opts: pairs.into_iter().collect(),
            read: RefCell::default(),
        }
    }

    /// The options as given, sorted by key.
    #[must_use]
    pub fn given(&self) -> Vec<(&str, &str)> {
        let mut given: Vec<(&str, &str)> = self
            .opts
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        given.sort_unstable();
        given
    }

    fn note(&self, key: &str, value: Option<String>) {
        let mut read = self.read.borrow_mut();
        match read.iter_mut().find(|(k, _)| k == key) {
            Some(entry) => {
                if value.is_some() {
                    entry.1 = value;
                }
            }
            None => read.push((key.to_owned(), value)),
        }
    }

    /// String option, as given. Records the lookup but no value: use it
    /// for flags that shape a command's output, not its scenario.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&str> {
        self.note(key, None);
        self.opts.get(key).map(String::as_str)
    }

    /// Typed option with a default; records the effective value.
    ///
    /// # Errors
    ///
    /// Returns a message if the value does not parse as `T`.
    pub fn get_or<T: std::str::FromStr + Display>(
        &self,
        key: &str,
        default: T,
    ) -> Result<T, String> {
        let value = match self.opts.get(key) {
            None => default,
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: cannot parse '{v}'"))?,
        };
        self.note(key, Some(value.to_string()));
        Ok(value)
    }

    /// Page size option (`4k`, `64k`, `2m`); records the lower-case
    /// spelling.
    ///
    /// # Errors
    ///
    /// Returns a message for unknown sizes.
    pub fn page_size(&self, default: memif_mm::PageSize) -> Result<memif_mm::PageSize, String> {
        use memif_mm::PageSize;
        let size = match self.opts.get("page-size").map(String::as_str) {
            None => default,
            Some("4k" | "4K") => PageSize::Small4K,
            Some("64k" | "64K") => PageSize::Medium64K,
            Some("2m" | "2M") => PageSize::Large2M,
            Some(other) => return Err(format!("--page-size: unknown size '{other}' (4k|64k|2m)")),
        };
        let token = match size {
            PageSize::Small4K => "4k",
            PageSize::Medium64K => "64k",
            PageSize::Large2M => "2m",
        };
        self.note("page-size", Some(token.to_owned()));
        Ok(size)
    }

    /// The `key=value` record of every typed lookup so far, in lookup
    /// order.
    #[must_use]
    pub fn record(&self) -> Vec<(String, String)> {
        self.read
            .borrow()
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.clone()?)))
            .collect()
    }

    /// The record rendered as a trace's `#!` header line.
    #[must_use]
    pub fn header(&self) -> String {
        let mut line = format!("#! {}", self.command.as_deref().unwrap_or_default());
        for (key, value) in self.record() {
            line.push_str(&format!(" {key}={value}"));
        }
        line
    }

    /// Rejects the first given flag (by key order) that no lookup has
    /// asked for. Call it once a command has looked up all its flags.
    ///
    /// # Errors
    ///
    /// Returns `unknown flag --KEY for COMMAND`.
    pub fn reject_unknown(&self) -> Result<(), String> {
        let read = self.read.borrow();
        match self
            .given()
            .iter()
            .find(|(k, _)| !read.iter().any(|(r, _)| r == k))
        {
            Some((key, _)) => Err(format!(
                "unknown flag --{key} for {}",
                self.command.as_deref().unwrap_or_default()
            )),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn command_and_flags() {
        let a = parse("migspeed --pages 1500 --profile xeon").unwrap();
        assert_eq!(a.command.as_deref(), Some("migspeed"));
        assert_eq!(a.get("profile"), Some("xeon"));
        assert_eq!(a.get_or("pages", 0u32).unwrap(), 1500);
        assert_eq!(a.get_or("batches", 7u32).unwrap(), 7, "default applies");
    }

    #[test]
    fn errors() {
        assert!(parse("move --pages").is_err(), "dangling flag");
        assert!(parse("move extra").is_err(), "stray positional");
        assert!(parse("move --pages abc")
            .unwrap()
            .get_or("pages", 0u32)
            .is_err());
    }

    #[test]
    fn page_sizes() {
        use memif_mm::PageSize;
        assert_eq!(
            parse("x --page-size 64k")
                .unwrap()
                .page_size(PageSize::Small4K)
                .unwrap(),
            PageSize::Medium64K
        );
        assert_eq!(
            parse("x").unwrap().page_size(PageSize::Small4K).unwrap(),
            PageSize::Small4K
        );
        assert!(parse("x --page-size 1g")
            .unwrap()
            .page_size(PageSize::Small4K)
            .is_err());
    }

    #[test]
    fn record_holds_effective_values_in_lookup_order() {
        use memif_mm::PageSize;
        let a = parse("move --page-size 4K --count 8 --trace-events t.jsonl").unwrap();
        a.get_or("count", 64usize).unwrap();
        a.get_or("pages", 16u32).unwrap();
        a.page_size(PageSize::Small4K).unwrap();
        assert_eq!(a.get("trace-events"), Some("t.jsonl"));
        a.get_or("count", 64usize).unwrap();
        assert_eq!(a.header(), "#! move count=8 pages=16 page-size=4k");
        assert!(a.reject_unknown().is_ok());
    }

    #[test]
    fn unread_flags_are_unknown() {
        let a = parse("move --pagse 4 --count 8").unwrap();
        a.get_or("count", 64usize).unwrap();
        a.get_or("pages", 16u32).unwrap();
        assert_eq!(
            a.reject_unknown().unwrap_err(),
            "unknown flag --pagse for move"
        );
    }
}
