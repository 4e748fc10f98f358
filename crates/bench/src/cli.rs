//! A tiny dependency-free command-line flag parser for the figure
//! binaries.
//!
//! Supports `--key value` pairs and bare `--flag` switches. Unknown keys
//! and flags are ignored, not rejected: a misspelled flag (or `--help`)
//! runs the binary with its defaults.

use std::collections::BTreeMap;

/// Parsed command-line arguments.
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: BTreeMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parses from an iterator of raw arguments (without the program name).
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Self, String> {
        let mut args = Args::default();
        let mut it = raw.into_iter().peekable();
        while let Some(tok) = it.next() {
            let Some(key) = tok.strip_prefix("--") else {
                return Err(format!("unexpected positional argument: {tok}"));
            };
            if key.is_empty() {
                return Err("empty flag name".into());
            }
            match it.peek() {
                Some(next) if !next.starts_with("--") => {
                    let value = it.next().unwrap();
                    args.values.insert(key.to_string(), value);
                }
                _ => args.flags.push(key.to_string()),
            }
        }
        Ok(args)
    }

    /// Parses the process arguments, exiting with a message on error.
    pub fn from_env() -> Self {
        match Self::parse(std::env::args().skip(1)) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
    }

    /// A `--key value` as a parsed type, or `default` when absent.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T
    where
        T::Err: std::fmt::Display,
    {
        match self.values.get(key) {
            None => default,
            Some(raw) => match raw.parse() {
                Ok(v) => v,
                Err(e) => {
                    eprintln!("error: --{key} {raw}: {e}");
                    std::process::exit(2);
                }
            },
        }
    }

    /// The raw string value of `--key`, if present.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(|s| s.as_str())
    }

    /// Whether a bare `--flag` was passed.
    pub fn has_flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// Comma-separated list of a parsed type (`--threads 8,16,32,64`), or
    /// `default` when absent.
    pub fn get_list<T>(&self, key: &str, default: &[T]) -> Vec<T>
    where
        T: std::str::FromStr + Clone,
        T::Err: std::fmt::Display,
    {
        match self.values.get(key) {
            None => default.to_vec(),
            Some(raw) => raw
                .split(',')
                .map(|part| match part.trim().parse() {
                    Ok(v) => v,
                    Err(e) => {
                        eprintln!("error: --{key} element {part}: {e}");
                        std::process::exit(2);
                    }
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn values_and_flags() {
        let a = parse(&["--n", "1024", "--quick", "--out", "x.json"]);
        assert_eq!(a.get::<usize>("n", 0), 1024);
        assert_eq!(a.get_str("out"), Some("x.json"));
        assert!(a.has_flag("quick"));
        assert!(!a.has_flag("slow"));
    }

    #[test]
    fn defaults_apply() {
        let a = parse(&[]);
        assert_eq!(a.get::<usize>("n", 7), 7);
        assert_eq!(a.get_list::<u32>("threads", &[8, 64]), vec![8, 64]);
    }

    #[test]
    fn lists_parse() {
        let a = parse(&["--threads", "8,16, 32"]);
        assert_eq!(a.get_list::<u32>("threads", &[]), vec![8, 16, 32]);
    }

    #[test]
    fn positional_rejected() {
        assert!(Args::parse(vec!["oops".to_string()]).is_err());
    }
}
