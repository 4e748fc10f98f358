//! A tiny dependency-free command-line flag parser for the figure
//! binaries.
//!
//! A binary declares the `--key value` options and bare `--flag` switches
//! it reads, and [`Args::from_env`] refuses every other name before any
//! work starts: an unknown or misspelled name exits with status 2 and the
//! accepted list, and `--help` prints the list and exits 0. Reading a name
//! the binary did not declare is a bug in the binary and panics.

use std::collections::BTreeMap;

/// Parsed command-line arguments.
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: BTreeMap<String, String>,
    flags: Vec<String>,
    declared_keys: &'static [&'static str],
    declared_flags: &'static [&'static str],
}

/// Why [`Args::parse`] returned no arguments to run with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Refusal {
    /// `--help` was passed.
    Help,
    /// The command line names an option the binary does not accept, or
    /// is malformed.
    Bad(String),
}

impl Args {
    /// Parses `raw` (without the program name) for a binary that reads the
    /// `--key value` options `keys` and the bare `--flag` switches `flags`.
    pub fn parse<I: IntoIterator<Item = String>>(
        raw: I,
        keys: &'static [&'static str],
        flags: &'static [&'static str],
    ) -> Result<Self, Refusal> {
        let mut args = Args {
            declared_keys: keys,
            declared_flags: flags,
            ..Args::default()
        };
        let mut it = raw.into_iter().peekable();
        while let Some(tok) = it.next() {
            let Some(name) = tok.strip_prefix("--") else {
                return Err(Refusal::Bad(format!(
                    "unexpected positional argument: {tok}"
                )));
            };
            if name == "help" {
                return Err(Refusal::Help);
            }
            if flags.contains(&name) {
                args.flags.push(name.to_string());
            } else if keys.contains(&name) {
                match it.next_if(|next| !next.starts_with("--")) {
                    Some(value) => args.values.insert(name.to_string(), value),
                    None => return Err(Refusal::Bad(format!("--{name} needs a value"))),
                };
            } else {
                return Err(Refusal::Bad(format!("unknown option --{name}")));
            }
        }
        Ok(args)
    }

    /// Parses the process arguments for a binary that reads `keys` and
    /// `flags` (see [`Args::parse`]). `--help` prints the accepted options
    /// and exits 0; anything else refused exits 2 with the message and the
    /// same list.
    pub fn from_env(keys: &'static [&'static str], flags: &'static [&'static str]) -> Self {
        match Self::parse(std::env::args().skip(1), keys, flags) {
            Ok(a) => a,
            Err(Refusal::Help) => {
                println!("{}", usage(keys, flags));
                std::process::exit(0);
            }
            Err(Refusal::Bad(e)) => {
                eprintln!("error: {e}; {}", usage(keys, flags));
                std::process::exit(2);
            }
        }
    }

    /// A `--key value` as a parsed type, or `default` when absent.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T
    where
        T::Err: std::fmt::Display,
    {
        match self.get_str(key) {
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
        assert!(
            self.declared_keys.contains(&key),
            "--{key} is read but not declared"
        );
        self.values.get(key).map(String::as_str)
    }

    /// Whether a bare `--flag` was passed.
    pub fn has_flag(&self, key: &str) -> bool {
        assert!(
            self.declared_flags.contains(&key),
            "--{key} is read but not declared"
        );
        self.flags.iter().any(|f| f == key)
    }

    /// Comma-separated list of a parsed type (`--threads 8,16,32,64`), or
    /// `default` when absent.
    pub fn get_list<T>(&self, key: &str, default: &[T]) -> Vec<T>
    where
        T: std::str::FromStr + Clone,
        T::Err: std::fmt::Display,
    {
        match self.get_str(key) {
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

/// The one-line list of accepted options that `--help` and a refusal print.
fn usage(keys: &[&str], flags: &[&str]) -> String {
    let options: Vec<String> = keys
        .iter()
        .map(|k| format!("--{k} <value>"))
        .chain(flags.iter().map(|f| format!("--{f}")))
        .chain(["--help".to_string()])
        .collect();
    format!("accepted: {}", options.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEYS: &[&str] = &["n", "out", "threads"];
    const FLAGS: &[&str] = &["quick", "slow"];

    fn try_parse(tokens: &[&str]) -> Result<Args, Refusal> {
        Args::parse(tokens.iter().map(|s| s.to_string()), KEYS, FLAGS)
    }

    fn parse(tokens: &[&str]) -> Args {
        try_parse(tokens).unwrap()
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
        assert!(matches!(try_parse(&["oops"]), Err(Refusal::Bad(_))));
        assert!(matches!(try_parse(&["--quick", "1"]), Err(Refusal::Bad(_))));
    }

    #[test]
    fn unknown_option_is_refused_by_name() {
        let Err(Refusal::Bad(msg)) = try_parse(&["--n", "4096", "--threds", "8"]) else {
            panic!("a misspelled key must be refused");
        };
        assert!(msg.contains("--threds"), "{msg}");
        assert!(matches!(try_parse(&["--fast"]), Err(Refusal::Bad(_))));
        let listing = usage(KEYS, FLAGS);
        for option in ["--n <value>", "--threads <value>", "--quick", "--help"] {
            assert!(listing.contains(option), "{listing}");
        }
    }

    #[test]
    fn help_is_its_own_answer() {
        assert_eq!(try_parse(&["--help"]).unwrap_err(), Refusal::Help);
        assert_eq!(
            try_parse(&["--n", "8", "--help"]).unwrap_err(),
            Refusal::Help
        );
    }

    #[test]
    fn a_key_needs_its_value() {
        assert!(matches!(try_parse(&["--n"]), Err(Refusal::Bad(_))));
        assert!(matches!(
            try_parse(&["--n", "--quick"]),
            Err(Refusal::Bad(_))
        ));
    }

    #[test]
    #[should_panic(expected = "--chip is read but not declared")]
    fn reading_an_undeclared_key_is_a_bug() {
        parse(&[]).get_str("chip");
    }
}
