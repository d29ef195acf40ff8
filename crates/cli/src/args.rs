//! Minimal `--flag value` argument parsing for the CLI binaries.
//!
//! Deliberately tiny: flags are `--name value` pairs (plus `--help`);
//! every binary declares its flags up front so typos are caught and the
//! usage text is generated from one place.

use std::collections::BTreeMap;
use std::fmt;

/// A declared flag: name, value placeholder, and help text.
///
/// An empty `value` placeholder declares a boolean switch: the flag takes
/// no argument and [`Args::has`] reports its presence.
#[derive(Debug, Clone)]
pub struct Flag {
    /// Flag name without the leading dashes (e.g. `"records"`).
    pub name: &'static str,
    /// Placeholder shown in usage (e.g. `"N"`); empty for a switch.
    pub value: &'static str,
    /// One-line description.
    pub help: &'static str,
}

/// A parse failure, carrying a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgError {}

/// Parsed arguments for one binary.
#[derive(Debug, Clone)]
pub struct Args {
    program: String,
    about: &'static str,
    flags: Vec<Flag>,
    values: BTreeMap<String, String>,
    /// Positional (non-flag) arguments, in order.
    pub positional: Vec<String>,
}

impl Args {
    /// Parses `std::env::args()` against the declared flags.
    ///
    /// # Errors
    ///
    /// Returns an [`ArgError`] for unknown flags or missing values. If
    /// `--help` is present, prints usage and exits successfully.
    pub fn parse(
        about: &'static str,
        flags: Vec<Flag>,
        argv: impl IntoIterator<Item = String>,
    ) -> Result<Args, ArgError> {
        let mut argv = argv.into_iter();
        let program = argv.next().unwrap_or_else(|| "mlc".into());
        let mut args = Args {
            program,
            about,
            flags,
            values: BTreeMap::new(),
            positional: Vec::new(),
        };
        while let Some(token) = argv.next() {
            if token == "--help" || token == "-h" {
                println!("{}", args.usage());
                std::process::exit(0);
            }
            if let Some(name) = token.strip_prefix("--") {
                let Some(flag) = args.flags.iter().find(|f| f.name == name) else {
                    return Err(ArgError(format!(
                        "unknown flag --{name}\n\n{}",
                        args.usage()
                    )));
                };
                if flag.value.is_empty() {
                    // A boolean switch: presence is the value.
                    args.values.insert(name.to_string(), "true".to_string());
                } else {
                    let value = argv
                        .next()
                        .ok_or_else(|| ArgError(format!("flag --{name} requires a value")))?;
                    args.values.insert(name.to_string(), value);
                }
            } else {
                args.positional.push(token);
            }
        }
        Ok(args)
    }

    /// The raw value of a flag, if given.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// Whether a boolean switch was passed.
    pub fn has(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }

    /// A flag parsed to `T`, or `default` when absent.
    ///
    /// # Errors
    ///
    /// Returns an [`ArgError`] if the value does not parse.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, ArgError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("invalid value {v:?} for --{name}"))),
        }
    }

    /// A required flag parsed to `T`.
    ///
    /// # Errors
    ///
    /// Returns an [`ArgError`] if missing or unparseable.
    pub fn require<T: std::str::FromStr>(&self, name: &str) -> Result<T, ArgError> {
        let v = self.get(name).ok_or_else(|| {
            ArgError(format!(
                "missing required flag --{name}\n\n{}",
                self.usage()
            ))
        })?;
        v.parse()
            .map_err(|_| ArgError(format!("invalid value {v:?} for --{name}")))
    }

    /// The generated usage text.
    pub fn usage(&self) -> String {
        let mut out = format!(
            "{}\n\nusage: {} [flags]\n\nflags:\n",
            self.about, self.program
        );
        for f in &self.flags {
            if f.value.is_empty() {
                out.push_str(&format!("  --{}  {}\n", f.name, f.help));
            } else {
                out.push_str(&format!("  --{} <{}>  {}\n", f.name, f.value, f.help));
            }
        }
        out.push_str("  --help  show this message\n");
        out
    }
}

/// Parses a human-friendly size: plain bytes, or with a `K`/`M`/`G`
/// suffix (powers of two).
///
/// # Errors
///
/// Returns an [`ArgError`] for malformed sizes.
///
/// # Examples
///
/// ```
/// use mlc_cli::args::parse_size;
///
/// assert_eq!(parse_size("512K").unwrap(), 512 * 1024);
/// assert_eq!(parse_size("4M").unwrap(), 4 * 1024 * 1024);
/// assert_eq!(parse_size("64").unwrap(), 64);
/// assert!(parse_size("12Q").is_err());
/// ```
pub fn parse_size(text: &str) -> Result<u64, ArgError> {
    let text = text.trim();
    let (digits, mult) = match text.chars().last() {
        Some('K') | Some('k') => (&text[..text.len() - 1], 1u64 << 10),
        Some('M') | Some('m') => (&text[..text.len() - 1], 1u64 << 20),
        Some('G') | Some('g') => (&text[..text.len() - 1], 1u64 << 30),
        _ => (text, 1),
    };
    let n: u64 = digits
        .parse()
        .map_err(|_| ArgError(format!("invalid size {text:?}")))?;
    n.checked_mul(mult)
        .ok_or_else(|| ArgError(format!("size {text:?} overflows")))
}

/// Parses an inclusive power-of-two size range `LO:HI` into a ladder,
/// or a single size into a one-element list.
///
/// # Errors
///
/// Returns an [`ArgError`] for malformed ranges.
///
/// # Examples
///
/// ```
/// use mlc_cli::args::parse_size_range;
///
/// let sizes = parse_size_range("4K:16K").unwrap();
/// assert_eq!(sizes, vec![4096, 8192, 16384]);
/// assert_eq!(parse_size_range("64K").unwrap(), vec![65536]);
/// ```
pub fn parse_size_range(text: &str) -> Result<Vec<u64>, ArgError> {
    match text.split_once(':') {
        None => Ok(vec![parse_size(text)?]),
        Some((lo, hi)) => {
            let lo = parse_size(lo)?;
            let hi = parse_size(hi)?;
            if !lo.is_power_of_two() || !hi.is_power_of_two() || lo > hi {
                return Err(ArgError(format!(
                    "range {text:?} must be powers of two with LO <= HI"
                )));
            }
            let mut out = Vec::new();
            let mut s = lo;
            while s <= hi {
                out.push(s);
                s <<= 1;
            }
            Ok(out)
        }
    }
}

/// Parses an inclusive integer range `LO:HI` (or single value).
///
/// # Errors
///
/// Returns an [`ArgError`] for malformed ranges.
pub fn parse_int_range(text: &str) -> Result<Vec<u64>, ArgError> {
    match text.split_once(':') {
        None => Ok(vec![text
            .parse()
            .map_err(|_| ArgError(format!("invalid integer {text:?}")))?]),
        Some((lo, hi)) => {
            let lo: u64 = lo
                .parse()
                .map_err(|_| ArgError(format!("invalid integer {lo:?}")))?;
            let hi: u64 = hi
                .parse()
                .map_err(|_| ArgError(format!("invalid integer {hi:?}")))?;
            if lo > hi {
                return Err(ArgError(format!("range {text:?} has LO > HI")));
            }
            Ok((lo..=hi).collect())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags() -> Vec<Flag> {
        vec![
            Flag {
                name: "records",
                value: "N",
                help: "trace length",
            },
            Flag {
                name: "out",
                value: "PATH",
                help: "output file",
            },
        ]
    }

    fn parse(tokens: &[&str]) -> Result<Args, ArgError> {
        let argv = std::iter::once("prog".to_string()).chain(tokens.iter().map(|s| s.to_string()));
        Args::parse("test tool", flags(), argv)
    }

    #[test]
    fn parses_flags_and_positionals() {
        let a = parse(&["--records", "100", "trace.din"]).unwrap();
        assert_eq!(a.get("records"), Some("100"));
        assert_eq!(a.get_or("records", 0usize).unwrap(), 100);
        assert_eq!(a.positional, vec!["trace.din"]);
        assert_eq!(a.get("out"), None);
        assert_eq!(a.get_or("missing-ok", 7u32).unwrap(), 7);
    }

    #[test]
    fn rejects_unknown_flag() {
        assert!(parse(&["--nope", "1"]).is_err());
    }

    #[test]
    fn switches_take_no_value() {
        let argv = std::iter::once("prog".to_string())
            .chain(["--verbose", "trace.din"].iter().map(|s| s.to_string()));
        let a = Args::parse(
            "test tool",
            vec![Flag {
                name: "verbose",
                value: "",
                help: "say more",
            }],
            argv,
        )
        .unwrap();
        assert!(a.has("verbose"));
        assert!(!a.has("quiet"));
        // The following token is positional, not the switch's value.
        assert_eq!(a.positional, vec!["trace.din"]);
        assert!(a.usage().contains("--verbose  say more"));
    }

    #[test]
    fn rejects_missing_value() {
        assert!(parse(&["--records"]).is_err());
    }

    #[test]
    fn require_reports_missing() {
        let a = parse(&[]).unwrap();
        assert!(a.require::<usize>("records").is_err());
    }

    #[test]
    fn usage_lists_flags() {
        let a = parse(&[]).unwrap();
        let u = a.usage();
        assert!(u.contains("--records <N>"));
        assert!(u.contains("--out <PATH>"));
    }

    #[test]
    fn sizes() {
        assert_eq!(parse_size("16").unwrap(), 16);
        assert_eq!(parse_size("2K").unwrap(), 2048);
        assert_eq!(parse_size("3m").unwrap(), 3 << 20);
        assert_eq!(parse_size("1G").unwrap(), 1 << 30);
        assert!(parse_size("x").is_err());
        assert!(parse_size("999999999999G").is_err());
    }

    #[test]
    fn size_ranges() {
        assert_eq!(
            parse_size_range("8K:32K").unwrap(),
            vec![8192, 16384, 32768]
        );
        assert_eq!(parse_size_range("4K").unwrap(), vec![4096]);
        assert!(parse_size_range("3K:8K").is_err());
        assert!(parse_size_range("32K:8K").is_err());
    }

    #[test]
    fn int_ranges() {
        assert_eq!(parse_int_range("1:4").unwrap(), vec![1, 2, 3, 4]);
        assert_eq!(parse_int_range("7").unwrap(), vec![7]);
        assert!(parse_int_range("4:1").is_err());
        assert!(parse_int_range("a:b").is_err());
    }
}
