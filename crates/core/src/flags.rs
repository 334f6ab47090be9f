//! Command-line flag syntax shared by `mkss-cli` and the experiment
//! binaries. [`Flags`] is a cursor over argv: [`Flags::next_flag`] yields
//! each flag and the value readers consume the argument after it, so a
//! missing value (`flag --x expects a value`), an unparsable one
//! (`--x: {error}`) and an out-of-range millisecond count read the same
//! in every binary. Which flags exist stays with each binary's `match`.
//!
//! ```
//! use mkss_core::{flags::Flags, time::Time};
//!
//! let mut flags = Flags::new(["--seed", "7", "--horizon-ms", "250"].map(String::from));
//! let (mut seed, mut horizon) = (0u64, Time::ZERO);
//! while let Some(flag) = flags.next_flag() {
//!     match flag.as_str() {
//!         "--seed" => seed = flags.parse()?,
//!         "--horizon-ms" => horizon = flags.ms()?,
//!         other => panic!("unknown flag {other}"),
//!     }
//! }
//! assert_eq!((seed, horizon), (7, Time::from_ms(250)));
//! # Ok::<(), mkss_core::flags::FlagError>(())
//! ```

use std::error::Error as StdError;
use std::fmt;
use std::str::FromStr;

use crate::time::{Time, TICKS_PER_MS};

/// A malformed flag or flag value; its text is the whole diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct FlagError(String);

impl fmt::Display for FlagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl StdError for FlagError {}

impl From<FlagError> for String {
    fn from(e: FlagError) -> String {
        e.0
    }
}

/// Cursor over command-line arguments (without the program name).
#[derive(Debug)]
pub struct Flags {
    args: std::vec::IntoIter<String>,
    /// The flag last returned by [`Flags::next_flag`], named in errors.
    flag: String,
}

impl Flags {
    /// A cursor over `args`.
    pub fn new(args: impl IntoIterator<Item = String>) -> Self {
        let args = args.into_iter().collect::<Vec<_>>().into_iter();
        Flags {
            args,
            flag: String::new(),
        }
    }

    /// The next flag, which the value readers below then refer to.
    pub fn next_flag(&mut self) -> Option<String> {
        let flag = self.args.next()?;
        self.flag.clone_from(&flag);
        Some(flag)
    }

    /// The argument after the current flag.
    ///
    /// # Errors
    ///
    /// `flag {flag} expects a value` when the arguments end first.
    pub fn value(&mut self) -> Result<String, FlagError> {
        let missing = || FlagError(format!("flag {} expects a value", self.flag));
        self.args.next().ok_or_else(missing)
    }

    /// The argument after the current flag, parsed as `T`.
    ///
    /// # Errors
    ///
    /// As [`Flags::value`] and [`Flags::parse_str`].
    pub fn parse<T: FromStr<Err: fmt::Display>>(&mut self) -> Result<T, FlagError> {
        let value = self.value()?;
        self.parse_str(&value)
    }

    /// `text` — the current flag's value or a part of it, such as one
    /// side of a `LO..HI` range — parsed as `T`.
    ///
    /// # Errors
    ///
    /// `{flag}: {e}` when parsing fails with `e`.
    pub fn parse_str<T: FromStr<Err: fmt::Display>>(&self, text: &str) -> Result<T, FlagError> {
        text.parse()
            .map_err(|e| FlagError(format!("{}: {e}", self.flag)))
    }

    /// The argument after the current flag as whole milliseconds.
    ///
    /// # Errors
    ///
    /// As [`Flags::parse`] for `u64` and [`checked_ms`].
    pub fn ms(&mut self) -> Result<Time, FlagError> {
        let ms = self.parse()?;
        checked_ms(&self.flag, ms)
    }
}

/// `ms` whole milliseconds as a [`Time`].
///
/// # Errors
///
/// `{what}: {ms} ms is out of range` when `ms * 1000` overflows `u64`.
pub fn checked_ms(what: &str, ms: u64) -> Result<Time, FlagError> {
    let max = u64::MAX / TICKS_PER_MS;
    Time::checked_from_ms(ms).ok_or_else(|| {
        FlagError(format!(
            "{what}: {ms} ms is out of range (at most {max} ms)"
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Flags {
        let mut flags = Flags::new(args.iter().map(|s| s.to_string()));
        flags.next_flag();
        flags
    }

    #[test]
    fn values_are_read_after_their_flag() {
        let mut f = Flags::new(["--a", "1", "--b", "x"].map(String::from));
        assert_eq!(f.next_flag().as_deref(), Some("--a"));
        assert_eq!(f.parse::<u32>(), Ok(1));
        assert_eq!(f.next_flag().as_deref(), Some("--b"));
        assert_eq!(f.value().as_deref(), Ok("x"));
        assert_eq!(f.next_flag(), None);
    }

    #[test]
    fn diagnostics_name_the_flag() {
        let err = |r: Result<u64, FlagError>| r.unwrap_err().to_string();
        assert_eq!(err(flags(&["--n"]).parse()), "flag --n expects a value");
        assert_eq!(
            err(flags(&["--n", "x"]).parse()),
            "--n: invalid digit found in string"
        );
        assert_eq!(
            flags(&["--r", "1..x"])
                .parse_str::<u8>("x")
                .unwrap_err()
                .to_string(),
            "--r: invalid digit found in string"
        );
    }

    #[test]
    fn milliseconds_reject_what_time_cannot_hold() {
        let max = u64::MAX / TICKS_PER_MS;
        assert_eq!(
            flags(&["--h", &max.to_string()]).ms(),
            Ok(Time::from_ms(max))
        );
        for ms in [max + 1, 18_446_744_073_709_552, u64::MAX] {
            assert_eq!(
                flags(&["--h", &ms.to_string()]).ms().unwrap_err().0,
                format!("--h: {ms} ms is out of range (at most {max} ms)")
            );
        }
        assert_eq!(
            flags(&["--h", "18446744073709551616"]).ms().unwrap_err().0,
            "--h: number too large to fit in target type"
        );
    }
}
