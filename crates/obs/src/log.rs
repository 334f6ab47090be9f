//! The `MKSS_LOG` environment filter: `off | summary | events`.

use std::error::Error;
use std::fmt;
use std::str::FromStr;
use std::sync::OnceLock;

/// Environment variable read by [`LogLevel::from_env`].
pub const LOG_ENV_VAR: &str = "MKSS_LOG";

/// Recorder verbosity for the CLI and examples.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
#[expect(
    clippy::exhaustive_enums,
    reason = "closed variant set: verbosity ladder matched exhaustively by the CLI; a new level is a deliberate API change everywhere"
)]
pub enum LogLevel {
    /// No recorder attached; no extra output. The default.
    #[default]
    Off,
    /// Aggregate into a registry and print a metrics table at the end.
    Summary,
    /// `Summary` plus a narrated line per engine event (via
    /// [`EchoRecorder`](crate::EchoRecorder)) — debugging only.
    Events,
}

impl LogLevel {
    /// Every level, in increasing verbosity.
    pub const ALL: [LogLevel; 3] = [LogLevel::Off, LogLevel::Summary, LogLevel::Events];

    /// The lowercase identifier parsed by `FromStr`.
    pub const fn id(self) -> &'static str {
        match self {
            LogLevel::Off => "off",
            LogLevel::Summary => "summary",
            LogLevel::Events => "events",
        }
    }

    /// True unless the level is [`LogLevel::Off`].
    pub fn enabled(self) -> bool {
        self != LogLevel::Off
    }

    /// Level requested via `MKSS_LOG`, parsed once per process and cached.
    ///
    /// Unset (or set to the empty string) means [`LogLevel::Off`]; a value
    /// that parses as neither `off`, `summary`, nor `events` is an error —
    /// reported once, then cached like any other outcome.
    pub fn from_env() -> Result<LogLevel, ParseLogLevelError> {
        static CACHE: OnceLock<Result<LogLevel, ParseLogLevelError>> = OnceLock::new();
        CACHE
            .get_or_init(|| match std::env::var(LOG_ENV_VAR) {
                Err(_) => Ok(LogLevel::Off),
                Ok(value) if value.is_empty() => Ok(LogLevel::Off),
                Ok(value) => value.parse(),
            })
            .clone()
    }
}

impl fmt::Display for LogLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

impl FromStr for LogLevel {
    type Err = ParseLogLevelError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" => Ok(LogLevel::Off),
            "summary" => Ok(LogLevel::Summary),
            "events" => Ok(LogLevel::Events),
            _ => Err(ParseLogLevelError {
                input: s.to_string(),
            }),
        }
    }
}

/// Error returned when an `MKSS_LOG` value is not a known level.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct ParseLogLevelError {
    /// The rejected input.
    pub input: String,
}

impl fmt::Display for ParseLogLevelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown {LOG_ENV_VAR} level {:?} (expected one of: off, summary, events)",
            self.input
        )
    }
}

impl Error for ParseLogLevelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_known_levels_case_insensitively() {
        assert_eq!("off".parse::<LogLevel>().unwrap(), LogLevel::Off);
        assert_eq!("Summary".parse::<LogLevel>().unwrap(), LogLevel::Summary);
        assert_eq!(" EVENTS ".parse::<LogLevel>().unwrap(), LogLevel::Events);
    }

    #[test]
    fn rejects_unknown_levels_with_context() {
        let err = "verbose".parse::<LogLevel>().unwrap_err();
        assert_eq!(err.input, "verbose");
        let msg = err.to_string();
        assert!(msg.contains("MKSS_LOG"), "{msg}");
        assert!(msg.contains("verbose"), "{msg}");
        assert!(msg.contains("summary"), "{msg}");
    }

    #[test]
    fn display_round_trips_through_from_str() {
        for level in LogLevel::ALL {
            assert_eq!(level.to_string().parse::<LogLevel>().unwrap(), level);
        }
    }

    #[test]
    fn default_is_off_and_off_is_disabled() {
        assert_eq!(LogLevel::default(), LogLevel::Off);
        assert!(!LogLevel::Off.enabled());
        assert!(LogLevel::Summary.enabled());
        assert!(LogLevel::Events.enabled());
    }
}
