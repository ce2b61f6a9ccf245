//! The workspace-level error type.
//!
//! Every subsystem keeps its own precise error enum — `TraceError` is
//! still what the importer returns, because a caller quarantining a bad
//! line needs that exact variant. [`Error`] is the seam *above* them:
//! one `From`-convertible sum type with a stable [`code`](Error::code)
//! string per category (for scripts and log grepping),
//! [`source`](std::error::Error::source) chaining down to the subsystem
//! error, and a single [`exit_code`](Error::exit_code) policy for the
//! binary.
//!
//! [`CliError`](crate::cli::CliError) is a type alias of this enum, so
//! existing `CliError::Usage(..)` constructors and `matches!` patterns
//! keep compiling unchanged.

use btpan_baseband::piconet::PiconetError;
use btpan_collect::trace::TraceError;
use btpan_sim::config::ConfigError;
use std::fmt;

use crate::cli::USAGE;

/// The one error type the workspace surfaces at its boundaries.
///
/// ```
/// use btpan_core::error::Error;
///
/// let err = Error::from(btpan_sim::config::ConfigError::new("duration", "must be positive"));
/// assert_eq!(err.code(), "config");
/// assert_eq!(err.exit_code(), 2);
/// assert!(std::error::Error::source(&err).is_some());
/// ```
#[derive(Debug)]
pub enum Error {
    /// Unknown subcommand or flag, or missing value.
    Usage(String),
    /// File I/O failure.
    Io(std::io::Error),
    /// Trace parse failure.
    Trace(TraceError),
    /// Malformed checkpoint file.
    Checkpoint(String),
    /// A config builder rejected a field at construction time.
    Config(ConfigError),
    /// Piconet membership violation.
    Piconet(PiconetError),
}

impl Error {
    /// A stable, machine-readable category string — the contract for
    /// scripts, log grepping and exit-code derivation. Codes never
    /// change once released; new variants add new codes.
    pub fn code(&self) -> &'static str {
        match self {
            Error::Usage(_) => "usage",
            Error::Io(_) => "io",
            Error::Trace(_) => "trace",
            Error::Checkpoint(_) => "checkpoint",
            Error::Config(_) => "config",
            Error::Piconet(_) => "piconet",
        }
    }

    /// The process exit status for this error. Every error category
    /// maps to `2` (the binary's contract: `0` ok, `2` error, `3` =
    /// [`crate::cli::EXIT_QUARANTINE`] for unhealthy-but-successful
    /// runs).
    pub fn exit_code(&self) -> i32 {
        2
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Usage(msg) => write!(f, "usage error: {msg}\n\n{USAGE}"),
            Error::Io(e) => write!(f, "io error: {e}"),
            Error::Trace(e) => write!(f, "trace error: {e}"),
            Error::Checkpoint(e) => write!(f, "checkpoint error: {e}"),
            Error::Config(e) => write!(f, "config error: {e}"),
            Error::Piconet(e) => write!(f, "piconet error: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Usage(_) | Error::Checkpoint(_) => None,
            Error::Io(e) => Some(e),
            Error::Trace(e) => Some(e),
            Error::Config(e) => Some(e),
            Error::Piconet(e) => Some(e),
        }
    }
}

macro_rules! impl_from {
    ($($ty:ty => $variant:ident),* $(,)?) => {
        $(impl From<$ty> for Error {
            fn from(e: $ty) -> Self {
                Error::$variant(e)
            }
        })*
    };
}

impl_from! {
    std::io::Error => Io,
    TraceError => Trace,
    ConfigError => Config,
    PiconetError => Piconet,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn codes_are_stable_and_unique() {
        let errs: Vec<Error> = vec![
            Error::Usage("x".into()),
            Error::Io(std::io::Error::other("x")),
            Error::Trace(TraceError::TruncatedLine { line: 1 }),
            Error::Checkpoint("x".into()),
            Error::Config(ConfigError::new("f", "r")),
            Error::Piconet(PiconetError::Full),
        ];
        let codes: Vec<&str> = errs.iter().map(Error::code).collect();
        assert_eq!(
            codes,
            vec!["usage", "io", "trace", "checkpoint", "config", "piconet"]
        );
        let mut unique = codes.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), codes.len(), "codes must be unique");
        for e in &errs {
            assert_eq!(e.exit_code(), 2);
        }
    }

    #[test]
    fn display_preserves_cli_error_formats() {
        let err = Error::Io(std::io::Error::other("disk gone"));
        assert_eq!(err.to_string(), "io error: disk gone");
        let err = Error::Checkpoint("bad header".into());
        assert_eq!(err.to_string(), "checkpoint error: bad header");
        let err = Error::Usage("no such flag".into());
        assert!(err.to_string().starts_with("usage error: no such flag\n\n"));
        assert!(err.to_string().contains("USAGE"));
    }

    #[test]
    fn source_chains_to_the_subsystem_error() {
        let err = Error::from(PiconetError::Full);
        let src = err.source().expect("wrapped errors chain");
        assert_eq!(src.to_string(), PiconetError::Full.to_string());
        assert!(Error::Usage("x".into()).source().is_none());
    }

    #[test]
    fn from_impls_pick_the_right_variant() {
        assert!(matches!(
            Error::from(PiconetError::NotAMember),
            Error::Piconet(PiconetError::NotAMember)
        ));
        assert!(matches!(
            Error::from(ConfigError::new("shards", "zero")),
            Error::Config(_)
        ));
        assert!(matches!(
            Error::from(std::io::Error::other("x")),
            Error::Io(_)
        ));
    }
}
