//! Configuration validation support shared by the workspace's builders.
//!
//! Lives in `btpan-sim` (the bottom of the dependency graph) so that the
//! campaign and stream config builders — which sit in crates that cannot
//! depend on each other — both fail construction with the same error
//! type, which the workspace-level `btpan::Error` then wraps.

use std::error::Error as StdError;
use std::fmt;

/// A configuration field rejected at construction time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// Name of the offending field, e.g. `"shards"`.
    pub field: &'static str,
    /// Human-readable constraint violation, e.g. `"must be at least 1"`.
    pub reason: String,
}

impl ConfigError {
    /// Convenience constructor.
    pub fn new(field: &'static str, reason: impl Into<String>) -> Self {
        ConfigError {
            field,
            reason: reason.into(),
        }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid config field `{}`: {}", self.field, self.reason)
    }
}

impl StdError for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_field() {
        let err = ConfigError::new("shards", "must be at least 1");
        assert_eq!(
            err.to_string(),
            "invalid config field `shards`: must be at least 1"
        );
    }
}
