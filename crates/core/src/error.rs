//! Error type for the IPLS protocol crate.

use std::fmt;

/// Errors surfaced by protocol configuration and the task runner.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IplsError {
    /// The task configuration is inconsistent (message explains how).
    InvalidConfig(String),
    /// A training round did not complete (e.g. every aggregator of a
    /// partition was malicious or dead and the deadline passed).
    RoundFailed { round: u64, reason: String },
    /// A gradient blob failed to decode: truncated, not 8-byte aligned, or
    /// missing the counter element — or decoded vectors to be summed differ
    /// in width, or there are none. Blobs arrive from remote (possibly
    /// Byzantine) peers, so this is an error, never a panic.
    MalformedBlob,
}

impl fmt::Display for IplsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IplsError::InvalidConfig(msg) => write!(f, "invalid task configuration: {msg}"),
            IplsError::RoundFailed { round, reason } => {
                write!(f, "round {round} failed: {reason}")
            }
            IplsError::MalformedBlob => {
                write!(
                    f,
                    "malformed gradient blob (truncated, unaligned, or missing the counter)"
                )
            }
        }
    }
}

impl std::error::Error for IplsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = IplsError::InvalidConfig("zero partitions".into());
        assert!(e.to_string().contains("zero partitions"));
        let e = IplsError::RoundFailed {
            round: 2,
            reason: "no quorum".into(),
        };
        assert!(e.to_string().contains("round 2"));
    }
}
