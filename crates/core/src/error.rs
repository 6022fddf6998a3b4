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
    /// Verification rejected an aggregator's update.
    VerificationFailed { partition: usize, aggregator: usize },
    /// Summed quantized gradients exceeded the fixed-point range (would
    /// have wrapped or saturated silently).
    Overflow,
    /// A gradient blob failed to decode: truncated, not 8-byte aligned, or
    /// missing the counter element — or decoded vectors to be summed differ
    /// in width, or there are none. Blobs arrive from remote (possibly
    /// Byzantine) peers, so this is an error, never a panic.
    MalformedBlob,
    /// A storage upload target was requested in a communication mode that
    /// never routes gradients through storage (`CommMode::Direct`).
    NoStorageRoute {
        /// Partition whose gradient was about to be routed.
        partition: usize,
        /// Trainer that asked for an upload target.
        trainer: usize,
    },
    /// A merge group referenced a provider that is absent from the grouped
    /// member map. The member lists derive from directory `GradientList`
    /// messages — remote, possibly Byzantine input — so the mismatch is an
    /// error, never a panic.
    UnlistedProvider {
        /// Simulation node index of the missing provider.
        provider: usize,
    },
    /// A storage acknowledgment arrived for a request this node never
    /// routed through storage: a misrouted or duplicated frame from a
    /// remote backend (observed from the TCP transport).
    MisroutedAck {
        /// The acknowledged request id.
        req_id: u64,
    },
    /// A cryptographic verification step ran without a commitment key —
    /// a remote message steered a non-verifiable node onto a verifying
    /// code path.
    MissingCommitKey,
}

impl fmt::Display for IplsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IplsError::InvalidConfig(msg) => write!(f, "invalid task configuration: {msg}"),
            IplsError::RoundFailed { round, reason } => {
                write!(f, "round {round} failed: {reason}")
            }
            IplsError::VerificationFailed {
                partition,
                aggregator,
            } => write!(
                f,
                "verification failed for partition {partition} (aggregator {aggregator})"
            ),
            IplsError::Overflow => {
                write!(f, "quantized gradient sum overflowed the fixed-point range")
            }
            IplsError::MalformedBlob => {
                write!(
                    f,
                    "malformed gradient blob (truncated, unaligned, or missing the counter)"
                )
            }
            IplsError::NoStorageRoute { partition, trainer } => write!(
                f,
                "no storage route for partition {partition} gradient of trainer {trainer}: \
                 direct mode uploads no gradients to storage"
            ),
            IplsError::UnlistedProvider { provider } => write!(
                f,
                "merge group references provider node {provider} absent from the member map"
            ),
            IplsError::MisroutedAck { req_id } => write!(
                f,
                "storage acknowledgment for request {req_id} that was never routed through storage"
            ),
            IplsError::MissingCommitKey => {
                write!(f, "verification requested without a commitment key")
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
        let e = IplsError::VerificationFailed {
            partition: 2,
            aggregator: 1,
        };
        assert!(e.to_string().contains("partition 2"));
        let e = IplsError::UnlistedProvider { provider: 7 };
        assert!(e.to_string().contains("provider node 7"));
        let e = IplsError::MisroutedAck { req_id: 41 };
        assert!(e.to_string().contains("request 41"));
        assert!(IplsError::MissingCommitKey.to_string().contains("key"));
    }
}
