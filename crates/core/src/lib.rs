//! # ipls
//!
//! The paper's contribution: the modified IPLS protocol — decentralized
//! federated learning with **indirect communication** over a decentralized
//! storage network (§III) and **verifiable aggregation** against malicious
//! aggregators via homomorphic Pedersen commitments (§IV).
//!
//! A task is a set of actors on a simulated network:
//!
//! * the **bootstrapper/directory** ([`Directory`]) maps addressing tuples
//!   to CIDs, accumulates gradient commitments, verifies updates, and
//!   drives the round schedule;
//! * **trainers** ([`Trainer`]) train locally, upload per-partition
//!   gradient blobs (with an appended averaging counter), and rebuild the
//!   model from verified updates;
//! * **aggregators** ([`Aggregator`]) collect their trainer set's
//!   gradients (directly, naively via storage, or through
//!   merge-and-download), sum them, synchronize partials over pub/sub, and
//!   register the global update;
//! * **storage nodes** (from [`dfl_ipfs`]) provide availability, provider
//!   routing, replication, and storage-side pre-aggregation.
//!
//! The three protocol state machines are **sans-io** ([`protocol`]): they
//! consume [`ProtocolEvent`]s and emit [`ProtocolAction`]s, and never touch
//! a socket, clock, or simulator directly. A backend interprets the
//! actions: [`runner::run_task`] drives the cores inside the deterministic
//! network simulator and reports the delay metrics of §V, while the
//! `dfl-backend-tokio` crate drives the identical cores over real TCP
//! sockets.
//!
//! ```
//! use dfl_ml::{data, LogisticRegression, Model, SgdConfig};
//! use ipls::{run_task, TaskConfig};
//!
//! let cfg = TaskConfig { trainers: 4, partitions: 2, rounds: 1, ..TaskConfig::default() };
//! let dataset = data::make_blobs(64, 2, 2, 0.5, 1);
//! let clients = data::partition_iid(&dataset, 4, 0);
//! let model = LogisticRegression::new(2, 2);
//! let params = model.params();
//! let report = run_task(cfg.clone(), model, params, clients, SgdConfig::default(), &[])?;
//! assert!(report.succeeded(&cfg));
//! # Ok::<(), ipls::IplsError>(())
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod accountability;
pub mod adversary;
pub mod aggregator;
pub mod config;
pub mod directory;
pub mod error;
pub mod gradient;
pub mod labels;
pub mod messages;
pub mod overlay;
pub mod protocol;
pub mod runner;
pub mod trainer;

/// One-stop imports for task setup: `use ipls::prelude::*;`.
///
/// Covers what nearly every experiment touches — configuration
/// ([`TaskConfig`] and its builder, [`CommMode`], [`Topology`]), the
/// runner entry points ([`run_task`], [`TaskReport`], [`RoundMetrics`]),
/// the sans-io protocol boundary ([`ProtocolEvent`], [`ProtocolAction`]),
/// adversary [`Behavior`], the error type, and the network-simulation
/// vocabulary types ([`prelude::SimDuration`], [`prelude::SimTime`],
/// [`prelude::FaultPlan`], [`prelude::Fault`], [`prelude::LinkSpec`],
/// [`prelude::NodeId`]) that configs and fault plans are built from.
pub mod prelude {
    pub use crate::adversary::Behavior;
    pub use crate::config::{CommMode, TaskConfig, TaskConfigBuilder, Topology};
    pub use crate::error::IplsError;
    pub use crate::protocol::{ProtocolAction, ProtocolEvent};
    pub use crate::runner::{run_task, RoundMetrics, TaskReport};
    pub use dfl_netsim::{ChaosSpec, Fault, FaultPlan, LinkSpec, NodeId, SimDuration, SimTime};
}

// The crate-root surface: the state machines, the event/action boundary
// they speak, the configuration and runner entry points, and the message
// enum backends transport. Everything else (evidence records, wire
// payloads, trace labels) is deliberately *not* re-exported here — reach
// through the owning module so internals read as internals.
pub use adversary::Behavior;
pub use aggregator::Aggregator;
pub use config::{CommMode, TaskConfig, TaskConfigBuilder, Topology};
pub use directory::Directory;
pub use error::IplsError;
pub use messages::Msg;
pub use protocol::{ProtocolAction, ProtocolCore, ProtocolEvent};
pub use runner::{run_task, RoundMetrics, TaskReport};
pub use trainer::Trainer;
