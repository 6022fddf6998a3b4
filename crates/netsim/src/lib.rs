//! # dfl-netsim
//!
//! A deterministic discrete-event network simulator — the substitute for the
//! mininet emulation the paper's evaluation runs on (§V).
//!
//! The paper's measurements (Figs. 1–2) are dominated by bandwidth contention
//! on access links: trainers uploading 1.3 MB gradient partitions through
//! 10 Mbps links into shared IPFS providers, and aggregators pulling many
//! partitions through a single downlink. This crate models exactly that:
//!
//! * every node sits behind an access link with uplink/downlink capacity and
//!   propagation latency ([`engine::LinkSpec`]);
//! * every message is a flow shaped by **max–min fair sharing** across all
//!   concurrent flows ([`fair::max_min_rates`]), the fluid approximation of
//!   TCP fairness that mininet's htb-based shaping converges to;
//! * protocol logic is written as [`engine::Actor`]s reacting to messages
//!   and timers, so a whole FL deployment runs in milliseconds of real time
//!   with microsecond-resolution virtual time;
//! * runs are bit-for-bit deterministic (ordered event queue, no wall-clock
//!   or thread nondeterminism), so experiments are exactly reproducible.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod engine;
pub mod fair;
pub mod fault;
pub mod time;
pub mod trace;

pub use engine::{Actor, Context, LinkSpec, NodeId, Simulation};
pub use fault::{splitmix64, ChaosRng, ChaosSpec, Fault, FaultPlan};
pub use time::{SimDuration, SimTime};
pub use trace::{Histogram, Label, Trace, TraceEvent, TraceReadError};
