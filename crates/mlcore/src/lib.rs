//! # dfl-ml
//!
//! The machine-learning substrate under the decentralized FL protocol: the
//! models whose parameter vectors get partitioned and aggregated, the local
//! SGD each trainer runs, synthetic federated datasets, and the two
//! baselines the paper positions itself against.
//!
//! * [`linalg`] — minimal dense vectors/matrices.
//! * [`data`] — synthetic classification/regression datasets with IID and
//!   Dirichlet non-IID federated partitioning.
//! * [`model`] — [`model::Model`] trait (flat parameter vectors) with
//!   linear regression, softmax regression, a one-hidden-layer MLP (manual
//!   backprop, gradient-checked), and a [`model::SyntheticModel`] stub for
//!   network-delay experiments where only parameter-vector *size* matters.
//! * [`train`] — deterministic local SGD ([`train::local_update`]) and
//!   parameter averaging.
//! * [`fedavg`] — centralized FedAvg, the reference the protocol must match
//!   bit-for-bit (§V "convergence … exactly the same as traditional FL").
//! * [`gossip`] — gossip averaging, the purely-decentralized baseline from
//!   the paper's introduction.
//! * [`metrics`] — accuracy / MSE / parameter-distance.

#![forbid(unsafe_code)]

pub mod data;
pub mod fedavg;
pub mod gossip;
pub mod linalg;
pub mod metrics;
pub mod model;
pub mod train;

pub use data::Dataset;
pub use fedavg::FedAvg;
pub use gossip::{Gossip, GossipTopology};
pub use linalg::Matrix;
pub use model::{LinearRegression, LogisticRegression, Mlp, Model, SyntheticModel};
pub use train::{average_params, local_update, SgdConfig};
