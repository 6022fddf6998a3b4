//! # decentralized-fl
//!
//! A from-scratch Rust reproduction of *Towards Efficient Decentralized
//! Federated Learning* (Pappas et al., ICDCS 2022): the modified IPLS
//! protocol with indirect communication over a decentralized storage
//! network, merge-and-download pre-aggregation, and verifiable aggregation
//! via homomorphic Pedersen commitments.
//!
//! This crate is the umbrella: it re-exports the workspace's crates and
//! hosts the runnable examples (`examples/`) and cross-crate integration
//! tests (`tests/`).
//!
//! * [`crypto`] ([`dfl_crypto`]) — SHA-256, secp256k1/secp256r1, Pedersen
//!   vector commitments, multi-scalar multiplication, gradient quantization.
//! * [`netsim`] ([`dfl_netsim`]) — deterministic discrete-event network
//!   simulator with max–min fair bandwidth sharing (the mininet stand-in).
//! * [`ipfs`] ([`dfl_ipfs`]) — simulated content-addressed storage with
//!   provider routing, replication, pub/sub, and merge-and-download.
//! * [`ml`] ([`dfl_ml`]) — models, local SGD, federated datasets, and the
//!   centralized FedAvg the protocol must match.
//! * [`protocol`] ([`ipls`]) — the paper's protocol and its task runner.
//!
//! ## Quickstart
//!
//! ```
//! use decentralized_fl::ml::{data, LogisticRegression, Model, SgdConfig};
//! use decentralized_fl::protocol::{run_task, TaskConfig};
//!
//! let cfg = TaskConfig { trainers: 4, partitions: 2, rounds: 2, ..TaskConfig::default() };
//! let dataset = data::make_blobs(80, 2, 2, 0.5, 1);
//! let clients = data::partition_iid(&dataset, 4, 0);
//! let model = LogisticRegression::new(2, 2);
//! let params = model.params();
//! let report = run_task(cfg.clone(), model, params, clients, SgdConfig::default(), &[])?;
//! assert!(report.succeeded(&cfg));
//! println!("round 0 took {:.2}s", report.rounds[0].round_duration);
//! # Ok::<(), decentralized_fl::protocol::IplsError>(())
//! ```

pub use dfl_crypto as crypto;
pub use dfl_ipfs as ipfs;
pub use dfl_ml as ml;
pub use dfl_netsim as netsim;
pub use ipls as protocol;

/// The protocol crate's prelude, re-exported at the umbrella level so
/// examples can write `use decentralized_fl::prelude::*;`.
pub use ipls::prelude;
