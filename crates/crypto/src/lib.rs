//! # dfl-crypto
//!
//! Cryptographic substrate for the decentralized federated-learning system:
//! everything the paper's verifiable-aggregation layer (§IV) needs, built
//! from scratch.
//!
//! * [`sha256`] — FIPS 180-4 SHA-256 (IPFS content addressing + the Fig. 3
//!   hashing baseline).
//! * [`bigint`] — fixed-width 256/512-bit integers.
//! * [`field`] — prime fields generic over the modulus, each with the
//!   reduction its modulus allows (a fold for `2²⁵⁶ − c`, Montgomery otherwise).
//! * [`curve`] — secp256k1 and secp256r1 with Jacobian arithmetic and wNAF
//!   scalar multiplication.
//! * [`msm`] — [`msm::eval`] (an interleaved wNAF walk for a few points,
//!   batch-affine Pippenger for more) and fixed-base precomputation tables
//!   ([`msm::MsmTable`]) whose large bucket passes split across every core
//!   — the paper's cited future-work optimization — with [`msm::naive`],
//!   the paper's baseline, as their oracle.
//! * [`pedersen`] — homomorphic Pedersen vector commitments (§IV-A) with
//!   single and batched verification.
//! * [`schnorr`] — Schnorr signatures authenticating directory
//!   registrations (without which forged registrations would defeat §IV).
//! * [`quantize`] — fixed-point gradients, committed to as integers and
//!   embedded into scalars so that field addition matches their addition.
//!
//! ## Example: verifiable aggregation in miniature
//!
//! ```
//! use dfl_crypto::curve::Secp256k1;
//! use dfl_crypto::pedersen::{CommitKey, Commitment};
//! use dfl_crypto::quantize::{quantize_vector, sum_quantized, to_scalars};
//!
//! // Two trainers commit to their fixed-point gradients.
//! let key = CommitKey::<Secp256k1>::setup(3, b"task-42");
//! let g1 = quantize_vector(&[0.5, -1.0, 2.0]);
//! let g2 = quantize_vector(&[1.0, 0.25, -0.5]);
//! let c1 = key.commit(&g1);
//! let c2 = key.commit(&g2);
//! // The same group element as a commitment to their field embedding.
//! assert_eq!(c1, key.commit(&to_scalars::<Secp256k1>(&g1)));
//!
//! // The directory accumulates commitments; the aggregator sums gradients.
//! let accumulated = Commitment::accumulate([&c1, &c2]);
//! let aggregated = sum_quantized(&[g1, g2]);
//!
//! // Verification: the aggregate opens the accumulated commitment, so no
//! // gradient was dropped or altered.
//! assert!(key.verify(&aggregated, &accumulated));
//! ```

// The one `unsafe` in this crate is the SHA-NI kernel in `sha256`.
#![deny(unsafe_op_in_unsafe_fn)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod bigint;
pub mod curve;
pub mod field;
pub mod msm;
pub mod pedersen;
pub mod quantize;
pub mod schnorr;
pub mod sha256;

pub use curve::{Affine, Curve, Jacobian, Scalar, Secp256k1, Secp256r1};
pub use msm::MsmTable;
pub use pedersen::{CommitKey, Commitment};
pub use quantize::Quantized;
pub use schnorr::{Signature, SigningKey, VerifyingKey};
pub use sha256::Sha256;
