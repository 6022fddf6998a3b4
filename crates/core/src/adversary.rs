//! Malicious-aggregator behaviours (the adversarial model of §III-A).
//!
//! The paper secures the protocol against aggregators that *drop* or
//! *alter* gradients. These behaviours are injected into the aggregator
//! actor so tests and benches can demonstrate both the attack and the
//! detection path (commitment verification at the directory and at peer
//! aggregators).

/// How an aggregator behaves.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum Behavior {
    /// Follows the protocol.
    #[default]
    Honest,
    /// Omits the gradients of up to `count` of its trainers from the
    /// aggregation — violating *completeness* (a lazy aggregator saving
    /// bandwidth, §III-A).
    DropGradients {
        /// How many trainers' gradients to silently drop.
        count: usize,
    },
    /// Adds a perturbation to the aggregated update before uploading —
    /// violating *correctness* (model poisoning, §III-A).
    AlterUpdate,
    /// Registers a *forged* gradient commitment under its first trainer's
    /// name and substitutes a fabricated gradient in the aggregation. With
    /// unauthenticated registrations this defeats the §IV verification —
    /// the poisoned update opens the (forged) accumulated commitment; with
    /// Schnorr-authenticated registrations the forgery is discarded and
    /// the attack is caught.
    ForgeRegistration,
    /// Computes the honest partial but *equivocates* during partial sync:
    /// different partition peers are announced different partials (one
    /// honest, one altered), each under a valid signature. Receivers of the
    /// altered variant obtain a transferable proof of misbehavior — the
    /// signed announcement plus the blob that fails its accumulated
    /// commitment. Only meaningful with more than one aggregator per
    /// partition; degenerates to `Honest` otherwise.
    Equivocate,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_honest() {
        assert_eq!(Behavior::default(), Behavior::Honest);
    }
}
