//! Trace labels recorded by protocol actors; the runner turns these into
//! the delay metrics the paper reports.

/// Directory: round `iter` announced (value = iter).
pub const ROUND_START: &str = "round_start";
/// Directory: first gradient hash of the round written (value = iter).
/// Aggregation delay is measured from this instant (§V).
pub const FIRST_GRADIENT_HASH: &str = "first_gradient_hash";
/// Trainer: began uploading gradients (value = iter).
pub const UPLOAD_START: &str = "upload_start";
/// Trainer: all gradient uploads acknowledged (value = iter). The upload
/// delay is `UPLOAD_DONE − UPLOAD_START` (§V).
pub const UPLOAD_DONE: &str = "upload_done";
/// Aggregator: all of `T_ij`'s gradients aggregated (value = iter).
pub const GRADS_AGGREGATED: &str = "grads_aggregated";
/// Aggregator: all peer partials combined into the global partition
/// (value = iter). Sync delay is `SYNC_DONE − GRADS_AGGREGATED`.
pub const SYNC_DONE: &str = "sync_done";
/// Directory: a partition's global update registered and accepted
/// (value = partition index).
pub const UPDATE_REGISTERED: &str = "update_registered";
/// Directory: an update failed commitment verification (value = partition).
pub const VERIFICATION_FAILED: &str = "verification_failed";
/// Directory: every trainer finished the round (value = iter).
pub const ROUND_COMPLETE: &str = "round_complete";
/// Directory: all rounds finished (value = total rounds).
pub const TASK_COMPLETE: &str = "task_complete";
/// Trainer: rebuilt the model from updated partitions (value = iter).
pub const TRAINER_ROUND_DONE: &str = "trainer_round_done";
/// Aggregator: recovered a dead peer's trainer set at the sync deadline
/// (value = the missing peer's index).
pub const DROPOUT_RECOVERY: &str = "dropout_recovery";
/// Directory: a registration failed signature verification (value = the
/// claimed trainer index).
pub const FORGED_REGISTRATION: &str = "forged_registration";
/// Aggregator: the sync deadline passed and the round continued with a
/// quorum of the received gradients instead of the full trainer set
/// (value = number of gradients missing).
pub const QUORUM_DEGRADED: &str = "quorum_degraded";
/// Aggregator: a merge-and-download RPC failed and the aggregator fell
/// back to fetching that provider's gradients individually (value = number
/// of CIDs fetched individually).
pub const MERGE_FALLBACK: &str = "merge_fallback";
/// A commitment mismatch was pinned on a specific aggregator — by a peer
/// whose fetched partial failed verification, or by the directory whose
/// registered update failed verification (value = offending aggregator's
/// global index).
pub const MISBEHAVIOR_DETECTED: &str = "misbehavior_detected";
/// Directory: an aggregator was evicted on valid misbehavior evidence;
/// its future update registrations are ignored (value = offender index).
pub const EVICTED: &str = "evicted";
/// Directory: a registration from an evicted aggregator was dropped
/// (value = offender index).
pub const EVICTED_REJECTED: &str = "evicted_rejected";
/// Aggregator: a partition peer was locally blacklisted — either on
/// re-verified misbehavior evidence or on watchdog timeout suspicion
/// (value = the blacklisted slot's global aggregator index).
pub const PEER_BLACKLISTED: &str = "peer_blacklisted";
/// Aggregator: a round's partition sync completed using gradients
/// re-downloaded from storage in place of at least one peer partial
/// (value = iter).
pub const ROUND_RECOVERED: &str = "round_recovered";
/// Bytes fetched, stored, or uploaded for data that misbehavior later
/// invalidated (value = byte count; summed by the runner).
pub const WASTED_BYTES: &str = "wasted_bytes";
/// Aggregator: started gathering its trainers' gradients — the first
/// own-gradient fetch or merge RPC of the round (value = iter). The merge
/// delay is `GRADS_AGGREGATED − FETCH_START`.
pub const FETCH_START: &str = "fetch_start";
/// Histogram label: wall-clock milliseconds spent verifying one gradient
/// blob against its commitment (trainer, aggregator, and directory verify
/// paths). Wall-clock — excluded from determinism comparisons.
pub const VERIFY_MS: &str = "verify_ms";
/// Counter: total gradient blobs whose commitment was checked. The
/// per-blob path bumps it by 1 per verification; the batched path bumps it
/// by 1 at the instant each blob *would* have been verified per-blob
/// (enqueue time for deferred queues, drain time for stash drains), so the
/// total is identical in both modes — even in rounds that stall before a
/// flush — and `dfl report` never under-counts verification work.
pub const BLOBS_VERIFIED: &str = "blobs_verified";
/// Histogram label: verification batch size — one sample per verify call
/// (1.0 on the per-blob path, the queue length on the batched path).
/// Batch sizes depend only on simulated behaviour, but the histogram
/// channel keeps batched and per-blob fingerprints comparable.
pub const VERIFY_BATCHED: &str = "verify_batched";
/// Counter: the backend reported a delivery failure
/// ([`ProtocolEvent::DeliveryFailure`](crate::ProtocolEvent)) — an
/// outbound message was dropped after connection supervision exhausted
/// its retries or the per-peer queue overflowed. Only real-socket
/// backends emit these; in netsim every loss is injected and traced.
pub const DELIVERY_FAILED: &str = "delivery_failed";
/// Counter: an update blob reply reached a verification path without a
/// commitment key. Dropped instead of panicking.
pub const MISSING_COMMIT_KEY: &str = "missing_commit_key";
/// Trainer (overlay mode): forwarded its level's partial — own gradient
/// plus verified child partials — one hop up the aggregation tree
/// (value = partition index).
pub const OVERLAY_FORWARDED: &str = "overlay_forwarded";
/// Trainer (overlay mode): received one child's partial (value =
/// partition index). Per-node event counts of this label bound the
/// measured fan-in at every interior node.
pub const OVERLAY_CHILD_RECV: &str = "overlay_child_recv";
/// Trainer (overlay mode): a child partial failed its Pedersen opening
/// or signature check and was excluded from the level's sum (value = the
/// offending child's trainer index).
pub const OVERLAY_CHILD_REJECTED: &str = "overlay_child_rejected";
/// Trainer (overlay mode): the level deadline fired before every child
/// delivered; the partial went up with the contributions that arrived
/// (value = number of children missing).
pub const OVERLAY_TIMEOUT: &str = "overlay_timeout";
/// Aggregator (overlay mode): processed one protocol message (value =
/// iter). Per-aggregator event counts of this label are the sub-linear
/// per-node work measurement of the overlay bench.
pub const OVERLAY_AGG_MSG: &str = "overlay_agg_msg";
/// Aggregator (overlay mode): a root partial failed verification and was
/// dropped (value = the claimed root trainer index).
pub const OVERLAY_PARTIAL_REJECTED: &str = "overlay_partial_rejected";
/// Aggregator (overlay mode): pushed the final partition update into the
/// dissemination tree (value = iter).
pub const OVERLAY_UPDATE_PUSHED: &str = "overlay_update_pushed";
/// Trainer (overlay mode): an update pushed down the tree failed its
/// aggregator signature check and was dropped (value = partition).
pub const OVERLAY_UPDATE_REJECTED: &str = "overlay_update_rejected";
/// Trainer: local training overran `t_train` and the round's upload was
/// skipped; the trainer still polls for the next global model (Algorithm 1,
/// lines 10–12; value = iter).
pub const TRAIN_ABORT: &str = "train_abort";
/// Trainer: a downloaded partition update failed its commitment check and
/// was not applied; the poll loop fetches again (value = partition).
pub const TRAINER_REJECTED_UPDATE: &str = "trainer_rejected_update";
/// Directory: the companion of [`VERIFICATION_FAILED`], keyed by the
/// offender (value = the registering aggregator's global index).
pub const VERIFICATION_FAILED_BY: &str = "verification_failed_by";
/// Storage node: the block store's occupancy changed (value = blocks held
/// now; 0 after a `DataLoss` fault).
pub const STORE_BLOCKS: &str = "store_blocks";

/// Every label an `ipls` core can emit as an event, counter or histogram.
/// Storage counters are in `dfl_ipfs::node::stats::ALL` and the simulator's
/// own labels in `dfl_netsim::trace::net::ALL`; `tests/mode_matrix.rs` checks
/// that a run's trace holds nothing outside the three.
pub const ALL: &[&str] = &[
    ROUND_START,
    FIRST_GRADIENT_HASH,
    UPLOAD_START,
    UPLOAD_DONE,
    GRADS_AGGREGATED,
    SYNC_DONE,
    UPDATE_REGISTERED,
    VERIFICATION_FAILED,
    ROUND_COMPLETE,
    TASK_COMPLETE,
    TRAINER_ROUND_DONE,
    DROPOUT_RECOVERY,
    FORGED_REGISTRATION,
    QUORUM_DEGRADED,
    MERGE_FALLBACK,
    MISBEHAVIOR_DETECTED,
    EVICTED,
    EVICTED_REJECTED,
    PEER_BLACKLISTED,
    ROUND_RECOVERED,
    WASTED_BYTES,
    FETCH_START,
    VERIFY_MS,
    BLOBS_VERIFIED,
    VERIFY_BATCHED,
    DELIVERY_FAILED,
    MISSING_COMMIT_KEY,
    OVERLAY_FORWARDED,
    OVERLAY_CHILD_RECV,
    OVERLAY_CHILD_REJECTED,
    OVERLAY_TIMEOUT,
    OVERLAY_AGG_MSG,
    OVERLAY_PARTIAL_REJECTED,
    OVERLAY_UPDATE_PUSHED,
    OVERLAY_UPDATE_REJECTED,
    TRAIN_ABORT,
    TRAINER_REJECTED_UPDATE,
    VERIFICATION_FAILED_BY,
    STORE_BLOCKS,
];
