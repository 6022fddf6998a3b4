//! Supervised per-peer outbound connections.
//!
//! The first backend cut connected inside the `Send` action and silently
//! `return`ed on any connect or write failure — a frame could vanish with
//! no trace and no retry beyond one reconnect. Here every `(me, peer)`
//! pair gets a dedicated writer thread fed by a **bounded** queue:
//!
//! * the node loop enqueues encoded-able messages without blocking; a
//!   full queue drops the *newest* frame (the protocol's own retries
//!   regenerate state, so old queued frames are worth more than new
//!   ones), counts it, and raises a delivery-failure event. The bound is
//!   an occupancy count, not a preallocated ring: the queue's memory
//!   follows the frames queued (the channel allocates slots 31 at a time,
//!   ≈ 5.5 KB), where a ring of `queue_depth` slots cost 172 KB a pair;
//! * the writer owns the TCP stream, reconnecting under deterministic
//!   seeded exponential backoff with jitter ([`BackoffPolicy`]) and
//!   giving up on a frame only after `max_attempts` (or at once, when the
//!   message exceeds the frame cap), which again counts and raises
//!   [`NodeEvent::SendFailed`];
//! * the fault-injection shim sits exactly between codec and socket: the
//!   writer asks [`NetFaults::verdict`] about each frame and then drops,
//!   resets, truncates, duplicates, or delays the already-encoded frame;
//! * that frame is a segment list (`codec::try_encode_segments`), not a
//!   flat buffer: a blob goes from the message's own allocation to the
//!   socket in one `write_vectored`, and a truncation is the first half of
//!   the frame's bytes wherever the segment boundaries fall.
//!
//! Every way a frame can die increments a dedicated [`DeliveryStats`]
//! counter — the run report can prove (and tests assert) that no loss is
//! silent. What the queues hold is a gauge beside those counters: frames
//! and frame bytes handed to writers and not yet dealt with, now and at
//! the run's worst moment.

use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use dfl_ipfs::wire::{Segments, FRAME_HEADER_BYTES};
use dfl_netsim::{ChaosRng, NodeId};
use ipls::protocol::WireCost;
use ipls::Msg;

use crate::fault::{NetFaults, Verdict};
use crate::{codec, NodeEvent};

/// Reconnect/retry knobs for the supervised writers. The same shape as
/// `dfl_ipfs::RetryPolicy` (base interval that doubles per attempt, a
/// bounded attempt budget), specialised to connection supervision: the
/// backoff is jittered from a SplitMix64 stream seeded per `(seed, me,
/// peer)`, so a run's retry timing is deterministic given its seed.
#[derive(Clone, Copy, Debug)]
pub(crate) struct BackoffPolicy {
    /// First retry delay; doubles each subsequent attempt.
    pub base: Duration,
    /// Backoff ceiling.
    pub max: Duration,
    /// Delivery attempts per frame (connect + write counts as one).
    pub max_attempts: u32,
    /// Bounded outbound queue depth per peer: frames handed over and not
    /// yet taken by the writer. A full queue drops the newest frame with
    /// accounting. The depth is a bound, not an allocation: the queue's
    /// memory follows the frames queued.
    pub queue_depth: usize,
    /// Seed of the jitter streams.
    pub seed: u64,
}

impl Default for BackoffPolicy {
    fn default() -> BackoffPolicy {
        BackoffPolicy {
            base: Duration::from_millis(25),
            max: Duration::from_secs(1),
            max_attempts: 6,
            queue_depth: 1024,
            seed: 0,
        }
    }
}

impl BackoffPolicy {
    /// The jittered delay before retry `attempt` (1-based): exponential
    /// from `base`, capped at `max`, scaled by a deterministic 50–150 %
    /// jitter draw.
    fn delay(&self, attempt: u32, rng: &mut ChaosRng) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32 << attempt.min(16).saturating_sub(1))
            .min(self.max);
        exp * (50 + rng.roll_pct()) / 100
    }
}

/// Monotonic accounting for every frame the transport handles. One
/// instance is shared by all of a run's nodes; the run report snapshots
/// it so no loss is silent.
#[derive(Debug, Default)]
pub struct DeliveryStats {
    /// Frames written to a socket (excluding chaos-injected duplicates).
    pub frames_sent: AtomicU64,
    /// Frames dropped because the peer's bounded queue was full.
    pub frames_dropped_queue_full: AtomicU64,
    /// Frames the writer abandoned: delivery attempts exhausted, or a
    /// message over the frame cap that no receiver would accept.
    pub frames_dropped_retries: AtomicU64,
    /// Outbound frames (queued sends and discarded crash-time actions)
    /// dropped because the sending node was down.
    pub frames_dropped_down: AtomicU64,
    /// Outbound frames dropped by an [`Isolate`](dfl_netsim::Fault)
    /// partition on either endpoint.
    pub frames_dropped_partition: AtomicU64,
    /// Inbound frames discarded because the receiving node was down.
    pub frames_discarded_down: AtomicU64,
    /// Timer firings discarded because the node was down (netsim
    /// semantics: a crashed node's timers die at fire time).
    pub timers_discarded_down: AtomicU64,
    /// Chaos verdicts: frames silently dropped.
    pub chaos_dropped: AtomicU64,
    /// Chaos verdicts: connections reset (the frame was lost).
    pub chaos_resets: AtomicU64,
    /// Chaos verdicts: frames truncated mid-write.
    pub chaos_truncated: AtomicU64,
    /// Chaos verdicts: frames written twice.
    pub chaos_duplicated: AtomicU64,
    /// Chaos verdicts: frames delayed before the write.
    pub chaos_delayed: AtomicU64,
    /// Successful connection (re-)establishments after the first.
    pub reconnects: AtomicU64,
    /// Individual failed connect attempts (each later retried or given
    /// up with `frames_dropped_retries`).
    pub connect_failures: AtomicU64,
    /// Gauge, not a loss: frames handed to writers (queued, or being
    /// written, retried or delayed) and not yet dealt with, over all
    /// `(node, peer)` queues of the run.
    pub queued_frames: AtomicU64,
    /// Gauge: the frame bytes of [`queued_frames`](Self::queued_frames) —
    /// what the per-peer queues pin in memory right now.
    pub queued_bytes: AtomicU64,
    /// High-water mark of `queued_frames`.
    pub queued_frames_peak: AtomicU64,
    /// High-water mark of `queued_bytes`.
    pub queued_bytes_peak: AtomicU64,
}

impl DeliveryStats {
    /// Books a frame of `bytes` into the queue gauge.
    fn queued(&self, bytes: u64) {
        let frames = self.queued_frames.fetch_add(1, Ordering::Relaxed) + 1;
        let held = self.queued_bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.queued_frames_peak.fetch_max(frames, Ordering::Relaxed);
        self.queued_bytes_peak.fetch_max(held, Ordering::Relaxed);
    }

    /// Books a frame of `bytes` out of the queue gauge.
    fn dequeued(&self, bytes: u64) {
        self.queued_frames.fetch_sub(1, Ordering::Relaxed);
        self.queued_bytes.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// A plain-integer copy for reports.
    pub fn snapshot(&self) -> DeliveryReport {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        DeliveryReport {
            frames_sent: get(&self.frames_sent),
            frames_dropped_queue_full: get(&self.frames_dropped_queue_full),
            frames_dropped_retries: get(&self.frames_dropped_retries),
            frames_dropped_down: get(&self.frames_dropped_down),
            frames_dropped_partition: get(&self.frames_dropped_partition),
            frames_discarded_down: get(&self.frames_discarded_down),
            timers_discarded_down: get(&self.timers_discarded_down),
            chaos_dropped: get(&self.chaos_dropped),
            chaos_resets: get(&self.chaos_resets),
            chaos_truncated: get(&self.chaos_truncated),
            chaos_duplicated: get(&self.chaos_duplicated),
            chaos_delayed: get(&self.chaos_delayed),
            reconnects: get(&self.reconnects),
            connect_failures: get(&self.connect_failures),
            queued_frames: get(&self.queued_frames),
            queued_bytes: get(&self.queued_bytes),
            queued_frames_peak: get(&self.queued_frames_peak),
            queued_bytes_peak: get(&self.queued_bytes_peak),
        }
    }
}

/// Frozen `DeliveryStats`, embedded in the run report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[allow(missing_docs)] // field-for-field mirror of DeliveryStats
pub struct DeliveryReport {
    pub frames_sent: u64,
    pub frames_dropped_queue_full: u64,
    pub frames_dropped_retries: u64,
    pub frames_dropped_down: u64,
    pub frames_dropped_partition: u64,
    pub frames_discarded_down: u64,
    pub timers_discarded_down: u64,
    pub chaos_dropped: u64,
    pub chaos_resets: u64,
    pub chaos_truncated: u64,
    pub chaos_duplicated: u64,
    pub chaos_delayed: u64,
    pub reconnects: u64,
    pub connect_failures: u64,
    pub queued_frames: u64,
    pub queued_bytes: u64,
    pub queued_frames_peak: u64,
    pub queued_bytes_peak: u64,
}

impl DeliveryReport {
    /// Frames the transport itself failed to deliver — supervision giving
    /// up, not injected faults or crash-gated discards.
    pub fn frames_dropped(&self) -> u64 {
        self.frames_dropped_queue_full + self.frames_dropped_retries
    }

    /// Frames lost to injected faults (chaos and partitions).
    pub fn frames_faulted(&self) -> u64 {
        self.chaos_dropped
            + self.chaos_resets
            + self.chaos_truncated
            + self.frames_dropped_partition
    }

    /// Every accounted loss, of any cause.
    pub fn frames_lost_total(&self) -> u64 {
        self.frames_dropped() + self.frames_faulted() + self.frames_dropped_down
    }
}

/// The node-loop handle to one peer's supervised writer.
pub(crate) struct PeerSender {
    queue: mpsc::Sender<Msg>,
    /// Frames in `queue` the writer has not taken yet; at most `depth`.
    occupancy: Arc<AtomicUsize>,
    depth: usize,
    to: NodeId,
    stats: Arc<DeliveryStats>,
    failure_tx: mpsc::Sender<NodeEvent>,
}

impl PeerSender {
    /// Spawns the writer thread for `me → to`.
    pub(crate) fn spawn(
        me: NodeId,
        to: NodeId,
        addr: std::net::SocketAddr,
        policy: BackoffPolicy,
        faults: Arc<NetFaults>,
        stats: Arc<DeliveryStats>,
        failure_tx: mpsc::Sender<NodeEvent>,
    ) -> PeerSender {
        let (queue, rx) = mpsc::channel::<Msg>();
        let occupancy = Arc::new(AtomicUsize::new(0));
        let writer_occupancy = occupancy.clone();
        let writer_stats = stats.clone();
        let writer_failures = failure_tx.clone();
        std::thread::spawn(move || {
            Writer {
                me,
                to,
                addr,
                policy,
                faults,
                stats: writer_stats,
                failure_tx: writer_failures,
                rng: ChaosRng::for_node(
                    policy.seed ^ (to.index() as u64).wrapping_mul(0xA24B_AED4_963E_E407),
                    me,
                ),
                conn: None,
                last_gen: 0,
                ever_connected: false,
            }
            .run(rx, &writer_occupancy);
        });
        PeerSender {
            queue,
            occupancy,
            depth: policy.queue_depth.max(1),
            to,
            stats,
            failure_tx,
        }
    }

    /// Enqueues a frame without blocking. A full queue drops the newest
    /// frame (counted + delivery-failure event) — the protocol's own
    /// retry machinery regenerates anything that mattered.
    pub(crate) fn send(&self, msg: Msg) {
        // Booked before the hand-over: the writer may book the frame out
        // the instant it is in the queue.
        let bytes = frame_bytes(&msg);
        self.stats.queued(bytes);
        let room = self.occupancy.fetch_add(1, Ordering::Relaxed) < self.depth;
        if !room || self.queue.send(msg).is_err() {
            self.occupancy.fetch_sub(1, Ordering::Relaxed);
            self.stats.dequeued(bytes);
            self.stats
                .frames_dropped_queue_full
                .fetch_add(1, Ordering::Relaxed);
            let _ = self.failure_tx.send(NodeEvent::SendFailed { to: self.to });
        }
    }
}

/// What `msg` occupies as a frame, for the queue gauge.
fn frame_bytes(msg: &Msg) -> u64 {
    (FRAME_HEADER_BYTES + msg.encoded_len()) as u64
}

/// The writer-thread state for one peer connection.
struct Writer {
    me: NodeId,
    to: NodeId,
    addr: std::net::SocketAddr,
    policy: BackoffPolicy,
    faults: Arc<NetFaults>,
    stats: Arc<DeliveryStats>,
    failure_tx: mpsc::Sender<NodeEvent>,
    rng: ChaosRng,
    conn: Option<TcpStream>,
    last_gen: u64,
    ever_connected: bool,
}

impl Writer {
    fn run(mut self, rx: mpsc::Receiver<Msg>, occupancy: &AtomicUsize) {
        while let Ok(msg) = rx.recv() {
            occupancy.fetch_sub(1, Ordering::Relaxed);
            self.handle(&msg);
            self.stats.dequeued(frame_bytes(&msg));
        }
    }

    /// Deals with one queued message: asks the fault table, then writes,
    /// mangles or drops its frame, accounting the outcome.
    fn handle(&mut self, msg: &Msg) {
        // A crash bumps the sender's connection generation: drop the
        // cached stream so the peer observes a reset.
        let gen = self.faults.conn_gen(self.me);
        if gen != self.last_gen {
            self.last_gen = gen;
            self.conn = None;
        }
        // A message over the frame cap can never be delivered (every
        // receiver rejects it and drops the connection): abandon it
        // here, before a byte reaches the stream.
        let Ok(frame) = codec::try_encode_segments(self.me, msg) else {
            self.abandon();
            return;
        };
        let count = |field: &AtomicU64| field.fetch_add(1, Ordering::Relaxed);
        match self.faults.verdict(self.me, self.to) {
            Verdict::SenderDown => {
                count(&self.stats.frames_dropped_down);
            }
            Verdict::Isolated => {
                count(&self.stats.frames_dropped_partition);
            }
            Verdict::ChaosDrop => {
                count(&self.stats.chaos_dropped);
            }
            Verdict::ChaosReset => {
                self.conn = None;
                count(&self.stats.chaos_resets);
            }
            Verdict::ChaosTruncate => {
                if let Some(conn) = self.ensure_conn() {
                    let _ = codec::write_prefix(conn, &frame, frame.len() / 2);
                }
                // Kill the connection mid-frame: the receiver sees a
                // torn frame and a clean decode error (booked first, so
                // whoever sees the reset also sees the count).
                count(&self.stats.chaos_truncated);
                self.conn = None;
            }
            Verdict::ChaosDup => {
                self.deliver(&frame);
                if self.deliver_quiet(&frame) {
                    count(&self.stats.chaos_duplicated);
                }
            }
            Verdict::ChaosDelay(delay) => {
                std::thread::sleep(delay);
                count(&self.stats.chaos_delayed);
                self.deliver(&frame);
            }
            Verdict::Deliver => {
                self.deliver(&frame);
            }
        }
    }

    /// Writes one frame under the retry budget, accounting the outcome
    /// and raising a delivery-failure event on exhaustion.
    fn deliver(&mut self, frame: &Segments) {
        if self.deliver_quiet(frame) {
            self.stats.frames_sent.fetch_add(1, Ordering::Relaxed);
        } else {
            self.abandon();
        }
    }

    /// Books a frame the writer gave up on and tells the sending core.
    fn abandon(&self) {
        if self.faults.is_down(self.me) {
            // Crashed meanwhile: the loss is crash-gated, and a down
            // node's core receives no events.
            self.stats
                .frames_dropped_down
                .fetch_add(1, Ordering::Relaxed);
        } else {
            self.stats
                .frames_dropped_retries
                .fetch_add(1, Ordering::Relaxed);
            let _ = self.failure_tx.send(NodeEvent::SendFailed { to: self.to });
        }
    }

    /// The bare retry loop: `true` once the frame is on the wire.
    fn deliver_quiet(&mut self, frame: &Segments) -> bool {
        for attempt in 1..=self.policy.max_attempts {
            if attempt > 1 {
                std::thread::sleep(self.policy.delay(attempt - 1, &mut self.rng));
                if self.faults.is_down(self.me) {
                    return false;
                }
            }
            let Some(conn) = self.ensure_conn() else {
                continue;
            };
            match codec::write_prefix(conn, frame, frame.len()) {
                Ok(()) => return true,
                // Stale or reset connection: reconnect and retry.
                Err(_) => self.conn = None,
            }
        }
        false
    }

    /// The open connection, or a new one; `None` when connecting fails.
    fn ensure_conn(&mut self) -> Option<&mut TcpStream> {
        if self.conn.is_some() {
            return self.conn.as_mut();
        }
        match TcpStream::connect(self.addr) {
            Ok(stream) => {
                let _ = stream.set_nodelay(true);
                if self.ever_connected {
                    self.stats.reconnects.fetch_add(1, Ordering::Relaxed);
                }
                self.ever_connected = true;
                self.last_gen = self.faults.conn_gen(self.me);
                Some(self.conn.insert(stream))
            }
            Err(_) => {
                self.stats.connect_failures.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_within_bounds() {
        let policy = BackoffPolicy {
            base: Duration::from_millis(10),
            max: Duration::from_millis(200),
            ..BackoffPolicy::default()
        };
        let mut rng = ChaosRng::for_node(1, NodeId(0));
        let mut prev_cap = Duration::ZERO;
        for attempt in 1..=8 {
            let d = policy.delay(attempt, &mut rng);
            // Jitter spans 50–150 % of the exponential step, which itself
            // is capped at `max`.
            assert!(d <= policy.max * 3 / 2, "attempt {attempt}: {d:?}");
            let cap = policy
                .base
                .saturating_mul(1u32 << (attempt - 1).min(16))
                .min(policy.max);
            assert!(d >= cap / 4, "attempt {attempt}: {d:?} vs cap {cap:?}");
            prev_cap = prev_cap.max(cap);
        }
    }

    #[test]
    fn backoff_jitter_is_deterministic_per_seed() {
        let policy = BackoffPolicy::default();
        let seq = |seed| {
            let mut rng = ChaosRng::for_node(seed, NodeId(3));
            (1..=6)
                .map(|a| policy.delay(a, &mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(seq(7), seq(7));
        assert_ne!(seq(7), seq(8));
    }

    #[test]
    fn queue_overflow_is_counted_and_raises_send_failed() {
        // No listener on this address: the writer blocks in backoff while
        // the bounded queue fills.
        let faults = Arc::new(NetFaults::new(2));
        let stats = Arc::new(DeliveryStats::default());
        let (tx, rx) = mpsc::channel();
        let policy = BackoffPolicy {
            base: Duration::from_millis(50),
            max: Duration::from_secs(1),
            max_attempts: 3,
            queue_depth: 1,
            seed: 1,
        };
        let dead = std::net::SocketAddr::from(([127, 0, 0, 1], 1));
        let sender = PeerSender::spawn(
            NodeId(0),
            NodeId(1),
            dead,
            policy,
            faults,
            stats.clone(),
            tx,
        );
        for _ in 0..16 {
            sender.send(Msg::StartRound { iter: 0 });
        }
        let mut failures = 0;
        while let Ok(event) = rx.recv_timeout(Duration::from_secs(5)) {
            if matches!(event, NodeEvent::SendFailed { to } if to == NodeId(1)) {
                failures += 1;
            }
            let dropped = stats.frames_dropped_queue_full.load(Ordering::Relaxed)
                + stats.frames_dropped_retries.load(Ordering::Relaxed);
            if dropped >= 8 && failures > 0 {
                break;
            }
        }
        assert!(failures > 0, "overflow must raise SendFailed");
        assert!(stats.frames_dropped_queue_full.load(Ordering::Relaxed) > 0);
        assert_eq!(stats.frames_sent.load(Ordering::Relaxed), 0);
    }

    /// The bound is exact: with the writer stalled on one frame, `depth`
    /// more queue, the next is dropped, counted and reported, and
    /// everything queued goes out in order once the writer resumes.
    #[test]
    fn a_stalled_writer_queues_exactly_depth_frames_and_delivers_them_in_order() {
        let depth = 4;
        // Frame 0 is far larger than loopback's socket buffers, and nobody
        // reads the connection until the test accepts it: the writer is
        // stuck inside frame 0's write until then.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let stats = Arc::new(DeliveryStats::default());
        let (tx, rx) = mpsc::channel();
        let policy = BackoffPolicy {
            queue_depth: depth,
            ..BackoffPolicy::default()
        };
        let addr = listener.local_addr().unwrap();
        let faults = Arc::new(NetFaults::new(2));
        let sender = PeerSender::spawn(
            NodeId(0),
            NodeId(1),
            addr,
            policy,
            faults,
            stats.clone(),
            tx,
        );
        let stall = vec![7u8; 16 << 20];
        sender.send(Msg::ReportMisbehavior {
            record: stall.clone().into(),
        });
        let taken = std::time::Instant::now() + Duration::from_secs(5);
        while sender.occupancy.load(Ordering::Relaxed) > 0 {
            assert!(
                std::time::Instant::now() < taken,
                "the writer takes frame 0"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        for iter in 1..=depth as u64 + 1 {
            sender.send(Msg::StartRound { iter });
        }
        assert_eq!(sender.occupancy.load(Ordering::Relaxed), depth);
        let dropped = stats.frames_dropped_queue_full.load(Ordering::Relaxed);
        assert_eq!(dropped, 1, "frame {} is dropped", depth + 1);
        let event = rx.recv_timeout(Duration::from_secs(5)).expect("event");
        assert!(matches!(event, NodeEvent::SendFailed { to } if to == NodeId(1)));

        let (mut conn, _) = listener.accept().unwrap();
        let (_, first) = codec::read_frame(&mut conn).unwrap().expect("frame 0");
        assert!(matches!(first, Msg::ReportMisbehavior { record } if record[..] == stall[..]));
        for want in 1..=depth as u64 {
            let (_, msg) = codec::read_frame(&mut conn).unwrap().expect("a frame");
            assert!(
                matches!(msg, Msg::StartRound { iter } if iter == want),
                "{msg:?}"
            );
        }
        drop(sender);
        assert!(
            codec::read_frame(&mut conn).unwrap().is_none(),
            "nothing follows"
        );
        let report = stats.snapshot();
        assert_eq!(report.frames_sent, depth as u64 + 1);
        assert_eq!(report.frames_dropped(), 1);
        assert_eq!((report.queued_frames, report.queued_bytes), (0, 0));
        assert!(rx.try_recv().is_err(), "one failure, one event");
    }

    #[test]
    fn oversized_message_is_abandoned_without_poisoning_the_stream() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let stats = Arc::new(DeliveryStats::default());
        let (tx, rx) = mpsc::channel();
        let sender = PeerSender::spawn(
            NodeId(0),
            NodeId(1),
            listener.local_addr().unwrap(),
            BackoffPolicy::default(),
            Arc::new(NetFaults::new(2)),
            stats.clone(),
            tx,
        );
        sender.send(Msg::ReportMisbehavior {
            record: vec![0u8; codec::MAX_FRAME_BYTES].into(),
        });
        sender.send(Msg::StartRound { iter: 4 });
        // The next frame on the same connection decodes: nothing of the
        // oversized message reached the stream.
        let (mut conn, _) = listener.accept().unwrap();
        let (from, msg) = codec::read_frame(&mut conn).unwrap().expect("one frame");
        assert_eq!(from, NodeId(0));
        assert!(matches!(msg, Msg::StartRound { iter: 4 }));
        let event = rx.recv_timeout(Duration::from_secs(5)).expect("event");
        assert!(matches!(event, NodeEvent::SendFailed { to } if to == NodeId(1)));
        assert_eq!(stats.frames_dropped_retries.load(Ordering::Relaxed), 1);
    }

    /// A writer `0 → 1` to a fresh listener whose every frame gets the
    /// one verdict `spec` leaves possible.
    fn writer_under(
        spec: dfl_netsim::ChaosSpec,
    ) -> (PeerSender, std::net::TcpListener, Arc<DeliveryStats>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let faults = Arc::new(NetFaults::new(2));
        let node = NodeId(0);
        faults.apply(&dfl_netsim::Fault::Chaos { node, spec });
        let stats = Arc::new(DeliveryStats::default());
        let sender = PeerSender::spawn(
            NodeId(0),
            NodeId(1),
            listener.local_addr().unwrap(),
            BackoffPolicy::default(),
            faults,
            stats.clone(),
            mpsc::channel().0,
        );
        (sender, listener, stats)
    }

    /// A frame of two segments: the copied head, then the blob by reference.
    fn two_segment_msg() -> (Msg, Vec<u8>) {
        let msg = Msg::DirectGradient {
            trainer: 1,
            partition: 2,
            iter: 3,
            data: (0..9001)
                .map(|i| (i % 253) as u8)
                .collect::<Vec<u8>>()
                .into(),
        };
        let frame = codec::try_encode_segments(NodeId(0), &msg).unwrap();
        assert_eq!(frame.slices().count(), 2);
        let flat = codec::encode_frame(NodeId(0), &msg);
        (msg, flat)
    }

    #[test]
    fn a_truncated_segmented_frame_is_the_first_half_of_its_bytes() {
        use std::io::Read as _;
        let (sender, listener, stats) = writer_under(dfl_netsim::ChaosSpec {
            truncate_pct: 100,
            seed: 1,
            ..Default::default()
        });
        let (msg, flat) = two_segment_msg();
        sender.send(msg);
        let (mut conn, _) = listener.accept().unwrap();
        let mut wire = Vec::new();
        conn.read_to_end(&mut wire).unwrap();
        // ⌊n/2⌋ bytes, cut inside the blob segment, then the connection died.
        assert_eq!(wire, flat[..flat.len() / 2]);
        assert_eq!(stats.chaos_truncated.load(Ordering::Relaxed), 1);
        assert_eq!(stats.frames_sent.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn a_duplicated_segmented_frame_is_two_whole_frames_and_the_gauge_drains() {
        use std::io::Read as _;
        let (sender, listener, stats) = writer_under(dfl_netsim::ChaosSpec {
            dup_pct: 100,
            seed: 1,
            ..Default::default()
        });
        let (msg, flat) = two_segment_msg();
        sender.send(msg);
        let (mut conn, _) = listener.accept().unwrap();
        let mut wire = vec![0u8; 2 * flat.len()];
        conn.read_exact(&mut wire).unwrap();
        assert_eq!(wire[..flat.len()], flat[..]);
        assert_eq!(wire[flat.len()..], flat[..]);
        // Dropping the sender ends the writer, which closes the stream:
        // nothing followed the second copy.
        drop(sender);
        assert_eq!(conn.read(&mut [0u8; 1]).unwrap(), 0);
        assert_eq!(stats.chaos_duplicated.load(Ordering::Relaxed), 1);
        assert_eq!(stats.frames_sent.load(Ordering::Relaxed), 1);
        // The queue gauge saw the one frame at its worst and holds nothing
        // now; it is no loss bucket.
        let report = stats.snapshot();
        assert_eq!((report.queued_frames, report.queued_bytes), (0, 0));
        assert_eq!(report.queued_frames_peak, 1);
        assert_eq!(report.queued_bytes_peak, flat.len() as u64);
        assert_eq!(report.frames_lost_total(), 0);
    }
}
