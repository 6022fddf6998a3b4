//! Measurement collection for simulation runs — the observability layer.
//!
//! Actors record named milestones (`ctx.record("upload_done", t)`), bump
//! typed counters (`ctx.incr("ipfs/retries", 1)`), and observe histogram
//! samples (`ctx.observe("verify_ms", 3.2)`); the engine automatically
//! accounts bytes sent/received per node. Experiment harnesses read the
//! trace after `run()` to compute the delays the paper reports (upload
//! delay, aggregation delay, synchronization delay, bytes per aggregator).
//!
//! ## Label interning
//!
//! Labels are interned into a [`Label`] id on first use: the hot
//! [`Trace::record`] path performs no heap allocation for a
//! previously-seen label, and every event stores a 4-byte id instead of an
//! owned `String`. A per-label index of event positions makes
//! [`Trace::find_all`] / [`Trace::first`] / [`Trace::last`] /
//! [`Trace::count`] / [`Trace::sum`] index lookups instead of full event
//! scans — on a Fig. 2-scale trace the report queries no longer rescan the
//! whole run once per label.
//!
//! ## Export
//!
//! [`Trace::write_jsonl`] emits a self-contained JSON-lines document
//! (events, counters, histograms, per-node byte totals, each line tagged
//! with a `"type"` field); [`Trace::read_jsonl`] parses that document
//! back into a [`Trace`], reporting malformed input as a typed
//! [`TraceReadError`] with the offending line number.

use std::collections::HashMap;
use std::fmt;
use std::io::{self, BufRead, Write};

use crate::engine::NodeId;
use crate::time::SimTime;

/// Engine-recorded labels for network-level events. Protocol layers define
/// their own labels; these are the ones the engine itself emits.
pub mod net {
    /// A node crashed (value = 1).
    pub const FAULT_CRASH: &str = "fault/crash";
    /// A crashed node recovered (value = 1).
    pub const FAULT_RECOVER: &str = "fault/recover";
    /// A node silently lost durable state (value = 1).
    pub const FAULT_DATA_LOSS: &str = "fault/data_loss";
    /// A node began acknowledging writes without keeping them (value = 1).
    pub const FAULT_LOSE_WRITES: &str = "fault/lose_writes";
    /// A node's access link was re-provisioned (value = 1).
    pub const FAULT_DEGRADE_LINK: &str = "fault/degrade_link";
    /// An in-flight flow was torn down because its **receiver** crashed
    /// (recorded on the crashed receiver; value = bytes already
    /// transferred). The sender's tx counter includes those bytes; no rx
    /// is accounted — they never reached an application.
    pub const FLOW_TORN_INBOUND: &str = "flow/torn_inbound";
    /// An in-flight flow was torn down because its **sender** crashed
    /// (recorded on the crashed sender; value = bytes already
    /// transferred). Both tx and rx counters include the partial prefix —
    /// the surviving receiver did take delivery of those bytes, but the
    /// truncated message is useless.
    pub const FLOW_TORN_OUTBOUND: &str = "flow/torn_outbound";
    /// A fully-transferred message was dropped because the receiver was
    /// down at delivery time (recorded on the receiver; value = payload
    /// bytes). The whole payload traversed the network, so both tx and rx
    /// are accounted.
    pub const FLOW_UNDELIVERED: &str = "flow/undelivered";
    /// A node was partitioned away from the rest of the network
    /// (value = 1).
    pub const FAULT_ISOLATE: &str = "fault/isolate";
    /// A node's partition was lifted (value = 1).
    pub const FAULT_HEAL: &str = "fault/heal";
    /// A chaos spec was installed on (or removed from) a node's outbound
    /// traffic (value = the spec's loss percentage).
    pub const FAULT_CHAOS: &str = "fault/chaos";
    /// A message was destroyed before entering the network because one of
    /// its endpoints was isolated (recorded on the sender; value = payload
    /// bytes). Nothing traversed the network: neither tx nor rx count it.
    pub const CHAOS_PARTITION_DROP: &str = "chaos/partition_drop";
    /// A message was destroyed before entering the network by the sender's
    /// chaos spec — the fluid-model reading of a drop, reset, or
    /// truncation (recorded on the sender; value = payload bytes).
    pub const CHAOS_FRAME_DROP: &str = "chaos/frame_drop";

    /// Every label above: what the engine may put in a trace.
    pub const ALL: &[&str] = &[
        FAULT_CRASH,
        FAULT_RECOVER,
        FAULT_DATA_LOSS,
        FAULT_LOSE_WRITES,
        FAULT_DEGRADE_LINK,
        FLOW_TORN_INBOUND,
        FLOW_TORN_OUTBOUND,
        FLOW_UNDELIVERED,
        FAULT_ISOLATE,
        FAULT_HEAL,
        FAULT_CHAOS,
        CHAOS_PARTITION_DROP,
        CHAOS_FRAME_DROP,
    ];
}

/// An interned trace label: a dense id into the trace's label registry.
///
/// Obtained from [`Trace::intern`] (or implicitly by the `&str`-taking
/// recording methods); resolved back to its name with
/// [`Trace::label_name`].
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Label(u32);

impl Label {
    /// The dense registry index.
    pub fn index(&self) -> usize {
        self.0 as usize
    }
}

/// One recorded measurement point.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// When it was recorded.
    pub time: SimTime,
    /// Which node recorded it.
    pub node: NodeId,
    /// Interned label (resolve with [`Trace::label_name`]).
    pub label: Label,
    /// Numeric payload (often a timestamp or a count).
    pub value: f64,
}

/// Default histogram bucket upper bounds: a coarse log-ish grid that works
/// for millisecond spans and small counts alike. A final `+inf` bucket is
/// implicit.
pub const DEFAULT_BUCKETS: [f64; 12] = [
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 500.0,
];

/// A fixed-bucket histogram: cumulative-style bucket counts plus exact
/// count/sum/min/max. Buckets are chosen at registration time and never
/// reallocate on the observe path.
#[derive(Clone, Debug)]
pub struct Histogram {
    /// Ascending upper bounds; an implicit `+inf` bucket follows the last.
    bounds: Vec<f64>,
    /// One count per bound, plus the overflow bucket.
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Histogram {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    pub fn observe(&mut self, value: f64) {
        let bucket = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[bucket] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean sample, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest sample (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// `(upper_bound, count)` per bucket; the final bucket's bound is
    /// `f64::INFINITY`.
    pub fn buckets(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.bounds
            .iter()
            .copied()
            .chain(std::iter::once(f64::INFINITY))
            .zip(self.counts.iter().copied())
    }

    /// Bucket-resolution quantile estimate: the upper bound of the first
    /// bucket whose cumulative count reaches `q` of the samples (clamped to
    /// the observed max for the overflow bucket). Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (bound, n) in self.buckets() {
            seen += n;
            if seen >= target {
                return if bound.is_finite() {
                    bound.min(self.max)
                } else {
                    self.max
                };
            }
        }
        self.max
    }
}

/// The full record of a simulation run: the event log plus counters,
/// histograms, and per-node byte accounting.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Label id → name.
    names: Vec<String>,
    /// Name → label id (the only allocation on first sight of a label).
    ids: HashMap<String, Label>,
    events: Vec<TraceEvent>,
    /// Label id → positions in `events`, in recording order.
    index: Vec<Vec<u32>>,
    /// Label id → running sum of event values (O(1) [`Trace::sum`]).
    sums: Vec<f64>,
    /// Label id → counter value (0 unless [`Trace::add`] was called).
    counters: Vec<u64>,
    /// Label id → histogram, for labels observed via [`Trace::observe`].
    histograms: Vec<Option<Histogram>>,
    /// Node index → `[tx, rx]` bytes; `None` for a node no transfer has
    /// touched (the JSONL export lists the touched ones, zero-byte control
    /// deliveries included).
    bytes: Vec<Option<[u64; 2]>>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Interns `name`, returning its stable [`Label`]. Allocates only the
    /// first time a name is seen.
    pub fn intern(&mut self, name: &str) -> Label {
        if let Some(&label) = self.ids.get(name) {
            return label;
        }
        let label = Label(self.names.len() as u32);
        self.names.push(name.to_string());
        self.ids.insert(name.to_string(), label);
        self.index.push(Vec::new());
        self.sums.push(0.0);
        self.counters.push(0);
        self.histograms.push(None);
        label
    }

    /// The label for `name`, if any event/counter/histogram used it.
    pub fn label(&self, name: &str) -> Option<Label> {
        self.ids.get(name).copied()
    }

    /// Resolves a label back to its name.
    ///
    /// # Panics
    ///
    /// Panics if `label` did not come from this trace.
    pub fn label_name(&self, label: Label) -> &str {
        &self.names[label.index()]
    }

    /// All interned label names, in interning order.
    pub fn labels(&self) -> impl Iterator<Item = &str> {
        self.names.iter().map(String::as_str)
    }

    /// Appends a measurement point. Allocation-free for previously-seen
    /// labels (amortizing the event/index vectors).
    pub fn record(&mut self, time: SimTime, node: NodeId, label: &str, value: f64) {
        let label = self.intern(label);
        self.record_interned(time, node, label, value);
    }

    /// Appends a measurement point under an already-interned label.
    ///
    /// # Panics
    ///
    /// Panics if `label` did not come from this trace.
    pub fn record_interned(&mut self, time: SimTime, node: NodeId, label: Label, value: f64) {
        assert!(label.index() < self.names.len(), "foreign label");
        let pos = self.events.len() as u32;
        self.events.push(TraceEvent {
            time,
            node,
            label,
            value,
        });
        self.index[label.index()].push(pos);
        self.sums[label.index()] += value;
    }

    /// Adds `delta` to the typed counter `label`.
    pub fn add(&mut self, label: &str, delta: u64) {
        let label = self.intern(label);
        self.counters[label.index()] += delta;
    }

    /// Current value of counter `label` (0 if never bumped).
    pub fn counter(&self, label: &str) -> u64 {
        self.label(label).map_or(0, |l| self.counters[l.index()])
    }

    /// All non-zero counters as `(name, value)`, in interning order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.names
            .iter()
            .zip(self.counters.iter())
            .filter(|(_, &v)| v > 0)
            .map(|(n, &v)| (n.as_str(), v))
    }

    /// Adds a sample to histogram `label`, creating it with
    /// [`DEFAULT_BUCKETS`] on first use.
    pub fn observe(&mut self, label: &str, value: f64) {
        self.observe_with(label, value, &DEFAULT_BUCKETS);
    }

    /// Adds a sample to histogram `label`, creating it with the given
    /// bucket bounds on first use (later calls reuse the existing buckets).
    pub fn observe_with(&mut self, label: &str, value: f64, bounds: &[f64]) {
        let label = self.intern(label);
        self.histograms[label.index()]
            .get_or_insert_with(|| Histogram::new(bounds))
            .observe(value);
    }

    /// The histogram recorded under `label`, if any.
    pub fn histogram(&self, label: &str) -> Option<&Histogram> {
        self.label(label)
            .and_then(|l| self.histograms[l.index()].as_ref())
    }

    /// All histograms as `(name, histogram)`, in interning order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.names
            .iter()
            .zip(self.histograms.iter())
            .filter_map(|(n, h)| h.as_ref().map(|h| (n.as_str(), h)))
    }

    /// Accounts a completed transfer (called by the engine).
    pub fn count_bytes(&mut self, src: NodeId, dst: NodeId, bytes: u64) {
        self.count_tx(src, bytes);
        self.count_rx(dst, bytes);
    }

    /// Accounts transmit-only bytes: a partial flow whose receiver never
    /// took application delivery (torn by a crash).
    pub fn count_tx(&mut self, src: NodeId, bytes: u64) {
        self.node_bytes(src)[0] += bytes;
    }

    /// Accounts receive-only bytes (the surviving half of a torn flow).
    pub fn count_rx(&mut self, dst: NodeId, bytes: u64) {
        self.node_bytes(dst)[1] += bytes;
    }

    /// `node`'s `[tx, rx]` counters, marking it touched.
    fn node_bytes(&mut self, node: NodeId) -> &mut [u64; 2] {
        if self.bytes.len() <= node.index() {
            self.bytes.resize(node.index() + 1, None);
        }
        self.bytes[node.index()].get_or_insert([0, 0])
    }

    /// `node`'s `[tx, rx]` totals (zero if no transfer touched it).
    fn totals(&self, node: NodeId) -> [u64; 2] {
        self.bytes
            .get(node.index())
            .copied()
            .flatten()
            .unwrap_or([0, 0])
    }

    /// All events in recording order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events recorded by `node` with label `label` (walks only that
    /// label's index, not the whole event log).
    pub fn find(&self, node: NodeId, label: &str) -> Vec<&TraceEvent> {
        self.indexed(label).filter(|e| e.node == node).collect()
    }

    /// Events with label `label` from any node (index lookup).
    pub fn find_all(&self, label: &str) -> Vec<&TraceEvent> {
        self.indexed(label).collect()
    }

    /// First event with `label` from any node, if any (O(1)).
    pub fn first(&self, label: &str) -> Option<&TraceEvent> {
        self.label(label)
            .and_then(|l| self.index[l.index()].first())
            .map(|&i| &self.events[i as usize])
    }

    /// Last event with `label` from any node, if any (O(1)).
    pub fn last(&self, label: &str) -> Option<&TraceEvent> {
        self.label(label)
            .and_then(|l| self.index[l.index()].last())
            .map(|&i| &self.events[i as usize])
    }

    /// Number of events with `label` (O(1)).
    pub fn count(&self, label: &str) -> usize {
        self.label(label).map_or(0, |l| self.index[l.index()].len())
    }

    /// Sum of the values of all events with `label` (O(1), maintained
    /// incrementally on record).
    pub fn sum(&self, label: &str) -> f64 {
        self.label(label).map_or(0.0, |l| self.sums[l.index()])
    }

    fn indexed<'a>(&'a self, label: &str) -> impl Iterator<Item = &'a TraceEvent> + 'a {
        self.label(label)
            .map(|l| self.index[l.index()].as_slice())
            .unwrap_or(&[])
            .iter()
            .map(|&i| &self.events[i as usize])
    }

    /// Total application bytes sent by `node`.
    pub fn bytes_sent(&self, node: NodeId) -> u64 {
        self.totals(node)[0]
    }

    /// Total application bytes received by `node`.
    pub fn bytes_received(&self, node: NodeId) -> u64 {
        self.totals(node)[1]
    }

    /// Sum of bytes sent across every node.
    pub fn total_bytes_sent(&self) -> u64 {
        self.bytes.iter().flatten().map(|b| b[0]).sum()
    }

    /// Sum of bytes received across every node.
    pub fn total_bytes_received(&self) -> u64 {
        self.bytes.iter().flatten().map(|b| b[1]).sum()
    }

    /// Writes the whole trace as JSON lines: every event, then non-zero
    /// counters, histograms, and per-node byte totals. Each line carries a
    /// `"type"` discriminator (`event` / `counter` / `histogram` /
    /// `bytes`), so the document is self-contained.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_jsonl<W: Write>(&self, w: &mut W) -> io::Result<()> {
        for e in &self.events {
            writeln!(
                w,
                "{{\"type\":\"event\",\"time_us\":{},\"node\":{},\"label\":{},\"value\":{}}}",
                e.time.as_micros(),
                e.node.index(),
                json_string(self.label_name(e.label)),
                json_f64(e.value)
            )?;
        }
        for (name, value) in self.counters() {
            writeln!(
                w,
                "{{\"type\":\"counter\",\"label\":{},\"value\":{value}}}",
                json_string(name)
            )?;
        }
        for (name, h) in self.histograms() {
            let buckets: Vec<String> = h
                .buckets()
                .map(|(bound, n)| {
                    let le = if bound.is_finite() {
                        json_f64(bound)
                    } else {
                        "\"+inf\"".to_string()
                    };
                    format!("[{le},{n}]")
                })
                .collect();
            writeln!(
                w,
                "{{\"type\":\"histogram\",\"label\":{},\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[{}]}}",
                json_string(name),
                h.count(),
                json_f64(h.sum()),
                json_f64(if h.count() == 0 { 0.0 } else { h.min() }),
                json_f64(if h.count() == 0 { 0.0 } else { h.max() }),
                buckets.join(",")
            )?;
        }
        for (node, bytes) in self.bytes.iter().enumerate() {
            if let Some([tx, rx]) = bytes {
                writeln!(
                    w,
                    "{{\"type\":\"bytes\",\"node\":{node},\"tx\":{tx},\"rx\":{rx}}}"
                )?;
            }
        }
        Ok(())
    }

    /// Parses a JSONL document produced by [`Trace::write_jsonl`] back
    /// into a [`Trace`]. Blank lines are skipped; any malformed line is
    /// reported with its 1-based line number. Event/counter/histogram
    /// lines may appear in any order.
    ///
    /// # Errors
    ///
    /// [`TraceReadError::Io`] when the reader fails,
    /// [`TraceReadError::Parse`] when a line is not valid JSON or does not
    /// match the trace schema.
    pub fn read_jsonl<R: BufRead>(reader: R) -> Result<Trace, TraceReadError> {
        let mut trace = Trace::new();
        for (idx, line) in reader.lines().enumerate() {
            let line = line?;
            let text = line.trim();
            if text.is_empty() {
                continue;
            }
            trace
                .read_jsonl_line(text)
                .map_err(|reason| TraceReadError::Parse {
                    line: idx + 1,
                    reason,
                })?;
        }
        Ok(trace)
    }

    fn read_jsonl_line(&mut self, text: &str) -> Result<(), String> {
        let obj = parse_json_object(text)?;
        match str_field(&obj, "type")? {
            "event" => {
                let time = u64_field(&obj, "time_us")?;
                let node = u64_field(&obj, "node")? as usize;
                let label = str_field(&obj, "label")?.to_string();
                let value = f64_field(&obj, "value")?;
                self.record(SimTime::from_micros(time), NodeId(node), &label, value);
            }
            "counter" => {
                let label = str_field(&obj, "label")?.to_string();
                let value = u64_field(&obj, "value")?;
                self.add(&label, value);
            }
            "histogram" => {
                let label = str_field(&obj, "label")?.to_string();
                let count = u64_field(&obj, "count")?;
                let sum = f64_field(&obj, "sum")?;
                let (min, max) = if count == 0 {
                    (f64::INFINITY, f64::NEG_INFINITY)
                } else {
                    (f64_field(&obj, "min")?, f64_field(&obj, "max")?)
                };
                let buckets = match field(&obj, "buckets")? {
                    JsonValue::Array(items) => items,
                    other => return Err(format!("\"buckets\" must be an array, got {other:?}")),
                };
                let mut bounds = Vec::new();
                let mut counts = Vec::new();
                for (i, bucket) in buckets.iter().enumerate() {
                    let JsonValue::Array(pair) = bucket else {
                        return Err(format!("bucket {i} must be a [bound, count] pair"));
                    };
                    let [bound, n] = pair.as_slice() else {
                        return Err(format!("bucket {i} must be a [bound, count] pair"));
                    };
                    let last = i + 1 == buckets.len();
                    match bound {
                        JsonValue::String(s) if s == "+inf" && last => {}
                        JsonValue::Number(raw) if !last => {
                            bounds.push(parse_f64(raw)?);
                        }
                        _ => {
                            return Err(format!(
                                "bucket {i} bound must be {} (got {bound:?})",
                                if last { "\"+inf\"" } else { "a finite number" }
                            ));
                        }
                    }
                    counts.push(match n {
                        JsonValue::Number(raw) => parse_u64(raw)?,
                        other => {
                            return Err(format!("bucket {i} count must be a number, got {other:?}"))
                        }
                    });
                }
                if buckets.is_empty() {
                    return Err("histogram must have at least the +inf bucket".to_string());
                }
                if !bounds.windows(2).all(|w| w[0] < w[1]) {
                    return Err("histogram bounds must be strictly ascending".to_string());
                }
                if counts.iter().sum::<u64>() != count {
                    return Err("histogram bucket counts do not sum to \"count\"".to_string());
                }
                let id = self.intern(&label);
                self.histograms[id.index()] = Some(Histogram {
                    bounds,
                    counts,
                    count,
                    sum,
                    min,
                    max,
                });
            }
            "bytes" => {
                let node = NodeId(u64_field(&obj, "node")? as usize);
                let tx = u64_field(&obj, "tx")?;
                let rx = u64_field(&obj, "rx")?;
                // The line lists the node even at zero bytes: a transfer
                // touched it (a zero-byte control message).
                self.count_tx(node, tx);
                self.count_rx(node, rx);
            }
            other => return Err(format!("unknown line type {other:?}")),
        }
        Ok(())
    }
}

/// Formats a float for JSON (finite shortest form; non-finite values become
/// null — they should not occur in traces).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Minimal JSON string escaping (labels are plain identifiers, but stay
/// correct for arbitrary input).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Failure while reading a JSONL trace document ([`Trace::read_jsonl`]).
#[derive(Debug)]
pub enum TraceReadError {
    /// The underlying reader failed.
    Io(io::Error),
    /// A line was not valid JSON or did not match the trace schema.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
}

impl fmt::Display for TraceReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceReadError::Io(e) => write!(f, "reading trace: {e}"),
            TraceReadError::Parse { line, reason } => {
                write!(f, "line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for TraceReadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceReadError::Io(e) => Some(e),
            TraceReadError::Parse { .. } => None,
        }
    }
}

impl From<io::Error> for TraceReadError {
    fn from(e: io::Error) -> TraceReadError {
        TraceReadError::Io(e)
    }
}

/// A parsed JSON value — just the shapes the trace's own JSONL schema
/// uses. Numbers keep their literal text so integers round-trip exactly
/// (byte totals can exceed 2^53).
#[derive(Debug, Clone, PartialEq)]
enum JsonValue {
    Null,
    Number(String),
    String(String),
    Array(Vec<JsonValue>),
}

fn field<'a>(obj: &'a [(String, JsonValue)], key: &str) -> Result<&'a JsonValue, String> {
    obj.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing field {key:?}"))
}

fn str_field<'a>(obj: &'a [(String, JsonValue)], key: &str) -> Result<&'a str, String> {
    match field(obj, key)? {
        JsonValue::String(s) => Ok(s),
        other => Err(format!("field {key:?} must be a string, got {other:?}")),
    }
}

fn u64_field(obj: &[(String, JsonValue)], key: &str) -> Result<u64, String> {
    match field(obj, key)? {
        JsonValue::Number(raw) => parse_u64(raw),
        other => Err(format!("field {key:?} must be an integer, got {other:?}")),
    }
}

fn f64_field(obj: &[(String, JsonValue)], key: &str) -> Result<f64, String> {
    match field(obj, key)? {
        JsonValue::Number(raw) => parse_f64(raw),
        other => Err(format!("field {key:?} must be a number, got {other:?}")),
    }
}

fn parse_u64(raw: &str) -> Result<u64, String> {
    raw.parse()
        .map_err(|_| format!("expected an unsigned integer, got {raw:?}"))
}

fn parse_f64(raw: &str) -> Result<f64, String> {
    let v: f64 = raw
        .parse()
        .map_err(|_| format!("expected a number, got {raw:?}"))?;
    if v.is_finite() {
        Ok(v)
    } else {
        Err(format!("non-finite number {raw:?}"))
    }
}

/// Parses one line as a flat JSON object. Rejects trailing garbage.
fn parse_json_object(text: &str) -> Result<Vec<(String, JsonValue)>, String> {
    let mut p = JsonParser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let obj = p.object()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!(
            "trailing characters after object at byte {}",
            p.pos
        ));
    }
    Ok(obj)
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl JsonParser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\r' | b'\n'))
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of line".to_string())
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        let got = self.peek()?;
        if got != want {
            return Err(format!(
                "expected {:?} at byte {}, got {:?}",
                want as char, self.pos, got as char
            ));
        }
        self.pos += 1;
        Ok(())
    }

    fn object(&mut self) -> Result<Vec<(String, JsonValue)>, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(fields);
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(fields);
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, got {:?}",
                        self.pos, other as char
                    ));
                }
            }
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek()? {
            b'"' => Ok(JsonValue::String(self.string()?)),
            b'[' => {
                self.pos += 1;
                let mut items = Vec::new();
                if self.peek()? == b']' {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                loop {
                    items.push(self.value()?);
                    match self.peek()? {
                        b',' => self.pos += 1,
                        b']' => {
                            self.pos += 1;
                            return Ok(JsonValue::Array(items));
                        }
                        other => {
                            return Err(format!(
                                "expected ',' or ']' at byte {}, got {:?}",
                                self.pos, other as char
                            ));
                        }
                    }
                }
            }
            b'n' => {
                let rest = &self.bytes[self.pos..];
                if rest.starts_with(b"null") {
                    self.pos += 4;
                    Ok(JsonValue::Null)
                } else {
                    Err(format!("invalid literal at byte {}", self.pos))
                }
            }
            b'-' | b'0'..=b'9' => self.number(),
            other => Err(format!(
                "unexpected character {:?} at byte {}",
                other as char, self.pos
            )),
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
        {
            self.pos += 1;
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "invalid UTF-8 in number".to_string())?;
        // Validate now so schema code can trust the literal.
        raw.parse::<f64>()
            .map_err(|_| format!("invalid number {raw:?}"))?;
        Ok(JsonValue::Number(raw.to_string()))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err("unterminated string".to_string());
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err("unterminated escape".to_string());
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("invalid \\u escape {hex:?}"))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("invalid code point \\u{hex}"))?,
                            );
                        }
                        other => return Err(format!("unknown escape \\{}", other as char)),
                    }
                }
                _ => {
                    // Re-sync to a char boundary for multi-byte UTF-8.
                    let start = self.pos - 1;
                    let mut end = self.pos;
                    while end < self.bytes.len() && (self.bytes[end] & 0xc0) == 0x80 {
                        end += 1;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| "invalid UTF-8 in string".to_string())?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let mut trace = Trace::new();
        trace.record(SimTime::from_micros(10), NodeId(1), "a", 1.0);
        trace.record(SimTime::from_micros(20), NodeId(2), "a", 2.0);
        trace.record(SimTime::from_micros(30), NodeId(1), "b", 3.0);

        assert_eq!(trace.events().len(), 3);
        assert_eq!(trace.find(NodeId(1), "a").len(), 1);
        assert_eq!(trace.find_all("a").len(), 2);
        assert_eq!(trace.first("a").unwrap().value, 1.0);
        assert_eq!(trace.last("a").unwrap().value, 2.0);
        assert!(trace.first("missing").is_none());
        assert_eq!(trace.count("a"), 2);
        assert_eq!(trace.count("missing"), 0);
        assert_eq!(trace.sum("a"), 3.0);
        assert_eq!(trace.sum("missing"), 0.0);
    }

    #[test]
    fn interning_is_stable_and_resolvable() {
        let mut trace = Trace::new();
        let a1 = trace.intern("alpha");
        let b = trace.intern("beta");
        let a2 = trace.intern("alpha");
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
        assert_eq!(trace.label_name(a1), "alpha");
        assert_eq!(trace.label("beta"), Some(b));
        assert_eq!(trace.label("gamma"), None);
        assert_eq!(trace.labels().collect::<Vec<_>>(), vec!["alpha", "beta"]);
    }

    #[test]
    fn repeat_records_do_not_grow_label_storage() {
        // The hot path for a seen label is a map lookup on the borrowed
        // `&str` plus three Vec pushes — no new label entry (and so no new
        // `String`) may appear after the first record.
        let mut trace = Trace::new();
        trace.record(SimTime::ZERO, NodeId(0), "hot/label", 1.0);
        let label = trace.label("hot/label").unwrap();
        for i in 1..10_000u64 {
            trace.record(SimTime::from_micros(i), NodeId(0), "hot/label", 1.0);
        }
        assert_eq!(trace.labels().count(), 1);
        assert_eq!(trace.label("hot/label"), Some(label));
        assert_eq!(trace.count("hot/label"), 10_000);
        assert_eq!(trace.sum("hot/label"), 10_000.0);
    }

    #[test]
    fn indexed_queries_match_linear_scan() {
        let mut trace = Trace::new();
        for i in 0..1000u64 {
            let label = match i % 3 {
                0 => "x",
                1 => "y",
                _ => "z",
            };
            trace.record(
                SimTime::from_micros(i),
                NodeId((i % 5) as usize),
                label,
                i as f64,
            );
        }
        for label in ["x", "y", "z"] {
            let id = trace.label(label).unwrap();
            let scan: Vec<&TraceEvent> = trace.events().iter().filter(|e| e.label == id).collect();
            assert_eq!(trace.find_all(label), scan);
            assert_eq!(trace.first(label), scan.first().copied());
            assert_eq!(trace.last(label), scan.last().copied());
            assert_eq!(trace.count(label), scan.len());
            let sum: f64 = scan.iter().map(|e| e.value).sum();
            assert!((trace.sum(label) - sum).abs() < 1e-9);
            let node_scan: Vec<&TraceEvent> = scan
                .iter()
                .copied()
                .filter(|e| e.node == NodeId(2))
                .collect();
            assert_eq!(trace.find(NodeId(2), label), node_scan);
        }
    }

    #[test]
    fn byte_accounting_accumulates() {
        let mut trace = Trace::new();
        trace.count_bytes(NodeId(0), NodeId(1), 100);
        trace.count_bytes(NodeId(0), NodeId(2), 50);
        trace.count_bytes(NodeId(2), NodeId(0), 25);
        assert_eq!(trace.bytes_sent(NodeId(0)), 150);
        assert_eq!(trace.bytes_received(NodeId(1)), 100);
        assert_eq!(trace.bytes_received(NodeId(0)), 25);
        assert_eq!(trace.bytes_sent(NodeId(3)), 0);
        assert_eq!(trace.total_bytes_sent(), 175);
        assert_eq!(trace.total_bytes_received(), 175);

        trace.count_tx(NodeId(4), 10);
        trace.count_rx(NodeId(5), 7);
        assert_eq!(trace.bytes_sent(NodeId(4)), 10);
        assert_eq!(trace.bytes_received(NodeId(5)), 7);
        assert_eq!(trace.total_bytes_sent(), 185);
        assert_eq!(trace.total_bytes_received(), 182);
    }

    #[test]
    fn counters_accumulate_independently_of_events() {
        let mut trace = Trace::new();
        trace.add("hits", 1);
        trace.add("hits", 2);
        trace.record(SimTime::ZERO, NodeId(0), "hits", 99.0); // same label space
        assert_eq!(trace.counter("hits"), 3);
        assert_eq!(trace.counter("misses"), 0);
        assert_eq!(trace.count("hits"), 1); // the event, not the counter
        let all: Vec<(&str, u64)> = trace.counters().collect();
        assert_eq!(all, vec![("hits", 3)]);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::new(&[1.0, 10.0, 100.0]);
        for v in [0.5, 2.0, 3.0, 20.0, 500.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert!((h.sum() - 525.5).abs() < 1e-9);
        assert_eq!(h.min(), 0.5);
        assert_eq!(h.max(), 500.0);
        let buckets: Vec<(f64, u64)> = h.buckets().collect();
        assert_eq!(buckets[0], (1.0, 1));
        assert_eq!(buckets[1], (10.0, 2));
        assert_eq!(buckets[2], (100.0, 1));
        assert_eq!(buckets[3].1, 1);
        assert!(buckets[3].0.is_infinite());
        assert_eq!(h.quantile(0.5), 10.0);
        assert_eq!(h.quantile(1.0), 500.0); // overflow bucket → observed max
    }

    #[test]
    fn trace_histograms_via_observe() {
        let mut trace = Trace::new();
        trace.observe("verify_ms", 0.3);
        trace.observe("verify_ms", 7.0);
        let h = trace.histogram("verify_ms").unwrap();
        assert_eq!(h.count(), 2);
        assert!((h.mean() - 3.65).abs() < 1e-9);
        assert!(trace.histogram("other").is_none());
        assert_eq!(trace.histograms().count(), 1);
    }

    #[test]
    fn jsonl_export() {
        let mut trace = Trace::new();
        trace.record(SimTime::from_micros(5), NodeId(1), "up,load", 1.5);
        trace.add("ipfs/retries", 2);
        trace.observe("verify_ms", 3.0);
        trace.count_bytes(NodeId(0), NodeId(1), 42);

        let mut jsonl = Vec::new();
        trace.write_jsonl(&mut jsonl).unwrap();
        let jsonl = String::from_utf8(jsonl).unwrap();
        assert!(jsonl.contains(
            "{\"type\":\"event\",\"time_us\":5,\"node\":1,\"label\":\"up,load\",\"value\":1.5}"
        ));
        assert!(jsonl.contains("{\"type\":\"counter\",\"label\":\"ipfs/retries\",\"value\":2}"));
        assert!(jsonl.contains("\"type\":\"histogram\""));
        assert!(jsonl.contains("\"+inf\""));
        assert!(jsonl.contains("{\"type\":\"bytes\",\"node\":0,\"tx\":42,\"rx\":0}"));
        assert!(jsonl.contains("{\"type\":\"bytes\",\"node\":1,\"tx\":0,\"rx\":42}"));
    }

    #[test]
    fn jsonl_round_trips_through_read_jsonl() {
        let mut trace = Trace::new();
        trace.record(SimTime::from_micros(5), NodeId(1), "up,load", 1.5);
        trace.record(SimTime::from_micros(9), NodeId(3), "q\"uote", -0.25);
        trace.add("ipfs/retries", 2);
        trace.observe("verify_ms", 3.0);
        trace.observe("verify_ms", 700.0); // lands in the +inf bucket
        trace.count_bytes(NodeId(0), NodeId(1), 42);
        trace.count_tx(NodeId(7), u64::MAX / 3); // > 2^53: exercises exact integers

        let mut jsonl = Vec::new();
        trace.write_jsonl(&mut jsonl).unwrap();
        let back = Trace::read_jsonl(&jsonl[..]).expect("round trip");

        assert_eq!(back.events().len(), trace.events().len());
        for (a, b) in back.events().iter().zip(trace.events()) {
            assert_eq!(a.time, b.time);
            assert_eq!(a.node, b.node);
            assert_eq!(back.label_name(a.label), trace.label_name(b.label));
            assert_eq!(a.value, b.value);
        }
        assert_eq!(back.counter("ipfs/retries"), 2);
        let h = back.histogram("verify_ms").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 703.0);
        assert_eq!(h.min(), 3.0);
        assert_eq!(h.max(), 700.0);
        assert_eq!(
            h.buckets().collect::<Vec<_>>(),
            trace
                .histogram("verify_ms")
                .unwrap()
                .buckets()
                .collect::<Vec<_>>()
        );
        assert_eq!(back.bytes_sent(NodeId(0)), 42);
        assert_eq!(back.bytes_received(NodeId(1)), 42);
        assert_eq!(back.bytes_sent(NodeId(7)), u64::MAX / 3);

        // A re-export of the parsed trace is byte-identical.
        let mut again = Vec::new();
        back.write_jsonl(&mut again).unwrap();
        assert_eq!(jsonl, again);
    }

    /// Regression: a node whose only transfer was a zero-byte control
    /// message is listed with `tx` and `rx` both 0, and reading that line
    /// left the node untouched, so a re-export dropped it.
    #[test]
    fn a_zero_byte_delivery_survives_a_jsonl_round_trip() {
        let mut trace = Trace::new();
        trace.count_bytes(NodeId(0), NodeId(2), 0);
        trace.count_bytes(NodeId(3), NodeId(1), 17);
        let mut jsonl = Vec::new();
        trace.write_jsonl(&mut jsonl).unwrap();
        let back = Trace::read_jsonl(&jsonl[..]).expect("round trip");
        let mut again = Vec::new();
        back.write_jsonl(&mut again).unwrap();
        assert_eq!(String::from_utf8(again), String::from_utf8(jsonl));
    }

    #[test]
    fn read_jsonl_reports_line_numbers_on_corrupt_input() {
        let doc =
            "{\"type\":\"counter\",\"label\":\"ok\",\"value\":1}\n\n{\"type\":\"event\",oops\n";
        match Trace::read_jsonl(doc.as_bytes()) {
            Err(TraceReadError::Parse { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected parse error on line 3, got {other:?}"),
        }

        let unknown = "{\"type\":\"mystery\"}\n";
        match Trace::read_jsonl(unknown.as_bytes()) {
            Err(TraceReadError::Parse { line, reason }) => {
                assert_eq!(line, 1);
                assert!(reason.contains("mystery"), "reason: {reason}");
            }
            other => panic!("expected parse error, got {other:?}"),
        }

        let missing = "{\"type\":\"event\",\"time_us\":5}\n";
        match Trace::read_jsonl(missing.as_bytes()) {
            Err(TraceReadError::Parse { line: 1, reason }) => {
                assert!(reason.contains("node"), "reason: {reason}");
            }
            other => panic!("expected parse error, got {other:?}"),
        }

        let bad_hist = "{\"type\":\"histogram\",\"label\":\"h\",\"count\":2,\"sum\":1.0,\"min\":0.1,\"max\":0.9,\"buckets\":[[1.0,1],[\"+inf\",0]]}\n";
        match Trace::read_jsonl(bad_hist.as_bytes()) {
            Err(TraceReadError::Parse { reason, .. }) => {
                assert!(reason.contains("sum"), "reason: {reason}");
            }
            other => panic!("expected bucket-sum error, got {other:?}"),
        }
    }
}
