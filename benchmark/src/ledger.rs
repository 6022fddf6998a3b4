//! The outside-in ledger: spans recorded from the benchmark's own files,
//! around the calls into each layer. `TimedActor` wraps a `NetsimAdapter`
//! (one *callback* span per engine callback) and `Timed` wraps the core
//! inside it (one *handle* span per `ProtocolCore::handle`, parent = the
//! callback). Replay is callback − handle; engine self time is
//! `Simulation::run` − Σ callbacks. Nothing inside the program is touched.

use std::cell::RefCell;
use std::io::Write;
use std::rc::Rc;
use std::time::Instant;

use dfl_netsim::{Actor, Context, Fault, NodeId, SimTime};
use ipls::protocol::{Actions, ProtocolCore, ProtocolEvent};

/// Which repository module a core belongs to.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `ipls::Directory`.
    Directory,
    /// `ipls::protocol::IpfsCore` over `dfl_ipfs::IpfsNode`.
    Ipfs,
    /// `ipls::Aggregator`.
    Aggregator,
    /// `ipls::Trainer` (includes the `mlcore` calls it makes).
    Trainer,
}

impl Layer {
    fn span_name(self) -> &'static str {
        match self {
            Layer::Directory => "ipls.directory.handle",
            Layer::Ipfs => "ipfs.node.handle",
            Layer::Aggregator => "ipls.aggregator.handle",
            Layer::Trainer => "ipls.trainer.handle",
        }
    }
}

/// Parent index of a span that has none.
const NO_PARENT: u32 = u32::MAX;

/// One span: name, start, end, and the span that caused it.
#[derive(Copy, Clone, Debug)]
struct Span {
    /// `None` for a callback span, the layer for a handle span.
    layer: Option<Layer>,
    /// Index of the enclosing callback span, or [`NO_PARENT`].
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    spans: Vec<Span>,
    /// The callback span currently open, if any.
    open_callback: u32,
}

/// Shared span store of one traced run. Netsim is single-threaded, so the
/// store is an `Rc<RefCell<..>>`: no locking cost inside the spans.
#[derive(Clone, Debug)]
pub struct Ledger(Rc<RefCell<Inner>>);

/// Handle time and call count of one layer.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct LayerTotals {
    /// Seconds inside `handle`.
    pub handle_s: f64,
    /// `handle` calls.
    pub calls: u64,
}

/// The ledger folded into the numbers the per-layer metrics report.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LedgerSummary {
    /// The directory.
    pub directory: LayerTotals,
    /// Storage nodes.
    pub ipfs: LayerTotals,
    /// Aggregators.
    pub aggregator: LayerTotals,
    /// Trainers.
    pub trainer: LayerTotals,
    /// Engine callbacks delivered.
    pub callbacks: u64,
    /// Seconds inside callbacks (handle + action replay).
    pub callback_s: f64,
    /// Seconds of action replay: per callback, its time not spent in the
    /// `handle` spans it parents.
    pub replay_s: f64,
    /// Seconds of `handle` spans that have a parent callback. Equals
    /// [`LedgerSummary::handle_s`] unless a core ran outside a wrapped
    /// adapter — which `trace.layer_sum_share` would then show.
    pub parented_handle_s: f64,
    /// Longest single `handle` of an `ipls` core, milliseconds.
    pub handle_max_ms: f64,
}

#[cfg(test)]
impl LedgerSummary {
    /// Seconds inside `handle`, all layers.
    pub fn handle_s(&self) -> f64 {
        self.directory.handle_s
            + self.ipfs.handle_s
            + self.aggregator.handle_s
            + self.trainer.handle_s
    }
}

impl Default for Ledger {
    fn default() -> Ledger {
        Ledger::new()
    }
}

impl Ledger {
    /// An empty ledger; span times are offsets from now.
    pub fn new() -> Ledger {
        Ledger(Rc::new(RefCell::new(Inner {
            epoch: Instant::now(),
            spans: Vec::new(),
            open_callback: NO_PARENT,
        })))
    }

    fn open_callback(&self) -> u32 {
        let mut inner = self.0.borrow_mut();
        let index = inner.spans.len() as u32;
        let now = inner.epoch.elapsed().as_nanos() as u64;
        inner.spans.push(Span {
            layer: None,
            parent: NO_PARENT,
            start_ns: now,
            end_ns: now,
        });
        inner.open_callback = index;
        index
    }

    fn close_callback(&self, index: u32) {
        let mut inner = self.0.borrow_mut();
        let now = inner.epoch.elapsed().as_nanos() as u64;
        inner.spans[index as usize].end_ns = now;
        inner.open_callback = NO_PARENT;
    }

    fn now_ns(&self) -> u64 {
        self.0.borrow().epoch.elapsed().as_nanos() as u64
    }

    fn handle_span(&self, layer: Layer, start_ns: u64) {
        let mut inner = self.0.borrow_mut();
        let end_ns = inner.epoch.elapsed().as_nanos() as u64;
        let parent = inner.open_callback;
        inner.spans.push(Span {
            layer: Some(layer),
            parent,
            start_ns,
            end_ns,
        });
    }

    /// Host seconds one wrapped callback costs: a callback span around a
    /// handle span, measured on a scratch ledger. A traced run's overhead
    /// is this times its callbacks — an estimate that, unlike the
    /// difference of two runs, does not drown in machine drift.
    pub fn callback_cost_s() -> f64 {
        const PAIRS: u32 = 200_000;
        let scratch = Ledger::new();
        scratch.0.borrow_mut().spans.reserve(2 * PAIRS as usize);
        let start = Instant::now();
        for _ in 0..PAIRS {
            let callback = scratch.open_callback();
            let handle_start = scratch.now_ns();
            scratch.handle_span(Layer::Trainer, handle_start);
            scratch.close_callback(callback);
        }
        start.elapsed().as_secs_f64() / f64::from(PAIRS)
    }

    /// Number of spans recorded.
    pub fn span_count(&self) -> usize {
        self.0.borrow().spans.len()
    }

    /// Folds the spans into per-layer totals.
    pub fn summary(&self) -> LedgerSummary {
        let inner = self.0.borrow();
        let mut out = LedgerSummary::default();
        // Nanoseconds of parented handle spans per callback index.
        let mut handled = vec![0u64; inner.spans.len()];
        for span in &inner.spans {
            if span.layer.is_some() && span.parent != NO_PARENT {
                handled[span.parent as usize] += span.end_ns - span.start_ns;
            }
        }
        for (i, span) in inner.spans.iter().enumerate() {
            let ns = span.end_ns - span.start_ns;
            let secs = ns as f64 / 1e9;
            match span.layer {
                None => {
                    out.callbacks += 1;
                    out.callback_s += secs;
                    out.replay_s += ns.saturating_sub(handled[i]) as f64 / 1e9;
                    out.parented_handle_s += handled[i].min(ns) as f64 / 1e9;
                }
                Some(layer) => {
                    let totals = match layer {
                        Layer::Directory => &mut out.directory,
                        Layer::Ipfs => &mut out.ipfs,
                        Layer::Aggregator => &mut out.aggregator,
                        Layer::Trainer => &mut out.trainer,
                    };
                    totals.handle_s += secs;
                    totals.calls += 1;
                    if layer != Layer::Ipfs {
                        out.handle_max_ms = out.handle_max_ms.max(secs * 1e3);
                    }
                }
            }
        }
        out
    }

    /// Writes every span as one CSV row: `index,name,parent,start_ns,end_ns`
    /// (parent empty for callbacks).
    pub fn write_csv(&self, w: &mut impl Write) -> std::io::Result<()> {
        let inner = self.0.borrow();
        writeln!(w, "index,name,parent,start_ns,end_ns")?;
        for (i, span) in inner.spans.iter().enumerate() {
            let name = span.layer.map_or("netsim.callback", Layer::span_name);
            if span.parent == NO_PARENT {
                writeln!(w, "{i},{name},,{},{}", span.start_ns, span.end_ns)?;
            } else {
                writeln!(
                    w,
                    "{i},{name},{},{},{}",
                    span.parent, span.start_ns, span.end_ns
                )?;
            }
        }
        Ok(())
    }
}

/// A `ProtocolCore` whose every `handle` is one span.
pub struct Timed<C: ProtocolCore> {
    inner: C,
    layer: Layer,
    ledger: Ledger,
}

impl<C: ProtocolCore> Timed<C> {
    /// Wraps `inner`, booking its spans to `layer`.
    pub fn new(inner: C, layer: Layer, ledger: Ledger) -> Timed<C> {
        Timed {
            inner,
            layer,
            ledger,
        }
    }
}

impl<C: ProtocolCore> ProtocolCore for Timed<C> {
    type Msg = C::Msg;

    fn handle(&mut self, now: SimTime, event: ProtocolEvent<C::Msg>, out: &mut Actions<C::Msg>) {
        let start_ns = self.ledger.now_ns();
        self.inner.handle(now, event, out);
        self.ledger.handle_span(self.layer, start_ns);
    }
}

/// An `Actor` whose every engine callback is one span.
pub struct TimedActor<A> {
    inner: A,
    ledger: Ledger,
}

impl<A> TimedActor<A> {
    /// Wraps `inner`.
    pub fn new(inner: A, ledger: Ledger) -> TimedActor<A> {
        TimedActor { inner, ledger }
    }
}

impl<M, A: Actor<M>> Actor<M> for TimedActor<A> {
    fn on_start(&mut self, ctx: &mut Context<'_, M>) {
        let span = self.ledger.open_callback();
        self.inner.on_start(ctx);
        self.ledger.close_callback(span);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, M>, from: NodeId, msg: M) {
        let span = self.ledger.open_callback();
        self.inner.on_message(ctx, from, msg);
        self.ledger.close_callback(span);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, M>, token: u64) {
        let span = self.ledger.open_callback();
        self.inner.on_timer(ctx, token);
        self.ledger.close_callback(span);
    }

    fn on_fault(&mut self, ctx: &mut Context<'_, M>, fault: Fault) {
        let span = self.ledger.open_callback();
        self.inner.on_fault(ctx, fault);
        self.ledger.close_callback(span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_attributes_handle_to_its_callback() {
        let ledger = Ledger::new();
        let cb = ledger.open_callback();
        let start = ledger.now_ns();
        std::thread::sleep(std::time::Duration::from_millis(2));
        ledger.handle_span(Layer::Trainer, start);
        ledger.close_callback(cb);
        let s = ledger.summary();
        assert_eq!(s.callbacks, 1);
        assert_eq!(s.trainer.calls, 1);
        assert!(s.trainer.handle_s >= 0.002);
        assert!(s.callback_s >= s.handle_s());
        assert!(s.replay_s >= 0.0);
        assert!((s.parented_handle_s - s.handle_s()).abs() < 1e-12);
        // A handle outside any callback is booked to its layer but not to
        // the parented total.
        let start = ledger.now_ns();
        ledger.handle_span(Layer::Directory, start);
        let s = ledger.summary();
        assert_eq!(s.directory.calls, 1);
        assert!(s.parented_handle_s <= s.handle_s());
        assert!(s.handle_max_ms >= 2.0);
        let mut csv = Vec::new();
        ledger.write_csv(&mut csv).unwrap();
        let text = String::from_utf8(csv).unwrap();
        assert!(text.contains("0,netsim.callback,,"));
        assert!(text.contains("1,ipls.trainer.handle,0,"));
        let cost = Ledger::callback_cost_s();
        assert!(cost > 0.0 && cost < 1e-4, "a span pair costs {cost} s");
    }
}
