//! Memory per simulated trainer: a verifiable b = 8 overlay round of
//! 2 000 trainers must peak within twice what each trainer, its partial
//! and its share of the trace have to hold.
//!
//! The overlay is where the simulator scales to 10⁵–10⁶ peers, so the
//! bytes a peer costs decide how many peers a run can honestly claim.
//! Every trainer's share of the heap — its core, its model vectors, the
//! engine's per-node tables, its trace events — is booked here; a buffer
//! that each node keeps but nothing reads, or a table sized by its
//! history instead of by what is pending, shows as bytes a trainer.
//!
//! `support`'s counting global allocator books every live byte, and the
//! test prints what the peak was made of. It counts the whole process, so
//! this binary holds one test.

mod support;

use std::mem::size_of;

use decentralized_fl::ml::SyntheticModel;
use decentralized_fl::netsim::TraceEvent;
use decentralized_fl::protocol::{Msg, Trainer};
use dfl_bench::{overlay_config, overlay_param_count, run_network_experiment};

use support::MIB;

/// Trainers in the round.
const TRAINERS: usize = 2_000;

/// What the round's trainers must hold at its worst instant, in bytes,
/// given how many trace events it recorded. Each trainer holds:
///
/// * itself: its core (`Trainer`, boxed by the deployment) and three
///   model-sized `f32` vectors — its global model (the initial parameters
///   or its `ParamSink` entry), the model's own copy and the update it
///   trains;
/// * its partial: every trainer sends one a round, which lives in the
///   engine as a message in flight or at its parent as a buffered child:
///   a `Msg` and its blob, 8 bytes a value and the count;
/// * its trace events, one `TraceEvent` each.
///
/// The bound is twice this. Every table that holds these — the
/// deployment, the engine's actors, flow table, event heap and per-node
/// vectors, the trace's log — grows by doubling and so holds up to as much
/// again. The engine's per-node state (link, flags, endpoint sets, the
/// actor's box) and the directory's and aggregator's entries for each
/// trainer come on top; each is smaller than a partial.
fn holds(events: usize) -> usize {
    let params = overlay_param_count();
    let trainer = size_of::<Trainer<SyntheticModel>>() + 3 * 4 * params;
    let partial = size_of::<Msg>() + 8 * (params + 1);
    TRAINERS * (trainer + partial) + events * size_of::<TraceEvent>()
}

#[test]
fn the_live_heap_peak_per_trainer_stays_within_its_bound() {
    let cfg = overlay_config(TRAINERS);
    let before = support::start();
    let report = run_network_experiment(cfg.clone(), overlay_param_count());
    let peak = support::peak_since(before);
    assert!(report.succeeded(&cfg), "the overlay round completes");

    let events = report.trace.events().len();
    let holds = holds(events);
    let bound = 2 * holds;
    println!(
        "live-heap peak {:.2} MiB = {} B a trainer; the trainers hold {} B \
         each ({events} trace events); bound 2 × that = {} B a trainer",
        peak as f64 / MIB,
        peak / TRAINERS,
        holds / TRAINERS,
        bound / TRAINERS,
    );
    support::print_peak(before);
    assert!(
        peak <= bound,
        "live-heap peak {} B a trainer exceeds twice the {} B each holds",
        peak / TRAINERS,
        holds / TRAINERS,
    );
}
