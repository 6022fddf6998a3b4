//! Kernels: public functions of each layer timed directly, outside any
//! task. They give a layer a number even where no workload leans on it
//! (the netsim engine is ≤ 2 % of every protocol run) and let a per-layer
//! claim be checked at the size the workloads use (d = 8 192 vs d = 32).
//! Every value is the median of repeated samples.

use std::cell::Cell;
use std::hint::black_box;
use std::io::Write as _;
use std::rc::Rc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use dfl_backend_tokio::codec;
use dfl_crypto::quantize::to_scalars;
use dfl_crypto::{pedersen::BatchEntry, Sha256, SigningKey};
use dfl_ipfs::{chunker, merge::merge_blobs, Cid, IpfsNode, IpfsWire};
use dfl_ml::{local_update, SyntheticModel};
use dfl_netsim::fair::{mbps, FlowDesc, WaterFiller};
use dfl_netsim::{Actor, Context, LinkSpec, NodeId, SimDuration, SimTime, Simulation, Trace};
use ipls::gradient::{
    build_blob, commit_blob, decode_blob, derive_key, sum_gradients, verify_blob, ProtocolCurve,
};
use ipls::Msg;

use crate::metrics::MetricSet;
use crate::stats::median;
use crate::workloads::{single_example, SGD};

/// Elements of the Fig. 1 partition (1.3 MB of fixed-point i64).
const BLOB_ELEMENTS: usize = 162_500;
/// Commitment size of `fig2_verifiable` (Fig. 3's largest partition).
const LARGE_D: usize = 8_192;
/// Commitment size of `overlay_10k`.
const SMALL_D: usize = 32;
/// Uploaders of the engine-only swarm.
const SWARM_UPLOADERS: usize = 20_000;

/// Median of the seconds `f` reports per call: samples until `budget` is
/// spent and at least `min_samples` were taken.
fn sample_with(budget: Duration, min_samples: usize, mut f: impl FnMut() -> f64) -> f64 {
    let mut samples = Vec::new();
    let started = Instant::now();
    while samples.len() < min_samples || started.elapsed() < budget {
        samples.push(f());
        if samples.len() >= 10_000 {
            break;
        }
    }
    median(&samples)
}

/// Median seconds per call of `f`.
fn sample(budget: Duration, min_samples: usize, mut f: impl FnMut()) -> f64 {
    sample_with(budget, min_samples, || {
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64()
    })
}

/// Like [`sample`] for calls too short to time singly: each sample is the
/// mean of `batch` calls.
fn sample_batched(budget: Duration, batch: usize, mut f: impl FnMut()) -> f64 {
    sample(budget, 5, || {
        for _ in 0..batch {
            f();
        }
    }) / batch as f64
}

fn seeded_values(count: usize, seed: u64) -> Vec<f32> {
    dfl_ml::Model::params(&SyntheticModel::new(count, seed))
}

/// An engine-only uploader: sends a payload per wave, the next gated on
/// the provider's zero-byte ack, so flows start and finish continuously.
struct Uploader {
    provider: NodeId,
    bytes: u64,
    waves_left: u32,
    start_delay: SimDuration,
    callbacks: Rc<Cell<u64>>,
}

impl Actor<()> for Uploader {
    fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
        ctx.set_timer(self.start_delay, 0);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, ()>, _from: NodeId, _msg: ()) {
        self.callbacks.set(self.callbacks.get() + 1);
        self.waves_left -= 1;
        if self.waves_left > 0 {
            self.bytes = 60_000 + self.bytes % 50_000;
            ctx.send(self.provider, self.bytes, ());
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, ()>, _token: u64) {
        self.callbacks.set(self.callbacks.get() + 1);
        ctx.send(self.provider, self.bytes, ());
    }
}

struct Provider {
    callbacks: Rc<Cell<u64>>,
}

impl Actor<()> for Provider {
    fn on_message(&mut self, ctx: &mut Context<'_, ()>, from: NodeId, _msg: ()) {
        self.callbacks.set(self.callbacks.get() + 1);
        ctx.send(from, 0, ());
    }
}

/// Runs the engine-only swarm once: `(host seconds, callbacks delivered)`.
fn swarm(uploaders: usize) -> (f64, u64) {
    let providers = (uploaders / 16).max(1);
    let callbacks = Rc::new(Cell::new(0));
    let mut sim: Simulation<()> = Simulation::new();
    let link = LinkSpec::symmetric_mbps(10, SimDuration::from_millis(10));
    for i in 0..uploaders {
        sim.add_node(
            Uploader {
                provider: NodeId(uploaders + i % providers),
                bytes: 100_000 + (i as u64 * 7_919) % 30_000,
                waves_left: 2,
                start_delay: SimDuration::from_millis((i % 64) as u64),
                callbacks: callbacks.clone(),
            },
            link,
        );
    }
    for _ in 0..providers {
        sim.add_node(
            Provider {
                callbacks: callbacks.clone(),
            },
            link,
        );
    }
    sim.set_time_limit(SimTime::from_micros(600_000_000));
    let t = Instant::now();
    sim.run();
    let secs = t.elapsed().as_secs_f64();
    // Every uploader fires one timer, gets two acks; every upload is one
    // provider callback: 5 per uploader, or the run did not finish.
    assert_eq!(callbacks.get(), 5 * uploaders as u64, "swarm incomplete");
    (secs, callbacks.get())
}

/// Pushes `frames` frames of `msg` through one loopback TCP connection,
/// decoded by a reader thread; returns payload MB/s.
fn loopback_mb_s(msg: &Msg, payload_bytes: usize, frames: usize) -> std::io::Result<f64> {
    let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let reader = std::thread::spawn(move || -> std::io::Result<usize> {
        let (conn, _) = listener.accept()?;
        let mut conn = std::io::BufReader::new(conn);
        let mut seen = 0;
        while codec::read_frame(&mut conn)?.is_some() {
            seen += 1;
        }
        Ok(seen)
    });
    let mut conn = std::net::TcpStream::connect(addr)?;
    let t = Instant::now();
    for _ in 0..frames {
        codec::write_frame(&mut conn, NodeId(1), msg)?;
    }
    conn.flush()?;
    drop(conn); // EOF at a frame boundary ends the reader
    let seen = reader.join().expect("loopback reader panicked")?;
    let secs = t.elapsed().as_secs_f64();
    assert_eq!(seen, frames, "loopback lost frames");
    Ok((payload_bytes * frames) as f64 / 1e6 / secs)
}

/// Times every kernel and records it. `budget` is the sampling time per
/// kernel (`--smoke` passes zero: minimum sample counts only).
///
/// # Panics
///
/// Panics when a kernel's own output is wrong (a commitment that does not
/// verify, a swarm that does not finish): a benchmark that times wrong
/// answers must not report.
pub fn run(budget: Duration, seed: u64, out: &mut MetricSet) {
    let values = seeded_values(BLOB_ELEMENTS, seed);
    let blob = build_blob(&values);
    let mb = blob.len() as f64 / 1e6;
    let blobs: Vec<Bytes> = (0..4)
        .map(|k| Bytes::from(build_blob(&seeded_values(BLOB_ELEMENTS, seed + 1 + k))))
        .collect();

    // -- ipfs: one storage node, driven through its public handle ----------
    let me = NodeId(1);
    let client = NodeId(9);
    let mut node = IpfsNode::new(me, IpfsNode::roster_for(&[me]));
    let mut k = 0;
    let put = sample_with(budget, 5, || {
        let data = blobs[k % blobs.len()].clone();
        k += 1;
        let cid = Cid::of(&data);
        let request = IpfsWire::Put {
            data,
            req_id: k as u64,
            replicate: 1,
        };
        let t = Instant::now();
        black_box(node.handle(client, request));
        let secs = t.elapsed().as_secs_f64();
        // Untimed: release the block so every put stores afresh.
        node.handle(client, IpfsWire::Unpin { cid, replicate: 1 });
        secs
    });
    out.put("ipfs.put_mb_s", mb / put);

    let cid = Cid::of(&blobs[0]);
    node.handle(
        client,
        IpfsWire::Put {
            data: blobs[0].clone(),
            req_id: 0,
            replicate: 1,
        },
    );
    let get = sample_batched(budget, 64, || {
        let replies = node.handle(client, IpfsWire::Get { cid, req_id: 1 });
        assert!(
            matches!(
                replies.first().map(|o| &o.wire),
                Some(IpfsWire::GetOk { .. })
            ),
            "local get must hit"
        );
        black_box(replies);
    });
    out.put("ipfs.get_mb_s", mb / get);

    let merge = sample(budget, 5, || {
        black_box(merge_blobs(&blobs).expect("well-formed blobs merge"));
    });
    out.put("ipfs.merge_mb_s", mb * blobs.len() as f64 / merge);

    let split = sample(budget, 5, || {
        black_box(chunker::split(&blob, chunker::DEFAULT_CHUNK_SIZE));
    });
    out.put("ipfs.chunk_split_mb_s", mb / split);

    // -- crypto --------------------------------------------------------------
    let sha = sample(budget, 5, || {
        black_box(Sha256::digest(black_box(&blob)));
    });
    out.put("crypto.sha256_mb_s", mb / sha);

    let t = Instant::now();
    let key = derive_key(LARGE_D, seed, true);
    out.put("crypto.key_setup_s_d8192", t.elapsed().as_secs_f64());

    let large: Vec<Vec<u8>> = (0..16)
        .map(|k| build_blob(&seeded_values(LARGE_D, seed + 100 + k)))
        .collect();
    let commit = sample(budget, 3, || {
        black_box(commit_blob(&key, &large[0]).expect("own blob commits"));
    });
    out.put("crypto.commit_ms_d8192", commit * 1e3);

    let commitments: Vec<_> = large
        .iter()
        .map(|b| commit_blob(&key, b).expect("own blob commits"))
        .collect();
    let verify = sample(budget, 3, || {
        assert!(verify_blob(&key, &large[0], &commitments[0]));
    });
    out.put("crypto.verify_ms_d8192", verify * 1e3);

    let scalars: Vec<_> = large
        .iter()
        .map(|b| to_scalars::<ProtocolCurve>(&decode_blob(b).expect("own blob decodes")))
        .collect();
    let entries: Vec<_> = scalars
        .iter()
        .zip(&commitments)
        .map(|(s, c)| BatchEntry::new(s, c))
        .collect();
    let batch = sample(budget, 3, || {
        assert!(key.batch_check(&entries));
    });
    out.put("crypto.batch_check_ms_n16_d8192", batch * 1e3);

    let small_key = derive_key(SMALL_D, seed, true);
    let small_blob = build_blob(&seeded_values(SMALL_D, seed));
    let small = sample_batched(budget, 16, || {
        black_box(commit_blob(&small_key, &small_blob).expect("own blob commits"));
    });
    out.put("crypto.commit_us_d32", small * 1e6);

    let signer = SigningKey::<ProtocolCurve>::derive(&seed.to_be_bytes(), 0);
    let verifier = signer.verifying_key();
    let message = b"ipls-overlay-partial: a signing context of realistic length ........";
    let sign = sample_batched(budget, 16, || {
        black_box(signer.sign(message));
    });
    out.put("crypto.schnorr_sign_us", sign * 1e6);
    let signature = signer.sign(message);
    let check = sample_batched(budget, 16, || {
        assert!(verifier.verify(message, &signature));
    });
    out.put("crypto.schnorr_verify_us", check * 1e6);

    // -- ipls: blob arithmetic and message plumbing --------------------------
    let build = sample(budget, 5, || {
        black_box(build_blob(black_box(&values)));
    });
    out.put("ipls.blob_build_mb_s", mb / build);
    let decode = sample(budget, 5, || {
        black_box(decode_blob(black_box(&blob)));
    });
    out.put("ipls.blob_decode_mb_s", mb / decode);
    let decoded: Vec<_> = blobs
        .iter()
        .map(|b| decode_blob(b).expect("own blob decodes"))
        .collect();
    let sum = sample(budget, 5, || {
        black_box(sum_gradients(&decoded).expect("sums stay in range"));
    });
    out.put("ipls.blob_sum_mb_s", mb * decoded.len() as f64 / sum);

    let big_msg = Msg::Ipfs(IpfsWire::Put {
        data: blobs[0].clone(),
        req_id: 7,
        replicate: 1,
    });
    let clone = sample_batched(budget, 1024, || {
        black_box(black_box(&big_msg).clone());
    });
    out.put("ipls.msg_clone_mb_s", mb / clone);

    let small_msg = Msg::RegisterGradient {
        trainer: 3,
        partition: 1,
        iter: 5,
        cid,
        commitment: Some([7; 33]),
        signature: Some([9; 65]),
    };
    let wire = sample_batched(budget, 4096, || {
        black_box(black_box(&small_msg).wire_bytes());
    });
    out.put("ipls.wire_bytes_ns", wire * 1e9);

    // -- netsim: the engine alone ---------------------------------------------
    let (swarm_s, swarm_callbacks) = swarm(SWARM_UPLOADERS);
    out.put("netsim.swarm_20k_s", swarm_s);
    out.put(
        "netsim.swarm_events_per_s",
        swarm_callbacks as f64 / swarm_s,
    );

    let nodes = 1_000 + 63;
    let flows: Vec<FlowDesc> = (0..1_000)
        .map(|i| FlowDesc {
            src: i,
            dst: 1_000 + i % 63,
        })
        .collect();
    let caps = vec![mbps(10); nodes];
    let mut filler = WaterFiller::new();
    let mut rates = Vec::new();
    let fill = sample(budget, 5, || {
        filler.rates_into(&flows, &caps, &caps, &mut rates);
        black_box(&rates);
    });
    out.put("netsim.waterfill_us_f1000", fill * 1e6);

    let record = sample(budget, 5, || {
        let mut trace = Trace::new();
        for i in 0..100_000u64 {
            trace.record(
                SimTime::from_micros(i),
                NodeId((i % 97) as usize),
                "round_start",
                i as f64,
            );
        }
        black_box(trace.events().len());
    });
    out.put("netsim.trace_record_ns", record / 100_000.0 * 1e9);

    // -- tokio: codec and one loopback connection -----------------------------
    let frame = codec::encode_frame(me, &big_msg);
    let encode = sample(budget, 5, || {
        black_box(codec::encode_frame(me, black_box(&big_msg)));
    });
    out.put("tokio.encode_mb_s", mb / encode);
    let decode_frame = sample(budget, 5, || {
        let decoded = codec::read_frame(&mut frame.as_slice()).expect("own frame decodes");
        assert!(decoded.is_some());
        black_box(decoded);
    });
    out.put("tokio.decode_mb_s", mb / decode_frame);

    let small_frame = codec::encode_frame(me, &small_msg);
    let encode_small = sample_batched(budget, 1024, || {
        black_box(codec::encode_frame(me, black_box(&small_msg)));
    });
    out.put("tokio.encode_small_ns", encode_small * 1e9);
    let decode_small = sample_batched(budget, 1024, || {
        black_box(codec::read_frame(&mut small_frame.as_slice()).expect("own frame decodes"));
    });
    out.put("tokio.decode_small_ns", decode_small * 1e9);

    let frames = if budget.is_zero() { 4 } else { 48 };
    let loopback = loopback_mb_s(&big_msg, blob.len(), frames).expect("loopback TCP on 127.0.0.1");
    out.put("tokio.loopback_mb_s", loopback);

    // -- mlcore ----------------------------------------------------------------
    let mut model = SyntheticModel::new(BLOB_ELEMENTS, seed);
    let dataset = single_example(0.0, 0.0);
    let update = sample(budget, 5, || {
        black_box(local_update(&mut model, &values, &dataset, &SGD, seed));
    });
    out.put("mlcore.local_update_ms", update * 1e3);
}
