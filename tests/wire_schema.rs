//! The wire schema, checked variant by variant.
//!
//! `IpfsWire` and `Msg` are each declared once, in `ipfs_wire_schema!` and
//! `msg_schema!`; `wire_enum!` turns those tables into the enums, their
//! encoders/decoders and the size the simulator charges. This suite feeds
//! the *same* tables to a second macro that builds one seeded random
//! instance per row, so a variant cannot exist without being tested, and
//! checks for every variant × many seeds that the real bytes, the
//! allocation-free length and the simulated cost agree and that malformed
//! input is a clean error.
//!
//! The second half pins what must *not* depend on message sizes: trained
//! model bytes, completed rounds and every non-byte counter of the
//! canonical scenarios, captured before sizes moved from the hand-kept
//! model to the encoded length.

use bytes::Bytes;
use decentralized_fl::ipfs::wire::{WireCost, TRANSPORT_OVERHEAD_BYTES};
use decentralized_fl::ipfs::{Cid, IpfsWire};
use decentralized_fl::prelude::*;
use decentralized_fl::protocol::{Msg, TaskReport};
use dfl_bench::{fig1_config, fig2_config};

// -- seeded generator ---------------------------------------------------------

/// SplitMix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn bytes(&mut self, max_len: u64) -> Vec<u8> {
        (0..self.below(max_len + 1))
            .map(|_| self.next() as u8)
            .collect()
    }
}

/// A random value of a field type. Lengths stay small so the
/// every-strict-prefix check stays cheap; integers mix small values with
/// the extremes.
trait Sample {
    fn sample(rng: &mut Rng) -> Self;
}

impl Sample for u64 {
    fn sample(rng: &mut Rng) -> u64 {
        match rng.below(4) {
            0 => rng.below(16),
            1 => u64::MAX - rng.below(2),
            _ => rng.next(),
        }
    }
}

impl Sample for u32 {
    fn sample(rng: &mut Rng) -> u32 {
        u64::sample(rng) as u32
    }
}

impl Sample for usize {
    fn sample(rng: &mut Rng) -> usize {
        u64::sample(rng) as usize
    }
}

impl Sample for NodeId {
    fn sample(rng: &mut Rng) -> NodeId {
        NodeId(usize::sample(rng))
    }
}

impl<const N: usize> Sample for [u8; N] {
    fn sample(rng: &mut Rng) -> [u8; N] {
        std::array::from_fn(|_| rng.next() as u8)
    }
}

impl Sample for Cid {
    fn sample(rng: &mut Rng) -> Cid {
        Cid::from_bytes(Sample::sample(rng))
    }
}

/// Mostly short; one in eight is long enough (≥ 4 KiB) that a decoder
/// reading out of a shared frame slices it instead of copying it.
impl Sample for Bytes {
    fn sample(rng: &mut Rng) -> Bytes {
        if rng.below(8) == 0 {
            let len = 4096 + rng.below(64);
            return (0..len).map(|_| rng.next() as u8).collect();
        }
        Bytes::from(rng.bytes(40))
    }
}

impl Sample for String {
    fn sample(rng: &mut Rng) -> String {
        let len = rng.below(12);
        (0..len)
            .map(|_| ['a', '/', '7', 'é', '∑'][rng.below(5) as usize])
            .collect()
    }
}

impl<T: Sample> Sample for Option<T> {
    fn sample(rng: &mut Rng) -> Option<T> {
        (rng.below(2) == 1).then(|| T::sample(rng))
    }
}

impl<T: Sample> Sample for Vec<T> {
    fn sample(rng: &mut Rng) -> Vec<T> {
        (0..rng.below(4)).map(|_| T::sample(rng)).collect()
    }
}

impl<A: Sample, B: Sample, C: Sample> Sample for (A, B, C) {
    fn sample(rng: &mut Rng) -> (A, B, C) {
        (A::sample(rng), B::sample(rng), C::sample(rng))
    }
}

/// A message enum's table, as data: one `(tag, name, instance)` per row.
trait Schema: WireCost + std::fmt::Debug {
    const NAME: &'static str;
    fn rows(rng: &mut Rng) -> Vec<(u8, &'static str, Self)>;
}

/// The callback the schema tables are handed to: same grammar as
/// `wire_enum!`, but each row becomes a sampled instance.
macro_rules! sampled_rows {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $(
                $(#[$vmeta:meta])*
                $tag:literal => $variant:ident
                    $( { $( $(#[$fmeta:meta])* $field:ident : $fty:ty ),* $(,)? } )?
                    $( ( $inner:ident : $ity:ty ) )?
            ),* $(,)?
        }
    ) => {
        impl Schema for $name {
            const NAME: &'static str = stringify!($name);
            fn rows(rng: &mut Rng) -> Vec<(u8, &'static str, $name)> {
                vec![$((
                    $tag,
                    stringify!($variant),
                    $name::$variant
                        $( { $( $field: Sample::sample(rng) ),* } )?
                        $( ( <$ity as Sample>::sample(rng) ) )?,
                )),*]
            }
        }
    };
}
decentralized_fl::ipfs::ipfs_wire_schema!(sampled_rows);
decentralized_fl::protocol::msg_schema!(sampled_rows);

/// The field of `Msg::Ipfs`: any storage message.
impl Sample for IpfsWire {
    fn sample(rng: &mut Rng) -> IpfsWire {
        let mut rows = IpfsWire::rows(rng);
        let pick = rng.below(rows.len() as u64) as usize;
        rows.swap_remove(pick).2
    }
}

fn encode<M: WireCost>(m: &M) -> Vec<u8> {
    let mut out = Vec::new();
    m.encode_into(&mut out);
    out
}

const SEEDS: u64 = 64;

// -- per-variant properties ---------------------------------------------------

fn check_schema<M: Schema>() {
    let tags: Vec<(u8, &str)> = M::rows(&mut Rng(0))
        .iter()
        .map(|(tag, name, _)| (*tag, *name))
        .collect();
    for (i, (tag, name)) in tags.iter().enumerate() {
        for (other_tag, other) in &tags[..i] {
            assert_ne!(
                tag,
                other_tag,
                "{}: {name} and {other} share a tag",
                M::NAME
            );
        }
    }
    for seed in 0..SEEDS {
        for (tag, name, m) in M::rows(&mut Rng(seed)) {
            let what = format!("{}::{name} (seed {seed}): {m:?}", M::NAME);
            let bytes = encode(&m);
            assert_eq!(bytes[0], tag, "first byte is the table's tag: {what}");
            assert_eq!(bytes.len(), m.encoded_len(), "encoded_len: {what}");
            assert_eq!(
                m.wire_bytes(),
                bytes.len() as u64 + TRANSPORT_OVERHEAD_BYTES,
                "wire_bytes: {what}"
            );
            let back = M::decode(&bytes).unwrap_or_else(|e| panic!("{e}: {what}"));
            assert_eq!(encode(&back), bytes, "re-encoding differs: {what}");
            // The same decoder reading out of a shared frame (large blobs
            // sliced, not copied) yields the same value and the same errors.
            // (`frame` is the encoding plus one trailing byte.)
            let frame: Bytes = bytes.iter().copied().chain([0]).collect();
            let whole = frame.slice(..bytes.len());
            let shared = M::decode_shared(&whole).unwrap_or_else(|e| panic!("{e}: {what}"));
            assert_eq!(encode(&shared), bytes, "shared decode differs: {what}");
            for cut in 0..bytes.len() {
                let err = M::decode(&bytes[..cut]).err();
                assert!(err.is_some(), "prefix of {cut} bytes decoded: {what}");
                let shared = M::decode_shared(&frame.slice(..cut)).err();
                assert_eq!(shared, err, "prefix of {cut} bytes, shared: {what}");
            }
            let err = M::decode(&frame).err();
            assert!(err.is_some(), "trailing byte accepted: {what}");
            assert_eq!(M::decode_shared(&frame).err(), err, "shared: {what}");
        }
    }
}

#[test]
fn every_ipfs_wire_variant_obeys_the_schema_properties() {
    check_schema::<IpfsWire>();
}

#[test]
fn every_msg_variant_obeys_the_schema_properties() {
    check_schema::<Msg>();
}

#[test]
fn an_embedded_storage_message_costs_its_own_encoding_plus_the_msg_tag() {
    for seed in 0..SEEDS {
        let wire = IpfsWire::sample(&mut Rng(seed));
        let inner = encode(&wire);
        let outer = encode(&Msg::Ipfs(wire));
        assert_eq!(outer[0], 0);
        assert_eq!(outer[1..], inner[..]);
    }
}

#[test]
fn corrupted_and_random_input_is_an_error_or_a_message_never_a_panic() {
    let mut rng = Rng(0xBAD_C0DE);
    for _ in 0..4_000 {
        let garbage = rng.bytes(96);
        let _ = Msg::decode(&garbage);
        let _ = IpfsWire::decode(&garbage);
    }
    for seed in 0..SEEDS {
        for (_, _, m) in Msg::rows(&mut Rng(seed)) {
            let mut bytes = encode(&m);
            let at = rng.below(bytes.len() as u64) as usize;
            bytes[at] ^= 1 << rng.below(8);
            let _ = Msg::decode(&bytes);
        }
    }
}

#[test]
fn unknown_tags_bad_flags_and_bad_utf8_are_rejected() {
    assert!(Msg::decode(&[19]).is_err(), "unknown Msg tag");
    assert!(Msg::decode(&[0, 23]).is_err(), "unknown IpfsWire tag");
    // UpdateInfo { partition, iter, cid: Option<Cid> } with presence byte 2.
    let mut bytes = encode(&Msg::UpdateInfo {
        partition: 1,
        iter: 2,
        cid: None,
    });
    *bytes.last_mut().unwrap() = 2;
    assert!(Msg::decode(&bytes).is_err(), "presence byte 2");
    // Subscribe { topic } whose one topic byte is not UTF-8.
    let mut bytes = encode(&IpfsWire::Subscribe {
        topic: "x".to_string(),
    });
    *bytes.last_mut().unwrap() = 0xFF;
    assert!(IpfsWire::decode(&bytes).is_err(), "invalid UTF-8");
    // A count prefix far beyond the bytes that follow.
    let mut bytes = encode(&IpfsWire::Merge {
        cids: vec![],
        req_id: 0,
    });
    bytes[1..5].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(IpfsWire::decode(&bytes).is_err(), "hostile count");
}

// -- outcomes that must not depend on message sizes -----------------------------

/// FNV-1a over every trainer's final parameters, in trainer order.
fn model_hash(report: &TaskReport) -> u64 {
    let mut trainers: Vec<_> = report.final_params.keys().copied().collect();
    trainers.sort_unstable();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for t in trainers {
        for v in &report.final_params[&t] {
            for b in v.to_bits().to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

/// Everything a run reports that is not a byte count or a simulated time.
fn outcome(r: &TaskReport) -> String {
    let mut counters: Vec<_> = r.trace.counters().collect();
    counters.sort_unstable();
    format!(
        "model {:016x} rounds {} report {:?} counters {:?} events {}",
        model_hash(r),
        r.completed_rounds,
        (
            r.verification_failures,
            r.dropout_recoveries,
            r.quorum_degradations,
            r.merge_fallbacks,
            r.detections,
            r.evictions,
            r.recovered_rounds,
        ),
        counters,
        r.trace.events().len(),
    )
}

#[test]
fn scenario_outcomes_are_what_they_were_under_the_hand_kept_size_model() {
    let verifiable = TaskConfig {
        verifiable: true,
        ..fig2_config()
    };
    let runs = [
        (
            "fig1",
            dfl_bench::run_network_experiment(fig1_config(), 1_024),
        ),
        (
            "fig2",
            dfl_bench::run_network_experiment(fig2_config(), 1_024),
        ),
        (
            "fig2-verifiable",
            dfl_bench::run_network_experiment(verifiable, 1_024),
        ),
        (
            "churn",
            dfl_bench::churn_report(SimDuration::from_secs(4), SimDuration::from_secs(10), 42),
        ),
    ];
    for ((name, report), pinned) in runs.iter().zip(PINNED_OUTCOMES) {
        assert_eq!(outcome(report), pinned, "{name}");
    }
}

/// Captured at the commit before the schema, where sizes still came from
/// the hand-kept `wire_bytes()` match blocks.
const PINNED_OUTCOMES: [&str; 4] = [
    r#"model fcf70b3fcd707f85 rounds 1 report (0, 0, 0, 0, 0, 0, 0) counters [("ipfs/cache_hits", 17), ("ipfs/cache_misses", 15), ("ipfs/provider_lookups", 15)] events 88"#,
    r#"model e1478006cb71bb25 rounds 1 report (0, 0, 0, 0, 0, 0, 0) counters [("ipfs/cache_hits", 72), ("ipfs/cache_misses", 56), ("ipfs/provider_lookups", 56)] events 132"#,
    r#"model e1478006cb71bb25 rounds 1 report (0, 0, 0, 0, 0, 0, 0) counters [("blobs_verified", 68), ("ipfs/cache_hits", 79), ("ipfs/cache_misses", 53), ("ipfs/provider_lookups", 53)] events 132"#,
    r#"model d02aafacf61f1cb9 rounds 3 report (0, 0, 0, 0, 0, 0, 0) counters [("ipfs/cache_hits", 50), ("ipfs/cache_misses", 32), ("ipfs/failovers", 12), ("ipfs/fetch_failures", 4), ("ipfs/provider_lookups", 32), ("ipfs/retries", 8)] events 260"#,
];
