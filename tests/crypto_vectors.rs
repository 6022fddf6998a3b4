//! Known-answer tests for curve scalar multiplication, generated by an
//! independent plain-Python implementation of affine short-Weierstrass
//! arithmetic (see the generation script in the repository history). The
//! secp256k1 k=2 vector also matches the widely published value.
//!
//! And for SHA-256, whose kernel is picked from the CPU at run time
//! (SHA-NI or portable): the FIPS 180-4 example messages and one blob-sized
//! digest pinned from the all-portable code, so tier-1 fails if whichever
//! path this machine takes ever disagrees with the standard or with the
//! bytes every earlier CID was made of.

use decentralized_fl::crypto::bigint::U256;
use decentralized_fl::crypto::curve::{
    Affine, Curve, Jacobian, Scalar, Secp256k1, Secp256k1Base, Secp256k1Scalar, Secp256r1,
    Secp256r1Base, Secp256r1Scalar,
};
use decentralized_fl::crypto::field::{FieldParams, Fp};
use decentralized_fl::crypto::msm::{self, MsmTable};
use decentralized_fl::crypto::pedersen::{BatchEntry, CommitKey};
use decentralized_fl::crypto::quantize::{encode, positive_bound, to_scalars, Quantized};
use decentralized_fl::crypto::sha256::{digest_hex, Sha256};
use decentralized_fl::ipfs::merge::{merge_blobs, MergeError};
use decentralized_fl::ipfs::Cid;
use decentralized_fl::protocol::gradient::{
    build_blob, commit_blob, decode_blob, decode_update, derive_key, verify_blob,
};

/// (curve, k, expected x, expected y), all big-endian hex.
const VECTORS: &[(&str, &str, &str, &str)] = &[
    (
        "k1",
        "0000000000000000000000000000000000000000000000000000000000000002",
        "c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5",
        "1ae168fea63dc339a3c58419466ceaeef7f632653266d0e1236431a950cfe52a",
    ),
    (
        "k1",
        "0000000000000000000000000000000000000000000000000000000000000003",
        "f9308a019258c31049344f85f89d5229b531c845836f99b08601f113bce036f9",
        "388f7b0f632de8140fe337e62a37f3566500a99934c2231b6cb9fd7584b8e672",
    ),
    (
        "k1",
        "0000000000000000000000000000000000000000000000000000000000000007",
        "5cbdf0646e5db4eaa398f365f2ea7a0e3d419b7e0330e39ce92bddedcac4f9bc",
        "6aebca40ba255960a3178d6d861a54dba813d0b813fde7b5a5082628087264da",
    ),
    (
        "k1",
        "0000000000000000000000000000000000000000000000000000000000000014",
        "4ce119c96e2fa357200b559b2f7dd5a5f02d5290aff74b03f3e471b273211c97",
        "12ba26dcb10ec1625da61fa10a844c676162948271d96967450288ee9233dc3a",
    ),
    (
        "k1",
        "00000000000000000000000000000000000000000000000000000000000000ff",
        "1b38903a43f7f114ed4500b4eac7083fdefece1cf29c63528d563446f972c180",
        "4036edc931a60ae889353f77fd53de4a2708b26b6f5da72ad3394119daf408f9",
    ),
    (
        "k1",
        "0000000000000000000000000000000000000000000000000000000100000000",
        "100f44da696e71672791d0a09b7bde459f1215a29b3c03bfefd7835b39a48db0",
        "cdd9e13192a00b772ec8f3300c090666b7ff4a18ff5195ac0fbd5cd62bc65a09",
    ),
    (
        "k1",
        "0000000000000000000000000000000000000000000000010000000000000001",
        "583fdfd9846dd99d9b8890856a8a9e738f17f31467e99549dca81127829d122a",
        "abc6232f2ff57d819f92d2d6572a47a6b44685a3b734b37af3c7719e63c4eac4",
    ),
    (
        "k1",
        "00000000000000000000000000000000123456789abcdef0fedcba9876543210",
        "ca6de9a7b9f8cc4c81338bc641162e646b3729339509f6d2607a12005d55b7f1",
        "168d5e500a9cb39b2fc99f0e96456f7df0f89ea254091e47a7baa964c25454d0",
    ),
    (
        "k1",
        "8000000000000000000000000000000000000000000000000000000000003039",
        "cdd1c738e14ebf6ca7b7aa795f5852110cf730f6553d425bfe53f14132052f1e",
        "c6803f23a50c13736a3c2ee340813e02590d8614930fa18e6985b70994469c63",
    ),
    (
        "r1",
        "0000000000000000000000000000000000000000000000000000000000000002",
        "7cf27b188d034f7e8a52380304b51ac3c08969e277f21b35a60b48fc47669978",
        "07775510db8ed040293d9ac69f7430dbba7dade63ce982299e04b79d227873d1",
    ),
    (
        "r1",
        "0000000000000000000000000000000000000000000000000000000000000003",
        "5ecbe4d1a6330a44c8f7ef951d4bf165e6c6b721efada985fb41661bc6e7fd6c",
        "8734640c4998ff7e374b06ce1a64a2ecd82ab036384fb83d9a79b127a27d5032",
    ),
    (
        "r1",
        "0000000000000000000000000000000000000000000000000000000000000007",
        "8e533b6fa0bf7b4625bb30667c01fb607ef9f8b8a80fef5b300628703187b2a3",
        "73eb1dbde03318366d069f83a6f5900053c73633cb041b21c55e1a86c1f400b4",
    ),
    (
        "r1",
        "0000000000000000000000000000000000000000000000000000000000000014",
        "83a01a9378395bab9bcd6a0ad03cc56d56e6b19250465a94a234dc4c6b28da9a",
        "76e49b6de2f73234ae6a5eb9d612b75c9f2202bb6923f54ff8240aaa86f640b8",
    ),
    (
        "r1",
        "00000000000000000000000000000000000000000000000000000000000000ff",
        "f44b39759a2e6db723a6f90249972dfd08e95380f1fca470eacd1d03e5edf214",
        "befafccf223ca065f0a0db4eea93ff06a2116fca81f7a4a9436a8d917a02dede",
    ),
    (
        "r1",
        "0000000000000000000000000000000000000000000000000000000100000000",
        "7fe36b40af22af8921656b32262c71da1ab919365c65dfb63a5a9e22185a5943",
        "e697d45825b636249f09f40407dca6f174b3d5867b8af212d50d152c699ca101",
    ),
    (
        "r1",
        "0000000000000000000000000000000000000000000000010000000000000001",
        "300a4bbc89d6726fb257c0de95e02789e96c98fd0d35f1fa93391ce2097992af",
        "72aac7e0d09b46447f1ddb25ff1e3c6f5bb1eeada9d806a5aa54a291c08127a0",
    ),
    (
        "r1",
        "00000000000000000000000000000000123456789abcdef0fedcba9876543210",
        "cff9839cbb40ec26ed68292aca28802acebbe4aa28a244eea5c890c03965b7eb",
        "ec5dd96d4167a35cc9179091b7e49750ceb884220fdcbf4d60d6dd4637a9c547",
    ),
    (
        "r1",
        "8000000000000000000000000000000000000000000000000000000000003039",
        "37936c6a2b0125cf9dbe930274075817c7fa3cdbadecb85204292502d88d17bc",
        "16b9fd9da1b864148efae6a94264737e67d8a7f83f762ee7084f9548c0302eb4",
    ),
];

fn check<C: Curve>(k_hex: &str, x_hex: &str, y_hex: &str) {
    let k = Scalar::<C>::from_canonical(U256::from_be_hex(k_hex));
    let point = C::generator().mul(&k).to_affine();
    let expect = Affine::<C>::from_xy(
        Fp::from_canonical(U256::from_be_hex(x_hex)),
        Fp::from_canonical(U256::from_be_hex(y_hex)),
    )
    .expect("reference point is on the curve");
    assert_eq!(point, expect, "k = {k_hex} on {}", C::NAME);
}

#[test]
fn scalar_multiplication_known_answers() {
    for (curve, k, x, y) in VECTORS {
        match *curve {
            "k1" => check::<Secp256k1>(k, x, y),
            "r1" => check::<Secp256r1>(k, x, y),
            other => panic!("unknown curve {other}"),
        }
    }
}

#[test]
fn vectors_cover_both_curves_and_wide_scalars() {
    let k1 = VECTORS.iter().filter(|(c, ..)| *c == "k1").count();
    let r1 = VECTORS.iter().filter(|(c, ..)| *c == "r1").count();
    assert_eq!(k1, 9);
    assert_eq!(r1, 9);
    // At least one scalar exceeds 255 bits (exercises the full ladder).
    assert!(VECTORS.iter().any(|(_, k, ..)| !k.starts_with('0')));
}

#[test]
fn sha256_fips_180_4_known_answers() {
    let million_a = vec![b'a'; 1_000_000];
    let cases: [(&[u8], &str); 5] = [
        (
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ),
        (
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        ),
        (
            // 448 bits: the padding spills into a second block.
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
        (
            // 896 bits: one whole block hashed in place plus a buffered tail.
            b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
              ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
        ),
        (
            &million_a,
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        ),
    ];
    for (message, expect) in cases {
        assert_eq!(digest_hex(message), expect, "{} bytes", message.len());
    }
}

/// A Fig. 1-sized blob (1.3 MB, multiplicative-hash byte pattern). The digest
/// was computed at the last commit whose SHA-256 was portable code only and
/// agrees with Python's `hashlib`.
#[test]
fn sha256_blob_digest_is_pinned_and_is_the_cid() {
    let blob: Vec<u8> = (0..1_300_000u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
        .collect();
    assert_eq!(
        digest_hex(&blob),
        "ce60188c30648c3fac04d11a12516c7154d01eacc0e003bf205b68d70c0afcc2"
    );
    assert_eq!(Cid::of(&blob).as_bytes(), &Sha256::digest(&blob));
}

/// Tier-1 mirror of `sha256::tests::kernels_agree` (which `cargo test -q`
/// at the root does not run): three whole blocks and a tail, read from an
/// odd address and fed in pieces that leave the hasher's buffer part-full,
/// against `hashlib`'s digest of the same bytes. Where the CPU has SHA-NI
/// this is that kernel against an independent implementation.
#[test]
fn sha256_unaligned_three_block_message_through_splits() {
    let buf: Vec<u8> = (0..300u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
        .collect();
    let message = &buf[1..1 + 3 * 64 + 9];
    let pin = "85c08d46500c51f821aedbb5b572b74f734749d4023631770a6923dd35c008c7";
    assert_eq!(digest_hex(message), pin);
    for first in [1, 63, 64, 65, 130] {
        let mut hasher = Sha256::new();
        hasher.update(&message[..first]);
        hasher.update(&message[first..]);
        let digest: String = hasher
            .finalize()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(digest, pin, "split at {first}");
    }
}

// ---------------------------------------------------------------------------
// The blob data path: quantise, encode, merge, average
// ---------------------------------------------------------------------------
//
// Tier-1 mirrors of the differential suites in `quantize::tests`,
// `gradient::tests` and `merge::tests`, with the answers written out.

/// `Quantized::from_f64` rounds to nearest, ties away from zero, as
/// `f64::round` does; inputs are in fixed-point units (`x / SCALE`).
#[test]
fn quantisation_rounds_ties_away_from_zero() {
    const SCALE: f64 = 16_777_216.0;
    let below = |x: f64| f64::from_bits(x.to_bits() - 1);
    let above = |x: f64| f64::from_bits(x.to_bits() + 1);
    let two_52 = (1u64 << 52) as f64;
    let table: [(f64, i64); 22] = [
        (0.0, 0),
        (-0.0, 0),
        (0.5, 1),
        (-0.5, -1),
        (below(0.5), 0), // 0.49999999999999994: + 0.5 then truncate says 1
        (-below(0.5), 0),
        (above(0.5), 1),
        (1.5, 2),
        (below(1.5), 1),
        (2.5, 3),
        (-2.5, -3),
        (below(2.5), 2),
        (8_388_607.5, 8_388_608),
        (two_52 - 0.5, 1 << 52), // the last tie an f64 can hold
        (-(two_52 - 0.5), -(1 << 52)),
        (two_52 - 1.0, (1 << 52) - 1),
        (two_52 + 1.0, (1 << 52) + 1),
        ((1u64 << 62) as f64, 1 << 62), // handed to `round` from here up
        (below((1u64 << 62) as f64), (1 << 62) - 512),
        (f64::INFINITY, i64::MAX),
        (f64::NEG_INFINITY, i64::MIN),
        (f64::NAN, 0),
    ];
    for (x, expect) in table {
        let v = x / SCALE;
        assert_eq!(Quantized::from_f64(v), Quantized(expect), "x = {x:e}");
        assert_eq!((v * SCALE).round() as i64, expect, "table entry {x:e}");
    }
    assert_eq!(Quantized::from_f64(f32::MAX as f64), Quantized(i64::MAX));
    assert_eq!(Quantized::from_f64(f32::from_bits(1) as f64), Quantized(0));
}

/// A fixed parameter vector — exact fixed-point values, 250 ties, products
/// and quotients rounded in `f32` — builds the blob whose bytes were worked
/// out with exact rational arithmetic in Python; its CID pins rounding,
/// byte order and the counter in one value.
#[test]
fn built_blob_cid_is_pinned_and_decodes_to_its_values() {
    let values: Vec<f32> = (0..1000i32)
        .map(|i| match i % 4 {
            0 => (i - 500) as f32 / 64.0,
            1 => (2 * (i - 500) + 1) as f32 / 33_554_432.0,
            2 => (i - 500) as f32 * 0.001,
            _ => 1.0 / i as f32,
        })
        .collect();
    let blob = build_blob(&values);
    assert_eq!(blob.len(), 8_008);
    assert_eq!(
        digest_hex(&blob),
        "eface82f687b3a5df2cc03ffad73c4d718b0d141177bc33a01149618f8868e60"
    );
    assert_eq!(Cid::of(&blob).as_bytes(), &Sha256::digest(&blob));
    assert_eq!(blob[8_000..], (1i64 << 24).to_le_bytes());

    // Four such uploads merged at a storage node average back to the
    // values, to fixed-point precision.
    let merged = merge_blobs(&[&blob, &blob, &blob, &blob]).unwrap();
    let (averaged, count) = decode_update(&merged).unwrap();
    assert_eq!(count, 4);
    assert_eq!(averaged.len(), values.len());
    for (a, v) in averaged.iter().zip(&values) {
        assert!((a - v).abs() <= 0.5 / 16_777_216.0, "{a} vs {v}");
    }
    // Exact fixed-point values come back exactly.
    assert_eq!(averaged[0], values[0]);
    assert_eq!(decode_update(&blob).unwrap().0[4], values[4]);
}

#[test]
fn malformed_merge_requests_name_the_first_bad_blob() {
    let raw =
        |elements: &[i64]| -> Vec<u8> { elements.iter().flat_map(|e| e.to_le_bytes()).collect() };
    let good = raw(&[1, -2, 3]);
    let short = raw(&[1, -2]);
    let ragged = vec![0u8; 17];
    let mismatch = |expected, found, index| MergeError::LengthMismatch {
        expected,
        found,
        index,
    };
    let malformed = |index| MergeError::MalformedBlob { index };
    type Case<'a> = (Vec<&'a Vec<u8>>, Result<Vec<u8>, MergeError>);
    let table: Vec<Case> = vec![
        (vec![], Err(MergeError::Empty)),
        (vec![&ragged, &good], Err(malformed(0))),
        (vec![&good, &ragged], Err(malformed(1))),
        (vec![&good, &short], Err(mismatch(3, 2, 1))),
        (vec![&good, &good, &good, &short], Err(mismatch(3, 2, 3))),
        (vec![&short, &good, &good], Err(mismatch(2, 3, 1))),
        (vec![&good, &short, &ragged], Err(mismatch(3, 2, 1))),
        (vec![&good, &ragged, &short], Err(malformed(1))),
        (vec![&good, &good], Ok(raw(&[2, -4, 6]))),
    ];
    for (blobs, expect) in table {
        assert_eq!(merge_blobs(&blobs), expect, "{blobs:?}");
    }
    // A partial sum past the range does not stick: the true sum fits, so
    // it is the result, in any order.
    for order in [[0, 1, 2], [1, 2, 0], [2, 0, 1], [1, 0, 2]] {
        let terms = [raw(&[i64::MAX, i64::MIN]), raw(&[1, -1]), raw(&[-5, 5])];
        let blobs = order.map(|i| terms[i].clone());
        assert_eq!(
            merge_blobs(&blobs),
            Ok(raw(&[i64::MAX - 4, i64::MIN + 4])),
            "{order:?}"
        );
    }
    // And what no longer decodes as an update.
    let one = 1i64 << 24;
    assert!(decode_update(&raw(&[7, one])).is_some());
    for bad in [
        raw(&[one]),
        raw(&[7, 0]),
        raw(&[7, -one]),
        raw(&[7, one + 1]),
        ragged,
    ] {
        assert_eq!(decode_update(&bad), None, "{bad:?}");
    }
}

// ---------------------------------------------------------------------------
// Commitment byte pins
// ---------------------------------------------------------------------------
//
// Every 33-byte value below was computed at the commit *before* the MSM
// kernels learned to walk a scalar's centred representative (PR 17's
// parent, 01ffc0e), with the digit loops that walked all 256 bits of
// `n − |v|`. A change to how digits are extracted may not move one byte.

fn hex33(bytes: [u8; 33]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// A `d`-element upload blob (`d − 1` values and the averaging counter) of
/// mixed-sign fixed-point values whose magnitudes range over 1–40 bits,
/// from a splitmix64 stream.
fn seeded_blob(d: usize, seed: u64) -> Vec<u8> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut values: Vec<Quantized> = (0..d - 1)
        .map(|_| {
            let r = next();
            let magnitude = (r >> 24) & ((1u64 << (1 + (r & 0xFF) % 40)) - 1);
            let signed = magnitude as i64;
            Quantized(if r & 0x100 == 0 { signed } else { -signed })
        })
        .collect();
    values.push(Quantized::from_f64(1.0));
    encode(&values)
}

#[test]
fn blob_commitments_are_pinned_with_and_without_the_table() {
    let cases = [
        (
            33,
            17,
            "02dd066cf5d2a4ea25538d68afb3fe8b58f3121a647a85542e5b6c6e01a79c1d76",
        ),
        (
            1_025,
            18,
            "03d396c2585cb3111090777a84fdbe6a7cee302746b6a04014d15326f8f2ec43e8",
        ),
    ];
    for (d, seed, pin) in cases {
        let blob = seeded_blob(d, seed);
        let signs = decode_blob(&blob).unwrap();
        assert!(signs.iter().any(|q| q.0 < 0) && signs.iter().any(|q| q.0 > 0));
        for precompute in [false, true] {
            let key = derive_key(d - 1, seed, precompute);
            let commitment = commit_blob(&key, &blob).unwrap();
            assert_eq!(
                hex33(commitment.to_bytes()),
                pin,
                "d = {d}, table = {precompute}"
            );
            assert!(verify_blob(&key, &blob, &commitment));
        }
    }
}

/// The d = 1 025 key above, pinned by one SHA-256 over its generators'
/// compressed bytes, computed while key set-up still ran on one thread.
/// Both its generators and its table are priced over the split threshold,
/// so they are built on every core, and its table's 1 023-bucket passes
/// take the two-level running sum; the commitment pins above cover the
/// table.
#[test]
fn d1025_key_generators_are_pinned() {
    let key = derive_key(1_024, 18, true);
    let mut generators = Sha256::new();
    for g in key.generators() {
        generators.update(&g.to_compressed());
    }
    let hex: String = generators
        .finalize()
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect();
    assert_eq!(
        hex,
        "6d6f4f0fb8a105cf75782fd8b21023d9555b0ff605714d20221dce5d34ce843d"
    );
}

/// Tier-1 mirror of the two cheapest interleaved-wNAF cases of
/// `crates/crypto/tests/msm_equivalence.rs` (which `cargo test -q` at the
/// root does not run): the kernel against naive on the shape of a
/// child-opening check's `Σ rᵢ·Cᵢ`, and a d = 33 table's walk against the
/// bucket pass over the same bases.
#[test]
fn interleaved_wnaf_matches_naive_and_the_bucket_pass() {
    let key = derive_key(32, 17, true);
    let wide = derive_key(599, 17, true);
    assert_eq!(key.generators(), &wide.generators()[..33]);

    // 8 points × 128-bit coefficients: `msm::eval` walks below 32.
    let points = &key.generators()[..8];
    let coefficients: Vec<Scalar<Secp256k1>> = (1..=8u128)
        .map(|i| Scalar::<Secp256k1>::from_canonical(U256::from_u128(i.wrapping_mul(!0 / 11))))
        .collect();
    assert!(coefficients
        .iter()
        .all(|r| r.to_canonical().bit_len() > 120));
    assert_eq!(
        hex33(msm::eval(points, &coefficients).to_affine().to_compressed()),
        hex33(
            msm::naive(points, &coefficients)
                .to_affine()
                .to_compressed()
        )
    );

    // The 33-generator table keeps 8 odd multiples a base beside its shifts
    // and walks them on a gradient blob; the 600-generator one keeps none,
    // so its commitment to the same blob is the bucket pass.
    let table_bytes = |n: usize, odd: usize| {
        let shifts = 256usize.div_ceil(MsmTable::<Secp256k1>::suggested_window(n));
        n * (shifts + odd) * std::mem::size_of::<Affine<Secp256k1>>()
    };
    assert_eq!(key.table_memory_bytes(), table_bytes(33, 8));
    assert_eq!(wide.table_memory_bytes(), table_bytes(600, 0));
    let blob = seeded_blob(33, 17);
    assert_eq!(
        hex33(commit_blob(&key, &blob).unwrap().to_bytes()),
        hex33(commit_blob(&wide, &blob).unwrap().to_bytes())
    );
}

/// Tier-1 mirror of dfl-crypto's range-split tests (`msm::tests`, which
/// `cargo test -q` at the root does not run): on a d = 8 193 key, a
/// commitment to a gradient blob's ≤ 40-bit openings and one to ≈ 170-bit
/// RLC sums are table passes large enough to split their buckets across
/// every core. Their bytes must be those of an oracle that runs no bucket
/// pass at all: untabled MSMs over chunks of at most 31 generators, each of
/// which takes the interleaved walk, summed.
#[test]
fn d8193_commitments_split_across_cores_equal_an_unsplit_bucket_pass() {
    let key = derive_key(8_192, 26, true);
    let points = key.generators();
    let blob = seeded_blob(8_193, 26);
    let openings = to_scalars::<Secp256k1>(&decode_blob(&blob).unwrap());
    let r = Scalar::<Secp256k1>::from_canonical(U256::from_u128(!0 / 3));
    let sums: Vec<_> = openings.iter().map(|v| *v * r).collect();
    let longest = |scalars: &[Scalar<Secp256k1>]| {
        let centred = |s: &Scalar<Secp256k1>| {
            s.to_canonical()
                .bit_len()
                .min((-*s).to_canonical().bit_len())
        };
        scalars.iter().map(centred).max().unwrap_or(0)
    };
    assert_eq!((longest(&openings), longest(&sums)), (40, 167));
    for scalars in [&openings, &sums] {
        let walked = Jacobian::sum(
            points
                .chunks(31)
                .zip(scalars.chunks(31))
                .map(|(points, scalars)| msm::eval(points, scalars)),
        );
        assert_eq!(
            hex33(key.commit(scalars).to_bytes()),
            hex33(walked.to_affine().to_compressed())
        );
    }
    assert_eq!(
        hex33(commit_blob(&key, &blob).unwrap().to_bytes()),
        hex33(key.commit(&openings).to_bytes())
    );
}

/// An overlay node's child check: 8 openings of d = 33 on a key with its
/// table (each commit walks, the RLC's ≈ 170-bit sum takes the bucket pass,
/// the bisection's halves recommit). Every commitment, and the culprit set
/// of an honest round and of one whose child 5 sent a doctored opening,
/// must be what `msm::naive` recommits give.
#[test]
fn d33_child_check_commits_and_culprits_equal_naive_recommits() {
    let key = derive_key(32, 33, true);
    let mut openings: Vec<Vec<Scalar<Secp256k1>>> = (0..8)
        .map(|child| to_scalars::<Secp256k1>(&decode_blob(&seeded_blob(33, 330 + child)).unwrap()))
        .collect();
    let naive = |values: &[Scalar<Secp256k1>]| msm::naive(key.generators(), values);
    let commitments: Vec<_> = openings.iter().map(|v| key.commit(v)).collect();
    for (values, commitment) in openings.iter().zip(&commitments) {
        assert_eq!(commitment.point(), naive(values));
    }
    for doctored in [None, Some(5)] {
        if let Some(child) = doctored {
            openings[child][7] += Scalar::<Secp256k1>::ONE;
        }
        let recommits: Vec<usize> = (0..8)
            .filter(|&i| naive(&openings[i]) != commitments[i].point())
            .collect();
        assert_eq!(recommits, Vec::from_iter(doctored));
        let entries: Vec<_> = openings
            .iter()
            .zip(&commitments)
            .map(|(values, commitment)| BatchEntry::new(values, commitment))
            .collect();
        assert_eq!(key.batch_culprits(&entries), recommits);
    }
}

/// Tier-1 mirror of the cheapest cases of
/// `crates/crypto/tests/msm_equivalence.rs`'s integer suite: at d = 1 (one
/// window walk) and d = 33 (the overlay's table, which walks short
/// openings), on both curves, with and without a table, integer vectors
/// at every digit edge — zero, ±1, either side of one and two 12-bit
/// windows, `±2³⁶`, both ends of `i64`, all negative, all zero — commit
/// to what their embeddings commit to through the `Scalar` path and
/// `commit_naive`, and verify; a vector longer than the key verifies
/// against nothing.
fn check_integer_openings<C: Curve>(width: usize) {
    let edges = [
        0,
        1,
        -1,
        (1 << 12) - 1,
        -((1 << 12) - 1),
        1 << 12,
        -(1 << 12),
        (1 << 24) - 1,
        -((1 << 24) - 1),
        1 << 24,
        -(1 << 24),
        1 << 36,
        -(1 << 36),
        i64::MAX,
        i64::MIN,
    ];
    let edge = |i: usize| edges[i % edges.len()];
    let negative = |v: i64| if v > 0 { -v } else { v.min(-1) };
    let mut key = CommitKey::<C>::setup(width, b"integer-openings");
    let plain = key.clone();
    key.precompute();
    for values in [
        (0..width).map(|i| Quantized(edge(i))).collect::<Vec<_>>(),
        (0..width).map(|i| Quantized(negative(edge(i)))).collect(),
        vec![Quantized(0); width],
    ] {
        let scalars = to_scalars::<C>(&values);
        let expect = plain.commit_naive(&scalars);
        assert_eq!(plain.commit(&scalars), expect, "{} d = {width}", C::NAME);
        for key in [&plain, &key] {
            assert_eq!(
                hex33(key.commit(&values).to_bytes()),
                hex33(expect.to_bytes())
            );
            assert!(key.verify(&values, &expect));
        }
    }
    let overlong = vec![Quantized(-1); width + 1];
    for key in [&plain, &key] {
        assert!(!key.verify(&overlong, &key.commit(&overlong[..width])));
    }
}

#[test]
fn integer_openings_commit_as_their_embeddings_on_both_curves() {
    for width in [1, 33] {
        check_integer_openings::<Secp256k1>(width);
        check_integer_openings::<Secp256r1>(width);
    }
}

/// The scalars where the centred representative changes shape: zero, ±1,
/// both ends of the `i64` fixed-point range, the last "positive" scalar
/// `(n − 1)/2`, the first "negative" one, and `n − 1 ≡ −1`.
fn boundary_scalars<C: Curve>() -> Vec<Scalar<C>> {
    let half = positive_bound::<C>();
    vec![
        Scalar::<C>::ZERO,
        Scalar::<C>::ONE,
        -Scalar::<C>::ONE,
        Scalar::<C>::from_i64(i64::MAX),
        Scalar::<C>::from_i64(i64::MIN),
        Scalar::<C>::from_canonical(half),
        Scalar::<C>::from_canonical(half.wrapping_add(&U256::ONE)),
        Scalar::<C>::ZERO - Scalar::<C>::ONE,
    ]
}

/// Commits to the boundary scalars cycled out to `len` elements, through
/// `msm::eval` without a table (wNAF below 32 terms, batch-affine
/// Pippenger from 32), with one, and through `msm::naive`; all three must
/// give `pin`.
fn check_boundary_pin<C: Curve>(len: usize, pin: &str) {
    let values: Vec<Scalar<C>> = boundary_scalars::<C>()
        .into_iter()
        .cycle()
        .take(len)
        .collect();
    let mut key = CommitKey::<C>::setup(len, b"boundary-pins");
    assert_eq!(
        hex33(key.commit(&values).to_bytes()),
        pin,
        "{} len {len}",
        C::NAME
    );
    key.precompute();
    assert_eq!(
        hex33(key.commit(&values).to_bytes()),
        pin,
        "{} len {len} table",
        C::NAME
    );
    assert_eq!(
        hex33(key.commit_naive(&values).to_bytes()),
        pin,
        "{} len {len} naive",
        C::NAME
    );
}

#[test]
fn boundary_scalar_commitments_are_pinned_on_both_curves() {
    check_boundary_pin::<Secp256k1>(
        8,
        "02108070f1388d1dd727118f0b92537c0bc8089dc16198e16ee1c21f0ba83b2878",
    );
    check_boundary_pin::<Secp256k1>(
        40,
        "02087da7f3f6a9decac5f101aa02e4dfb40b3a7f0903bc212dd8799f0b94682efc",
    );
    check_boundary_pin::<Secp256r1>(
        8,
        "0324189e44080bf558a51368d47146697b335f01309087745573f6bf9a3f4abe66",
    );
    check_boundary_pin::<Secp256r1>(
        40,
        "028f855d5fd9bbc3bca3a1bfa74555895722ec03aa5a942bb28f02ccdf05bb1a15",
    );
}

// ---------------------------------------------------------------------------
// Field kernels against schoolbook arithmetic
// ---------------------------------------------------------------------------

/// `(a · b) mod p` the slow way: the 512-bit product, reduced one bit at a
/// time (the remainder stays below `p`, so twice it plus a bit is below
/// `2p` and one subtraction restores it).
fn schoolbook_mul(a: &U256, b: &U256, p: &U256) -> U256 {
    let mut r = U256::ZERO;
    for limb in a.widening_mul(b).limbs().iter().rev() {
        for bit in (0..64).rev() {
            let (doubled, carry) = r.adc(&r);
            let next = doubled.wrapping_add(&U256::from_u64((limb >> bit) & 1));
            r = if carry || next.const_cmp(p) >= 0 {
                next.wrapping_sub(p)
            } else {
                next
            };
        }
    }
    r
}

/// Products, squares, the canonical round trip and inverses of the values
/// that stress a reduction's carries — 0, 1, `c = 2²⁵⁶ − p`, `p − 2`,
/// `p − 1` (so `(p − 1)²`), inputs at and above `p`, all-ones high limbs,
/// `2²⁵⁶ − 1` — against [`schoolbook_mul`].
fn field_matches_schoolbook<P: FieldParams>() {
    let p = P::MODULUS;
    let c = U256::ZERO.wrapping_sub(&p);
    let integers = [
        U256::ZERO,
        U256::ONE,
        c,
        p.wrapping_sub(&U256::from_u64(2)),
        p.wrapping_sub(&U256::ONE),
        p,
        p.wrapping_add(&U256::ONE),
        U256::MAX,
        U256::from_limbs([0, u64::MAX, u64::MAX, u64::MAX]),
        U256::from_limbs([0x0123_4567_89AB_CDEF, 0, u64::MAX, u64::MAX >> 1]),
    ];
    for v in &integers {
        let x = Fp::<P>::from_canonical(*v);
        let k = x.to_canonical();
        let reduced = if v.const_cmp(&p) >= 0 {
            v.wrapping_sub(&p)
        } else {
            *v
        };
        assert_eq!(k, reduced, "{} canonical {v}", P::NAME);
        assert_eq!(
            x.square().to_canonical(),
            schoolbook_mul(&k, &k, &p),
            "{} square {v}",
            P::NAME
        );
        match x.invert() {
            None => assert!(k.is_zero()),
            Some(inv) => assert_eq!(schoolbook_mul(&inv.to_canonical(), &k, &p), U256::ONE),
        }
        for w in &integers {
            let y = Fp::<P>::from_canonical(*w);
            assert_eq!(
                (x * y).to_canonical(),
                schoolbook_mul(&k, &y.to_canonical(), &p),
                "{} mul {v} {w}",
                P::NAME
            );
        }
    }
}

/// Tier-1 mirror of dfl-crypto's differential suite (`field::tests`, which
/// `cargo test -q` at the root does not run): the folding field and the
/// three Montgomery ones, and which is which.
#[test]
fn field_kernels_match_schoolbook_arithmetic_in_all_four_fields() {
    assert_eq!(Secp256k1Base::FOLD, Some((1 << 32) + 977));
    assert_eq!(Secp256k1Scalar::FOLD, None);
    assert_eq!(Secp256r1Base::FOLD, None);
    assert_eq!(Secp256r1Scalar::FOLD, None);
    field_matches_schoolbook::<Secp256k1Base>();
    field_matches_schoolbook::<Secp256k1Scalar>();
    field_matches_schoolbook::<Secp256r1Base>();
    field_matches_schoolbook::<Secp256r1Scalar>();
}
