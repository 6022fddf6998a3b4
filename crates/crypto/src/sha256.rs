//! SHA-256 implemented from scratch per FIPS 180-4.
//!
//! IPFS content identifiers are SHA-256 digests of block bytes, and the paper
//! (Fig. 3) benchmarks SHA-256 hashing of model parameters against Pedersen
//! commitment computation, so the hash lives in this crate next to the
//! commitments it is compared with.
//!
//! Every put and every verified fetch in the storage layer is one pass of
//! this function over a megabyte-sized blob, so the block function runs on
//! the CPU's SHA extensions where it reports them (x86-64 SHA-NI, detected
//! at run time) and on portable rounds everywhere else. The choice is not
//! configurable and not observable: both produce the same digests.
//!
//! ```
//! use dfl_crypto::sha256::Sha256;
//!
//! let digest = Sha256::digest(b"abc");
//! assert_eq!(
//!     digest[..4],
//!     [0xba, 0x78, 0x16, 0xbf],
//! );
//! ```

/// Initial hash values: the first 32 bits of the fractional parts of the
/// square roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Round constants: the first 32 bits of the fractional parts of the cube
/// roots of the first 64 primes.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Incremental SHA-256 hasher.
///
/// Feed data with [`Sha256::update`] and finish with [`Sha256::finalize`],
/// or hash in one call with [`Sha256::digest`].
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes processed so far (for the length suffix).
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Sha256 {
        Sha256 {
            state: H0,
            len: 0,
            buf: [0; 64],
            buf_len: 0,
        }
    }

    /// Convenience: hash `data` in one shot.
    pub fn digest(data: &[u8]) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, mut data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                return;
            }
            compress_blocks(&mut self.state, &self.buf);
        }
        // Whole blocks are hashed where they lie; only the tail is buffered.
        let (blocks, tail) = data.split_at(data.len() & !63);
        if !blocks.is_empty() {
            compress_blocks(&mut self.state, blocks);
        }
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Completes the hash and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        // Padding: 0x80, zeros, 8-byte big-endian bit length. `update`
        // leaves `buf_len < 64`, so the 0x80 always fits; the length needs
        // a second block when fewer than 8 bytes remain after it.
        let n = self.buf_len;
        self.buf[n] = 0x80;
        self.buf[n + 1..].fill(0);
        if n >= 56 {
            compress_blocks(&mut self.state, &self.buf);
            self.buf = [0; 64];
        }
        self.buf[56..].copy_from_slice(&self.len.wrapping_mul(8).to_be_bytes());
        compress_blocks(&mut self.state, &self.buf);

        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// Folds `blocks` — any number of whole 64-byte blocks — into `state`.
///
/// The kernel is chosen from what the CPU reports: SHA-NI where
/// `shani::compress_blocks` finds it, the portable rounds everywhere else
/// (other architectures, older x86). Both compute the same function; the
/// portable one is also the reference the unit tests hold the other to.
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    assert!(
        blocks.len().is_multiple_of(64),
        "partial block reached compress"
    );
    #[cfg(target_arch = "x86_64")]
    if shani::compress_blocks(state, blocks) {
        return;
    }
    compress_blocks_portable(state, blocks);
}

fn compress_blocks_portable(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        compress_portable(state, block);
    }
}

fn compress_portable(state: &mut [u32; 8], block: &[u8]) {
    let mut w = [0u32; 64];
    for i in 0..16 {
        w[i] = u32::from_be_bytes([
            block[i * 4],
            block[i * 4 + 1],
            block[i * 4 + 2],
            block[i * 4 + 3],
        ]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let temp1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let temp2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(temp1);
        d = c;
        c = b;
        b = a;
        a = temp1.wrapping_add(temp2);
    }

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// The SHA-NI kernel, and the only `unsafe` in the workspace's crates.
///
/// Everything unsafe here is one of two things: the call into a
/// `#[target_feature]` function, guarded by run-time detection in
/// [`compress_blocks`](shani::compress_blocks), and unaligned 16-byte
/// loads/stores, which only ever see references to exactly 16 bytes.
#[cfg(target_arch = "x86_64")]
mod shani {
    use super::K;
    use std::arch::x86_64::*;

    /// Runs the SHA-NI kernel over `blocks` if this CPU has it and says
    /// whether it did; `false` leaves `state` untouched for the portable
    /// rounds. `is_x86_feature_detected!` caches its answer in an atomic,
    /// so the check costs one load per call, nothing per block.
    pub(super) fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) -> bool {
        if !(is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1"))
        {
            return false;
        }
        // SAFETY: `kernel` is compiled for exactly the four features the
        // check above just found on the running CPU; it takes its data
        // through ordinary references and has no other requirement.
        unsafe { kernel(state, blocks) };
        true
    }

    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn kernel(state: &mut [u32; 8], blocks: &[u8]) {
        // Whole blocks only (asserted by the dispatcher); `as_chunks` would
        // leave a partial one unread, never read past it.
        let (blocks, _) = blocks.as_chunks::<64>();
        let [lo, hi] = state.as_chunks_mut::<4>().0 else {
            unreachable!("eight words are two chunks of four")
        };

        // `sha256rnds2` wants the state as (A,B,E,F) and (C,D,G,H), high
        // lane first; memory order gives (D,C,B,A) and (H,G,F,E).
        let dcba = load_words(lo);
        let hgfe = load_words(hi);
        let cdab = _mm_shuffle_epi32(dcba, 0xB1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1B);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

        // Byte swap within each 32-bit lane: the message is big-endian.
        let be32 = _mm_set_epi64x(0x0c0d0e0f_08090a0b, 0x04050607_00010203);
        let k = K.as_chunks::<4>().0;

        // Four rounds on the schedule words in `$w`, constants group `$i`.
        macro_rules! rounds {
            ($i:literal, $w:ident) => {
                let wk = _mm_add_epi32($w, load_words(&k[$i]));
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
            };
            // From group 4 on, first replace the oldest four words, `$w`,
            // with the next four: the registers rotate, nothing moves.
            ($i:literal, $w:ident <- $w1:ident, $w2:ident, $w3:ident) => {
                let t = _mm_add_epi32(_mm_sha256msg1_epu32($w, $w1), _mm_alignr_epi8($w3, $w2, 4));
                $w = _mm_sha256msg2_epu32(t, $w3);
                rounds!($i, $w);
            };
        }

        for block in blocks {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let m = block.as_chunks::<16>().0;
            let mut w0 = _mm_shuffle_epi8(load_bytes(&m[0]), be32);
            let mut w1 = _mm_shuffle_epi8(load_bytes(&m[1]), be32);
            let mut w2 = _mm_shuffle_epi8(load_bytes(&m[2]), be32);
            let mut w3 = _mm_shuffle_epi8(load_bytes(&m[3]), be32);
            // Sixteen groups spelled out. Written as a loop over
            // `w[i % 4]` this compiles to a loop: the schedule lives in a
            // stack array indexed at run time, and every group waits on a
            // store and three loads of it (≈ 930 MB/s against ≈ 1 280).
            rounds!(0, w0);
            rounds!(1, w1);
            rounds!(2, w2);
            rounds!(3, w3);
            rounds!(4, w0 <- w1, w2, w3);
            rounds!(5, w1 <- w2, w3, w0);
            rounds!(6, w2 <- w3, w0, w1);
            rounds!(7, w3 <- w0, w1, w2);
            rounds!(8, w0 <- w1, w2, w3);
            rounds!(9, w1 <- w2, w3, w0);
            rounds!(10, w2 <- w3, w0, w1);
            rounds!(11, w3 <- w0, w1, w2);
            rounds!(12, w0 <- w1, w2, w3);
            rounds!(13, w1 <- w2, w3, w0);
            rounds!(14, w2 <- w3, w0, w1);
            rounds!(15, w3 <- w0, w1, w2);
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1B);
        let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
        store(lo, _mm_blend_epi16(feba, dchg, 0xF0));
        store(hi, _mm_alignr_epi8(dchg, feba, 8));
    }

    /// Unaligned load of 16 message bytes.
    #[inline(always)]
    fn load_bytes(src: &[u8; 16]) -> __m128i {
        // SAFETY: `src` is a live reference to exactly 16 bytes and `loadu`
        // has no alignment requirement.
        unsafe { _mm_loadu_si128(src.as_ptr().cast()) }
    }

    /// Unaligned load of four state or round-constant words.
    #[inline(always)]
    fn load_words(src: &[u32; 4]) -> __m128i {
        // SAFETY: `src` is a live reference to exactly 16 bytes and `loadu`
        // has no alignment requirement.
        unsafe { _mm_loadu_si128(src.as_ptr().cast()) }
    }

    /// Unaligned store into four state words.
    #[inline(always)]
    fn store(dst: &mut [u32; 4], v: __m128i) {
        // SAFETY: `dst` is an exclusive reference to exactly 16 bytes and
        // `storeu` has no alignment requirement.
        unsafe { _mm_storeu_si128(dst.as_mut_ptr().cast(), v) }
    }
}

fn hex(digest: &[u8; 32]) -> String {
    digest.iter().map(|b| format!("{b:02x}")).collect()
}

/// Hashes `data` and returns the digest as a lowercase hex string.
pub fn digest_hex(data: &[u8]) -> String {
    hex(&Sha256::digest(data))
}

#[cfg(test)]
mod tests {
    use super::*;

    // NIST / well-known test vectors.
    #[test]
    fn empty_string() {
        assert_eq!(
            digest_hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc() {
        assert_eq!(
            digest_hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_message() {
        assert_eq!(
            digest_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            digest_hex(&data),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn exact_block_boundary() {
        // Lengths around the padding edges: 55 is the last that fits the
        // length suffix in the same block, 56..=63 need a second one.
        for n in [
            0usize, 1, 54, 55, 56, 57, 63, 64, 65, 119, 120, 127, 128, 129,
        ] {
            let data = vec![0x61u8; n];
            let one_shot = Sha256::digest(&data);
            assert_eq!(one_shot, portable_reference(&data).1, "padding at len {n}");
            // Byte-at-a-time must agree with one-shot.
            let mut h = Sha256::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), one_shot, "mismatch at len {n}");
        }
    }

    /// The tests' oracle, reached directly — no run-time switch sits in
    /// between: the portable rounds with FIPS 180-4 padding spelled out
    /// here. Returns the state after the whole blocks of `data` and the
    /// digest.
    fn portable_reference(data: &[u8]) -> ([u32; 8], [u8; 32]) {
        let (whole, tail) = data.split_at(data.len() & !63);
        let mut state = H0;
        compress_blocks_portable(&mut state, whole);
        let after_whole = state;
        let mut last = tail.to_vec();
        last.push(0x80);
        last.resize((tail.len() + 9).next_multiple_of(64) - 8, 0);
        last.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        compress_blocks_portable(&mut state, &last);
        let digest = state.map(u32::to_be_bytes).concat();
        (after_whole, digest.try_into().expect("eight words"))
    }

    /// State after the SHA-NI kernel over whole `blocks`; `None` where the
    /// CPU (or the architecture) has no such kernel.
    fn shani_state(blocks: &[u8]) -> Option<[u32; 8]> {
        #[cfg(target_arch = "x86_64")]
        {
            let mut state = H0;
            if shani::compress_blocks(&mut state, blocks) {
                return Some(state);
            }
        }
        None
    }

    #[test]
    fn kernels_agree() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        // The oracle itself, against the standard's answers.
        for (message, expect) in [
            (
                &b""[..],
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
        ] {
            assert_eq!(hex(&portable_reference(message).1), expect);
        }
        if shani_state(&[]).is_some() {
            println!("sha256: SHA-NI kernel checked against the portable rounds");
        } else {
            println!("sha256: no SHA-NI on this CPU, portable path only");
        }

        let mut rng = StdRng::seed_from_u64(16);
        let mut buf = vec![0u8; 1 << 20];
        rng.fill_bytes(&mut buf);

        // Both kernels' speed on the whole buffer, printed for CI to hold
        // against each other (in the optimised build): a dispatcher that
        // stopped reaching SHA-NI would pass every equality below.
        let mb_s = |kernel: &dyn Fn(&[u8]) -> Option<[u32; 8]>| {
            let fastest = (0..3)
                .filter_map(|_| {
                    let started = std::time::Instant::now();
                    std::hint::black_box(kernel(std::hint::black_box(&buf)))?;
                    Some(started.elapsed().as_secs_f64())
                })
                .fold(f64::INFINITY, f64::min);
            buf.len() as f64 / 1e6 / fastest
        };
        let portable = mb_s(&|blocks| {
            let mut state = H0;
            compress_blocks_portable(&mut state, blocks);
            Some(state)
        });
        // 0 MB/s where there is no such kernel.
        let shani = mb_s(&shani_state);
        println!("sha256: 1 MiB at {shani:.0} MB/s SHA-NI, {portable:.0} MB/s portable");

        // Every way `update` hands blocks to the kernel: 0–5 whole ones
        // behind 0–63 bytes already buffered (the first is then hashed from
        // the buffer, the rest where they lie, at that source offset), with
        // and without a tail left over.
        for blocks in 0..=5usize {
            for buffered in 0..64usize {
                for tail in [0usize, 17] {
                    let msg = &buf[buffered..][..buffered + blocks * 64 + tail];
                    let (state, digest) = portable_reference(msg);
                    let mut h = Sha256::new();
                    h.update(&msg[..buffered]);
                    h.update(&msg[buffered..]);
                    let at = format!("{blocks} blocks behind {buffered} bytes, tail {tail}");
                    assert_eq!(h.state, state, "hasher state, {at}");
                    assert_eq!(h.finalize(), digest, "digest, {at}");
                    if let Some(shani) = shani_state(&msg[..blocks * 64]) {
                        let mut expect = H0;
                        compress_blocks_portable(&mut expect, &msg[..blocks * 64]);
                        assert_eq!(shani, expect, "kernel state, {at}");
                    }
                }
            }
        }
        // Random lengths lean short (a random bit width first) so that the
        // unoptimised test build stays in seconds; the cap itself is included.
        let random_lens = (0..199)
            .map(|_| {
                let bits = rng.gen_range(9..18u32);
                rng.gen_range(0..1usize << bits)
            })
            .chain([200_000])
            .collect::<Vec<_>>();
        for len in (0..=300).chain(random_lens) {
            // Every source alignment the unaligned loads can meet.
            for offset in 0..16 {
                let msg = &buf[offset..offset + len];
                let (state, digest) = portable_reference(msg);
                if let Some(shani) = shani_state(&msg[..len & !63]) {
                    assert_eq!(shani, state, "kernel state, len {len} offset {offset}");
                }
                // The public hasher (whichever kernel it dispatches to),
                // fed in 1–4 pieces cut at random points.
                let mut cuts = [0, len, len, len, len];
                for cut in &mut cuts[1..rng.gen_range(1..5usize)] {
                    *cut = rng.gen_range(0..len + 1);
                }
                cuts.sort_unstable();
                let mut h = Sha256::new();
                for pair in cuts.windows(2) {
                    h.update(&msg[pair[0]..pair[1]]);
                }
                assert_eq!(h.state, state, "hasher state, len {len} offset {offset}");
                assert_eq!(
                    h.finalize(),
                    digest,
                    "digest, len {len} offset {offset} cuts {cuts:?}"
                );
            }
        }
    }

    #[test]
    fn incremental_split_points() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let expect = Sha256::digest(&data);
        for split in [0, 1, 63, 64, 65, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), expect, "split at {split}");
        }
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(Sha256::digest(b"hello"), Sha256::digest(b"hellp"));
        assert_ne!(Sha256::digest(b""), Sha256::digest(b"\x00"));
    }
}
