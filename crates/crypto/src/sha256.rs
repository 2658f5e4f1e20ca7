//! A from-scratch implementation of the SHA-256 cryptographic hash function
//! (FIPS 180-4).
//!
//! The paper's prototype signs every exported tuple with RSA over a message
//! digest; this module provides that digest.  The implementation favours
//! clarity over raw throughput but is still fast enough to hash the full
//! tuple traffic of the largest evaluation topologies in well under a second.

/// Size of a SHA-256 digest in bytes.
pub(crate) const DIGEST_LEN: usize = 32;

/// Size of a SHA-256 input block in bytes.
pub(crate) const BLOCK_LEN: usize = 64;

/// A SHA-256 digest.
pub(crate) type Digest = [u8; DIGEST_LEN];

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

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// ```
/// use pasn_crypto::sha256::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// assert_eq!(h.finalize(), pasn_crypto::sha256::sha256(b"hello world"));
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Total number of message bytes absorbed so far.
    len: u64,
    buf: [u8; BLOCK_LEN],
    buf_len: usize,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a hasher in the initial state.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            len: 0,
            buf: [0u8; BLOCK_LEN],
            buf_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut input = data;
        if self.buf_len > 0 {
            let take = (BLOCK_LEN - self.buf_len).min(input.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&input[..take]);
            self.buf_len += take;
            input = &input[take..];
            if self.buf_len == BLOCK_LEN {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }
        while input.len() >= BLOCK_LEN {
            let mut block = [0u8; BLOCK_LEN];
            block.copy_from_slice(&input[..BLOCK_LEN]);
            self.compress(&block);
            input = &input[BLOCK_LEN..];
        }
        if !input.is_empty() {
            self.buf[..input.len()].copy_from_slice(input);
            self.buf_len = input.len();
        }
    }

    /// Finishes the hash and returns the 32-byte digest.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.len.wrapping_mul(8);
        // Padding, written in place: 0x80, zeros up to 56 mod 64, then the
        // 8-byte big-endian bit length.  A buffer holding more than 55 bytes
        // leaves no room for the length, which then fills a block of its own.
        let used = self.buf_len;
        self.buf[used] = 0x80;
        self.buf[used + 1..].fill(0);
        if used >= BLOCK_LEN - 8 {
            let block = self.buf;
            self.compress(&block);
            self.buf = [0u8; BLOCK_LEN];
        }
        self.buf[BLOCK_LEN - 8..].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buf;
        self.compress(&block);

        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    fn compress(&mut self, block: &[u8; BLOCK_LEN]) {
        compress_block(&mut self.state, block);
    }
}

/// Compresses one 64-byte block into `state`, dispatching to the hardware
/// kernel when the CPU has the SHA extensions and to the scalar reference
/// rounds otherwise.
#[allow(unsafe_code)]
fn compress_block(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    #[cfg(target_arch = "x86_64")]
    if x86::available() {
        // SAFETY: gated on the one-time CPUID probe in `x86::available`.
        unsafe { x86::compress(state, block) };
        return;
    }
    compress_scalar(state, block);
}

/// The scalar FIPS 180-4 compression rounds — the portable reference every
/// other backend must match bit for bit.
fn compress_scalar(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
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
        let ch = (e & f) ^ ((!e) & g);
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

/// SHA-256 compression via the x86 SHA New Instructions.
///
/// `sha256rnds2` retires four compression rounds per instruction and
/// `sha256msg1`/`sha256msg2` fuse the message schedule, finishing a 64-byte
/// block roughly an order of magnitude faster than the scalar rounds — the
/// difference between per-frame HMAC authentication being visible in
/// fixpoint wall time and disappearing into it.  Selected once per process
/// by CPUID probe; every other target falls back to [`compress_scalar`],
/// and `hardware_compress_matches_scalar_rounds` pins the two backends to
/// each other on hosts that have the extension.
///
/// This module is the crate's single `unsafe` exception (see `lib.rs`):
/// `core::arch` intrinsics cannot be called from safe code, and the calls
/// are guarded by the runtime feature probe.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86 {
    use super::{BLOCK_LEN, K};
    use core::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
        _mm_shuffle_epi8, _mm_storeu_si128,
    };
    use std::sync::OnceLock;

    /// One-time CPUID probe for the SHA extension plus the SSSE3/SSE4.1
    /// shuffles the kernel leans on.
    pub(crate) fn available() -> bool {
        static AVAILABLE: OnceLock<bool> = OnceLock::new();
        *AVAILABLE.get_or_init(|| {
            is_x86_feature_detected!("sha")
                && is_x86_feature_detected!("ssse3")
                && is_x86_feature_detected!("sse4.1")
        })
    }

    /// Compresses one block with the SHA instruction set.
    ///
    /// # Safety
    ///
    /// The caller must have confirmed [`available`] returns `true`: the
    /// function unconditionally executes `sha`/`ssse3`/`sse4.1`
    /// instructions.
    #[target_feature(enable = "sha", enable = "ssse3", enable = "sse4.1")]
    pub(crate) unsafe fn compress(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
        // Lane shuffle turning each 16-byte load of big-endian message
        // words into little-endian lanes.
        let mask = _mm_set_epi64x(0x0c0d0e0f_08090a0bu64 as i64, 0x04050607_00010203u64 as i64);

        // Repack [a,b,c,d] / [e,f,g,h] into the ABEF / CDGH lane order
        // `sha256rnds2` works on.
        let abcd = _mm_loadu_si128(state.as_ptr().cast());
        let efgh = _mm_loadu_si128(state.as_ptr().add(4).cast());
        let cdab = _mm_shuffle_epi32::<0xB1>(abcd);
        let hgfe = _mm_shuffle_epi32::<0x1B>(efgh);
        let mut abef = _mm_alignr_epi8::<8>(cdab, hgfe);
        let mut cdgh = _mm_blend_epi16::<0xF0>(hgfe, cdab);
        let abef_save = abef;
        let cdgh_save = cdgh;

        // m[i % 4] holds the schedule vector w[4i..4i+4] for the group
        // currently `i` groups ahead; each slot is rewritten in place with
        // the vector four groups later.
        let mut m = [
            _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().cast()), mask),
            _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().add(16).cast()), mask),
            _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().add(32).cast()), mask),
            _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().add(48).cast()), mask),
        ];

        for i in 0..16 {
            // Four rounds: lanes 0..1 of w+k feed the first `rnds2`, lanes
            // 2..3 the second.
            let wk = _mm_add_epi32(m[i % 4], _mm_loadu_si128(K.as_ptr().add(4 * i).cast()));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0E>(wk));
            if i < 12 {
                // w[4(i+4)..4(i+4)+4] from the previous four vectors.
                let t1 = _mm_sha256msg1_epu32(m[i % 4], m[(i + 1) % 4]);
                let t2 = _mm_add_epi32(t1, _mm_alignr_epi8::<4>(m[(i + 3) % 4], m[(i + 2) % 4]));
                m[i % 4] = _mm_sha256msg2_epu32(t2, m[(i + 3) % 4]);
            }
        }

        abef = _mm_add_epi32(abef, abef_save);
        cdgh = _mm_add_epi32(cdgh, cdgh_save);

        // Undo the ABEF / CDGH repacking.
        let feba = _mm_shuffle_epi32::<0x1B>(abef);
        let dchg = _mm_shuffle_epi32::<0xB1>(cdgh);
        let dcba = _mm_blend_epi16::<0xF0>(feba, dchg);
        let hgfe = _mm_alignr_epi8::<8>(dchg, feba);
        _mm_storeu_si128(state.as_mut_ptr().cast::<__m128i>(), dcba);
        _mm_storeu_si128(state.as_mut_ptr().add(4).cast::<__m128i>(), hgfe);
    }
}

/// Convenience one-shot hash.
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Renders a digest (or any byte slice) as lowercase hex, used in debugging
/// output and in the provenance examples.
pub fn to_hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &Digest) -> String {
        to_hex(d)
    }

    #[test]
    fn empty_string_vector() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc_vector() {
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_vector() {
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn long_repeated_vector() {
        // One million 'a' characters (FIPS test vector).
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        for split in [0usize, 1, 63, 64, 65, 127, 5000, 9999, 10_000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "split at {split}");
        }
    }

    #[test]
    fn exact_block_boundaries() {
        for len in [55usize, 56, 57, 63, 64, 65, 119, 120, 127, 128] {
            let data = vec![0xabu8; len];
            let mut h = Sha256::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), sha256(&data), "len {len}");
        }
    }

    /// FIPS 180-4 by the letter: the padded message built as bytes and fed
    /// block by block through the scalar reference rounds.
    fn reference_digest(message: &[u8]) -> Digest {
        let mut padded = message.to_vec();
        padded.push(0x80);
        while padded.len() % BLOCK_LEN != BLOCK_LEN - 8 {
            padded.push(0);
        }
        padded.extend_from_slice(&(message.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        for block in padded.chunks_exact(BLOCK_LEN) {
            compress_scalar(&mut state, block.try_into().expect("one block"));
        }
        let mut out = [0u8; DIGEST_LEN];
        for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    proptest::proptest! {
        /// The padding written in one step matches the byte-by-byte
        /// definition at every message length up to three blocks — across
        /// the 55 / 56 / 64-byte boundaries where the length spills into a
        /// block of its own — one-shot and fed in two parts.
        #[test]
        fn padding_matches_the_reference_at_every_length(
            seed in proptest::prelude::any::<u64>(),
        ) {
            let mut x = seed;
            let bytes: Vec<u8> = (0..192)
                .map(|_| {
                    x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    (x >> 56) as u8
                })
                .collect();
            for len in 0..=192 {
                let message = &bytes[..len];
                let want = reference_digest(message);
                proptest::prop_assert_eq!(sha256(message), want, "len {}", len);
                let mut parts = Sha256::new();
                parts.update(&message[..len / 3]);
                parts.update(&message[len / 3..]);
                proptest::prop_assert_eq!(parts.finalize(), want, "len {} in parts", len);
            }
        }
    }

    #[test]
    fn to_hex_roundtrips_known_bytes() {
        assert_eq!(to_hex(&[0x00, 0x0f, 0xff]), "000fff");
    }

    /// On hosts with the SHA extension, the hardware kernel must track the
    /// scalar reference rounds bit for bit across chained states.
    #[cfg(target_arch = "x86_64")]
    #[test]
    #[allow(unsafe_code)]
    fn hardware_compress_matches_scalar_rounds() {
        if !x86::available() {
            return;
        }
        let mut hw = H0;
        let mut soft = H0;
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        for _ in 0..256 {
            let mut block = [0u8; BLOCK_LEN];
            for b in block.iter_mut() {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                *b = (x >> 56) as u8;
            }
            // SAFETY: gated on `x86::available` above.
            unsafe { x86::compress(&mut hw, &block) };
            compress_scalar(&mut soft, &block);
            assert_eq!(hw, soft);
        }
    }
}
