//! CRC-32 (IEEE 802.3, reflected): the checksum every block, WAL record
//! and manifest carries.
//!
//! Two routines compute the same value. [`crc32_tables`] is slicing-by-8
//! over eight `const` tables and runs on every CPU. On x86_64 with
//! PCLMULQDQ and SSE4.1, [`crc32`] instead folds 64 bytes a step by
//! carry-less multiply (Gopal et al., "Fast CRC Computation for Generic
//! Polynomials Using PCLMULQDQ Instruction", Intel, 2009), at about a
//! cycle a byte; inputs under 128 bytes and the fold's tail still go
//! through the tables. The CPU is asked at run time, so one binary serves
//! both. aarch64 stays on the tables: its CRC32 intrinsics need a newer
//! compiler than the workspace's `rust-version`.

/// Slicing-by-8 lookup tables: `CRC_TABLES[0]` is the classic
/// byte-at-a-time table of the reflected IEEE polynomial, and
/// `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 of `data`: folded by carry-less multiply where the CPU has it
/// (x86_64 with PCLMULQDQ and SSE4.1) and the input is at least 128
/// bytes, by [`crc32_tables`] otherwise. Both give the same value.
pub fn crc32(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= clmul::MIN_LEN && clmul::available() {
        // SAFETY: `clmul::available()` has just confirmed PCLMULQDQ and
        // SSE4.1 (and x86_64 implies SSE2), the features `fold` enables.
        return !unsafe { clmul::fold(!0, data) };
    }
    crc32_tables(data)
}

/// CRC-32 of `data` by slicing-by-8, eight input bytes per step; the tail
/// shorter than eight goes byte by byte. The portable path, and the
/// reference the carry-less fold is tested against.
pub fn crc32_tables(data: &[u8]) -> u32 {
    !update_tables(!0, data)
}

/// Advances the raw (uninverted) CRC register `crc` over `data`.
fn update_tables(mut crc: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// The carry-less-multiply fold. Every `unsafe fn` here enables
/// `pclmulqdq`, `sse2` and `sse4.1`; its one caller, [`crc32`], reaches it
/// only after [`clmul::available`] said yes.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Shortest input worth folding: four 16-byte lanes to load, and one
    /// 64-byte step to run.
    pub(super) const MIN_LEN: usize = 128;

    // Fold constants for the reflected IEEE polynomial: (x^n mod P(x))
    // bit-reflected and shifted left one (Gopal et al., Intel 2009).
    // K1, K2 carry a lane across four lanes: n = 4·128 + 32, 4·128 − 32.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    // K3, K4 carry a lane across one lane: n = 128 + 32, 128 − 32.
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    // K5 folds 96 bits to 64: n = 64.
    const K5: i64 = 0x1_63cd_6124;
    // Barrett reduction: P′(x), the polynomial itself, and μ = x^64 / P(x).
    const P_X: i64 = 0x1_DB71_0641;
    const MU: i64 = 0x1_F701_1641;

    #[cfg(test)]
    thread_local! {
        /// Calls of [`fold`] on this thread, so a test can see which path
        /// `crc32` took.
        pub(super) static FOLDS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    /// Whether this CPU can run [`fold`]. std caches the answer, so a call
    /// is one load and a bit test.
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// Advances the raw CRC register `crc` over `data` (at least
    /// [`MIN_LEN`] bytes): four 128-bit lanes fold 64 bytes a step, the
    /// lanes fold into one, 16-byte blocks fold into it, it folds to 64
    /// bits, and a Barrett step reduces those to 32. The last 0–15 bytes
    /// go through the tables.
    ///
    /// # Safety
    ///
    /// The CPU must have PCLMULQDQ and SSE4.1, as [`available`] checks.
    #[target_feature(enable = "pclmulqdq", enable = "sse2", enable = "sse4.1")]
    pub(super) unsafe fn fold(crc: u32, mut data: &[u8]) -> u32 {
        debug_assert!(data.len() >= MIN_LEN);
        #[cfg(test)]
        FOLDS.with(|n| n.set(n.get() + 1));
        let mut x3 = load(&mut data);
        let mut x2 = load(&mut data);
        let mut x1 = load(&mut data);
        let mut x0 = load(&mut data);
        x3 = _mm_xor_si128(x3, _mm_cvtsi32_si128(crc as i32));

        let k1k2 = _mm_set_epi64x(K2, K1);
        while data.len() >= 64 {
            x3 = fold_into(x3, load(&mut data), k1k2);
            x2 = fold_into(x2, load(&mut data), k1k2);
            x1 = fold_into(x1, load(&mut data), k1k2);
            x0 = fold_into(x0, load(&mut data), k1k2);
        }

        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold_into(x3, x2, k3k4);
        x = fold_into(x, x1, k3k4);
        x = fold_into(x, x0, k3k4);
        while data.len() >= 16 {
            x = fold_into(x, load(&mut data), k3k4);
        }

        // 128 → 96 → 64 bits.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );

        // Barrett, bit-reflected: T1 = (R mod x^32)·μ, T2 = (T1 mod x^32)·P,
        // and the register is the upper half of R ⊕ T2.
        let pu = _mm_set_epi64x(MU, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        let crc = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;

        super::update_tables(crc, data)
    }

    /// `acc` carried across the fold distance `keys` names, plus `next`.
    ///
    /// # Safety
    ///
    /// As [`fold`]: PCLMULQDQ, checked by [`available`].
    #[target_feature(enable = "pclmulqdq", enable = "sse2")]
    unsafe fn fold_into(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, keys, 0x00);
        let hi = _mm_clmulepi64_si128(acc, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// The next 16 bytes of `data`, which advances past them.
    ///
    /// # Safety
    ///
    /// SSE2, which x86_64 always has; `data` holds at least 16 bytes (the
    /// callers' loop bounds, asserted here), so the unaligned load stays in
    /// bounds.
    #[target_feature(enable = "sse2")]
    unsafe fn load(data: &mut &[u8]) -> __m128i {
        assert!(data.len() >= 16);
        let v = _mm_loadu_si128(data.as_ptr().cast::<__m128i>());
        *data = &data[16..];
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time routine slicing-by-8 replaced, kept as the
    /// reference both faster routines must agree with bit for bit.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc = CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        !crc
    }

    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    /// The three routines over `buf[align..align + len]`.
    fn check(buf: &[u8], align: usize, len: usize) {
        let data = &buf[align..align + len];
        let want = crc32_bytewise(data);
        assert_eq!(crc32_tables(data), want, "tables, align {align} len {len}");
        assert_eq!(crc32(data), want, "dispatched, align {align} len {len}");
    }

    #[test]
    fn all_three_routines_agree_at_every_length_and_alignment() {
        // 16 spare bytes so every start alignment has 4 096 bytes after it.
        let buf = noise(4096 + 16);
        for align in 0..16 {
            for len in 0..=4096 {
                check(&buf, align, len);
            }
        }
    }

    #[test]
    fn all_three_routines_agree_at_the_fold_boundaries_and_over_a_mebibyte() {
        let buf = noise((1 << 20) + 16);
        for len in [15, 16, 63, 64, 127, 128, 129, 191, 192, 193] {
            for align in [0, 1, 8, 15] {
                check(&buf, align, len);
            }
        }
        check(&buf, 0, 1 << 20);
        check(&buf, 3, 1 << 20);
        // Runs of one byte.
        check(&[0u8; 4096], 0, 4096);
        check(&[0xFFu8; 4096], 0, 4096);
    }

    #[test]
    fn known_vectors() {
        for f in [crc32, crc32_tables, crc32_bytewise] {
            assert_eq!(f(b""), 0x0000_0000);
            assert_eq!(f(b"123456789"), 0xCBF4_3926);
            assert_eq!(
                f(b"The quick brown fox jumps over the lazy dog"),
                0x414F_A339
            );
        }
        // 128 bytes: the shortest input the carry-less fold takes.
        assert_eq!(crc32(&[0u8; 128]), 0xC2A8_FA9D);
    }

    /// Fails on an x86_64 host with PCLMULQDQ where `crc32` does not fold,
    /// so a suite run there cannot pass having tested only the tables.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn a_pclmulqdq_host_takes_the_fast_path() {
        if std::arch::is_x86_feature_detected!("pclmulqdq") {
            let folds = || clmul::FOLDS.with(|n| n.get());
            let data = noise(4096);
            let before = folds();
            assert_eq!(crc32(&data), crc32_bytewise(&data));
            assert_eq!(folds(), before + 1, "crc32 did not fold 4 KiB");
            crc32(&data[..clmul::MIN_LEN - 1]);
            assert_eq!(folds(), before + 1, "crc32 folded under 128 B");
        }
    }
}
