//! Dependency-free LZSS block compression.
//!
//! RocksDB compresses data blocks before they reach the device; this module
//! provides the same option with a self-contained LZSS variant (hash-chain
//! match finding, 64 KiB window, lengths 4–264). The format is byte-
//! oriented and decompression-safe against corrupt input (every read is
//! bounds-checked; malformed streams return errors, never panic).
//!
//! Wire format: groups of 8 tokens preceded by a control byte (bit i set =
//! token i is a match). A literal token is one raw byte. A match token is
//! `offset:u16 (LE, 1-based back-distance) | len:u8 (len-4)`.
//!
//! Stored blocks carry a 5-byte frame header ([`frame_block`]):
//! `flag:u8 (0 raw, 1 lzss) | raw_len:u32`. Incompressible blocks are
//! stored raw, so compression never inflates by more than the header. No
//! checksum covers the header — the block's own CRC is inside the body — so
//! [`unwrap_block`] trusts `raw_len` only as far as the body bears it out.

use crate::error::{LsmError, Result};
use bytes::Bytes;

const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = MIN_MATCH + 255;
const WINDOW: usize = 64 * 1024;
const HASH_BITS: u32 = 15;

fn hash4(data: &[u8], i: usize) -> usize {
    let v = u32::from_le_bytes([data[i], data[i + 1], data[i + 2], data[i + 3]]);
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

/// Compresses `input` with LZSS. The output has no framing; callers must
/// remember the raw length for decompression.
pub fn lzss_compress(input: &[u8]) -> Vec<u8> {
    let n = input.len();
    let mut out = Vec::with_capacity(n / 2 + 16);
    if n == 0 {
        return out;
    }
    // Most recent position for each hash bucket.
    let mut head = vec![usize::MAX; 1 << HASH_BITS];
    let mut i = 0usize;

    let mut control_pos = out.len();
    out.push(0);
    let mut control_bit = 0u8;
    let flush_bit =
        |out: &mut Vec<u8>, control_pos: &mut usize, control_bit: &mut u8, is_match: bool| {
            if *control_bit == 8 {
                *control_pos = out.len();
                out.push(0);
                *control_bit = 0;
            }
            if is_match {
                out[*control_pos] |= 1 << *control_bit;
            }
            *control_bit += 1;
        };

    while i < n {
        let mut best_len = 0usize;
        let mut best_off = 0usize;
        if i + MIN_MATCH <= n {
            let h = hash4(input, i);
            let candidate = head[h];
            head[h] = i;
            if candidate != usize::MAX && candidate < i && i - candidate <= WINDOW {
                let max_len = (n - i).min(MAX_MATCH);
                let mut l = 0usize;
                while l < max_len && input[candidate + l] == input[i + l] {
                    l += 1;
                }
                if l >= MIN_MATCH {
                    best_len = l;
                    best_off = i - candidate;
                }
            }
        }
        if best_len >= MIN_MATCH {
            flush_bit(&mut out, &mut control_pos, &mut control_bit, true);
            out.extend_from_slice(&(best_off as u16).to_le_bytes());
            out.push((best_len - MIN_MATCH) as u8);
            // Index a few positions inside the match to keep finding chains.
            let end = (i + best_len).min(n.saturating_sub(MIN_MATCH));
            let mut j = i + 1;
            while j < end && j < i + 8 {
                head[hash4(input, j)] = j;
                j += 1;
            }
            i += best_len;
        } else {
            flush_bit(&mut out, &mut control_pos, &mut control_bit, false);
            out.push(input[i]);
            i += 1;
        }
    }
    out
}

/// Decompresses an LZSS stream produced by [`lzss_compress`] into exactly
/// `raw_len` bytes. Malformed input yields a corruption error.
pub fn lzss_decompress(input: &[u8], raw_len: usize) -> Result<Vec<u8>> {
    let corrupt = || LsmError::Corruption("lzss stream truncated or malformed".into());
    // `raw_len` comes from frame bytes no checksum covers, so it is bounded
    // by what the stream could expand to before anything is allocated for
    // it: the densest token is a 3-byte match yielding `MAX_MATCH` bytes.
    if raw_len > input.len().div_ceil(3) * MAX_MATCH {
        return Err(corrupt());
    }
    let mut out = Vec::with_capacity(raw_len);
    let mut i = 0usize;
    while out.len() < raw_len {
        if i >= input.len() {
            return Err(corrupt());
        }
        let control = input[i];
        i += 1;
        for bit in 0..8 {
            if out.len() >= raw_len {
                break;
            }
            if control & (1 << bit) != 0 {
                if i + 3 > input.len() {
                    return Err(corrupt());
                }
                let off = u16::from_le_bytes([input[i], input[i + 1]]) as usize;
                let len = input[i + 2] as usize + MIN_MATCH;
                i += 3;
                if off == 0 || off > out.len() || out.len() + len > raw_len {
                    return Err(corrupt());
                }
                let start = out.len() - off;
                // Overlapping copies are the point of LZ; copy byte-wise.
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
            } else {
                if i >= input.len() {
                    return Err(corrupt());
                }
                out.push(input[i]);
                i += 1;
            }
        }
    }
    if out.len() != raw_len {
        return Err(corrupt());
    }
    Ok(out)
}

/// Storage framing flag: raw block.
pub const FLAG_RAW: u8 = 0;
/// Storage framing flag: LZSS-compressed block.
pub const FLAG_LZSS: u8 = 1;

/// Bytes of the storage frame that precede the block: `flag | raw_len`.
pub const FRAME_HEADER: usize = 5;

/// Frames an encoded block for storage, compressing when it pays. `buf`
/// holds the block after [`FRAME_HEADER`] reserved bytes, so a raw frame
/// needs no second buffer; `Bytes::from` still copies either frame once,
/// into an exact-size `Arc<[u8]>`, which cannot adopt a `Vec`'s allocation.
pub fn frame_block(mut buf: Vec<u8>, compression: bool) -> Bytes {
    let encoded = &buf[FRAME_HEADER..];
    let raw_len = (encoded.len() as u32).to_le_bytes();
    if compression {
        let packed = lzss_compress(encoded);
        if packed.len() + FRAME_HEADER < encoded.len() {
            let mut out = Vec::with_capacity(packed.len() + FRAME_HEADER);
            out.push(FLAG_LZSS);
            out.extend_from_slice(&raw_len);
            out.extend_from_slice(&packed);
            return Bytes::from(out);
        }
    }
    buf[0] = FLAG_RAW;
    buf[1..FRAME_HEADER].copy_from_slice(&raw_len);
    Bytes::from(buf)
}

/// Unwraps a stored block into its raw encoding: a raw frame's body is a
/// view of `stored`, a compressed one decompresses into a buffer of its own.
pub fn unwrap_block(stored: Bytes) -> Result<Bytes> {
    if stored.len() < FRAME_HEADER {
        return Err(LsmError::Corruption(
            "stored block shorter than header".into(),
        ));
    }
    let raw_len = u32::from_le_bytes(stored[1..FRAME_HEADER].try_into().unwrap()) as usize;
    match stored[0] {
        FLAG_RAW => {
            if stored.len() - FRAME_HEADER != raw_len {
                return Err(LsmError::Corruption("raw block length mismatch".into()));
            }
            Ok(stored.slice(FRAME_HEADER..))
        }
        FLAG_LZSS => Ok(Bytes::from(lzss_decompress(
            &stored[FRAME_HEADER..],
            raw_len,
        )?)),
        other => Err(LsmError::Corruption(format!(
            "unknown compression flag {other}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Frames `encoded` the way the block builder does: behind the header
    /// bytes it reserved.
    fn wrap_block(encoded: &[u8], compression: bool) -> Bytes {
        let mut buf = vec![0u8; FRAME_HEADER];
        buf.extend_from_slice(encoded);
        frame_block(buf, compression)
    }

    fn unwrap_slice(stored: &[u8]) -> Result<Bytes> {
        unwrap_block(Bytes::copy_from_slice(stored))
    }

    fn roundtrip(data: &[u8]) {
        let packed = lzss_compress(data);
        let back = lzss_decompress(&packed, data.len()).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn roundtrips() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"abcabcabcabcabcabcabc");
        roundtrip(&vec![0u8; 10_000]);
        roundtrip(
            "the quick brown fox jumps over the lazy dog. "
                .repeat(100)
                .as_bytes(),
        );
        // Pseudo-random (incompressible) data.
        let mut x = 1u64;
        let noise: Vec<u8> = (0..5000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        roundtrip(&noise);
    }

    #[test]
    fn repetitive_data_compresses_well() {
        let data = "user00000000000000000042value-42".repeat(200);
        let packed = lzss_compress(data.as_bytes());
        assert!(
            packed.len() < data.len() / 3,
            "{} -> {} should compress >3x",
            data.len(),
            packed.len()
        );
    }

    #[test]
    fn wrap_raw_when_incompressible() {
        let mut x = 7u64;
        let noise: Vec<u8> = (0..2000)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (x >> 33) as u8
            })
            .collect();
        let stored = wrap_block(&noise, true);
        assert_eq!(stored[0], FLAG_RAW, "noise must be stored raw");
        assert_eq!(stored.len(), noise.len() + 5);
        assert_eq!(unwrap_block(stored).unwrap(), noise);
    }

    #[test]
    fn wrap_compressed_when_it_pays() {
        let data = b"abcdefgh".repeat(500);
        let stored = wrap_block(&data, true);
        assert_eq!(stored[0], FLAG_LZSS);
        assert!(stored.len() < data.len() / 2);
        assert_eq!(unwrap_block(stored).unwrap(), data);
        // Compression disabled -> always raw.
        let stored = wrap_block(&data, false);
        assert_eq!(stored[0], FLAG_RAW);
    }

    #[test]
    fn malformed_streams_error_not_panic() {
        let data = b"hello world hello world hello world".repeat(20);
        let stored = wrap_block(&data, true);
        assert_eq!(stored[0], FLAG_LZSS);
        // Truncations at every length.
        for cut in 0..stored.len() {
            let _ = unwrap_slice(&stored[..cut]); // must not panic
        }
        // Bit flips in the body.
        for i in 5..stored.len().min(60) {
            let mut bad = stored.to_vec();
            bad[i] ^= 0xFF;
            let _ = unwrap_slice(&bad); // must not panic (may error or give wrong bytes; CRC above catches those)
        }
        // Bad flag.
        let mut bad = stored.to_vec();
        bad[0] = 9;
        assert!(unwrap_slice(&bad).is_err());
        // Raw length mismatch.
        let mut bad = wrap_block(&data, false).to_vec();
        bad.pop();
        assert!(unwrap_slice(&bad).is_err());
    }

    proptest::proptest! {
        #[test]
        fn proptest_roundtrip(data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..4096)) {
            let packed = lzss_compress(&data);
            let back = lzss_decompress(&packed, data.len()).unwrap();
            proptest::prop_assert_eq!(back, data.clone());
            let stored = wrap_block(&data, true);
            proptest::prop_assert_eq!(unwrap_block(stored).unwrap(), data);
        }
    }
}
