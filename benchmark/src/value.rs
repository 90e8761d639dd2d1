//! Self-describing values and the reply verifier.
//!
//! Every value the benchmark writes names the key it belongs to and the
//! version of that key, and is padded with bytes derived from both, so a
//! reply can be checked without a shared model of the store: the whole
//! value is regenerated from its own header and compared. A value torn
//! between two versions, attached to the wrong key, or truncated fails.
//!
//! Layout (`len` ≥ [`HEADER`] bytes, little-endian):
//!
//! ```text
//! [u64 key id][u64 version][u32 checksum of the first 16 bytes][padding…]
//! ```

use adcache_workload::parse_key;
use bytes::Bytes;

/// Bytes of header before the padding.
pub const HEADER: usize = 20;
/// The version every key carries after the load phase.
pub const LOAD_VERSION: u64 = 0;

fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The value of key `id` at `version`, exactly `len` bytes long.
pub fn encode(id: u64, version: u64, len: usize) -> Bytes {
    assert!(len >= HEADER, "value size {len} cannot hold the header");
    let mut v = Vec::with_capacity(len + 8);
    v.extend_from_slice(&id.to_le_bytes());
    v.extend_from_slice(&version.to_le_bytes());
    let mut state = mix64(id ^ version.rotate_left(32));
    v.extend_from_slice(&(state as u32).to_le_bytes());
    while v.len() < len {
        state = mix64(state);
        v.extend_from_slice(&state.to_le_bytes());
    }
    v.truncate(len);
    Bytes::from(v)
}

/// Why a reply failed verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mismatch {
    /// The key is not one the benchmark generates.
    ForeignKey,
    /// The value has the wrong length.
    Length { got: usize, want: usize },
    /// The value's header names another key.
    WrongKey { key: u64, value_names: u64 },
    /// The bytes are not what the header says they should be.
    Torn { key: u64 },
    /// A scan returned more entries than asked for.
    TooLong { got: usize, limit: usize },
    /// A scan's first key is below its start key.
    BeforeStart,
    /// A scan's keys are not the consecutive ids the loaded store holds.
    OutOfOrder { at: usize },
    /// A scan stopped before its limit although more keys exist.
    Short { got: usize, want: usize },
}

/// Checks that `value` is an untorn value of `key`, `len` bytes long, and
/// returns `(key id, version)`.
pub fn verify_value(key: &[u8], value: &[u8], len: usize) -> Result<(u64, u64), Mismatch> {
    let id = parse_key(key).ok_or(Mismatch::ForeignKey)?;
    if value.len() != len {
        return Err(Mismatch::Length {
            got: value.len(),
            want: len,
        });
    }
    let named = u64::from_le_bytes(value[0..8].try_into().expect("8-byte slice"));
    if named != id {
        return Err(Mismatch::WrongKey {
            key: id,
            value_names: named,
        });
    }
    let version = u64::from_le_bytes(value[8..16].try_into().expect("8-byte slice"));
    if encode(id, version, len).as_slice() != value {
        return Err(Mismatch::Torn { key: id });
    }
    Ok((id, version))
}

/// Checks a scan reply against the request and the loaded key space
/// (`num_keys` consecutive ids, none ever deleted): at most `limit`
/// entries, the first at or after `from`, ids consecutive and ascending,
/// every value untorn, and not cut short while keys remain. Returns how
/// many entries carry another version than `known` says the caller knows
/// the key to hold (where it knows).
pub fn verify_scan(
    from: &[u8],
    limit: usize,
    entries: &[(Bytes, Bytes)],
    len: usize,
    num_keys: u64,
    known: impl Fn(u64) -> Option<u64>,
) -> Result<usize, Mismatch> {
    if entries.len() > limit {
        return Err(Mismatch::TooLong {
            got: entries.len(),
            limit,
        });
    }
    let start = parse_key(from).ok_or(Mismatch::ForeignKey)?;
    let want = limit.min(num_keys.saturating_sub(start) as usize);
    if entries.len() < want {
        return Err(Mismatch::Short {
            got: entries.len(),
            want,
        });
    }
    let mut unexpected_versions = 0;
    for (i, (k, v)) in entries.iter().enumerate() {
        if i == 0 && k.as_slice() < from {
            return Err(Mismatch::BeforeStart);
        }
        let (id, version) = verify_value(k, v, len)?;
        if id != start + i as u64 {
            return Err(Mismatch::OutOfOrder { at: i });
        }
        unexpected_versions += usize::from(known(id).is_some_and(|want| want != version));
    }
    Ok(unexpected_versions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcache_workload::render_key;

    fn entry(id: u64, version: u64) -> (Bytes, Bytes) {
        (render_key(id), encode(id, version, 100))
    }

    #[test]
    fn roundtrip_names_key_and_version() {
        let v = encode(42, 7, 100);
        assert_eq!(v.len(), 100);
        assert_eq!(verify_value(&render_key(42), &v, 100), Ok((42, 7)));
        assert_eq!(encode(42, 7, HEADER).len(), HEADER);
        assert_ne!(encode(42, 7, 100), encode(42, 8, 100));
    }

    #[test]
    fn torn_value_fails() {
        let old = encode(42, 7, 100);
        let new = encode(42, 8, 100);
        // First half of the new version, second half of the old one.
        let mut torn = new.as_slice()[..50].to_vec();
        torn.extend_from_slice(&old.as_slice()[50..]);
        assert_eq!(
            verify_value(&render_key(42), &torn, 100),
            Err(Mismatch::Torn { key: 42 })
        );
    }

    #[test]
    fn wrong_key_length_and_foreign_key_fail() {
        let v = encode(42, 0, 100);
        assert_eq!(
            verify_value(&render_key(43), &v, 100),
            Err(Mismatch::WrongKey {
                key: 43,
                value_names: 42
            })
        );
        assert_eq!(
            verify_value(&render_key(42), &v.as_slice()[..99], 100),
            Err(Mismatch::Length { got: 99, want: 100 })
        );
        assert_eq!(verify_value(b"bogus", &v, 100), Err(Mismatch::ForeignKey));
    }

    #[test]
    fn good_scan_passes_and_end_of_keyspace_may_be_short() {
        let entries: Vec<_> = (10..14).map(|i| entry(i, 0)).collect();
        assert_eq!(
            verify_scan(&render_key(10), 4, &entries, 100, 1_000, |_| None),
            Ok(0)
        );
        // Only two keys remain before the end of a 12-key space.
        assert_eq!(
            verify_scan(&render_key(10), 4, &entries[..2], 100, 12, |_| None),
            Ok(0)
        );
    }

    #[test]
    fn out_of_order_scan_fails() {
        let mut entries: Vec<_> = (10..14).map(|i| entry(i, 0)).collect();
        entries.swap(1, 2);
        assert_eq!(
            verify_scan(&render_key(10), 4, &entries, 100, 1_000, |_| None),
            Err(Mismatch::OutOfOrder { at: 1 })
        );
    }

    #[test]
    fn scan_limits_start_and_versions_are_checked() {
        let entries: Vec<_> = (10..14).map(|i| entry(i, 0)).collect();
        assert_eq!(
            verify_scan(&render_key(10), 3, &entries, 100, 1_000, |_| None),
            Err(Mismatch::TooLong { got: 4, limit: 3 })
        );
        assert_eq!(
            verify_scan(&render_key(11), 4, &entries, 100, 1_000, |_| None),
            Err(Mismatch::BeforeStart)
        );
        assert_eq!(
            verify_scan(&render_key(10), 8, &entries, 100, 1_000, |_| None),
            Err(Mismatch::Short { got: 4, want: 8 })
        );
        let knows_12 = |id| (id == 12).then_some(5);
        assert_eq!(
            verify_scan(&render_key(10), 4, &entries, 100, 1_000, knows_12),
            Ok(1)
        );
    }
}
