//! Seeded input generator: keys, self-describing values, permutations.
//!
//! Every input the program receives comes from here and is a pure
//! function of `--seed`. Values carry their own key id, a version and a
//! checksum, so the checker can judge any value it reads back without a
//! stored copy of earlier output.

/// Key length in bytes: `user` plus a 12-digit zero-padded id, so byte
/// order equals id order.
pub const KEY_LEN: usize = 16;

/// Value length in bytes.
pub const VALUE_LEN: usize = 100;

/// Bytes of one record as the generator counts live data.
pub const RECORD_BYTES: u64 = (KEY_LEN + VALUE_LEN) as u64;

/// Version every preloaded record carries; run-time writes use larger ones.
pub const PRELOAD_VERSION: u64 = 1;

const CHECKSUM_AT: usize = VALUE_LEN - 8;

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_b15d_0000_0001)
    }

    /// An independent stream for one purpose (loader, writer, reader).
    pub fn stream(seed: u64, purpose: u64) -> Rng {
        let mut r = Rng::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ purpose);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The key of record `id`.
pub fn key(id: u64) -> Vec<u8> {
    format!("user{id:012}").into_bytes()
}

/// Inverse of [`key`]; `None` for anything the generator never makes.
pub fn key_id(key: &[u8]) -> Option<u64> {
    let digits = key.strip_prefix(b"user")?;
    if digits.len() != KEY_LEN - 4 || !digits.iter().all(u8::is_ascii_digit) {
        return None;
    }
    std::str::from_utf8(digits).ok()?.parse().ok()
}

fn checksum(bytes: &[u8]) -> u64 {
    // FNV-1a, finished with the SplitMix mixer.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    mix(h)
}

/// The value of record `id` at `version`: id, version, filler derived
/// from both, and a checksum over everything before it.
pub fn value(id: u64, version: u64) -> Vec<u8> {
    let mut v = Vec::with_capacity(VALUE_LEN);
    v.extend_from_slice(&id.to_le_bytes());
    v.extend_from_slice(&version.to_le_bytes());
    let mut fill = mix(id ^ version.rotate_left(40));
    while v.len() < CHECKSUM_AT {
        fill = mix(fill);
        let take = (CHECKSUM_AT - v.len()).min(8);
        v.extend_from_slice(&fill.to_le_bytes()[..take]);
    }
    let sum = checksum(&v);
    v.extend_from_slice(&sum.to_le_bytes());
    v
}

/// The exclusive end id of a scan of `span` ids from `start` in a key
/// space of `n` ids, and its `to` key. `key(n)` sorts above every
/// generated key, so a range that reaches the end of the key space is
/// still bounded.
pub fn scan_end(start: u64, span: u64, n: u64) -> (Vec<u8>, u64) {
    let end = (start + span).min(n);
    (key(end), end)
}

/// Decodes a value into `(id, version)`, rejecting a wrong length or a
/// checksum mismatch.
pub fn decode_value(v: &[u8]) -> Result<(u64, u64), String> {
    if v.len() != VALUE_LEN {
        return Err(format!("value of {} bytes, expected {VALUE_LEN}", v.len()));
    }
    let word = |at: usize| {
        let mut w = [0u8; 8];
        w.copy_from_slice(&v[at..at + 8]);
        u64::from_le_bytes(w)
    };
    if checksum(&v[..CHECKSUM_AT]) != word(CHECKSUM_AT) {
        return Err("value checksum mismatch".into());
    }
    Ok((word(0), word(8)))
}

/// `ids` in a seeded random order (Fisher-Yates).
pub fn shuffled(mut ids: Vec<u64>, rng: &mut Rng) -> Vec<u64> {
    for i in (1..ids.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        ids.swap(i, j);
    }
    ids
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_sort_like_ids_and_round_trip() {
        assert_eq!(key(7).len(), KEY_LEN);
        assert!(key(99) < key(100));
        assert_eq!(key_id(&key(123_456)), Some(123_456));
        assert_eq!(key_id(b"user12"), None);
        assert_eq!(key_id(b"xxxx000000000001"), None);
    }

    #[test]
    fn values_round_trip_and_detect_damage() {
        let v = value(42, 9);
        assert_eq!(v.len(), VALUE_LEN);
        assert_eq!(decode_value(&v), Ok((42, 9)));
        let mut bad = v.clone();
        bad[30] ^= 1;
        assert!(decode_value(&bad).is_err());
        assert!(decode_value(&v[..50]).is_err());
    }

    #[test]
    fn streams_repeat_per_seed() {
        let a: Vec<u64> = (0..4).map(|_| Rng::stream(3, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::stream(3, 1).next_u64(), Rng::stream(4, 1).next_u64());
        let p = shuffled((0..100).collect(), &mut Rng::new(5));
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_eq!(p, shuffled((0..100).collect(), &mut Rng::new(5)));
    }
}
