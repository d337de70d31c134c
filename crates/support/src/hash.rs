//! Deterministic fast hashing.
//!
//! `std::collections::HashMap` defaults to SipHash with per-process
//! random keys — robust against adversarial keys, but slow for the tiny
//! integer keys the automata layer interns by the million, and
//! non-deterministic across runs. This module provides an FxHash-style
//! multiply-xor hasher: a fixed seed, one multiply per word, identical
//! output on every platform and run. Use it for *internal* interning
//! tables whose keys are trusted (state ids, symbol pairs, structural
//! cache keys), never for maps keyed by untrusted input.
//!
//! It also provides two streaming byte digests, both stable under
//! re-chunking (folding a buffer in one call or in many gives the same
//! value) and neither cryptographic:
//!
//! * [`fnv64`] / [`Fnv64`] (FNV-1a) for fingerprints that are *stored or
//!   pinned*: snapshot checksums on disk, simulator event-log
//!   fingerprints in golden files. It folds one byte at a time, so it
//!   stays where its exact values are already recorded.
//! * [`xxh64`] / [`Xxh64`] (XXH64, seed 0) for the *wire*: the digest a
//!   chunked transfer's `DocChunkEnd` carries. Four independent lanes
//!   over 32-byte stripes make it roughly eight times faster than
//!   FNV-1a on bulk data, which matters when both ends of a 16 MiB
//!   transfer digest every byte.

use std::hash::{BuildHasherDefault, Hash, Hasher};

/// 64-bit odd multiplier (derived from the golden ratio), the same
/// constant rustc's FxHash uses. Any odd constant with good bit
/// dispersion works; this one is well studied.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast, deterministic, non-cryptographic hasher.
///
/// Each written word is combined by rotate-xor-multiply. Not resistant
/// to collision attacks — only use with trusted keys.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            // Length in the top byte so "ab" and "ab\0" differ.
            buf[7] ^= rest.len() as u8;
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }
}

/// `BuildHasher` for [`FxHasher`]; plug into `HashMap::with_hasher`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed through [`FxHasher`] — deterministic iteration-free
/// drop-in for interning tables on hot paths.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed through [`FxHasher`].
pub type FxHashSet<K> = std::collections::HashSet<K, FxBuildHasher>;

/// Hashes a single value with [`FxHasher`] from the fixed seed.
///
/// Deterministic across runs and platforms — suitable for structural
/// fingerprints that end up in cache keys or test snapshots.
pub fn fx_hash_one<T: Hash>(value: &T) -> u64 {
    let mut h = FxHasher::default();
    value.hash(&mut h);
    h.finish()
}

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte slice: the canonical streaming digest used for
/// transcript fingerprints and on-disk snapshot checksums.
///
/// Unlike [`FxHasher`] (word-at-a-time, tuned for interning tables),
/// this folds byte-by-byte, so it is stable under re-chunking: digesting
/// a file in one read or in many yields the same value. That makes it
/// the right choice wherever the digest is *externally visible* — event
/// logs compared across runs, snapshot files verified after a restart.
/// Not cryptographic; it detects corruption, not adversaries.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A resumable FNV-1a digest for callers that fold incrementally (e.g.
/// checksumming a snapshot while streaming it to disk). `Fnv64::new()`
/// then repeated [`Fnv64::update`] is byte-for-byte equivalent to one
/// [`fnv64`] call over the concatenation.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(FNV_OFFSET)
    }
}

impl Fnv64 {
    /// A fresh digest at the FNV-1a offset basis.
    pub fn new() -> Fnv64 {
        Fnv64::default()
    }

    /// Folds `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// The digest of everything folded so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// XXH64 primes, from the reference specification.
const XXH_P1: u64 = 0x9E37_79B1_85EB_CA87;
const XXH_P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const XXH_P3: u64 = 0x1656_67B1_9E37_79F9;
const XXH_P4: u64 = 0x85EB_CA77_C2B2_AE63;
const XXH_P5: u64 = 0x27D4_EB2F_1656_67C5;

/// Bytes per XXH64 stripe: one 8-byte word for each of the four lanes.
const XXH_STRIPE: usize = 32;

/// XXH64 with seed 0 over a byte slice; equal to one [`Xxh64::update`]
/// of `bytes` followed by [`Xxh64::finish`].
pub fn xxh64(bytes: &[u8]) -> u64 {
    let mut d = Xxh64::new();
    d.update(bytes);
    d.finish()
}

/// A streaming XXH64 digest (seed 0): the chunk-transfer digest.
///
/// Whole 32-byte stripes go through four independent accumulator lanes,
/// so the multiply chains overlap instead of serializing as FNV-1a's
/// does. Up to 31 bytes that do not yet fill a stripe are held between
/// [`Xxh64::update`] calls, so any split of the input gives the value
/// [`xxh64`] gives for the whole.
#[derive(Debug, Clone)]
pub struct Xxh64 {
    lanes: [u64; 4],
    pending: [u8; XXH_STRIPE],
    pending_len: usize,
    total: u64,
}

impl Default for Xxh64 {
    fn default() -> Self {
        Xxh64 {
            lanes: [
                XXH_P1.wrapping_add(XXH_P2),
                XXH_P2,
                0,
                XXH_P1.wrapping_neg(),
            ],
            pending: [0; XXH_STRIPE],
            pending_len: 0,
            total: 0,
        }
    }
}

#[inline(always)]
fn xxh_round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(XXH_P2))
        .rotate_left(31)
        .wrapping_mul(XXH_P1)
}

#[inline(always)]
fn xxh_merge(acc: u64, lane: u64) -> u64 {
    (acc ^ xxh_round(0, lane))
        .wrapping_mul(XXH_P1)
        .wrapping_add(XXH_P4)
}

#[inline(always)]
fn read_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"))
}

impl Xxh64 {
    /// A fresh digest with seed 0.
    pub fn new() -> Xxh64 {
        Xxh64::default()
    }

    /// Folds whole stripes into the lanes.
    fn stripes(&mut self, stripes: &[u8]) {
        let [mut v1, mut v2, mut v3, mut v4] = self.lanes;
        for s in stripes.chunks_exact(XXH_STRIPE) {
            v1 = xxh_round(v1, read_u64(&s[0..]));
            v2 = xxh_round(v2, read_u64(&s[8..]));
            v3 = xxh_round(v3, read_u64(&s[16..]));
            v4 = xxh_round(v4, read_u64(&s[24..]));
        }
        self.lanes = [v1, v2, v3, v4];
    }

    /// Folds `bytes` into the digest.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.total += bytes.len() as u64;
        if self.pending_len > 0 {
            let take = (XXH_STRIPE - self.pending_len).min(bytes.len());
            self.pending[self.pending_len..self.pending_len + take].copy_from_slice(&bytes[..take]);
            self.pending_len += take;
            bytes = &bytes[take..];
            if self.pending_len < XXH_STRIPE {
                return;
            }
            let stripe = self.pending;
            self.stripes(&stripe);
            self.pending_len = 0;
        }
        let whole = bytes.len() - bytes.len() % XXH_STRIPE;
        self.stripes(&bytes[..whole]);
        let rest = &bytes[whole..];
        self.pending[..rest.len()].copy_from_slice(rest);
        self.pending_len = rest.len();
    }

    /// The digest of everything folded so far.
    pub fn finish(&self) -> u64 {
        let mut h = if self.total >= XXH_STRIPE as u64 {
            let [v1, v2, v3, v4] = self.lanes;
            let mut h = v1
                .rotate_left(1)
                .wrapping_add(v2.rotate_left(7))
                .wrapping_add(v3.rotate_left(12))
                .wrapping_add(v4.rotate_left(18));
            for v in self.lanes {
                h = xxh_merge(h, v);
            }
            h
        } else {
            XXH_P5
        };
        h = h.wrapping_add(self.total);
        let mut tail = &self.pending[..self.pending_len];
        while tail.len() >= 8 {
            h ^= xxh_round(0, read_u64(tail));
            h = h.rotate_left(27).wrapping_mul(XXH_P1).wrapping_add(XXH_P4);
            tail = &tail[8..];
        }
        if tail.len() >= 4 {
            let word = u32::from_le_bytes(tail[..4].try_into().expect("4 bytes"));
            h ^= u64::from(word).wrapping_mul(XXH_P1);
            h = h.rotate_left(23).wrapping_mul(XXH_P2).wrapping_add(XXH_P3);
            tail = &tail[4..];
        }
        for &b in tail {
            h ^= u64::from(b).wrapping_mul(XXH_P5);
            h = h.rotate_left(11).wrapping_mul(XXH_P1);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(XXH_P2);
        h ^= h >> 29;
        h = h.wrapping_mul(XXH_P3);
        h ^ (h >> 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_calls() {
        let a = fx_hash_one(&(3u32, 7u32));
        let b = fx_hash_one(&(3u32, 7u32));
        assert_eq!(a, b);
        assert_ne!(a, fx_hash_one(&(7u32, 3u32)));
    }

    #[test]
    fn map_basic_operations() {
        let mut m: FxHashMap<(u32, u32), u32> = FxHashMap::default();
        m.reserve(16);
        for i in 0..100u32 {
            m.insert((i, i + 1), i);
        }
        assert_eq!(m.len(), 100);
        assert_eq!(m.get(&(41, 42)), Some(&41));
        assert_eq!(m.get(&(42, 41)), None);
    }

    #[test]
    fn string_tail_disambiguation() {
        assert_ne!(fx_hash_one(&"ab"), fx_hash_one(&"ab\0"));
        assert_ne!(fx_hash_one(&"abcdefgh"), fx_hash_one(&"abcdefg"));
    }

    #[test]
    fn fnv64_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fnv64_streaming_matches_oneshot() {
        let data = b"the quick brown fox";
        let mut d = Fnv64::new();
        d.update(&data[..7]);
        d.update(&data[7..]);
        assert_eq!(d.finish(), fnv64(data));
    }

    #[test]
    fn xxh64_reference_vectors() {
        // Published XXH64 (seed 0) test vectors.
        assert_eq!(xxh64(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(xxh64(b"abc"), 0x44BC_2CF5_AD77_0999);
    }

    /// A deterministic 1 KiB buffer exercising every byte value.
    fn kib() -> Vec<u8> {
        (0..1024u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect()
    }

    #[test]
    fn xxh64_is_stable_under_every_fixed_step_split() {
        let data = kib();
        let whole = xxh64(&data);
        for step in 1..=64 {
            let mut d = Xxh64::new();
            for piece in data.chunks(step) {
                d.update(piece);
            }
            assert_eq!(d.finish(), whole, "step {step}");
        }
        // Every prefix length too, so each tail path (8/4/1-byte) runs.
        for len in 0..=data.len() {
            let mut d = Xxh64::new();
            d.update(&data[..len / 2]);
            d.update(&data[len / 2..len]);
            assert_eq!(d.finish(), xxh64(&data[..len]), "len {len}");
        }
    }

    crate::proptest! {
        #![proptest_config(crate::prop::ProptestConfig::with_cases(128))]

        /// Any split of any buffer gives the one-shot value.
        #[test]
        fn xxh64_is_stable_under_arbitrary_splits(
            data in crate::prop::collection::vec(0u8..=255, 0..600),
            cuts in crate::prop::collection::vec(0usize..80, 0..24),
        ) {
            let mut d = Xxh64::new();
            let mut rest = data.as_slice();
            for cut in cuts {
                let (head, tail) = rest.split_at(cut.min(rest.len()));
                d.update(head);
                rest = tail;
            }
            d.update(rest);
            crate::prop_assert_eq!(d.finish(), xxh64(&data));
        }
    }

    #[test]
    fn set_operations() {
        let mut s: FxHashSet<u64> = FxHashSet::default();
        assert!(s.insert(9));
        assert!(!s.insert(9));
        assert!(s.contains(&9));
    }
}
