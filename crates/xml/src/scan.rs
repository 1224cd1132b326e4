//! Branch-light byte-search primitives: a vendored, std-only
//! `memchr`/`memchr2`/`memchr3` built on SWAR word tricks.
//!
//! The streaming parser ([`crate::reader::Parser`]) spends most of its time
//! answering one question: *where is the next interesting delimiter* (`<`,
//! `>`, `&`, a quote) in a run of uninteresting bytes. A byte-at-a-time state machine
//! answers it one compare-and-branch per byte; the functions here answer it
//! eight bytes at a time with plain `u64` arithmetic — SWAR ("SIMD within a
//! register"), the technique the `memchr` crate uses as its portable
//! fallback. The workspace's zero-dependency stance holds: this is ~100
//! lines of `std`-only safe code, no external crate and no `unsafe`
//! (unaligned loads go through `u64::from_le_bytes` on 8-byte chunks, which
//! compiles to a single load on little-endian targets).
//!
//! The trick, per 8-byte word `w` and needle byte `n`:
//!
//! ```text
//! x     = w XOR broadcast(n)          // matching lanes become 0x00
//! hits  = (x - 0x0101…01) & !x & 0x8080…80
//! ```
//!
//! A lane of `hits` has its high bit set iff the corresponding byte of `x`
//! was zero — i.e. the input byte equalled the needle. (`x - 0x01…` borrows
//! into the high bit only for a `0x00` lane or via carry-out of a lower
//! lane; the `& !x` masks the carry false-positives for lanes ≥ 0x80.
//! A borrow *out of* a zero lane can clear the next lane's hit bit, so the
//! first hit is exact but later bits are unreliable — which is fine, every
//! caller only wants the first.) `trailing_zeros() / 8` of the surviving
//! mask is the index of the first match in the word.
//!
//! `memchr2`/`memchr3` OR two or three such hit masks together before the
//! zero test, so scanning for `<`-or-`&` costs the same as scanning for one
//! byte. DESIGN.md §18 describes how the parser layers a structural fast
//! path, its construct finder and its recovery skims on top of these
//! primitives.

/// Lowest bit of every lane.
const LO: u64 = 0x0101_0101_0101_0101;
/// Highest bit of every lane.
const HI: u64 = 0x8080_8080_8080_8080;

/// Broadcast one byte into all eight lanes of a word.
#[inline]
const fn broadcast(b: u8) -> u64 {
    LO * b as u64
}

/// Per-lane high bit set where the lane of `x` is zero (first match exact;
/// see the module docs for why later lanes may be masked by borrows).
#[inline]
const fn zero_lanes(x: u64) -> u64 {
    x.wrapping_sub(LO) & !x & HI
}

/// Index of the first byte equal to `needle` in `haystack`.
///
/// Semantically identical to `haystack.iter().position(|&b| b == needle)`,
/// but scans eight bytes per step.
#[inline]
#[must_use]
pub fn memchr(needle: u8, haystack: &[u8]) -> Option<usize> {
    let n = broadcast(needle);
    let mut chunks = haystack.chunks_exact(8);
    let mut offset = 0usize;
    for chunk in &mut chunks {
        // Safe unaligned load: an 8-byte chunk always converts.
        let w = u64::from_le_bytes(chunk.try_into().unwrap_or([0; 8]));
        let hits = zero_lanes(w ^ n);
        if hits != 0 {
            return Some(offset + (hits.trailing_zeros() / 8) as usize);
        }
        offset += 8;
    }
    chunks
        .remainder()
        .iter()
        .position(|&b| b == needle)
        .map(|i| offset + i)
}

/// Index of the first byte equal to `n1` or `n2` in `haystack`.
#[inline]
#[must_use]
pub fn memchr2(n1: u8, n2: u8, haystack: &[u8]) -> Option<usize> {
    let b1 = broadcast(n1);
    let b2 = broadcast(n2);
    let mut chunks = haystack.chunks_exact(8);
    let mut offset = 0usize;
    for chunk in &mut chunks {
        let w = u64::from_le_bytes(chunk.try_into().unwrap_or([0; 8]));
        let hits = zero_lanes(w ^ b1) | zero_lanes(w ^ b2);
        if hits != 0 {
            return Some(offset + (hits.trailing_zeros() / 8) as usize);
        }
        offset += 8;
    }
    chunks
        .remainder()
        .iter()
        .position(|&b| b == n1 || b == n2)
        .map(|i| offset + i)
}

/// Index of the first byte equal to `n1`, `n2` or `n3` in `haystack`.
#[inline]
#[must_use]
pub fn memchr3(n1: u8, n2: u8, n3: u8, haystack: &[u8]) -> Option<usize> {
    let b1 = broadcast(n1);
    let b2 = broadcast(n2);
    let b3 = broadcast(n3);
    let mut chunks = haystack.chunks_exact(8);
    let mut offset = 0usize;
    for chunk in &mut chunks {
        let w = u64::from_le_bytes(chunk.try_into().unwrap_or([0; 8]));
        let hits = zero_lanes(w ^ b1) | zero_lanes(w ^ b2) | zero_lanes(w ^ b3);
        if hits != 0 {
            return Some(offset + (hits.trailing_zeros() / 8) as usize);
        }
        offset += 8;
    }
    chunks
        .remainder()
        .iter()
        .position(|&b| b == n1 || b == n2 || b == n3)
        .map(|i| offset + i)
}

/// Index of the first byte equal to `n1`, `n2` or `n3` **or** with its high
/// bit set (non-ASCII), whichever comes first.
///
/// This is the reader fast path's workhorse: one sweep answers both "where
/// does this construct end" and "is everything before that point plain
/// ASCII free of entities/markup", where separate `memchr` +
/// [`first_non_ascii`] calls would walk the same bytes twice. The needles
/// must themselves be ASCII (they are delimiters like `<` `>` `&`), so the
/// two hit masks cannot disagree about a lane.
#[inline]
#[must_use]
pub fn memchr3_or_non_ascii(n1: u8, n2: u8, n3: u8, haystack: &[u8]) -> Option<usize> {
    let b1 = broadcast(n1);
    let b2 = broadcast(n2);
    let b3 = broadcast(n3);
    let mut chunks = haystack.chunks_exact(8);
    let mut offset = 0usize;
    for chunk in &mut chunks {
        let w = u64::from_le_bytes(chunk.try_into().unwrap_or([0; 8]));
        let hits = zero_lanes(w ^ b1) | zero_lanes(w ^ b2) | zero_lanes(w ^ b3) | (w & HI);
        if hits != 0 {
            return Some(offset + (hits.trailing_zeros() / 8) as usize);
        }
        offset += 8;
    }
    chunks
        .remainder()
        .iter()
        .position(|&b| b == n1 || b == n2 || b == n3 || b >= 0x80)
        .map(|i| offset + i)
}

/// Index of the first byte with its high bit set (a non-ASCII byte), or
/// `None` when the slice is pure ASCII. Used by the reader's fast path to
/// decide between the verbatim-copy route (ASCII) and a UTF-8 validation.
#[inline]
#[must_use]
pub fn first_non_ascii(haystack: &[u8]) -> Option<usize> {
    let mut chunks = haystack.chunks_exact(8);
    let mut offset = 0usize;
    for chunk in &mut chunks {
        let w = u64::from_le_bytes(chunk.try_into().unwrap_or([0; 8]));
        let hits = w & HI;
        if hits != 0 {
            return Some(offset + (hits.trailing_zeros() / 8) as usize);
        }
        offset += 8;
    }
    chunks
        .remainder()
        .iter()
        .position(|&b| b >= 0x80)
        .map(|i| offset + i)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Oracle: the naive scalar scan.
    fn naive(pred: impl Fn(u8) -> bool, hay: &[u8]) -> Option<usize> {
        hay.iter().position(|&b| pred(b))
    }

    #[test]
    fn matches_naive_on_every_offset_and_length() {
        // Every (length, match-position) pair up to a few words, so head,
        // SWAR body and tail are all exercised, including borrow-chain
        // cases (0x00 lanes adjacent to matches).
        for len in 0..40 {
            for pos in 0..=len {
                let mut hay = vec![b'x'; len];
                if pos < len {
                    hay[pos] = b'<';
                }
                assert_eq!(memchr(b'<', &hay), naive(|b| b == b'<', &hay), "{hay:?}");
            }
        }
    }

    #[test]
    fn finds_first_of_several() {
        let hay = b"aaaa<bb<cc&dd";
        assert_eq!(memchr(b'<', hay), Some(4));
        assert_eq!(memchr2(b'<', b'&', hay), Some(4));
        assert_eq!(memchr2(b'&', b'<', hay), Some(4));
        assert_eq!(memchr3(b'&', b'>', b'<', hay), Some(4));
        assert_eq!(memchr(b'&', hay), Some(10));
        assert_eq!(memchr(b'z', hay), None);
        assert_eq!(memchr3(b'z', b'y', b'w', hay), None);
    }

    #[test]
    fn handles_high_bytes_and_zero_bytes() {
        // 0x80/0x00 lanes are where the borrow trick can go wrong; check
        // against the oracle with adversarial content.
        let hay: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(0x85)).collect();
        for needle in [0x00u8, 0x01, 0x7f, 0x80, 0x85, 0xff, b'<'] {
            assert_eq!(
                memchr(needle, &hay),
                naive(|b| b == needle, &hay),
                "needle {needle:#x}"
            );
        }
        let zeros = [0u8, 0, 0, b'<', 0, 0, 0, 0, 0];
        assert_eq!(memchr(b'<', &zeros), Some(3));
        assert_eq!(memchr(0, &zeros), Some(0));
    }

    #[test]
    fn exhaustive_pairs_against_oracle() {
        let hay: Vec<u8> = b"ab<cd>ef&gh'ij\"kl ab<cd>ef&gh'ij\"kl".to_vec();
        let set = [b'<', b'>', b'&', b'\'', b'"', b'z'];
        for &a in &set {
            for &b in &set {
                assert_eq!(memchr2(a, b, &hay), naive(|x| x == a || x == b, &hay));
                for &c in &set {
                    assert_eq!(
                        memchr3(a, b, c, &hay),
                        naive(|x| x == a || x == b || x == c, &hay)
                    );
                }
            }
        }
    }

    #[test]
    fn combined_scan_against_oracle() {
        let set = [b'<', b'>', b'&', b'z'];
        // Adversarial content: delimiters, high bytes, zero bytes, and every
        // alignment of the first interesting byte.
        let base: Vec<u8> = b"ab<cd>ef&gh qrstuv".to_vec();
        for len in 0..base.len() {
            for high_pos in 0..=len {
                let mut hay = base[..len].to_vec();
                if high_pos < len {
                    hay[high_pos] = 0xc3;
                }
                for &a in &set {
                    for &b in &set {
                        assert_eq!(
                            memchr3_or_non_ascii(a, b, b'&', &hay),
                            naive(|x| x == a || x == b || x == b'&' || x >= 0x80, &hay),
                            "needles {a} {b} & on {hay:?}"
                        );
                    }
                }
            }
        }
        assert_eq!(memchr3_or_non_ascii(b'<', b'>', b'&', b"plain text"), None);
    }

    #[test]
    fn non_ascii_detection() {
        assert_eq!(first_non_ascii(b"pure ascii only here"), None);
        assert_eq!(first_non_ascii("grüße".as_bytes()), Some(2));
        assert_eq!(first_non_ascii(&[0x7f, 0x80]), Some(1));
        assert_eq!(first_non_ascii(&[]), None);
        // Long ASCII run with one high byte in the tail.
        let mut v = vec![b'a'; 29];
        v.push(0xc3);
        assert_eq!(first_non_ascii(&v), Some(29));
    }
}
