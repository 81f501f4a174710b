//! The entropy tape: a replayable byte stream behind every generator.
//!
//! In *recording* mode a tape appends fresh DRBG output as generators
//! consume it. In *replay* mode it serves a fixed byte string and pads with
//! zeros once exhausted. Because generators are pure functions of the bytes
//! they read, any tape denotes a valid generated value — which is what lets
//! the shrinker in [`crate::prop`](mod@crate::prop) minimize failures by editing raw bytes
//! instead of needing a per-type shrinking algebra.
//!
//! Generators are written so that an all-zero tape produces the *simplest*
//! value (empty vec, zero integer, `None`, first variant), making
//! "zero more bytes" a universal simplification direction.

use sharoes_crypto::{HmacDrbg, RandomSource};

/// How many fresh bytes to pull from the DRBG at a time while recording.
const CHUNK: usize = 32;

/// A positional byte stream with optional fresh-entropy backing.
pub struct Tape {
    data: Vec<u8>,
    pos: usize,
    fresh: Option<HmacDrbg>,
}

impl Tape {
    /// A tape that records fresh bytes from `drbg` as they are consumed.
    pub fn recording(drbg: HmacDrbg) -> Tape {
        Tape { data: Vec::new(), pos: 0, fresh: Some(drbg) }
    }

    /// A tape that replays `data`, serving zeros past the end.
    pub fn replay(data: Vec<u8>) -> Tape {
        Tape { data, pos: 0, fresh: None }
    }

    /// Every byte recorded or replayed so far (including unread tail).
    pub fn recorded(&self) -> &[u8] {
        &self.data
    }

    /// The next byte.
    pub fn byte(&mut self) -> u8 {
        if self.pos >= self.data.len() {
            match &mut self.fresh {
                Some(drbg) => {
                    let mut chunk = [0u8; CHUNK];
                    drbg.fill_bytes(&mut chunk);
                    self.data.extend_from_slice(&chunk);
                }
                None => {
                    self.pos += 1;
                    return 0;
                }
            }
        }
        let b = self.data[self.pos];
        self.pos += 1;
        b
    }

    /// Fills `buf` from the tape.
    pub fn fill(&mut self, buf: &mut [u8]) {
        for b in buf.iter_mut() {
            *b = self.byte();
        }
    }

    /// A `u8` draw.
    pub fn u8(&mut self) -> u8 {
        self.byte()
    }

    /// A `u16` draw (big-endian).
    pub fn u16(&mut self) -> u16 {
        u16::from_be_bytes([self.byte(), self.byte()])
    }

    /// A `u32` draw (big-endian).
    pub fn u32(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.fill(&mut b);
        u32::from_be_bytes(b)
    }

    /// A `u64` draw (big-endian).
    pub fn u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.fill(&mut b);
        u64::from_be_bytes(b)
    }

    /// A boolean draw; a zero byte is `false`.
    pub fn bool(&mut self) -> bool {
        self.byte() & 1 == 1
    }

    /// A draw in `[lo, hi)`; an all-zero tape yields `lo`.
    ///
    /// Panics when the range is empty.
    pub fn u64_in(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        let span = hi - lo;
        // One byte suffices for small spans, keeping tapes short (and
        // shrinker edits local).
        if span <= 1 << 8 {
            lo + self.u8() as u64 % span
        } else if span <= 1 << 16 {
            lo + self.u16() as u64 % span
        } else if span <= 1 << 32 {
            lo + self.u32() as u64 % span
        } else {
            lo + self.u64() % span
        }
    }

    /// A `usize` draw in `[lo, hi)`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        self.u64_in(lo as u64, hi as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_pads_with_zeros() {
        let mut t = Tape::replay(vec![7, 8]);
        assert_eq!(t.byte(), 7);
        assert_eq!(t.byte(), 8);
        assert_eq!(t.byte(), 0);
        assert_eq!(t.u64(), 0);
    }

    #[test]
    fn recording_then_replaying_matches() {
        let mut rec = Tape::recording(HmacDrbg::from_seed_u64(1));
        let vals: Vec<u64> = (0..10).map(|_| rec.u64()).collect();
        let mut rep = Tape::replay(rec.recorded().to_vec());
        let again: Vec<u64> = (0..10).map(|_| rep.u64()).collect();
        assert_eq!(vals, again);
    }

    #[test]
    fn ranges_hit_bounds_and_stay_inside() {
        let mut t = Tape::recording(HmacDrbg::from_seed_u64(2));
        for _ in 0..1000 {
            let v = t.usize_in(3, 9);
            assert!((3..9).contains(&v));
        }
        let mut z = Tape::replay(vec![]);
        assert_eq!(z.usize_in(3, 9), 3, "zero tape takes the low end");
    }
}
