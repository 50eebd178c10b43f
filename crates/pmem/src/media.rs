//! The persistent media: the only state that survives a crash.

use std::sync::Arc;

use crate::addr::{Line, CACHELINE_BYTES};

/// Copy-on-write granule. A multiple of the line size, so a cacheline never
/// straddles two pages.
const PAGE_BYTES: usize = 4096;

type Page = [u8; PAGE_BYTES];

/// Raw persistent-memory media contents.
///
/// Reads and writes here are *direct*: they bypass the simulated cache and
/// charge no cycles. The engine uses `Media` as the durable backing store;
/// recovery validators and crash images use it to inspect post-crash state.
///
/// The bytes live in reference-counted fixed-size pages. `clone` shares
/// every page (fresh media share one zero page) and a write first makes
/// its page private, so a crash image costs the pages written afterwards,
/// not the pool. A clone therefore never observes later writes to its
/// source, nor the source writes to the clone. A final partial page is
/// allocated whole; bytes past [`Media::len`] are unreachable and stay zero.
///
/// # Panics
///
/// All accessors panic on out-of-range offsets — an out-of-range access is a
/// bug in the simulation, not a recoverable condition.
#[derive(Clone, PartialEq)]
pub struct Media {
    /// Compared by bytes; `Arc`'s equality short-cuts pages that are shared.
    pages: Vec<Arc<Page>>,
    len: u64,
}

impl std::fmt::Debug for Media {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Media").field("len", &self.len).finish()
    }
}

impl Media {
    /// Creates zero-initialized media of `len` bytes (rounded up to a line).
    pub fn new(len: u64) -> Self {
        let len = len.div_ceil(CACHELINE_BYTES) * CACHELINE_BYTES;
        let zero = Arc::new([0u8; PAGE_BYTES]);
        Media {
            pages: vec![zero; (len as usize).div_ceil(PAGE_BYTES)],
            len,
        }
    }

    /// Total capacity in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the media has zero capacity.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bounds-checks `[off, off + len)` and splits it into per-page
    /// `(page index, offset in page, offset in the access, length)` pieces.
    fn pieces(&self, off: u64, len: usize) -> impl Iterator<Item = (usize, usize, usize, usize)> {
        assert!(
            off.checked_add(len as u64)
                .is_some_and(|end| end <= self.len),
            "media access out of range: off={off:#x} len={len} capacity={:#x}",
            self.len
        );
        let off = off as usize;
        let mut done = 0;
        std::iter::from_fn(move || {
            (done < len).then(|| {
                let at = (off + done) % PAGE_BYTES;
                let n = (PAGE_BYTES - at).min(len - done);
                let piece = ((off + done) / PAGE_BYTES, at, done, n);
                done += n;
                piece
            })
        })
    }

    /// Reads `buf.len()` bytes starting at `off`.
    pub fn read(&self, off: u64, buf: &mut [u8]) {
        for (page, at, done, n) in self.pieces(off, buf.len()) {
            buf[done..done + n].copy_from_slice(&self.pages[page][at..at + n]);
        }
    }

    /// Reads `len` bytes starting at `off` into a fresh vector.
    pub fn read_vec(&self, off: u64, len: u64) -> Vec<u8> {
        let mut v = vec![0u8; len as usize];
        self.read(off, &mut v);
        v
    }

    /// Writes `data` starting at `off`, un-sharing the pages it touches.
    pub fn write(&mut self, off: u64, data: &[u8]) {
        for (page, at, done, n) in self.pieces(off, data.len()) {
            Arc::make_mut(&mut self.pages[page])[at..at + n].copy_from_slice(&data[done..done + n]);
        }
    }

    /// Reads a little-endian `u64` at `off`.
    pub fn read_u64(&self, off: u64) -> u64 {
        let mut b = [0u8; 8];
        self.read(off, &mut b);
        u64::from_le_bytes(b)
    }

    /// Writes a little-endian `u64` at `off`.
    pub fn write_u64(&mut self, off: u64, v: u64) {
        self.write(off, &v.to_le_bytes());
    }

    /// Reads the full 64-byte cacheline `line`.
    pub fn read_line(&self, line: Line) -> [u8; CACHELINE_BYTES as usize] {
        let mut b = [0u8; CACHELINE_BYTES as usize];
        self.read(line.start(), &mut b);
        b
    }

    /// Writes the full 64-byte cacheline `line`.
    pub fn write_line(&mut self, line: Line, data: &[u8; CACHELINE_BYTES as usize]) {
        self.write(line.start(), data);
    }

    /// Number of pages not shared with `base` (what copy-on-write copied).
    #[cfg(test)]
    pub(crate) fn private_pages(&self, base: &Media) -> usize {
        let pairs = self.pages.iter().zip(&base.pages);
        pairs.filter(|(a, b)| !Arc::ptr_eq(a, b)).count()
    }

    /// FNV-1a over every byte in address order: the fingerprint the pinned
    /// crash-image regressions and the recovery idempotence gate compare.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for chunk in self.chunks() {
            for &b in chunk {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        }
        h
    }

    /// The raw bytes as consecutive chunks in address order (for
    /// checksum-style validation in tests); their concatenation is the
    /// whole media, exactly [`Media::len`] bytes.
    pub fn chunks(&self) -> impl Iterator<Item = &[u8]> {
        self.pages.iter().enumerate().map(|(i, page)| {
            let rest = self.len as usize - i * PAGE_BYTES;
            &page[..rest.min(PAGE_BYTES)]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_bytes() {
        let mut m = Media::new(1024);
        m.write(100, &[1, 2, 3, 4]);
        assert_eq!(m.read_vec(100, 4), vec![1, 2, 3, 4]);
        // Untouched bytes stay zero.
        assert_eq!(m.read_vec(104, 2), vec![0, 0]);
    }

    #[test]
    fn roundtrip_u64() {
        let mut m = Media::new(1024);
        m.write_u64(8, 0xdead_beef_cafe_f00d);
        assert_eq!(m.read_u64(8), 0xdead_beef_cafe_f00d);
    }

    #[test]
    fn line_roundtrip() {
        let mut m = Media::new(1024);
        let data = [7u8; 64];
        m.write_line(Line(2), &data);
        assert_eq!(m.read_line(Line(2)), data);
        assert_eq!(m.read_vec(128, 64), vec![7u8; 64]);
    }

    #[test]
    fn capacity_rounds_to_line() {
        let m = Media::new(100);
        assert_eq!(m.len(), 128);
        assert!(!m.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let m = Media::new(64);
        let mut b = [0u8; 8];
        m.read(60, &mut b);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_write_past_partial_last_page_panics() {
        // The last page is allocated whole; its tail is still out of range.
        let mut m = Media::new(PAGE_BYTES as u64 + 64);
        m.write(PAGE_BYTES as u64 + 60, &[1; 8]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn offset_overflow_panics() {
        let m = Media::new(64);
        m.read(u64::MAX - 3, &mut [0u8; 8]);
    }

    #[test]
    fn clone_is_independent() {
        let mut a = Media::new(128);
        a.write(0, &[9]);
        let mut b = a.clone();
        b.write(0, &[5]);
        a.write(1, &[7]);
        assert_eq!(a.read_vec(0, 2), vec![9, 7]);
        assert_eq!(b.read_vec(0, 2), vec![5, 0]);
    }

    #[test]
    fn fresh_media_shares_one_zero_page() {
        let m = Media::new(64 << 20);
        assert_eq!(m.pages.len(), (64 << 20) / PAGE_BYTES);
        assert!(m.pages.iter().all(|p| Arc::ptr_eq(p, &m.pages[0])));
        assert_eq!(Arc::strong_count(&m.pages[0]), m.pages.len());
    }

    #[test]
    fn write_after_clone_copies_only_the_touched_pages() {
        let mut live = Media::new(1 << 20);
        let touched = [0u64, 5, 6, 200];
        for &p in &touched {
            live.write(p * PAGE_BYTES as u64, &[1]);
        }
        let snap = live.clone();
        assert_eq!(live.private_pages(&snap), 0, "a clone copies nothing");
        // Re-writing the k touched pages un-shares exactly those k pages,
        // once each.
        for round in 0..2 {
            for &p in &touched {
                live.write(p * PAGE_BYTES as u64 + 8, &[2 + round]);
            }
            assert_eq!(live.private_pages(&snap), touched.len());
        }
        assert_eq!(snap.read_vec(8, 1), vec![0], "the snapshot kept its bytes");
        assert_ne!(live, snap);
    }

    #[test]
    fn access_straddling_a_page_edge() {
        let mut m = Media::new(3 * PAGE_BYTES as u64);
        let base = m.clone();
        let data: Vec<u8> = (1..=16).collect();
        m.write(4090, &data);
        assert_eq!(m.read_vec(4090, 16), data);
        assert_eq!(m.read_vec(4095, 2), vec![6, 7]);
        assert_eq!(m.read_vec(4089, 1), vec![0]);
        assert_eq!(m.read_vec(4106, 1), vec![0]);
        assert_eq!(m.private_pages(&base), 2);
        // A span over a whole middle page plus both neighbours' edges.
        let big = vec![0xEE; PAGE_BYTES + 20];
        m.write(PAGE_BYTES as u64 - 10, &big);
        assert_eq!(m.read_vec(PAGE_BYTES as u64 - 10, big.len() as u64), big);
    }

    #[test]
    fn length_not_a_page_multiple() {
        let len = PAGE_BYTES as u64 + 3 * 64;
        let mut m = Media::new(len);
        assert_eq!(m.len(), len);
        m.write_line(Line(len / 64 - 1), &[0xAB; 64]);
        assert_eq!(m.read_vec(len - 64, 64), vec![0xAB; 64]);
        // Chunks concatenate to exactly `len` bytes, in address order.
        let bytes: Vec<u8> = m.chunks().flatten().copied().collect();
        assert_eq!(bytes.len() as u64, len);
        assert_eq!(bytes, m.read_vec(0, len));
        assert_eq!(Media::new(0).chunks().count(), 0);
    }

    #[test]
    fn equality_is_by_bytes() {
        let mut a = Media::new(2 * PAGE_BYTES as u64);
        let mut b = Media::new(2 * PAGE_BYTES as u64);
        assert_eq!(a, b);
        a.write(5000, &[1]);
        assert_ne!(a, b);
        b.write(5000, &[1]); // equal bytes in distinct private pages
        assert_eq!(a, b);
        assert_ne!(a, Media::new(PAGE_BYTES as u64));
    }
}
