//! Pool media layout: header, persistent bitmaps, GC metadata, data frames.

/// Allocation granularity: 16-byte slots (glibc alignment, paper §4.3.1).
pub const SLOT_BYTES: u64 = 16;

/// Compaction / forwarding-table granularity: 4 KiB frames. Huge OS pages
/// still use 4 KiB granularity for forwarding info (paper §4.3.1).
pub const FRAME_BYTES: u64 = 4096;

/// Object header preceding every payload: `type_id:u32 | size:u32` packed in
/// word 0, word 1 reserved.
pub const OBJ_HEADER_BYTES: u64 = 16;

/// Byte offsets of the regions inside a pool's media.
///
/// ```text
/// 0                 header frame (root ptr, geometry, magic)
/// bitmaps_start     one 64-byte record per frame:
///                     bytes 0..32  alloc bitmap (1 bit per 16-byte slot)
///                     bytes 32..64 object-start bitmap
/// meta_start        GC metadata arena (owned by the ffccd crate: cycle
///                     header, moved bitmaps, reached bitmap, PMFT)
/// data_start        num_frames × 4 KiB data frames
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolLayout {
    /// Total media bytes.
    pub total_bytes: u64,
    /// Number of 4 KiB data frames.
    pub num_frames: u64,
    /// OS page size for footprint accounting (4 KiB or 2 MiB).
    pub os_page_size: u64,
    /// Start of the per-frame persistent bitmap records.
    pub bitmaps_start: u64,
    /// Start of the GC metadata arena.
    pub meta_start: u64,
    /// Bytes reserved for GC metadata.
    pub meta_len: u64,
    /// Start of data frames.
    pub data_start: u64,
}

/// Bytes of GC metadata reserved per frame: moved bitmap (32 B) + reached
/// bitmap word (8 B) + PMFT entry (≈259 B rounded to 320 B) + cycle header
/// amortization.
pub const META_BYTES_PER_FRAME: u64 = 384;

/// Fixed header size (one frame).
pub const HEADER_BYTES: u64 = FRAME_BYTES;

impl PoolLayout {
    /// Computes the layout for `data_bytes` of heap with `os_page_size`
    /// footprint granularity.
    ///
    /// # Panics
    ///
    /// Panics if `os_page_size` is not a multiple of [`FRAME_BYTES`] or
    /// `data_bytes` is zero.
    pub fn compute(data_bytes: u64, os_page_size: u64) -> Self {
        assert!(data_bytes > 0, "pool must have data space");
        assert!(
            os_page_size >= FRAME_BYTES && os_page_size.is_multiple_of(FRAME_BYTES),
            "OS page size must be a multiple of the 4 KiB frame"
        );
        // Round data up to whole OS pages.
        let data_bytes = data_bytes.div_ceil(os_page_size) * os_page_size;
        let num_frames = data_bytes / FRAME_BYTES;
        let bitmaps_len = num_frames * 64;
        let meta_len = num_frames * META_BYTES_PER_FRAME + FRAME_BYTES;
        let bitmaps_start = HEADER_BYTES;
        let meta_start = align_up(bitmaps_start + bitmaps_len, FRAME_BYTES);
        let data_start = align_up(meta_start + meta_len, os_page_size);
        PoolLayout {
            total_bytes: data_start + data_bytes,
            num_frames,
            os_page_size,
            bitmaps_start,
            meta_start,
            meta_len,
            data_start,
        }
    }

    /// Frames per OS page.
    pub fn frames_per_os_page(&self) -> u64 {
        self.os_page_size / FRAME_BYTES
    }

    /// Number of OS pages in the data region.
    pub fn num_os_pages(&self) -> u64 {
        self.num_frames / self.frames_per_os_page()
    }

    /// Byte offset of data frame `frame`.
    pub fn frame_start(&self, frame: u64) -> u64 {
        debug_assert!(frame < self.num_frames);
        self.data_start + frame * FRAME_BYTES
    }

    /// Data frame containing pool byte offset `off`, or `None` if `off` is
    /// outside the data region.
    pub fn frame_of(&self, off: u64) -> Option<u64> {
        if off < self.data_start || off >= self.data_start + self.num_frames * FRAME_BYTES {
            return None;
        }
        Some((off - self.data_start) / FRAME_BYTES)
    }

    /// OS page index of data frame `frame`.
    pub fn os_page_of_frame(&self, frame: u64) -> u64 {
        frame / self.frames_per_os_page()
    }

    /// Byte offset of the 64-byte bitmap record for `frame`.
    pub fn bitmap_record(&self, frame: u64) -> u64 {
        debug_assert!(frame < self.num_frames);
        self.bitmaps_start + frame * 64
    }
}

fn align_up(v: u64, a: u64) -> u64 {
    v.div_ceil(a) * a
}

// -- header field offsets (within frame 0) -----------------------------------

/// Pool header magic value (the groups spell FFCCD / ISCA / 2022).
#[allow(clippy::unusual_byte_groupings)]
pub const POOL_MAGIC: u64 = 0xFFCC_D_15C_A220_22;
/// Offset of the magic word.
pub const HDR_MAGIC: u64 = 0;
/// Offset of the OS page size word.
pub const HDR_OS_PAGE: u64 = 8;
/// Offset of the frame count word.
pub const HDR_NUM_FRAMES: u64 = 16;
/// Offset of the root pointer word.
pub const HDR_ROOT: u64 = 24;
/// Offset of a reserved word that once held a heap shard count. Nothing
/// writes it any more; a value above 1 marks media from a sharded heap,
/// which pool open and recovery refuse rather than misread as one heap.
pub const HDR_SHARDS: u64 = 32;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_do_not_overlap() {
        for (data, page) in [(1 << 20, 4096), (8 << 20, 2 << 20), (4097, 4096)] {
            let l = PoolLayout::compute(data, page);
            assert!(l.bitmaps_start >= HEADER_BYTES);
            assert!(l.meta_start >= l.bitmaps_start + l.num_frames * 64);
            assert!(l.data_start >= l.meta_start + l.meta_len);
            assert_eq!(l.data_start % page, 0);
            assert_eq!(l.total_bytes, l.data_start + l.num_frames * FRAME_BYTES);
        }
    }

    #[test]
    fn frame_math_roundtrips() {
        let l = PoolLayout::compute(1 << 20, 4096);
        for f in [0, 1, l.num_frames - 1] {
            let start = l.frame_start(f);
            assert_eq!(l.frame_of(start), Some(f));
            assert_eq!(l.frame_of(start + FRAME_BYTES - 1), Some(f));
        }
        assert_eq!(l.frame_of(0), None, "header is not a data frame");
        assert_eq!(l.frame_of(l.data_start - 1), None);
    }

    #[test]
    fn huge_pages_group_frames() {
        let l = PoolLayout::compute(8 << 20, 2 << 20);
        assert_eq!(l.frames_per_os_page(), 512);
        assert_eq!(l.num_os_pages(), 4);
        assert_eq!(l.os_page_of_frame(511), 0);
        assert_eq!(l.os_page_of_frame(512), 1);
    }

    #[test]
    fn data_rounds_up_to_os_pages() {
        let l = PoolLayout::compute(5000, 4096);
        assert_eq!(l.num_frames, 2);
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn bad_page_size_panics() {
        let _ = PoolLayout::compute(1 << 20, 1000);
    }
}
