//! Hook connecting the persistence domain to FFCCD's reached-bitmap hardware.

use crate::addr::Line;
use crate::media::Media;

/// Observer invoked by the engine when lines cross into durability.
///
/// The FFCCD Reached Bitmap Buffer (`ffccd-arch::Rbb`) implements this: each
/// *pending* line that drains from the WPQ to media sets the line's bit in
/// the reached bitmap (paper Figure 10, steps 3–5), and on power failure the
/// buffered bitmap words are flushed to media alongside the WPQ (§4.2 "after
/// power off, the content in RBB will be flushed into PM").
///
/// Methods receive `&mut Media` directly because the RBB lives in the memory
/// controller: its writes do not traverse the cache hierarchy and charge no
/// application-thread cycles (its latency is charged to `relocate`).
pub trait PersistObserver: Send + Sync {
    /// A line carrying the pending bit has reached media during normal
    /// operation.
    fn pending_line_persisted(&self, media: &mut Media, line: Line);

    /// Power failure: persist all buffered observer state into `media`, plus
    /// the `in_flight` pending lines that ADR is draining from the WPQ.
    ///
    /// Must not mutate the observer itself — the engine also uses this for
    /// *non-destructive* crash snapshots (`PmEngine::crash_image`), where the
    /// live run continues afterwards.
    fn crash_flush(&self, media: &mut Media, in_flight: &[Line]);

    /// The media fixup recording `line` as *reached*, as `(media offset of
    /// the bitmap word, OR mask)` — or `None` when the observer does not
    /// track the line (outside the data region, or no reached bitmap at
    /// all, the default).
    ///
    /// The adversarial persistence explorer uses this to materialize crash
    /// images in which a *pending* maybe-persisted line is chosen to have
    /// persisted: whenever such a line reaches media, the hardware reached
    /// bitmap records it atomically (WPQ drain and RBB update are one
    /// event), so the subset image must apply the same fixup. It is a pure
    /// function of the observer's address layout — independent of buffered
    /// state — so it stays valid after the capture's snapshot.
    fn line_reached_fixup(&self, line: Line) -> Option<(u64, u64)> {
        let _ = line;
        None
    }
}

/// A no-op observer for schemes without FFCCD hardware (Espresso, SFCCD).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl PersistObserver for NullObserver {
    fn pending_line_persisted(&self, _media: &mut Media, _line: Line) {}
    fn crash_flush(&self, _media: &mut Media, _in_flight: &[Line]) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_observer_does_nothing() {
        let obs = NullObserver;
        let mut m = Media::new(128);
        obs.pending_line_persisted(&mut m, Line(0));
        obs.crash_flush(&mut m, &[Line(1)]);
        assert!(m.chunks().flatten().all(|&b| b == 0));
    }
}
