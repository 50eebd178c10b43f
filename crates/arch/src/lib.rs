//! Architecture support for FFCCD (paper §4).
//!
//! Three pieces of hardware make the fence-free design possible:
//!
//! * [`relocate()`] — a copy instruction that tags every destination cacheline
//!   with a *pending* bit; when a tagged line drains from the WPQ into PM,
//!   the [`Rbb`] (Reached Bitmap Buffer, a tiny cache in the memory
//!   controller) records it in the persistent *reached bitmap*. Recovery
//!   reads that bitmap to tell "not reached" from "partially reached"
//!   objects (§4.2).
//! * [`Pmft`] — the PM-aware forwarding table (§4.3.1): offset-based (hence
//!   crash-consistent under remapping), one entry per relocation frame with
//!   a *major distance* (destination frame) and a *minor distance map*
//!   (16-byte-granular slot mapping).
//! * [`CheckLookupUnit`] — the `checklookup` instruction (§4.3.2): a Bloom
//!   Filter Cache rejects non-relocation addresses in 2 cycles; hits go to
//!   the PMFT look-aside buffer (PMFTLB) and only rarely to memory.
//!
//! Everything is modelled at the same timing granularity as `ffccd-pmem`
//! (Table 2 latencies); hardware-internal traffic (RBB writebacks) charges
//! no application cycles, matching the paper's asynchronous design.

#![warn(missing_docs)]

mod bloom;
mod checklookup;
mod cost;
mod hashed_ft;
mod meta;
mod pmft;
mod rbb;
mod relocate;

pub use bloom::BloomFilter;
pub use checklookup::{CheckLookupUnit, LookupResult};
pub use cost::{hardware_cost_table, in_memory_cost_table, HardwareCostRow};
pub use hashed_ft::{HashedFt, HashedFtEntry};
pub use meta::{GcMetaLayout, MOVED_BITMAP_BYTES};
pub use pmft::{Pmft, PmftEntry, MINOR_NONE, PMFT_ENTRY_BYTES};
pub use rbb::{reached_word, Rbb};
pub use relocate::relocate;
