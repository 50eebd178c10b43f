//! Simulated persistent memory (PM) substrate for the FFCCD reproduction.
//!
//! The FFCCD paper (ISCA'22) evaluates on the Sniper cycle-level simulator
//! with an ADR (asynchronous DRAM refresh) persistence domain: stores become
//! durable only once they reach the memory controller's *write pending queue*
//! (WPQ) or the PM media itself. Everything the paper's crash-consistency
//! argument rests on — "a cacheline written by `relocate` may or may not have
//! reached the persistence domain when the machine dies" — is modelled here:
//!
//! * [`Media`] — the persistent bytes; the only state surviving a crash.
//! * [`CacheSim`] — a volatile cache holding dirty (and clean) cachelines,
//!   each line carrying the FFCCD *pending* bit set by the `relocate`
//!   instruction. Lines leave the cache via `clwb`, capacity eviction, or
//!   seeded background eviction (the "natural writeback" the fence-free
//!   design relies on).
//! * [`Wpq`] — the write pending queue inside the persistence domain; drained
//!   by `sfence`, by capacity pressure, and by ADR on power failure.
//! * [`PmEngine`] — ties the above together, charges cycles from a
//!   [`MachineConfig`] (Table 2 of the paper), and produces non-destructive
//!   [`CrashImage`]s for fault injection.
//! * [`Ctx`] — a per-thread execution context: cycle counter, stat counters
//!   and a private TLB (fragmentation → TLB pressure → throughput loss, the
//!   effect behind Figure 1 of the paper).
//!
//! # Example
//!
//! ```
//! use ffccd_pmem::{Ctx, MachineConfig, PmEngine};
//!
//! let engine = PmEngine::new(MachineConfig::default(), 1 << 20);
//! let mut ctx = Ctx::new(engine.config());
//! engine.write(&mut ctx, 128, b"hello");
//! engine.clwb(&mut ctx, 128);
//! engine.sfence(&mut ctx);
//! let img = engine.crash_image();
//! assert_eq!(&img.media().read_vec(128, 5), b"hello");
//! ```

#![warn(missing_docs)]

mod addr;
mod cache;
mod crash;
mod ctx;
mod directory;
mod engine;
mod fxhash;
mod media;
mod observer;
mod sites;
mod stats;
mod timing;
mod tlb;
mod wpq;

pub use addr::{line_of, line_start, lines_spanning, Line, CACHELINE_BYTES};
pub use cache::{CacheLine, CacheSim};
pub use crash::{CrashImage, MaybeLine, MaybeOrigin, MaybeSet, SubsetMaskError};
pub use ctx::{Ctx, ThreadCrashArm, ThreadCrashUnwind, THREAD_CRASH_OBSERVE};
pub use engine::PmEngine;
pub use media::Media;
pub use observer::{NullObserver, PersistObserver};
pub use sites::{SiteCapture, SiteKind, SitePhase, SiteSummary, SiteTrace};
pub use stats::{EngineStats, ThreadStats};
pub use timing::MachineConfig;
pub use tlb::Tlb;
pub use wpq::{Wpq, WpqEntry};
