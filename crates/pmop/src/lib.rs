//! PMOP programming model — a `libpmemobj`-like persistent object pool.
//!
//! The FFCCD paper builds on three properties of PM programming models
//! (paper §3.1) that make compacting GC possible in C/C++:
//!
//! 1. **Root nodes** — every pool records the entry points of its data
//!    structures ([`PmPool::set_root`] / [`PmPool::root`]).
//! 2. **Typed allocation** — every object records a [`TypeId`] whose
//!    [`TypeDesc`] tells the GC which payload words are references, so
//!    pointers and integers are never confused.
//! 3. **Offset-based persistent pointers** ([`PmPtr`]) — dereferencing goes
//!    through an API (`D_RW`/`D_RO`, implemented in the `ffccd` crate), which
//!    is exactly where a concurrent GC's read barrier can live.
//!
//! The allocator models PMDK's behaviour that matters for fragmentation:
//! objects are carved from 4 KiB *frames* in 16-byte slots; frames group
//! into OS pages (4 KiB or 2 MiB); a page's memory is committed on first use
//! and **never decommitted by the baseline allocator** — only defragmentation
//! releases pages. The fragmentation ratio (footprint / live bytes) is the
//! paper's Figure 1 metric.
//!
//! # Example
//!
//! ```
//! use ffccd_pmem::Ctx;
//! use ffccd_pmop::{PmPool, PoolConfig, TypeDesc, TypeRegistry};
//!
//! let mut reg = TypeRegistry::new();
//! let node = reg.register(TypeDesc::new("node", 16, &[8])); // one ref at offset 8
//! let pool = PmPool::create(PoolConfig::small_for_tests(), reg)?;
//! let mut ctx = Ctx::new(pool.machine());
//! let obj = pool.pmalloc(&mut ctx, node, 16)?;
//! pool.write_u64(&mut ctx, obj, 0, 42);
//! assert_eq!(pool.read_u64(&mut ctx, obj, 0), 42);
//! pool.pfree(&mut ctx, obj)?;
//! # Ok::<(), ffccd_pmop::PoolError>(())
//! ```

#![warn(missing_docs)]

mod error;
mod frame;
mod layout;
mod pool;
mod ptr;
mod types;

pub use error::PoolError;
pub use frame::{FrameKind, FrameState, SLOTS_PER_FRAME};
pub use layout::{PoolLayout, FRAME_BYTES, HDR_ROOT, HDR_SHARDS, OBJ_HEADER_BYTES, SLOT_BYTES};
pub use pool::{peek_all_objects, FrameObject, PmPool, PoolConfig, PoolStats};
pub use ptr::PmPtr;
pub use types::{TypeDesc, TypeId, TypeRegistry};
