//! Workloads for the FFCCD evaluation (paper §6):
//!
//! * five microbenchmarks — [`LinkedList`], [`AvlTree`], [`StringSwap`],
//!   [`BplusTree`], [`RbTree`];
//! * four applications — [`BzTree`] and [`FpTree`] (concurrent PM range
//!   indexes), [`Echo`] and [`Pmemkv`] (PM key-value stores);
//! * the Redis case study ([`redis::RedisLru`]); the Mesh and STW
//!   comparator defragmenters live on `ffccd::DefragHeap` itself
//!   (Figure 16);
//! * the [`driver`] running the paper's insert/delete phase mix while
//!   pumping concurrent defragmentation and sampling fragmentation;
//! * the §7.1 crash campaigns, three modules: the [`campaign`] pipeline
//!   they share; [`faults`], the one machine-crash sweep (§7.1b base
//!   images, §7.1c maybe-persisted subsets at captured crash sites, §7.1d
//!   crashes *inside recovery* judged by idempotent re-recovery); and
//!   [`thread_crash`], which kills K of N mutator threads (§7.1e).
//!
//! Every structure is built strictly on the `ffccd::DefragHeap` public API:
//! typed allocation, persistent pointers through `load_ref`/`store_ref`
//! read barriers, and explicit persistence — exactly like a PMDK program.

#![warn(missing_docs)]

pub mod campaign;
pub mod driver;
pub mod faults;
pub mod par;
pub mod thread_crash;
pub mod util;

mod avl;
mod btree;
mod bztree;
mod detectable_queue;
mod echo;
mod fptree;
mod linked_list;
mod pmemkv;
mod rbtree;
pub mod redis;
mod string_swap;
mod workload;

pub use avl::AvlTree;
pub use btree::BplusTree;
pub use bztree::BzTree;
pub use detectable_queue::DetectableQueue;
pub use echo::Echo;
pub use fptree::FpTree;
pub use linked_list::LinkedList;
pub use pmemkv::Pmemkv;
pub use rbtree::RbTree;
pub use string_swap::StringSwap;
pub use workload::Workload;
