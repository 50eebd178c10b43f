//! What the `sec7_1` campaign binary and the `replay_site` tool share: the
//! names campaigns print for workloads and schemes — so a printed failure
//! pastes back as `replay_site <workload> <scheme> '<probe>'`.

use ffccd::Scheme;
use ffccd_workloads::{
    AvlTree, BplusTree, BzTree, DetectableQueue, Echo, FpTree, LinkedList, Pmemkv, RbTree,
    StringSwap, Workload,
};

pub use ffccd_workloads::campaign::sec71_config;

/// A boxed workload constructor; `Send + Sync` so campaign settings can
/// fan out across threads.
pub type Factory = Box<dyn Fn() -> Box<dyn Workload> + Send + Sync>;

/// The workload a campaign table row names.
pub fn campaign_workload(name: &str) -> Option<Factory> {
    Some(match name {
        "LL" => Box::new(|| Box::new(LinkedList::new())),
        "DQ" => Box::new(|| Box::new(DetectableQueue::new())),
        "AVL" => Box::new(|| Box::new(AvlTree::new())),
        "SS" => Box::new(|| Box::new(StringSwap::new())),
        "BT" => Box::new(|| Box::new(BplusTree::new())),
        "RBT" => Box::new(|| Box::new(RbTree::new())),
        "BzTree" => Box::new(|| Box::new(BzTree::new())),
        "FPTree" => Box::new(|| Box::new(FpTree::new())),
        "Echo" => Box::new(|| Box::new(Echo::new())),
        "pmemkv" => Box::new(|| Box::new(Pmemkv::new())),
        _ => return None,
    })
}

/// The command-line key of a campaign scheme.
pub fn scheme_key(scheme: Scheme) -> &'static str {
    match scheme {
        Scheme::Espresso => "espresso",
        Scheme::Sfccd => "sfccd",
        Scheme::FfccdFenceFree => "ffccd",
        Scheme::FfccdCheckLookup => "checklookup",
        Scheme::Baseline => "baseline",
    }
}

/// Inverse of [`scheme_key`].
pub fn parse_scheme(key: &str) -> Option<Scheme> {
    let mut schemes = crate::FIG_SCHEMES.into_iter();
    schemes.find(|s| scheme_key(*s) == key)
}
