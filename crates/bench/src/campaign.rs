//! What the `sec7_1` campaign binary and the `replay_site` tool share: the
//! campaign environment variables (read once, here), and the names
//! campaigns print for workloads and schemes — so a printed failure pastes
//! back as `replay_site <workload> <scheme> '<probe>'`.

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

/// Every `FFCCD_*` variable that shapes a §7.1 campaign, parsed once.
/// (`FFCCD_SCALE` belongs to all binaries: [`crate::scale`].)
#[derive(Clone, Copy, Debug)]
pub struct CampaignArgs {
    /// `--smoke`: the CI geometry.
    pub smoke: bool,
    /// `FFCCD_SITE_BUDGET`: §7.1b sites per setting (default 64).
    pub site_budget: u64,
    /// `FFCCD_ADV_SITES`: §7.1c sites per setting (default 8, smoke 4).
    pub adv_sites: u64,
    /// `FFCCD_ADV_IMAGES`: §7.1c subsets per site (default 64, smoke 32).
    pub adv_images: u64,
    /// `FFCCD_ADV_WINDOW`: first maybe-set entry the §7.1c/d subset window
    /// covers (default 0).
    pub window_base: usize,
    /// `FFCCD_NESTED_OUTER`: §7.1d outer images (default 16, smoke 6).
    pub nested_outer: u64,
    /// `FFCCD_NESTED_SITES`: §7.1d recovery sites per outer image
    /// (default 8, smoke 3).
    pub nested_sites: u64,
    /// `FFCCD_NESTED_IMAGES`: §7.1d subsets per recovery site (default 64,
    /// smoke 16).
    pub nested_images: u64,
}

impl CampaignArgs {
    /// Reads the environment; unset or unparsable variables take the
    /// default of the chosen geometry.
    pub fn from_env(smoke: bool) -> Self {
        let var = |name: &str, full: u64, smoke_default: u64| {
            std::env::var(name)
                .ok()
                .and_then(|s| s.parse().ok())
                .unwrap_or(if smoke { smoke_default } else { full })
        };
        CampaignArgs {
            smoke,
            site_budget: var("FFCCD_SITE_BUDGET", 64, 64),
            adv_sites: var("FFCCD_ADV_SITES", 8, 4),
            adv_images: var("FFCCD_ADV_IMAGES", 64, 32),
            window_base: var("FFCCD_ADV_WINDOW", 0, 0) as usize,
            nested_outer: var("FFCCD_NESTED_OUTER", 16, 6),
            nested_sites: var("FFCCD_NESTED_SITES", 8, 3),
            nested_images: var("FFCCD_NESTED_IMAGES", 64, 16),
        }
    }
}
