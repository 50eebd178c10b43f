//! Identity of one crash-campaign probe.
//!
//! Every §7.1 campaign (workloads crate) checks recovery against a *chosen*
//! failure: a machine crash at a deterministic durability-event site with a
//! chosen subset of the maybe-persisted lines on media, the same inside
//! `recover()` itself, or the death of one mutator thread at a chosen
//! event ordinal. A failure is fully identified, and byte-identically
//! replayable, from the [`ProbeId`] recorded here. Its [`Display`] text is
//! what campaigns print and [`FromStr`] inverts it, so a printed failure
//! pastes straight back into the replay tool.
//!
//! [`Display`]: fmt::Display
//! [`FromStr`]: std::str::FromStr

use std::fmt;
use std::str::FromStr;

/// The replayable identity of one explored failure.
///
/// * `seed` seeds the whole run (machine RNG + target selection), making
///   site IDs deterministic;
/// * `site_id` names the durability event the image was captured at (or
///   the victim's event ordinal, for a thread kill);
/// * `subset_mask` selects which maybe-persisted lines the materialized
///   image contains (bit `i` ⇒ entry `i` of the site's
///   `ffccd_pmem::MaybeSet` persisted).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProbeId {
    /// Machine/plan seed of the run.
    pub seed: u64,
    /// Deterministic crash-site ID within that run. For recovery-phase
    /// probes this packs `outer_site << 32 | recovery_site` (see
    /// [`ProbeId::nested`]); for thread kills it is the kill ordinal.
    pub site_id: u64,
    /// Subset bitmask over the first 64 entries of the site's
    /// maybe-persisted set.
    pub subset_mask: u64,
    /// Which tracking window the site belongs to.
    pub phase: ProbePhase,
    /// Mutator threads of a machine-crash run; above 1 the run is the
    /// seeded multi-threaded driver. Thread kills keep 1.
    pub threads: usize,
}

/// Which execution phase a probe's site was enumerated in. The two
/// machine-crash phases mirror `ffccd_pmem::SitePhase`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ProbePhase {
    /// Site fired during workload + defragmentation execution.
    #[default]
    Mutator,
    /// Site fired inside `recover()` running on an outer crash image
    /// (nested crash: the §7.1d campaign).
    Recovery,
    /// Not a machine crash: mutator thread `victim` dies at its
    /// `site_id`-th durability event while the others keep running (the
    /// §7.1e campaign).
    ThreadKill {
        /// Index of the killed thread.
        victim: usize,
    },
}

impl ProbeId {
    /// Builds a mutator-phase triple.
    pub fn new(seed: u64, site_id: u64, subset_mask: u64) -> Self {
        ProbeId {
            seed,
            site_id,
            subset_mask,
            phase: ProbePhase::Mutator,
            threads: 1,
        }
    }

    /// Builds a recovery-phase probe: the workload crashed at mutator site
    /// `outer_site`, recovery ran on that image and was itself crashed at
    /// `recovery_site`, and `subset_mask` selects the nested image's
    /// maybe-persisted subset. Both site IDs must fit 32 bits (runs fire
    /// well under 2³² sites).
    pub fn nested(seed: u64, outer_site: u64, recovery_site: u64, subset_mask: u64) -> Self {
        assert!(
            outer_site < (1 << 32) && recovery_site < (1 << 32),
            "site ids exceed the 32-bit packing"
        );
        ProbeId {
            site_id: outer_site << 32 | recovery_site,
            phase: ProbePhase::Recovery,
            ..ProbeId::new(seed, 0, subset_mask)
        }
    }

    /// Builds a thread-kill probe: thread `victim` dies at its
    /// `kill_site`-th durability event.
    pub fn thread_kill(seed: u64, kill_site: u64, victim: usize) -> Self {
        ProbeId {
            phase: ProbePhase::ThreadKill { victim },
            ..ProbeId::new(seed, kill_site, 0)
        }
    }

    /// The same probe in a run of `threads` mutator threads.
    pub fn with_threads(self, threads: usize) -> Self {
        ProbeId { threads, ..self }
    }

    /// Mutator-phase crash site the recovery ran from (recovery-phase
    /// probes; equals `site_id` otherwise).
    pub fn outer_site(&self) -> u64 {
        match self.phase {
            ProbePhase::Recovery => self.site_id >> 32,
            _ => self.site_id,
        }
    }

    /// Site within the recovery tracking window (recovery-phase probes).
    pub fn recovery_site(&self) -> u64 {
        match self.phase {
            ProbePhase::Recovery => self.site_id & 0xFFFF_FFFF,
            _ => 0,
        }
    }
}

impl fmt::Display for ProbeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(seed=0x{:x}, ", self.seed)?;
        match self.phase {
            ProbePhase::ThreadKill { victim } => {
                return write!(f, "kill_site={}, victim={victim})", self.site_id);
            }
            ProbePhase::Mutator => write!(f, "site={}", self.site_id)?,
            ProbePhase::Recovery => write!(
                f,
                "site={}/{}, phase=recovery",
                self.outer_site(),
                self.recovery_site()
            )?,
        }
        write!(f, ", subset=0x{:x}", self.subset_mask)?;
        if self.threads > 1 {
            write!(f, ", threads={}", self.threads)?;
        }
        write!(f, ")")
    }
}

fn number(s: &str) -> Result<u64, String> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    }
    .map_err(|e| format!("bad number {s:?}: {e}"))
}

impl FromStr for ProbeId {
    type Err = String;

    /// Parses exactly what [`Display`](fmt::Display) prints.
    fn from_str(s: &str) -> Result<Self, String> {
        let body = s
            .trim()
            .strip_prefix('(')
            .and_then(|b| b.strip_suffix(')'))
            .ok_or_else(|| format!("probe must look like (seed=0x…, site=…, subset=0x…): {s:?}"))?;
        let mut fields = Vec::new();
        for field in body.split(',') {
            let (key, value) = field
                .trim()
                .split_once('=')
                .ok_or_else(|| format!("probe field {field:?} is not key=value"))?;
            const KEYS: [&str; 7] = [
                "seed",
                "site",
                "phase",
                "subset",
                "threads",
                "kill_site",
                "victim",
            ];
            if !KEYS.contains(&key) {
                return Err(format!("unknown probe field {key:?}"));
            }
            fields.push((key, value));
        }
        let get = |key: &str| fields.iter().find(|(k, _)| *k == key).map(|(_, v)| *v);
        let need = |key: &str| get(key).ok_or_else(|| format!("probe is missing {key}="));
        let seed = number(need("seed")?)?;
        let threads = get("threads").map(number).transpose()?;
        if let Some(t) = threads.filter(|&t| t < 2 || get("kill_site").is_some()) {
            return Err(format!("threads={t} is never printed on this probe"));
        }
        if let Some(kill_site) = get("kill_site") {
            let victim = number(need("victim")?)? as usize;
            return Ok(ProbeId::thread_kill(seed, number(kill_site)?, victim));
        }
        let mask = number(need("subset")?)?;
        let probe = match (need("site")?.split_once('/'), get("phase")) {
            (None, None) => ProbeId::new(seed, number(need("site")?)?, mask),
            (Some((outer, inner)), Some("recovery")) => {
                let (outer, inner) = (number(outer)?, number(inner)?);
                if outer >= 1 << 32 || inner >= 1 << 32 {
                    return Err(format!("site ids {outer}/{inner} exceed 32 bits"));
                }
                ProbeId::nested(seed, outer, inner, mask)
            }
            _ => return Err("site=OUTER/INNER and phase=recovery go together".to_owned()),
        };
        Ok(probe.with_threads(threads.unwrap_or(1) as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_the_replay_triple() {
        let p = ProbeId::new(0x517e01, 42, 0b1011);
        assert_eq!(p.to_string(), "(seed=0x517e01, site=42, subset=0xb)");
        assert_eq!(
            ProbeId::thread_kill(0x7c4a01, 2681, 0).to_string(),
            "(seed=0x7c4a01, kill_site=2681, victim=0)"
        );
        assert_eq!(
            p.with_threads(4).to_string(),
            "(seed=0x517e01, site=42, subset=0xb, threads=4)"
        );
    }

    #[test]
    fn ordering_is_by_site_then_mask() {
        let a = ProbeId::new(1, 2, 9);
        let b = ProbeId::new(1, 3, 0);
        assert!(a < b);
        assert_eq!(a, ProbeId::new(1, 2, 9));
    }

    #[test]
    fn nested_probe_packs_and_displays_both_sites() {
        let p = ProbeId::nested(0xadfe00, 120_000, 37, 0b101);
        assert_eq!(p.outer_site(), 120_000);
        assert_eq!(p.recovery_site(), 37);
        assert_eq!(p.phase, ProbePhase::Recovery);
        assert_eq!(
            p.to_string(),
            "(seed=0xadfe00, site=120000/37, phase=recovery, subset=0x5)"
        );
        // Same (outer, inner) numbers in mutator phase are a distinct probe.
        assert_ne!(p, ProbeId::new(0xadfe00, 120_000 << 32 | 37, 0b101));
    }

    /// A mask addresses the first 64 maybe-set entries and nothing else: a
    /// pasted `window=` field is refused, not dropped, since the same mask
    /// without it would replay a different image.
    #[test]
    fn a_window_field_is_rejected() {
        let err = "(seed=0x517e02, site=120000, subset=0x15a5a, window=64)"
            .parse::<ProbeId>()
            .expect_err("window= is not a probe field");
        assert!(err.contains("unknown probe field \"window\""), "{err}");
    }
}
