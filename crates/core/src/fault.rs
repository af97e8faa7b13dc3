//! Deterministic fault injection for exercising the recovery paths.
//!
//! A [`FaultPlan`] is a pure function of a `u64` seed (SplitMix64, the
//! same generator the fuzz subsystem uses): equal seeds inject equal
//! faults, on every machine and at every thread count. Injection sites
//! are keyed by *logical* identity — a net id, a band index — never by
//! scheduling, so the fault pattern a plan produces is part of the
//! deterministic output contract the recovery machinery must preserve.
//!
//! The plan is carried as `Option<FaultPlan>` in
//! [`RouterConfig`](crate::RouterConfig); `None` (the default) costs one
//! `Option` check per band and per net, never anything per node.

use sadp_geom::Rng;

/// Which faults to inject, derived deterministically from a seed.
///
/// Two kinds of routing fault are injected, matching the two recovery
/// paths:
///
/// * **Band-worker panics** — [`FaultPlan::band_panic`] tells a band
///   worker to panic after routing k nets; the driver must catch it and
///   re-route the band serially with injection disabled.
/// * **Budget exhaustion** — [`FaultPlan::injects_net_budget`] makes a
///   net fail as if its search budget ran out; the driver must record it
///   as `BudgetExceeded` and keep going.
///
/// The serving layer draws persistence faults from the same plan
/// ([`FaultPlan::io_fault`]). Every kind reads its own stream of the
/// seed, so the kinds never shift each other's draws.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    /// Probability that a given band panics.
    band_panic_rate: f64,
    /// Probability that a given net's budget is exhausted.
    net_budget_rate: f64,
    /// Probability that a given persistence write is faulted.
    io_fault_rate: f64,
}

/// Which persisted artifact a write belongs to, for [`FaultPlan::io_fault`]
/// keying. The serving layer persists one of each per job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PersistKind {
    /// The job's submitted layout text.
    Layout,
    /// The job's metadata record.
    Meta,
    /// A `SADPCKPT` snapshot.
    Checkpoint,
    /// The terminal result line.
    Final,
}

impl PersistKind {
    fn stream_salt(self) -> u64 {
        match self {
            PersistKind::Layout => 0x1A70_u64,
            PersistKind::Meta => 0x3E7A,
            PersistKind::Checkpoint => 0xC4B7,
            PersistKind::Final => 0xF1A1,
        }
    }
}

/// An injected persistence fault, modelling the two ways real storage
/// betrays a daemon: a write that claims success but lands truncated
/// (torn write surviving a crash), and a write the filesystem refuses
/// outright (ENOSPC and friends).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFault {
    /// Write only the first `keep_bytes(len)` bytes, report success.
    /// The corruption is only discoverable by reading the file back —
    /// exactly what the quarantine path on daemon restart must catch.
    ShortWrite,
    /// Fail the write with an out-of-space-style I/O error.
    Enospc,
}

impl FaultPlan {
    /// The plan for `seed`, with default injection rates chosen so that
    /// small fixtures (a handful of bands, tens of nets) still trigger
    /// both fault kinds within a few seeds.
    #[must_use]
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            band_panic_rate: 0.5,
            net_budget_rate: 0.02,
            io_fault_rate: 0.25,
        }
    }

    /// The seed the plan was built from.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether — and after how many routed nets — the worker for `band`
    /// should panic. `nets` is the band's net count; the panic point is
    /// uniform in `0..nets` so faults hit the start, middle, and end of
    /// a band's schedule across seeds.
    #[must_use]
    pub fn band_panic(&self, band: usize, nets: usize) -> Option<usize> {
        if nets == 0 {
            return None;
        }
        // A distinct stream per (seed, band): mix the band index into the
        // seed the same way SplitMix64 advances its own state.
        let mut rng =
            Rng::seed_from_u64(self.seed ^ (band as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        if !rng.chance(self.band_panic_rate) {
            return None;
        }
        Some(rng.index(nets))
    }

    /// Whether `net`'s search budget should be treated as exhausted.
    /// Keyed by net id only, so serial, banded, and recovered schedules
    /// all see the identical fault set.
    #[must_use]
    pub fn injects_net_budget(&self, net: u32) -> bool {
        let mut rng = Rng::seed_from_u64(
            self.seed ^ 0xB10D_6E75 ^ u64::from(net).wrapping_mul(0x2545_F491_4F6C_DD1D),
        );
        rng.chance(self.net_budget_rate)
    }

    /// Whether — and how — the persistence write of `kind` for `job`
    /// should be faulted. Keyed by `(job, kind)` only, never by write
    /// attempt or wall-clock, so the fault set of a plan is identical
    /// across daemon restarts and retries: a faulted artifact stays
    /// faulted for the plan's lifetime, which is what makes the
    /// resulting corruption reproducible enough to test quarantine
    /// recovery against.
    #[must_use]
    pub fn io_fault(&self, job: u64, kind: PersistKind) -> Option<IoFault> {
        let mut rng = Rng::seed_from_u64(
            self.seed
                ^ 0x010F_A017_u64
                ^ kind.stream_salt().wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ job.wrapping_mul(0x2545_F491_4F6C_DD1D),
        );
        if !rng.chance(self.io_fault_rate) {
            return None;
        }
        Some(if rng.chance(0.5) {
            IoFault::ShortWrite
        } else {
            IoFault::Enospc
        })
    }

    /// How many bytes a [`IoFault::ShortWrite`] of a `len`-byte payload
    /// keeps: roughly half, and always strictly less than `len` for a
    /// non-empty payload, so the torn artifact can never parse clean.
    #[must_use]
    pub fn short_write_len(len: usize) -> usize {
        len / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_a_pure_function_of_the_seed() {
        let a = FaultPlan::new(99);
        let b = FaultPlan::new(99);
        for band in 0..32 {
            assert_eq!(a.band_panic(band, 17), b.band_panic(band, 17));
        }
        for net in 0..1000 {
            assert_eq!(a.injects_net_budget(net), b.injects_net_budget(net));
        }
    }

    #[test]
    fn band_panic_point_is_in_range() {
        for seed in 0..64 {
            let plan = FaultPlan::new(seed);
            for band in 0..8 {
                if let Some(k) = plan.band_panic(band, 12) {
                    assert!(k < 12);
                }
            }
        }
    }

    #[test]
    fn empty_band_never_panics() {
        assert_eq!(FaultPlan::new(3).band_panic(0, 0), None);
    }

    #[test]
    fn some_seed_triggers_each_fault_kind() {
        let band_hit = (0..32).any(|s| FaultPlan::new(s).band_panic(1, 10).is_some());
        assert!(band_hit, "no seed in 0..32 panics band 1");
        let budget_hit = (0..32).any(|s| (0..200).any(|n| FaultPlan::new(s).injects_net_budget(n)));
        assert!(budget_hit, "no seed in 0..32 exhausts any net budget");
    }

    #[test]
    fn io_faults_are_pure_and_cover_both_kinds() {
        let kinds = [
            PersistKind::Layout,
            PersistKind::Meta,
            PersistKind::Checkpoint,
            PersistKind::Final,
        ];
        let a = FaultPlan::new(7);
        let b = FaultPlan::new(7);
        for job in 0..64 {
            for kind in kinds {
                assert_eq!(a.io_fault(job, kind), b.io_fault(job, kind));
            }
        }
        let mut short = false;
        let mut enospc = false;
        for seed in 0..64 {
            let plan = FaultPlan::new(seed);
            for job in 1..16 {
                match plan.io_fault(job, PersistKind::Layout) {
                    Some(IoFault::ShortWrite) => short = true,
                    Some(IoFault::Enospc) => enospc = true,
                    None => {}
                }
            }
        }
        assert!(short, "no seed in 0..64 injects a short write");
        assert!(enospc, "no seed in 0..64 injects an ENOSPC");
    }

    #[test]
    fn short_write_always_truncates_nonempty_payloads() {
        for len in 1..=1024usize {
            let keep = FaultPlan::short_write_len(len);
            assert!(keep < len, "len {len} kept {keep}");
        }
        assert_eq!(FaultPlan::short_write_len(0), 0);
    }

    #[test]
    fn different_bands_get_different_streams() {
        // Not a hard guarantee per seed, but across many seeds the panic
        // points for two bands must not be systematically identical.
        let distinct = (0..64).any(|s| {
            let p = FaultPlan::new(s);
            p.band_panic(0, 100) != p.band_panic(1, 100)
        });
        assert!(distinct);
    }
}
