//! Deterministic persistence-fault injection for exercising the
//! daemon's recovery paths.
//!
//! A [`FaultPlan`] is a pure function of a `u64` seed (SplitMix64, the
//! same generator the fuzz subsystem uses): equal seeds inject equal
//! faults, on every machine. [`FaultPlan::io_fault`] is keyed by
//! *logical* identity — a job and an artifact — never by write attempt
//! or scheduling, so the fault pattern a plan produces is part of the
//! deterministic contract the quarantine-on-restart path must preserve.
//!
//! [`atomic_write`] is the one file write of the daemon's state dir and
//! of `sadp route --checkpoint`; it applies an [`IoFault`] when given one.

use sadp_geom::Rng;
use std::io;
use std::path::Path;

/// Which persistence writes to fault, derived deterministically from a
/// seed.
///
/// The serving layer asks [`FaultPlan::io_fault`] before each state-dir
/// write and hands the answer to [`atomic_write`]. Every
/// [`PersistKind`] reads its own stream of the seed, so the kinds never
/// shift each other's draws.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    seed: u64,
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
    /// The plan for `seed`, with an injection rate chosen so that a few
    /// jobs still trigger both fault kinds within a few seeds.
    #[must_use]
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            io_fault_rate: 0.25,
        }
    }

    /// The seed the plan was built from.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
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

/// Writes `text` to `path` via the sibling temp file `<file>.tmp` and a
/// rename, so a crash mid-write never leaves a torn file behind. Each
/// target stages through its own temp file, so writes to different files
/// of one directory never share one. An armed fault corrupts the write
/// deterministically: `ShortWrite` truncates the payload but still
/// reports success (a torn write that survives a crash — only a read-back
/// can catch it), `Enospc` fails the write outright and leaves the
/// previous file contents intact.
///
/// # Errors
///
/// Returns the I/O error of the write or the rename, or the injected
/// `Enospc`.
pub fn atomic_write(path: &Path, text: &str, fault: Option<IoFault>) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    match fault {
        Some(IoFault::Enospc) => {
            return Err(io::Error::other(format!(
                "injected ENOSPC writing {} (fault plan)",
                path.display()
            )));
        }
        Some(IoFault::ShortWrite) => {
            let keep = FaultPlan::short_write_len(text.len());
            std::fs::write(&tmp, &text.as_bytes()[..keep])?;
        }
        None => std::fs::write(&tmp, text)?,
    }
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn atomic_write_honours_faults_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("sadp_atomic_write_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (meta, layout) = (dir.join("job-1.meta"), dir.join("job-1.layout"));
        atomic_write(&meta, "state=queued\n", None).unwrap();
        atomic_write(&layout, "plane 3 8 8\n", None).unwrap();
        assert_eq!(std::fs::read_to_string(&meta).unwrap(), "state=queued\n");
        // An injected ENOSPC leaves the previous contents in place.
        assert!(atomic_write(&meta, "state=done\n", Some(IoFault::Enospc)).is_err());
        assert_eq!(std::fs::read_to_string(&meta).unwrap(), "state=queued\n");
        // A short write reports success but lands truncated.
        atomic_write(&layout, "0123456789", Some(IoFault::ShortWrite)).unwrap();
        assert_eq!(std::fs::read_to_string(&layout).unwrap(), "01234");
        let mut names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(
            names,
            ["job-1.layout", "job-1.meta"],
            "a temp file was left"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
