//! Deterministic fuzzing and differential verification for the SADP
//! router.
//!
//! The paper's headline claim — zero cut conflicts and zero unresolved
//! odd cycles after merge-and-cut — is exercised by five fixed benchmarks
//! in the evaluation harness; this crate turns the independent
//! decomposition oracle ([`sadp_decomp::verify_layers`]) into a
//! *generative* correctness gate. Three parts:
//!
//! * [`generator`] — synthesises random planes and netlists across five
//!   stratified regimes, each instance a pure function of
//!   `(Regime, u64 seed)` via the SplitMix64 [`sadp_geom::Rng`],
//! * [`oracle`] — routes each instance, checks the structural invariant
//!   set (no panics, net accounting, zero conflicts, wirelength bounds,
//!   plane-occupancy consistency), decomposes the result through the
//!   pixel simulator, and runs the differential checks (kill-and-resume
//!   identity, baseline sanity),
//! * [`shrink`] — delta-debugs a failing instance down to a replayable
//!   `.layout` fixture for the regression corpus.
//!
//! The whole campaign is deterministic: the same seed range produces the
//! same instances, the same failures, and the same minimised fixtures on
//! every machine.
//!
//! # Example
//!
//! ```
//! use sadp_fuzz::{check_instance, generate, OracleConfig, Regime};
//!
//! let inst = generate(Regime::SparsePairs, 42);
//! let stats = check_instance(&inst, &OracleConfig::default()).expect("seed 42 is clean");
//! assert_eq!(stats.nets, inst.netlist.len());
//! ```

pub mod generator;
pub mod oracle;
pub mod shrink;
pub mod wire;

pub use generator::{generate, FuzzInstance, Regime};
pub use oracle::{check_instance, check_layout, Invariant, OracleConfig, OracleStats, Violation};
pub use shrink::{minimize, ShrinkResult};
pub use wire::{
    check_wire_input, generate_wire_input, run_wire_campaign, WireCampaignConfig, WireClass,
    WireFailure, WireRegime, WireReport,
};

/// Configuration of one fuzzing campaign.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Seeds per regime (`--seeds`).
    pub seeds: u64,
    /// First seed (`--start`); the campaign covers `start..start + seeds`.
    pub start: u64,
    /// Regimes to run (`Regime::ALL` unless `--regime` narrows it).
    pub regimes: Vec<Regime>,
    /// Oracle settings (optional checks).
    pub oracle: OracleConfig,
    /// Whether to minimise failures into replayable fixtures.
    pub minimize: bool,
    /// Predicate-evaluation budget per shrink.
    pub shrink_budget: usize,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            seeds: 100,
            start: 0,
            regimes: Regime::ALL.to_vec(),
            oracle: OracleConfig::default(),
            minimize: false,
            shrink_budget: 300,
        }
    }
}

/// One campaign failure, optionally minimised.
#[derive(Debug)]
pub struct Failure {
    /// The regime of the failing instance.
    pub regime: Regime,
    /// Its seed.
    pub seed: u64,
    /// The violated invariant.
    pub violation: Violation,
    /// The fault-injection seed the oracle ran with, if any. Recorded in
    /// the fixture as a `# fault-seed:` marker so `--replay` re-applies
    /// the same faults.
    pub fault_seed: Option<u64>,
    /// The minimised instance (when [`CampaignConfig::minimize`] is set).
    pub shrunk: Option<ShrinkResult>,
}

impl Failure {
    /// The replayable fixture text for the minimised instance, or the
    /// full original instance when shrinking was off.
    #[must_use]
    pub fn fixture_text(&self) -> String {
        let mut header = format!(
            "fuzz failure: regime={} seed={}\ninvariant: {}\ndetail: {}\nreplay: sadp fuzz --replay <this file>",
            self.regime,
            self.seed,
            self.violation.invariant.name(),
            self.violation.detail
        );
        if let Some(fs) = self.fault_seed {
            // Machine-readable (see `fault_seed_marker`): replay re-arms
            // the same fault plan without an explicit --faults flag.
            header.push_str(&format!("\nfault-seed: {fs}"));
        }
        match &self.shrunk {
            Some(s) => s.fixture_text(&header),
            None => {
                let inst = generate(self.regime, self.seed);
                let mut out = String::new();
                for line in header.lines() {
                    out.push_str("# ");
                    out.push_str(line);
                    out.push('\n');
                }
                out.push_str(&sadp_grid::io::write_layout(&inst.plane, &inst.netlist));
                out
            }
        }
    }
}

/// Aggregate result of a campaign.
#[derive(Debug, Default)]
pub struct CampaignReport {
    /// Instances checked.
    pub instances: usize,
    /// Total nets across all instances.
    pub total_nets: usize,
    /// Total nets routed by the serial oracle runs.
    pub total_routed: usize,
    /// Invariant violations found (empty for a clean campaign).
    pub failures: Vec<Failure>,
}

impl CampaignReport {
    /// Whether the campaign found no violations.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Scans fixture text for the `# fault-seed: N` marker written by
/// [`Failure::fixture_text`] for fault-mode failures. The marker rides in
/// a `.layout` comment line, so the layout parser ignores it and replay
/// tooling can still recover the fault plan.
#[must_use]
pub fn fault_seed_marker(text: &str) -> Option<u64> {
    text.lines().find_map(|l| {
        l.trim()
            .strip_prefix("# fault-seed:")
            .and_then(|v| v.trim().parse().ok())
    })
}

/// Runs a fuzzing campaign: for every `(regime, seed)` pair, generate the
/// instance and run the oracle; failures are (optionally) minimised. The
/// `progress` sink receives one deterministic line per regime — wire it
/// to `println!` in a CLI or drop the lines in a library caller.
///
/// When [`OracleConfig::fault_seed`] is set it is treated as a campaign
/// *base* seed: each instance gets its own derived fault seed (mixed with
/// the instance seed) so a campaign sweeps many fault patterns, and the
/// derived seed is recorded in each failure for replay.
pub fn run_campaign(cfg: &CampaignConfig, mut progress: impl FnMut(&str)) -> CampaignReport {
    let mut report = CampaignReport::default();
    for &regime in &cfg.regimes {
        let mut regime_failures = 0usize;
        for seed in cfg.start..cfg.start + cfg.seeds {
            let inst = generate(regime, seed);
            let mut oracle_cfg = cfg.oracle.clone();
            if let Some(base) = cfg.oracle.fault_seed {
                oracle_cfg.fault_seed = Some(base ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            }
            report.instances += 1;
            report.total_nets += inst.netlist.len();
            match check_instance(&inst, &oracle_cfg) {
                Ok(stats) => report.total_routed += stats.routed,
                Err(violation) => {
                    regime_failures += 1;
                    let shrunk = cfg.minimize.then(|| {
                        let want = violation.invariant;
                        minimize(
                            &inst.plane,
                            &inst.netlist,
                            |plane, nl| {
                                check_layout(plane, nl, &oracle_cfg)
                                    .err()
                                    .is_some_and(|v| v.invariant == want)
                            },
                            cfg.shrink_budget,
                        )
                    });
                    report.failures.push(Failure {
                        regime,
                        seed,
                        violation,
                        fault_seed: oracle_cfg.fault_seed,
                        shrunk,
                    });
                }
            }
        }
        progress(&format!(
            "{:<12} {} seeds, {} failures",
            regime.name(),
            cfg.seeds,
            regime_failures
        ));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_campaign_is_clean_and_deterministic() {
        let cfg = CampaignConfig {
            seeds: 2,
            ..CampaignConfig::default()
        };
        let mut lines_a = Vec::new();
        let a = run_campaign(&cfg, |l| lines_a.push(l.to_string()));
        assert!(a.is_clean(), "violations: {:?}", a.failures);
        assert_eq!(a.instances, 2 * Regime::ALL.len());
        let mut lines_b = Vec::new();
        let b = run_campaign(&cfg, |l| lines_b.push(l.to_string()));
        assert_eq!(lines_a, lines_b);
        assert_eq!(a.total_nets, b.total_nets);
        assert_eq!(a.total_routed, b.total_routed);
    }
}
