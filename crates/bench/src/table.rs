//! Plain-text rendering of experiment results — the "same rows the paper
//! plots" for Figure 6.

use std::fmt::Write as _;

use mkss_policies::PolicyKind;

use crate::experiment::{ExperimentResult, ReplicatedResult};

/// Renders the per-bucket normalized energies as an aligned table with
/// one row per utilization bucket and one column per policy, mirroring
/// the series of the paper's Figure 6.
pub fn render(result: &ExperimentResult) -> String {
    let mut out = String::new();
    let policies: Vec<PolicyKind> = result
        .buckets
        .first()
        .map(|b| b.normalized.keys().copied().collect())
        .unwrap_or_default();

    let _ = writeln!(
        out,
        "{} — normalized energy vs (m,k)-utilization ({} scenario)",
        result.config.scenario.panel(),
        result.config.scenario.id(),
    );
    let _ = write!(out, "{:>10} {:>6} {:>6}", "util", "sets", "gen");
    for p in &policies {
        let _ = write!(out, " {:>18}", p.id());
    }
    let _ = writeln!(out);
    for bucket in &result.buckets {
        let _ = write!(
            out,
            "{:>10.2} {:>6} {:>6}",
            bucket.midpoint, bucket.sets, bucket.generated
        );
        for p in &policies {
            match bucket.normalized.get(p) {
                Some(v) => {
                    let _ = write!(out, " {v:>18.4}");
                }
                None => {
                    let _ = write!(out, " {:>18}", "-");
                }
            }
        }
        let _ = writeln!(out);
    }

    // Headline numbers in the paper's phrasing.
    if policies.contains(&PolicyKind::Selective) && policies.contains(&PolicyKind::DualPriority) {
        match result.max_reduction_pct(PolicyKind::Selective, PolicyKind::DualPriority) {
            Some(pct) => {
                let _ = writeln!(out, "max energy reduction of selective over dp: {pct:.1}%");
            }
            None => {
                let _ = writeln!(out, "max energy reduction of selective over dp: n/a");
            }
        }
    }
    let _ = writeln!(
        out,
        "(m,k)-violations across all runs: {}",
        result.total_violations()
    );
    out
}

/// Renders a replicated experiment as mean ± std per bucket and policy.
pub fn render_replicated(result: &ReplicatedResult) -> String {
    let mut out = String::new();
    let policies: Vec<PolicyKind> = result
        .spreads
        .iter()
        .find(|m| !m.is_empty())
        .map(|m| m.keys().copied().collect())
        .unwrap_or_default();
    let _ = writeln!(
        out,
        "{} — normalized energy, mean ± std over {} replications",
        result.config.scenario.panel(),
        result.replications,
    );
    let _ = write!(out, "{:>10}", "util");
    for p in &policies {
        let _ = write!(out, " {:>22}", p.id());
    }
    let _ = writeln!(out);
    for (i, midpoint) in result.midpoints.iter().enumerate() {
        let _ = write!(out, "{midpoint:>10.2}");
        for p in &policies {
            match result.spreads[i].get(p) {
                Some(s) => {
                    let cell = format!("{:.4} ± {:.4}", s.mean, s.std);
                    let _ = write!(out, " {cell:>22}");
                }
                None => {
                    let _ = write!(out, " {:>22}", "-");
                }
            }
        }
        let _ = writeln!(out);
    }
    let _ = writeln!(
        out,
        "(m,k)-violations across all replications: {}",
        result.total_violations
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{run_experiment_jobs, ExperimentConfig, ReplicatedResult, Scenario};
    use mkss_core::time::Time;

    #[test]
    fn renders_replicated_spreads() {
        let mut cfg = ExperimentConfig::fig6(Scenario::NoFault);
        cfg.plan.sets_per_bucket = 2;
        cfg.plan.from = 0.3;
        cfg.plan.to = 0.4;
        cfg.horizon = Time::from_ms(200);
        let runs: Vec<_> = (0..2)
            .map(|r| run_experiment_jobs(&cfg.replication(r), 0))
            .collect();
        let result = ReplicatedResult::of(&runs);
        let text = render_replicated(&result);
        assert!(text.contains("mean ± std over 2 replications"));
        assert!(text.contains("±"));
        assert!(text.contains("violations across all replications: 0"));
    }

    #[test]
    fn renders_rows_and_headline() {
        let mut cfg = ExperimentConfig::fig6(Scenario::NoFault);
        cfg.plan.sets_per_bucket = 2;
        cfg.plan.from = 0.3;
        cfg.plan.to = 0.5;
        cfg.horizon = Time::from_ms(300);
        let result = run_experiment_jobs(&cfg, 0);
        let text = render(&result);
        assert!(text.contains("Fig. 6(a)"));
        assert!(text.contains("selective"));
        assert!(text.contains("max energy reduction"));
        assert!(text.contains("(m,k)-violations across all runs: 0"));
        // Two buckets → header + 2 rows + 2 footer lines.
        assert!(text.lines().count() >= 5);
    }
}
