//! The `fig05w` scenario family: one join phase, several dynamics variants.
//!
//! Every variant is the same Bullet′ swarm on the standard lossy ModelNet
//! mesh and differs only in the bandwidth changes applied *after*
//! [`FIG05W_WARMUP_SECS`] — late enough that the mesh has formed and
//! transfers are in flight, early enough that the prefix stays common. The
//! variants' [`Workload`]s are therefore equal up to `dynamics` with a common
//! quiet prefix ([`Workload::shares_prefix_with`]), and the sweep executor
//! simulates that prefix once per seed ([`Workload::prefix`]) and forks
//! every variant from the checkpoint ([`Workload::fork`]) instead of
//! re-simulating it per cell. The snapshot contract makes the forked and the
//! uninterrupted run canonically byte-identical
//! (`forked_cell_matches_the_uninterrupted_run` below,
//! `tests/golden_figures.rs` for the whole sweep).

use netsim::RunReport;

use crate::cdf::{Figure, Series};
use crate::experiments::{cdf, mesh_workload};
use crate::opts::CommonOpts;
use crate::workload::{Dynamics, SystemRun, WarmPrefix, Workload};

/// Virtual seconds of shared warm-up before the `fig05w` variants diverge.
pub const FIG05W_WARMUP_SECS: f64 = 10.0;

/// The `fig05w` variants: sweep-point label and seconds between bandwidth
/// decreases after the warm-up — none, the paper's 20 s, an aggressive 8 s.
pub const FIG05W_VARIANTS: [(&str, Option<f64>); 3] =
    [("calm", None), ("paper", Some(20.0)), ("storm", Some(8.0))];

/// The workload of variant `label` (`"default"` is the paper's). The stats
/// probe is installed so that forking exercises probe state too.
///
/// # Errors
///
/// Returns an error for a label outside [`FIG05W_VARIANTS`].
pub fn fig05w_workload(opts: &CommonOpts, label: &str) -> Result<Workload, String> {
    let wanted = if label == "default" { "paper" } else { label };
    let &(_, period) = FIG05W_VARIANTS
        .iter()
        .find(|(name, _)| *name == wanted)
        .ok_or_else(|| {
            format!("unknown fig05w variant '{label}' (expected one of calm, paper, storm)")
        })?;
    let dynamics = Dynamics::BandwidthChanges {
        period,
        quiet: FIG05W_WARMUP_SECS,
    };
    Ok(Workload {
        tick: Some(opts.tick_secs()),
        ..mesh_workload(opts, 20, 4.0, dynamics)
    })
}

/// Figure 5w (beyond the paper): one variant's run — the receivers'
/// download-time CDF plus the mean-goodput-over-time curve from the probe
/// series, which spans the whole run, warm-up included, whether the run was
/// forked or not.
pub fn fig05w_figure(w: &Workload, report: &RunReport) -> Figure {
    let period = match w.dynamics {
        Dynamics::BandwidthChanges { period, .. } => period,
        _ => None,
    };
    let label = FIG05W_VARIANTS
        .iter()
        .find(|(_, p)| *p == period)
        .map_or("custom", |(name, _)| name);
    let run = SystemRun::from_report(report);
    let mut fig = Figure::new(
        "Figure 5w",
        format!(
            "download times under '{label}' dynamics after a shared \
             {:.0} s warm-up ({} nodes)",
            w.dynamics.quiet(),
            w.nodes
        ),
    );
    fig.push(cdf(format!("BulletPrime [{label}]"), &run));
    if let Some(series) = &report.timeseries {
        fig.push(Series::xy(
            "mean receiver goodput (Mbps)",
            series.mean_over_active(1, |n| n.goodput_bps / 1e6),
        ));
    }
    fig
}

/// The checkpointed warm-up every `fig05w` variant at `opts` forks from.
pub fn fig05w_prefix(opts: &CommonOpts) -> WarmPrefix {
    fig05w_workload(opts, "calm")
        .expect("a listed variant")
        .prefix()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CommonOpts {
        CommonOpts {
            nodes: Some(6),
            file_mb: Some(8.0),
            time_limit: 1800.0,
            ..CommonOpts::default()
        }
    }

    fn figure(label: &str, prefix: Option<&WarmPrefix>) -> String {
        let w = fig05w_workload(&tiny(), label).unwrap();
        let report = prefix.map_or_else(|| w.report(), |p| w.fork(p));
        format!("{:?}", fig05w_figure(&w, &report))
    }

    #[test]
    fn forked_cell_matches_the_uninterrupted_run() {
        let prefix = fig05w_prefix(&tiny());
        for (label, _) in FIG05W_VARIANTS {
            assert_eq!(
                figure(label, Some(&prefix)),
                figure(label, None),
                "variant '{label}' diverged between fork and fresh"
            );
        }
    }

    #[test]
    fn variants_actually_diverge_after_the_split() {
        // Labels aside: the downloads outlast the first post-warm-up change,
        // so the storm variant's completion times must move.
        let prefix = fig05w_prefix(&tiny());
        let times = |label: &str| {
            let w = fig05w_workload(&tiny(), label).unwrap();
            SystemRun::from_report(&w.fork(&prefix)).times
        };
        assert_ne!(
            times("calm"),
            times("storm"),
            "the schedules are not taking effect"
        );
    }

    #[test]
    fn unknown_variant_labels_are_errors() {
        let opts = tiny();
        assert_eq!(
            fig05w_workload(&opts, "default"),
            fig05w_workload(&opts, "paper")
        );
        let err = fig05w_workload(&opts, "typo").unwrap_err();
        assert!(err.contains("unknown fig05w variant 'typo'"), "{err}");
    }
}
