//! Smoke tests for the figure harness: every scenario's figure (what `lab run
//! <name>` prints) runs at a tiny scale, produces non-empty series with the
//! expected legends, and renders to both text and JSON.

use bullet_repro::bullet_bench::{CommonOpts, Figure};
use bullet_repro::bullet_lab::Registry;

fn figure(name: &str, opts: &CommonOpts) -> Figure {
    let registry = Registry::standard();
    registry.get(name).expect("registered").run(opts)
}

fn tiny() -> CommonOpts {
    CommonOpts {
        nodes: Some(8),
        file_mb: Some(0.25),
        time_limit: 1800.0,
        ..CommonOpts::default()
    }
}

fn check(fig: &Figure, expected_series: usize) {
    assert_eq!(fig.series.len(), expected_series, "{}", fig.id);
    for s in &fig.series {
        assert!(
            !s.points.is_empty(),
            "{}: series {} is empty",
            fig.id,
            s.label
        );
        assert!(s.max_x().is_finite());
    }
    let text = fig.render_text();
    assert!(text.contains(&fig.id));
    let json = fig.to_json();
    assert!(json.contains("series"));
}

#[test]
fn figure_4_and_5_smoke() {
    check(&figure("fig04", &tiny()), 6);
    check(&figure("fig05", &tiny()), 4);
}

#[test]
fn figure_6_to_9_smoke() {
    check(&figure("fig06", &tiny()), 4);
    check(&figure("fig07", &tiny()), 4);
    let mut opts = tiny();
    opts.time_limit = 900.0;
    check(&figure("fig08", &opts), 4);
    check(&figure("fig09", &tiny()), 3);
}

#[test]
fn figure_10_to_12_smoke() {
    check(&figure("fig10", &tiny()), 6);
    check(&figure("fig11", &tiny()), 5);
    check(&figure("fig12", &tiny()), 4);
}

#[test]
fn figure_13_to_15_smoke() {
    let f13 = figure("fig13", &tiny());
    check(&f13, 1);
    assert!(f13.notes[0].contains("overage"));

    let mut opts = tiny();
    opts.nodes = Some(10);
    opts.file_mb = Some(1.0);
    check(&figure("fig14", &opts), 4);
    check(&figure("fig15", &opts), 6);
}

#[test]
fn figure_16_and_17_smoke() {
    // Slightly larger swarm so a 25%/50% crash wave leaves a healthy mesh.
    let mut opts = tiny();
    opts.nodes = Some(12);
    let f16 = figure("fig16", &opts);
    check(&f16, 4);
    assert!(f16.series[0].label.contains("no churn"));
    assert!(f16.series[2].label.contains("25% crash"));
    let f17 = figure("fig17", &opts);
    check(&f17, 2);
    assert!(f17.series[1].label.contains("flash crowd"));
}

#[test]
fn figure_18_and_19_smoke() {
    let f18 = figure("fig18", &tiny());
    check(&f18, 3);
    assert!(f18.series[0].label.contains("single mesh"));
    assert!(f18.notes[0].contains("fluid max-min"));
    let mut opts = tiny();
    opts.tick = Some(1.0);
    let f19 = figure("fig19", &opts);
    check(&f19, 4);
    assert!(f19.series[3].label.contains("cross-traffic"));
}

#[test]
fn figure_21_and_22_smoke() {
    // The open-system service figures at smoke scale: a 16-slot pool, short
    // horizon. fig21 plots five series against offered load; fig22 plots
    // three time series from the service samples.
    let mut opts = tiny();
    opts.nodes = Some(16);
    opts.time_limit = 900.0;
    let f21 = figure("fig21", &opts);
    check(&f21, 5);
    assert!(f21.series[0].label.contains("sustained goodput"));
    assert!(f21.series[1].label.contains("p50"));
    assert!(f21.x_label.contains("offered load"));
    assert!(f21.notes.iter().any(|n| n.contains("admitted")));

    let mut opts = tiny();
    opts.nodes = Some(16);
    let f22 = figure("fig22", &opts);
    check(&f22, 3);
    assert!(f22.series[0].label.contains("goodput"));
    assert!(f22.series[1].label.contains("in flight"));
    assert!(f22.series[2].label.contains("utilisation"));
    assert!(f22.notes.iter().any(|n| n.contains("warm swarm")));
    assert!(f22.notes.iter().any(|n| n.contains("flash crowd")));
}

#[test]
fn churn_run_completes_for_survivors_and_excludes_crashed_nodes() {
    // The acceptance scenario: 25% of the receivers crash mid-transfer.
    // Surviving Bullet' receivers must still complete, and the crashed nodes
    // must not block the all-complete stop condition.
    use bullet_repro::bullet_bench::{Dynamics, SystemRun, TopologyKind, Workload};
    use bullet_repro::dissem_codec::FileSpec;
    use bullet_repro::netsim::StopReason;

    let nodes = 12;
    let opts = CommonOpts {
        time_limit: 3_600.0,
        ..CommonOpts::default()
    };
    // The wave lands over 20%-60% of the calm median: 2 s to 6 s.
    let wave = Workload::new(
        &opts,
        TopologyKind::ModelNetMesh { max_loss: 0.01 },
        nodes,
        FileSpec::new(512 * 1024, 16 * 1024),
        Dynamics::CrashWave {
            fraction: 0.25,
            calm_median: Some(10.0),
        },
    );
    let churn = wave.plan().nodes;
    assert_eq!(churn.len(), 3, "25% of 11 receivers rounds to 3 victims");
    assert_eq!(churn[0].0.as_secs_f64(), 2.0);
    assert_eq!(churn[2].0.as_secs_f64(), 6.0);
    let report = wave.report();
    let run = SystemRun::from_report(&report);
    assert_eq!(
        report.reason,
        StopReason::AllComplete,
        "crashed nodes must be excluded from the stop condition: {report:?}"
    );
    assert_eq!(report.departed.iter().filter(|&&d| d).count(), 3);
    assert_eq!(run.unfinished, 0, "every surviving receiver completes");
    assert_eq!(run.times.len(), nodes - 1 - 3);
    for (i, departed) in report.departed.iter().enumerate() {
        if *departed {
            assert!(
                report.completion_secs[i].is_none(),
                "node {i} crashed mid-transfer and must not be counted complete"
            );
        }
    }
}

#[test]
fn reduced_and_full_scale_share_code_paths() {
    // `--full` only changes workload parameters, not which series are produced.
    let mut full = tiny();
    full.full = true;
    full.nodes = Some(8);
    full.file_mb = Some(0.25);
    let a = figure("fig04", &tiny());
    let b = figure("fig04", &full);
    assert_eq!(a.series.len(), b.series.len());
}
