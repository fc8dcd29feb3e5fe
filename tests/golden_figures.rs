//! Golden figures: the FNV-1a hash of what every registry scenario renders at
//! a tiny fixed-seed scale, committed as constants.
//!
//! `tests/golden_digests.rs` pins the emulator (one canonical `RunReport` per
//! system); this file pins the harness above it — workload construction,
//! dynamics scheduling, warm-up forking, service cells and figure
//! presentation. A refactor of `bullet_bench` / `bullet_lab` is correct iff
//! this file passes unedited: every figure's JSON, the fig05w sweep with
//! prefix sharing on and off, and both open scenarios' service runs must stay
//! the same bytes. A change that is *meant* to alter a figure re-records its
//! constant in the same commit and says so.

use bullet_repro::bullet_bench::CommonOpts;
use bullet_repro::bullet_lab::{run_sweep_with, Body, Registry};
use bullet_repro::dissem_codec::file::fnv1a;

/// The options every scenario runs at: 8 nodes and a 0.25 MB file, except
/// that fig20 raises the node count (its default is a 1,000 / 5,000 / 10,000
/// trajectory) and the §4.1 bandwidth-change scenarios download 16 MB — a
/// 0.25 MB download ends at ~8 virtual seconds, before the first scheduled
/// change (20 s; 18 s for fig05w's storm variant), and a digest of a run the
/// dynamics never touched could not catch a change in how they are scheduled.
fn tiny(name: &str) -> CommonOpts {
    let dynamic = matches!(name, "fig05" | "fig05ts" | "fig05w" | "fig08");
    CommonOpts {
        nodes: Some(if name == "fig20" { 200 } else { 8 }),
        file_mb: Some(if dynamic { 16.0 } else { 0.25 }),
        time_limit: 1800.0,
        ..CommonOpts::default()
    }
}

/// `(scenario, FNV-1a of Figure::to_json())` in registry order.
const FIGURES: [(&str, u64); 21] = [
    ("fig04", 0x1a84_1267_f16f_c66a),
    ("fig05", 0x2ef6_fc62_4efd_cfe8),
    ("fig05ts", 0xf847_b2e5_f105_8dc3),
    ("fig05w", 0x2895_dd2e_708d_af5f),
    ("fig06", 0x7cde_2583_52d1_3314),
    ("fig07", 0x7e5f_b681_9e39_090b),
    ("fig08", 0xa945_7c9d_e1a8_bf3c),
    ("fig09", 0xdb62_7d7c_d005_4efc),
    ("fig10", 0xcbdf_571a_639a_d918),
    ("fig11", 0x2cf1_c34a_d419_fd37),
    ("fig12", 0x3066_0a01_f7b9_c7dc),
    ("fig13", 0xf30f_00a7_a605_a2e7),
    ("fig14", 0x97c1_a28d_528c_30b2),
    ("fig15", 0x731e_6b38_af53_45ef),
    ("fig16", 0xc8da_0508_020f_efd7),
    ("fig17", 0xe489_b6bc_7300_5b29),
    ("fig18", 0xede4_2ad8_40d1_f4ce),
    ("fig19", 0x89e4_2c3a_6a9f_5731),
    ("fig20", 0x381d_3640_da9d_5fc8),
    ("fig21", 0x1e09_4750_8d93_c6de),
    ("fig22", 0x75f5_506a_852c_092d),
];

/// Collects every mismatch before failing, so one run of the file lists all
/// the digests a behaviour change moved.
fn check(what: &str, moved: &mut Vec<String>, expected: u64, rendered: &str) {
    let got = fnv1a(rendered.as_bytes());
    if got != expected {
        moved.push(format!(
            "{what}: got {got:#018x}, recorded {expected:#018x}"
        ));
    }
}

#[test]
fn every_registry_figure_matches_its_golden_digest() {
    let registry = Registry::standard();
    assert_eq!(
        registry.names(),
        FIGURES.map(|(name, _)| name),
        "the table lists the registry"
    );
    let mut moved = Vec::new();
    for (name, expected) in FIGURES {
        let scenario = registry.get(name).expect("listed above");
        let figure = scenario.run(&tiny(name));
        check(name, &mut moved, expected, &figure.to_json());
    }
    assert!(
        moved.is_empty(),
        "figure digests moved:\n{}",
        moved.join("\n")
    );
}

#[test]
fn fig05w_sweep_matches_its_golden_digest_shared_and_fresh() {
    // 3 variants x 2 seeds. Sharing on forks every cell from its seed's
    // checkpoint, sharing off runs each uninterrupted; both must render the
    // recorded bytes (titles, labels and cell order included).
    const SWEEP: u64 = 0x34d3_ee48_ef73_357f;
    let registry = Registry::standard();
    let scenario = registry.get("fig05w").expect("registered");
    let seeds = [20050410, 20050411];
    let mut moved = Vec::new();
    for share in [true, false] {
        let report = run_sweep_with(scenario, &tiny("fig05w"), &seeds, 2, share);
        assert_eq!(report.cells.len(), 6);
        check(
            &format!("fig05w sweep, share={share}"),
            &mut moved,
            SWEEP,
            &report.to_canonical_json(),
        );
    }
    assert!(
        moved.is_empty(),
        "sweep digests moved:\n{}",
        moved.join("\n")
    );
}

#[test]
fn service_runs_match_their_golden_digests() {
    const SERVE: [(&str, u64); 2] = [
        ("fig21", 0xe1d3_3b0b_657e_0120),
        ("fig22", 0xedac_6925_61bb_db73),
    ];
    let registry = Registry::standard();
    let mut moved = Vec::new();
    for (name, expected) in SERVE {
        let Body::Open { cells, .. } = registry.get(name).expect("registered").body else {
            panic!("{name} is an open-system scenario");
        };
        // Per cell: label, newline, canonical report, newline.
        let rendered: String = cells(&tiny(name))
            .iter()
            .map(|(label, cell)| format!("{label}\n{}\n", cell.run().canonical()))
            .collect();
        check(
            &format!("service runs of {name}"),
            &mut moved,
            expected,
            &rendered,
        );
    }
    assert!(
        moved.is_empty(),
        "serve digests moved:\n{}",
        moved.join("\n")
    );
}
