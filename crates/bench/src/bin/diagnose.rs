//! Diagnostic deep-dive into a single Bullet′ run: per-receiver completion
//! time, peer counts, duplicate fraction and control overhead. Useful when a
//! figure looks off and you want to know *which* mechanism is responsible.
//!
//! With `--service`, diagnoses the open-system service mode instead: one
//! fig21-style run at the top offered load, summarised as the
//! [`ServiceReport`](netsim::ServiceReport) the service manager produced
//! (sustained goodput, admission/queue counters, per-cohort percentiles).

use bullet_bench::experiments::{fig06_workload, fig21_cells, service_summary};
use bullet_bench::CommonOpts;
use netsim::NodeId;

/// The `--service` mode: runs fig21's top-load cell and prints its service
/// summary (the same rendering `lab serve` uses).
fn diagnose_service(opts: &CommonOpts) {
    let cells = fig21_cells(opts);
    let (label, cell) = cells.last().expect("fig21 has load points");
    println!("open-system service diagnosis: fig21 at {label}");
    let report = cell.run();
    print!("{}", service_summary(&report));
    if let Some(sample) = report
        .samples
        .iter()
        .max_by(|a, b| a.goodput_bps.total_cmp(&b.goodput_bps))
    {
        println!(
            "busiest tick: t={:.0}s, {:.3} Mbps, {} in flight, {} queued, core {:.0}%",
            sample.time_secs,
            sample.goodput_bps / 1e6,
            sample.in_flight,
            sample.queued,
            sample.core_utilisation * 100.0,
        );
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let service = args.iter().any(|a| a == "--service");
    args.retain(|a| a != "--service");
    let opts = CommonOpts::parse(args).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    if service {
        diagnose_service(&opts);
        return;
    }
    // The static lossy mesh of Figs 6 and 7.
    let workload = fig06_workload(&opts, "default").expect("fig06 has one point");
    let nodes = workload.nodes;
    let mut runner = workload.bullet_prime(&workload.config());
    let report = workload.run(&mut runner);

    println!(
        "{:>5} {:>10} {:>8} {:>8} {:>8} {:>9} {:>10} {:>10}",
        "node", "done(s)", "senders", "recvrs", "dup%", "blocks", "ctl_out", "ctl_in"
    );
    let mut rows: Vec<(f64, String)> = Vec::new();
    for i in 1..nodes {
        let id = NodeId(i as u32);
        let node = runner.node(id);
        let m = node.metrics();
        let t = m.completed_at.unwrap_or(f64::NAN);
        let (s, r) = node.peer_counts();
        let traffic = runner.network().traffic(id);
        rows.push((
            t,
            format!(
                "{:>5} {:>10.1} {:>8} {:>8} {:>8.1} {:>9} {:>10} {:>10}",
                i,
                t,
                s,
                r,
                m.duplicate_fraction() * 100.0,
                m.useful_blocks(),
                traffic.control_bytes_out,
                traffic.control_bytes_in
            ),
        ));
    }
    rows.sort_by(|a, b| f64::total_cmp(&a.0, &b.0));
    for (_, line) in rows {
        println!("{line}");
    }
    // Arrival-gap forensics for the three slowest receivers.
    let mut by_completion: Vec<NodeId> = (1..nodes as u32).map(NodeId).collect();
    by_completion.sort_by(|a, b| {
        let ta = runner.node(*a).metrics().completed_at.unwrap_or(f64::MAX);
        let tb = runner.node(*b).metrics().completed_at.unwrap_or(f64::MAX);
        f64::total_cmp(&ta, &tb)
    });
    for id in by_completion.iter().rev().take(3) {
        let m = runner.node(*id).metrics();
        let gaps = m.inter_arrival_times();
        let mut biggest: Vec<(usize, f64)> = gaps.iter().copied().enumerate().collect();
        biggest.sort_by(|a, b| f64::total_cmp(&b.1, &a.1));
        let last: Vec<String> = m
            .arrival_times
            .iter()
            .rev()
            .take(5)
            .map(|t| format!("{t:.1}"))
            .collect();
        println!(
            "straggler {}: last arrivals {:?}, biggest gaps {:?}",
            id,
            last,
            &biggest[..biggest.len().min(3)]
        );
    }
    println!(
        "run: {} events, ended at {:.1}s ({:?}), {} receivers unfinished, {} trace records",
        report.events,
        report.end_time.as_secs_f64(),
        report.reason,
        report
            .completion_secs
            .iter()
            .skip(1)
            .filter(|c| c.is_none())
            .count(),
        report.trace_records,
    );
    // The deterministic metrics snapshot: which mechanism was busy. A
    // truncated run (TimeLimit/EventLimit stop reason) is attributed here —
    // e.g. a timer storm shows up as timers_fired dwarfing blocks_delivered,
    // a repricing storm as conn_schedules dwarfing blocks_sent.
    println!("metrics:");
    for &(name, value) in &report.metrics.counters {
        if value > 0 {
            println!("  {name:<24} {value}");
        }
    }
    for &(name, value) in &report.metrics.gauges {
        println!("  {name:<24} {value}");
    }
}
