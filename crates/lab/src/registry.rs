//! The scenario registry: every experiment of the evaluation grid by name.
//!
//! The registry is the single source of truth for what can be run: the `lab`
//! CLI lists and resolves scenarios here. An entry pairs a workload function
//! with a presentation function from `bullet_bench::experiments` (see
//! [`Body`]); building the registry evaluates neither.

use bullet_bench::experiments::{self as ex, WorkloadFn};
use bullet_bench::warmup;

use crate::scenario::{Body, ParamPoint, Presentation, Scenario};

fn closed(workload: WorkloadFn, figure: Presentation) -> Body {
    Body::Closed { workload, figure }
}

/// The default sweep of the overall comparisons: swarm size.
fn swarm_sizes() -> impl Iterator<Item = ParamPoint> {
    [("20-nodes", 20), ("40-nodes", 40), ("60-nodes", 60)]
        .into_iter()
        .map(|(label, nodes)| ParamPoint {
            label,
            nodes: Some(nodes),
        })
}

/// An ordered collection of uniquely named scenarios.
pub struct Registry {
    scenarios: Vec<Scenario>,
}

impl Registry {
    /// Builds the standard registry: Figures 4–15 of the paper plus the
    /// beyond-the-paper scenarios (16: crash wave, 17: flash crowd, 18:
    /// shared core bottleneck, 19: cross-traffic square wave, 20: emulator
    /// scaling trajectory, 21: open-system offered-load sweep, 22: flash
    /// crowd beside a warm swarm, 5ts: probe-driven bandwidth-over-time,
    /// 5w: dynamics variants sharing one warm-up).
    pub fn standard() -> Self {
        use Presentation::{Run, Study};
        let scenarios = vec![
            Scenario::new(
                "fig04",
                "download-time CDF of all four systems under random losses",
                closed(ex::fig04_workload, Study(ex::overall_comparison)),
            )
            .with_points(swarm_sizes())
            .with_claims(ex::fig04_claims),
            Scenario::new(
                "fig05",
                "download-time CDF of all four systems under synthetic bandwidth changes",
                closed(ex::fig05_workload, Study(ex::overall_comparison)),
            )
            .with_points(swarm_sizes())
            .with_claims(ex::fig05_claims),
            Scenario::new(
                "fig05ts",
                "probe-driven per-receiver goodput over time in the dynamic scenario",
                closed(ex::fig05ts_workload, Run(ex::fig05ts_figure)),
            ),
            Scenario::new(
                "fig05w",
                "snapshot/fork warm-up sharing: one join phase, three dynamics variants",
                closed(warmup::fig05w_workload, Run(warmup::fig05w_figure)),
            )
            // Identical numerics per point, so all variants of one seed
            // share a warm-up prefix.
            .with_points(
                warmup::FIG05W_VARIANTS
                    .iter()
                    .map(|&(label, _)| ParamPoint::named(label)),
            ),
            Scenario::new(
                "fig06",
                "request strategies (rarest-random / random / rarest / first)",
                closed(ex::fig06_workload, Study(ex::fig06_figure)),
            ),
            Scenario::new(
                "fig07",
                "static peer-set sizes vs dynamic under random losses",
                closed(ex::fig06_workload, Study(ex::fig07_figure)),
            ),
            Scenario::new(
                "fig08",
                "static peer-set sizes vs dynamic under bandwidth changes",
                closed(ex::fig08_workload, Study(ex::fig08_figure)),
            ),
            Scenario::new(
                "fig09",
                "static peer-set sizes vs dynamic on constrained access links",
                closed(ex::fig09_workload, Study(ex::fig09_figure)),
            ),
            Scenario::new(
                "fig10",
                "outstanding-request windows on clean high-BDP links",
                closed(ex::fig10_workload, Study(ex::fig10_figure)),
            ),
            Scenario::new(
                "fig11",
                "outstanding-request windows under random losses",
                closed(ex::fig11_workload, Study(ex::fig11_figure)),
            ),
            Scenario::new(
                "fig12",
                "outstanding-request windows under cascading degradations",
                closed(ex::fig12_workload, Study(ex::fig12_figure)),
            ),
            Scenario::new(
                "fig13",
                "block inter-arrival times (last-block problem) and encoding overage",
                closed(ex::fig04_workload, Study(ex::fig13_figure)),
            ),
            Scenario::new(
                "fig14",
                "wide-area (PlanetLab-like) comparison of all four systems",
                closed(ex::fig14_workload, Study(ex::fig14_figure)),
            ),
            Scenario::new(
                "fig15",
                "Shotgun software update vs N parallel rsync processes",
                closed(ex::fig15_workload, Run(ex::fig15_figure)),
            )
            .with_claims(ex::fig15_claims),
            Scenario::new(
                "fig16",
                "survivor download-time CDF under receiver crash waves",
                closed(ex::fig16_workload, Study(ex::fig16_figure)),
            ),
            Scenario::new(
                "fig17",
                "download-duration CDF with a flash-crowd join wave",
                closed(ex::fig17_workload, Study(ex::fig17_figure)),
            ),
            Scenario::new(
                "fig18",
                "two concurrent meshes sharing one 2 Mbps core bottleneck",
                closed(ex::fig18_workload, Study(ex::fig18_figure)),
            )
            .with_claims(ex::fig18_claims),
            Scenario::new(
                "fig19",
                "cross-traffic square wave vs Bullet' adaptivity (goodput over time)",
                closed(ex::fig19_workload, Run(ex::fig19_figure)),
            ),
            Scenario::new(
                "fig20",
                "emulator scaling trajectory: join-only swarms up to 10,000 nodes",
                closed(ex::fig20_workload, Study(ex::fig20_figure)),
            )
            .with_claims(ex::fig20_claims),
            Scenario::new(
                "fig21",
                "open-system offered-load sweep: Poisson swarm arrivals to the knee",
                Body::Open {
                    cells: ex::fig21_cells,
                    figure: ex::fig21_figure,
                },
            ),
            Scenario::new(
                "fig22",
                "flash crowd of joiners arriving beside an already-warm swarm",
                Body::Open {
                    cells: ex::fig22_cells,
                    figure: ex::fig22_figure,
                },
            ),
        ];

        let reg = Registry { scenarios };
        debug_assert!(
            {
                let mut names: Vec<_> = reg.names();
                names.sort_unstable();
                names.dedup();
                names.len() == reg.len()
            },
            "registry names must be unique"
        );
        reg
    }

    /// Number of scenarios.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// True if the registry holds no scenarios (never, for the standard one).
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }

    /// The scenarios in registry order.
    pub fn iter(&self) -> impl Iterator<Item = &Scenario> {
        self.scenarios.iter()
    }

    /// All scenario names in registry order.
    pub fn names(&self) -> Vec<&'static str> {
        self.scenarios.iter().map(|s| s.name).collect()
    }

    /// Looks a scenario up by name.
    pub fn get(&self, name: &str) -> Option<&Scenario> {
        self.scenarios.iter().find(|s| s.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bullet_bench::CommonOpts;

    #[test]
    fn standard_registry_covers_every_figure() {
        let reg = Registry::standard();
        let names = reg.names();
        for expected in [
            "fig04", "fig05", "fig05ts", "fig05w", "fig06", "fig07", "fig08", "fig09", "fig10",
            "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19",
            "fig20", "fig21", "fig22",
        ] {
            assert!(names.contains(&expected), "missing {expected}");
        }
        assert_eq!(reg.len(), 21);
        assert!(reg.get("fig99").is_none());
    }

    #[test]
    fn registry_scenarios_run() {
        let reg = Registry::standard();
        let opts = CommonOpts {
            nodes: Some(6),
            file_mb: Some(0.125),
            time_limit: 1800.0,
            ..CommonOpts::default()
        };
        let fig = reg.get("fig13").expect("registered").run(&opts);
        assert!(!fig.series.is_empty());
    }

    #[test]
    fn fig05w_carries_warm_prefix_hooks_and_variant_points() {
        let reg = Registry::standard();
        let sc = reg.get("fig05w").unwrap();
        let labels: Vec<_> = sc.points.iter().map(|p| p.label).collect();
        assert_eq!(labels, vec!["calm", "paper", "storm"]);
        // Identical numerics per point: all variants of one seed must land
        // in the same prefix group.
        assert!(sc.points.iter().all(|p| *p == ParamPoint::named(p.label)));
        let opts = CommonOpts::default();
        let calm = sc
            .forkable(&opts, "calm")
            .expect("begins with a quiet prefix");
        for label in labels {
            let variant = sc.forkable(&opts, label).expect("every variant forks");
            assert!(calm.shares_prefix_with(&variant), "{label}");
        }
        assert!(sc.forkable(&opts, "typo").is_none());
        assert!(
            sc.figure(&opts, "typo", None).is_err(),
            "an Err, not a panic"
        );
        // fig05w is the only scenario with a warm-up split.
        let forkable = |s: &&Scenario| s.forkable(&opts, "default").is_some();
        assert_eq!(reg.iter().filter(forkable).count(), 1);
    }

    #[test]
    fn list_tags_are_read_from_the_body() {
        let reg = Registry::standard();
        let tags = |name: &str| reg.get(name).unwrap().tags();
        assert_eq!(tags("fig04"), ("modelnet-mesh", "static"));
        assert_eq!(tags("fig08"), ("modelnet-mesh", "bandwidth-changes"));
        assert_eq!(tags("fig12"), ("cascade", "cascading-degrade"));
        assert_eq!(tags("fig17"), ("modelnet-mesh", "flash-crowd"));
        assert_eq!(tags("fig19"), ("shared-core", "cross-traffic"));
        assert_eq!(tags("fig20"), ("uniform-swarm", "static"));
        assert_eq!(tags("fig21"), ("shared-core", "open-arrivals"));
        assert_eq!(tags("fig15"), ("planetlab-like", "static"));
    }

    #[test]
    fn overall_comparisons_sweep_swarm_size() {
        let reg = Registry::standard();
        let points = &reg.get("fig05").unwrap().points;
        assert_eq!(points.len(), 3);
        assert!(points.iter().all(|p| p.nodes.is_some()));
        // Everything else defaults to the identity point.
        assert_eq!(reg.get("fig13").unwrap().points.len(), 1);
    }
}
