//! Bullet′ swarms for the open-system service mode.
//!
//! [`netsim::service`] is protocol-agnostic: it manages slots, arrivals and
//! retirement, but delegates what a swarm *is* to a
//! [`netsim::SwarmSource`]. This module supplies the Bullet′
//! implementation: every arriving swarm gets its own control tree (rooted at the
//! segment base, like [`build_group_nodes`](crate::build_group_nodes)'s
//! groups), its own [`Config`] with a per-swarm file drawn from seeded
//! ranges, and one [`BulletPrimeNode`] per slot.

use desim::RngFactory;
use dissem_codec::FileSpec;
use netsim::{NodeId, SwarmShape, SwarmSource};
use overlay::ControlTree;
use rand::Rng;

use crate::builder::{tree_nodes, CONTROL_TREE_DEGREE};
use crate::config::Config;
use crate::node::BulletPrimeNode;

/// A flash-crowd arrival pattern: only `initial` slots (source included)
/// are active at admission; the rest join spread over `window_secs`.
#[derive(Debug, Clone, PartialEq)]
pub struct FlashShape {
    /// Slots active at admission, source included (so at least 1).
    pub initial: usize,
    /// Seconds over which the remaining receivers join, uniformly.
    pub window_secs: f64,
}

/// Draws Bullet′ swarms from seeded per-swarm distributions and builds
/// their nodes. Shape draws come from the factory's
/// `"service.shape"`-indexed streams, so the i-th swarm's size and file are
/// independent of admission timing and of every other swarm.
#[derive(Debug, Clone)]
pub struct ServiceSwarms {
    template: Config,
    rng: RngFactory,
    /// Inclusive cohort-size range (source included), drawn uniformly.
    size_range: (usize, usize),
    /// Inclusive file-size range in bytes, drawn uniformly.
    file_bytes_range: (u64, u64),
    /// Block size for every swarm's file.
    block_bytes: u32,
    /// How every swarm after the first populates its segment: `None` means
    /// in full at admission. The first swarm always does, so a flash crowd
    /// lands beside a warm swarm.
    pub flash: Option<FlashShape>,
}

impl ServiceSwarms {
    /// Creates a source drawing uniform cohort sizes and file sizes, with no
    /// flash crowd. The `template` config is cloned per swarm with the drawn
    /// file installed.
    pub fn new(
        template: Config,
        rng: &RngFactory,
        size_range: (usize, usize),
        file_bytes_range: (u64, u64),
    ) -> Self {
        assert!(size_range.0 >= 2, "a swarm needs a source and a receiver");
        assert!(size_range.0 <= size_range.1, "empty cohort-size range");
        assert!(
            0 < file_bytes_range.0 && file_bytes_range.0 <= file_bytes_range.1,
            "bad file-size range"
        );
        ServiceSwarms {
            block_bytes: template.file.block_bytes,
            template,
            rng: rng.clone(),
            size_range,
            file_bytes_range,
            flash: None,
        }
    }
}

impl SwarmSource<BulletPrimeNode> for ServiceSwarms {
    fn shape(&mut self, index: usize) -> SwarmShape {
        let mut draw = self.rng.stream_indexed("service.shape", index as u64);
        let size = draw.gen_range(self.size_range.0..=self.size_range.1);
        let file_bytes = draw.gen_range(self.file_bytes_range.0..=self.file_bytes_range.1);
        let (initial, join_window_secs) = match &self.flash {
            Some(f) if index > 0 => (f.initial.clamp(1, size), f.window_secs),
            _ => (size, 0.0),
        };
        SwarmShape {
            size,
            file_bytes,
            initial,
            join_window_secs,
        }
    }

    fn build(&mut self, base: NodeId, shape: &SwarmShape) -> Vec<BulletPrimeNode> {
        let tree = ControlTree::random_rooted(base, shape.size, CONTROL_TREE_DEGREE, &self.rng);
        let mut cfg = self.template.clone();
        cfg.file = FileSpec::new(shape.file_bytes, self.block_bytes);
        tree_nodes(&tree, &cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build_runner;
    use crate::node::Role;
    use desim::{SimDuration, SimTime};
    use netsim::{run_service, topology, ArrivalGen, ServiceConfig};

    fn swarms() -> ServiceSwarms {
        let rng = RngFactory::new(20050410);
        let cfg = Config::new(FileSpec::new(256 * 1024, 16 * 1024));
        ServiceSwarms::new(cfg, &rng, (4, 8), (128 * 1024, 512 * 1024))
    }

    #[test]
    fn shapes_are_deterministic_and_in_range() {
        let mut a = swarms();
        let mut b = swarms();
        for i in 0..32 {
            let s = a.shape(i);
            assert_eq!(s, b.shape(i), "shape {i} must be a pure function");
            assert!((4..=8).contains(&s.size));
            assert!((128 * 1024..=512 * 1024).contains(&s.file_bytes));
            assert_eq!(s.initial, s.size, "no flash crowd configured");
        }
    }

    #[test]
    fn first_swarm_of_a_flash_service_is_warm() {
        let mut source = swarms();
        source.flash = Some(FlashShape {
            initial: 2,
            window_secs: 30.0,
        });
        let warm = source.shape(0);
        assert_eq!((warm.initial, warm.join_window_secs), (warm.size, 0.0));
        assert_eq!(source.shape(1).initial, 2);
        assert_eq!(source.shape(1).join_window_secs, 30.0);
    }

    #[test]
    fn built_swarms_are_rooted_at_their_segment_base() {
        let mut src = swarms();
        let shape = src.shape(0);
        let nodes = src.build(NodeId(16), &shape);
        assert_eq!(nodes.len(), shape.size);
        assert_eq!(nodes[0].role(), Role::Source);
        assert!(nodes[1..].iter().all(|n| n.role() == Role::Receiver));
    }

    #[test]
    fn bullet_swarms_complete_through_the_service_manager() {
        // End-to-end: two sequential Bullet′ swarms over a shared-core mesh,
        // admitted, completed and reaped by the open-system manager.
        let rng = RngFactory::new(20050410);
        let topo = topology::shared_core_mesh(8, netsim::mbps(20.0), 0.0, &rng);
        let template = Config::new(FileSpec::new(128 * 1024, 16 * 1024));
        let mut runner = build_runner(topo, &template, &rng);
        let mut source = ServiceSwarms::new(template, &rng, (6, 6), (128 * 1024, 128 * 1024));
        let cfg = ServiceConfig {
            horizon: SimTime::from_secs_f64(600.0),
            warmup: SimTime::from_secs_f64(60.0),
            tick: SimDuration::from_secs(10),
            segment_slots: 8,
            max_arrivals: 4,
            core: None,
        };
        let gen = ArrivalGen::Trace(vec![SimTime::ZERO, SimTime::from_secs_f64(250.0)]);
        let report = run_service(&mut runner, &cfg, &gen, &mut source, &rng);
        assert_eq!(report.admitted, 2);
        assert_eq!(
            report.completed, 2,
            "both Bullet′ swarms must finish inside the horizon: {report:?}"
        );
        assert_eq!(runner.network().live_flows(), 0);
        assert!(report.cohorts[0].p50_secs > 0.0);
    }
}
