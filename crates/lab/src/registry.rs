//! The scenario registry: every experiment of the evaluation grid by name.
//!
//! The registry is the single source of truth for what can be run: the `lab`
//! CLI lists and resolves scenarios here (`lab run <name>`).

use bullet_bench::{experiments, warmup};

use crate::scenario::{
    DynamicsKind, ParamPoint, Scenario, SweepSpec, SystemSet, TopologyKind, Warmup,
};

/// An ordered collection of uniquely named scenarios.
pub struct Registry {
    scenarios: Vec<Scenario>,
}

impl Registry {
    /// Builds the standard registry: Figures 4–15 of the paper plus the
    /// beyond-the-paper scenarios (16: crash wave, 17: flash crowd, 18:
    /// shared core bottleneck, 19: cross-traffic square wave, 20: emulator
    /// scaling trajectory, 21: open-system offered-load sweep, 22: flash
    /// crowd beside a warm swarm, 5ts: probe-driven bandwidth-over-time).
    pub fn standard() -> Self {
        use DynamicsKind as D;
        use SystemSet as S;
        use TopologyKind as T;
        let mut scenarios = vec![
            Scenario::new(
                "fig04",
                "download-time CDF of all four systems under random losses",
                S::AllFour,
                T::ModelNetMesh,
                D::Static,
                experiments::fig04,
            ),
            Scenario::new(
                "fig05",
                "download-time CDF of all four systems under synthetic bandwidth changes",
                S::AllFour,
                T::ModelNetMesh,
                D::BandwidthChanges,
                experiments::fig05,
            ),
            Scenario::new(
                "fig05ts",
                "probe-driven per-receiver goodput over time in the dynamic scenario",
                S::BulletPrime,
                T::ModelNetMesh,
                D::BandwidthChanges,
                experiments::fig05ts,
            ),
            Scenario::new(
                "fig05w",
                "snapshot/fork warm-up sharing: one join phase, three dynamics variants",
                S::BulletPrime,
                T::ModelNetMesh,
                D::BandwidthChanges,
                experiments::fig05w,
            )
            .with_warmup(Warmup {
                prefix: warmup::fig05w_prefix,
                fork: warmup::fig05w_fork,
                fresh: warmup::fig05w_fresh,
            }),
            Scenario::new(
                "fig06",
                "request strategies (rarest-random / random / rarest / first)",
                S::BulletPrimeVariants,
                T::ModelNetMesh,
                D::Static,
                experiments::fig06,
            ),
            Scenario::new(
                "fig07",
                "static peer-set sizes vs dynamic under random losses",
                S::BulletPrimeVariants,
                T::ModelNetMesh,
                D::Static,
                experiments::fig07,
            ),
            Scenario::new(
                "fig08",
                "static peer-set sizes vs dynamic under bandwidth changes",
                S::BulletPrimeVariants,
                T::ModelNetMesh,
                D::BandwidthChanges,
                experiments::fig08,
            ),
            Scenario::new(
                "fig09",
                "static peer-set sizes vs dynamic on constrained access links",
                S::BulletPrimeVariants,
                T::ConstrainedAccess,
                D::Static,
                experiments::fig09,
            ),
            Scenario::new(
                "fig10",
                "outstanding-request windows on clean high-BDP links",
                S::BulletPrimeVariants,
                T::HighBdpClique,
                D::Static,
                experiments::fig10,
            ),
            Scenario::new(
                "fig11",
                "outstanding-request windows under random losses",
                S::BulletPrimeVariants,
                T::HighBdpClique,
                D::Static,
                experiments::fig11,
            ),
            Scenario::new(
                "fig12",
                "outstanding-request windows under cascading degradations",
                S::BulletPrimeVariants,
                T::Cascade,
                D::CascadingDegrade,
                experiments::fig12,
            ),
            Scenario::new(
                "fig13",
                "block inter-arrival times (last-block problem) and encoding overage",
                S::BulletPrime,
                T::ModelNetMesh,
                D::Static,
                experiments::fig13,
            ),
            Scenario::new(
                "fig14",
                "wide-area (PlanetLab-like) comparison of all four systems",
                S::AllFour,
                T::PlanetLabLike,
                D::Static,
                experiments::fig14,
            ),
            Scenario::new(
                "fig15",
                "Shotgun software update vs N parallel rsync processes",
                S::Shotgun,
                T::PlanetLabLike,
                D::Static,
                experiments::fig15,
            ),
            Scenario::new(
                "fig16",
                "survivor download-time CDF under receiver crash waves",
                S::BulletPrime,
                T::ModelNetMesh,
                D::CrashWave,
                experiments::fig16,
            ),
            Scenario::new(
                "fig17",
                "download-duration CDF with a flash-crowd join wave",
                S::BulletPrime,
                T::ModelNetMesh,
                D::FlashCrowd,
                experiments::fig17,
            ),
            Scenario::new(
                "fig18",
                "two concurrent meshes sharing one 2 Mbps core bottleneck",
                S::BulletPrime,
                T::SharedCore,
                D::Static,
                experiments::fig18,
            ),
            Scenario::new(
                "fig19",
                "cross-traffic square wave vs Bullet' adaptivity (goodput over time)",
                S::BulletPrime,
                T::SharedCore,
                D::CrossTraffic,
                experiments::fig19,
            ),
            Scenario::new(
                "fig20",
                "emulator scaling trajectory: join-only swarms up to 10,000 nodes",
                S::BulletPrime,
                T::UniformSwarm,
                D::Static,
                experiments::fig20,
            ),
            Scenario::new(
                "fig21",
                "open-system offered-load sweep: Poisson swarm arrivals to the knee",
                S::BulletPrime,
                T::SharedCore,
                D::OpenArrivals,
                experiments::fig21,
            ),
            Scenario::new(
                "fig22",
                "flash crowd of joiners arriving beside an already-warm swarm",
                S::BulletPrime,
                T::SharedCore,
                D::OpenArrivals,
                experiments::fig22,
            ),
        ];

        // Default parameter sweeps where one knob is the interesting axis:
        // the overall comparisons sweep swarm size; fig05w sweeps the
        // post-warm-up dynamics variant (identical numerics per point, so
        // all variants of one seed share a warm-up prefix).
        for sc in &mut scenarios {
            if sc.name == "fig05w" {
                sc.sweep = SweepSpec {
                    points: warmup::FIG05W_VARIANTS
                        .iter()
                        .map(|&label| ParamPoint {
                            label,
                            ..Default::default()
                        })
                        .collect(),
                    ..SweepSpec::default()
                };
            }
            if sc.name == "fig04" || sc.name == "fig05" {
                sc.sweep = SweepSpec {
                    points: vec![
                        ParamPoint {
                            label: "20-nodes",
                            nodes: Some(20),
                            ..Default::default()
                        },
                        ParamPoint {
                            label: "40-nodes",
                            nodes: Some(40),
                            ..Default::default()
                        },
                        ParamPoint {
                            label: "60-nodes",
                            nodes: Some(60),
                            ..Default::default()
                        },
                    ],
                    ..SweepSpec::default()
                };
            }
        }

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
        assert!(sc.warmup.is_some());
        let labels: Vec<_> = sc.sweep.points.iter().map(|p| p.label).collect();
        assert_eq!(labels, vec!["calm", "paper", "storm"]);
        // Identical numerics per point: all variants of one seed must land
        // in the same prefix group.
        assert!(sc.sweep.points.iter().all(|p| *p
            == ParamPoint {
                label: p.label,
                ..Default::default()
            }));
        // fig05w is the only scenario with a warm-up split.
        assert_eq!(reg.iter().filter(|s| s.warmup.is_some()).count(), 1);
    }

    #[test]
    fn overall_comparisons_sweep_swarm_size() {
        let reg = Registry::standard();
        let sweep = &reg.get("fig05").unwrap().sweep;
        assert_eq!(sweep.points.len(), 3);
        assert!(sweep.points.iter().all(|p| p.nodes.is_some()));
        // Everything else defaults to the identity point.
        assert_eq!(reg.get("fig13").unwrap().sweep.points.len(), 1);
    }
}
