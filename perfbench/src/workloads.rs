//! The benchmark's four workloads. Each is a fixed family of batch jobs
//! with seeds derived from the run's seed; every job runs to completion.
//! A job's runtime depends strongly on its placement (the runtime factor
//! is a maximum over workers), so a run measures a whole family of jobs
//! and reports a trimmed mean, not one job. Configs start from the library
//! defaults and never pin `shards` or any other engine knob, so the
//! engine the program selects by default is the one measured.

use autobal::event_sim::EventSimConfig;
use autobal::protocol_sim::ProtocolSimConfig;
use autobal_core::{SimConfig, StrategyKind};

/// Workload names.
pub const NAMES: [&str; 4] = ["drain", "random_churn", "smart_neighbor", "event_smart"];

/// Tasks per worker in every workload.
const TASKS_PER_WORKER: u64 = 100;

pub enum Kind {
    /// The tick-driven oracle ring (`Sim`).
    Oracle(SimConfig),
    /// The event-time Chord substrate (`run_event_sim`).
    Event(EventSimConfig),
}

pub struct Workload {
    pub kind: Kind,
    /// Jobs in the family; job `j` runs with [`job_seed`]`(seed, j)`.
    pub jobs: u64,
}

/// The seed of job `j` in a run with seed `seed` (splitmix64).
pub fn job_seed(seed: u64, j: u64) -> u64 {
    let mut z = seed ^ j.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Workload {
    /// The workload named `name`, at full size or at smoke size.
    pub fn named(name: &str, smoke: bool) -> Option<Workload> {
        // (workers, workers at smoke size, jobs)
        let oracle = |(workers, small, jobs): (usize, usize, u64),
                      strategy: StrategyKind,
                      churn_rate: f64| {
            let nodes = if smoke { small } else { workers };
            Workload {
                kind: Kind::Oracle(SimConfig {
                    nodes,
                    tasks: TASKS_PER_WORKER * nodes as u64,
                    strategy,
                    churn_rate,
                    ..SimConfig::default()
                }),
                jobs,
            }
        };
        match name {
            // Sybil-free drain: the ring's work phase is the whole run;
            // the strategy layer is idle (control for check changes).
            "drain" => Some(oracle((50_000, 1_000, 5), StrategyKind::None, 0.0)),
            // The paper's headline strategy: write-heavy ring use
            // (Sybil joins and retires plus churn).
            "random_churn" => Some(oracle(
                (20_000, 1_000, 9),
                StrategyKind::RandomInjection,
                0.001,
            )),
            // Read-heavy ring use: load queries and successor walks
            // dominate the check ticks.
            "smart_neighbor" => Some(oracle((5_000, 1_000, 36), StrategyKind::SmartNeighbor, 0.0)),
            // The only workload on the event-time Chord substrate.
            "event_smart" => {
                let nodes = if smoke { 8 } else { 16 };
                Some(Workload {
                    kind: Kind::Event(EventSimConfig {
                        proto: ProtocolSimConfig {
                            nodes,
                            tasks: TASKS_PER_WORKER * nodes as u64,
                            strategy: StrategyKind::SmartNeighbor,
                            churn_rate: 0.01,
                            ..ProtocolSimConfig::default()
                        },
                        ..EventSimConfig::default()
                    }),
                    jobs: 64,
                })
            }
            _ => None,
        }
    }

    pub fn strategy(&self) -> StrategyKind {
        match &self.kind {
            Kind::Oracle(cfg) => cfg.strategy,
            Kind::Event(cfg) => cfg.proto.strategy,
        }
    }
}
