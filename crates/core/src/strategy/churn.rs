//! §IV-A *Churn* as a strategy layer.
//!
//! The paper's first observation is that churn alone balances load: a
//! departing node's tasks merge into its successor, and a joining node
//! immediately splits an arc and acquires work. Modeled here as a
//! [`StrategyScope::TickOnly`] layer so it can run standalone
//! ([`crate::config::StrategyKind::Churn`]) or compose underneath any
//! Sybil strategy as background turbulence (§VI-B-1).
//!
//! The loop mirrors the original simulator's churn tick exactly — same
//! candidate order, same RNG draw per candidate — so fixed-seed runs are
//! bit-identical across the refactor.

use super::{ChurnOps, Strategy, StrategyScope};

/// Bernoulli-per-tick churn: each active node leaves with probability
/// `leave_p`, each waiting node joins with probability `join_p`.
#[derive(Debug, Clone, Copy)]
pub struct BackgroundChurn {
    pub leave_p: f64,
    pub join_p: f64,
}

impl Strategy for BackgroundChurn {
    fn name(&self) -> &'static str {
        "churn"
    }

    fn scope(&self) -> StrategyScope {
        StrategyScope::TickOnly
    }

    fn on_tick(&self, ops: &mut dyn ChurnOps) {
        // Leaves. The last active node never leaves (the network would
        // vanish), and its trial is skipped, not drawn.
        let mut next = ops.next_leave_candidate(0);
        while let Some(idx) = next {
            if ops.active_count() <= 1 {
                break;
            }
            if ops.flip(self.leave_p) {
                ops.depart(idx);
            }
            next = ops.next_leave_candidate(idx + 1);
        }
        // Joins: one trial per worker waiting at the start of the phase,
        // front to back. Non-joiners (and failed joins) go to the back,
        // so the pool comes out in the order it went in.
        for _ in 0..ops.waiting_len() {
            let Some(idx) = ops.pop_waiting() else {
                break;
            };
            if ops.flip(self.join_p) {
                ops.rejoin(idx);
            } else {
                ops.requeue_waiting(idx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{SimConfig, StrategyKind};
    use crate::sim::Sim;

    #[test]
    fn churn_layer_moves_population_both_ways() {
        let cfg = SimConfig {
            nodes: 100,
            tasks: 5_000,
            strategy: StrategyKind::Churn,
            churn_rate: 0.05,
            ..SimConfig::default()
        };
        let res = Sim::new(cfg, 9).run();
        assert!(res.completed);
        assert!(res.messages.churn_leaves > 0);
        assert!(res.messages.churn_joins > 0);
    }

    #[test]
    fn network_never_fully_drains() {
        let cfg = SimConfig {
            nodes: 4,
            tasks: 400,
            strategy: StrategyKind::Churn,
            churn_rate: 0.9,
            ..SimConfig::default()
        };
        let mut sim = Sim::new(cfg, 10);
        for _ in 0..300 {
            sim.step();
            assert!(sim.active_workers() >= 1, "the last node must stay");
        }
    }
}
