//! A *centralized* comparator — not one of the paper's strategies.
//!
//! The paper motivates its work by rejecting centralized balancers
//! (single point of failure, §I/§II) but never quantifies what
//! centralization would buy. This strategy plays that role: an
//! omniscient coordinator that, on every check tick, pairs the globally
//! least-loaded eligible workers with the globally most-loaded virtual
//! nodes and splits those nodes at their task medians. It is the
//! best-case any Sybil-based balancer could approach, so the gap between
//! it and random injection measures the price of decentralization.
//!
//! Because it needs [`OracleView`] — the whole worker table and every
//! vnode's load — it dispatches with [`StrategyScope::Omniscient`] and
//! only runs on the oracle-ring substrate; a real Chord network cannot
//! (and must not) provide that view.

// autobal-lint: allow(strategy-locality, "the centralized comparator is the one sanctioned OracleView consumer")
use super::{OracleView, Strategy, StrategyScope};
use autobal_id::Id;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The centralized comparator.
#[derive(Debug, Clone, Copy, Default)]
pub struct CentralizedOracle;

impl Strategy for CentralizedOracle {
    fn name(&self) -> &'static str {
        "centralized-oracle"
    }

    fn scope(&self) -> StrategyScope {
        StrategyScope::Omniscient
    }

    // autobal-lint: allow(strategy-locality, "omniscient dispatch is this strategy's documented role")
    fn check_global(&self, view: &mut dyn OracleView) {
        // Eligible helpers, least-loaded first.
        let mut helpers: Vec<usize> = (0..view.worker_count())
            .filter(|&i| view.is_worker_active(i))
            .collect();
        helpers.sort_unstable_by_key(|&i| view.worker_load(i));
        let helpers: Vec<usize> = helpers
            .into_iter()
            .filter(|&i| view.worker_can_spawn(i))
            .collect();
        if helpers.is_empty() {
            return;
        }

        // Global view of vnode loads (the coordinator's omniscience).
        let mut heap: BinaryHeap<(u64, Reverse<Id>)> = view
            .vnode_loads()
            .into_iter()
            .map(|(id, l)| (l, Reverse(id)))
            .collect();

        for helper in helpers {
            let Some((load, Reverse(victim))) = heap.pop() else {
                break;
            };
            if load < 2 {
                break; // nothing left worth splitting
            }
            // The heap entry may be stale (an earlier split shrank it);
            // use the live load.
            let live = view.vnode_load(victim);
            if live < 2 {
                continue;
            }
            let Some(pos) = view.median_task_key(victim) else {
                continue;
            };
            if let Some(acquired) = view.spawn_sybil_for(helper, pos) {
                heap.push((live - acquired, Reverse(victim)));
                heap.push((acquired, Reverse(pos)));
            } else {
                heap.push((live, Reverse(victim)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{SimConfig, StrategyKind};
    use crate::sim::Sim;

    fn cfg(strategy: StrategyKind) -> SimConfig {
        SimConfig {
            nodes: 100,
            tasks: 10_000,
            strategy,
            ..SimConfig::default()
        }
    }

    #[test]
    fn oracle_approaches_ideal() {
        let res = Sim::new(cfg(StrategyKind::CentralizedOracle), 1).run();
        assert!(res.completed);
        assert!(
            res.runtime_factor < 1.6,
            "oracle factor {}",
            res.runtime_factor
        );
    }

    #[test]
    fn oracle_is_at_least_as_good_as_random_injection() {
        let mut oracle_sum = 0.0;
        let mut random_sum = 0.0;
        for seed in 0..5 {
            oracle_sum += Sim::new(cfg(StrategyKind::CentralizedOracle), seed)
                .run()
                .runtime_factor;
            random_sum += Sim::new(cfg(StrategyKind::RandomInjection), seed)
                .run()
                .runtime_factor;
        }
        assert!(
            oracle_sum <= random_sum + 0.25,
            "oracle {oracle_sum} vs random {random_sum}"
        );
    }

    #[test]
    fn oracle_conserves_tasks() {
        let mut sim = Sim::new(cfg(StrategyKind::CentralizedOracle), 2);
        let mut consumed = 0;
        for _ in 0..60 {
            consumed += sim.step();
        }
        assert_eq!(sim.remaining_tasks() + consumed, 10_000);
        sim.check_invariants().unwrap();
    }
}
