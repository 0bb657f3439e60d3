//! Differential tests for the ring engine at every supported shard
//! count: [`Ring`] against the naive reference ring and simulator in
//! [`autobal::reference`].
//!
//! Equality is **bit-for-bit**: identical task element order inside
//! every vnode (so the shared xorshift pop stream consumes identical
//! indices), identical routing answers, and — at the simulator level —
//! identical run outcomes against the pop-by-pop [`NaiveSim`], plus
//! identical [`RunResult`]s (trace and metrics bytes included) across
//! shard counts, for every strategy, under any rayon thread count.

use autobal::reference::{NaiveRing, NaiveRunResult, NaiveSim};
use autobal::sim::{Heterogeneity, Ring, RunResult, Sim, SimConfig, StrategyKind, WorkMeasurement};
use autobal::Id;
use proptest::prelude::*;

/// Shard counts under differential test. 3 is deliberately not a
/// divisor of the id space; 8 puts the `pos_id` population across
/// every shard.
const SHARD_COUNTS: &[usize] = &[1, 2, 3, 8];

/// 256 vnode positions spread across the whole 160-bit ring (top limb
/// holds 32 bits). With 8 shards the arc boundaries sit at `v = 32·k`,
/// so the population regularly straddles shard boundaries and the
/// highest position's arc wraps through zero (and through the shard
/// 7 → 0 seam).
fn pos_id(v: u8) -> Id {
    Id::from_limbs(0x5DEE_CE66_D154_21C4, 0, (v as u64) << 24)
}

/// Task keys at finer top-limb granularity than the positions, so they
/// interleave through every arc including the wrap arc.
fn key_id(v: u16) -> Id {
    Id::from_limbs(1, 0x9E37_79B9, (v as u64) << 16)
}

/// Post-setup operations, mirroring `tests/ring_reference.rs`: setup
/// inserts, one task assignment, then arbitrary churn and consumption.
#[derive(Debug, Clone)]
enum Op {
    Insert { pos: u8, owner: u8 },
    Remove { pos: u8 },
    Pop { pos: u8 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    (0u8..8, any::<u8>(), any::<u8>()).prop_map(|(tag, pos, owner)| match tag {
        0..=2 => Op::Insert { pos, owner },
        3 | 4 => Op::Remove { pos },
        _ => Op::Pop { pos },
    })
}

fn rings() -> Vec<Ring> {
    SHARD_COUNTS.iter().map(|&s| Ring::with_shards(s)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One operation soup, driven simultaneously through the naive
    /// reference and a `Ring` per shard count. Full state (including
    /// task element order) must agree after every single operation on
    /// every shard count, and every ring's owner chains must stay
    /// consistent.
    #[test]
    fn op_soup_is_bit_identical_across_shard_counts(
        positions in proptest::collection::vec(any::<u8>(), 1..10),
        keys in proptest::collection::vec(any::<u16>(), 0..60),
        ops in proptest::collection::vec(arb_op(), 1..64),
    ) {
        let mut naive = NaiveRing::new();
        let mut rings = rings();
        for (i, &p) in positions.iter().enumerate() {
            let id = pos_id(p);
            let want = naive.insert_vnode(id, i).ok();
            for r in rings.iter_mut() {
                prop_assert_eq!(r.insert_vnode(id, i).ok(), want);
            }
        }
        let keys: Vec<Id> = keys.into_iter().map(key_id).collect();
        naive.assign_tasks(keys.clone());
        for r in rings.iter_mut() {
            r.assign_tasks(keys.clone());
            prop_assert_eq!(r.rows(), naive.rows());
        }

        for op in ops {
            match op {
                Op::Insert { pos, owner } => {
                    let id = pos_id(pos);
                    let want = naive.insert_vnode(id, owner as usize).ok();
                    // The split victim is whoever owns the newcomer's
                    // successor (nobody when the ring was empty).
                    let victim = match naive.len() {
                        1 => None,
                        _ => naive.successor_of(id).and_then(|s| naive.owner(s)),
                    };
                    for r in rings.iter_mut() {
                        let got = r.insert_vnode(id, owner as usize).ok();
                        prop_assert_eq!(got, want);
                        if let Some(split) = got {
                            prop_assert_eq!(split.victim, victim);
                        }
                    }
                }
                Op::Remove { pos } => {
                    let id = pos_id(pos);
                    let want = naive.remove_vnode(id).ok();
                    for r in rings.iter_mut() {
                        let got = r.remove_vnode(id).ok();
                        prop_assert_eq!(got, want);
                        if let Some(merge) = got {
                            // The heir owns the successor that took the
                            // keys (the leaver itself when it was last).
                            let heir = naive.owner(merge.succ).unwrap_or(merge.owner);
                            prop_assert_eq!(merge.succ_owner, heir);
                        }
                    }
                }
                Op::Pop { pos } => {
                    let id = pos_id(pos);
                    let want = naive.pop_task(id);
                    for r in rings.iter_mut() {
                        prop_assert_eq!(r.pop_task(id), want);
                    }
                }
            }
            for r in rings.iter() {
                prop_assert_eq!(r.len(), naive.len());
                prop_assert_eq!(r.total_tasks(), naive.total_tasks());
                prop_assert_eq!(r.rows(), naive.rows());
                prop_assert!(r.check_invariants().is_ok());
            }
        }
    }

    /// Routing answers — key ownership, successor/predecessor walks,
    /// and k-neighbor lists (which cross shard seams) — agree with the
    /// reference at every shard count, and every vnode a walk passes
    /// reports the reference's owner and load.
    #[test]
    fn routing_is_identical_across_shard_counts(
        positions in proptest::collection::vec(any::<u8>(), 1..12),
        keys in proptest::collection::vec(any::<u16>(), 0..60),
        probes in proptest::collection::vec(any::<u16>(), 1..32),
    ) {
        let mut naive = NaiveRing::new();
        let mut rings = rings();
        for (i, &p) in positions.iter().enumerate() {
            let id = pos_id(p);
            let _ = naive.insert_vnode(id, i);
            for r in rings.iter_mut() {
                let _ = r.insert_vnode(id, i);
            }
        }
        let keys: Vec<Id> = keys.into_iter().map(key_id).collect();
        naive.assign_tasks(keys.clone());
        for r in rings.iter_mut() {
            r.assign_tasks(keys.clone());
        }
        let probes = probes.into_iter().map(key_id).chain(positions.into_iter().map(pos_id));
        for k in probes {
            for r in &rings {
                prop_assert_eq!(r.owner_of_key(k), naive.owner_of_key(k));
                prop_assert_eq!(r.successor_of(k), naive.successor_of(k));
                prop_assert_eq!(r.predecessor_of(k), naive.predecessor_of(k));
                prop_assert_eq!(r.successors(k, 3), naive.successors(k, 3));
                prop_assert_eq!(r.predecessors(k, 3), naive.predecessors(k, 3));
                let visits = r.successor_walk(k).take(4).chain(r.predecessor_walk(k).take(4));
                for v in visits {
                    prop_assert_eq!(Some(v.owner), naive.owner(v.id));
                    prop_assert_eq!(v.load, naive.load(v.id));
                }
            }
        }
    }

    /// Walks on rings of one to three vnodes, asking for up to three
    /// more neighbors than the ring holds. From a present id the walk
    /// stops when it comes back round; from an absent id it never does,
    /// so the list repeats the ring — the reference's stepwise answer,
    /// which the single ordered walk must reproduce across shard seams.
    #[test]
    fn walks_on_tiny_rings_repeat_like_the_reference(
        positions in proptest::collection::vec(any::<u8>(), 1..=3),
        probes in proptest::collection::vec(any::<u16>(), 1..16),
    ) {
        let mut naive = NaiveRing::new();
        let mut rings = rings();
        for (i, &p) in positions.iter().enumerate() {
            let id = pos_id(p);
            let _ = naive.insert_vnode(id, i);
            for r in rings.iter_mut() {
                let _ = r.insert_vnode(id, i);
            }
        }
        let len = naive.len();
        // Key ids never coincide with vnode positions, so those probes
        // are absent; the positions themselves are present.
        let probes = probes.into_iter().map(key_id).chain(positions.into_iter().map(pos_id));
        for p in probes {
            for k in 0..=len + 3 {
                let (succs, preds) = (naive.successors(p, k), naive.predecessors(p, k));
                for r in &rings {
                    prop_assert_eq!(r.successors(p, k), succs.clone());
                    prop_assert_eq!(r.predecessors(p, k), preds.clone());
                }
            }
        }
    }
}

/// A scripted cross-shard split: with 8 shards the population sits in
/// shards 0 (`0x10`), 3 (`0x70`), and 7 (`0xF0`). The arc
/// `(0xF0, 0x10]` wraps through zero across the shard 7 → 0 seam, and
/// inserting at `0x70` splits an arc whose keys live in a different
/// shard than the newcomer. Both are the branchiest paths of
/// `insert_vnode`/`remove_vnode` (cross-shard successor walks plus task
/// migration between shards).
#[test]
fn cross_shard_splits_match_reference() {
    let mut naive = NaiveRing::new();
    let mut ring = Ring::with_shards(8);

    for (pos, owner) in [(0x10u8, 0usize), (0xF0, 1)] {
        assert!(naive.insert_vnode(pos_id(pos), owner).is_ok());
        assert!(ring.insert_vnode(pos_id(pos), owner).is_ok());
    }
    // Keys in the wrap region (above 0xF0, below 0x10) and mid-ring.
    let keys: Vec<Id> = [0xF8_00u16, 0xFE_00, 0x01_00, 0x20_00, 0x70_00, 0x90_00]
        .into_iter()
        .map(key_id)
        .collect();
    naive.assign_tasks(keys.clone());
    ring.assign_tasks(keys);
    assert_eq!(ring.load(pos_id(0x10)), 3, "wrap arc holds 3 keys");
    assert_eq!(ring.rows(), naive.rows());

    // Split the long arc (0x10, 0xF0] at 0x70: the newcomer (shard 3)
    // takes the keys in (0x10, 0x70] away from 0xF0 (shard 7).
    assert_eq!(
        ring.insert_vnode(pos_id(0x70), 2).ok(),
        naive.insert_vnode(pos_id(0x70), 2).ok()
    );
    assert_eq!(ring.rows(), naive.rows());

    // Split the wrap arc at 0x08 (shard 0): keys strictly in
    // (0xF0, 0x08] — 0xF8, 0xFE, 0x01 — migrate from shard 0's 0x10.
    assert_eq!(
        ring.insert_vnode(pos_id(0x08), 3).ok(),
        naive.insert_vnode(pos_id(0x08), 3).ok()
    );
    assert_eq!(ring.rows(), naive.rows());

    // Removals merge back across the same seams identically.
    for pos in [0x08u8, 0x70] {
        assert_eq!(
            ring.remove_vnode(pos_id(pos)).ok(),
            naive.remove_vnode(pos_id(pos)).ok()
        );
        assert_eq!(ring.rows(), naive.rows());
    }
    assert_eq!(ring.load(pos_id(0x10)), 3);
    assert!(ring.check_invariants().is_ok());
}

/// Simulator-level parity: for every strategy (including the
/// centralized oracle) and background churn, a run at 2, 3 or 8 shards
/// produces a `RunResult` equal to the single-shard run in every field:
/// ticks, work curve, snapshots, message counts, event log, golden
/// float series, trace records, and metrics samples.
#[test]
fn every_strategy_is_shard_count_invariant() {
    let kinds = StrategyKind::ALL
        .iter()
        .copied()
        .chain([StrategyKind::CentralizedOracle]);
    for kind in kinds {
        let base = SimConfig {
            nodes: 60,
            tasks: 6_000,
            strategy: kind,
            churn_rate: 0.01,
            snapshot_ticks: vec![0, 5],
            series_interval: Some(3),
            record_events: true,
            record_trace: true,
            record_metrics: true,
            ..SimConfig::default()
        };
        let solo = Sim::new(
            SimConfig {
                shards: 1,
                ..base.clone()
            },
            123,
        )
        .run();
        for shards in [2u32, 3, 8] {
            let sharded = Sim::new(
                SimConfig {
                    shards,
                    ..base.clone()
                },
                123,
            )
            .run();
            assert_eq!(solo, sharded, "{kind:?} diverged at {shards} shards");
        }
    }
}

/// Every outcome column [`NaiveSim`] reports must match the run's.
fn assert_matches_naive(res: &RunResult, naive: &NaiveRunResult, what: &str) {
    assert_eq!(res.ticks, naive.ticks, "ticks: {what}");
    assert_eq!(res.completed, naive.completed, "completed: {what}");
    assert_eq!(res.work_per_tick, naive.work_per_tick, "work: {what}");
    assert_eq!(res.messages.churn_leaves, naive.churn_leaves, "{what}");
    assert_eq!(res.messages.churn_joins, naive.churn_joins, "{what}");
    assert_eq!(res.messages.sybils_created, naive.sybils_created, "{what}");
    assert_eq!(res.messages.sybils_retired, naive.sybils_retired, "{what}");
    assert_eq!(res.peak_vnodes, naive.peak_vnodes, "peak vnodes: {what}");
    assert_eq!(res.series.gini, naive.series_gini, "gini: {what}");
    assert_eq!(res.series.idle, naive.series_idle, "idle: {what}");
}

/// The planned tick on Sybil-free rings agrees with the pop-by-pop
/// reference end to end, with and without churn interruptions, at every
/// shard count.
#[test]
fn sharded_sim_matches_naive_reference() {
    for (strategy, churn_rate) in [(StrategyKind::None, 0.0), (StrategyKind::Churn, 0.05)] {
        let cfg = SimConfig {
            nodes: 40,
            tasks: 2_000,
            strategy,
            churn_rate,
            series_interval: Some(3),
            ..SimConfig::default()
        };
        for seed in [1u64, 42, 0xA0B1_C2D3] {
            let naive = NaiveSim::new(cfg.clone(), seed).run();
            for &shards in SHARD_COUNTS {
                let cfg = SimConfig {
                    shards: shards as u32,
                    ..cfg.clone()
                };
                let res = Sim::new(cfg, seed).run();
                assert_matches_naive(&res, &naive, &format!("{strategy:?} seed {seed} s{shards}"));
            }
        }
    }
}

/// The planned tick on rings where workers hold several vnodes — Sybils,
/// static virtual servers, or both — must replay the pop-by-pop drain
/// (primary, then statics, then Sybils, capacity carried across them)
/// exactly, at every shard count. A stepped run also re-verifies after
/// every tick that each worker's slot chain lists its vnodes in
/// `Worker::vnodes()` order.
#[test]
fn planned_ticks_on_multi_vnode_rings_match_naive_reference() {
    let base = SimConfig {
        nodes: 80,
        tasks: 6_000,
        series_interval: Some(3),
        ..SimConfig::default()
    };
    let cases = [
        (
            "random injection under churn 0.001",
            SimConfig {
                strategy: StrategyKind::RandomInjection,
                churn_rate: 0.001,
                ..base.clone()
            },
        ),
        (
            "strength per tick over Sybils",
            SimConfig {
                strategy: StrategyKind::RandomInjection,
                heterogeneity: Heterogeneity::Heterogeneous,
                work_measurement: WorkMeasurement::StrengthPerTick,
                ..base.clone()
            },
        ),
        (
            "three static virtual servers, detached ledger",
            SimConfig {
                strategy: StrategyKind::None,
                virtual_nodes_per_worker: 3,
                series_interval: None,
                heterogeneity: Heterogeneity::Heterogeneous,
                work_measurement: WorkMeasurement::StrengthPerTick,
                ..base.clone()
            },
        ),
        (
            "statics and Sybils under churn",
            SimConfig {
                strategy: StrategyKind::RandomInjection,
                virtual_nodes_per_worker: 3,
                churn_rate: 0.01,
                heterogeneity: Heterogeneity::Heterogeneous,
                work_measurement: WorkMeasurement::StrengthPerTick,
                ..base.clone()
            },
        ),
    ];
    for (what, cfg) in cases {
        for seed in [5u64, 0xBEEF] {
            let naive = NaiveSim::new(cfg.clone(), seed).run();
            assert!(naive.completed, "{what}");
            for &shards in SHARD_COUNTS {
                let cfg = SimConfig {
                    shards: shards as u32,
                    ..cfg.clone()
                };
                let res = Sim::new(cfg.clone(), seed).run();
                assert_matches_naive(&res, &naive, &format!("{what}, seed {seed}, s{shards}"));
            }
            let mut sim = Sim::new(
                SimConfig {
                    shards: 3,
                    ..cfg.clone()
                },
                seed,
            );
            while sim.remaining_tasks() > 0 {
                sim.step();
                if let Err(e) = sim.check_invariants() {
                    panic!("{what}, seed {seed}, tick {}: {e}", sim.tick());
                }
            }
            assert_eq!(sim.tick(), naive.ticks, "{what}, seed {seed}");
        }
    }
}

/// The detached-ledger tick (nothing armed that could observe worker
/// loads mid-run: no churn, no strategy, no sampling or snapshots)
/// plans pops from the ring's columns instead of the worker table. It
/// must stay bit-identical to the naive reference at every shard count
/// — under both capacity models, since the planner reads capacities
/// from a cached list.
#[test]
fn detached_ledger_runs_match_naive_at_every_shard_count() {
    for (heterogeneity, work_measurement) in [
        (Heterogeneity::Homogeneous, WorkMeasurement::OnePerTick),
        (
            Heterogeneity::Heterogeneous,
            WorkMeasurement::StrengthPerTick,
        ),
    ] {
        let base = SimConfig {
            nodes: 70,
            tasks: 7_000,
            strategy: StrategyKind::None,
            churn_rate: 0.0,
            series_interval: None,
            heterogeneity,
            work_measurement,
            ..SimConfig::default()
        };
        let naive = NaiveSim::new(base.clone(), 99).run();
        let solo = Sim::new(base.clone(), 99).run();
        assert_matches_naive(&solo, &naive, &format!("{heterogeneity:?}"));
        for &shards in SHARD_COUNTS {
            let mut sim = Sim::new(
                SimConfig {
                    shards: shards as u32,
                    ..base.clone()
                },
                99,
            );
            // Drive a few ticks by hand first: `active_loads` must stay
            // truthful mid-run even while the worker ledger is stale.
            let mut head_consumed = 0u64;
            for _ in 0..3 {
                head_consumed += sim.step();
            }
            let loads: u64 = sim.active_loads().iter().sum();
            assert_eq!(
                loads,
                sim.remaining_tasks(),
                "stale ledger leaked into active_loads at {shards} shards"
            );
            let sharded = sim.run();
            assert_eq!(
                head_consumed,
                naive.work_per_tick.iter().take(3).sum::<u64>(),
                "{heterogeneity:?} diverged in stepped head at {shards} shards"
            );
            assert_eq!(
                sharded, solo,
                "{heterogeneity:?} diverged at {shards} shards"
            );
        }
    }
}

/// Rayon scheduling must not leak into results: the same sharded run
/// on a 1-thread pool (sequential shard dispatch) and an 8-thread pool
/// (parallel shard dispatch) emits byte-identical trace and metrics
/// JSONL and the same work curve.
#[test]
fn thread_count_does_not_change_trace_or_metrics_bytes() {
    let cfg = SimConfig {
        nodes: 80,
        tasks: 8_000,
        strategy: StrategyKind::Churn,
        churn_rate: 0.02,
        record_trace: true,
        record_metrics: true,
        shards: 8,
        ..SimConfig::default()
    };
    let run = |threads: usize| {
        let cfg = cfg.clone();
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(move || {
                let res = Sim::new(cfg, 7).run();
                (
                    autobal_telemetry::to_jsonl(res.trace.records()),
                    autobal_metrics::sample::to_jsonl(&res.metrics),
                    res.work_per_tick.clone(),
                    res.ticks,
                )
            })
    };
    let single = run(1);
    let multi = run(8);
    assert_eq!(single.0, multi.0, "trace bytes depend on thread count");
    assert_eq!(single.1, multi.1, "metrics bytes depend on thread count");
    assert_eq!((single.2, single.3), (multi.2, multi.3));
}
