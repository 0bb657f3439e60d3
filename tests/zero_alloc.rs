//! Allocation regression test for the steady-state tick loop.
//!
//! The hot-path overhaul's core promise: once a simulation reaches
//! steady state (placement done, scratch buffers warmed), `Sim::step`
//! performs **zero** heap allocations. This binary installs the
//! counting allocator from `autobal-meminstr` process-wide and measures
//! a 1 000-tick window directly.
//!
//! Gated behind the `count-allocs` feature so the ordinary test run
//! keeps the system allocator untouched:
//!
//! ```text
//! cargo test --release --features count-allocs --test zero_alloc
//! ```
#![cfg(feature = "count-allocs")]

use autobal::meminstr::{allocation_delta, CountingAlloc};
use autobal::sim::{Sim, SimConfig, StrategyKind};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// A workload big enough that 1 000 + warmup ticks cannot drain it, so
/// every measured tick exercises the full work loop.
fn steady_cfg() -> SimConfig {
    SimConfig {
        nodes: 200,
        tasks: 2_000_000,
        strategy: StrategyKind::None,
        churn_rate: 0.0,
        series_interval: None,
        ..SimConfig::default()
    }
}

#[test]
fn steady_state_ticks_do_not_allocate() {
    let mut sim = Sim::new(steady_cfg(), 0xA0B1_C2D3);
    // Warmup: lets one-time lazy growth (work history headroom,
    // strategy scratch) happen outside the measured window.
    for _ in 0..32 {
        sim.step();
    }
    let (allocs, consumed) = allocation_delta(|| {
        let mut consumed = 0u64;
        for _ in 0..1_000 {
            consumed += sim.step();
        }
        consumed
    });
    assert!(consumed > 0, "window must have done real work");
    assert_eq!(
        allocs, 0,
        "steady-state tick loop allocated {allocs} times over 1k ticks"
    );
}

/// The metrics plane keeps the promise: with recording on, every tick
/// pays the incremental-statistics upkeep (Fenwick updates, counter
/// bumps) yet still allocates nothing. Only the periodic sample dump
/// may allocate, so the cadence is pushed past the measured window.
#[test]
fn metrics_recording_ticks_do_not_allocate() {
    let mut cfg = steady_cfg();
    cfg.record_metrics = true;
    cfg.metrics_interval = Some(1_000_000);
    let mut sim = Sim::new(cfg, 0xA0B1_C2D3);
    for _ in 0..32 {
        sim.step();
    }
    let (allocs, consumed) = allocation_delta(|| {
        let mut consumed = 0u64;
        for _ in 0..1_000 {
            consumed += sim.step();
        }
        consumed
    });
    assert!(consumed > 0, "window must have done real work");
    assert_eq!(
        allocs, 0,
        "metrics-instrumented tick loop allocated {allocs} times over 1k ticks"
    );
}

/// Sharding keeps the promise: the default engine split into four
/// shards runs the same planned pop path — per-vnode planning pass,
/// state-stream generation, per-shard batch replay — and reuses its
/// buffers, allocating nothing per tick. Measured on a 1-thread pool
/// because handing work to rayon's scoped threads boxes closures (a
/// threading-infrastructure cost, not a tick-loop cost); the sequential
/// dispatch path is the one the zero-alloc contract covers.
#[test]
fn sharded_steady_state_ticks_do_not_allocate() {
    let mut cfg = steady_cfg();
    cfg.shards = 4;
    cfg.record_metrics = true;
    cfg.metrics_interval = Some(1_000_000);
    let mut sim = Sim::new(cfg, 0xA0B1_C2D3);
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap()
        .install(|| {
            for _ in 0..32 {
                sim.step();
            }
            let (allocs, consumed) = allocation_delta(|| {
                let mut consumed = 0u64;
                for _ in 0..1_000 {
                    consumed += sim.step();
                }
                consumed
            });
            assert!(consumed > 0, "window must have done real work");
            assert_eq!(
                allocs, 0,
                "sharded tick loop allocated {allocs} times over 1k ticks"
            );
        });
}

/// Sybil-holding rings keep the promise too: with random injection
/// armed on the default engine, workers drain their primaries and then
/// their Sybils through the planned tick, and plain (non-check) ticks
/// allocate nothing. Check ticks are stepped outside the window — a
/// Sybil join may grow the ring's columns, which is structural work,
/// not tick-loop work.
#[test]
fn plain_ticks_on_sybil_rings_do_not_allocate() {
    let cfg = SimConfig {
        nodes: 200,
        tasks: 200_000,
        strategy: StrategyKind::RandomInjection,
        ..SimConfig::default()
    };
    let every = cfg.check_interval;
    let mut sim = Sim::new(cfg, 0xA0B1_C2D3);
    while sim.ring().len() <= sim.active_workers() {
        sim.step();
    }
    let (mut allocs, mut consumed, mut plain) = (0u64, 0u64, 0u32);
    for _ in 0..500 {
        if (sim.tick() + 1).is_multiple_of(every) {
            sim.step();
            continue;
        }
        let (a, c) = allocation_delta(|| sim.step());
        allocs += a;
        consumed += c;
        plain += 1;
    }
    assert!(
        sim.ring().len() > sim.active_workers(),
        "window must run on a ring holding Sybils"
    );
    assert!(consumed > 0, "window must have done real work");
    assert_eq!(
        allocs, 0,
        "plain ticks on a Sybil ring allocated {allocs} times over {plain} ticks"
    );
}

/// Check ticks keep the promise under smart neighbor injection, the
/// read-heavy strategy: every idle worker with Sybil budget left walks
/// its successor list and queries each successor's load on every check
/// tick. The walk fills an inline list and captures the loads the
/// queries answer from, so a check tick that creates no Sybil allocates
/// nothing. Ticks that do create one are structural work (a new task
/// vector, column and index growth) and are left out of the window by
/// name, never by hiding them in a warmup.
#[test]
fn smart_neighbor_check_ticks_do_not_allocate() {
    let cfg = SimConfig {
        nodes: 200,
        tasks: 100_000,
        strategy: StrategyKind::SmartNeighbor,
        ..SimConfig::default()
    };
    let every = cfg.check_interval;
    let mut sim = Sim::new(cfg, 0xA0B1_C2D3);
    let (mut allocs, mut checks, mut structural, mut queries) = (0u64, 0u32, 0u32, 0u64);
    while sim.remaining_tasks() > 0 {
        if !(sim.tick() + 1).is_multiple_of(every) {
            sim.step();
            continue;
        }
        let before = sim.messages();
        let (a, _) = allocation_delta(|| sim.step());
        let after = sim.messages();
        if after.sybils_created != before.sybils_created {
            structural += 1;
            continue;
        }
        allocs += a;
        checks += 1;
        queries += after.load_queries - before.load_queries;
    }
    assert!(structural > 0, "the run must create Sybils at all");
    assert!(
        checks >= 50,
        "only {checks} check ticks without a Sybil join"
    );
    assert!(queries > 0, "the window must issue load queries");
    assert_eq!(
        allocs, 0,
        "{checks} smart-neighbor check ticks ({queries} load queries) allocated {allocs} times"
    );
}

/// Plain ticks with background churn armed keep the promise too: the
/// churn layer walks its leave candidates with a cursor and rotates the
/// waiting queue in place, so a tick in which no worker actually left
/// or joined allocates nothing. Ticks with a churn join or leave are
/// structural and are excluded by name.
#[test]
fn plain_ticks_under_churn_do_not_allocate() {
    let cfg = SimConfig {
        nodes: 200,
        tasks: 200_000,
        strategy: StrategyKind::RandomInjection,
        churn_rate: 0.001,
        ..SimConfig::default()
    };
    let every = cfg.check_interval;
    let mut sim = Sim::new(cfg, 0xA0B1_C2D3);
    for _ in 0..32 {
        sim.step();
    }
    let (mut allocs, mut consumed, mut plain, mut churned) = (0u64, 0u64, 0u32, 0u32);
    for _ in 0..500 {
        if (sim.tick() + 1).is_multiple_of(every) {
            sim.step();
            continue;
        }
        let before = sim.messages();
        let (a, c) = allocation_delta(|| sim.step());
        let after = sim.messages();
        if (after.churn_joins, after.churn_leaves) != (before.churn_joins, before.churn_leaves) {
            churned += 1;
            continue;
        }
        allocs += a;
        consumed += c;
        plain += 1;
    }
    assert!(churned > 0, "churn must fire somewhere in the window");
    assert!(plain >= 100, "only {plain} plain ticks without churn");
    assert!(consumed > 0, "window must have done real work");
    assert_eq!(
        allocs, 0,
        "plain ticks under churn allocated {allocs} times over {plain} ticks"
    );
}

/// The same property seen end-to-end: a full run's allocation count is
/// dominated by setup, not by ticks — running 4x more ticks over the
/// same setup must not add more than a sliver of allocations.
#[test]
fn allocations_scale_with_setup_not_ticks() {
    let short = {
        let mut cfg = steady_cfg();
        cfg.max_ticks = Some(250);
        let mut sim = Sim::new(cfg, 7);
        allocation_delta(|| {
            for _ in 0..250 {
                sim.step();
            }
        })
        .0
    };
    let long = {
        let mut cfg = steady_cfg();
        cfg.max_ticks = Some(1_000);
        let mut sim = Sim::new(cfg, 7);
        allocation_delta(|| {
            for _ in 0..1_000 {
                sim.step();
            }
        })
        .0
    };
    assert!(
        long <= short + 8,
        "4x the ticks added {} allocations (short {short}, long {long})",
        long - short
    );
}
