//! End-to-end validation: the paper's strategies running on the **real
//! Chord protocol substrate** instead of the oracle ring.
//!
//! The tick simulator (`autobal-core`) models ring state directly — the
//! same abstraction the paper's own simulator uses. This module closes
//! the loop: it implements the same [`Substrate`] / [`LocalView`] /
//! [`Actions`] surface over an [`autobal_chord::Network`], so the *same
//! trait-object strategies* — random injection, neighbor injection,
//! smart neighbor, invitation, and background churn — run here
//! unmodified. A Sybil is a *real protocol join* (routing hops,
//! key-range handoff, notify); retirement is a real graceful leave;
//! ring repair runs the real stabilization machinery every tick; a
//! strategy's `query_load` and `invite` calls are billed to the
//! network's [`MessageStats`] (see
//! [`MessageStats::strategy_overhead`]). The one deliberate exception
//! is the centralized oracle: a real network has no omniscient view, so
//! [`Substrate::check_omniscient`] reports unsupported here.
//!
//! If the paper's effect survives on this substrate, the oracle-ring
//! shortcut is justified.

use autobal_chord::{
    AdversaryPlan, AdversaryState, FaultPlan, MessageKind, MessageStats, NetConfig, Network,
    NetworkError,
};
use autobal_core::strategy::{
    churn::BackgroundChurn,
    crosscheck::{wrap_if_enabled, CrossCheckConfig},
    invitation::{pick_helper, HelperCandidate},
    strategy_for, ActionError, Actions, ChurnOps, InviteOutcome, LocalView, Strategy,
    StrategyParams, StrategyStack, Substrate, SuccList,
};
use autobal_core::trace::{EventLog, SimEvent};
use autobal_core::StrategyKind;
use autobal_id::{ring, Id};
use autobal_metrics::{names as metric_names, MetricsHub, MetricsSample, MetricsSink, RingSlot};
use autobal_stats::rng::{domains, substream, DetRng};
use autobal_telemetry::{MessageStatus, Trace, TraceSink};
use rand::Rng;
use std::collections::{BTreeMap, VecDeque};

/// Configuration for a protocol-level run.
#[derive(Debug, Clone)]
pub struct ProtocolSimConfig {
    /// Physical workers (each one Chord node at start).
    pub nodes: usize,
    /// Tasks (keys) to place and consume.
    pub tasks: u64,
    /// Which strategy to run. [`StrategyKind::CentralizedOracle`] is
    /// rejected: a real network cannot provide the omniscient view.
    pub strategy: StrategyKind,
    /// Per-tick Bernoulli churn probability; 0 disables churn. When
    /// set, a waiting pool of `nodes` extra workers is created, as in
    /// the oracle-ring simulator (§IV-A).
    pub churn_rate: f64,
    /// Check cadence in ticks (paper: 5).
    pub check_interval: u64,
    /// Maximum Sybils per worker (paper: 5).
    pub max_sybils: u32,
    /// A node at or below this load may volunteer a Sybil (paper: 0).
    pub sybil_threshold: u64,
    /// Invitation overload cutoff factor (threshold = factor × mean).
    pub overload_factor: f64,
    /// Chord substrate knobs.
    pub net: NetConfig,
    /// Safety cap.
    pub max_ticks: u64,
    /// Record a [`SimEvent`] trace of strategy decisions.
    pub record_events: bool,
    /// Record a span-structured flight-recorder trace (see
    /// `autobal-telemetry`). Stamped with ticks, never wall-clock.
    pub record_trace: bool,
    /// Fault plan armed on the network after the initial stabilization
    /// (the paper's "network starts stable" assumption is preserved;
    /// adversity begins at tick 1). Inert by default.
    pub fault: FaultPlan,
    /// Fraction of the initial population to crash-fail over the run
    /// (victims picked uniformly, spread across the nominal duration).
    /// Only consulted when `fault.crashes` is empty; crashed workers
    /// never return. 0 disables.
    pub crash_rate: f64,
    /// Retire Sybils abruptly (`Network::fail`) instead of gracefully
    /// (`Network::leave`): the Sybil process just exits, and its keys
    /// survive only through replication.
    pub crash_retirement: bool,
    /// Byzantine adversary plan: which fraction of the initial workers
    /// answer load probes dishonestly, and how. Inert by default.
    pub adversary: AdversaryPlan,
    /// Cross-checking probe defense wrapped around the Sybil strategy
    /// (see `autobal_core::strategy::crosscheck`). Disabled by default.
    pub cross_check: CrossCheckConfig,
    /// Record streaming metrics samples (see `autobal-metrics`).
    pub record_metrics: bool,
    /// Metrics sampling cadence in ticks; defaults to every tick.
    pub metrics_interval: Option<u64>,
    /// Include a per-worker ring snapshot in each metrics sample
    /// (monitor food; O(workers) per sample).
    pub metrics_ring: bool,
}

impl Default for ProtocolSimConfig {
    fn default() -> Self {
        ProtocolSimConfig {
            nodes: 64,
            tasks: 6_400,
            strategy: StrategyKind::RandomInjection,
            churn_rate: 0.0,
            check_interval: 5,
            max_sybils: 5,
            sybil_threshold: 0,
            overload_factor: 2.0,
            net: NetConfig {
                // Fewer fingers per cycle keep the per-tick protocol cost
                // proportionate at this scale.
                fingers_per_cycle: 4,
                ..NetConfig::default()
            },
            max_ticks: 100_000,
            record_events: false,
            record_trace: false,
            fault: FaultPlan::default(),
            crash_rate: 0.0,
            crash_retirement: false,
            adversary: AdversaryPlan::default(),
            cross_check: CrossCheckConfig::default(),
            record_metrics: false,
            metrics_interval: None,
            metrics_ring: false,
        }
    }
}

/// Result of a protocol-level run.
#[derive(Debug, Clone)]
pub struct ProtocolRun {
    pub ticks: u64,
    pub ideal_ticks: u64,
    pub runtime_factor: f64,
    pub completed: bool,
    /// Protocol messages spent over the whole run (maintenance
    /// included); `messages.strategy_overhead()` isolates the balancing
    /// cost (load queries + invitations).
    pub messages: MessageStats,
    /// Sybil joins performed.
    pub sybils_created: u64,
    /// Sybil retirements performed (graceful leaves, or abrupt fails
    /// under [`ProtocolSimConfig::crash_retirement`]).
    pub sybils_retired: u64,
    /// Task keys permanently destroyed by crash-failures (no live
    /// replica existed at crash time). Always 0 with replication ≥ 1
    /// and a maintenance cycle between crashes.
    pub tasks_lost: u64,
    /// Workers removed by the crash plane (they never return).
    pub workers_crashed: u64,
    /// Tasks consumed per worker slot — the Gini input for the
    /// cross-substrate decision-quality comparison.
    pub tasks_done: Vec<u64>,
    /// Strategy decision trace (empty unless
    /// [`ProtocolSimConfig::record_events`]).
    pub events: EventLog,
    /// Flight-recorder trace (empty unless
    /// [`ProtocolSimConfig::record_trace`]).
    pub trace: Trace,
    /// Streaming metrics samples (empty unless
    /// [`ProtocolSimConfig::record_metrics`]).
    pub metrics: Vec<MetricsSample>,
}

/// Metric counter name for a message fate.
pub(crate) fn fate_metric(status: MessageStatus) -> &'static str {
    match status {
        MessageStatus::Delivered => metric_names::MSG_DELIVERED,
        MessageStatus::Dropped => metric_names::MSG_DROPPED,
        MessageStatus::TimedOut => metric_names::MSG_TIMED_OUT,
        MessageStatus::Unreachable => metric_names::MSG_UNREACHABLE,
    }
}

/// One physical worker: its primary Chord node plus live Sybil nodes.
struct PWorker {
    primary: Id,
    sybils: Vec<Id>,
    active: bool,
}

impl PWorker {
    fn vnodes(&self) -> impl Iterator<Item = Id> + '_ {
        std::iter::once(self.primary)
            .chain(self.sybils.iter().copied())
            .filter(|_| self.active)
    }
}

/// The [`Substrate`] over a real Chord network. Dispatch mirrors the
/// oracle-ring simulator; state queries go through the live protocol
/// structures and observable actions through real protocol operations.
struct ChordSubstrate {
    net: Network,
    workers: Vec<PWorker>,
    /// Waiting pool for churn (worker indices).
    waiting: VecDeque<usize>,
    /// Which worker controls each live node id.
    owner_of: BTreeMap<Id, usize>,
    params: StrategyParams,
    max_sybils: u32,
    active_count: usize,
    tick: u64,
    rng_strategy: DetRng,
    rng_churn: DetRng,
    /// Crash-victim selection stream — separate from churn and strategy
    /// so arming the fault plane never perturbs their draws.
    rng_faults: DetRng,
    sybils_created: u64,
    sybils_retired: u64,
    tasks_lost: u64,
    workers_crashed: u64,
    crash_retirement: bool,
    /// Armed Byzantine adversary: decides per owner whether a load
    /// reply is distorted. Stateless at query time.
    adversary: AdversaryState,
    events: EventLog,
    /// Span-structured flight recorder; free when disabled.
    trace: Trace,
    /// Streaming metrics recorder; free when disabled.
    hub: MetricsHub,
    /// Cumulative quarantine decisions attributed to each worker's
    /// defense, for the ring snapshot's quarantine markers.
    quarantined_marks: Vec<u64>,
}

impl ChordSubstrate {
    /// Records a load-balancing event into the event log and — when
    /// tracing — as a telemetry `Decision` on the current span, using
    /// the same `decision_fields` encoding as the oracle substrate so
    /// same-seed traces are comparable across substrates.
    fn emit_event(&mut self, event: SimEvent) {
        if self.trace.enabled() {
            let (name, worker, pos, value) = event.decision_fields();
            self.trace.decision(self.tick, name, worker, &pos, value);
        }
        if self.hub.enabled() {
            let (name, value) = event.metric_fields();
            self.hub.event(name, value);
        }
        self.events.push(event);
    }

    /// Snapshot the metrics registry plus a batch fairness sweep over
    /// the current per-worker loads (key movement happens inside the
    /// network here, so there is no per-delta hook to maintain a
    /// `LoadDist`; the batch sweep emits byte-identical gauges).
    fn sample_metrics(&mut self) {
        if !self.hub.enabled() {
            return;
        }
        let vnodes: usize = self
            .workers
            .iter()
            .filter(|w| w.active)
            .map(|w| 1 + w.sybils.len())
            .sum();
        self.hub.set_gauge(metric_names::VNODES, vnodes as u64);
        self.hub
            .set_gauge(metric_names::TASKS_REMAINING, self.net.total_keys() as u64);
        let mut loads = self.hub.take_scratch();
        let mut ring = Vec::new();
        for w in 0..self.workers.len() {
            if !self.workers[w].active {
                continue;
            }
            let load = self.worker_load(w);
            loads.push(load);
            if self.hub.ring_enabled() {
                ring.push(RingSlot {
                    worker: w as u64,
                    pos: self.workers[w].primary.to_hex(),
                    load,
                    sybils: self.workers[w].sybils.len() as u64,
                    quarantined: self.quarantined_marks[w],
                });
            }
        }
        let tick = self.tick;
        self.hub.sample_batch(tick, &mut loads, ring);
        self.hub.put_scratch(loads);
    }

    fn worker_load(&self, w: usize) -> u64 {
        self.workers[w]
            .vnodes()
            .filter_map(|v| self.net.node(v))
            .map(|n| n.keys.len() as u64)
            .sum()
    }

    /// The load value vnode `reporter` actually answers with: the truth
    /// unless its owner is Byzantine, in which case the distorted value
    /// is billed to the `lied` meta-counter and recorded as a `lied`
    /// decision. `about` is the vnode the answer describes (the
    /// reporter itself for direct probes, the probe target for relays).
    fn reported_load(&mut self, reporter: Id, about: Id, true_load: u64) -> u64 {
        let tick = self.tick;
        let lie = self
            .owner_of
            .get(&reporter)
            .copied()
            .and_then(|o| self.adversary.lie(o, true_load, tick).map(|l| (o, l)));
        let Some((owner, reported)) = lie else {
            return true_load;
        };
        self.net.stats.lied += 1;
        self.emit_event(SimEvent::LoadLied {
            tick,
            worker: owner,
            about,
            reported,
        });
        reported
    }

    fn worker_can_spawn(&self, w: usize) -> bool {
        self.workers[w].active
            && self.worker_load(w) <= self.params.sybil_threshold
            && (self.workers[w].sybils.len() as u32) < self.max_sybils
    }

    /// A real protocol join of a Sybil for `w` at `pos`. The join rides
    /// the retry/backoff machinery, so transient loss is absorbed; only
    /// an occupied position, an exhausted attempt budget, or a dead
    /// contact surface as errors.
    fn spawn_sybil_as(&mut self, w: usize, pos: Id) -> Result<u64, ActionError> {
        let contact = self.workers[w].primary;
        let retries_before = self.net.stats.retries;
        let joined = self.net.join_with_retry(pos, contact);
        // An occupied position still means the join reached the
        // ring — only the fault plane produces non-delivery here.
        let status = match &joined {
            Ok(()) | Err(NetworkError::DuplicateId(_)) => MessageStatus::Delivered,
            Err(NetworkError::TimedOut { .. }) => MessageStatus::TimedOut,
            Err(
                NetworkError::EmptyNetwork
                | NetworkError::UnknownNode(_)
                | NetworkError::LookupFailed { .. },
            ) => MessageStatus::Unreachable,
        };
        let retries = self.net.stats.retries - retries_before;
        if self.trace.enabled() {
            self.trace.message(self.tick, "join", status, retries);
        }
        self.hub.message(fate_metric(status), retries);
        match joined {
            Ok(()) => {}
            Err(NetworkError::DuplicateId(_)) => return Err(ActionError::Occupied),
            Err(NetworkError::TimedOut { .. }) => return Err(ActionError::TimedOut),
            Err(
                NetworkError::EmptyNetwork
                | NetworkError::UnknownNode(_)
                | NetworkError::LookupFailed { .. },
            ) => return Err(ActionError::Unreachable),
        }
        let acquired = self.net.node(pos).map(|n| n.keys.len() as u64).unwrap_or(0);
        self.workers[w].sybils.push(pos);
        self.owner_of.insert(pos, w);
        self.sybils_created += 1;
        let tick = self.tick;
        self.emit_event(SimEvent::SybilCreated {
            tick,
            worker: w,
            pos,
            acquired,
        });
        Ok(acquired)
    }

    fn retire_sybils_of(&mut self, w: usize) {
        let sybils = std::mem::take(&mut self.workers[w].sybils);
        let n = sybils.len() as u64;
        for s in sybils {
            if self.crash_retirement {
                // Abrupt variant: the Sybil process just exits. Keys
                // with a live replica get promoted by maintenance; the
                // rest are billed as lost rather than silently gone.
                if let Ok(rep) = self.net.fail(s) {
                    self.tasks_lost += rep.keys_lost;
                }
            } else {
                self.leave_expecting_gone(s);
            }
            self.owner_of.remove(&s);
        }
        self.sybils_retired += n;
        if n > 0 {
            let tick = self.tick;
            self.emit_event(SimEvent::SybilsRetired {
                tick,
                worker: w,
                count: n as u32,
            });
        }
    }

    /// Crash-fails one whole worker: every vnode vanishes abruptly, the
    /// worker never returns. Returns the keys permanently lost.
    fn crash_worker(&mut self, w: usize) -> u64 {
        let mut lost = 0;
        // The vnode iterator holds the worker table; the network and
        // owner map are disjoint fields, so no collection is needed.
        for v in self.workers[w].vnodes() {
            if let Ok(rep) = self.net.fail(v) {
                lost += rep.keys_lost;
            }
            self.owner_of.remove(&v);
        }
        self.workers[w].sybils.clear();
        self.workers[w].active = false;
        self.active_count -= 1;
        self.workers_crashed += 1;
        self.tasks_lost += lost;
        let tick = self.tick;
        self.emit_event(SimEvent::WorkerCrashed {
            tick,
            worker: w,
            keys_lost: lost,
        });
        lost
    }

    /// Crashes up to `count` uniformly chosen active workers, always
    /// sparing at least one so the ring survives.
    fn apply_crashes(&mut self, count: u32) {
        for _ in 0..count {
            if self.active_count <= 1 {
                return;
            }
            // Same victim the old `decision_order()[gen_range(..)]`
            // picked — the k-th active worker in index order — without
            // materializing the candidate list.
            let k = self.rng_faults.gen_range(0..self.active_count);
            let w = (0..self.workers.len())
                .filter(|&i| self.workers[i].active)
                .nth(k)
                .expect("active worker exists");
            self.crash_worker(w);
        }
    }

    /// Gracefully leaves `id`, tolerating only "already gone": under
    /// crash faults a node can vanish before its owner retires it.
    /// Anything else would be an ownership-bookkeeping bug, which the
    /// debug builds refuse to paper over.
    fn leave_expecting_gone(&mut self, id: Id) {
        if let Err(e) = self.net.leave(id) {
            debug_assert!(
                matches!(e, NetworkError::UnknownNode(_)),
                "graceful leave failed structurally: {e:?}"
            );
        }
    }
}

impl Substrate for ChordSubstrate {
    fn next_in_order(&self, from: usize) -> Option<usize> {
        let rest = self.workers.get(from..)?;
        rest.iter().position(|p| p.active).map(|i| from + i)
    }

    fn check_worker(&mut self, w: usize, strategy: &dyn Strategy) {
        let span = self.trace.open_span(self.tick, strategy.name(), w as u64);
        let mut ctx = ChordNodeCtx {
            sub: self,
            worker: w,
        };
        strategy.check_node(&mut ctx);
        let tick = self.tick;
        self.trace.close_span(tick, span);
    }

    fn check_omniscient(&mut self, _strategy: &dyn Strategy) -> bool {
        // A real network has no global view — that is the point of the
        // paper's decentralized strategies.
        false
    }

    fn churn_ops(&mut self) -> &mut dyn ChurnOps {
        self
    }
}

impl ChurnOps for ChordSubstrate {
    fn next_leave_candidate(&self, from: usize) -> Option<usize> {
        self.next_in_order(from)
    }

    fn active_count(&self) -> usize {
        self.active_count
    }

    fn flip(&mut self, p: f64) -> bool {
        self.rng_churn.gen::<f64>() <= p
    }

    fn depart(&mut self, w: usize) {
        let sybils = std::mem::take(&mut self.workers[w].sybils);
        for s in sybils {
            self.leave_expecting_gone(s);
            self.owner_of.remove(&s);
        }
        let primary = self.workers[w].primary;
        self.leave_expecting_gone(primary);
        self.owner_of.remove(&primary);
        self.workers[w].active = false;
        self.active_count -= 1;
        self.waiting.push_back(w);
        let tick = self.tick;
        self.emit_event(SimEvent::WorkerLeft { tick, worker: w });
    }

    fn waiting_len(&self) -> usize {
        self.waiting.len()
    }

    fn pop_waiting(&mut self) -> Option<usize> {
        self.waiting.pop_front()
    }

    fn requeue_waiting(&mut self, w: usize) {
        self.waiting.push_back(w);
    }

    fn rejoin(&mut self, w: usize) {
        let Some(contact) = self.workers.iter().find(|p| p.active).map(|p| p.primary) else {
            self.waiting.push_back(w);
            return;
        };
        let pos = loop {
            let p = Id::random(&mut self.rng_churn);
            if self.net.node(p).is_none() {
                break p;
            }
        };
        // Churn joins ride the same retry machinery as Sybil joins; a
        // worker whose join still times out stays in the waiting pool
        // and tries again next tick.
        let retries_before = self.net.stats.retries;
        let joined = self.net.join_with_retry(pos, contact);
        let status = match &joined {
            Ok(()) => MessageStatus::Delivered,
            Err(NetworkError::TimedOut { .. }) => MessageStatus::TimedOut,
            Err(
                NetworkError::DuplicateId(_)
                | NetworkError::EmptyNetwork
                | NetworkError::UnknownNode(_)
                | NetworkError::LookupFailed { .. },
            ) => MessageStatus::Unreachable,
        };
        let retries = self.net.stats.retries - retries_before;
        if self.trace.enabled() {
            self.trace.message(self.tick, "join", status, retries);
        }
        self.hub.message(fate_metric(status), retries);
        if joined.is_err() {
            self.waiting.push_back(w);
            return;
        }
        self.workers[w] = PWorker {
            primary: pos,
            sybils: Vec::new(),
            active: true,
        };
        self.owner_of.insert(pos, w);
        self.active_count += 1;
        let acquired = self.net.node(pos).map(|n| n.keys.len() as u64).unwrap_or(0);
        let tick = self.tick;
        self.emit_event(SimEvent::WorkerJoined {
            tick,
            worker: w,
            pos,
            acquired,
        });
    }
}

/// One worker's [`LocalView`]/[`Actions`] window onto the Chord
/// network: own nodes' key counts, the primary's live successor and
/// predecessor lists, and priced protocol messages for everything else.
struct ChordNodeCtx<'a> {
    sub: &'a mut ChordSubstrate,
    worker: usize,
}

impl LocalView for ChordNodeCtx<'_> {
    fn params(&self) -> StrategyParams {
        self.sub.params
    }

    fn load(&self) -> u64 {
        self.sub.worker_load(self.worker)
    }

    fn sybil_count(&self) -> usize {
        self.sub.workers[self.worker].sybils.len()
    }

    fn sybil_slots_left(&self) -> u32 {
        self.sub
            .max_sybils
            .saturating_sub(self.sub.workers[self.worker].sybils.len() as u32)
    }

    fn primary(&self) -> Id {
        self.sub.workers[self.worker].primary
    }

    fn own_vnode_loads(&self) -> Vec<(Id, u64)> {
        self.sub.workers[self.worker]
            .vnodes()
            .map(|v| {
                (
                    v,
                    self.sub
                        .net
                        .node(v)
                        .map(|n| n.keys.len() as u64)
                        .unwrap_or(0),
                )
            })
            .collect()
    }

    fn successor_list(&self) -> SuccList {
        let primary = self.primary();
        let k = self.sub.params.num_neighbors;
        self.sub
            .net
            .node(primary)
            .map(|n| {
                n.successors
                    .iter()
                    .copied()
                    .filter(|&s| s != primary)
                    .take(k)
                    .collect()
            })
            .unwrap_or_default()
    }
}

impl Actions for ChordNodeCtx<'_> {
    fn query_load(&mut self, neighbor: Id) -> Result<u64, ActionError> {
        let tick = self.sub.tick;
        // The probe is billed whether or not it survives the network.
        if !self.sub.net.try_message(MessageKind::LoadQuery) {
            self.sub
                .trace
                .message(tick, "load_query", MessageStatus::TimedOut, 0);
            self.sub.hub.message(metric_names::MSG_TIMED_OUT, 0);
            return Err(ActionError::TimedOut);
        }
        match self.sub.net.node(neighbor).map(|n| n.keys.len() as u64) {
            Some(true_load) => {
                self.sub
                    .trace
                    .message(tick, "load_query", MessageStatus::Delivered, 0);
                self.sub.hub.message(metric_names::MSG_DELIVERED, 0);
                let worker = self.worker;
                // The querier only ever sees what the neighbor *says*.
                let load = self.sub.reported_load(neighbor, neighbor, true_load);
                self.sub.emit_event(SimEvent::LoadQueried {
                    tick,
                    worker,
                    neighbor,
                    load,
                });
                Ok(load)
            }
            // Stale successor-list entry pointing at a dead node: no
            // reply will ever come.
            None => {
                self.sub
                    .trace
                    .message(tick, "load_query", MessageStatus::Unreachable, 0);
                self.sub.hub.message(metric_names::MSG_UNREACHABLE, 0);
                Err(ActionError::Unreachable)
            }
        }
    }

    /// A relayed cross-checking probe: ask `relay` what it believes
    /// `target` holds (successors replicate each other's key ranges, so
    /// the relay can answer from its replica knowledge). Billed exactly
    /// like a direct probe; distorted iff the *relay*'s owner is
    /// Byzantine. Emits no `LoadQueried` decision — the round-level
    /// `note_probe` records the cross-checked outcome instead.
    fn query_load_via(&mut self, relay: Id, target: Id) -> Result<u64, ActionError> {
        let tick = self.sub.tick;
        if !self.sub.net.try_message(MessageKind::LoadQuery) {
            self.sub
                .trace
                .message(tick, "load_query", MessageStatus::TimedOut, 0);
            self.sub.hub.message(metric_names::MSG_TIMED_OUT, 0);
            return Err(ActionError::TimedOut);
        }
        if self.sub.net.node(relay).is_none() {
            self.sub
                .trace
                .message(tick, "load_query", MessageStatus::Unreachable, 0);
            self.sub.hub.message(metric_names::MSG_UNREACHABLE, 0);
            return Err(ActionError::Unreachable);
        }
        match self.sub.net.node(target).map(|n| n.keys.len() as u64) {
            Some(true_load) => {
                self.sub
                    .trace
                    .message(tick, "load_query", MessageStatus::Delivered, 0);
                self.sub.hub.message(metric_names::MSG_DELIVERED, 0);
                Ok(self.sub.reported_load(relay, target, true_load))
            }
            None => {
                self.sub
                    .trace
                    .message(tick, "load_query", MessageStatus::Unreachable, 0);
                self.sub.hub.message(metric_names::MSG_UNREACHABLE, 0);
                Err(ActionError::Unreachable)
            }
        }
    }

    fn note_probe(&mut self, target: Id, agreed: bool, estimate: u64) {
        let tick = self.sub.tick;
        let worker = self.worker;
        self.sub.emit_event(if agreed {
            SimEvent::ProbeAgreed {
                tick,
                worker,
                target,
                estimate,
            }
        } else {
            SimEvent::ProbeConflict {
                tick,
                worker,
                target,
                estimate,
            }
        });
    }

    fn note_quarantine(&mut self, reporter: Id, suspicion: u64) {
        let tick = self.sub.tick;
        let worker = self.worker;
        if let Some(&owner) = self.sub.owner_of.get(&reporter) {
            self.sub.quarantined_marks[owner] += 1;
        }
        self.sub.emit_event(SimEvent::Quarantined {
            tick,
            worker,
            reporter,
            suspicion,
        });
    }

    fn random_id(&mut self) -> Id {
        Id::random(&mut self.sub.rng_strategy)
    }

    fn spawn_sybil(&mut self, pos: Id) -> Result<u64, ActionError> {
        self.sub.spawn_sybil_as(self.worker, pos)
    }

    fn retire_sybils(&mut self) {
        self.sub.retire_sybils_of(self.worker);
    }

    fn note_gap_split(&mut self, pos: Id) {
        let tick = self.sub.tick;
        let worker = self.worker;
        self.sub
            .emit_event(SimEvent::NeighborGapSplit { tick, worker, pos });
    }

    fn split_target(&mut self, victim: Id) -> Option<Id> {
        // Chosen-ID placement would need the victim's key set — a real
        // node does not publish it, so the protocol substrate always
        // splits at the arc midpoint.
        let node = self.sub.net.node(victim)?;
        let pred = node.predecessor();
        if pred == victim {
            return None;
        }
        Some(ring::midpoint(pred, victim))
    }

    fn invite(&mut self, hot: Id) -> InviteOutcome {
        let inviter = self.worker;
        let k = self.sub.params.num_neighbors;
        let preds: Vec<Id> = match self.sub.net.node(hot) {
            Some(n) => n
                .predecessors
                .iter()
                .copied()
                .filter(|&p| p != hot)
                .take(k)
                .collect(),
            None => return InviteOutcome::NoNeighbors,
        };
        if preds.is_empty() {
            return InviteOutcome::NoNeighbors;
        }
        let tick = self.sub.tick;
        // The announcement costs its message even when the network eats
        // it; a lost invitation is simply re-sent on the next check
        // because the node is still overburdened then.
        if !self.sub.net.try_message(MessageKind::Invitation) {
            self.sub
                .trace
                .message(tick, "invitation", MessageStatus::Dropped, 0);
            self.sub.hub.message(metric_names::MSG_DROPPED, 0);
            return InviteOutcome::Unreachable;
        }
        self.sub
            .trace
            .message(tick, "invitation", MessageStatus::Delivered, 0);
        self.sub.hub.message(metric_names::MSG_DELIVERED, 0);
        self.sub.emit_event(SimEvent::InvitationSent {
            tick,
            worker: inviter,
        });
        let candidates: Vec<HelperCandidate> = preds
            .iter()
            .filter_map(|p| self.sub.owner_of.get(p).copied())
            .filter(|&o| o != inviter && self.sub.worker_can_spawn(o))
            .map(|o| HelperCandidate {
                worker: o,
                strength: 1, // the protocol substrate is homogeneous
                load: self.sub.worker_load(o),
            })
            .collect();
        let helper = pick_helper(&candidates, self.sub.params.strength_aware_invitation);
        let outcome = helper
            .and_then(|h| self.split_target(hot).map(|pos| (h, pos)))
            .and_then(|(h, pos)| {
                self.sub
                    .spawn_sybil_as(h, pos)
                    .ok()
                    .map(|acquired| (h, acquired))
            });
        match outcome {
            Some((helper, acquired)) => {
                self.sub.emit_event(SimEvent::InvitationHonored {
                    tick,
                    worker: inviter,
                    helper,
                    acquired,
                });
                InviteOutcome::Helped { acquired }
            }
            None => {
                self.sub.emit_event(SimEvent::InvitationRefused {
                    tick,
                    worker: inviter,
                });
                InviteOutcome::Refused
            }
        }
    }
}

/// Runs the computation on the protocol substrate and reports the
/// runtime factor, exactly like [`autobal_core::Sim`] but with every
/// DHT operation performed by the real implementation.
///
/// # Panics
/// Panics if `cfg.strategy` is [`StrategyKind::CentralizedOracle`] —
/// omniscience does not exist on a real network.
pub fn run_protocol_sim(cfg: &ProtocolSimConfig, seed: u64) -> ProtocolRun {
    let mut placement: DetRng = substream(seed, 0, domains::PLACEMENT);
    let mut task_rng: DetRng = substream(seed, 0, domains::TASKS);
    let net = Network::bootstrap(cfg.net, cfg.nodes, &mut placement);
    let node_ids = net.node_ids();
    let task_keys: Vec<Id> = (0..cfg.tasks).map(|_| Id::random(&mut task_rng)).collect();
    run_inner(cfg, seed, net, node_ids, task_keys)
}

/// [`run_protocol_sim`] with explicit node placement and task keys —
/// the hook the differential oracle-vs-protocol tests use to hand both
/// substrates bit-identical starting conditions.
pub fn run_protocol_sim_with_placement(
    cfg: &ProtocolSimConfig,
    seed: u64,
    node_ids: Vec<Id>,
    task_keys: Vec<Id>,
) -> ProtocolRun {
    let net = Network::from_ids(cfg.net, &node_ids).expect("distinct node ids");
    run_inner(cfg, seed, net, node_ids, task_keys)
}

fn run_inner(
    cfg: &ProtocolSimConfig,
    seed: u64,
    mut net: Network,
    node_ids: Vec<Id>,
    task_keys: Vec<Id>,
) -> ProtocolRun {
    assert!(
        cfg.strategy != StrategyKind::CentralizedOracle,
        "the centralized oracle needs the omniscient oracle-ring substrate"
    );
    for key in task_keys {
        net.insert_key(key);
    }
    net.maintenance_cycle();
    // Adversity begins only after the initial stabilization — the paper
    // assumes "the network starts our experiments stable".
    net.set_fault_plan(cfg.fault.clone());

    // Crash schedule: explicit events from the plan win; otherwise
    // `crash_rate` spreads ceil(rate × nodes) single-victim crashes
    // evenly across the nominal (ideal) duration.
    let ideal = (cfg.tasks as f64 / cfg.nodes as f64).ceil() as u64;
    let mut crash_schedule: Vec<(u64, u32)> =
        cfg.fault.crashes.iter().map(|c| (c.at, c.count)).collect();
    if crash_schedule.is_empty() && cfg.crash_rate > 0.0 {
        let total = (cfg.crash_rate * cfg.nodes as f64).ceil() as u32;
        for i in 0..total as u64 {
            let at = ((i + 1) * ideal.max(1)) / (total as u64 + 1);
            crash_schedule.push((at.max(1), 1));
        }
    }
    crash_schedule.sort_unstable();

    let mut workers: Vec<PWorker> = node_ids
        .iter()
        .map(|&id| PWorker {
            primary: id,
            sybils: Vec::new(),
            active: true,
        })
        .collect();
    let owner_of: BTreeMap<Id, usize> = node_ids
        .iter()
        .enumerate()
        .map(|(i, &id)| (id, i))
        .collect();
    // The churn waiting pool "begins at the same initial size as the
    // network" (§IV-A).
    let mut waiting = VecDeque::new();
    if cfg.churn_rate > 0.0 {
        for _ in 0..cfg.nodes {
            waiting.push_back(workers.len());
            workers.push(PWorker {
                primary: Id::ZERO,
                sybils: Vec::new(),
                active: false,
            });
        }
    }

    let mut stack = StrategyStack::new();
    if cfg.churn_rate > 0.0 {
        stack.push(Box::new(BackgroundChurn {
            leave_p: cfg.churn_rate,
            join_p: cfg.churn_rate,
        }));
    }
    if let Some(s) = strategy_for(cfg.strategy) {
        // Cross-checking is a transparent decorator: with the default
        // (disabled) config this returns `s` untouched.
        stack.push(wrap_if_enabled(s, &cfg.cross_check));
    }

    let n_workers = workers.len();
    let mut sub = ChordSubstrate {
        net,
        active_count: cfg.nodes,
        workers,
        waiting,
        owner_of,
        params: StrategyParams {
            sybil_threshold: cfg.sybil_threshold,
            overload_threshold: (cfg.overload_factor * cfg.tasks as f64 / cfg.nodes.max(1) as f64)
                .ceil() as u64,
            num_neighbors: cfg.net.successor_list_len,
            chosen_ids: false,
            strength_aware_invitation: false,
        },
        max_sybils: cfg.max_sybils,
        tick: 0,
        rng_strategy: substream(seed, 0, domains::STRATEGY),
        rng_churn: substream(seed, 0, domains::CHURN),
        rng_faults: substream(seed, 0, domains::FAULTS),
        sybils_created: 0,
        sybils_retired: 0,
        tasks_lost: 0,
        workers_crashed: 0,
        crash_retirement: cfg.crash_retirement,
        adversary: AdversaryState::new(cfg.adversary.clone(), cfg.nodes),
        events: EventLog::new(cfg.record_events),
        trace: {
            let mut trace = Trace::new(cfg.record_trace);
            trace.run_start(0, "chord", cfg.strategy.label(), seed);
            trace
        },
        hub: MetricsHub::new(cfg.record_metrics).with_ring(cfg.metrics_ring),
        quarantined_marks: vec![0; n_workers],
    };

    let mut tasks_done = vec![0u64; sub.workers.len()];
    let mut next_crash = 0usize;
    let metrics_every = cfg
        .record_metrics
        .then(|| cfg.metrics_interval.unwrap_or(1).max(1));
    if metrics_every.is_some() {
        sub.sample_metrics();
    }
    while sub.net.total_keys() > 0 && sub.tick < cfg.max_ticks {
        sub.tick += 1;
        sub.net.set_clock(sub.tick);

        // 0. Scheduled crash-failures land before anything else this
        // tick — adversity does not wait for the protocol.
        while next_crash < crash_schedule.len() && crash_schedule[next_crash].0 <= sub.tick {
            let (_, count) = crash_schedule[next_crash];
            sub.apply_crashes(count);
            next_crash += 1;
        }

        // 1. Churn layers fire every tick; 2. Sybil layers on cadence —
        // the same dispatch the oracle-ring simulator runs.
        stack.on_tick(&mut sub);
        if sub.tick.is_multiple_of(cfg.check_interval) {
            stack.on_check(&mut sub);
        }

        // Work phase: each active worker consumes one task from its
        // nodes (primary first, then Sybils). The vnode iterator and
        // the network are disjoint fields, so no per-worker collection.
        let mut consumed = 0u64;
        for (w, done) in tasks_done.iter_mut().enumerate() {
            let Some(worker) = sub.workers.get(w) else {
                continue;
            };
            for v in worker.vnodes() {
                let popped = sub
                    .net
                    .node_mut(v)
                    .and_then(|n| n.keys.pop_first())
                    .is_some();
                if popped {
                    *done += 1;
                    consumed += 1;
                    break;
                }
            }
        }
        sub.hub.inc(metric_names::TICKS);
        sub.hub.add(metric_names::TASKS_DONE, consumed);

        // One maintenance cycle per tick (§V: "a tick is enough time to
        // accomplish at least one maintenance cycle").
        sub.net.maintenance_cycle();
        if let Some(k) = metrics_every {
            if sub.tick.is_multiple_of(k) || sub.net.total_keys() == 0 {
                sub.sample_metrics();
            }
        }
    }

    let completed = sub.net.total_keys() == 0;
    sub.trace.run_end(sub.tick, completed);

    ProtocolRun {
        ticks: sub.tick,
        ideal_ticks: ideal.max(1),
        runtime_factor: sub.tick as f64 / ideal.max(1) as f64,
        completed,
        messages: sub.net.stats.clone(),
        sybils_created: sub.sybils_created,
        sybils_retired: sub.sybils_retired,
        tasks_lost: sub.tasks_lost,
        workers_crashed: sub.workers_crashed,
        tasks_done,
        events: sub.events,
        trace: sub.trace,
        metrics: sub.hub.into_samples(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(strategy: StrategyKind) -> ProtocolSimConfig {
        ProtocolSimConfig {
            nodes: 32,
            tasks: 1_600,
            strategy,
            ..ProtocolSimConfig::default()
        }
    }

    #[test]
    fn protocol_baseline_matches_harmonic_ballpark() {
        let res = run_protocol_sim(&small(StrategyKind::None), 1);
        assert!(res.completed);
        // H_32 ≈ 4.06; generous envelope for a single trial.
        assert!(
            res.runtime_factor > 2.0 && res.runtime_factor < 7.5,
            "baseline factor {}",
            res.runtime_factor
        );
        assert_eq!(res.sybils_created, 0);
        assert_eq!(res.messages.strategy_overhead(), 0);
    }

    #[test]
    fn random_injection_wins_on_the_real_substrate_too() {
        let base = run_protocol_sim(&small(StrategyKind::None), 2);
        let inj = run_protocol_sim(&small(StrategyKind::RandomInjection), 2);
        assert!(inj.completed);
        assert!(inj.sybils_created > 0);
        assert!(
            inj.runtime_factor < base.runtime_factor * 0.75,
            "protocol-level injection {} vs baseline {}",
            inj.runtime_factor,
            base.runtime_factor
        );
    }

    #[test]
    fn protocol_and_oracle_simulators_agree() {
        // The whole point: the oracle-ring simulator and the protocol
        // substrate must tell the same story on matched configurations.
        let proto = run_protocol_sim(&small(StrategyKind::RandomInjection), 3);
        let oracle = autobal_core::Sim::new(
            autobal_core::SimConfig {
                nodes: 32,
                tasks: 1_600,
                strategy: autobal_core::StrategyKind::RandomInjection,
                ..autobal_core::SimConfig::default()
            },
            3,
        )
        .run();
        let diff = (proto.runtime_factor - oracle.runtime_factor).abs();
        assert!(
            diff < 1.0,
            "protocol {} vs oracle {} should agree within a factor unit",
            proto.runtime_factor,
            oracle.runtime_factor
        );
    }

    #[test]
    fn protocol_run_spends_real_messages() {
        let res = run_protocol_sim(&small(StrategyKind::RandomInjection), 4);
        assert!(res.messages.stabilize > 0);
        assert!(res.messages.find_successor_hops > 0, "joins routed");
        assert!(res.messages.key_transfer > 0, "handoffs happened");
        assert!(res.messages.replica_push > 0, "active backup ran");
    }

    #[test]
    fn neighbor_injection_runs_on_the_protocol() {
        let base = run_protocol_sim(&small(StrategyKind::None), 5);
        let ni = run_protocol_sim(&small(StrategyKind::NeighborInjection), 5);
        assert!(ni.completed);
        assert!(ni.sybils_created > 0, "neighbor Sybils joined for real");
        // Plain neighbor estimates from free successor-list state.
        assert_eq!(ni.messages.load_query, 0);
        assert!(
            ni.runtime_factor < base.runtime_factor,
            "neighbor {} vs baseline {}",
            ni.runtime_factor,
            base.runtime_factor
        );
    }

    #[test]
    fn smart_neighbor_pays_for_its_load_queries() {
        let smart = run_protocol_sim(&small(StrategyKind::SmartNeighbor), 6);
        assert!(smart.completed);
        assert!(smart.sybils_created > 0);
        assert!(
            smart.messages.load_query > 0,
            "probing must be billed to the network"
        );
        assert_eq!(
            smart.messages.strategy_overhead(),
            smart.messages.load_query + smart.messages.invitation
        );
    }

    #[test]
    fn invitation_runs_end_to_end_on_the_protocol() {
        // A tight overload cutoff makes initially hot nodes call for
        // help; helpers answer with real Sybil joins.
        let inv = run_protocol_sim(
            &ProtocolSimConfig {
                overload_factor: 1.0,
                ..small(StrategyKind::Invitation)
            },
            7,
        );
        assert!(inv.completed);
        assert!(inv.messages.invitation > 0, "announcements were sent");
        assert!(inv.sybils_created > 0, "helpers actually joined");
        assert!(inv.messages.strategy_overhead() >= inv.messages.invitation);
    }

    #[test]
    fn background_churn_composes_with_injection_on_the_protocol() {
        let res = run_protocol_sim(
            &ProtocolSimConfig {
                churn_rate: 0.005,
                record_events: true,
                ..small(StrategyKind::RandomInjection)
            },
            8,
        );
        assert!(res.completed);
        let left = res
            .events
            .events()
            .iter()
            .filter(|e| matches!(e, SimEvent::WorkerLeft { .. }))
            .count();
        let joined = res
            .events
            .events()
            .iter()
            .filter(|e| matches!(e, SimEvent::WorkerJoined { .. }))
            .count();
        assert!(left > 0, "churn departures happened");
        assert!(joined > 0, "churn rejoins happened");
        assert!(res.sybils_created > 0, "injection kept working under churn");
    }

    #[test]
    fn oracle_strategy_is_rejected() {
        let r = std::panic::catch_unwind(|| {
            run_protocol_sim(&small(StrategyKind::CentralizedOracle), 1)
        });
        assert!(r.is_err(), "omniscience must not exist on a real network");
    }

    #[test]
    fn crash_failures_lose_nothing_under_replication() {
        // Acceptance criterion: with replication ≥ 2, a 5% crash rate
        // destroys zero tasks — every crashed node's keys had a live
        // replica (maintenance runs every tick).
        let res = run_protocol_sim(
            &ProtocolSimConfig {
                crash_rate: 0.05,
                ..small(StrategyKind::RandomInjection)
            },
            9,
        );
        assert!(res.completed, "run must finish despite crashes");
        assert!(res.workers_crashed > 0, "the crash plane actually fired");
        assert_eq!(
            res.tasks_lost, 0,
            "replication_factor 5 must cover every crash victim"
        );
        assert_eq!(res.messages.keys_lost, 0);
    }

    #[test]
    fn unreplicated_crashes_report_their_losses_explicitly() {
        // With replication off, crash-failures genuinely destroy work —
        // and the run must say so rather than hang or lie.
        let res = run_protocol_sim(
            &ProtocolSimConfig {
                crash_rate: 0.1,
                net: NetConfig {
                    replication_factor: 0,
                    fingers_per_cycle: 4,
                    ..NetConfig::default()
                },
                ..small(StrategyKind::None)
            },
            10,
        );
        assert!(res.workers_crashed > 0);
        assert!(
            res.tasks_lost > 0,
            "no replicas ⇒ crashed nodes' keys must be reported lost"
        );
        assert_eq!(res.tasks_lost, res.messages.keys_lost);
        assert!(res.completed, "the survivors still finish what remains");
    }

    #[test]
    fn both_sybil_retirement_paths_conserve_replicated_keys() {
        // Satellite: graceful leave and crash-style retirement must
        // agree on the macro outcome when replication covers the keys —
        // the run completes and nothing is destroyed either way.
        for crash_retirement in [false, true] {
            let res = run_protocol_sim(
                &ProtocolSimConfig {
                    crash_retirement,
                    ..small(StrategyKind::RandomInjection)
                },
                11,
            );
            assert!(res.completed, "crash_retirement={crash_retirement}");
            assert!(res.sybils_retired > 0, "retirements exercised both paths");
            assert_eq!(
                res.tasks_lost, 0,
                "replicated Sybil keys must survive retirement (crash={crash_retirement})"
            );
        }
    }

    #[test]
    fn lossy_links_degrade_gracefully() {
        // Acceptance criterion: 10% loss costs at most 2× the
        // fault-free runtime factor, for every strategy.
        for kind in [
            StrategyKind::None,
            StrategyKind::RandomInjection,
            StrategyKind::NeighborInjection,
            StrategyKind::SmartNeighbor,
            StrategyKind::Invitation,
        ] {
            let clean = run_protocol_sim(&small(kind), 12);
            let lossy = run_protocol_sim(
                &ProtocolSimConfig {
                    fault: FaultPlan::lossy(12, 0.10),
                    ..small(kind)
                },
                12,
            );
            assert!(lossy.completed, "{kind:?} must finish at 10% loss");
            assert!(lossy.messages.dropped > 0, "{kind:?}: faults actually bit");
            assert!(
                lossy.runtime_factor <= clean.runtime_factor * 2.0,
                "{kind:?}: lossy {} vs clean {}",
                lossy.runtime_factor,
                clean.runtime_factor
            );
        }
    }

    #[test]
    fn inert_fault_plan_changes_nothing_on_the_protocol() {
        // Bit-for-bit: the default (inert) plan must not perturb a
        // single counter relative to the pre-fault-plane code path.
        let a = run_protocol_sim(&small(StrategyKind::SmartNeighbor), 13);
        let b = run_protocol_sim(
            &ProtocolSimConfig {
                fault: FaultPlan::default(),
                ..small(StrategyKind::SmartNeighbor)
            },
            13,
        );
        assert_eq!(a.ticks, b.ticks);
        assert_eq!(a.messages, b.messages);
        assert_eq!(a.sybils_created, b.sybils_created);
        assert_eq!(a.messages.dropped, 0);
        assert_eq!(a.messages.retries, 0);
    }

    #[test]
    fn load_queried_events_mirror_the_protocol_query_counter() {
        // Satellite: every billed load query that got an answer shows up
        // as a LoadQueried event — on a faultless network, all of them.
        let res = run_protocol_sim(
            &ProtocolSimConfig {
                record_events: true,
                ..small(StrategyKind::SmartNeighbor)
            },
            14,
        );
        let queried = res
            .events
            .events()
            .iter()
            .filter(|e| matches!(e, SimEvent::LoadQueried { .. }))
            .count() as u64;
        assert!(queried > 0);
        assert_eq!(queried, res.messages.load_query);
    }

    #[test]
    fn plain_neighbor_records_gap_splits_on_the_protocol() {
        let res = run_protocol_sim(
            &ProtocolSimConfig {
                record_events: true,
                ..small(StrategyKind::NeighborInjection)
            },
            15,
        );
        let splits = res
            .events
            .events()
            .iter()
            .filter(|e| matches!(e, SimEvent::NeighborGapSplit { .. }))
            .count() as u64;
        // Every plain-neighbor spawn attempt is preceded by a gap-split
        // estimate; occupied midpoints mean attempts can exceed joins.
        assert!(splits > 0);
        assert!(splits >= res.sybils_created);
    }

    #[test]
    fn invitation_honored_events_carry_the_helper_on_the_protocol() {
        let res = run_protocol_sim(
            &ProtocolSimConfig {
                overload_factor: 1.0,
                record_events: true,
                ..small(StrategyKind::Invitation)
            },
            16,
        );
        let mut honored = 0u64;
        for e in res.events.events() {
            if let SimEvent::InvitationHonored { worker, helper, .. } = e {
                honored += 1;
                assert_ne!(worker, helper, "a node cannot honor its own call");
            }
        }
        assert!(honored > 0, "some invitation was honored");
        let sent = res
            .events
            .events()
            .iter()
            .filter(|e| matches!(e, SimEvent::InvitationSent { .. }))
            .count() as u64;
        let refused = res
            .events
            .events()
            .iter()
            .filter(|e| matches!(e, SimEvent::InvitationRefused { .. }))
            .count() as u64;
        assert_eq!(sent, honored + refused);
    }

    #[test]
    fn protocol_trace_is_framed_and_spans_the_strategy() {
        use autobal_telemetry::{summarize, TraceBody};
        let res = run_protocol_sim(
            &ProtocolSimConfig {
                record_trace: true,
                ..small(StrategyKind::SmartNeighbor)
            },
            17,
        );
        let records = res.trace.records();
        assert!(matches!(records[0].body, TraceBody::RunStart { .. }));
        assert!(matches!(
            records[records.len() - 1].body,
            TraceBody::RunEnd { .. }
        ));
        let s = summarize(records);
        assert_eq!(s.substrate, "chord");
        assert_eq!(s.strategy, "smart");
        assert!(s.completed);
        assert!(s.spans > 0, "strategy checks opened spans");
        assert!(s.decisions > 0);
        // load_query + invitation probes are traced individually; join
        // messages too — at least every load query must appear.
        assert!(s.messages.delivered >= res.messages.load_query);
        assert!(s.last_time <= res.ticks);
    }

    #[test]
    fn protocol_trace_is_disabled_by_default_and_byte_stable() {
        use autobal_telemetry::to_jsonl;
        let off = run_protocol_sim(&small(StrategyKind::SmartNeighbor), 18);
        assert!(off.trace.is_empty(), "tracing must be strictly opt-in");
        let cfg = ProtocolSimConfig {
            record_trace: true,
            ..small(StrategyKind::SmartNeighbor)
        };
        let a = run_protocol_sim(&cfg, 18);
        let b = run_protocol_sim(&cfg, 18);
        assert_eq!(to_jsonl(a.trace.records()), to_jsonl(b.trace.records()));
        // Tracing must not perturb the run itself.
        assert_eq!(a.ticks, off.ticks);
        assert_eq!(a.messages, off.messages);
    }

    #[test]
    fn inert_adversary_plan_changes_nothing_on_the_protocol() {
        use autobal_chord::LiePolicy;
        // Non-tautological inert pin: a zero-fraction plan with a
        // non-default seed/policy/gain, plus a disabled (k = 0)
        // cross-check with non-default knobs, must not perturb a
        // single counter or decision relative to the plain default.
        let base = ProtocolSimConfig {
            record_events: true,
            ..small(StrategyKind::SmartNeighbor)
        };
        let a = run_protocol_sim(&base, 19);
        let b = run_protocol_sim(
            &ProtocolSimConfig {
                adversary: AdversaryPlan {
                    seed: 99,
                    fraction: 0.0,
                    policy: LiePolicy::OverReport,
                    gain: 9,
                },
                cross_check: CrossCheckConfig {
                    k: 0,
                    tolerance: 0.9,
                    quarantine_after: 1,
                },
                ..base.clone()
            },
            19,
        );
        assert_eq!(a.ticks, b.ticks);
        assert_eq!(a.messages, b.messages);
        assert_eq!(a.events.events(), b.events.events());
        assert_eq!(a.sybils_created, b.sybils_created);
        assert_eq!(b.messages.lied, 0);
    }

    #[test]
    fn byzantine_liars_distort_protocol_probes() {
        use autobal_chord::LiePolicy;
        // 25% over-reporting liars: smart-neighbor probes must see the
        // distorted loads (billed on the `lied` meta-counter, mirrored
        // one-for-one by `LoadLied` events) and reach different
        // decisions than the clean run.
        let clean = run_protocol_sim(
            &ProtocolSimConfig {
                record_events: true,
                ..small(StrategyKind::SmartNeighbor)
            },
            20,
        );
        let lied = run_protocol_sim(
            &ProtocolSimConfig {
                record_events: true,
                adversary: AdversaryPlan::lying(7, 0.25, LiePolicy::OverReport),
                ..small(StrategyKind::SmartNeighbor)
            },
            20,
        );
        assert!(lied.completed, "liars slow the run down, not break it");
        assert!(lied.messages.lied > 0, "some probe hit a liar");
        let lied_events = lied
            .events
            .events()
            .iter()
            .filter(|e| matches!(e, SimEvent::LoadLied { .. }))
            .count() as u64;
        assert_eq!(lied_events, lied.messages.lied);
        assert_ne!(
            clean.events.events(),
            lied.events.events(),
            "distorted reports must change the decision stream"
        );
    }

    #[test]
    fn cross_checking_bills_probes_and_quarantines_liars() {
        use autobal_chord::LiePolicy;
        // Over-reporting by gain 4 always conflicts with an honest
        // median (|4L+4 − L| > 0.5·max(L,1) for every L), so every
        // cross-checked probe round about a liar books suspicion and
        // the third one quarantines it.
        let plan = AdversaryPlan::lying(7, 0.25, LiePolicy::OverReport);
        let undefended = run_protocol_sim(
            &ProtocolSimConfig {
                record_events: true,
                adversary: plan.clone(),
                ..small(StrategyKind::SmartNeighbor)
            },
            21,
        );
        let defended = run_protocol_sim(
            &ProtocolSimConfig {
                record_events: true,
                adversary: plan,
                cross_check: CrossCheckConfig::with_budget(2),
                ..small(StrategyKind::SmartNeighbor)
            },
            21,
        );
        assert!(defended.completed);
        assert!(
            defended.messages.load_query > undefended.messages.load_query,
            "redundant probes must be billed as real load queries"
        );
        let conflicts = defended
            .events
            .events()
            .iter()
            .filter(|e| matches!(e, SimEvent::ProbeConflict { .. }))
            .count() as u64;
        let mut quarantined = 0u64;
        for e in defended.events.events() {
            if let SimEvent::Quarantined { suspicion, .. } = e {
                quarantined += 1;
                assert!(*suspicion >= 3, "quarantine fires at the threshold");
            }
        }
        assert!(conflicts > 0, "liars were caught in the act");
        assert!(quarantined > 0, "repeat offenders got quarantined");
        assert!(
            conflicts >= quarantined * 3,
            "each quarantine needs at least `quarantine_after` conflicts"
        );
    }
}
