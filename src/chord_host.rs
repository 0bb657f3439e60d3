//! The **Chord strategy substrate** shared by the synchronous
//! [`protocol_sim`](crate::protocol_sim) and the event-time
//! [`event_sim`](crate::event_sim).
//!
//! The paper's strategies are node-local: a worker joins Sybils,
//! retires them, probes its successors' loads and invites helpers. Both
//! Chord substrates run them over the same state, kept once here in
//! [`ChordCore`]: the authoritative [`Network`] (key placement,
//! successor lists, replication), the worker table, the churn waiting
//! pool, the crash plane, the Byzantine adversary, and the event, trace
//! and metrics recorders. What differs between the substrates is only
//! how an observable action crosses the network — the [`Wire`]. The
//! synchronous shim resolves a join, probe or invitation instantly
//! between ticks; the event-time wire sends real messages on the
//! [`EventNet`](autobal_chord::EventNet) queue and blocks until they
//! settle. [`Host`] joins a core to a wire and implements
//! [`Substrate`], [`ChurnOps`] and the per-worker
//! [`LocalView`]/[`Actions`] window the strategies see, so every
//! decision, bill and event is made by the same code on both wires.

use crate::protocol_sim::ProtocolSimConfig;
use autobal_chord::{AdversaryState, MessageStats, Network, NetworkError};
use autobal_core::strategy::{
    churn::BackgroundChurn,
    crosscheck::wrap_if_enabled,
    invitation::{pick_helper, HelperCandidate},
    strategy_for, ActionError, Actions, ChurnOps, InviteOutcome, LocalView, Strategy,
    StrategyParams, StrategyStack, Substrate, SuccList,
};
use autobal_core::trace::{EventLog, SimEvent};
use autobal_core::StrategyKind;
use autobal_id::{ring, Id};
use autobal_metrics::{names as metric_names, MetricsHub, MetricsSink, RingSlot};
use autobal_stats::rng::{domains, substream, DetRng};
use autobal_telemetry::{MessageStatus, Trace, TraceSink};
use rand::Rng;
use std::collections::{BTreeMap, VecDeque};

/// How a wire carries the strategies' observable actions. Everything
/// else — the worker table, Sybil bookkeeping, churn, crashes, billing
/// and recording — lives in [`ChordCore`] and is identical on every
/// wire. Methods take the core explicitly so a wire that has to serve
/// other nodes' requests while it waits can read and bill it.
pub(crate) trait Wire {
    /// Whether a reply passes through its reporter's lie decision when
    /// the reply is *served* (on the wire, before the querier sees it)
    /// rather than when the host receives the synchronous answer.
    const LIES_AT_SERVE: bool;

    /// Joins `pos` through `contact` on the wire and, if the wire
    /// resolved it, on `core.net`. Returns the join's outcome and the
    /// retries it cost.
    fn join(
        &mut self,
        core: &mut ChordCore,
        pos: Id,
        contact: Id,
    ) -> (Result<(), NetworkError>, u64);

    /// A load probe sent by `from` to `to`: about `to` itself, or —
    /// for a relayed cross-check — about `about`. Returns the load the
    /// reporter answered with.
    fn probe(
        &mut self,
        core: &mut ChordCore,
        from: Id,
        to: Id,
        about: Option<Id>,
    ) -> Result<u64, ActionError>;

    /// One invitation round from the overloaded vnode `hot` to its
    /// predecessors `preds`: the volunteering helpers, in reply order,
    /// or `None` when every announcement was lost.
    fn invite(
        &mut self,
        core: &mut ChordCore,
        inviter: usize,
        hot: Id,
        preds: &[Id],
    ) -> Option<Vec<HelperCandidate>>;

    /// Mirrors the removal of vnode `id` from the network.
    fn removed(&mut self, _id: Id) {}

    /// Runs after every membership change has settled on the network.
    fn rewire(&mut self) {}

    /// The message bill that counts lied replies.
    fn lied_stats<'a>(&'a mut self, net: &'a mut Network) -> &'a mut MessageStats;

    /// The clock metrics samples are stamped with at `tick`.
    fn clock(&self, tick: u64) -> u64;
}

/// One physical worker: its primary Chord node plus live Sybil nodes.
struct Worker {
    primary: Id,
    sybils: Vec<Id>,
    active: bool,
}

impl Worker {
    fn vnodes(&self) -> impl Iterator<Item = Id> + '_ {
        std::iter::once(self.primary)
            .chain(self.sybils.iter().copied())
            .filter(|_| self.active)
    }
}

/// Metric counter name for a message fate.
fn fate_metric(status: MessageStatus) -> &'static str {
    match status {
        MessageStatus::Delivered => metric_names::MSG_DELIVERED,
        MessageStatus::Dropped => metric_names::MSG_DROPPED,
        MessageStatus::TimedOut => metric_names::MSG_TIMED_OUT,
        MessageStatus::Unreachable => metric_names::MSG_UNREACHABLE,
    }
}

/// The fate a join attempt is billed with. An occupied position still
/// means the join reached the ring — only the fault plane produces
/// non-delivery here.
fn join_fate(joined: &Result<(), NetworkError>) -> MessageStatus {
    match joined {
        Ok(()) | Err(NetworkError::DuplicateId(_)) => MessageStatus::Delivered,
        Err(NetworkError::TimedOut { .. }) => MessageStatus::TimedOut,
        Err(
            NetworkError::EmptyNetwork
            | NetworkError::UnknownNode(_)
            | NetworkError::LookupFailed { .. },
        ) => MessageStatus::Unreachable,
    }
}

fn action_error(e: NetworkError) -> ActionError {
    match e {
        NetworkError::DuplicateId(_) => ActionError::Occupied,
        NetworkError::TimedOut { .. } => ActionError::TimedOut,
        NetworkError::EmptyNetwork
        | NetworkError::UnknownNode(_)
        | NetworkError::LookupFailed { .. } => ActionError::Unreachable,
    }
}

/// The seeded starting network, its node ids and the task keys.
pub(crate) fn bootstrap(cfg: &ProtocolSimConfig, seed: u64) -> (Network, Vec<Id>, Vec<Id>) {
    let mut placement: DetRng = substream(seed, 0, domains::PLACEMENT);
    let mut task_rng: DetRng = substream(seed, 0, domains::TASKS);
    let net = Network::bootstrap(cfg.net, cfg.nodes, &mut placement);
    let node_ids = net.node_ids();
    let task_keys = (0..cfg.tasks).map(|_| Id::random(&mut task_rng)).collect();
    (net, node_ids, task_keys)
}

/// A stabilized network on explicit node ids — the placement hook the
/// differential tests use to hand substrates identical starts.
pub(crate) fn placed(cfg: &ProtocolSimConfig, node_ids: &[Id]) -> Network {
    // autobal-lint: allow(panic-safety, "caller contract: explicit placement ids are distinct")
    Network::from_ids(cfg.net, node_ids).expect("distinct node ids")
}

/// The worker and Sybil state both Chord substrates share.
pub(crate) struct ChordCore {
    /// The authoritative state machine: what strategies read and what
    /// the work phase consumes.
    pub(crate) net: Network,
    workers: Vec<Worker>,
    /// Waiting pool for churn (worker indices).
    waiting: VecDeque<usize>,
    /// Which worker controls each live node id.
    owner_of: BTreeMap<Id, usize>,
    params: StrategyParams,
    max_sybils: u32,
    active_count: usize,
    pub(crate) tick: u64,
    pub(crate) ideal_ticks: u64,
    rng_strategy: DetRng,
    rng_churn: DetRng,
    /// Crash-victim selection stream — separate from churn and strategy
    /// so arming the fault plane never perturbs their draws.
    rng_faults: DetRng,
    /// Remaining substrate-level crash events, `(tick, victims)`.
    crash_schedule: VecDeque<(u64, u32)>,
    pub(crate) sybils_created: u64,
    pub(crate) sybils_retired: u64,
    pub(crate) tasks_lost: u64,
    pub(crate) workers_crashed: u64,
    crash_retirement: bool,
    /// Armed Byzantine adversary: decides per owner whether a load
    /// reply is distorted. Stateless at query time, so a reply lies
    /// identically on every wire.
    adversary: AdversaryState,
    /// Tasks consumed per worker slot — the Gini input.
    pub(crate) tasks_done: Vec<u64>,
    pub(crate) events: EventLog,
    /// Span-structured flight recorder; free when disabled.
    pub(crate) trace: Trace,
    /// Streaming metrics recorder; free when disabled.
    pub(crate) hub: MetricsHub,
    /// Metrics sampling cadence in ticks (None = metrics off).
    metrics_every: Option<u64>,
    /// Cumulative quarantine decisions against each worker (counted on
    /// the *reporter's* owner), for the ring snapshot's markers.
    quarantined_marks: Vec<u64>,
}

impl ChordCore {
    /// Run setup: places the task keys on `net` and stabilizes it, then
    /// builds the crash schedule, the worker table, owner map, churn
    /// waiting pool and strategy stack from `cfg`. `substrate` labels
    /// the trace header.
    ///
    /// # Panics
    /// Panics if `cfg.strategy` is [`StrategyKind::CentralizedOracle`] —
    /// omniscience does not exist on a real network.
    pub(crate) fn new(
        cfg: &ProtocolSimConfig,
        seed: u64,
        mut net: Network,
        node_ids: &[Id],
        task_keys: Vec<Id>,
        substrate: &str,
    ) -> (ChordCore, StrategyStack) {
        assert!(
            cfg.strategy != StrategyKind::CentralizedOracle,
            "the centralized oracle needs the omniscient oracle-ring substrate"
        );
        for key in task_keys {
            net.insert_key(key);
        }
        net.maintenance_cycle();

        // Crash schedule: explicit events from the plan win; otherwise
        // `crash_rate` spreads ceil(rate × nodes) single-victim crashes
        // evenly across the nominal (ideal) duration.
        let ideal = ((cfg.tasks as f64 / cfg.nodes as f64).ceil() as u64).max(1);
        let mut crash_schedule: Vec<(u64, u32)> =
            cfg.fault.crashes.iter().map(|c| (c.at, c.count)).collect();
        if crash_schedule.is_empty() && cfg.crash_rate > 0.0 {
            let total = (cfg.crash_rate * cfg.nodes as f64).ceil() as u32;
            for i in 0..total as u64 {
                let at = ((i + 1) * ideal) / (total as u64 + 1);
                crash_schedule.push((at.max(1), 1));
            }
        }
        crash_schedule.sort_unstable();

        let mut workers: Vec<Worker> = node_ids
            .iter()
            .map(|&id| Worker {
                primary: id,
                sybils: Vec::new(),
                active: true,
            })
            .collect();
        let owner_of = node_ids
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, i))
            .collect();
        // The churn waiting pool "begins at the same initial size as the
        // network" (§IV-A).
        let mut waiting = VecDeque::new();
        let mut stack = StrategyStack::new();
        if cfg.churn_rate > 0.0 {
            for _ in 0..cfg.nodes {
                waiting.push_back(workers.len());
                workers.push(Worker {
                    primary: Id::ZERO,
                    sybils: Vec::new(),
                    active: false,
                });
            }
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

        let slots = workers.len();
        let mut trace = Trace::new(cfg.record_trace);
        trace.run_start(0, substrate, cfg.strategy.label(), seed);
        let core = ChordCore {
            net,
            workers,
            waiting,
            owner_of,
            params: StrategyParams {
                sybil_threshold: cfg.sybil_threshold,
                overload_threshold: (cfg.overload_factor * cfg.tasks as f64
                    / cfg.nodes.max(1) as f64)
                    .ceil() as u64,
                num_neighbors: cfg.net.successor_list_len,
                chosen_ids: false,
                strength_aware_invitation: false,
            },
            max_sybils: cfg.max_sybils,
            active_count: cfg.nodes,
            tick: 0,
            ideal_ticks: ideal,
            rng_strategy: substream(seed, 0, domains::STRATEGY),
            rng_churn: substream(seed, 0, domains::CHURN),
            rng_faults: substream(seed, 0, domains::FAULTS),
            crash_schedule: crash_schedule.into_iter().collect(),
            sybils_created: 0,
            sybils_retired: 0,
            tasks_lost: 0,
            workers_crashed: 0,
            crash_retirement: cfg.crash_retirement,
            adversary: AdversaryState::new(cfg.adversary.clone(), cfg.nodes),
            tasks_done: vec![0; slots],
            events: EventLog::new(cfg.record_events),
            trace,
            hub: MetricsHub::new(cfg.record_metrics).with_ring(cfg.metrics_ring),
            metrics_every: cfg
                .record_metrics
                .then(|| cfg.metrics_interval.unwrap_or(1).max(1)),
            quarantined_marks: vec![0; slots],
        };
        (core, stack)
    }

    /// Closes the trace; true iff every task was consumed.
    pub(crate) fn finish(&mut self) -> bool {
        let completed = self.net.total_keys() == 0;
        self.trace.run_end(self.tick, completed);
        completed
    }

    pub(crate) fn runtime_factor(&self) -> f64 {
        self.tick as f64 / self.ideal_ticks as f64
    }

    pub(crate) fn is_active(&self, w: usize) -> bool {
        self.workers.get(w).is_some_and(|p| p.active)
    }

    /// Records a load-balancing event into the event log and — when
    /// tracing — as a telemetry `Decision` on the current span, stamped
    /// with the **tick** and using the oracle substrate's
    /// `decision_fields` encoding, so same-seed traces are comparable
    /// across substrates.
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

    /// Bills one message of `kind` with its fate to the trace and the
    /// metrics registry.
    fn bill(&mut self, kind: &str, status: MessageStatus, retries: u64) {
        self.trace.message(self.tick, kind, status, retries);
        self.hub.message(fate_metric(status), retries);
    }

    /// Snapshot the metrics registry plus a batch fairness sweep over
    /// the current per-worker loads, stamped with `time` (key movement
    /// happens inside the network, so there is no per-delta hook to
    /// maintain a `LoadDist`; the batch sweep emits byte-identical
    /// gauges).
    fn sample_metrics(&mut self, time: u64) {
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
        for (w, worker) in self.workers.iter().enumerate() {
            if !worker.active {
                continue;
            }
            let load = self.worker_load(w);
            loads.push(load);
            if self.hub.ring_enabled() {
                ring.push(RingSlot {
                    worker: w as u64,
                    pos: worker.primary.to_hex(),
                    load,
                    sybils: worker.sybils.len() as u64,
                    quarantined: self.quarantined_marks.get(w).copied().unwrap_or(0),
                });
            }
        }
        self.hub.sample_batch(time, &mut loads, ring);
        self.hub.put_scratch(loads);
    }

    fn vnode_load(&self, v: Id) -> u64 {
        self.net.node(v).map(|n| n.keys.len() as u64).unwrap_or(0)
    }

    fn worker_load(&self, w: usize) -> u64 {
        self.workers
            .get(w)
            .into_iter()
            .flat_map(|p| p.vnodes())
            .map(|v| self.vnode_load(v))
            .sum()
    }

    fn worker_can_spawn(&self, w: usize) -> bool {
        let Some(p) = self.workers.get(w) else {
            return false;
        };
        p.active
            && self.worker_load(w) <= self.params.sybil_threshold
            && (p.sybils.len() as u32) < self.max_sybils
    }

    /// The load vnode `reporter` actually answers with: the truth
    /// unless its owner is Byzantine, in which case the distorted value
    /// is billed to the wire's `lied` meta-counter and recorded as a
    /// `lied` decision. `about` is the vnode the answer describes (the
    /// reporter itself for direct probes, the probe target for relays).
    fn reported_load<W: Wire>(&mut self, wire: &mut W, reporter: Id, about: Id, load: u64) -> u64 {
        let tick = self.tick;
        let lie = self
            .owner_of
            .get(&reporter)
            .copied()
            .and_then(|o| self.adversary.lie(o, load, tick).map(|l| (o, l)));
        let Some((owner, reported)) = lie else {
            return load;
        };
        wire.lied_stats(&mut self.net).lied += 1;
        self.emit_event(SimEvent::LoadLied {
            tick,
            worker: owner,
            about,
            reported,
        });
        reported
    }

    /// The load answer vnode `at` serves for `about` (`None` if `about`
    /// is gone), distorted at serve time if `at`'s owner lies.
    pub(crate) fn serve_load<W: Wire>(&mut self, wire: &mut W, at: Id, about: Id) -> Option<u64> {
        let load = self.net.node(about).map(|n| n.keys.len() as u64)?;
        Some(self.reported_load(wire, at, about, load))
    }

    /// How the owner of vnode `at` answers `inviter`'s call for help:
    /// `Some((owner, can_spawn, load))` unless `at` is unowned or
    /// belongs to the inviter itself.
    pub(crate) fn volunteer(&self, at: Id, inviter: usize) -> Option<(usize, bool, u64)> {
        let o = self.owner(at).filter(|&o| o != inviter)?;
        Some((o, self.worker_can_spawn(o), self.worker_load(o)))
    }

    /// The worker that owns vnode `at`.
    pub(crate) fn owner(&self, at: Id) -> Option<usize> {
        self.owner_of.get(&at).copied()
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

    /// Work phase: each active worker consumes one task from its nodes
    /// (primary first, then Sybils).
    fn work_phase(&mut self) {
        let mut consumed = 0u64;
        for (w, done) in self.tasks_done.iter_mut().enumerate() {
            let Some(worker) = self.workers.get(w) else {
                continue;
            };
            for v in worker.vnodes() {
                let popped = self
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
        self.hub.add(metric_names::TASKS_DONE, consumed);
    }
}

/// A [`ChordCore`] driven over a [`Wire`]: the [`Substrate`] both Chord
/// substrates hand to the strategy stack.
pub(crate) struct Host<W> {
    pub(crate) core: ChordCore,
    pub(crate) wire: W,
}

impl<W: Wire> Host<W> {
    /// Takes the initial metrics sample.
    pub(crate) fn start(&mut self) {
        let time = self.wire.clock(self.core.tick);
        self.core.sample_metrics(time);
    }

    /// Opens the next tick; scheduled crash-failures land before
    /// anything else in it — adversity does not wait for the protocol.
    pub(crate) fn begin_tick(&mut self) {
        self.core.tick += 1;
        let tick = self.core.tick;
        self.core.net.set_clock(tick);
        self.core.hub.inc(metric_names::TICKS);
        while let Some(&(at, count)) = self.core.crash_schedule.front() {
            if at > tick {
                break;
            }
            self.core.crash_schedule.pop_front();
            self.apply_crashes(count);
        }
    }

    /// Closes the tick: the work phase, one maintenance cycle (§V: "a
    /// tick is enough time to accomplish at least one maintenance
    /// cycle"), then a metrics sample on the configured cadence and at
    /// job completion.
    pub(crate) fn end_tick(&mut self) {
        self.core.work_phase();
        self.core.net.maintenance_cycle();
        let core = &self.core;
        if let Some(k) = core.metrics_every {
            if core.tick.is_multiple_of(k) || core.net.total_keys() == 0 {
                let time = self.wire.clock(core.tick);
                self.core.sample_metrics(time);
            }
        }
    }

    /// Joins a Sybil for `w` at `pos`, bills the join and records it.
    fn spawn_sybil_as(&mut self, w: usize, pos: Id) -> Result<u64, ActionError> {
        let Some(contact) = self.core.workers.get(w).map(|p| p.primary) else {
            return Err(ActionError::Unreachable);
        };
        let (joined, retries) = self.wire.join(&mut self.core, pos, contact);
        self.core.bill("join", join_fate(&joined), retries);
        joined.map_err(action_error)?;
        let core = &mut self.core;
        let acquired = core.vnode_load(pos);
        if let Some(p) = core.workers.get_mut(w) {
            p.sybils.push(pos);
        }
        core.owner_of.insert(pos, w);
        core.sybils_created += 1;
        let tick = core.tick;
        core.emit_event(SimEvent::SybilCreated {
            tick,
            worker: w,
            pos,
            acquired,
        });
        Ok(acquired)
    }

    fn retire_sybils_of(&mut self, w: usize) {
        let Some(p) = self.core.workers.get_mut(w) else {
            return;
        };
        let sybils = std::mem::take(&mut p.sybils);
        let n = sybils.len() as u64;
        for s in sybils {
            if self.core.crash_retirement {
                // Abrupt variant: the Sybil process just exits. Keys
                // with a live replica get promoted by maintenance; the
                // rest are billed as lost rather than silently gone.
                if let Ok(rep) = self.core.net.fail(s) {
                    self.core.tasks_lost += rep.keys_lost;
                }
            } else {
                self.core.leave_expecting_gone(s);
            }
            self.wire.removed(s);
            self.core.owner_of.remove(&s);
        }
        self.core.sybils_retired += n;
        if n > 0 {
            self.wire.rewire();
            let tick = self.core.tick;
            self.core.emit_event(SimEvent::SybilsRetired {
                tick,
                worker: w,
                count: n as u32,
            });
        }
    }

    /// Crash-fails one whole worker: every vnode vanishes abruptly, the
    /// worker never returns, and keys without a live replica are billed
    /// as lost.
    fn crash_worker(&mut self, w: usize) {
        let core = &mut self.core;
        let mut lost = 0;
        if let Some(p) = core.workers.get_mut(w) {
            for v in p.vnodes() {
                if let Ok(rep) = core.net.fail(v) {
                    lost += rep.keys_lost;
                }
                self.wire.removed(v);
                core.owner_of.remove(&v);
            }
            p.sybils.clear();
            p.active = false;
        }
        core.active_count = core.active_count.saturating_sub(1);
        core.workers_crashed += 1;
        core.tasks_lost += lost;
        self.wire.rewire();
        let tick = core.tick;
        core.emit_event(SimEvent::WorkerCrashed {
            tick,
            worker: w,
            keys_lost: lost,
        });
    }

    /// Crashes up to `count` uniformly chosen active workers, always
    /// sparing at least one so the ring survives.
    fn apply_crashes(&mut self, count: u32) {
        for _ in 0..count {
            if self.core.active_count <= 1 {
                return;
            }
            // The k-th active worker in index order.
            let k = self.core.rng_faults.gen_range(0..self.core.active_count);
            let Some(w) = (0..self.core.workers.len())
                .filter(|&i| self.core.is_active(i))
                .nth(k)
            else {
                return;
            };
            self.crash_worker(w);
        }
    }
}

impl<W: Wire> Substrate for Host<W> {
    fn next_in_order(&self, from: usize) -> Option<usize> {
        let rest = self.core.workers.get(from..)?;
        rest.iter().position(|p| p.active).map(|i| from + i)
    }

    fn check_worker(&mut self, w: usize, strategy: &dyn Strategy) {
        let tick = self.core.tick;
        let span = self.core.trace.open_span(tick, strategy.name(), w as u64);
        strategy.check_node(&mut NodeCtx {
            host: self,
            worker: w,
        });
        self.core.trace.close_span(tick, span);
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

impl<W: Wire> ChurnOps for Host<W> {
    fn next_leave_candidate(&self, from: usize) -> Option<usize> {
        self.next_in_order(from)
    }

    fn active_count(&self) -> usize {
        self.core.active_count
    }

    fn flip(&mut self, p: f64) -> bool {
        self.core.rng_churn.gen::<f64>() <= p
    }

    fn depart(&mut self, w: usize) {
        let Some(p) = self.core.workers.get_mut(w) else {
            return;
        };
        let sybils = std::mem::take(&mut p.sybils);
        let primary = p.primary;
        p.active = false;
        for v in sybils.into_iter().chain(std::iter::once(primary)) {
            self.core.leave_expecting_gone(v);
            self.wire.removed(v);
            self.core.owner_of.remove(&v);
        }
        self.core.active_count = self.core.active_count.saturating_sub(1);
        self.core.waiting.push_back(w);
        self.wire.rewire();
        let tick = self.core.tick;
        self.core
            .emit_event(SimEvent::WorkerLeft { tick, worker: w });
    }

    fn waiting_len(&self) -> usize {
        self.core.waiting.len()
    }

    fn pop_waiting(&mut self) -> Option<usize> {
        self.core.waiting.pop_front()
    }

    fn requeue_waiting(&mut self, w: usize) {
        self.core.waiting.push_back(w);
    }

    fn rejoin(&mut self, w: usize) {
        let core = &mut self.core;
        let Some(contact) = core.workers.iter().find(|p| p.active).map(|p| p.primary) else {
            core.waiting.push_back(w);
            return;
        };
        let pos = loop {
            let p = Id::random(&mut core.rng_churn);
            if core.net.node(p).is_none() {
                break p;
            }
        };
        // Churn joins ride the same retry machinery as Sybil joins; a
        // worker whose join still fails stays in the waiting pool and
        // tries again next tick.
        let (joined, retries) = self.wire.join(core, pos, contact);
        core.bill("join", join_fate(&joined), retries);
        if joined.is_err() {
            core.waiting.push_back(w);
            return;
        }
        if let Some(slot) = core.workers.get_mut(w) {
            *slot = Worker {
                primary: pos,
                sybils: Vec::new(),
                active: true,
            };
        }
        core.owner_of.insert(pos, w);
        core.active_count += 1;
        let acquired = core.vnode_load(pos);
        let tick = core.tick;
        core.emit_event(SimEvent::WorkerJoined {
            tick,
            worker: w,
            pos,
            acquired,
        });
    }
}

/// One worker's [`LocalView`]/[`Actions`] window: its own nodes' key
/// counts and the primary's live successor list are free reads of the
/// network; everything else is a priced action on the wire.
struct NodeCtx<'a, W> {
    host: &'a mut Host<W>,
    worker: usize,
}

impl<W: Wire> NodeCtx<'_, W> {
    fn me(&self) -> Option<&Worker> {
        self.host.core.workers.get(self.worker)
    }

    /// A direct (`about: None`) or relayed load probe from this
    /// worker's primary to `to`, billed with its fate.
    fn probe(&mut self, to: Id, about: Option<Id>) -> Result<u64, ActionError> {
        let from = self.primary();
        let host = &mut *self.host;
        let answer = host.wire.probe(&mut host.core, from, to, about);
        let status = match answer {
            Ok(_) => MessageStatus::Delivered,
            Err(ActionError::TimedOut) => MessageStatus::TimedOut,
            Err(ActionError::Unreachable | ActionError::Occupied) => MessageStatus::Unreachable,
        };
        host.core.bill("load_query", status, 0);
        let load = answer?;
        if W::LIES_AT_SERVE {
            return Ok(load);
        }
        // The querier only ever sees what the reporter *says*.
        let about = about.unwrap_or(to);
        Ok(host.core.reported_load(&mut host.wire, to, about, load))
    }
}

impl<W: Wire> LocalView for NodeCtx<'_, W> {
    fn params(&self) -> StrategyParams {
        self.host.core.params
    }

    fn load(&self) -> u64 {
        self.host.core.worker_load(self.worker)
    }

    fn sybil_count(&self) -> usize {
        self.me().map(|p| p.sybils.len()).unwrap_or(0)
    }

    fn sybil_slots_left(&self) -> u32 {
        self.host
            .core
            .max_sybils
            .saturating_sub(self.sybil_count() as u32)
    }

    fn primary(&self) -> Id {
        self.me().map(|p| p.primary).unwrap_or(Id::ZERO)
    }

    fn own_vnode_loads(&self) -> Vec<(Id, u64)> {
        self.me()
            .into_iter()
            .flat_map(|p| p.vnodes())
            .map(|v| (v, self.host.core.vnode_load(v)))
            .collect()
    }

    fn successor_list(&self) -> SuccList {
        let primary = self.primary();
        let k = self.host.core.params.num_neighbors;
        self.host
            .core
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

impl<W: Wire> Actions for NodeCtx<'_, W> {
    /// A direct probe; a stale successor-list entry pointing at a dead
    /// node is `Unreachable`, a lost probe `TimedOut`.
    fn query_load(&mut self, neighbor: Id) -> Result<u64, ActionError> {
        let load = self.probe(neighbor, None)?;
        let core = &mut self.host.core;
        let tick = core.tick;
        core.emit_event(SimEvent::LoadQueried {
            tick,
            worker: self.worker,
            neighbor,
            load,
        });
        Ok(load)
    }

    /// A relayed cross-checking probe: ask `relay` what it believes
    /// `target` holds (successors replicate each other's key ranges, so
    /// the relay can answer from its replica knowledge). Billed exactly
    /// like a direct probe; distorted iff the *relay*'s owner is
    /// Byzantine. Emits no `LoadQueried` decision — the round-level
    /// `note_probe` records the cross-checked outcome instead.
    fn query_load_via(&mut self, relay: Id, target: Id) -> Result<u64, ActionError> {
        self.probe(relay, Some(target))
    }

    fn note_probe(&mut self, target: Id, agreed: bool, estimate: u64) {
        let core = &mut self.host.core;
        let (tick, worker) = (core.tick, self.worker);
        core.emit_event(if agreed {
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
        let core = &mut self.host.core;
        if let Some(mark) = core
            .owner(reporter)
            .and_then(|owner| core.quarantined_marks.get_mut(owner))
        {
            *mark += 1;
        }
        let tick = core.tick;
        core.emit_event(SimEvent::Quarantined {
            tick,
            worker: self.worker,
            reporter,
            suspicion,
        });
    }

    fn random_id(&mut self) -> Id {
        Id::random(&mut self.host.core.rng_strategy)
    }

    fn spawn_sybil(&mut self, pos: Id) -> Result<u64, ActionError> {
        self.host.spawn_sybil_as(self.worker, pos)
    }

    fn retire_sybils(&mut self) {
        self.host.retire_sybils_of(self.worker);
    }

    fn note_gap_split(&mut self, pos: Id) {
        let core = &mut self.host.core;
        let tick = core.tick;
        core.emit_event(SimEvent::NeighborGapSplit {
            tick,
            worker: self.worker,
            pos,
        });
    }

    fn split_target(&mut self, victim: Id) -> Option<Id> {
        // Chosen-ID placement would need the victim's key set — a real
        // node does not publish it, so Chord substrates always split at
        // the arc midpoint.
        let pred = self.host.core.net.node(victim)?.predecessor();
        (pred != victim).then(|| ring::midpoint(pred, victim))
    }

    /// Announces to `hot`'s listed predecessors and spawns a Sybil for
    /// the least-loaded volunteer. A lost announcement is simply re-sent
    /// on the next check, because the node is still overburdened then.
    fn invite(&mut self, hot: Id) -> InviteOutcome {
        let inviter = self.worker;
        let host = &mut *self.host;
        let k = host.core.params.num_neighbors;
        let Some(node) = host.core.net.node(hot) else {
            return InviteOutcome::NoNeighbors;
        };
        let preds: Vec<Id> = node
            .predecessors
            .iter()
            .copied()
            .filter(|&p| p != hot)
            .take(k)
            .collect();
        if preds.is_empty() {
            return InviteOutcome::NoNeighbors;
        }
        let Some(candidates) = host.wire.invite(&mut host.core, inviter, hot, &preds) else {
            host.core.bill("invitation", MessageStatus::Dropped, 0);
            return InviteOutcome::Unreachable;
        };
        host.core.bill("invitation", MessageStatus::Delivered, 0);
        let tick = host.core.tick;
        host.core.emit_event(SimEvent::InvitationSent {
            tick,
            worker: inviter,
        });
        let helper = pick_helper(&candidates, host.core.params.strength_aware_invitation);
        let outcome = helper
            .and_then(|h| self.split_target(hot).map(|pos| (h, pos)))
            .and_then(|(h, pos)| {
                self.host
                    .spawn_sybil_as(h, pos)
                    .ok()
                    .map(|acquired| (h, acquired))
            });
        let core = &mut self.host.core;
        match outcome {
            Some((helper, acquired)) => {
                core.emit_event(SimEvent::InvitationHonored {
                    tick,
                    worker: inviter,
                    helper,
                    acquired,
                });
                InviteOutcome::Helped { acquired }
            }
            None => {
                core.emit_event(SimEvent::InvitationRefused {
                    tick,
                    worker: inviter,
                });
                InviteOutcome::Refused
            }
        }
    }
}
