//! The **event-time substrate**: the paper's strategies running on the
//! asynchronous Chord overlay, racing stabilization.
//!
//! [`protocol_sim`](crate::protocol_sim) closed the gap between the
//! oracle ring and the real protocol state machine, but it still
//! dispatches strategy actions through a synchronous shim: every load
//! probe, invitation, and Sybil join resolves instantly, between ticks.
//! This module removes that last idealization. The same trait-object
//! [`StrategyStack`] runs here unmodified, but its observable actions
//! become real messages on the [`EventNet`] priority queue:
//!
//! * `query_load` sends an [`AppMsg::LoadQuery`] over the wire and
//!   blocks the check until the reply, a [`AppMsg::Nack`] bounce, or a
//!   probe timeout comes back — mapped to
//!   [`ActionError::Unreachable`] / [`ActionError::TimedOut`].
//! * `invite` announces to each listed predecessor as a separate wire
//!   message and harvests the `InviteReply`s that survive.
//! * Sybil joins and churn rejoins first resolve their position with a
//!   real tracked wire lookup (riding the existing retry budget), then
//!   hand off keys through the synchronous [`Network`] state machine.
//! * Strategy check cadence is a **timer event**: each check tick
//!   schedules one `CHECK` timer per active worker plus a `POSTCHECK`
//!   work/maintenance timer, so checks interleave with stabilize,
//!   notify, and finger-refresh traffic instead of running between
//!   ticks. Timers that fire while an action is blocked are deferred
//!   in FIFO order, which is exactly the synchronous dispatch order
//!   when latency is zero.
//!
//! Division of labor: the embedded [`Network`] is the **authoritative
//! state machine** (key placement, successor lists, replication — what
//! strategies read and what the work phase consumes), while the
//! [`EventNet`] is the **wire** (latency, loss, partitions,
//! duplication, retry budgets — what strategy traffic must survive).
//! Membership changes are mirrored into both on the spot; how fast the
//! *wire* learns about them is stabilization's problem, which is the
//! phenomenon under study. The network's own fault plan stays inert
//! here — adversity lives on the wire, plus the substrate-level crash
//! plane shared with the protocol substrate.
//!
//! **Correctness anchor:** under a *degenerate* configuration — zero
//! latency, inert faults — every reply arrives before the next
//! deferred timer fires, and ground-truth rewiring after each
//! membership change stands in for "stabilize before check". The
//! decision trace is then bit-for-bit identical to
//! [`run_protocol_sim`](crate::protocol_sim::run_protocol_sim) on the
//! same seed (`autobal-trace diff` reports no causal divergence).
//! Under real latency, divergence is the measurement, not a bug.

use autobal_chord::{
    AdversaryState, AppEvent, AppMsg, AsyncLookup, EventConfig, EventNet, MessageStats, Network,
    NetworkError,
};
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
use autobal_metrics::{names as metric_names, MetricsHub, MetricsSample, MetricsSink, RingSlot};
use autobal_stats::rng::{domains, substream, DetRng};
use autobal_telemetry::{MessageStatus, Trace, TraceSink};
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::protocol_sim::fate_metric;
pub use crate::protocol_sim::ProtocolSimConfig;

/// Substrate timer tokens: the top two bits carry the kind, the low 62
/// the payload (worker index for `CHECK`, request id for probes).
const TAG_SHIFT: u32 = 62;
/// Probe deadline; payload is the request id the probe is waiting on.
const TAG_PROBE: u64 = 0;
/// Tick boundary: churn, crash plane, check scheduling, work phase.
const TAG_TICK: u64 = 1;
/// One worker's strategy check; payload is the worker index.
const TAG_CHECK: u64 = 2;
/// End-of-sweep work phase + maintenance on check ticks.
const TAG_POSTCHECK: u64 = 3;

fn token(tag: u64, payload: u64) -> u64 {
    (tag << TAG_SHIFT) | payload
}

/// Configuration for an event-time run: the protocol-level knobs plus
/// the wire's timing model.
#[derive(Debug, Clone)]
pub struct EventSimConfig {
    /// Strategy, workload, churn, crash, and fault knobs — identical
    /// meaning to the synchronous protocol substrate. `proto.fault` is
    /// armed on the *wire* (crash events excepted: those stay on the
    /// substrate-level schedule, exactly as in the protocol run), and
    /// its partition/crash times are interpreted in **event time**.
    pub proto: ProtocolSimConfig,
    /// Wire timing: per-message latency, stabilize cadence, lookup
    /// timeout. `latency: 0` with an inert `proto.fault` selects the
    /// degenerate mode that reproduces the synchronous decision trace.
    pub event: EventConfig,
    /// Event-time units per simulator tick. Ticks *stretch* when a
    /// check sweep blocks on slow probes — the tick timer fires on
    /// schedule but is deferred behind the sweep, so task consumption
    /// genuinely waits for strategy traffic.
    pub tick_len: u64,
    /// How long a load probe or invitation round waits for replies
    /// before the action resolves as [`ActionError::TimedOut`]. Must
    /// exceed one round trip to be useful.
    pub probe_timeout: u64,
}

impl Default for EventSimConfig {
    fn default() -> Self {
        EventSimConfig {
            proto: ProtocolSimConfig::default(),
            event: EventConfig::default(),
            // One stabilize period per tick: maintenance traffic and
            // strategy cadence genuinely interleave.
            tick_len: 100,
            // Generous multiple of the default round trip (2 × 10), so
            // only loss or partitions produce probe timeouts.
            probe_timeout: 400,
        }
    }
}

/// Result of an event-time run. Superset of the protocol run report:
/// adds the wire plane (event clock, wire message bill, lookup-latency
/// tail) and the per-worker task counts the decision-quality table
/// computes Gini over.
#[derive(Debug, Clone)]
pub struct EventRun {
    /// Simulator ticks executed (work-phase opportunities).
    pub ticks: u64,
    pub ideal_ticks: u64,
    pub runtime_factor: f64,
    pub completed: bool,
    /// Final event-time clock. `time / ticks` exceeds `tick_len` when
    /// strategy traffic stalled the tick timer.
    pub time: u64,
    /// Synchronous state-machine bill: joins, key handoffs,
    /// replication — same meaning as the protocol run.
    pub messages: MessageStats,
    /// Wire bill: routing hops, stabilize/notify traffic, and the
    /// strategy vocabulary (`load_query`, `invitation`) that here
    /// rides the real queue. `wire.strategy_overhead()` isolates the
    /// balancing cost.
    pub wire: MessageStats,
    /// Events processed by the wire's queue over the whole run.
    pub wire_events: u64,
    pub sybils_created: u64,
    pub sybils_retired: u64,
    pub tasks_lost: u64,
    pub workers_crashed: u64,
    /// Keys still unconsumed at exit (0 iff `completed`).
    pub tasks_remaining: u64,
    /// Tasks consumed per worker slot — the Gini input.
    pub tasks_done: Vec<u64>,
    /// Completed wire lookup latencies (joins + finger refreshes), in
    /// event-time units, completion order. Empty at zero latency.
    pub lookup_latencies: Vec<u64>,
    /// Wire lookups that exhausted their retry budget.
    pub lookup_timeouts: u64,
    pub events: EventLog,
    pub trace: Trace,
    /// Streaming metrics samples (empty unless
    /// [`ProtocolSimConfig::record_metrics`]). Sample times are the
    /// **event clock**, not ticks.
    pub metrics: Vec<MetricsSample>,
}

/// One physical worker: its primary Chord node plus live Sybil nodes.
struct EWorker {
    primary: Id,
    sybils: Vec<Id>,
    active: bool,
}

impl EWorker {
    fn vnodes(&self) -> impl Iterator<Item = Id> + '_ {
        std::iter::once(self.primary)
            .chain(self.sybils.iter().copied())
            .filter(|_| self.active)
    }
}

/// The [`Substrate`] over the asynchronous overlay. State queries read
/// the synchronous network; observable actions block on real wire
/// round trips.
struct EventSubstrate {
    net: Network,
    wire: EventNet,
    workers: Vec<EWorker>,
    waiting: VecDeque<usize>,
    owner_of: BTreeMap<Id, usize>,
    params: StrategyParams,
    max_sybils: u32,
    active_count: usize,
    tick: u64,
    probe_timeout: u64,
    /// Zero latency + inert faults: rewire the wire's routing tables
    /// to ground truth after every membership change, standing in for
    /// "stabilization finished before the next check".
    degenerate: bool,
    /// Substrate timers that fired while an action was blocked on the
    /// wire, replayed FIFO by the driver. At zero latency this FIFO
    /// replay *is* the synchronous dispatch order.
    deferred: VecDeque<u64>,
    /// Remaining substrate-level crash events, `(tick, victims)`.
    crash_schedule: VecDeque<(u64, u32)>,
    rng_strategy: DetRng,
    rng_churn: DetRng,
    rng_faults: DetRng,
    sybils_created: u64,
    sybils_retired: u64,
    tasks_lost: u64,
    workers_crashed: u64,
    crash_retirement: bool,
    /// Armed Byzantine adversary: decides per owner whether a load
    /// reply is distorted. Stateless at query time, so the same reply
    /// lies identically here and on the synchronous shim.
    adversary: AdversaryState,
    tasks_done: Vec<u64>,
    lookup_latencies: Vec<u64>,
    lookup_timeouts: u64,
    events: EventLog,
    trace: Trace,
    /// Streaming metrics recorder; free when disabled.
    hub: MetricsHub,
    /// Metrics sampling cadence in ticks (None = metrics off).
    metrics_every: Option<u64>,
    /// Cumulative quarantine decisions against each worker, for the
    /// ring snapshot's quarantine markers.
    quarantined_marks: Vec<u64>,
}

impl EventSubstrate {
    /// Same `decision_fields` encoding as the other substrates, stamped
    /// with the **tick** (not the event clock) so same-seed decision
    /// traces are comparable across substrates.
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
    /// the current per-worker loads (the byte-identical twin of the
    /// protocol substrate's sampler), stamped with the event clock.
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
            let Some(worker) = self.workers.get(w) else {
                continue;
            };
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
        let now = self.wire.now();
        self.hub.sample_batch(now, &mut loads, ring);
        self.hub.put_scratch(loads);
    }

    /// Samples on the configured tick cadence (called after each
    /// completed work phase) and at job completion.
    fn maybe_sample_metrics(&mut self) {
        let Some(k) = self.metrics_every else {
            return;
        };
        if self.tick.is_multiple_of(k) || self.net.total_keys() == 0 {
            self.sample_metrics();
        }
    }

    fn worker_load(&self, w: usize) -> u64 {
        self.workers
            .get(w)
            .into_iter()
            .flat_map(|p| p.vnodes())
            .filter_map(|v| self.net.node(v))
            .map(|n| n.keys.len() as u64)
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

    fn rewire_if_degenerate(&mut self) {
        if self.degenerate {
            self.wire.rewire_ground_truth();
        }
    }

    /// The load value vnode `reporter` actually puts on the wire: the
    /// truth unless its owner is Byzantine, in which case the distorted
    /// value is billed to the wire's `lied` meta-counter and recorded
    /// as a `lied` decision — at *serve* time, exactly when the
    /// synchronous shim would record it, so degenerate decision streams
    /// stay bit-for-bit comparable. `about` is the vnode the answer
    /// describes (the reporter itself for direct probes).
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
        self.wire.stats.lied += 1;
        self.emit_event(SimEvent::LoadLied {
            tick,
            worker: owner,
            about,
            reported,
        });
        reported
    }

    /// Files a timer that surfaced mid-drain: `CHECK`/`POSTCHECK`/
    /// `TICK` tokens are deferred for the driver; stale probe
    /// deadlines (their probe already resolved) are discarded.
    fn defer_timer(&mut self, tok: u64) {
        if tok >> TAG_SHIFT != TAG_PROBE {
            self.deferred.push_back(tok);
        }
    }

    /// Answers an application *request* arriving at vnode `at`;
    /// replies without a waiting drain are stale and ignored.
    fn serve_if_request(&mut self, at: Id, from: Id, req: u64, msg: AppMsg) {
        match msg {
            AppMsg::LoadQuery => {
                let reply = match self.net.node(at).map(|n| n.keys.len() as u64) {
                    Some(true_load) => AppMsg::LoadReply {
                        load: self.reported_load(at, at, true_load),
                    },
                    None => AppMsg::Nack,
                };
                self.wire.reply_app(at, from, req, reply);
            }
            AppMsg::LoadQueryAbout { target } => {
                // The relay answers from its replica knowledge of the
                // target's key range; a Byzantine *relay* distorts it.
                let reply = match self.net.node(target).map(|n| n.keys.len() as u64) {
                    Some(true_load) => AppMsg::LoadReply {
                        load: self.reported_load(at, target, true_load),
                    },
                    None => AppMsg::Nack,
                };
                self.wire.reply_app(at, from, req, reply);
            }
            AppMsg::Invitation { inviter } => {
                // Mirror of the synchronous candidate filter: the
                // answering owner volunteers iff it is not the inviter
                // and has spawn capacity, and quotes its current load.
                let reply = match self.owner_of.get(&at).copied() {
                    Some(o) if o as u64 != inviter => AppMsg::InviteReply {
                        can: self.worker_can_spawn(o),
                        load: self.worker_load(o),
                    },
                    _ => AppMsg::InviteReply {
                        can: false,
                        load: 0,
                    },
                };
                self.wire.reply_app(at, from, req, reply);
            }
            AppMsg::LoadReply { .. } | AppMsg::InviteReply { .. } | AppMsg::Nack => {}
        }
    }

    /// Drains the wire until the tracked join lookup `req` completes
    /// (success or retry-budget exhaustion — the wire always resolves
    /// a watched lookup). Protocol traffic and other nodes' requests
    /// are handled inline; substrate timers are deferred.
    fn await_join(&mut self, req: u64) -> Option<AsyncLookup> {
        loop {
            let ev = self.wire.run_until_app(u64::MAX)?;
            match ev {
                AppEvent::LookupDone(l) if l.req == req => return Some(l),
                AppEvent::LookupDone(_) => {}
                AppEvent::Timer { token } => self.defer_timer(token),
                AppEvent::Msg {
                    at,
                    from,
                    req: r,
                    msg,
                } => self.serve_if_request(at, from, r, msg),
            }
        }
    }

    /// A Sybil join for `w` at `pos`: the position is first resolved by
    /// a real tracked wire lookup (latency, loss, and the retry budget
    /// all apply), then the synchronous network performs the
    /// authoritative key handoff.
    fn spawn_sybil_as(&mut self, w: usize, pos: Id) -> Result<u64, ActionError> {
        let Some(contact) = self.workers.get(w).map(|p| p.primary) else {
            return Err(ActionError::Unreachable);
        };
        let tick = self.tick;
        if self.net.node(pos).is_some() {
            // An occupied position still means the join reached the
            // ring — the synchronous substrate's DuplicateId path.
            self.trace
                .message(tick, "join", MessageStatus::Delivered, 0);
            self.hub.message(metric_names::MSG_DELIVERED, 0);
            return Err(ActionError::Occupied);
        }
        let retries_before = self.wire.stats.retries;
        let Some(req) = self.wire.join_tracked(pos, contact) else {
            self.trace
                .message(tick, "join", MessageStatus::Unreachable, 0);
            self.hub.message(metric_names::MSG_UNREACHABLE, 0);
            return Err(ActionError::Unreachable);
        };
        let owner = self.await_join(req).and_then(|l| l.owner);
        let retries = self.wire.stats.retries - retries_before;
        if owner.is_none() {
            // The wire never resolved the position: undo the half-join
            // so wire and network membership stay mirrored.
            self.wire.fail(pos);
            self.trace
                .message(tick, "join", MessageStatus::TimedOut, retries);
            self.hub.message(metric_names::MSG_TIMED_OUT, retries);
            return Err(ActionError::TimedOut);
        }
        let joined = self.net.join_with_retry(pos, contact);
        let status = match &joined {
            Ok(()) | Err(NetworkError::DuplicateId(_)) => MessageStatus::Delivered,
            Err(NetworkError::TimedOut { .. }) => MessageStatus::TimedOut,
            Err(
                NetworkError::EmptyNetwork
                | NetworkError::UnknownNode(_)
                | NetworkError::LookupFailed { .. },
            ) => MessageStatus::Unreachable,
        };
        self.trace.message(tick, "join", status, retries);
        self.hub.message(fate_metric(status), retries);
        match joined {
            Ok(()) => {}
            Err(e) => {
                self.wire.fail(pos);
                return Err(match e {
                    NetworkError::DuplicateId(_) => ActionError::Occupied,
                    NetworkError::TimedOut { .. } => ActionError::TimedOut,
                    NetworkError::EmptyNetwork
                    | NetworkError::UnknownNode(_)
                    | NetworkError::LookupFailed { .. } => ActionError::Unreachable,
                });
            }
        }
        self.rewire_if_degenerate();
        let acquired = self.net.node(pos).map(|n| n.keys.len() as u64).unwrap_or(0);
        if let Some(p) = self.workers.get_mut(w) {
            p.sybils.push(pos);
        }
        self.owner_of.insert(pos, w);
        self.sybils_created += 1;
        self.emit_event(SimEvent::SybilCreated {
            tick,
            worker: w,
            pos,
            acquired,
        });
        Ok(acquired)
    }

    fn retire_sybils_of(&mut self, w: usize) {
        let sybils = match self.workers.get_mut(w) {
            Some(p) => std::mem::take(&mut p.sybils),
            None => return,
        };
        let n = sybils.len() as u64;
        for s in sybils {
            if self.crash_retirement {
                if let Ok(rep) = self.net.fail(s) {
                    self.tasks_lost += rep.keys_lost;
                }
            } else {
                self.leave_expecting_gone(s);
            }
            // The wire has no graceful-leave vocabulary: a retiring
            // Sybil simply stops answering and stabilization routes
            // around it.
            self.wire.fail(s);
            self.owner_of.remove(&s);
        }
        self.sybils_retired += n;
        if n > 0 {
            self.rewire_if_degenerate();
            let tick = self.tick;
            self.emit_event(SimEvent::SybilsRetired {
                tick,
                worker: w,
                count: n as u32,
            });
        }
    }

    /// Crash-fails one whole worker on both planes; never returns.
    fn crash_worker(&mut self, w: usize) -> u64 {
        let mut lost = 0;
        if let Some(p) = self.workers.get(w) {
            for v in p.vnodes() {
                if let Ok(rep) = self.net.fail(v) {
                    lost += rep.keys_lost;
                }
                self.wire.fail(v);
                self.owner_of.remove(&v);
            }
        }
        if let Some(p) = self.workers.get_mut(w) {
            p.sybils.clear();
            p.active = false;
        }
        self.active_count = self.active_count.saturating_sub(1);
        self.workers_crashed += 1;
        self.tasks_lost += lost;
        self.rewire_if_degenerate();
        let tick = self.tick;
        self.emit_event(SimEvent::WorkerCrashed {
            tick,
            worker: w,
            keys_lost: lost,
        });
        lost
    }

    /// Crashes up to `count` uniformly chosen active workers, sparing
    /// at least one — the same victim stream as the protocol run.
    fn apply_crashes(&mut self, count: u32) {
        for _ in 0..count {
            if self.active_count <= 1 {
                return;
            }
            let k = self.rng_faults.gen_range(0..self.active_count);
            let Some(w) = self
                .workers
                .iter()
                .enumerate()
                .filter(|(_, p)| p.active)
                .map(|(i, _)| i)
                .nth(k)
            else {
                return;
            };
            self.crash_worker(w);
        }
    }

    /// Work phase: each active worker consumes one task from its
    /// vnodes (primary first, then Sybils) — identical to the
    /// protocol substrate, plus per-worker accounting for Gini.
    fn work_phase(&mut self) {
        let mut consumed = 0u64;
        for w in 0..self.workers.len() {
            let Some(p) = self.workers.get(w) else {
                continue;
            };
            let mut popped = false;
            for v in p.vnodes() {
                popped = self
                    .net
                    .node_mut(v)
                    .and_then(|n| n.keys.pop_first())
                    .is_some();
                if popped {
                    break;
                }
            }
            if popped {
                consumed += 1;
                if let Some(t) = self.tasks_done.get_mut(w) {
                    *t += 1;
                }
            }
        }
        self.hub.add(metric_names::TASKS_DONE, consumed);
    }

    /// Harvests completed wire lookups into the latency tail.
    fn drain_lookups(&mut self) {
        for l in self.wire.take_completed() {
            if l.owner.is_some() {
                self.lookup_latencies.push(l.latency);
            } else {
                self.lookup_timeouts += 1;
            }
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

impl Substrate for EventSubstrate {
    fn next_in_order(&self, from: usize) -> Option<usize> {
        let rest = self.workers.get(from..)?;
        rest.iter().position(|p| p.active).map(|i| from + i)
    }

    fn check_worker(&mut self, w: usize, strategy: &dyn Strategy) {
        let span = self.trace.open_span(self.tick, strategy.name(), w as u64);
        let mut ctx = EventNodeCtx {
            sub: self,
            worker: w,
        };
        strategy.check_node(&mut ctx);
        let tick = self.tick;
        self.trace.close_span(tick, span);
    }

    fn check_omniscient(&mut self, _strategy: &dyn Strategy) -> bool {
        // Event time is even less omniscient than the protocol shim.
        false
    }

    fn churn_ops(&mut self) -> &mut dyn ChurnOps {
        self
    }
}

impl ChurnOps for EventSubstrate {
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
        let sybils = match self.workers.get_mut(w) {
            Some(p) => std::mem::take(&mut p.sybils),
            None => return,
        };
        for s in sybils {
            self.leave_expecting_gone(s);
            self.wire.fail(s);
            self.owner_of.remove(&s);
        }
        let Some(primary) = self.workers.get(w).map(|p| p.primary) else {
            return;
        };
        self.leave_expecting_gone(primary);
        self.wire.fail(primary);
        self.owner_of.remove(&primary);
        if let Some(p) = self.workers.get_mut(w) {
            p.active = false;
        }
        self.active_count = self.active_count.saturating_sub(1);
        self.waiting.push_back(w);
        self.rewire_if_degenerate();
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
        let tick = self.tick;
        let retries_before = self.wire.stats.retries;
        let resolved = match self.wire.join_tracked(pos, contact) {
            Some(req) => self.await_join(req).and_then(|l| l.owner).is_some(),
            None => false,
        };
        let (ok, status) = if resolved {
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
            if joined.is_err() {
                self.wire.fail(pos);
            }
            (joined.is_ok(), status)
        } else {
            self.wire.fail(pos);
            (false, MessageStatus::TimedOut)
        };
        let retries = self.wire.stats.retries - retries_before;
        self.trace.message(tick, "join", status, retries);
        self.hub.message(fate_metric(status), retries);
        if !ok {
            // A worker whose join dies on the wire stays in the
            // waiting pool and tries again next tick.
            self.waiting.push_back(w);
            return;
        }
        if let Some(slot) = self.workers.get_mut(w) {
            *slot = EWorker {
                primary: pos,
                sybils: Vec::new(),
                active: true,
            };
        }
        self.owner_of.insert(pos, w);
        self.active_count += 1;
        self.rewire_if_degenerate();
        let acquired = self.net.node(pos).map(|n| n.keys.len() as u64).unwrap_or(0);
        self.emit_event(SimEvent::WorkerJoined {
            tick,
            worker: w,
            pos,
            acquired,
        });
    }
}

/// One worker's [`LocalView`]/[`Actions`] window. State reads mirror
/// the protocol substrate; actions are real wire round trips.
struct EventNodeCtx<'a> {
    sub: &'a mut EventSubstrate,
    worker: usize,
}

impl LocalView for EventNodeCtx<'_> {
    fn params(&self) -> StrategyParams {
        self.sub.params
    }

    fn load(&self) -> u64 {
        self.sub.worker_load(self.worker)
    }

    fn sybil_count(&self) -> usize {
        self.sub
            .workers
            .get(self.worker)
            .map(|p| p.sybils.len())
            .unwrap_or(0)
    }

    fn sybil_slots_left(&self) -> u32 {
        self.sub
            .max_sybils
            .saturating_sub(self.sybil_count() as u32)
    }

    fn primary(&self) -> Id {
        self.sub
            .workers
            .get(self.worker)
            .map(|p| p.primary)
            .unwrap_or(Id::ZERO)
    }

    fn own_vnode_loads(&self) -> Vec<(Id, u64)> {
        self.sub
            .workers
            .get(self.worker)
            .into_iter()
            .flat_map(|p| p.vnodes())
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

impl Actions for EventNodeCtx<'_> {
    /// A real round trip: `LoadQuery` out, then the check **blocks**
    /// draining the wire until the reply, a dead-node `Nack`, or the
    /// probe deadline. Stabilization traffic keeps flowing while we
    /// wait — that is the race the paper's strategies live in.
    fn query_load(&mut self, neighbor: Id) -> Result<u64, ActionError> {
        let tick = self.sub.tick;
        let primary = self.primary();
        let req = self.sub.wire.send_app(primary, neighbor, AppMsg::LoadQuery);
        let deadline = token(TAG_PROBE, req);
        let at = self.sub.wire.now() + self.sub.probe_timeout;
        self.sub.wire.schedule_app_timer(at, deadline);
        loop {
            let Some(ev) = self.sub.wire.run_until_app(u64::MAX) else {
                self.sub
                    .trace
                    .message(tick, "load_query", MessageStatus::TimedOut, 0);
                self.sub.hub.message(metric_names::MSG_TIMED_OUT, 0);
                return Err(ActionError::TimedOut);
            };
            match ev {
                AppEvent::Timer { token: t } if t == deadline => {
                    self.sub
                        .trace
                        .message(tick, "load_query", MessageStatus::TimedOut, 0);
                    self.sub.hub.message(metric_names::MSG_TIMED_OUT, 0);
                    return Err(ActionError::TimedOut);
                }
                AppEvent::Timer { token: t } => self.sub.defer_timer(t),
                AppEvent::Msg {
                    req: r,
                    msg: AppMsg::LoadReply { load },
                    ..
                } if r == req => {
                    self.sub
                        .trace
                        .message(tick, "load_query", MessageStatus::Delivered, 0);
                    self.sub.hub.message(metric_names::MSG_DELIVERED, 0);
                    let worker = self.worker;
                    self.sub.emit_event(SimEvent::LoadQueried {
                        tick,
                        worker,
                        neighbor,
                        load,
                    });
                    return Ok(load);
                }
                AppEvent::Msg {
                    req: r,
                    msg: AppMsg::Nack,
                    ..
                } if r == req => {
                    self.sub
                        .trace
                        .message(tick, "load_query", MessageStatus::Unreachable, 0);
                    self.sub.hub.message(metric_names::MSG_UNREACHABLE, 0);
                    return Err(ActionError::Unreachable);
                }
                AppEvent::Msg {
                    at,
                    from,
                    req: r,
                    msg,
                } => self.sub.serve_if_request(at, from, r, msg),
                AppEvent::LookupDone(_) => {}
            }
        }
    }

    /// The relayed cross-checking probe: an [`AppMsg::LoadQueryAbout`]
    /// round trip to `relay`, asking about `target`. Same blocking
    /// drain as the direct probe, but no `LoadQueried` decision — the
    /// round-level `note_probe` records the cross-checked outcome.
    fn query_load_via(&mut self, relay: Id, target: Id) -> Result<u64, ActionError> {
        let tick = self.sub.tick;
        let primary = self.primary();
        let req = self
            .sub
            .wire
            .send_app(primary, relay, AppMsg::LoadQueryAbout { target });
        let deadline = token(TAG_PROBE, req);
        let at = self.sub.wire.now() + self.sub.probe_timeout;
        self.sub.wire.schedule_app_timer(at, deadline);
        loop {
            let Some(ev) = self.sub.wire.run_until_app(u64::MAX) else {
                self.sub
                    .trace
                    .message(tick, "load_query", MessageStatus::TimedOut, 0);
                self.sub.hub.message(metric_names::MSG_TIMED_OUT, 0);
                return Err(ActionError::TimedOut);
            };
            match ev {
                AppEvent::Timer { token: t } if t == deadline => {
                    self.sub
                        .trace
                        .message(tick, "load_query", MessageStatus::TimedOut, 0);
                    self.sub.hub.message(metric_names::MSG_TIMED_OUT, 0);
                    return Err(ActionError::TimedOut);
                }
                AppEvent::Timer { token: t } => self.sub.defer_timer(t),
                AppEvent::Msg {
                    req: r,
                    msg: AppMsg::LoadReply { load },
                    ..
                } if r == req => {
                    self.sub
                        .trace
                        .message(tick, "load_query", MessageStatus::Delivered, 0);
                    self.sub.hub.message(metric_names::MSG_DELIVERED, 0);
                    return Ok(load);
                }
                AppEvent::Msg {
                    req: r,
                    msg: AppMsg::Nack,
                    ..
                } if r == req => {
                    self.sub
                        .trace
                        .message(tick, "load_query", MessageStatus::Unreachable, 0);
                    self.sub.hub.message(metric_names::MSG_UNREACHABLE, 0);
                    return Err(ActionError::Unreachable);
                }
                AppEvent::Msg {
                    at,
                    from,
                    req: r,
                    msg,
                } => self.sub.serve_if_request(at, from, r, msg),
                AppEvent::LookupDone(_) => {}
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
        if let Some(mark) = self
            .sub
            .owner_of
            .get(&reporter)
            .copied()
            .and_then(|owner| self.sub.quarantined_marks.get_mut(owner))
        {
            *mark += 1;
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
        let node = self.sub.net.node(victim)?;
        let pred = node.predecessor();
        if pred == victim {
            return None;
        }
        Some(ring::midpoint(pred, victim))
    }

    /// The announcement goes to each listed predecessor as a separate
    /// wire message (the synchronous substrate models the whole round
    /// as one flat-rate message; event time bills what the wire
    /// actually carries). Volunteers answer with `InviteReply`; the
    /// round closes when every announcement settles or the probe
    /// deadline passes, and a helper is picked from the replies in
    /// arrival order — at zero latency, exactly the synchronous
    /// candidate order.
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
        let mut outstanding: BTreeSet<u64> = BTreeSet::new();
        for &p in &preds {
            let req = self.sub.wire.send_app(
                hot,
                p,
                AppMsg::Invitation {
                    inviter: inviter as u64,
                },
            );
            outstanding.insert(req);
        }
        let Some(wait_tok) = outstanding.iter().next().copied() else {
            return InviteOutcome::NoNeighbors;
        };
        let at = self.sub.wire.now() + self.sub.probe_timeout;
        self.sub
            .wire
            .schedule_app_timer(at, token(TAG_PROBE, wait_tok));
        let mut candidates: Vec<HelperCandidate> = Vec::new();
        let mut delivered = false;
        while !outstanding.is_empty() {
            let Some(ev) = self.sub.wire.run_until_app(u64::MAX) else {
                break;
            };
            match ev {
                AppEvent::Timer { token: t } if t == token(TAG_PROBE, wait_tok) => break,
                AppEvent::Timer { token: t } => self.sub.defer_timer(t),
                AppEvent::Msg {
                    at,
                    from,
                    req: r,
                    msg,
                } => match msg {
                    // Inbound requests (including our own announcements
                    // being *delivered* to their targets, which carry
                    // the same request ids) are served inline.
                    AppMsg::LoadQuery | AppMsg::Invitation { .. } => {
                        self.sub.serve_if_request(at, from, r, msg)
                    }
                    AppMsg::InviteReply { can, load } if outstanding.remove(&r) => {
                        delivered = true;
                        if can {
                            if let Some(&o) = self.sub.owner_of.get(&from) {
                                candidates.push(HelperCandidate {
                                    worker: o,
                                    strength: 1, // homogeneous substrate
                                    load,
                                });
                            }
                        }
                    }
                    AppMsg::Nack if outstanding.remove(&r) => {
                        delivered = true;
                    }
                    _ => {}
                },
                AppEvent::LookupDone(_) => {}
            }
        }
        if !delivered {
            // Every announcement died on the wire: the overloaded node
            // simply re-announces on its next check, because it is
            // still overburdened then.
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

/// Runs the computation on the event-time substrate.
///
/// # Panics
/// Panics if `cfg.proto.strategy` is [`StrategyKind::CentralizedOracle`].
pub fn run_event_sim(cfg: &EventSimConfig, seed: u64) -> EventRun {
    let mut placement: DetRng = substream(seed, 0, domains::PLACEMENT);
    let mut task_rng: DetRng = substream(seed, 0, domains::TASKS);
    let net = Network::bootstrap(cfg.proto.net, cfg.proto.nodes, &mut placement);
    let node_ids = net.node_ids();
    let task_keys: Vec<Id> = (0..cfg.proto.tasks)
        .map(|_| Id::random(&mut task_rng))
        .collect();
    run_event_inner(cfg, seed, net, node_ids, task_keys)
}

/// [`run_event_sim`] with explicit node placement and task keys — the
/// hook the tick-vs-event differential tests use to hand both
/// substrates bit-identical starting conditions.
pub fn run_event_sim_with_placement(
    cfg: &EventSimConfig,
    seed: u64,
    node_ids: Vec<Id>,
    task_keys: Vec<Id>,
) -> EventRun {
    // autobal-lint: allow(panic-safety, "caller contract: placement ids are distinct, mirroring run_protocol_sim_with_placement")
    let net = Network::from_ids(cfg.proto.net, &node_ids).expect("distinct node ids");
    run_event_inner(cfg, seed, net, node_ids, task_keys)
}

fn run_event_inner(
    cfg: &EventSimConfig,
    seed: u64,
    mut net: Network,
    node_ids: Vec<Id>,
    task_keys: Vec<Id>,
) -> EventRun {
    assert!(
        cfg.proto.strategy != StrategyKind::CentralizedOracle,
        "the centralized oracle needs the omniscient oracle-ring substrate"
    );
    for key in task_keys {
        net.insert_key(key);
    }
    net.maintenance_cycle();
    // The synchronous network is the good-weather state machine here;
    // adversity lives on the wire (and the substrate crash plane), so
    // `net`'s own fault plan stays inert.
    let mut wire = EventNet::from_ids(cfg.event, &node_ids);
    let mut wire_plan = cfg.proto.fault.clone();
    // Crash events stay on the substrate-level schedule (same victim
    // stream as the protocol run); the wire handles loss, delay,
    // duplication, and partitions — in event-time units.
    wire_plan.crashes = Vec::new();
    wire.set_fault_plan(wire_plan);

    let ideal = (cfg.proto.tasks as f64 / cfg.proto.nodes as f64).ceil() as u64;
    let mut crash_schedule: Vec<(u64, u32)> = cfg
        .proto
        .fault
        .crashes
        .iter()
        .map(|c| (c.at, c.count))
        .collect();
    if crash_schedule.is_empty() && cfg.proto.crash_rate > 0.0 {
        let total = (cfg.proto.crash_rate * cfg.proto.nodes as f64).ceil() as u32;
        for i in 0..total as u64 {
            let at = ((i + 1) * ideal.max(1)) / (total as u64 + 1);
            crash_schedule.push((at.max(1), 1));
        }
    }
    crash_schedule.sort_unstable();

    let mut workers: Vec<EWorker> = node_ids
        .iter()
        .map(|&id| EWorker {
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
    let mut waiting = VecDeque::new();
    if cfg.proto.churn_rate > 0.0 {
        for _ in 0..cfg.proto.nodes {
            waiting.push_back(workers.len());
            workers.push(EWorker {
                primary: Id::ZERO,
                sybils: Vec::new(),
                active: false,
            });
        }
    }

    let mut stack = StrategyStack::new();
    if cfg.proto.churn_rate > 0.0 {
        stack.push(Box::new(BackgroundChurn {
            leave_p: cfg.proto.churn_rate,
            join_p: cfg.proto.churn_rate,
        }));
    }
    if let Some(s) = strategy_for(cfg.proto.strategy) {
        // Cross-checking is a transparent decorator: with the default
        // (disabled) config this returns `s` untouched.
        stack.push(wrap_if_enabled(s, &cfg.proto.cross_check));
    }

    let degenerate = cfg.event.latency == 0 && !cfg.proto.fault.is_active();
    let tick_len = cfg.tick_len.max(1);
    let slots = workers.len();
    let mut sub = EventSubstrate {
        net,
        wire,
        active_count: cfg.proto.nodes,
        workers,
        waiting,
        owner_of,
        params: StrategyParams {
            sybil_threshold: cfg.proto.sybil_threshold,
            overload_threshold: (cfg.proto.overload_factor * cfg.proto.tasks as f64
                / cfg.proto.nodes.max(1) as f64)
                .ceil() as u64,
            num_neighbors: cfg.proto.net.successor_list_len,
            chosen_ids: false,
            strength_aware_invitation: false,
        },
        max_sybils: cfg.proto.max_sybils,
        tick: 0,
        probe_timeout: cfg.probe_timeout.max(1),
        degenerate,
        deferred: VecDeque::new(),
        crash_schedule: crash_schedule.into_iter().collect(),
        rng_strategy: substream(seed, 0, domains::STRATEGY),
        rng_churn: substream(seed, 0, domains::CHURN),
        rng_faults: substream(seed, 0, domains::FAULTS),
        sybils_created: 0,
        sybils_retired: 0,
        tasks_lost: 0,
        workers_crashed: 0,
        crash_retirement: cfg.proto.crash_retirement,
        adversary: AdversaryState::new(cfg.proto.adversary.clone(), cfg.proto.nodes),
        tasks_done: vec![0; slots],
        lookup_latencies: Vec::new(),
        lookup_timeouts: 0,
        events: EventLog::new(cfg.proto.record_events),
        trace: {
            let mut trace = Trace::new(cfg.proto.record_trace);
            trace.run_start(0, "event", cfg.proto.strategy.label(), seed);
            trace
        },
        hub: MetricsHub::new(cfg.proto.record_metrics).with_ring(cfg.proto.metrics_ring),
        metrics_every: cfg
            .proto
            .record_metrics
            .then(|| cfg.proto.metrics_interval.unwrap_or(1).max(1)),
        quarantined_marks: vec![0; slots],
    };
    if sub.metrics_every.is_some() {
        sub.sample_metrics();
    }

    // First tick boundary after one tick's worth of event time; the
    // staggered stabilize timers armed by `from_ids` already populate
    // the queue, so the wire is never idle.
    sub.wire.schedule_app_timer(tick_len, token(TAG_TICK, 0));

    let mut done = false;
    while !done {
        // Deferred timers — check sweeps and tick boundaries that fired
        // while an action was blocked — replay first, in the order the
        // queue originally surfaced them.
        let ev = match sub.deferred.pop_front() {
            Some(tok) => AppEvent::Timer { token: tok },
            None => match sub.wire.run_until_app(u64::MAX) {
                Some(ev) => ev,
                None => break,
            },
        };
        match ev {
            AppEvent::Timer { token: tok } => match tok >> TAG_SHIFT {
                TAG_TICK => {
                    if sub.net.total_keys() == 0 || sub.tick >= cfg.proto.max_ticks {
                        done = true;
                        continue;
                    }
                    sub.tick += 1;
                    let tick = sub.tick;
                    sub.net.set_clock(tick);
                    sub.hub.inc(metric_names::TICKS);
                    // Substrate crash plane lands before anything else.
                    while sub
                        .crash_schedule
                        .front()
                        .map(|&(at, _)| at <= tick)
                        .unwrap_or(false)
                    {
                        if let Some((_, count)) = sub.crash_schedule.pop_front() {
                            sub.apply_crashes(count);
                        }
                    }
                    stack.on_tick(&mut sub);
                    let checking =
                        tick.is_multiple_of(cfg.proto.check_interval) && stack.has_per_node();
                    if checking {
                        // Schedule one CHECK per active worker plus the
                        // closing POSTCHECK, all "now": same-timestamp
                        // FIFO ordering makes the sweep run in the
                        // synchronous decision order, but any event
                        // already on the wire interleaves with it.
                        let now = sub.wire.now();
                        let mut next = sub.next_in_order(0);
                        while let Some(w) = next {
                            sub.wire.schedule_app_timer(now, token(TAG_CHECK, w as u64));
                            next = sub.next_in_order(w + 1);
                        }
                        sub.wire.schedule_app_timer(now, token(TAG_POSTCHECK, 0));
                    } else {
                        sub.work_phase();
                        sub.net.maintenance_cycle();
                        sub.maybe_sample_metrics();
                    }
                    sub.drain_lookups();
                    let next = sub.wire.now() + tick_len;
                    sub.wire.schedule_app_timer(next, token(TAG_TICK, 0));
                }
                TAG_CHECK => {
                    let w = (tok & ((1 << TAG_SHIFT) - 1)) as usize;
                    let live = sub.workers.get(w).map(|p| p.active).unwrap_or(false);
                    if live {
                        stack.check_one(&mut sub, w);
                    }
                }
                TAG_POSTCHECK => {
                    sub.work_phase();
                    sub.net.maintenance_cycle();
                    sub.maybe_sample_metrics();
                }
                // Stale probe deadline: its probe already resolved.
                _ => {}
            },
            AppEvent::Msg { at, from, req, msg } => sub.serve_if_request(at, from, req, msg),
            AppEvent::LookupDone(_) => {}
        }
    }
    sub.drain_lookups();

    let completed = sub.net.total_keys() == 0;
    sub.trace.run_end(sub.tick, completed);

    EventRun {
        ticks: sub.tick,
        ideal_ticks: ideal.max(1),
        runtime_factor: sub.tick as f64 / ideal.max(1) as f64,
        completed,
        time: sub.wire.now(),
        messages: sub.net.stats.clone(),
        wire: sub.wire.stats.clone(),
        wire_events: sub.wire.wire_events,
        sybils_created: sub.sybils_created,
        sybils_retired: sub.sybils_retired,
        tasks_lost: sub.tasks_lost,
        workers_crashed: sub.workers_crashed,
        tasks_remaining: sub.net.total_keys() as u64,
        tasks_done: sub.tasks_done,
        lookup_latencies: sub.lookup_latencies,
        lookup_timeouts: sub.lookup_timeouts,
        events: sub.events,
        trace: sub.trace,
        metrics: sub.hub.into_samples(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol_sim::run_protocol_sim;
    use autobal_chord::FaultPlan;

    fn small(strategy: StrategyKind) -> EventSimConfig {
        EventSimConfig {
            proto: ProtocolSimConfig {
                nodes: 32,
                tasks: 1_600,
                strategy,
                ..ProtocolSimConfig::default()
            },
            ..EventSimConfig::default()
        }
    }

    fn degenerate(strategy: StrategyKind) -> EventSimConfig {
        EventSimConfig {
            event: EventConfig {
                latency: 0,
                ..EventConfig::default()
            },
            ..small(strategy)
        }
    }

    #[test]
    fn event_baseline_completes_under_real_latency() {
        let res = run_event_sim(&small(StrategyKind::None), 1);
        assert!(res.completed);
        assert_eq!(res.tasks_remaining, 0);
        assert!(res.time >= res.ticks * 100, "event time covers every tick");
        assert!(res.wire.stabilize > 0, "stabilization actually ran");
        assert!(res.wire_events > 0);
        assert_eq!(res.tasks_done.iter().sum::<u64>(), 1_600);
    }

    #[test]
    fn degenerate_config_reproduces_protocol_decisions() {
        // The tentpole pin: zero latency + inert faults must replay the
        // synchronous substrate's decision stream bit-for-bit, for
        // every decentralized strategy.
        for kind in [
            StrategyKind::None,
            StrategyKind::RandomInjection,
            StrategyKind::NeighborInjection,
            StrategyKind::SmartNeighbor,
            StrategyKind::Invitation,
        ] {
            let cfg = degenerate(kind);
            let mut pcfg = cfg.proto.clone();
            pcfg.record_events = true;
            let ecfg = EventSimConfig {
                proto: pcfg.clone(),
                ..cfg
            };
            let proto = run_protocol_sim(&pcfg, 2);
            let event = run_event_sim(&ecfg, 2);
            assert_eq!(proto.ticks, event.ticks, "{kind:?}: tick counts differ");
            assert_eq!(
                proto.events.events(),
                event.events.events(),
                "{kind:?}: decision streams differ"
            );
            assert_eq!(proto.sybils_created, event.sybils_created, "{kind:?}");
            assert_eq!(proto.sybils_retired, event.sybils_retired, "{kind:?}");
        }
    }

    #[test]
    fn degenerate_parity_survives_churn_and_crashes() {
        for (churn, crash) in [(0.005, 0.0), (0.0, 0.05), (0.005, 0.05)] {
            let mut cfg = degenerate(StrategyKind::RandomInjection);
            cfg.proto.churn_rate = churn;
            cfg.proto.crash_rate = crash;
            cfg.proto.record_events = true;
            let proto = run_protocol_sim(&cfg.proto, 3);
            let event = run_event_sim(&cfg, 3);
            assert_eq!(
                proto.events.events(),
                event.events.events(),
                "churn={churn} crash={crash}: decision streams differ"
            );
            assert_eq!(proto.ticks, event.ticks);
            assert_eq!(proto.workers_crashed, event.workers_crashed);
        }
    }

    #[test]
    fn strategy_traffic_is_billed_to_the_wire() {
        let smart = run_event_sim(&small(StrategyKind::SmartNeighbor), 4);
        assert!(smart.completed);
        assert!(smart.sybils_created > 0);
        assert!(smart.wire.load_query > 0, "probes must ride the real queue");
        assert_eq!(
            smart.wire.strategy_overhead(),
            smart.wire.load_query + smart.wire.invitation
        );
        // The synchronous plane never bills strategy messages here.
        assert_eq!(smart.messages.load_query, 0);
        assert_eq!(smart.messages.invitation, 0);
    }

    #[test]
    fn invitation_round_trips_on_the_wire() {
        let inv = run_event_sim(
            &EventSimConfig {
                proto: ProtocolSimConfig {
                    overload_factor: 1.0,
                    record_events: true,
                    ..small(StrategyKind::Invitation).proto
                },
                ..small(StrategyKind::Invitation)
            },
            5,
        );
        assert!(inv.completed);
        assert!(inv.wire.invitation > 0, "announcements were sent");
        assert!(inv.sybils_created > 0, "helpers actually joined");
        let sent = inv
            .events
            .events()
            .iter()
            .filter(|e| matches!(e, SimEvent::InvitationSent { .. }))
            .count() as u64;
        let honored = inv
            .events
            .events()
            .iter()
            .filter(|e| matches!(e, SimEvent::InvitationHonored { .. }))
            .count() as u64;
        let refused = inv
            .events
            .events()
            .iter()
            .filter(|e| matches!(e, SimEvent::InvitationRefused { .. }))
            .count() as u64;
        assert!(honored > 0);
        assert_eq!(sent, honored + refused);
    }

    #[test]
    fn latency_stretches_ticks_for_probing_strategies() {
        // Smart neighbor pays per-probe round trips: at high latency
        // the same tick count must span strictly more event time than
        // the baseline's maintenance-only wire.
        let slow = EventSimConfig {
            event: EventConfig {
                latency: 50,
                ..EventConfig::default()
            },
            ..small(StrategyKind::SmartNeighbor)
        };
        let res = run_event_sim(&slow, 6);
        assert!(res.completed);
        assert!(
            res.time > res.ticks * res.tasks_done.len() as u64 / 8,
            "checks must consume event time"
        );
        assert!(res.wire.load_query > 0);
    }

    #[test]
    fn lossy_wire_degrades_gracefully() {
        for kind in [StrategyKind::RandomInjection, StrategyKind::SmartNeighbor] {
            let clean = run_event_sim(&small(kind), 7);
            let lossy = run_event_sim(
                &EventSimConfig {
                    proto: ProtocolSimConfig {
                        fault: FaultPlan::lossy(7, 0.10),
                        ..small(kind).proto
                    },
                    ..small(kind)
                },
                7,
            );
            assert!(lossy.completed, "{kind:?} must finish at 10% wire loss");
            assert!(lossy.wire.dropped > 0, "{kind:?}: the wire actually lost");
            assert!(
                lossy.runtime_factor <= clean.runtime_factor * 2.5,
                "{kind:?}: lossy {} vs clean {}",
                lossy.runtime_factor,
                clean.runtime_factor
            );
        }
    }

    #[test]
    fn churn_composes_on_event_time() {
        let res = run_event_sim(
            &EventSimConfig {
                proto: ProtocolSimConfig {
                    churn_rate: 0.005,
                    record_events: true,
                    ..small(StrategyKind::RandomInjection).proto
                },
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
        assert!(joined > 0, "churn rejoins happened (wire joins resolved)");
        assert!(res.sybils_created > 0);
    }

    #[test]
    fn oracle_strategy_is_rejected() {
        let r =
            std::panic::catch_unwind(|| run_event_sim(&small(StrategyKind::CentralizedOracle), 1));
        assert!(r.is_err());
    }

    #[test]
    fn event_runs_are_deterministic() {
        let cfg = EventSimConfig {
            proto: ProtocolSimConfig {
                record_trace: true,
                fault: FaultPlan::lossy(9, 0.05),
                ..small(StrategyKind::SmartNeighbor).proto
            },
            ..small(StrategyKind::SmartNeighbor)
        };
        let a = run_event_sim(&cfg, 9);
        let b = run_event_sim(&cfg, 9);
        assert_eq!(a.ticks, b.ticks);
        assert_eq!(a.time, b.time);
        assert_eq!(a.wire, b.wire);
        assert_eq!(a.tasks_done, b.tasks_done);
        assert_eq!(
            autobal_telemetry::to_jsonl(a.trace.records()),
            autobal_telemetry::to_jsonl(b.trace.records())
        );
    }

    #[test]
    fn crash_failures_conserve_replicated_keys_on_event_time() {
        let res = run_event_sim(
            &EventSimConfig {
                proto: ProtocolSimConfig {
                    crash_rate: 0.05,
                    ..small(StrategyKind::RandomInjection).proto
                },
                ..small(StrategyKind::RandomInjection)
            },
            10,
        );
        assert!(res.completed, "run must finish despite crashes");
        assert!(res.workers_crashed > 0);
        assert_eq!(res.tasks_lost, 0, "replication covers every victim");
        assert_eq!(res.messages.keys_lost, 0);
    }

    #[test]
    fn lookup_latency_tail_is_recorded() {
        let res = run_event_sim(&small(StrategyKind::RandomInjection), 11);
        assert!(
            !res.lookup_latencies.is_empty(),
            "finger refreshes and joins complete on the wire"
        );
        assert!(res.lookup_latencies.iter().all(|&l| l > 0));
    }

    #[test]
    fn byzantine_lies_are_billed_to_the_wire() {
        use autobal_chord::{AdversaryPlan, LiePolicy};
        // Lies are applied when the reply is served, ride the real
        // LoadReply back, and are mirrored one-for-one by LoadLied
        // events on a lossless wire.
        let res = run_event_sim(
            &EventSimConfig {
                proto: ProtocolSimConfig {
                    record_events: true,
                    adversary: AdversaryPlan::lying(7, 0.25, LiePolicy::OverReport),
                    ..small(StrategyKind::SmartNeighbor).proto
                },
                ..small(StrategyKind::SmartNeighbor)
            },
            12,
        );
        assert!(res.completed);
        assert!(res.wire.lied > 0, "some probe was answered by a liar");
        let lied_events = res
            .events
            .events()
            .iter()
            .filter(|e| matches!(e, SimEvent::LoadLied { .. }))
            .count() as u64;
        assert_eq!(lied_events, res.wire.lied);
        // Lies distort replies that were sent anyway: the meta-counter
        // stays out of the wire total.
        assert!(res.wire.total() >= res.wire.load_query);
    }

    #[test]
    fn degenerate_parity_holds_under_active_adversary_and_cross_check() {
        use autobal_chord::{AdversaryPlan, LiePolicy};
        use autobal_core::strategy::crosscheck::CrossCheckConfig;
        // The tentpole pin, hostile edition: with 25% liars AND the
        // cross-checking defense on, zero latency must still replay the
        // synchronous substrate bit-for-bit — lies are a pure function
        // of (worker, true load, tick) and relays are picked
        // deterministically, so nothing depends on wall-clock order.
        for kind in [StrategyKind::SmartNeighbor, StrategyKind::Invitation] {
            let mut cfg = degenerate(kind);
            cfg.proto.record_events = true;
            cfg.proto.adversary = AdversaryPlan::lying(7, 0.25, LiePolicy::OverReport);
            cfg.proto.cross_check = CrossCheckConfig::with_budget(2);
            let proto = run_protocol_sim(&cfg.proto, 13);
            let event = run_event_sim(&cfg, 13);
            assert_eq!(proto.ticks, event.ticks, "{kind:?}: tick counts differ");
            assert_eq!(
                proto.events.events(),
                event.events.events(),
                "{kind:?}: decision streams differ under adversary"
            );
            // Satellite pin: probes and lied replies bill the tick shim
            // and the event wire identically.
            assert_eq!(
                proto.messages.load_query, event.wire.load_query,
                "{kind:?}: probe bills diverge"
            );
            assert_eq!(
                proto.messages.lied, event.wire.lied,
                "{kind:?}: lie meta-counters diverge"
            );
            if kind == StrategyKind::SmartNeighbor {
                // Invitation steers by announcements, not load probes,
                // so only the probing strategy actually meets the liars.
                assert!(proto.messages.lied > 0, "the adversary was live");
            }
        }
    }
}
