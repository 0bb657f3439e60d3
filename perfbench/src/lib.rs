//! Benchmark of the autobal simulators.
//!
//! Four batch workloads (see [`workloads`]) run to completion through the
//! public entry points. The untraced binary reports the end-to-end
//! metrics; the traced binary (which installs the counting allocator)
//! times every `Sim::step` from outside, bins check ticks apart from
//! plain ticks, and reports the per-layer metrics. Both print one JSON
//! result as the last line of standard output. See `README.md`.

mod checks;
mod spans;
mod workloads;

use autobal::event_sim::{run_event_sim, EventRun, EventSimConfig};
use autobal::protocol_sim::run_protocol_sim;
use autobal::reference::NaiveSim;
use autobal_chord::{EventConfig, EventNet, MessageStats, Network};
use autobal_core::{Sim, SimConfig, SimMessageStats, StrategyKind};
use autobal_id::Id;
use autobal_stats::rng::{domains, substream};
use checks::DigestGate;
use rand::Rng;
use spans::Spans;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use workloads::{job_seed, Kind, Workload};

use workloads::NAMES;

/// The seed whose outcome digests are recorded in `digests.txt`.
const DEFAULT_SEED: u64 = 1;

/// Most passes over a workload's job family in one untraced run.
const MAX_CYCLES: u64 = 50;

/// End-to-end metrics, printed by the untraced binary.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by the traced binary. A metric that does
/// not apply to a workload (tick bins on the event substrate, wire
/// counts on the oracle ring) reads 0.
const PER_LAYER: [(&str, &str); 38] = [
    ("setup.gen_s", "s"),
    ("setup.build_s", "s"),
    ("alloc.setup", "count"),
    ("tick.plain_s", "s"),
    ("tick.plain_n", "count"),
    ("tick.plain_p50_ms", "ms"),
    ("tick.plain_p90_ms", "ms"),
    ("work.ns_per_task", "ns"),
    ("alloc.plain_ticks", "count"),
    ("ring.peak_vnodes", "count"),
    ("churn.leaves", "count"),
    ("churn.joins", "count"),
    ("tick.check_s", "s"),
    ("tick.check_n", "count"),
    ("tick.check_p50_ms", "ms"),
    ("tick.check_p90_ms", "ms"),
    ("check.extra_s", "s"),
    ("alloc.check_ticks", "count"),
    ("strategy.sybils_created", "count"),
    ("strategy.sybils_retired", "count"),
    ("strategy.load_queries", "count"),
    ("strategy.invitations_sent", "count"),
    ("strategy.retire_ratio", "ratio"),
    ("strategy.queries_per_sybil", "ratio"),
    ("event.wire_events", "count"),
    ("event.events_per_s", "1/s"),
    ("event.wire_msgs", "count"),
    ("event.strategy_msgs", "count"),
    ("event.lookups", "count"),
    ("event.lookup_timeouts", "count"),
    ("event.timeout_ratio", "ratio"),
    ("event.lookup_p50_t", "event_t"),
    ("event.lookup_p99_t", "event_t"),
    ("alloc.event_run", "count"),
    ("protocol.run_s", "s"),
    ("wire.extra_s", "s"),
    ("eventnet.events_per_s", "1/s"),
    ("trace.overhead", "ratio"),
];

/// Reads the process-wide allocation count (the traced binary passes
/// `autobal_meminstr::total_allocations`).
pub type AllocCounter = fn() -> u64;

/// Command-line options shared by both binaries.
struct Options {
    workload: String,
    seed: u64,
    seconds: f64,
    /// Run every workload at a tiny size (the smoke self-test).
    smoke: bool,
    /// Flip a bit of job 0's first digest, to prove a wrong outcome is
    /// counted as a failed run.
    corrupt_digest: bool,
    /// Source revision, recorded in the result metadata.
    commit: String,
}

impl Options {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
        let mut o = Options {
            workload: String::new(),
            seed: DEFAULT_SEED,
            seconds: 20.0,
            smoke: false,
            corrupt_digest: false,
            commit: "unknown".to_string(),
        };
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => o.workload = value()?,
                "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
                }
                "--commit" => o.commit = value()?,
                "--smoke" => o.smoke = true,
                "--corrupt-digest" => o.corrupt_digest = true,
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        if !(o.seconds.is_finite() && o.seconds > 0.0) {
            return Err("--seconds must be positive".to_string());
        }
        Ok(o)
    }
}

/// Runs and failures; a run with any failed check counts as failed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record(&mut self, problems: &[String]) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            // The first few failed runs say why; the count says the rest.
            if self.failed <= 3 {
                for p in problems {
                    eprintln!("check failed: {p}");
                }
            }
        }
    }
}

/// Named metric values, printed in the order of a metric table.
struct Metrics {
    table: &'static [(&'static str, &'static str)],
    values: Vec<f64>,
}

impl Metrics {
    fn new(table: &'static [(&'static str, &'static str)]) -> Metrics {
        Metrics {
            table,
            values: vec![0.0; table.len()],
        }
    }

    fn set(&mut self, name: &str, value: f64) {
        let i = self.table.iter().position(|(n, _)| *n == name);
        let i = i.unwrap_or_else(|| panic!("{name} is not in the metric table"));
        self.values[i] = value;
    }

    fn json(&self) -> String {
        let fields: Vec<String> = self
            .table
            .iter()
            .zip(&self.values)
            .map(|((name, unit), v)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// Runs one workload and prints its result. `allocs` is present only in
/// the traced binary, and selects the traced run.
pub fn main(allocs: Option<AllocCounter>) -> i32 {
    let opts = match Options::parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let Some(workload) = Workload::named(&opts.workload, opts.smoke) else {
        eprintln!(
            "error: --workload must be one of {}, not {:?}",
            NAMES.join(", "),
            opts.workload
        );
        return 2;
    };
    let key = if opts.smoke {
        format!("smoke/{}", opts.workload)
    } else {
        opts.workload.clone()
    };
    let mut gate = DigestGate::new(
        key,
        workload.jobs,
        opts.seed == DEFAULT_SEED,
        opts.corrupt_digest,
    );
    let mut tally = Tally::default();
    let mut spans = Spans::new();
    let metrics = match allocs {
        None => untraced(&workload, &opts, &mut gate, &mut tally),
        Some(allocs) => traced(&workload, &opts, allocs, &mut spans, &mut gate, &mut tally),
    };
    let meta = format!(
        "{{\"workload\": \"{}\", \"mode\": \"{}\", \"smoke\": {}, \"seed\": {}, \"strategy\": \"{}\", \
         \"host_cpus\": {}, \"threads\": {}, \"engine_shards\": {}, \"commit\": \"{}\", \"profile\": \"{}\", \
         \"jobs\": {}, \"runs_attempted\": {}, \"runs_failed\": {}, \"digests\": [{}]}}",
        opts.workload,
        if allocs.is_some() { "traced" } else { "untraced" },
        opts.smoke,
        opts.seed,
        workload.strategy().label(),
        std::thread::available_parallelism().map_or(0, |p| p.get()),
        rayon::current_num_threads(),
        SimConfig::default().resolved_shards(),
        opts.commit,
        if cfg!(debug_assertions) { "debug" } else { "release" },
        workload.jobs,
        tally.attempted,
        tally.failed,
        gate.lines()
            .iter()
            .map(|l| format!("\"{l}\""))
            .collect::<Vec<_>>()
            .join(", "),
    );
    if allocs.is_some() {
        let suffix = if opts.smoke { "-smoke" } else { "" };
        let path = std::path::PathBuf::from(".bench_out").join(format!(
            "{}{suffix}-seed{}.spans.jsonl",
            opts.workload, opts.seed
        ));
        if let Err(e) = spans.write(&path, &format!("{{\"meta\": {meta}}}")) {
            tally.record(&[format!("writing {}: {e}", path.display())]);
        }
    }
    println!("{{\"meta\": {meta}}}");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted.max(1),
        tally.failed,
        metrics.json()
    );
    0
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Mean of `xs` without its lowest and highest tenth. Per-job times
/// are skewed (a few long jobs), so the median over a job family jumps
/// between clusters from seed to seed; the trimmed mean is steadier and
/// still ignores a job stalled by the host.
fn trimmed_mean(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let k = v.len() / 10;
    let kept = &v[k..v.len() - k];
    if kept.is_empty() {
        return 0.0;
    }
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Nearest-rank percentile `p` (0..=1) of `xs`.
fn percentile(xs: &[u64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_unstable();
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1] as f64
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Peak resident memory of this process, in MB (VmHWM).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The event substrate's set-up as `run_event_sim` performs it before
/// its first tick: task keys, the bootstrapped Chord network with keys
/// placed and one maintenance cycle, and the wire over the same ids.
/// Returns the key-generation and build times.
fn event_setup(cfg: &EventSimConfig, seed: u64) -> (Duration, Duration) {
    let t0 = Instant::now();
    let mut task_rng = substream(seed, 0, domains::TASKS);
    let keys: Vec<Id> = (0..cfg.proto.tasks)
        .map(|_| Id::random(&mut task_rng))
        .collect();
    let t1 = Instant::now();
    let mut placement = substream(seed, 0, domains::PLACEMENT);
    let mut net = Network::bootstrap(cfg.proto.net, cfg.proto.nodes, &mut placement);
    for key in keys {
        net.insert_key(key);
    }
    net.maintenance_cycle();
    let wire = EventNet::from_ids(cfg.event, &net.node_ids());
    black_box((net, wire));
    (t1 - t0, t1.elapsed())
}

/// The untraced run: passes over the job family until the budget is
/// spent (at least one), every job checked.
fn untraced(w: &Workload, opts: &Options, gate: &mut DigestGate, tally: &mut Tally) -> Metrics {
    let budget = Duration::from_secs_f64(opts.seconds);
    let start = Instant::now();
    let (mut setup, mut run, mut wall) = (Vec::new(), Vec::new(), Vec::new());
    for cycle in 1..=MAX_CYCLES {
        for job in 0..w.jobs {
            let seed = job_seed(opts.seed, job);
            let mut ticks = 0;
            let problems = match &w.kind {
                Kind::Oracle(cfg) => {
                    let job_cfg = cfg.clone();
                    let rep = catch_unwind(AssertUnwindSafe(|| {
                        let t0 = Instant::now();
                        let sim = Sim::new(job_cfg, seed);
                        let t1 = Instant::now();
                        let result = sim.run();
                        (t1 - t0, t1.elapsed(), result)
                    }));
                    match rep {
                        Ok((s, r, result)) => {
                            setup.push(secs(s));
                            run.push(secs(r));
                            wall.push(secs(s + r));
                            ticks = result.ticks;
                            let mut p = checks::oracle_output(cfg, &result);
                            p.extend(gate.check(job, checks::oracle_digest(&result)));
                            p
                        }
                        Err(_) => vec!["the run panicked".to_string()],
                    }
                }
                Kind::Event(cfg) => {
                    let rep = catch_unwind(AssertUnwindSafe(|| {
                        let (g, b) = event_setup(cfg, seed);
                        let t0 = Instant::now();
                        let result = run_event_sim(cfg, seed);
                        (g + b, t0.elapsed(), result)
                    }));
                    match rep {
                        Ok((s, r, result)) => {
                            setup.push(secs(s));
                            run.push(secs(r));
                            // The call includes its own set-up.
                            wall.push(secs(r));
                            ticks = result.ticks;
                            let mut p = checks::event_output(cfg.proto.tasks, &result);
                            p.extend(gate.check(job, checks::event_digest(&result)));
                            p
                        }
                        Err(_) => vec!["the run panicked".to_string()],
                    }
                }
            };
            tally.record(&problems);
            eprintln!(
                "job {job}: {ticks} ticks, setup {:.4} s, run {:.4} s",
                setup.last().copied().unwrap_or(0.0),
                run.last().copied().unwrap_or(0.0)
            );
        }
        let elapsed = start.elapsed();
        if elapsed + elapsed / cycle as u32 > budget {
            break;
        }
    }
    let mut m = Metrics::new(&END_TO_END);
    m.set("setup_s", trimmed_mean(&setup));
    m.set("run_s", trimmed_mean(&run));
    m.set("wall_s", trimmed_mean(&wall));
    match peak_rss_mb() {
        Ok(mb) => m.set("peak_rss_mb", mb),
        Err(e) => tally.record(&[format!("peak RSS: {e}")]),
    }
    m
}

/// Tick durations, tasks and allocations of one bin of ticks.
#[derive(Default)]
struct Bin {
    ns: Vec<u64>,
    tasks: u64,
    allocs: u64,
}

impl Bin {
    fn secs(&self) -> f64 {
        self.ns.iter().sum::<u64>() as f64 / 1e9
    }

    fn n(&self) -> f64 {
        self.ns.len() as f64
    }
}

/// The traced run: every job of the family once, each layer call
/// wrapped in a span; counts are summed over the jobs.
fn traced(
    w: &Workload,
    opts: &Options,
    allocs: AllocCounter,
    spans: &mut Spans,
    gate: &mut DigestGate,
    tally: &mut Tally,
) -> Metrics {
    let mut m = Metrics::new(&PER_LAYER);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut t = Traced {
            jobs: w.jobs,
            seed: opts.seed,
            allocs,
            spans: &mut *spans,
            gate: &mut *gate,
            tally: &mut *tally,
            m: &mut m,
        };
        match &w.kind {
            Kind::Oracle(cfg) => t.oracle(cfg),
            Kind::Event(cfg) => t.event(cfg),
        }
    }));
    if outcome.is_err() {
        tally.record(&["the traced run panicked".to_string()]);
    }
    m
}

struct Traced<'a> {
    jobs: u64,
    seed: u64,
    allocs: AllocCounter,
    spans: &'a mut Spans,
    gate: &'a mut DigestGate,
    tally: &'a mut Tally,
    m: &'a mut Metrics,
}

impl Traced<'_> {
    fn oracle(&mut self, cfg: &SimConfig) {
        let allocs = self.allocs;
        let root = self.spans.open("traced", None);
        let mut bins = [Bin::default(), Bin::default()];
        let (mut gen_s, mut build_s, mut setup_allocs) = (0.0, 0.0, 0);
        let mut msgs = SimMessageStats::default();
        let mut peak_vnodes = 0;
        for job in 0..self.jobs {
            let seed = job_seed(self.seed, job);
            let spans = &mut *self.spans;
            let parent = spans.open("job", Some(root));
            let a0 = allocs();
            // Inputs on the substreams `Sim::new` uses: the identical
            // placement.
            let gen = spans.open("setup.gen", Some(parent));
            let mut placement = substream(seed, 0, domains::PLACEMENT);
            let node_ids = autobal_workload::gen::random_ids(cfg.nodes, &mut placement);
            let mut task_rng = substream(seed, 0, domains::TASKS);
            let task_keys: Vec<Id> = (0..cfg.tasks).map(|_| Id::random(&mut task_rng)).collect();
            spans.close(gen);
            let build = spans.open("setup.build", Some(parent));
            let mut sim = Sim::with_placement(cfg.clone(), seed, node_ids, task_keys);
            spans.close(build);
            setup_allocs += allocs() - a0;
            gen_s += spans.secs(gen);
            build_s += spans.secs(build);

            // The loop `Sim::run` makes, with each step timed and binned
            // by whether it was a strategy check tick.
            let run = spans.open("run.traced", Some(parent));
            let cap = cfg.effective_max_ticks();
            let mut job_tasks = 0;
            while sim.remaining_tasks() > 0 && sim.tick() < cap {
                let a = allocs();
                let t0 = spans.now();
                let done = sim.step();
                let t1 = spans.now();
                let a = allocs() - a;
                let check = sim.tick().is_multiple_of(cfg.check_interval);
                let name = if check { "tick.check" } else { "tick.plain" };
                spans.push(name, t0, t1, Some(run));
                let bin = &mut bins[check as usize];
                bin.ns.push(t1 - t0);
                bin.tasks += done;
                bin.allocs += a;
                job_tasks += done;
            }
            let result = sim.run();
            spans.close(run);

            let mut problems = checks::oracle_output(cfg, &result);
            if job_tasks != cfg.tasks {
                problems.push(format!("steps consumed {job_tasks} tasks of {}", cfg.tasks));
            }
            problems.extend(self.gate.check(job, checks::oracle_digest(&result)));
            if job == 0 {
                // The untraced `Sim::run` on the same seed: its digest
                // must match, and its time is the base of
                // `trace.overhead`.
                let setup = spans.open("setup.untraced", Some(parent));
                let reference = Sim::new(cfg.clone(), seed);
                spans.close(setup);
                let plain_run = spans.open("run.untraced", Some(parent));
                let reference = reference.run();
                spans.close(plain_run);
                problems.extend(checks::oracle_output(cfg, &reference));
                problems.extend(self.gate.check(job, checks::oracle_digest(&reference)));
                self.m.set(
                    "trace.overhead",
                    spans.secs(run) / spans.secs(plain_run) - 1.0,
                );
                // On the Sybil-free drain the engine must also match the
                // naive reference engine, outside every timed span.
                if cfg.strategy == StrategyKind::None {
                    let naive = NaiveSim::new(cfg.clone(), seed).run();
                    problems.extend(checks::naive_agrees(&result, &naive));
                }
            }
            spans.close(parent);
            msgs.merge(&result.messages);
            peak_vnodes = peak_vnodes.max(result.peak_vnodes);
            self.tally.record(&problems);
        }
        self.spans.close(root);

        let m = &mut *self.m;
        m.set("setup.gen_s", gen_s);
        m.set("setup.build_s", build_s);
        m.set("alloc.setup", setup_allocs as f64);
        let [plain, check] = &bins;
        for (name, bin) in [("plain", plain), ("check", check)] {
            let key = |suffix: &str| format!("tick.{name}_{suffix}");
            m.set(&key("s"), bin.secs());
            m.set(&key("n"), bin.n());
            m.set(&key("p50_ms"), percentile(&bin.ns, 0.5) / 1e6);
            m.set(&key("p90_ms"), percentile(&bin.ns, 0.9) / 1e6);
        }
        m.set("alloc.plain_ticks", plain.allocs as f64);
        m.set("alloc.check_ticks", check.allocs as f64);
        m.set(
            "work.ns_per_task",
            ratio(plain.ns.iter().sum(), plain.tasks),
        );
        let mean_plain = if plain.ns.is_empty() {
            0.0
        } else {
            plain.secs() / plain.n()
        };
        m.set("check.extra_s", check.secs() - check.n() * mean_plain);
        m.set("ring.peak_vnodes", peak_vnodes as f64);
        m.set("churn.leaves", msgs.churn_leaves as f64);
        m.set("churn.joins", msgs.churn_joins as f64);
        set_strategy(
            m,
            msgs.sybils_created,
            msgs.sybils_retired,
            msgs.load_queries,
            msgs.invitations_sent,
        );
    }

    fn event(&mut self, cfg: &EventSimConfig) {
        let allocs = self.allocs;
        let tasks = cfg.proto.tasks;
        let root = self.spans.open("traced", None);
        let (mut gen_s, mut build_s, mut setup_allocs, mut event_allocs) = (0.0, 0.0, 0, 0);
        let (mut run_s, mut protocol_s) = (0.0, 0.0);
        let (mut created, mut retired, mut wire_events) = (0, 0, 0);
        let mut wire = MessageStats::default();
        let (mut latencies, mut timeouts) = (Vec::new(), 0);
        for job in 0..self.jobs {
            let seed = job_seed(self.seed, job);
            let spans = &mut *self.spans;
            let parent = spans.open("job", Some(root));
            let a0 = allocs();
            let (gen_d, build_d) = event_setup(cfg, seed);
            setup_allocs += allocs() - a0;
            gen_s += secs(gen_d);
            build_s += secs(build_d);

            let run = spans.open("event.run", Some(parent));
            let a0 = allocs();
            let result: EventRun = run_event_sim(cfg, seed);
            event_allocs += allocs() - a0;
            spans.close(run);
            let proto = spans.open("protocol.run", Some(parent));
            let protocol = run_protocol_sim(&cfg.proto, seed);
            spans.close(proto);
            run_s += spans.secs(run);
            protocol_s += spans.secs(proto);

            let mut problems = checks::event_output(tasks, &result);
            problems.extend(checks::protocol_output(tasks, &protocol));
            problems.extend(self.gate.check(job, checks::event_digest(&result)));
            if job == 0 {
                // A second, uncounted call: its digest must match, and
                // its time is the base of `trace.overhead`.
                let plain_run = spans.open("event.run.untraced", Some(parent));
                let reference = run_event_sim(cfg, seed);
                spans.close(plain_run);
                problems.extend(checks::event_output(tasks, &reference));
                problems.extend(self.gate.check(job, checks::event_digest(&reference)));
                self.m.set(
                    "trace.overhead",
                    spans.secs(run) / spans.secs(plain_run) - 1.0,
                );
            }
            spans.close(parent);
            created += result.sybils_created;
            retired += result.sybils_retired;
            wire_events += result.wire_events;
            wire.merge(&result.wire);
            latencies.extend_from_slice(&result.lookup_latencies);
            timeouts += result.lookup_timeouts;
            self.tally.record(&problems);
        }
        let probe = self.spans.open("eventnet.probe", Some(root));
        let probe_events = eventnet_probe(self.seed);
        self.spans.close(probe);
        self.spans.close(root);

        let m = &mut *self.m;
        m.set("setup.gen_s", gen_s);
        m.set("setup.build_s", build_s);
        m.set("alloc.setup", setup_allocs as f64);
        let lookups = latencies.len() as u64 + timeouts;
        m.set("event.wire_events", wire_events as f64);
        m.set("event.events_per_s", wire_events as f64 / run_s);
        m.set("event.wire_msgs", wire.total() as f64);
        m.set("event.strategy_msgs", wire.strategy_overhead() as f64);
        m.set("event.lookups", lookups as f64);
        m.set("event.lookup_timeouts", timeouts as f64);
        m.set("event.timeout_ratio", ratio(timeouts, lookups));
        m.set("event.lookup_p50_t", percentile(&latencies, 0.5));
        m.set("event.lookup_p99_t", percentile(&latencies, 0.99));
        m.set("alloc.event_run", event_allocs as f64);
        m.set("protocol.run_s", protocol_s);
        m.set("wire.extra_s", run_s - protocol_s);
        m.set(
            "eventnet.events_per_s",
            probe_events as f64 / self.spans.secs(probe),
        );
        set_strategy(m, created, retired, wire.load_query, wire.invitation);
    }
}

fn set_strategy(m: &mut Metrics, created: u64, retired: u64, queries: u64, invitations: u64) {
    m.set("strategy.sybils_created", created as f64);
    m.set("strategy.sybils_retired", retired as f64);
    m.set("strategy.load_queries", queries as f64);
    m.set("strategy.invitations_sent", invitations as f64);
    m.set("strategy.retire_ratio", ratio(retired, created));
    m.set("strategy.queries_per_sybil", ratio(queries, created));
}

/// Raw wire throughput: lookups from random origins on a 64-node
/// `EventNet`, run until every lookup settles. Returns events processed.
fn eventnet_probe(seed: u64) -> u64 {
    let cfg = EventConfig::default();
    let mut rng = substream(seed, 0, domains::PLACEMENT);
    let mut net = EventNet::bootstrap(cfg, 64, &mut rng);
    let ids = net.node_ids();
    let mut events = 0u64;
    for i in 0..20_000u64 {
        let origin = ids[rng.gen_range(0..ids.len())];
        let key = Id::random(&mut rng);
        black_box(net.lookup(origin, key));
        if i % 8 == 7 {
            events += net.run_until(net.now() + 40);
        }
    }
    events + net.run_until(net.now() + cfg.lookup_timeout)
}
