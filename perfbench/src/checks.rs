//! Output checks: task conservation, and an outcome digest that must
//! repeat across reps, across the traced and untraced paths, and — for
//! the default seed — match the one recorded in `digests.txt`.
//!
//! A check returns the problems it found; the caller counts a run with
//! any problem as failed. Nothing here panics.

use autobal::event_sim::EventRun;
use autobal::protocol_sim::ProtocolRun;
use autobal::reference::NaiveRunResult;
use autobal_chord::MessageStats;
use autobal_core::{RunResult, SimConfig};

/// Outcome digests recorded for [`crate::DEFAULT_SEED`], one
/// `<key> <hex digest>` per line.
const RECORDED: &str = include_str!("../digests.txt");

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) -> &mut Fnv {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    fn words(&mut self, ws: impl IntoIterator<Item = u64>) -> &mut Fnv {
        for w in ws {
            self.word(w);
        }
        self
    }
}

fn message_words(m: &MessageStats) -> [u64; 17] {
    [
        m.find_successor_hops,
        m.stabilize,
        m.notify,
        m.successor_list_pulls,
        m.fix_finger,
        m.ping,
        m.replica_push,
        m.key_transfer,
        m.load_query,
        m.invitation,
        m.store_value,
        m.fetch_value,
        m.retries,
        m.timeouts,
        m.dropped,
        m.keys_lost,
        m.lied,
    ]
}

/// Digest of an oracle-ring run: ticks, runtime-factor bits, peak
/// vnodes, message stats and the per-tick work series.
pub fn oracle_digest(r: &RunResult) -> u64 {
    let m = &r.messages;
    let mut h = Fnv::new();
    h.words([
        r.ticks,
        r.runtime_factor.to_bits(),
        r.completed as u64,
        r.peak_vnodes as u64,
        r.final_active_workers as u64,
        m.sybils_created,
        m.sybils_retired,
        m.churn_leaves,
        m.churn_joins,
        m.load_queries,
        m.invitations_sent,
        m.invitations_refused,
    ]);
    h.word(r.work_per_tick.len() as u64)
        .words(r.work_per_tick.iter().copied());
    h.0
}

/// Digest of an event-time run: ticks, runtime-factor bits, event
/// clock, both message bills, wire counts and per-worker task counts.
pub fn event_digest(r: &EventRun) -> u64 {
    let mut h = Fnv::new();
    h.words([
        r.ticks,
        r.runtime_factor.to_bits(),
        r.completed as u64,
        r.time,
        r.wire_events,
        r.sybils_created,
        r.sybils_retired,
        r.tasks_lost,
        r.workers_crashed,
        r.tasks_remaining,
        r.lookup_timeouts,
    ]);
    h.words(message_words(&r.messages))
        .words(message_words(&r.wire));
    h.word(r.lookup_latencies.len() as u64)
        .words(r.lookup_latencies.iter().copied());
    h.word(r.tasks_done.len() as u64)
        .words(r.tasks_done.iter().copied());
    h.0
}

/// The oracle run completed and consumed exactly the job's tasks.
pub fn oracle_output(cfg: &SimConfig, r: &RunResult) -> Vec<String> {
    let mut problems = Vec::new();
    if !r.completed {
        problems.push(format!("run hit the tick cap at tick {}", r.ticks));
    }
    let done: u64 = r.work_per_tick.iter().sum();
    if done != cfg.tasks {
        problems.push(format!("consumed {done} tasks of {}", cfg.tasks));
    }
    if r.work_per_tick.len() as u64 != r.ticks {
        problems.push(format!(
            "{} work samples for {} ticks",
            r.work_per_tick.len(),
            r.ticks
        ));
    }
    problems
}

/// A Chord-substrate run completed, lost no task, and consumed every
/// task at least once. A Sybil or churn handoff can resurrect a task
/// consumed since the last replica sync and have it done again (the
/// substrates' documented active-backup model), so more than `tasks`
/// may be consumed.
fn chord_output(what: &str, tasks: u64, completed: bool, lost: u64, done: &[u64]) -> Vec<String> {
    let mut problems = Vec::new();
    if !completed {
        problems.push(format!("{what} run did not complete"));
    }
    if lost != 0 {
        problems.push(format!("{what} run lost {lost} tasks"));
    }
    let sum: u64 = done.iter().sum();
    if sum < tasks {
        problems.push(format!("{what} run consumed {sum} tasks of {tasks}"));
    }
    problems
}

pub fn event_output(tasks: u64, r: &EventRun) -> Vec<String> {
    let mut problems = chord_output("event", tasks, r.completed, r.tasks_lost, &r.tasks_done);
    if r.tasks_remaining != 0 {
        problems.push(format!("event run left {} tasks", r.tasks_remaining));
    }
    problems
}

pub fn protocol_output(tasks: u64, r: &ProtocolRun) -> Vec<String> {
    chord_output("protocol", tasks, r.completed, r.tasks_lost, &r.tasks_done)
}

/// The optimized engine and the naive reference engine agree.
pub fn naive_agrees(r: &RunResult, n: &NaiveRunResult) -> Vec<String> {
    let same = r.ticks == n.ticks
        && r.completed == n.completed
        && r.work_per_tick == n.work_per_tick
        && r.peak_vnodes == n.peak_vnodes
        && r.messages.churn_leaves == n.churn_leaves
        && r.messages.churn_joins == n.churn_joins;
    if same {
        Vec::new()
    } else {
        vec![format!(
            "NaiveSim disagrees: {} ticks vs {} ticks",
            n.ticks, r.ticks
        )]
    }
}

/// Compares every digest a process computes: a job's digest against
/// the first one seen for that job, and against the recorded digest
/// when the run's seed is the default.
pub struct DigestGate {
    key: String,
    default_seed: bool,
    first: Vec<Option<u64>>,
    corrupt: bool,
}

impl DigestGate {
    /// `key` names the workload (prefixed `smoke/` at smoke size);
    /// `default_seed` arms the recorded-digest comparison; `corrupt`
    /// flips a bit of job 0's first digest, for the smoke self-test.
    pub fn new(key: String, jobs: u64, default_seed: bool, corrupt: bool) -> DigestGate {
        DigestGate {
            key,
            default_seed,
            first: vec![None; jobs as usize],
            corrupt,
        }
    }

    /// The first digest of every job, in `digests.txt` form.
    pub fn lines(&self) -> Vec<String> {
        self.first
            .iter()
            .enumerate()
            .filter_map(|(j, d)| d.map(|d| format!("{}/{j} {d:016x}", self.key)))
            .collect()
    }

    pub fn check(&mut self, job: u64, digest: u64) -> Vec<String> {
        let key = format!("{}/{job}", self.key);
        let Some(first) = self.first.get_mut(job as usize) else {
            return vec![format!("{key}: no such job")];
        };
        let digest = match first {
            None if self.corrupt && job == 0 => digest ^ 1,
            _ => digest,
        };
        let mut problems = Vec::new();
        match *first {
            None => *first = Some(digest),
            Some(f) if f != digest => problems.push(format!(
                "{key}: digest {digest:016x} differs from this job's first {f:016x}"
            )),
            Some(_) => {}
        }
        if self.default_seed {
            match recorded(&key) {
                None => problems.push(format!("{key}: no digest recorded")),
                Some(r) if r != digest => problems.push(format!(
                    "{key}: digest {digest:016x} differs from the recorded {r:016x}"
                )),
                Some(_) => {}
            }
        }
        problems
    }
}

fn recorded(key: &str) -> Option<u64> {
    RECORDED.lines().find_map(|line| {
        let (k, hex) = line.split_once(' ')?;
        (k == key).then(|| u64::from_str_radix(hex.trim(), 16).ok())?
    })
}
