//! The simulation ring: virtual nodes with task sets, stored as arc-range
//! shards in struct-of-arrays layout, and the planned tick engine.
//!
//! This is the fast substrate the tick simulator runs on (the
//! protocol-level Chord implementation lives in `autobal-chord`; see
//! DESIGN.md for why the simulator uses an oracle ring — identical
//! placement semantics, none of the per-message overhead, exactly like
//! the paper's own simulator).
//!
//! Every virtual node owns the clockwise arc `(predecessor, self]` and
//! holds the keys of the *remaining* tasks in that arc. Joins split the
//! successor's task vector; departures merge into the successor.
//!
//! ## Layout
//!
//! [`Ring`] partitions the 160-bit identifier circle into `S` contiguous
//! arc-range shards (shard `s` owns ids whose top 96 bits fall in
//! `[s·2⁹⁶/S, (s+1)·2⁹⁶/S)`; `S = 1` by default). Each shard keeps an
//! ordered id→slot index next to dense per-slot columns (`owners`,
//! `tasks`, and the `next` owner-chain link), so the hot tick loop walks
//! vectors instead of chasing ordered-map nodes.
//!
//! Every owner's vnodes form a linked **slot chain** (`heads` per owner,
//! `next` per slot) in insertion order. The simulator inserts a worker's
//! primary first, then its static virtual servers, then its Sybils, so
//! the chain lists them in `Worker::vnodes()` order — the order a worker
//! drains them in. Chains are short (one primary plus a handful of
//! statics and Sybils), so appends and removals walk them.
//!
//! ## Determinism contract
//!
//! Results are **bit-for-bit identical** to the naive sequential
//! reference (`autobal::reference::NaiveRing`) for every operation
//! sequence, at every shard count, at every thread count. Structural
//! operations (join splits, departure merges, task placement) run in
//! global id order — a shard boundary never changes *what* happens,
//! only *where* the state lives. The work phase exploits one algebraic
//! fact: the xorshift64* pop generator's state evolution is independent
//! of the vector lengths being popped, and each vnode's pop count for a
//! tick is known before any pop happens (a worker takes
//! `min(capacity left, queue length)` from each vnode in chain order).
//! So a tick (a) plans per-vnode counts and stream offsets sequentially
//! in worker-index order ([`Ring::plan_owner`]), (b) materializes the
//! whole state stream once, and (c) lets every shard replay its planned
//! batches against its own task vectors — in parallel, with no
//! cross-shard effects ([`Ring::run_pops`]). Cross-shard structural
//! effects (a Sybil landing in another shard's arc, a departure merging
//! across a boundary) happen in the sequential strategy phase, outside
//! the parallel window.

use crate::worker::WorkerId;
use autobal_id::{ring as arc, Id};
use rayon::prelude::*;
use std::collections::{btree_map, BTreeMap};
use std::ops::Bound;

/// Errors from ring operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingError {
    /// A virtual node already sits at this exact id.
    Occupied(Id),
    /// No virtual node at this id.
    Unknown(Id),
    /// Removing the last virtual node would strand its tasks.
    LastVNode,
}

impl std::fmt::Display for RingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RingError::Occupied(id) => write!(f, "position {id} already occupied"),
            RingError::Unknown(id) => write!(f, "no virtual node at {id}"),
            RingError::LastVNode => write!(f, "cannot remove the last virtual node"),
        }
    }
}

impl std::error::Error for RingError {}

/// What [`Ring::insert_vnode`] did: how many keys the newcomer took, and
/// from whose vnode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Split {
    /// Keys the newcomer acquired from its successor.
    pub acquired: u64,
    /// Owner of the successor whose arc was split (`None` when the ring
    /// was empty).
    pub victim: Option<WorkerId>,
}

/// What [`Ring::remove_vnode`] did: whose vnode left, and where its keys
/// went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Merge {
    /// Owner of the removed vnode.
    pub owner: WorkerId,
    /// Keys merged into the successor.
    pub moved: u64,
    /// The successor that took the keys (the removed id itself when it
    /// was the last vnode).
    pub succ: Id,
    /// Owner of `succ`.
    pub succ_owner: WorkerId,
}

/// One vnode as a [`Walk`] passes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Visit {
    pub id: Id,
    pub owner: WorkerId,
    /// Remaining tasks at the vnode.
    pub load: u64,
}

/// Hard cap on the shard count (a partitioning knob, not a scaling
/// limit — more shards than cores only adds merge bookkeeping).
pub const MAX_SHARDS: usize = 64;

/// How many retired task vectors the ring keeps around for reuse.
/// Splits and merges alternate under churn, so a handful of warm
/// buffers absorbs the steady state without hoarding memory.
const POOL_CAP: usize = 32;

/// Initial xorshift state for the pop generator.
const POP_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// Owner sentinel marking a freed slot in the struct-of-arrays columns.
const FREE_OWNER: WorkerId = usize::MAX;

/// One xorshift64 step of the pop generator. The state evolution is
/// independent of the vector lengths being popped, which is what lets a
/// tick pre-generate its whole state stream and pop in parallel.
#[inline]
fn advance_pop_state(state: u64) -> u64 {
    let mut x = state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// Maps an advanced state word to an index in `0..len` (the `*` finisher
/// of xorshift64*, reduced modulo the vector length).
#[inline]
fn pop_index(state: u64, len: usize) -> usize {
    debug_assert!(len > 0);
    (state.wrapping_mul(0x2545_F491_4F6C_DD1D) % len as u64) as usize
}

/// Merges two ascending-sorted slices into one vector.
fn merge_sorted(a: &[Id], b: &[Id]) -> Vec<Id> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut ai, mut bi) = (a.iter().peekable(), b.iter().peekable());
    while let (Some(&&x), Some(&&y)) = (ai.peek(), bi.peek()) {
        if x <= y {
            out.push(x);
            ai.next();
        } else {
            out.push(y);
            bi.next();
        }
    }
    out.extend(ai);
    out.extend(bi);
    out
}

/// Appends a sorted chunk to a sorted vector, merging when necessary.
fn extend_sorted(dst: &mut Vec<Id>, chunk: &[Id]) {
    let Some(&first) = chunk.first() else {
        return;
    };
    if dst.last().is_none_or(|&l| l <= first) {
        dst.extend_from_slice(chunk);
    } else {
        *dst = merge_sorted(dst, chunk);
    }
}

/// Which shard an identifier belongs to: the top 96 bits of the id,
/// scaled by the shard count. Monotone in the id, so concatenating the
/// shards' ordered indexes in shard order yields the global id order.
#[inline]
fn shard_of(id: Id, shards: usize) -> usize {
    let [_, mid, hi] = id.limbs();
    // `hi` < 2³² (160-bit ids), so key96 < 2⁹⁶ and the product fits u128.
    let key96 = ((hi as u128) << 64) | (mid as u128);
    ((key96 * shards as u128) >> 96) as usize
}

/// A slot handle: a column index inside one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    shard: u32,
    idx: u32,
}

/// The end-of-chain (and empty-chain) marker.
const NIL: Slot = Slot {
    shard: u32::MAX,
    idx: u32::MAX,
};

/// One planned batch of a tick: pop `pops` tasks from column `slot`,
/// drawing the stream states at `off..off + pops`.
#[derive(Debug, Clone, Copy)]
struct Planned {
    slot: u32,
    pops: u32,
    off: u64,
}

/// One contiguous arc-range shard in struct-of-arrays layout.
#[derive(Debug, Clone, Default)]
struct Shard {
    /// Ordered id → slot index (the shard's fragment of the ring order).
    index: BTreeMap<Id, u32>,
    /// Slot → owning worker (`FREE_OWNER` when the slot is free).
    owners: Vec<WorkerId>,
    /// Slot → remaining task keys, in queue order (the pop generator
    /// indexes into this order, so it is part of the determinism
    /// contract).
    tasks: Vec<Vec<Id>>,
    /// Slot → next slot of the same owner's chain.
    next: Vec<Slot>,
    /// Free slot list (slots keep their columns; task vectors are
    /// recycled through the ring-level pool instead).
    free: Vec<u32>,
    /// This tick's planned batches, filled by [`Ring::plan_owner`] and
    /// drained by [`Ring::run_pops`].
    plan: Vec<Planned>,
}

impl Shard {
    /// Files a vnode into a free (or fresh) slot; returns the slot. The
    /// caller links it into its owner's chain.
    fn insert(&mut self, id: Id, owner: WorkerId, tasks: Vec<Id>) -> u32 {
        let idx = match self.free.pop() {
            Some(i) if (i as usize) < self.owners.len() => i,
            _ => {
                self.owners.push(FREE_OWNER);
                self.tasks.push(Vec::new());
                self.next.push(NIL);
                (self.owners.len() - 1) as u32
            }
        };
        let i = idx as usize;
        if let (Some(o), Some(t)) = (self.owners.get_mut(i), self.tasks.get_mut(i)) {
            *o = owner;
            *t = tasks;
            self.index.insert(id, idx);
        }
        // A tick plans each live slot at most once, so a plan buffer as
        // long as the slot count never grows inside a tick — not even
        // on the first tick, when every slot pops.
        self.plan
            .reserve(self.index.len().saturating_sub(self.plan.len()));
        idx
    }

    /// Unfiles the vnode at `idx` (already unlinked from its chain),
    /// returning its task vector.
    fn remove(&mut self, id: Id, idx: u32) -> Vec<Id> {
        self.index.remove(&id);
        let i = idx as usize;
        if let Some(o) = self.owners.get_mut(i) {
            *o = FREE_OWNER;
        }
        self.free.push(idx);
        self.tasks
            .get_mut(i)
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Replays this shard's planned batches against `stream`, then
    /// clears the plan. Returns the number of tasks popped.
    ///
    /// Batches are visited in plan order, but the order cannot change
    /// the outcome: every state in the stream was assigned to exactly
    /// one vnode by the planner, and vnodes own disjoint task vectors.
    fn replay(&mut self, stream: &[u64]) -> u64 {
        let Shard { tasks, plan, .. } = self;
        let mut done = 0u64;
        for p in plan.iter() {
            let off = p.off as usize;
            let (Some(tv), Some(states)) = (
                tasks.get_mut(p.slot as usize),
                stream.get(off..off + p.pops as usize),
            ) else {
                continue;
            };
            for &st in states {
                let len = tv.len();
                if len == 0 {
                    break;
                }
                tv.swap_remove(pop_index(st, len));
                done += 1;
            }
        }
        plan.clear();
        done
    }
}

/// The ring of virtual nodes (see the module docs for the layout and
/// the determinism contract).
#[derive(Debug, Clone)]
pub struct Ring {
    shards: Vec<Shard>,
    /// Total live vnodes across all shards.
    len: usize,
    total_tasks: u64,
    /// xorshift state for uniform task consumption (deterministic).
    pop_rng: u64,
    /// Reusable split buffer: holds the newcomer's keys during
    /// [`Ring::insert_vnode`] so steady-state splits never allocate.
    scratch: Vec<Id>,
    /// Retired task vectors, recycled as newcomer vectors on a split.
    pool: Vec<Vec<Id>>,
    /// Owner → first slot of its chain (`NIL` when it holds no vnode).
    heads: Vec<Slot>,
    /// Pops planned so far this tick (the next batch's stream offset).
    planned: u64,
    /// The tick's pre-generated pop-state stream (reused buffer).
    stream: Vec<u64>,
}

impl Default for Ring {
    fn default() -> Ring {
        Ring::new()
    }
}

impl Ring {
    /// A new empty single-shard ring.
    pub fn new() -> Ring {
        Ring::with_shards(1)
    }

    /// A new empty ring partitioned into `shards` arcs (clamped to
    /// `1..=MAX_SHARDS`).
    pub fn with_shards(shards: usize) -> Ring {
        let shards = shards.clamp(1, MAX_SHARDS);
        Ring {
            shards: std::iter::repeat_with(Shard::default)
                .take(shards)
                .collect(),
            len: 0,
            total_tasks: 0,
            pop_rng: POP_SEED,
            scratch: Vec::new(),
            pool: Vec::new(),
            heads: Vec::new(),
            planned: 0,
            stream: Vec::new(),
        }
    }

    /// Number of virtual nodes.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total remaining tasks across the ring.
    pub fn total_tasks(&self) -> u64 {
        self.total_tasks
    }

    #[inline]
    fn shard_idx(&self, id: Id) -> usize {
        shard_of(id, self.shards.len())
    }

    /// The slot holding the vnode at `id`, if present.
    fn locate(&self, id: Id) -> Option<Slot> {
        let s = self.shard_idx(id);
        let idx = *self.shards.get(s)?.index.get(&id)?;
        Some(Slot {
            shard: s as u32,
            idx,
        })
    }

    fn queue(&self, at: Slot) -> Option<&Vec<Id>> {
        self.shards
            .get(at.shard as usize)?
            .tasks
            .get(at.idx as usize)
    }

    fn queue_mut(&mut self, at: Slot) -> Option<&mut Vec<Id>> {
        self.shards
            .get_mut(at.shard as usize)?
            .tasks
            .get_mut(at.idx as usize)
    }

    fn owner_at(&self, at: Slot) -> Option<WorkerId> {
        self.shards
            .get(at.shard as usize)?
            .owners
            .get(at.idx as usize)
            .copied()
    }

    fn next_of(&self, at: Slot) -> Slot {
        self.shards
            .get(at.shard as usize)
            .and_then(|sh| sh.next.get(at.idx as usize))
            .copied()
            .unwrap_or(NIL)
    }

    /// Points `at`'s chain link — or `owner`'s head when `at` is
    /// `NIL` — at `to`.
    fn relink(&mut self, owner: WorkerId, at: Slot, to: Slot) {
        let link = if at == NIL {
            self.heads.get_mut(owner)
        } else {
            self.shards
                .get_mut(at.shard as usize)
                .and_then(|sh| sh.next.get_mut(at.idx as usize))
        };
        if let Some(l) = link {
            *l = to;
        }
    }

    fn head(&self, owner: WorkerId) -> Slot {
        self.heads.get(owner).copied().unwrap_or(NIL)
    }

    /// The slot before `at` in `owner`'s chain (`NIL` for the head), or
    /// the chain's last slot when `at` is `NIL`.
    fn chain_before(&self, owner: WorkerId, at: Slot) -> Slot {
        let mut before = NIL;
        let mut cur = self.head(owner);
        for _ in 0..=self.len {
            if cur == at {
                break;
            }
            before = cur;
            cur = self.next_of(cur);
        }
        before
    }

    /// Appends `at` to the tail of `owner`'s chain.
    fn link_tail(&mut self, owner: WorkerId, at: Slot) {
        if self.heads.len() <= owner {
            self.heads.resize(owner + 1, NIL);
        }
        let last = self.chain_before(owner, NIL);
        self.relink(owner, at, NIL);
        self.relink(owner, last, at);
    }

    /// Cuts `at` out of `owner`'s chain.
    fn unlink(&mut self, owner: WorkerId, at: Slot) {
        let before = self.chain_before(owner, at);
        let after = self.next_of(at);
        self.relink(owner, before, after);
    }

    pub fn contains(&self, id: Id) -> bool {
        self.locate(id).is_some()
    }

    /// Remaining tasks at one virtual node.
    pub fn load(&self, id: Id) -> u64 {
        self.locate(id)
            .and_then(|at| self.queue(at))
            .map_or(0, |t| t.len() as u64)
    }

    /// Every owner's ring positions in chain (insertion) order, indexed
    /// by owner. Test/debug helper; O(vnodes).
    pub(crate) fn owner_chains(&self) -> Vec<Vec<Id>> {
        let id_of: Vec<BTreeMap<u32, Id>> = self
            .shards
            .iter()
            .map(|sh| sh.index.iter().map(|(&id, &slot)| (slot, id)).collect())
            .collect();
        (0..self.heads.len())
            .map(|owner| {
                std::iter::successors(Some(self.head(owner)), |&at| Some(self.next_of(at)))
                    .take_while(|&at| at != NIL)
                    .take(self.len)
                    .filter_map(|at| id_of.get(at.shard as usize)?.get(&at.idx).copied())
                    .collect()
            })
            .collect()
    }

    /// The virtual node whose arc contains `key` (first id ≥ key,
    /// wrapping to the smallest id).
    pub fn owner_of_key(&self, key: Id) -> Option<Id> {
        self.at_or_after(key).map(|(id, _)| id)
    }

    /// The first vnode at or clockwise after `key` (wrapping), with its
    /// slot: one index descent.
    fn at_or_after(&self, key: Id) -> Option<(Id, Slot)> {
        if self.len == 0 {
            return None;
        }
        let s = self.shard_idx(key);
        if let Some((&id, &idx)) = self
            .shards
            .get(s)
            .and_then(|sh| sh.index.range(key..).next())
        {
            return Some((
                id,
                Slot {
                    shard: s as u32,
                    idx,
                },
            ));
        }
        self.first_nonempty_after(s)
    }

    /// Clockwise neighbor of `id` (excluding itself; `id` itself when it
    /// is the only node). `id` need not be present.
    pub fn successor_of(&self, id: Id) -> Option<Id> {
        if self.len == 0 {
            return None;
        }
        let s = self.shard_idx(id);
        if let Some(sh) = self.shards.get(s) {
            if let Some((&i, _)) = sh
                .index
                .range((Bound::Excluded(id), Bound::Unbounded))
                .next()
            {
                return Some(i);
            }
        }
        self.first_nonempty_after(s).map(|(i, _)| i)
    }

    /// Counter-clockwise neighbor of `id` (excluding itself).
    pub fn predecessor_of(&self, id: Id) -> Option<Id> {
        if self.len == 0 {
            return None;
        }
        let s = self.shard_idx(id);
        if let Some(sh) = self.shards.get(s) {
            if let Some((&i, _)) = sh.index.range(..id).next_back() {
                return Some(i);
            }
        }
        // Walk counter-clockwise through shards s-1, …, 0, then wrap
        // n-1, …, s: the first non-empty shard's largest id is the
        // predecessor (or, wrapped, the global maximum).
        let n = self.shards.len();
        for d in 1..=n {
            let t = (s + n - d) % n;
            if let Some(sh) = self.shards.get(t) {
                if let Some((&i, _)) = sh.index.iter().next_back() {
                    return Some(i);
                }
            }
        }
        None
    }

    /// The smallest id, with its slot, in the first non-empty shard
    /// clockwise after shard `s` (cyclically, ending at `s` itself). Ids
    /// in shards after `s` all sort above shard `s`'s arc, so this is
    /// both "next id after the arc" and, once wrapped past the top, the
    /// global minimum.
    fn first_nonempty_after(&self, s: usize) -> Option<(Id, Slot)> {
        let n = self.shards.len();
        for d in 1..=n {
            let t = (s + d) % n;
            if let Some((&i, &idx)) = self.shards.get(t).and_then(|sh| sh.index.iter().next()) {
                return Some((
                    i,
                    Slot {
                        shard: t as u32,
                        idx,
                    },
                ));
            }
        }
        None
    }

    /// The clockwise walk away from `id`, nearest first: one index
    /// descent, then plain iteration across the shards. It ends when it
    /// comes back round to `id`; an absent `id` is never met, so the
    /// walk repeats the ring — exactly the ids that stepping
    /// [`Ring::successor_of`] from `id` visits.
    pub fn successor_walk(&self, id: Id) -> Walk<'_> {
        Walk::new(self, id, true)
    }

    /// The counter-clockwise mirror of [`Ring::successor_walk`].
    pub fn predecessor_walk(&self, id: Id) -> Walk<'_> {
        Walk::new(self, id, false)
    }

    /// Up to `k` clockwise successors of `id`, nearest first, stopping
    /// early if the walk wraps back to `id`.
    pub fn successors(&self, id: Id, k: usize) -> Vec<Id> {
        self.successor_walk(id).take(k).map(|v| v.id).collect()
    }

    /// Up to `k` counter-clockwise predecessors, nearest first.
    pub fn predecessors(&self, id: Id, k: usize) -> Vec<Id> {
        self.predecessor_walk(id).take(k).map(|v| v.id).collect()
    }

    /// Files a new vnode in shard `s` and appends it to its owner's
    /// chain.
    fn file(&mut self, s: usize, id: Id, owner: WorkerId, tasks: Vec<Id>) {
        let Some(sh) = self.shards.get_mut(s) else {
            return;
        };
        let idx = sh.insert(id, owner, tasks);
        self.len += 1;
        self.link_tail(
            owner,
            Slot {
                shard: s as u32,
                idx,
            },
        );
    }

    /// Unlinks and unfiles the vnode at `at`, returning its owner and
    /// task vector.
    fn unfile(&mut self, id: Id, at: Slot) -> Option<(WorkerId, Vec<Id>)> {
        let owner = self.owner_at(at)?;
        self.unlink(owner, at);
        let tasks = self.shards.get_mut(at.shard as usize)?.remove(id, at.idx);
        self.len -= 1;
        Some((owner, tasks))
    }

    /// Inserts a virtual node at `id` for `owner`, splitting the
    /// successor's task set: keys in `(old predecessor, id]` move to the
    /// newcomer, which joins the tail of `owner`'s chain. The successor
    /// may live in any shard. One range lookup finds "occupied or
    /// successor", so a join costs that descent plus the index insert.
    pub fn insert_vnode(&mut self, id: Id, owner: WorkerId) -> Result<Split, RingError> {
        let s = self.shard_idx(id);
        let Some((succ, at)) = self.at_or_after(id) else {
            self.file(s, id, owner, Vec::new());
            return Ok(Split {
                acquired: 0,
                victim: None,
            });
        };
        if succ == id {
            return Err(RingError::Occupied(id));
        }
        let victim = self.owner_at(at);
        let Ring {
            shards, scratch, ..
        } = self;
        let Some(tv) = shards
            .get_mut(at.shard as usize)
            .and_then(|sh| sh.tasks.get_mut(at.idx as usize))
        else {
            return Err(RingError::Unknown(succ));
        };
        // Keys keeping with the successor are those in (id, succ];
        // everything else belongs to the newcomer. `retain` is a stable
        // in-place partition: keepers compact down in order while the
        // scratch buffer collects the newcomer's keys in their original
        // order, element-for-element what a `partition` would build.
        scratch.clear();
        tv.retain(|&k| {
            let keep = arc::in_arc(id, succ, k);
            if !keep {
                scratch.push(k);
            }
            keep
        });
        let acquired = self.scratch.len() as u64;
        let mut tasks = self.pool.pop().unwrap_or_default();
        tasks.extend_from_slice(&self.scratch);
        self.file(s, id, owner, tasks);
        Ok(Split { acquired, victim })
    }

    /// Removes the virtual node at `id`, merging its remaining tasks
    /// into its successor (which may live in any shard). One range
    /// lookup finds both the vnode and, unless it ends its shard, its
    /// successor.
    pub fn remove_vnode(&mut self, id: Id) -> Result<Merge, RingError> {
        let s = self.shard_idx(id);
        let slot = |idx| Slot {
            shard: s as u32,
            idx,
        };
        let (at, next) = {
            let mut from = self
                .shards
                .get(s)
                .map(|sh| sh.index.range(id..))
                .into_iter()
                .flatten();
            match from.next() {
                Some((&i, &idx)) if i == id => {
                    (slot(idx), from.next().map(|(&n, &ni)| (n, slot(ni))))
                }
                _ => return Err(RingError::Unknown(id)),
            }
        };
        if self.len == 1 {
            if self.queue(at).is_some_and(|t| !t.is_empty()) {
                return Err(RingError::LastVNode);
            }
            let Some((owner, tasks)) = self.unfile(id, at) else {
                return Err(RingError::Unknown(id));
            };
            self.recycle(tasks);
            return Ok(Merge {
                owner,
                moved: 0,
                succ: id,
                succ_owner: owner,
            });
        }
        let Some((succ, succ_at)) = next.or_else(|| self.first_nonempty_after(s)) else {
            return Err(RingError::Unknown(id));
        };
        let Some(succ_owner) = self.owner_at(succ_at) else {
            return Err(RingError::Unknown(succ));
        };
        let Some((owner, tasks)) = self.unfile(id, at) else {
            return Err(RingError::Unknown(id));
        };
        let moved = tasks.len() as u64;
        if let Some(tv) = self.queue_mut(succ_at) {
            tv.extend_from_slice(&tasks);
        }
        self.recycle(tasks);
        Ok(Merge {
            owner,
            moved,
            succ,
            succ_owner,
        })
    }

    /// Parks a retired task vector for reuse by a later split.
    fn recycle(&mut self, mut tasks: Vec<Id>) {
        if self.pool.len() < POOL_CAP && tasks.capacity() > 0 {
            tasks.clear();
            self.pool.push(tasks);
        }
    }

    /// Distributes an arbitrary batch of task keys onto their owning
    /// virtual nodes (used for initial placement). Keys may arrive in
    /// any order; each vnode's vector ends up integer-sorted. One sweep
    /// of the global id order crosses shard boundaries as it goes.
    pub fn assign_tasks(&mut self, mut keys: Vec<Id>) {
        debug_assert!(self.len > 0, "assign_tasks on empty ring");
        keys.sort_unstable();
        self.total_tasks += keys.len() as u64;
        // For consecutive vnode ids a < b, b owns integer range (a, b].
        // The smallest vnode also picks up the wrap: keys > last ∪ keys
        // ≤ first. `prev` carries the window's left edge.
        let mut start = 0usize;
        let mut first = None;
        let mut prev = None;
        for sh in self.shards.iter_mut() {
            let Shard { index, tasks, .. } = sh;
            for (&b, &slot) in index.iter() {
                let Some(a) = prev else {
                    first = Some(b);
                    prev = Some(b);
                    continue;
                };
                // keys in (a, b]: advance start past ≤ a, then take ≤ b.
                let Some(tail) = keys.get(start..) else {
                    break;
                };
                let lo = tail.partition_point(|&k| k <= a) + start;
                let Some(rest) = keys.get(lo..) else {
                    break;
                };
                let hi = rest.partition_point(|&k| k <= b) + lo;
                if let (Some(tv), Some(chunk)) = (tasks.get_mut(slot as usize), keys.get(lo..hi)) {
                    extend_sorted(tv, chunk);
                }
                start = hi;
                prev = Some(b);
            }
        }
        // Wrap chunk: keys ≤ first id and keys > last id go to first.
        let (Some(first), Some(last)) = (first, prev) else {
            return;
        };
        let head_end = keys.partition_point(|&k| k <= first);
        let tail_start = keys.partition_point(|&k| k <= last);
        let Some(tv) = self.locate(first).and_then(|at| self.queue_mut(at)) else {
            return;
        };
        // Tail (big keys) sorts before head in ring order but after in
        // integer order; keep the vector integer-sorted.
        if let Some(head) = keys.get(..head_end) {
            extend_sorted(tv, head);
        }
        if let Some(tail) = keys.get(tail_start..) {
            extend_sorted(tv, tail);
        }
    }

    /// Consumes one uniformly random task from the virtual node,
    /// drawing the next state of the pop stream. Returns `false` if the
    /// node is absent or idle.
    pub fn pop_task(&mut self, id: Id) -> bool {
        let Some(at) = self.locate(id) else {
            return false;
        };
        let state = advance_pop_state(self.pop_rng);
        let Some(tv) = self.queue_mut(at) else {
            return false;
        };
        let len = tv.len();
        if len == 0 {
            return false;
        }
        tv.swap_remove(pop_index(state, len));
        self.pop_rng = state;
        self.total_tasks -= 1;
        true
    }

    /// Sizes the pop-state stream for ticks of up to `per_tick` pops,
    /// so a tick within that bound never allocates.
    pub(crate) fn reserve_pops(&mut self, per_tick: u64) {
        let want = usize::try_from(per_tick).unwrap_or(usize::MAX);
        self.stream.reserve(want.saturating_sub(self.stream.len()));
    }

    /// Plans `owner`'s share of the current tick: walks its slot chain
    /// in order and takes `min(capacity left, queue length)` pops from
    /// each vnode until `cap` is spent, assigning each batch the next
    /// offset into the tick's pop stream. Returns the pops planned.
    ///
    /// Offsets are handed out in call order, so calling this once per
    /// worker in worker-index order reproduces the sequential engine's
    /// draw order exactly: worker by worker, primary first, then statics,
    /// then Sybils. Call it at most once per owner per tick, and finish
    /// the tick with [`Ring::run_pops`] before any other mutation.
    pub(crate) fn plan_owner(&mut self, owner: WorkerId, cap: u32) -> u32 {
        let mut left = cap;
        let mut at = self.head(owner);
        while left > 0 {
            let Some(sh) = self.shards.get_mut(at.shard as usize) else {
                break;
            };
            let i = at.idx as usize;
            let len = sh.tasks.get(i).map_or(0, Vec::len);
            let pops = left.min(u32::try_from(len).unwrap_or(u32::MAX));
            if pops > 0 {
                sh.plan.push(Planned {
                    slot: at.idx,
                    pops,
                    off: self.planned,
                });
                self.planned += pops as u64;
                left -= pops;
            }
            at = sh.next.get(i).copied().unwrap_or(NIL);
        }
        cap - left
    }

    /// The work phase of one tick, after every owner has been planned:
    /// generates the tick's pop-state stream once, then replays each
    /// shard's planned batches — in parallel when there are several
    /// shards and the ambient rayon pool has threads to spare,
    /// sequentially otherwise; both produce identical state by
    /// construction. Returns the number of tasks consumed.
    ///
    /// # Panics
    /// If the replay pops a different number of tasks than were planned,
    /// or more than the ring holds — a planner bug fails at the tick
    /// that caused it, in release builds too.
    pub(crate) fn run_pops(&mut self) -> u64 {
        let total = std::mem::take(&mut self.planned);
        self.stream.clear();
        self.stream.reserve(total as usize);
        let mut s = self.pop_rng;
        for _ in 0..total {
            s = advance_pop_state(s);
            self.stream.push(s);
        }
        self.pop_rng = s;
        let Ring { shards, stream, .. } = self;
        let stream: &[u64] = stream;
        let done: u64 = if shards.len() > 1 && rayon::current_num_threads() > 1 {
            let jobs: Vec<&mut Shard> = shards.iter_mut().collect();
            let per_shard: Vec<u64> = jobs.into_par_iter().map(|sh| sh.replay(stream)).collect();
            per_shard.iter().sum()
        } else {
            shards.iter_mut().map(|sh| sh.replay(stream)).sum()
        };
        assert_eq!(done, total, "planned tick popped {done} of {total} tasks");
        let left = self.total_tasks.checked_sub(total);
        assert!(
            left.is_some(),
            "tick popped {total} tasks from a ring holding {}",
            self.total_tasks
        );
        self.total_tasks = left.unwrap_or_default();
        total
    }

    /// The ring-order median of a virtual node's remaining task keys:
    /// the key with half the node's tasks at or below it along the
    /// clockwise arc from its predecessor. `None` when the node is
    /// absent or idle. A Sybil planted *at* this key acquires half the
    /// victim's remaining work exactly — the §VII chosen-ID extension.
    pub fn median_task_key(&self, id: Id) -> Option<Id> {
        let tv = self.queue(self.locate(id)?)?;
        if tv.is_empty() {
            return None;
        }
        let pred = self.predecessor_of(id).unwrap_or(id);
        let mut keys = tv.clone();
        let mid = keys.len() / 2;
        keys.select_nth_unstable_by_key(mid, |k| k.wrapping_sub(pred));
        keys.get(mid).copied()
    }

    /// `(owner, load)` for every vnode, in column order.
    pub(crate) fn owner_loads(&self) -> impl Iterator<Item = (WorkerId, u64)> + '_ {
        self.shards.iter().flat_map(|sh| {
            sh.owners
                .iter()
                .zip(&sh.tasks)
                .filter(|&(&owner, _)| owner != FREE_OWNER)
                .map(|(&owner, tv)| (owner, tv.len() as u64))
        })
    }

    /// Per-owner total loads, for snapshot assertions.
    pub fn loads_by_owner(&self, workers: usize) -> Vec<u64> {
        let mut out = vec![0u64; workers];
        for (owner, load) in self.owner_loads() {
            if let Some(o) = out.get_mut(owner) {
                *o += load;
            }
        }
        out
    }

    /// `(id, owner, tasks)` for every vnode in global ring (ascending
    /// id) order — shards concatenate to the global order because
    /// [`shard_of`] is monotone in the id.
    pub fn rows(&self) -> Vec<(Id, WorkerId, Vec<Id>)> {
        let mut out = Vec::with_capacity(self.len);
        for sh in &self.shards {
            for (&id, &slot) in sh.index.iter() {
                let owner = sh.owners.get(slot as usize).copied().unwrap_or(FREE_OWNER);
                let tasks = sh.tasks.get(slot as usize).cloned().unwrap_or_default();
                out.push((id, owner, tasks));
            }
        }
        out
    }

    /// `(id, load)` for every vnode in global ring (ascending id) order.
    pub fn vnode_loads(&self) -> Vec<(Id, u64)> {
        let mut out = Vec::with_capacity(self.len);
        for sh in &self.shards {
            for (&id, &slot) in sh.index.iter() {
                let load = sh.tasks.get(slot as usize).map_or(0, |t| t.len() as u64);
                out.push((id, load));
            }
        }
        out
    }

    /// Verifies internal invariants: accurate totals, shard filing,
    /// keys within their owner arcs, and owner chains that hold every
    /// live slot exactly once, each on its own owner's chain.
    /// Test/debug helper; O(total tasks).
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut counted = 0u64;
        let mut live = 0usize;
        for (si, sh) in self.shards.iter().enumerate() {
            for (&id, &slot) in sh.index.iter() {
                live += 1;
                if self.shard_idx(id) != si {
                    return Err(format!(
                        "vnode {id} filed in shard {si}, belongs in {}",
                        self.shard_idx(id)
                    ));
                }
                let i = slot as usize;
                if sh.owners.get(i).copied().unwrap_or(FREE_OWNER) == FREE_OWNER {
                    return Err(format!("vnode {id} points at freed slot {slot}"));
                }
                let Some(tv) = sh.tasks.get(i) else {
                    return Err(format!("vnode {id} points at missing slot {slot}"));
                };
                counted += tv.len() as u64;
                let pred = self.predecessor_of(id).unwrap_or(id);
                for &k in tv.iter() {
                    if pred != id && !arc::in_arc(pred, id, k) {
                        return Err(format!("key {k} at {id} outside arc ({pred}, {id}]"));
                    }
                }
            }
        }
        let filled = self
            .shards
            .iter()
            .flat_map(|sh| &sh.owners)
            .filter(|&&o| o != FREE_OWNER)
            .count();
        if live != self.len || filled != self.len {
            return Err(format!(
                "len {} but {live} indexed and {filled} filled slots",
                self.len
            ));
        }
        if counted != self.total_tasks {
            return Err(format!(
                "total_tasks {} but counted {counted}",
                self.total_tasks
            ));
        }
        let mut chained = 0usize;
        for owner in 0..self.heads.len() {
            let mut at = self.head(owner);
            while at != NIL {
                chained += 1;
                if chained > self.len {
                    return Err(format!("owner {owner}: chain cycles or overflows"));
                }
                // Filled slots are exactly the indexed ones (checked
                // above), so the owner match also proves the slot live.
                if self.owner_at(at) != Some(owner) {
                    return Err(format!(
                        "owner {owner}: chain holds slot {at:?} it does not own"
                    ));
                }
                at = self.next_of(at);
            }
        }
        if chained != self.len {
            return Err(format!("{chained} chained slots but {} vnodes", self.len));
        }
        Ok(())
    }
}

/// An ordered walk around the ring away from an origin id, clockwise
/// ([`Ring::successor_walk`]) or counter-clockwise
/// ([`Ring::predecessor_walk`]), yielding each vnode with its owner and
/// load read straight from the slot columns.
///
/// A lap is `n + 1` segments for `n` shards: the origin's shard beyond
/// the origin, the other shards in walk order, then the origin's shard
/// back up to and including the origin. Only the two segments bounded
/// by the origin search the index; the others start at a shard's end.
/// A walk that ends before coming back round to the origin's shard
/// therefore costs one descent. Meeting the origin ends the walk; an absent origin is never met, so
/// laps repeat.
#[derive(Debug, Clone)]
pub struct Walk<'a> {
    ring: &'a Ring,
    origin: Id,
    clockwise: bool,
    /// The origin's shard.
    home: usize,
    /// Segments entered so far.
    seg: usize,
    /// The current segment's shard and its remaining range.
    cur: Option<(&'a Shard, btree_map::Range<'a, Id, u32>)>,
    /// Segments entered since the last yield.
    idle: usize,
    done: bool,
}

impl<'a> Walk<'a> {
    fn new(ring: &'a Ring, origin: Id, clockwise: bool) -> Walk<'a> {
        let home = ring.shard_idx(origin);
        let mut walk = Walk {
            ring,
            origin,
            clockwise,
            home,
            seg: 0,
            cur: None,
            idle: 0,
            done: ring.len == 0,
        };
        walk.enter();
        walk
    }

    /// Opens segment `self.seg` of the current lap.
    fn enter(&mut self) {
        use Bound::{Excluded, Included, Unbounded};
        let n = self.ring.shards.len();
        let (o, home) = (self.origin, self.home);
        let (shard, bounds) = match (self.seg % (n + 1), self.clockwise) {
            (0, true) => (home, (Excluded(o), Unbounded)),
            (0, false) => (home, (Unbounded, Excluded(o))),
            (lap, true) if lap == n => (home, (Unbounded, Included(o))),
            (lap, false) if lap == n => (home, (Included(o), Unbounded)),
            (lap, true) => ((home + lap) % n, (Unbounded, Unbounded)),
            (lap, false) => ((home + n - lap) % n, (Unbounded, Unbounded)),
        };
        self.cur = self
            .ring
            .shards
            .get(shard)
            .map(|sh| (sh, sh.index.range(bounds)));
    }
}

impl Iterator for Walk<'_> {
    type Item = Visit;

    fn next(&mut self) -> Option<Visit> {
        let n = self.ring.shards.len();
        while !self.done {
            let step = match self.cur.as_mut() {
                Some((sh, range)) => {
                    let e = if self.clockwise {
                        range.next()
                    } else {
                        range.next_back()
                    };
                    e.map(|(&id, &idx)| (*sh, id, idx as usize))
                }
                None => None,
            };
            match step {
                Some((_, id, _)) if id == self.origin => self.done = true,
                Some((sh, id, i)) => {
                    self.idle = 0;
                    return Some(Visit {
                        id,
                        owner: sh.owners.get(i).copied().unwrap_or(FREE_OWNER),
                        load: sh.tasks.get(i).map_or(0, |t| t.len() as u64),
                    });
                }
                // A whole lap of empty segments: nothing left to yield.
                None if self.idle > n => self.done = true,
                None => {
                    self.idle += 1;
                    self.seg += 1;
                    self.enter();
                }
            }
        }
        None
    }
}

impl std::iter::FusedIterator for Walk<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn id(v: u128) -> Id {
        Id::from(v)
    }

    fn ring_with(ids: &[u128]) -> Ring {
        let mut r = Ring::new();
        for (i, &v) in ids.iter().enumerate() {
            r.insert_vnode(id(v), i).unwrap();
        }
        r
    }

    #[test]
    fn empty_ring_basics() {
        let r = Ring::default();
        assert!(r.is_empty());
        assert_eq!(r.total_tasks(), 0);
        assert_eq!(r.owner_of_key(id(5)), None);
        assert_eq!(r.successor_of(id(5)), None);
        assert_eq!(r.predecessor_of(id(5)), None);
    }

    #[test]
    fn owner_of_key_wraps() {
        let r = ring_with(&[100, 200, 300]);
        assert_eq!(r.owner_of_key(id(150)), Some(id(200)));
        assert_eq!(r.owner_of_key(id(200)), Some(id(200)));
        assert_eq!(r.owner_of_key(id(301)), Some(id(100)));
        assert_eq!(r.owner_of_key(id(50)), Some(id(100)));
    }

    #[test]
    fn successor_predecessor_wrap() {
        let r = ring_with(&[100, 200, 300]);
        assert_eq!(r.successor_of(id(300)), Some(id(100)));
        assert_eq!(r.predecessor_of(id(100)), Some(id(300)));
        assert_eq!(r.successor_of(id(250)), Some(id(300)));
        assert_eq!(r.predecessor_of(id(250)), Some(id(200)));
    }

    #[test]
    fn successors_list_stops_at_wrap() {
        let r = ring_with(&[100, 200, 300]);
        assert_eq!(r.successors(id(100), 5), vec![id(200), id(300)]);
        assert_eq!(r.predecessors(id(100), 5), vec![id(300), id(200)]);
        assert_eq!(r.successors(id(100), 1), vec![id(200)]);
        // From an absent id the walk never comes back round: it repeats.
        assert_eq!(
            r.successors(id(150), 5),
            [200, 300, 100, 200, 300].map(id).to_vec()
        );
    }

    #[test]
    fn assign_tasks_places_keys_in_arcs() {
        let mut r = ring_with(&[100, 200, 300]);
        r.assign_tasks(vec![id(150), id(250), id(50), id(350), id(200)]);
        // (100,200] -> 150, 200 ; (200,300] -> 250 ; wrap (300,100] -> 50, 350.
        assert_eq!(r.load(id(200)), 2);
        assert_eq!(r.load(id(300)), 1);
        assert_eq!(r.load(id(100)), 2);
        assert_eq!(r.total_tasks(), 5);
        r.check_invariants().unwrap();
    }

    #[test]
    fn insert_vnode_splits_successor() {
        let mut r = ring_with(&[100, 300]);
        r.assign_tasks(vec![id(150), id(250), id(280)]);
        assert_eq!(r.load(id(300)), 3);
        // New vnode at 260 takes keys in (100, 260] = {150, 250}.
        assert_eq!(
            r.insert_vnode(id(260), 9),
            Ok(Split {
                acquired: 2,
                victim: Some(1)
            })
        );
        assert_eq!(r.load(id(260)), 2);
        assert_eq!(r.load(id(300)), 1);
        assert_eq!(r.owner_chains().get(9), Some(&vec![id(260)]));
        assert_eq!(
            r.insert_vnode(id(260), 1),
            Err(RingError::Occupied(id(260)))
        );
        r.check_invariants().unwrap();
    }

    #[test]
    fn remove_vnode_merges_into_successor_across_the_wrap() {
        let mut r = ring_with(&[100, 200, 300]);
        r.assign_tasks(vec![id(150), id(160), id(250), id(350)]);
        let merge = |owner, moved, succ, succ_owner| Merge {
            owner,
            moved,
            succ: id(succ),
            succ_owner,
        };
        assert_eq!(r.remove_vnode(id(200)), Ok(merge(1, 2, 300, 2)));
        assert_eq!(r.load(id(300)), 3);
        assert_eq!(r.remove_vnode(id(300)), Ok(merge(2, 3, 100, 0)));
        assert_eq!(r.load(id(100)), 4);
        assert_eq!(r.total_tasks(), 4);
        r.check_invariants().unwrap();
    }

    #[test]
    fn last_vnode_rules() {
        let mut r = Ring::with_shards(4);
        let at = id(42);
        r.insert_vnode(at, 0).unwrap();
        r.assign_tasks(vec![id(7)]);
        assert_eq!(r.remove_vnode(at), Err(RingError::LastVNode));
        assert!(r.pop_task(at));
        assert!(!r.pop_task(at));
        assert!(!r.pop_task(id(999)));
        assert_eq!(
            r.remove_vnode(at),
            Ok(Merge {
                owner: 0,
                moved: 0,
                succ: at,
                succ_owner: 0
            })
        );
        assert!(r.is_empty());
        assert_eq!(r.remove_vnode(at), Err(RingError::Unknown(at)));
        r.check_invariants().unwrap();
    }

    #[test]
    fn median_task_key_bisects_in_ring_order() {
        let mut r = ring_with(&[1000]);
        r.assign_tasks((1..=9u128).map(|v| id(v * 100)).collect());
        assert_eq!(r.median_task_key(id(1000)), Some(id(500)));
        assert_eq!(r.insert_vnode(id(500), 7).map(|s| s.acquired), Ok(5));
        // Wrap arc (300, 100]: keys 400, 500, 50 in ring order.
        let mut w = ring_with(&[100, 300]);
        w.assign_tasks(vec![id(400), id(500), id(50)]);
        assert_eq!(w.median_task_key(id(100)), Some(id(500)));
        assert_eq!(w.median_task_key(id(300)), None, "idle node");
        assert_eq!(w.median_task_key(id(999)), None, "absent node");
    }

    #[test]
    fn merge_sorted_is_correct() {
        let a = vec![id(1), id(5), id(9)];
        let b = vec![id(2), id(5), id(10)];
        let m = merge_sorted(&a, &b);
        assert_eq!(m, vec![id(1), id(2), id(5), id(5), id(9), id(10)]);
        assert_eq!(merge_sorted(&[], &a), a);
        assert_eq!(merge_sorted(&a, &[]), a);
    }

    #[test]
    fn pop_task_is_roughly_uniform_over_the_arc() {
        // Consume half the tasks of one big arc; the survivors should
        // not be concentrated at either end.
        let mut r = ring_with(&[1_000_000]);
        r.assign_tasks((1..=1000u128).map(|v| id(v * 100)).collect());
        for _ in 0..500 {
            assert!(r.pop_task(id(1_000_000)));
        }
        let low = r.rows()[0].2.iter().filter(|&&k| k <= id(50_000)).count();
        // Expect ≈ 250 below the midpoint; fail only on gross bias.
        assert!((150..=350).contains(&low), "low-half survivors: {low}");
    }

    #[test]
    fn ring_error_display() {
        let at = Id::from(5u64);
        assert!(RingError::Occupied(at).to_string().contains("occupied"));
        assert!(RingError::Unknown(at)
            .to_string()
            .contains("no virtual node"));
        assert!(RingError::LastVNode.to_string().contains("last"));
    }

    #[test]
    fn shard_of_is_monotone_and_in_range() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for shards in [1usize, 2, 3, 8, 64] {
            let mut pairs: Vec<(Id, usize)> = (0..500)
                .map(|_| Id::random(&mut rng))
                .map(|i| (i, shard_of(i, shards)))
                .collect();
            pairs.sort();
            for w in pairs.windows(2) {
                assert!(w[0].1 <= w[1].1, "shard_of must be monotone");
            }
            assert!(pairs.iter().all(|&(_, s)| s < shards));
        }
        assert_eq!(shard_of(Id::ZERO, 64), 0);
        assert_eq!(shard_of(Id::MAX, 64), 63);
    }

    #[test]
    fn owner_chains_keep_insertion_order_through_removals() {
        // Owner 0 holds three vnodes in three different shards; its
        // chain must list them in insertion order and close every gap
        // a removal leaves — head, middle, and tail.
        let mut r = Ring::with_shards(8);
        let top = |v: u64| Id::from_limbs(0, 0, v << 24);
        for (v, owner) in [(0xF0u64, 0usize), (0x10, 1), (0x70, 0), (0x30, 0)] {
            r.insert_vnode(top(v), owner).unwrap();
        }
        let chain = |r: &Ring, o: usize| r.owner_chains().get(o).cloned().unwrap_or_default();
        assert_eq!(chain(&r, 0), vec![top(0xF0), top(0x70), top(0x30)]);
        assert_eq!(chain(&r, 1), vec![top(0x10)]);
        r.remove_vnode(top(0x70)).unwrap();
        assert_eq!(chain(&r, 0), vec![top(0xF0), top(0x30)]);
        r.remove_vnode(top(0xF0)).unwrap();
        assert_eq!(chain(&r, 0), vec![top(0x30)]);
        r.insert_vnode(top(0x90), 0).unwrap();
        assert_eq!(chain(&r, 0), vec![top(0x30), top(0x90)]);
        r.remove_vnode(top(0x90)).unwrap();
        r.remove_vnode(top(0x30)).unwrap();
        assert!(chain(&r, 0).is_empty());
        assert!(chain(&r, 7).is_empty(), "unknown owners hold nothing");
        r.check_invariants().unwrap();
    }

    #[test]
    fn planned_pops_match_sequential_pops_across_vnodes() {
        // Two identical rings where every owner holds two vnodes, one
        // drained pop by pop in worker order (primary first, then the
        // second vnode), one through plan → stream → replay.
        for shards in [1usize, 3, 8] {
            let mut rng = ChaCha8Rng::seed_from_u64(3);
            let ids: Vec<Id> = (0..40).map(|_| Id::random(&mut rng)).collect();
            let keys: Vec<Id> = (0..1_200).map(|_| Id::random(&mut rng)).collect();
            let build = || {
                let mut r = Ring::with_shards(shards);
                for (i, &at) in ids.iter().enumerate() {
                    r.insert_vnode(at, i % 20).unwrap();
                }
                r.assign_tasks(keys.clone());
                r
            };
            let (mut seq, mut fast) = (build(), build());
            for _tick in 0..12 {
                // Capacity 3 per owner, spread over its chain.
                let mut total = 0u64;
                for owner in 0..20 {
                    total += fast.plan_owner(owner, 3) as u64;
                    let mut cap = 3;
                    for at in seq.owner_chains()[owner].clone() {
                        while cap > 0 && seq.pop_task(at) {
                            cap -= 1;
                        }
                    }
                }
                assert_eq!(fast.run_pops(), total);
                assert_eq!(seq.rows(), fast.rows(), "{shards} shards");
            }
            fast.check_invariants().unwrap();
        }
    }
}
