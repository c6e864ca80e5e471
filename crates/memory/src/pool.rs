//! The rack-wide software-defined memory pool.
//!
//! This is the resource the SDM controller draws from when it serves
//! scale-up requests: the union of all dMEMBRICK capacities, carved into
//! [`MemorySegment`]s and granted to compute bricks. Several placement
//! policies are provided; the power-conscious one prefers dMEMBRICKs that
//! already serve traffic so that untouched bricks can stay powered off
//! (Section IV-C, role "b": power-consumption-conscious selection).
//!
//! The pool keeps no segment table of its own: each live segment's id and
//! owner sit in its dMEMBRICK allocator's record for the segment's offset,
//! so releasing or checking a segment touches only that brick's
//! allocator, found by `(membrick, offset)`.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use dredbox_bricks::{BrickId, BrickMap};
use dredbox_sim::units::ByteSize;

use crate::allocator::BrickAllocator;
use crate::error::MemoryError;
use crate::segment::{MemorySegment, SegmentId};

/// Placement policy for choosing which dMEMBRICK serves an allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum AllocationPolicy {
    /// First registered brick with enough contiguous space.
    #[default]
    FirstFit,
    /// Brick whose largest free block leaves the least slack (densest fit).
    BestFit,
    /// Brick with the most free space (spreads load, maximises per-brick
    /// bandwidth headroom).
    WorstFit,
    /// Prefer bricks that are already exporting memory, to keep untouched
    /// bricks powered off (the power-aware policy of the SDM controller).
    PowerAware,
}

/// How the pool evaluates its [`AllocationPolicy`] per allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum PickStrategy {
    /// Answer policy queries from the incrementally maintained brick index —
    /// the production hot path.
    #[default]
    Indexed,
    /// Rebuild the per-brick candidate list and scan it per allocation, as
    /// the pre-index pool did. Kept as the reference implementation for
    /// equivalence testing and benchmarking; both strategies make identical
    /// placement decisions.
    ReferenceScan,
}

/// The per-brick facts the selection policies rank on, as indexed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct BrickStat {
    /// Free bytes (possibly fragmented).
    free: u64,
    /// Largest contiguous free block.
    largest: u64,
    /// Whether the brick currently exports any allocation.
    in_use: bool,
}

/// The largest block of an in-use brick; 0 for an unused one.
fn in_use_largest(stat: &BrickStat) -> u64 {
    if stat.in_use {
        stat.largest
    } else {
        0
    }
}

/// A tournament tree over array positions: node `n`'s children are `2n`
/// and `2n + 1`, leaves start at `leaves`, and each node holds the
/// position with the largest key below it (lowest position on ties;
/// `EMPTY` for padding). Node 1 is the overall winner, read in `O(1)`;
/// replaying one leaf's matches is `O(log n)`.
#[derive(Debug, Clone, Default, PartialEq)]
struct MaxTree {
    nodes: Vec<u32>,
    leaves: usize,
}

/// A tournament-tree node with no position below it.
const EMPTY: u32 = u32::MAX;

impl MaxTree {
    fn build(len: usize, key: impl Fn(usize) -> u64) -> Self {
        let leaves = len.next_power_of_two();
        let mut tree = MaxTree {
            nodes: vec![EMPTY; 2 * leaves],
            leaves,
        };
        for pos in 0..len {
            tree.nodes[leaves + pos] = pos as u32;
        }
        for node in (1..leaves).rev() {
            tree.play(node, &key);
        }
        tree
    }

    fn play(&mut self, node: usize, key: impl Fn(usize) -> u64) {
        let (a, b) = (self.nodes[2 * node], self.nodes[2 * node + 1]);
        self.nodes[node] = if b != EMPTY && (a == EMPTY || key(b as usize) > key(a as usize)) {
            b
        } else {
            a
        };
    }

    /// Puts position `pos` on its (free) leaf and replays its matches.
    fn place(&mut self, pos: usize, key: impl Fn(usize) -> u64) {
        self.nodes[self.leaves + pos] = pos as u32;
        self.replay(pos, key);
    }

    /// Replays the matches on the path from `pos`'s leaf to the root.
    fn replay(&mut self, pos: usize, key: impl Fn(usize) -> u64) {
        let mut node = (self.leaves + pos) / 2;
        while node >= 1 {
            self.play(node, &key);
            node /= 2;
        }
    }

    /// The position with the largest key, lowest on ties.
    fn winner(&self) -> Option<usize> {
        self.nodes
            .get(1)
            .filter(|&&p| p != EMPTY)
            .map(|&p| p as usize)
    }
}

/// Incrementally maintained selection index over the pool's dMEMBRICKs,
/// updated whenever a brick's allocator changes. A rack holds at most a
/// few hundred dMEMBRICKs, so the index is one dense stat array in id
/// order: an update is a binary search plus one write, and a policy query
/// is at most one allocation-free pass over the array that keeps the
/// first (lowest-id) brick on score ties — the deterministic tie-breaks of
/// the reference scan. Two tournament trees serve the largest contiguous
/// block — over all bricks (every digest refresh reads it) and over the
/// in-use ones — in `O(1)`, so a request no brick can hold contiguously
/// (every split allocation's first pick) never scans.
#[derive(Debug, Clone, Default)]
struct PoolIndex {
    /// Registered (non-failed) bricks ascending by id, with their stats.
    stats: Vec<(BrickId, BrickStat)>,
    /// Positions in `stats` by largest block.
    largest: MaxTree,
    /// Positions in `stats` by largest block, counting only in-use bricks.
    largest_in_use: MaxTree,
    /// One past the highest brick id ever indexed — the slot-vector length
    /// of the id-keyed stat map the snapshot layout records. Not part of
    /// the index's meaning, so equality ignores it.
    id_span: usize,
}

impl PoolIndex {
    /// Inserts or refreshes one brick's stat. `O(log n)`; a brick
    /// registered out of id order, or one that outgrows the trees, re-lays
    /// them out in `O(n)`.
    fn upsert(&mut self, brick: BrickId, stat: BrickStat) {
        self.id_span = self.id_span.max(brick.0 as usize + 1);
        match self.stats.binary_search_by_key(&brick, |&(b, _)| b) {
            Ok(pos) => {
                self.stats[pos].1 = stat;
                let stats = &self.stats;
                self.largest.replay(pos, |p| stats[p].1.largest);
                self.largest_in_use
                    .replay(pos, |p| in_use_largest(&stats[p].1));
            }
            Err(pos) if pos == self.stats.len() && pos < self.largest.leaves => {
                // Registration appends in id order: fill the next leaf.
                self.stats.push((brick, stat));
                let stats = &self.stats;
                self.largest.place(pos, |p| stats[p].1.largest);
                self.largest_in_use
                    .place(pos, |p| in_use_largest(&stats[p].1));
            }
            Err(pos) => {
                self.stats.insert(pos, (brick, stat));
                self.rebuild_trees();
            }
        }
    }

    /// Drops one brick from the index — used when the brick fails and must
    /// stop being a selection candidate entirely. `O(n)`.
    fn remove(&mut self, brick: BrickId) {
        if let Ok(pos) = self.stats.binary_search_by_key(&brick, |&(b, _)| b) {
            self.stats.remove(pos);
            self.rebuild_trees();
        }
    }

    fn rebuild_trees(&mut self) {
        let stats = &self.stats;
        self.largest = MaxTree::build(stats.len(), |p| stats[p].1.largest);
        self.largest_in_use = MaxTree::build(stats.len(), |p| in_use_largest(&stats[p].1));
    }

    /// The brick a tree's winner names, if its key is non-zero (a
    /// candidate).
    fn tree_winner(&self, tree: &MaxTree, key: impl Fn(&BrickStat) -> u64) -> Option<BrickId> {
        let (brick, stat) = self.stats[tree.winner()?];
        (key(&stat) > 0).then_some(brick)
    }

    /// Allocation candidates — bricks with a non-zero largest free block —
    /// in id order.
    fn candidates(&self) -> impl Iterator<Item = (BrickId, BrickStat)> + '_ {
        self.stats.iter().copied().filter(|(_, s)| s.largest > 0)
    }

    /// The candidate minimising `key` among those passing `keep`, lowest id
    /// on ties.
    fn min_by<K: Ord>(
        &self,
        keep: impl Fn(&BrickStat) -> bool,
        key: impl Fn(&BrickStat) -> K,
    ) -> Option<BrickId> {
        let mut best: Option<(K, BrickId)> = None;
        for (brick, stat) in self.candidates().filter(|(_, s)| keep(s)) {
            let k = key(&stat);
            if best.as_ref().map_or(true, |(bk, _)| k < *bk) {
                best = Some((k, brick));
            }
        }
        best.map(|(_, b)| b)
    }

    /// Whether some brick's largest block fits `want`. `O(1)`.
    fn any_fits(&self, want: u64) -> bool {
        self.largest_block() >= want
    }

    /// Lowest-id candidate whose largest block fits `want`.
    fn first_candidate_fit(&self, want: u64) -> Option<BrickId> {
        if !self.any_fits(want) {
            return None;
        }
        self.candidates()
            .find(|(_, s)| s.largest >= want)
            .map(|(b, _)| b)
    }

    /// Lowest-id candidate, fitting or not (the split fallback).
    fn min_candidate(&self) -> Option<BrickId> {
        self.candidates().next().map(|(b, _)| b)
    }

    /// Candidate with the smallest largest-block that still fits `want`
    /// (lowest id on ties) — the BestFit query.
    fn tightest_fit(&self, want: u64) -> Option<BrickId> {
        if !self.any_fits(want) {
            return None;
        }
        self.min_by(|s| s.largest >= want, |s| s.largest)
    }

    /// Candidate with the largest contiguous block (lowest id on ties).
    /// `O(1)`.
    fn largest_block_brick(&self) -> Option<BrickId> {
        self.tree_winner(&self.largest, |s| s.largest)
    }

    /// Largest contiguous free block on any brick. `O(1)`.
    fn largest_block(&self) -> u64 {
        self.largest.winner().map_or(0, |p| self.stats[p].1.largest)
    }

    /// Candidate with the most free bytes (lowest id on ties) — the
    /// WorstFit query.
    fn most_free_brick(&self) -> Option<BrickId> {
        self.min_by(|_| true, |s| std::cmp::Reverse(s.free))
    }

    /// Fullest in-use candidate (fewest free bytes, lowest id on ties) whose
    /// largest block fits `want` — the power-aware packing query.
    fn fullest_in_use_fit(&self, want: u64) -> Option<BrickId> {
        let in_use_max = self
            .largest_in_use
            .winner()
            .map_or(0, |p| in_use_largest(&self.stats[p].1));
        if in_use_max < want {
            return None;
        }
        self.min_by(|s| s.in_use && s.largest >= want, |s| s.free)
    }

    /// In-use candidate with the largest contiguous block (lowest id on
    /// ties). `O(1)`.
    fn largest_in_use_block(&self) -> Option<BrickId> {
        self.tree_winner(&self.largest_in_use, in_use_largest)
    }

    /// Bricks with no allocation at all (power-off candidates), in id
    /// order.
    fn unused(&self) -> impl Iterator<Item = BrickId> + '_ {
        self.stats
            .iter()
            .filter(|(_, s)| !s.in_use)
            .map(|&(b, _)| b)
    }

    /// The candidates' `(key, brick)` pairs sorted `(key asc, id asc)`, as
    /// the tree-based layout's rank sets held them.
    fn ranked(
        &self,
        keep: impl Fn(&BrickStat) -> bool,
        key: impl Fn(&BrickStat) -> u64,
    ) -> Vec<(u64, BrickId)> {
        let mut ranked: Vec<(u64, BrickId)> = self
            .candidates()
            .filter(|(_, s)| keep(s))
            .map(|(b, s)| (key(&s), b))
            .collect();
        ranked.sort_unstable();
        ranked
    }

    /// The derived sections of the tree-based layout, in stream order:
    /// candidate ids, then candidates by free bytes and by largest block,
    /// then in-use candidates by free bytes and by largest block.
    fn rank_sections(&self) -> (Vec<BrickId>, [Vec<(u64, BrickId)>; 4]) {
        let all = |_: &BrickStat| true;
        let in_use = |s: &BrickStat| s.in_use;
        let free = |s: &BrickStat| s.free;
        let largest = |s: &BrickStat| s.largest;
        (
            self.candidates().map(|(b, _)| b).collect(),
            [
                self.ranked(all, free),
                self.ranked(all, largest),
                self.ranked(in_use, free),
                self.ranked(in_use, largest),
            ],
        )
    }
}

/// A grant: the set of segments that together satisfy one allocation
/// request. A single request may span several dMEMBRICKs when no single
/// brick has enough contiguous space.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryGrant {
    segments: Vec<MemorySegment>,
}

impl MemoryGrant {
    /// The segments making up the grant.
    pub fn segments(&self) -> &[MemorySegment] {
        &self.segments
    }

    /// Total granted bytes.
    pub fn total(&self) -> ByteSize {
        self.segments.iter().map(|s| s.size).sum()
    }

    /// Number of distinct dMEMBRICKs involved.
    pub fn membrick_count(&self) -> usize {
        let mut bricks: Vec<BrickId> = self.segments.iter().map(|s| s.membrick).collect();
        bricks.sort_unstable();
        bricks.dedup();
        bricks.len()
    }
}

/// The software-defined memory pool across all registered dMEMBRICKs.
///
/// ```
/// use dredbox_memory::pool::{AllocationPolicy, MemoryPool};
/// use dredbox_bricks::{BrickId, BrickMap};
/// use dredbox_sim::units::ByteSize;
///
/// let mut pool = MemoryPool::new(AllocationPolicy::PowerAware);
/// pool.register_membrick(BrickId(10), ByteSize::from_gib(32));
/// pool.register_membrick(BrickId(11), ByteSize::from_gib(32));
/// let g1 = pool.allocate(BrickId(0), ByteSize::from_gib(8))?;
/// let g2 = pool.allocate(BrickId(1), ByteSize::from_gib(8))?;
/// // The power-aware policy packs both grants onto the same brick, leaving
/// // the other one untouched (a power-off candidate).
/// assert_eq!(g1.segments()[0].membrick, g2.segments()[0].membrick);
/// assert_eq!(pool.unused_membricks().count(), 1);
/// # Ok::<(), dredbox_memory::MemoryError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemoryPool {
    policy: AllocationPolicy,
    strategy: PickStrategy,
    allocators: BrickMap<BrickAllocator>,
    /// Selection index over the allocators, refreshed on every allocator
    /// mutation so policy decisions never rebuild a candidate list.
    index: PoolIndex,
    /// Aggregate byte ledger, so the rack-wide totals are `O(1)` instead of
    /// a sum over every brick.
    capacity_total: u64,
    free_total: u64,
    /// The id the next carved segment gets. Live segments themselves are
    /// recorded by their dMEMBRICK's allocator, keyed by offset.
    next_segment: u64,
    /// Failed dMEMBRICKs and the capacity each held, so a repair can
    /// re-admit the brick without the caller re-deriving its size.
    failed: BTreeMap<BrickId, u64>,
}

impl MemoryPool {
    /// Creates an empty pool with the given placement policy.
    pub fn new(policy: AllocationPolicy) -> Self {
        MemoryPool {
            policy,
            strategy: PickStrategy::Indexed,
            allocators: BrickMap::new(),
            index: PoolIndex::default(),
            capacity_total: 0,
            free_total: 0,
            next_segment: 0,
            failed: BTreeMap::new(),
        }
    }

    /// The active placement policy.
    pub fn policy(&self) -> AllocationPolicy {
        self.policy
    }

    /// Changes the placement policy for future allocations.
    pub fn set_policy(&mut self, policy: AllocationPolicy) {
        self.policy = policy;
    }

    /// The active selection strategy.
    pub fn pick_strategy(&self) -> PickStrategy {
        self.strategy
    }

    /// Switches between the indexed selection hot path and the reference
    /// candidate-list scan (they make identical decisions; the scan exists
    /// for equivalence testing and benchmarking).
    pub fn set_pick_strategy(&mut self, strategy: PickStrategy) {
        self.strategy = strategy;
    }

    /// Registers a dMEMBRICK and its capacity with the pool.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::DuplicateMemBrick`] if already registered.
    pub fn register_membrick(&mut self, brick: BrickId, capacity: ByteSize) -> &mut Self {
        // Double registration is a programming error in callers; the
        // fallible variant is `try_register_membrick`.
        self.try_register_membrick(brick, capacity)
            .expect("dMEMBRICK registered twice");
        self
    }

    /// Fallible registration of a dMEMBRICK.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::DuplicateMemBrick`] if already registered.
    pub fn try_register_membrick(
        &mut self,
        brick: BrickId,
        capacity: ByteSize,
    ) -> Result<(), MemoryError> {
        if self.allocators.contains_key(brick) {
            return Err(MemoryError::DuplicateMemBrick { brick });
        }
        self.allocators
            .insert(brick, BrickAllocator::new(brick, capacity));
        self.capacity_total += capacity.as_bytes();
        self.free_total += capacity.as_bytes();
        self.reindex(brick);
        Ok(())
    }

    /// Refreshes one brick's entry in the selection index from its
    /// allocator's authoritative state.
    fn reindex(&mut self, brick: BrickId) {
        if let Some(allocator) = self.allocators.get(brick) {
            self.index.upsert(
                brick,
                BrickStat {
                    free: allocator.free().as_bytes(),
                    largest: allocator.largest_free_block().as_bytes(),
                    in_use: !allocator.is_unused(),
                },
            );
        }
    }

    /// Number of registered dMEMBRICKs.
    pub fn membrick_count(&self) -> usize {
        self.allocators.len()
    }

    /// Total capacity across all bricks. `O(1)`.
    pub fn total_capacity(&self) -> ByteSize {
        ByteSize::from_bytes(self.capacity_total)
    }

    /// Total free bytes across all bricks. `O(1)`.
    pub fn total_free(&self) -> ByteSize {
        ByteSize::from_bytes(self.free_total)
    }

    /// Total allocated bytes across all bricks. `O(1)`.
    pub fn total_allocated(&self) -> ByteSize {
        ByteSize::from_bytes(self.capacity_total - self.free_total)
    }

    /// Largest contiguous free block on any single dMEMBRICK. `O(1)` from
    /// the selection index — the cluster digest's fragmentation feed.
    pub fn largest_free_block(&self) -> ByteSize {
        ByteSize::from_bytes(self.index.largest_block())
    }

    /// The dMEMBRICKs with no allocation at all (power-off candidates),
    /// ascending by id. Served from the selection index — no per-call
    /// snapshot `Vec`.
    pub fn unused_membricks(&self) -> impl Iterator<Item = BrickId> + '_ {
        self.index.unused()
    }

    /// Free bytes on a specific brick.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::UnknownMemBrick`] for unregistered bricks.
    pub fn free_on(&self, brick: BrickId) -> Result<ByteSize, MemoryError> {
        self.allocators
            .get(brick)
            .map(|a| a.free())
            .ok_or(MemoryError::UnknownMemBrick { brick })
    }

    /// Largest contiguous free block on one dMEMBRICK, straight from its
    /// allocator's free list — the from-scratch reference the selection
    /// index (and the cluster digest above it) is verified against.
    ///
    /// # Errors
    ///
    /// Fails if the brick is not registered.
    pub fn largest_free_on(&self, brick: BrickId) -> Result<ByteSize, MemoryError> {
        self.allocators
            .get(brick)
            .map(|a| a.largest_free_block())
            .ok_or(MemoryError::UnknownMemBrick { brick })
    }

    /// Allocates `size` bytes for compute brick `owner`, splitting across
    /// dMEMBRICKs if no single brick can host the request contiguously.
    ///
    /// # Errors
    ///
    /// * [`MemoryError::EmptyRequest`] for a zero-byte request.
    /// * [`MemoryError::OutOfMemory`] if the pool as a whole cannot cover the
    ///   request (nothing is allocated in that case).
    pub fn allocate(&mut self, owner: BrickId, size: ByteSize) -> Result<MemoryGrant, MemoryError> {
        if size.is_zero() {
            return Err(MemoryError::EmptyRequest);
        }
        // Same value either way; the reference strategy stays faithful to
        // the pre-index pool, which re-summed every allocator per request.
        let available = match self.strategy {
            PickStrategy::Indexed => self.total_free(),
            PickStrategy::ReferenceScan => self.allocators.values().map(|a| a.free()).sum(),
        };
        if size > available {
            return Err(MemoryError::OutOfMemory {
                requested: size,
                available,
            });
        }
        let mut remaining = size;
        let mut segments = Vec::new();
        while !remaining.is_zero() {
            let Some(brick) = self.pick_brick(remaining) else {
                // Roll back anything we carved so far.
                let grant = MemoryGrant { segments };
                self.release_grant(&grant)
                    .expect("rollback of freshly carved segments cannot fail");
                return Err(MemoryError::OutOfMemory {
                    requested: size,
                    available: self.total_free(),
                });
            };
            let allocator = self
                .allocators
                .get_mut(brick)
                .expect("picked brick is registered");
            let chunk = remaining.min(allocator.largest_free_block());
            let id = SegmentId(self.next_segment);
            let offset = allocator
                .allocate_segment(chunk, id, owner)
                .expect("picked brick has the space");
            self.next_segment += 1;
            self.free_total -= chunk.as_bytes();
            self.reindex(brick);
            segments.push(MemorySegment {
                id,
                membrick: brick,
                offset,
                size: chunk,
                owner,
            });
            remaining = remaining.saturating_sub(chunk);
        }
        Ok(MemoryGrant { segments })
    }

    /// Releases one live segment back to its dMEMBRICK. The segment is
    /// found by `(membrick, offset)` and must carry the live segment's id,
    /// so a stale copy — released already, or lost with a failed brick
    /// whose replacement reused the offset — is refused.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::NoSuchSegment`] if the segment is not live.
    pub fn release(&mut self, segment: &MemorySegment) -> Result<(), MemoryError> {
        let allocator =
            self.allocators
                .get_mut(segment.membrick)
                .ok_or(MemoryError::NoSuchSegment {
                    segment: segment.id,
                })?;
        allocator.release_segment(segment)?;
        self.free_total += segment.size.as_bytes();
        self.reindex(segment.membrick);
        Ok(())
    }

    /// Releases every segment of a grant.
    ///
    /// # Errors
    ///
    /// Returns the first error encountered; earlier segments stay released.
    pub fn release_grant(&mut self, grant: &MemoryGrant) -> Result<(), MemoryError> {
        for seg in grant.segments() {
            self.release(seg)?;
        }
        Ok(())
    }

    /// Whether `segment` is live: its dMEMBRICK holds an allocation at its
    /// offset carrying its id.
    pub fn is_live(&self, segment: &MemorySegment) -> bool {
        self.allocators
            .get(segment.membrick)
            .and_then(|a| a.segment_at(segment.offset))
            .is_some_and(|live| live.id == segment.id)
    }

    /// Re-points every segment of a live grant at a new owning compute
    /// brick — the memory-side half of a VM migration: the bytes stay where
    /// they are on their dMEMBRICKs, only the consumer changes. Returns the
    /// grant as it now stands. The operation is atomic: if any segment is
    /// unknown, nothing is reassigned.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::NoSuchSegment`] if any segment of the grant is
    /// not live in the pool.
    pub fn reassign_owner(
        &mut self,
        grant: &MemoryGrant,
        new_owner: BrickId,
    ) -> Result<MemoryGrant, MemoryError> {
        for seg in grant.segments() {
            if !self.is_live(seg) {
                return Err(MemoryError::NoSuchSegment { segment: seg.id });
            }
        }
        let mut segments = Vec::with_capacity(grant.segments().len());
        for seg in grant.segments() {
            self.allocators
                .get_mut(seg.membrick)
                .expect("checked above")
                .set_owner(seg, new_owner);
            segments.push(MemorySegment {
                owner: new_owner,
                ..*seg
            });
        }
        Ok(MemoryGrant { segments })
    }

    /// Every live segment, ascending by id — a walk over every dMEMBRICK's
    /// allocation records.
    fn live_segments(&self) -> Vec<MemorySegment> {
        let mut all: Vec<MemorySegment> = self
            .allocators
            .values()
            .flat_map(|a| a.segments())
            .collect();
        all.sort_unstable_by_key(|s| s.id);
        all
    }

    /// All live segments granted to `owner`, ascending by id.
    pub fn segments_of(&self, owner: BrickId) -> Vec<MemorySegment> {
        let mut owned: Vec<MemorySegment> = self
            .allocators
            .values()
            .flat_map(|a| a.segments())
            .filter(|s| s.owner == owner)
            .collect();
        owned.sort_unstable_by_key(|s| s.id);
        owned
    }

    /// Number of live segments.
    pub fn segment_count(&self) -> usize {
        self.allocators.values().map(|a| a.allocation_count()).sum()
    }

    /// Fails a dMEMBRICK: its capacity leaves the pool, it stops being a
    /// selection candidate, and every segment resident on it is lost.
    /// Returns the lost segments (ascending by id) so the orchestration
    /// layer can unwind the grants and RMST windows that referenced them.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::UnknownMemBrick`] if the brick is not
    /// registered (or has already failed).
    pub fn fail_membrick(&mut self, brick: BrickId) -> Result<Vec<MemorySegment>, MemoryError> {
        let allocator = self
            .allocators
            .remove(brick)
            .ok_or(MemoryError::UnknownMemBrick { brick })?;
        let capacity = allocator.capacity().as_bytes();
        self.capacity_total -= capacity;
        self.free_total -= allocator.free().as_bytes();
        self.index.remove(brick);
        let mut lost: Vec<MemorySegment> = allocator.segments().collect();
        lost.sort_unstable_by_key(|s| s.id);
        self.failed.insert(brick, capacity);
        Ok(lost)
    }

    /// Repairs a previously failed dMEMBRICK: the replacement brick rejoins
    /// the pool empty, with the capacity the failed one held. Returns that
    /// capacity.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::UnknownMemBrick`] if the brick is not
    /// currently failed.
    pub fn repair_membrick(&mut self, brick: BrickId) -> Result<ByteSize, MemoryError> {
        let capacity = self
            .failed
            .remove(&brick)
            .ok_or(MemoryError::UnknownMemBrick { brick })?;
        self.allocators.insert(
            brick,
            BrickAllocator::new(brick, ByteSize::from_bytes(capacity)),
        );
        self.capacity_total += capacity;
        self.free_total += capacity;
        self.reindex(brick);
        Ok(ByteSize::from_bytes(capacity))
    }

    /// Whether `brick` is currently failed.
    pub fn is_membrick_failed(&self, brick: BrickId) -> bool {
        self.failed.contains_key(&brick)
    }

    /// Currently failed dMEMBRICKs, ascending.
    pub fn failed_membricks(&self) -> impl Iterator<Item = BrickId> + '_ {
        self.failed.keys().copied()
    }

    /// Selects the dMEMBRICK that serves (part of) an allocation of `want`
    /// bytes, honouring the active policy. Dispatches to the indexed hot
    /// path or the reference candidate-list scan; both make identical,
    /// deterministic decisions (a property test holds them together).
    fn pick_brick(&self, want: ByteSize) -> Option<BrickId> {
        match self.strategy {
            PickStrategy::Indexed => self.pick_brick_indexed(want),
            PickStrategy::ReferenceScan => self.pick_brick_scan(want),
        }
    }

    /// Index-backed selection: no candidate list is rebuilt and no per-call
    /// allocation happens. Each query is one pass over the dense stat
    /// array (the first-fit walk stops at the first fit); the
    /// largest-block fallback is `O(1)`.
    fn pick_brick_indexed(&self, want: ByteSize) -> Option<BrickId> {
        let want = want.as_bytes();
        match self.policy {
            AllocationPolicy::FirstFit => self
                .index
                .first_candidate_fit(want)
                .or_else(|| self.index.min_candidate()),
            AllocationPolicy::BestFit => self
                .index
                .tightest_fit(want)
                .or_else(|| self.index.largest_block_brick()),
            AllocationPolicy::WorstFit => self.index.most_free_brick(),
            AllocationPolicy::PowerAware => self
                .index
                .fullest_in_use_fit(want)
                .or_else(|| self.index.largest_in_use_block())
                .or_else(|| self.index.first_candidate_fit(want))
                .or_else(|| self.index.largest_block_brick()),
        }
    }

    /// Reference selection: rebuilds the per-brick candidate list and scans
    /// it, exactly as the pre-index pool did (`O(bricks)` plus a `Vec` per
    /// call). Kept for equivalence testing and benchmarking.
    fn pick_brick_scan(&self, want: ByteSize) -> Option<BrickId> {
        use std::cmp::Reverse;

        /// Per-brick snapshot used for policy decisions.
        #[derive(Clone, Copy)]
        struct Candidate {
            brick: BrickId,
            largest: u64,
            free: u64,
            in_use: bool,
        }
        let candidates: Vec<Candidate> = self
            .allocators
            .values()
            .filter(|a| !a.largest_free_block().is_zero())
            .map(|a| Candidate {
                brick: a.brick(),
                largest: a.largest_free_block().as_bytes(),
                free: a.free().as_bytes(),
                in_use: !a.is_unused(),
            })
            .collect();
        if candidates.is_empty() {
            return None;
        }
        let want_bytes = want.as_bytes();
        let fits = |c: &Candidate| c.largest >= want_bytes;
        // Every policy breaks score ties on the lowest BrickId, so placement
        // is deterministic regardless of candidate ordering — the scenario
        // engine's replay guarantee depends on it.
        let chosen: Option<Candidate> = match self.policy {
            AllocationPolicy::FirstFit => candidates
                .iter()
                .copied()
                .filter(fits)
                .min_by_key(|c| c.brick)
                .or_else(|| candidates.iter().copied().min_by_key(|c| c.brick)),
            AllocationPolicy::BestFit => candidates
                .iter()
                .copied()
                .filter(fits)
                .min_by_key(|c| (c.largest, c.brick))
                .or_else(|| {
                    candidates
                        .iter()
                        .copied()
                        .max_by_key(|c| (c.largest, Reverse(c.brick)))
                }),
            AllocationPolicy::WorstFit => candidates
                .iter()
                .copied()
                .max_by_key(|c| (c.free, Reverse(c.brick))),
            AllocationPolicy::PowerAware => {
                // Prefer bricks already in use; among them, the fullest that
                // still fits. Fall back to waking the brick with the largest
                // contiguous block.
                let in_use: Vec<Candidate> =
                    candidates.iter().copied().filter(|c| c.in_use).collect();
                in_use
                    .iter()
                    .copied()
                    .filter(fits)
                    .min_by_key(|c| (c.free, c.brick))
                    .or_else(|| {
                        in_use
                            .iter()
                            .copied()
                            .max_by_key(|c| (c.largest, Reverse(c.brick)))
                    })
                    .or_else(|| {
                        candidates
                            .iter()
                            .copied()
                            .filter(fits)
                            .min_by_key(|c| c.brick)
                    })
                    .or_else(|| {
                        candidates
                            .iter()
                            .copied()
                            .max_by_key(|c| (c.largest, Reverse(c.brick)))
                    })
            }
        };
        chosen.map(|c| c.brick)
    }
}

// Deterministic snapshot codec impls (see `dredbox_snap`).
dredbox_snap::snap_unit_enum!(AllocationPolicy {
    FirstFit = 0,
    BestFit = 1,
    WorstFit = 2,
    PowerAware = 3,
});
dredbox_snap::snap_unit_enum!(PickStrategy {
    Indexed = 0,
    ReferenceScan = 1,
});
dredbox_snap::snap_struct!(BrickStat {
    free,
    largest,
    in_use,
});

impl PartialEq for PoolIndex {
    fn eq(&self, other: &Self) -> bool {
        self.stats == other.stats
            && self.largest == other.largest
            && self.largest_in_use == other.largest_in_use
    }
}

/// Writes the tree-based layout — an id-keyed stat map, then the candidate
/// set, four `(key, brick)` rank sets and the unused set — derived from the
/// dense array. Decoding rebuilds the array from the stat map and rejects a
/// stream whose recorded sections disagree with it.
impl dredbox_snap::Snap for PoolIndex {
    fn snap(&self, out: &mut Vec<u8>) {
        let mut by_id = self.stats.iter().peekable();
        let slots = (0..self.id_span).map(|i| {
            by_id
                .next_if(|(b, _)| b.0 as usize == i)
                .map(|&(_, stat)| stat)
        });
        dredbox_snap::snap_seq(self.id_span, slots, out);
        self.stats.len().snap(out);
        let (candidates, ranks) = self.rank_sections();
        candidates.snap(out);
        for rank in &ranks {
            rank.snap(out);
        }
        dredbox_snap::snap_seq(self.unused().count(), self.unused(), out);
    }

    fn unsnap(r: &mut dredbox_snap::Reader<'_>) -> Result<Self, dredbox_snap::SnapError> {
        const TY: &str = "PoolIndex";
        let inconsistent = dredbox_snap::SnapError::Inconsistent { ty: TY };
        let slots: Vec<Option<BrickStat>> = dredbox_snap::Snap::unsnap(r)?;
        let live: usize = dredbox_snap::Snap::unsnap(r)?;
        let mut index = PoolIndex {
            stats: slots
                .iter()
                .enumerate()
                .filter_map(|(i, s)| s.map(|stat| (BrickId(i as u32), stat)))
                .collect(),
            id_span: slots.len(),
            ..PoolIndex::default()
        };
        if index.stats.len() != live || u32::try_from(slots.len()).is_err() {
            return Err(inconsistent);
        }
        index.rebuild_trees();
        let (candidates, ranks) = index.rank_sections();
        dredbox_snap::expect_seq(r, TY, candidates)?;
        for rank in ranks {
            dredbox_snap::expect_seq(r, TY, rank)?;
        }
        dredbox_snap::expect_seq(r, TY, index.unused())?;
        Ok(index)
    }
}
dredbox_snap::snap_struct!(MemoryGrant { segments });

/// Writes the pool-wide layout: after the allocators (ranges only) and the
/// totals comes an id-ordered `SegmentId → MemorySegment` section, derived
/// from the allocators' records. Decoding reads it back into them: each
/// allocator must sit at its own brick's slot, each segment must name an
/// untagged live range of its dMEMBRICK, ids must ascend below
/// `next_segment`, and every range must be claimed.
impl dredbox_snap::Snap for MemoryPool {
    fn snap(&self, out: &mut Vec<u8>) {
        self.policy.snap(out);
        self.strategy.snap(out);
        self.allocators.snap(out);
        self.index.snap(out);
        self.capacity_total.snap(out);
        self.free_total.snap(out);
        let live = self.live_segments();
        dredbox_snap::snap_seq(live.len(), live.iter().map(|s| (s.id, *s)), out);
        self.next_segment.snap(out);
        self.failed.snap(out);
    }

    fn unsnap(r: &mut dredbox_snap::Reader<'_>) -> Result<Self, dredbox_snap::SnapError> {
        use dredbox_snap::Snap;
        let inconsistent = dredbox_snap::SnapError::Inconsistent { ty: "MemoryPool" };
        let mut pool = MemoryPool {
            policy: Snap::unsnap(r)?,
            strategy: Snap::unsnap(r)?,
            allocators: Snap::unsnap(r)?,
            index: Snap::unsnap(r)?,
            capacity_total: Snap::unsnap(r)?,
            free_total: Snap::unsnap(r)?,
            next_segment: 0,
            failed: BTreeMap::new(),
        };
        if pool.allocators.iter().any(|(id, a)| a.brick() != id) {
            return Err(inconsistent);
        }
        let segments = r.take_len()?;
        let mut next_id = 0u64;
        for _ in 0..segments {
            let id = SegmentId::unsnap(r)?;
            let segment = MemorySegment::unsnap(r)?;
            let claimed = id == segment.id
                && id.0 >= next_id
                && pool
                    .allocators
                    .get_mut(segment.membrick)
                    .is_some_and(|a| a.claim(&segment));
            if !claimed {
                return Err(inconsistent);
            }
            next_id = id.0.checked_add(1).ok_or(inconsistent.clone())?;
        }
        pool.next_segment = Snap::unsnap(r)?;
        pool.failed = Snap::unsnap(r)?;
        if pool.segment_count() != segments || pool.next_segment < next_id {
            return Err(inconsistent);
        }
        Ok(pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn pool(policy: AllocationPolicy) -> MemoryPool {
        let mut p = MemoryPool::new(policy);
        p.register_membrick(BrickId(10), ByteSize::from_gib(32));
        p.register_membrick(BrickId(11), ByteSize::from_gib(32));
        p.register_membrick(BrickId(12), ByteSize::from_gib(32));
        p
    }

    #[test]
    fn registration_and_capacity() {
        let p = pool(AllocationPolicy::FirstFit);
        assert_eq!(p.membrick_count(), 3);
        assert_eq!(p.total_capacity(), ByteSize::from_gib(96));
        assert_eq!(p.total_free(), ByteSize::from_gib(96));
        assert_eq!(p.unused_membricks().count(), 3);
        assert_eq!(p.free_on(BrickId(10)).unwrap(), ByteSize::from_gib(32));
        assert!(p.free_on(BrickId(99)).is_err());
        let mut p2 = pool(AllocationPolicy::FirstFit);
        assert!(matches!(
            p2.try_register_membrick(BrickId(10), ByteSize::from_gib(1)),
            Err(MemoryError::DuplicateMemBrick { .. })
        ));
    }

    #[test]
    fn allocate_and_release_roundtrip() {
        let mut p = pool(AllocationPolicy::FirstFit);
        let grant = p.allocate(BrickId(0), ByteSize::from_gib(8)).unwrap();
        assert_eq!(grant.total(), ByteSize::from_gib(8));
        assert_eq!(grant.membrick_count(), 1);
        assert_eq!(p.segment_count(), 1);
        assert_eq!(p.segments_of(BrickId(0)).len(), 1);
        assert_eq!(p.total_allocated(), ByteSize::from_gib(8));
        assert!(p.is_live(&grant.segments()[0]));

        p.release_grant(&grant).unwrap();
        assert_eq!(p.total_allocated(), ByteSize::ZERO);
        assert_eq!(p.segment_count(), 0);
        assert!(!p.is_live(&grant.segments()[0]));
        assert!(matches!(
            p.release(&grant.segments()[0]),
            Err(MemoryError::NoSuchSegment { .. })
        ));
    }

    #[test]
    fn request_splits_across_bricks_when_needed() {
        let mut p = pool(AllocationPolicy::FirstFit);
        // 40 GiB cannot fit on a single 32-GiB brick.
        let grant = p.allocate(BrickId(0), ByteSize::from_gib(40)).unwrap();
        assert_eq!(grant.total(), ByteSize::from_gib(40));
        assert!(grant.membrick_count() >= 2);
        assert!(grant.segments().len() >= 2);
    }

    #[test]
    fn oversize_request_fails_without_leaking() {
        let mut p = pool(AllocationPolicy::FirstFit);
        let before = p.total_free();
        assert!(matches!(
            p.allocate(BrickId(0), ByteSize::from_gib(200)),
            Err(MemoryError::OutOfMemory { .. })
        ));
        assert_eq!(p.total_free(), before);
        assert_eq!(p.segment_count(), 0);
        assert!(matches!(
            p.allocate(BrickId(0), ByteSize::ZERO),
            Err(MemoryError::EmptyRequest)
        ));
    }

    #[test]
    fn power_aware_policy_concentrates_allocations() {
        let mut p = pool(AllocationPolicy::PowerAware);
        for vm in 0..3u32 {
            p.allocate(BrickId(vm), ByteSize::from_gib(6)).unwrap();
        }
        // 18 GiB fits on one brick, so two bricks stay untouched.
        assert_eq!(p.unused_membricks().count(), 2);

        // The worst-fit policy would have spread them.
        let mut spread = pool(AllocationPolicy::WorstFit);
        for vm in 0..3u32 {
            spread.allocate(BrickId(vm), ByteSize::from_gib(6)).unwrap();
        }
        assert_eq!(spread.unused_membricks().count(), 0);
    }

    #[test]
    fn best_fit_prefers_tightest_brick() {
        let mut p = MemoryPool::new(AllocationPolicy::BestFit);
        p.register_membrick(BrickId(1), ByteSize::from_gib(32));
        p.register_membrick(BrickId(2), ByteSize::from_gib(8));
        let grant = p.allocate(BrickId(0), ByteSize::from_gib(8)).unwrap();
        assert_eq!(grant.segments()[0].membrick, BrickId(2));
        assert_eq!(p.policy(), AllocationPolicy::BestFit);
    }

    #[test]
    fn policy_can_be_changed_at_runtime() {
        let mut p = pool(AllocationPolicy::FirstFit);
        p.set_policy(AllocationPolicy::PowerAware);
        assert_eq!(p.policy(), AllocationPolicy::PowerAware);
        assert_eq!(AllocationPolicy::default(), AllocationPolicy::FirstFit);
    }

    #[test]
    fn pick_strategy_is_switchable_and_defaults_to_indexed() {
        let mut p = pool(AllocationPolicy::FirstFit);
        assert_eq!(p.pick_strategy(), PickStrategy::Indexed);
        p.set_pick_strategy(PickStrategy::ReferenceScan);
        assert_eq!(p.pick_strategy(), PickStrategy::ReferenceScan);
        assert_eq!(PickStrategy::default(), PickStrategy::Indexed);
    }

    /// The tree-based layout, built from the stats alone: an id-keyed stat
    /// map, the candidate set, four `(key, brick)` rank sets and the unused
    /// set.
    fn rank_set_layout(index: &PoolIndex) -> Vec<u8> {
        use dredbox_snap::Snap;
        use std::collections::BTreeSet;

        let mut map: BrickMap<BrickStat> = BrickMap::new();
        // Reproduce the map's slot length, which never shrinks.
        map.insert(
            BrickId(index.id_span as u32 - 1),
            BrickStat {
                free: 0,
                largest: 0,
                in_use: false,
            },
        );
        map.remove(BrickId(index.id_span as u32 - 1));
        let mut candidates = BTreeSet::new();
        let mut ranks: [BTreeSet<(u64, BrickId)>; 4] = Default::default();
        let mut unused = BTreeSet::new();
        for &(b, s) in &index.stats {
            map.insert(b, s);
            if s.largest > 0 {
                candidates.insert(b);
                ranks[0].insert((s.free, b));
                ranks[1].insert((s.largest, b));
                if s.in_use {
                    ranks[2].insert((s.free, b));
                    ranks[3].insert((s.largest, b));
                }
            }
            if !s.in_use {
                unused.insert(b);
            }
        }
        let mut out = Vec::new();
        map.snap(&mut out);
        candidates.snap(&mut out);
        for rank in &ranks {
            rank.snap(&mut out);
        }
        unused.snap(&mut out);
        out
    }

    #[test]
    fn codec_writes_the_rank_set_layout_and_rejects_contradictions() {
        use dredbox_snap::{Reader, Snap, SnapError};

        let mut p = pool(AllocationPolicy::PowerAware);
        p.register_membrick(BrickId(3), ByteSize::from_gib(8));
        let g = p.allocate(BrickId(0), ByteSize::from_gib(40)).unwrap();
        p.allocate(BrickId(1), ByteSize::from_gib(8)).unwrap();
        p.release(&g.segments()[0]).unwrap();
        p.fail_membrick(BrickId(12)).unwrap();
        let mut bytes = Vec::new();
        p.index.snap(&mut bytes);
        assert_eq!(bytes, rank_set_layout(&p.index));
        let back = PoolIndex::unsnap(&mut Reader::new(&bytes)).expect("round trip");
        assert_eq!(back, p.index);
        assert_eq!(back.largest_block(), p.index.largest_block());

        // Stats of one state followed by the sections of another (both
        // stat sections have the same length).
        let mut r = Reader::new(&bytes);
        Vec::<Option<BrickStat>>::unsnap(&mut r).unwrap();
        usize::unsnap(&mut r).unwrap();
        let head = bytes.len() - r.remaining();
        let mut other = p.index.clone();
        other.upsert(
            BrickId(10),
            BrickStat {
                free: 1,
                largest: 1,
                in_use: true,
            },
        );
        let mut forged = Vec::new();
        other.snap(&mut forged);
        forged.truncate(head);
        forged.extend_from_slice(&bytes[head..]);
        assert_eq!(
            PoolIndex::unsnap(&mut Reader::new(&forged)),
            Err(SnapError::Inconsistent { ty: "PoolIndex" })
        );
    }

    #[test]
    fn segments_live_in_their_membrick_records() {
        let mut p = pool(AllocationPolicy::FirstFit);
        let a = p.allocate(BrickId(0), ByteSize::from_gib(8)).unwrap();
        let b = p.allocate(BrickId(1), ByteSize::from_gib(40)).unwrap();
        assert_eq!(p.segment_count(), 1 + b.segments().len());
        assert_eq!(p.segments_of(BrickId(1)), b.segments());

        // Migration re-points the records; the caller's copies stay valid
        // handles because release checks the id, not the owner.
        let moved = p.reassign_owner(&a, BrickId(7)).unwrap();
        assert_eq!(p.segments_of(BrickId(0)), vec![]);
        assert_eq!(p.segments_of(BrickId(7)), moved.segments());
        assert!(p.is_live(&a.segments()[0]));

        // A copy with the right place but the wrong id is not live.
        let forged = MemorySegment {
            id: SegmentId(99),
            ..a.segments()[0]
        };
        assert!(!p.is_live(&forged));
        assert_eq!(
            p.release(&forged),
            Err(MemoryError::NoSuchSegment {
                segment: SegmentId(99)
            })
        );
        assert!(p
            .reassign_owner(
                &MemoryGrant {
                    segments: vec![forged]
                },
                BrickId(1)
            )
            .is_err());

        // Segments lost with a failed brick stay dead after its repair, even
        // when a new segment reuses their offset.
        let lost = p.fail_membrick(BrickId(10)).unwrap();
        assert!(lost.windows(2).all(|w| w[0].id < w[1].id));
        assert!(lost.contains(&moved.segments()[0]));
        p.repair_membrick(BrickId(10)).unwrap();
        let reuse = p.allocate(BrickId(2), ByteSize::from_gib(8)).unwrap();
        assert_eq!(reuse.segments()[0].membrick, BrickId(10));
        assert_eq!(reuse.segments()[0].offset, a.segments()[0].offset);
        assert!(!p.is_live(&a.segments()[0]));
        assert!(matches!(
            p.release(&a.segments()[0]),
            Err(MemoryError::NoSuchSegment { .. })
        ));
        p.release_grant(&reuse).unwrap();
    }

    #[test]
    fn codec_writes_the_segment_table_layout_and_rejects_contradictions() {
        use dredbox_snap::{Reader, Snap, SnapError};

        let mut p = pool(AllocationPolicy::PowerAware);
        let grants: Vec<MemoryGrant> = (0..6u32)
            .map(|i| {
                p.allocate(BrickId(i), ByteSize::from_gib(u64::from(i) * 5 + 3))
                    .unwrap()
            })
            .collect();
        p.release_grant(&grants[2]).unwrap();
        p.fail_membrick(BrickId(12)).unwrap();

        // The layout of the pool that kept a `BTreeMap<SegmentId,
        // MemorySegment>` beside its allocators.
        let table: std::collections::BTreeMap<SegmentId, MemorySegment> =
            p.live_segments().into_iter().map(|s| (s.id, s)).collect();
        let mut expected = Vec::new();
        p.policy.snap(&mut expected);
        p.strategy.snap(&mut expected);
        p.allocators.snap(&mut expected);
        p.index.snap(&mut expected);
        p.capacity_total.snap(&mut expected);
        p.free_total.snap(&mut expected);
        let head = expected.len();
        table.snap(&mut expected);
        let tail = expected.len();
        p.next_segment.snap(&mut expected);
        p.failed.snap(&mut expected);
        let mut bytes = Vec::new();
        p.snap(&mut bytes);
        assert_eq!(bytes, expected);
        assert_eq!(MemoryPool::unsnap(&mut Reader::new(&bytes)), Ok(p.clone()));

        // Re-encode the stream with an edited segment table.
        type Table = Vec<(SegmentId, MemorySegment)>;
        let forge = |edit: &dyn Fn(&mut Table)| {
            let mut entries: Table = table.iter().map(|(&id, &s)| (id, s)).collect();
            edit(&mut entries);
            let mut forged = bytes[..head].to_vec();
            entries.snap(&mut forged);
            forged.extend_from_slice(&bytes[tail..]);
            MemoryPool::unsnap(&mut Reader::new(&forged))
        };
        let inconsistent = Err(SnapError::Inconsistent { ty: "MemoryPool" });
        assert_eq!(forge(&|_| {}), Ok(p.clone()));
        // An unclaimed range.
        assert_eq!(forge(&|e| e.truncate(e.len() - 1)), inconsistent);
        // A segment claiming another's range.
        assert_eq!(forge(&|e| e[1].1.offset = e[0].1.offset), inconsistent);
        // A key that disagrees with its segment's id.
        assert_eq!(forge(&|e| e[0].0 = SegmentId(50)), inconsistent);
        // Ids out of order.
        assert_eq!(forge(&|e| e.swap(0, 1)), inconsistent);
        // A segment on a failed brick, or with the wrong length.
        assert_eq!(forge(&|e| e[0].1.membrick = BrickId(12)), inconsistent);
        assert_eq!(
            forge(&|e| e[0].1.size = ByteSize::from_gib(1)),
            inconsistent
        );
        // An id at or above the next one to hand out.
        let last = table.keys().next_back().copied().unwrap();
        let mut stale = p.clone();
        stale.next_segment = last.0;
        let mut forged = Vec::new();
        stale.snap(&mut forged);
        assert_eq!(MemoryPool::unsnap(&mut Reader::new(&forged)), inconsistent);
    }

    proptest! {
        /// Determinism regression guard: the indexed selection and the
        /// reference candidate-list scan must hand out bit-identical grants
        /// (and fail identically) for every policy over random
        /// allocate/release traces.
        #[test]
        fn indexed_pick_matches_reference_scan(ops in proptest::collection::vec((1u64..24, proptest::bool::ANY), 1..40)) {
            for policy in [
                AllocationPolicy::FirstFit,
                AllocationPolicy::BestFit,
                AllocationPolicy::WorstFit,
                AllocationPolicy::PowerAware,
            ] {
                let mut indexed = pool(policy);
                let mut scan = pool(policy);
                scan.set_pick_strategy(PickStrategy::ReferenceScan);
                let mut live: Vec<MemoryGrant> = Vec::new();
                for (i, (gib, do_alloc)) in ops.iter().enumerate() {
                    if *do_alloc || live.is_empty() {
                        let a = indexed.allocate(BrickId(i as u32), ByteSize::from_gib(*gib));
                        let b = scan.allocate(BrickId(i as u32), ByteSize::from_gib(*gib));
                        prop_assert_eq!(&a, &b, "{:?} diverged on allocate", policy);
                        if let Ok(g) = a {
                            live.push(g);
                        }
                    } else {
                        let g = live.remove(i % live.len());
                        indexed.release_grant(&g).unwrap();
                        scan.release_grant(&g).unwrap();
                    }
                    prop_assert_eq!(indexed.total_free(), scan.total_free());
                    prop_assert_eq!(
                        indexed.unused_membricks().collect::<Vec<_>>(),
                        scan.unused_membricks().collect::<Vec<_>>()
                    );
                }
            }
        }

        #[test]
        fn pool_conserves_bytes(requests in proptest::collection::vec(1u64..24, 1..20)) {
            for policy in [
                AllocationPolicy::FirstFit,
                AllocationPolicy::BestFit,
                AllocationPolicy::WorstFit,
                AllocationPolicy::PowerAware,
            ] {
                let mut p = pool(policy);
                let mut grants = Vec::new();
                for (i, gib) in requests.iter().enumerate() {
                    if let Ok(g) = p.allocate(BrickId(i as u32), ByteSize::from_gib(*gib)) {
                        prop_assert_eq!(g.total(), ByteSize::from_gib(*gib));
                        grants.push(g);
                    }
                    prop_assert_eq!(p.total_free() + p.total_allocated(), p.total_capacity());
                }
                for g in grants {
                    p.release_grant(&g).unwrap();
                }
                prop_assert_eq!(p.total_free(), p.total_capacity());
                prop_assert_eq!(p.segment_count(), 0);
            }
        }

        #[test]
        fn live_segments_never_overlap(requests in proptest::collection::vec(1u64..16, 1..16)) {
            let mut p = pool(AllocationPolicy::PowerAware);
            for (i, gib) in requests.iter().enumerate() {
                let _ = p.allocate(BrickId(i as u32), ByteSize::from_gib(*gib));
            }
            let segs = p.live_segments();
            for (i, a) in segs.iter().enumerate() {
                for b in segs.iter().skip(i + 1) {
                    prop_assert!(!a.overlaps(b), "segments {:?} and {:?} overlap", a, b);
                }
            }
        }
    }
}
