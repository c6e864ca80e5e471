//! Shard-partitioned discrete-event engine with a deterministic
//! cross-shard mailbox.
//!
//! A [`ShardedEngine`] runs one event calendar per *shard* — a rack in the
//! dReDBox scenarios, plus the cluster front door on a federation; a
//! single-rack replay is one shard. Each shard's pending state — its
//! calendar, its mailbox and its send counter — is one lane, and two run
//! loops share that lane type: the single-threaded [`ShardedEngine::run`]
//! below, and the conservative epoch runner
//! [`ShardedEngine::run_threaded`] ([`crate::parallel`]), which drives
//! every scenario replay on one or more threads. Both pop, tie-break and
//! stamp sends through the lane, so the local-before-mail rule below is
//! decided in one place. The serial loop is the reference order the
//! epoch runner is tested against.
//!
//! # Ordering contract
//!
//! The engine extends the [`EventQueue`] contract of (time, seq) FIFO
//! tie-breaking to (time, shard, seq):
//!
//! 1. **Within a shard**, locally scheduled events fire in (time, local
//!    seq) order — exactly the single-engine contract.
//! 2. **Across shards**, the next event globally is the one with the
//!    earliest time; at equal times the lowest shard id goes first.
//! 3. **Cross-shard sends** land in the destination shard's mailbox, a
//!    min-heap ordered by (arrival time, source shard, send seq). At equal
//!    arrival times a shard fires its *local* events before its mailbox
//!    arrivals, and mailbox arrivals fire in (source shard, send seq)
//!    order — independent of the wall-clock order the sends were issued
//!    in. This is what keeps a sharded replay bit-deterministic: the merge
//!    is a pure function of timestamps and ids, never of execution
//!    interleaving.
//!
//! With a single shard and only local scheduling, the run is
//! *bit-identical* to draining one [`EventQueue`] on the same trace: same
//! pops, same clock, same [`RunOutcome`].
//!
//! ```
//! use dredbox_sim::shard::{ShardContext, ShardId, ShardedEngine, ShardedProcess};
//! use dredbox_sim::engine::RunOutcome;
//! use dredbox_sim::time::{SimDuration, SimTime};
//!
//! /// A token bounces between two racks until it has hopped 6 times.
//! struct PingPong { hops: u32 }
//! impl ShardedProcess for PingPong {
//!     type Event = u32;
//!     fn handle(&mut self, shard: ShardId, now: SimTime, hop: u32,
//!               ctx: &mut ShardContext<'_, u32>) {
//!         self.hops = hop;
//!         if hop < 6 {
//!             let to = ShardId((shard.0 + 1) % 2);
//!             ctx.send(to, now + SimDuration::from_micros(1), hop + 1);
//!         }
//!     }
//! }
//!
//! let mut engine = ShardedEngine::new(2);
//! engine.schedule(ShardId(0), SimTime::ZERO, 1);
//! let mut world = PingPong { hops: 0 };
//! assert_eq!(engine.run(&mut world), RunOutcome::Drained);
//! assert_eq!(world.hops, 6);
//! assert_eq!(engine.processed(), 6);
//! ```

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::engine::RunOutcome;
use crate::event::EventQueue;
use crate::time::SimTime;

/// Sentinel in the flat next-event cache for a shard with nothing pending.
/// An event genuinely scheduled at this time still runs — the scan falls
/// back to peeking the heaps when every slot reads the sentinel.
const IDLE: SimTime = SimTime::from_nanos(u64::MAX);

/// Identifies one shard (one per-rack event domain) of a [`ShardedEngine`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct ShardId(pub u32);

impl std::fmt::Display for ShardId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shard{}", self.0)
    }
}

/// A cross-shard event waiting in a destination mailbox.
#[derive(Debug, Clone)]
pub(crate) struct MailEntry<E> {
    pub(crate) at: SimTime,
    pub(crate) from: ShardId,
    pub(crate) seq: u64,
    pub(crate) event: E,
}

impl<E> MailEntry<E> {
    /// Packs (arrival time, source shard, send seq) into one integer so
    /// the merge comparison is branchless: time in the high 64 bits, then
    /// 16 bits of source shard, then the low 48 bits of the send seq.
    /// [`ShardedEngine::new`] caps shards at 2^16, and [`Lane::mail`],
    /// which stamps every send of both run loops, debug-asserts that the
    /// seq fits in 48 bits (beyond any feasible run), so the packing is
    /// lossless.
    fn merge_key(&self) -> u128 {
        (u128::from(self.at.as_nanos()) << 64)
            | (u128::from(self.from.0) << 48)
            | u128::from(self.seq & ((1 << 48) - 1))
    }
}

impl<E> PartialEq for MailEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.merge_key() == other.merge_key()
    }
}
impl<E> Eq for MailEntry<E> {}

impl<E> PartialOrd for MailEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for MailEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap inverted into the (time, source shard, send seq) merge
        // order of the module contract.
        other.merge_key().cmp(&self.merge_key())
    }
}

/// Where a shard's next event comes from: its own calendar or its mailbox.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Source {
    Local,
    Mailbox,
}

/// One shard's pending state, the same in both run loops: its own
/// calendar, its mailbox of cross-shard arrivals, and its send counter.
/// [`ShardedEngine::run`] keeps every lane in place; the epoch runner
/// moves each one to whichever thread runs the shard.
#[derive(Debug)]
pub(crate) struct Lane<E> {
    pub(crate) queue: EventQueue<E>,
    pub(crate) inbox: BinaryHeap<MailEntry<E>>,
    /// This shard's count of cross-shard sends. Mail entries that tie on
    /// (arrival time, source shard) share a source, and a per-source
    /// counter is monotone in that source's send order, so the merge is
    /// the one a global counter would give — and each thread running a
    /// shard owns its counter.
    send_seq: u64,
}

impl<E> Lane<E> {
    fn new() -> Self {
        Lane {
            queue: EventQueue::new(),
            inbox: BinaryHeap::new(),
            send_seq: 0,
        }
    }

    /// The time of the lane's next event and where it comes from, `None`
    /// when the lane is idle. At equal times the local calendar goes
    /// before the mailbox; this is the one place that tie is decided.
    #[inline]
    pub(crate) fn next(&self) -> Option<(SimTime, Source)> {
        match (self.queue.peek_time(), self.inbox.peek().map(|e| e.at)) {
            (Some(l), Some(m)) if m < l => Some((m, Source::Mailbox)),
            (Some(l), _) => Some((l, Source::Local)),
            (None, Some(m)) => Some((m, Source::Mailbox)),
            (None, None) => None,
        }
    }

    /// Pops the next event from `src`, as [`Lane::next`] reported it.
    #[inline]
    pub(crate) fn pop(&mut self, src: Source) -> (SimTime, E) {
        match src {
            Source::Local => self.queue.pop(),
            Source::Mailbox => self.inbox.pop().map(|e| (e.at, e.event)),
        }
        .expect("a lane pops only the event it reported")
    }

    /// Stamps a cross-shard send from this lane's shard `from` with the
    /// lane's next send seq.
    pub(crate) fn mail(&mut self, from: ShardId, at: SimTime, event: E) -> MailEntry<E> {
        let seq = self.send_seq;
        self.send_seq += 1;
        debug_assert!(
            seq < (1 << 48),
            "per-source send seq overflows the merge key"
        );
        MailEntry {
            at,
            from,
            seq,
            event,
        }
    }

    /// Events pending in the calendar and the mailbox.
    pub(crate) fn pending(&self) -> usize {
        self.queue.len() + self.inbox.len()
    }
}

/// Writes `lane`'s next event into its slots of the flat next-event
/// cache, [`IDLE`] when the lane has nothing pending.
#[inline]
fn cache_next<E>(lane: &Lane<E>, time: &mut SimTime, src: &mut Source) {
    (*time, *src) = lane.next().unwrap_or((IDLE, Source::Local));
}

/// A process partitioned across shards: reacts to events of type `E`
/// delivered on a given shard, scheduling follow-ups through the
/// [`ShardContext`].
pub trait ShardedProcess {
    /// The event type handled by this process.
    type Event;

    /// Handles `event` firing on `shard` at `now`. Local follow-ups and
    /// cross-shard sends go through `ctx`; scheduling in the past is a
    /// logic error and panics inside [`ShardedEngine::run`].
    fn handle(
        &mut self,
        shard: ShardId,
        now: SimTime,
        event: Self::Event,
        ctx: &mut ShardContext<'_, Self::Event>,
    );
}

/// Scheduling surface handed to [`ShardedProcess::handle`]: the firing
/// shard's own calendar plus the mailboxes of every other shard.
pub struct ShardContext<'a, E> {
    shard: ShardId,
    now: SimTime,
    lanes: &'a mut [Lane<E>],
    /// The engine's flat next-event cache: a send refreshes the
    /// destination's slots in place, so the engine never re-peeks
    /// untouched shards.
    next_times: &'a mut [SimTime],
    next_srcs: &'a mut [Source],
    /// Whether the handler sent to another shard's mailbox; a send can
    /// change who wins the next global pop, so it disables the engine's
    /// same-shard continuation fast path for this event.
    sent: bool,
}

impl<E> ShardContext<'_, E> {
    /// Schedules `event` on the current shard's own calendar at absolute
    /// time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current clock.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(at >= self.now, "cannot schedule an event in the past");
        self.lanes[self.shard.0 as usize].queue.schedule(at, event);
    }

    /// Sends `event` to shard `to`, arriving at absolute time `at`. A send
    /// to the current shard is a plain local [`ShardContext::schedule`];
    /// anything else goes through `to`'s mailbox and fires in
    /// (time, source shard, send seq) order.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current clock or `to` is not a
    /// shard of this engine.
    pub fn send(&mut self, to: ShardId, at: SimTime, event: E) {
        if to == self.shard {
            self.schedule(at, event);
            return;
        }
        assert!(at >= self.now, "cannot send an event into the past");
        let entry = self.lanes[self.shard.0 as usize].mail(self.shard, at, event);
        let dest = to.0 as usize;
        let lane = self
            .lanes
            .get_mut(dest)
            .unwrap_or_else(|| panic!("{to} is not a shard of this engine"));
        lane.inbox.push(entry);
        cache_next(lane, &mut self.next_times[dest], &mut self.next_srcs[dest]);
        self.sent = true;
    }
}

/// A serial event: executes at an epoch barrier of
/// [`ShardedEngine::run_threaded`] with exclusive access to the whole
/// world, ordered by (time, shard, seq) against its peers.
#[derive(Debug, Clone)]
pub(crate) struct SerialEntry<E> {
    pub(crate) at: SimTime,
    pub(crate) shard: ShardId,
    pub(crate) seq: u64,
    pub(crate) event: E,
}

impl<E> PartialEq for SerialEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.shard == other.shard && self.seq == other.seq
    }
}
impl<E> Eq for SerialEntry<E> {}

impl<E> PartialOrd for SerialEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for SerialEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap inverted into (time, shard, insertion seq) order.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.shard.cmp(&self.shard))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Discrete-event engine with one calendar per shard and deterministic
/// cross-shard mailboxes. See the module docs for the ordering contract.
/// A run stops when every calendar drains, before the first event past
/// the horizon, or once the event budget is spent ([`RunOutcome`]).
#[derive(Debug)]
pub struct ShardedEngine<E> {
    pub(crate) now: SimTime,
    /// Each shard's calendar, mailbox and send counter.
    pub(crate) lanes: Vec<Lane<E>>,
    /// Cached time of each shard's next event, [`IDLE`] when the shard
    /// has nothing pending. Kept in lockstep with the lanes so the
    /// per-pop global argmin is a branch-free min scan of a flat time
    /// vector instead of two heap peeks per shard.
    next_times: Vec<SimTime>,
    /// Source of each cached next time; meaningful only where the
    /// matching [`ShardedEngine::next_times`] slot is not [`IDLE`].
    next_srcs: Vec<Source>,
    /// Barrier-executed events for [`ShardedEngine::run_threaded`],
    /// ordered (time, shard, seq) across the whole engine.
    pub(crate) serial: BinaryHeap<SerialEntry<E>>,
    pub(crate) serial_seq: u64,
    pub(crate) horizon: Option<SimTime>,
    pub(crate) max_events: Option<u64>,
    pub(crate) processed: u64,
}

impl<E> ShardedEngine<E> {
    /// Creates an engine with `shards` event domains, the clock at
    /// [`SimTime::ZERO`] and no limits.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "a sharded engine needs at least one shard");
        assert!(
            shards <= 1 << 16,
            "the mailbox merge key packs the source shard into 16 bits"
        );
        ShardedEngine {
            now: SimTime::ZERO,
            lanes: (0..shards).map(|_| Lane::new()).collect(),
            next_times: vec![IDLE; shards],
            next_srcs: vec![Source::Local; shards],
            serial: BinaryHeap::new(),
            serial_seq: 0,
            horizon: None,
            max_events: None,
            processed: 0,
        }
    }

    /// Stops the run once the clock would advance past `horizon`.
    pub fn with_horizon(mut self, horizon: SimTime) -> Self {
        self.horizon = Some(horizon);
        self
    }

    /// Stops the run after `max_events` events have been processed.
    pub fn with_event_budget(mut self, max_events: u64) -> Self {
        self.max_events = Some(max_events);
        self
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far, across all shards.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of pending events across all calendars, mailboxes and the
    /// serial barrier queue.
    #[cfg(test)]
    pub(crate) fn pending(&self) -> usize {
        self.lanes.iter().map(Lane::pending).sum::<usize>() + self.serial.len()
    }

    /// Schedules `event` on `shard`'s calendar at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current clock or `shard` is out
    /// of range.
    pub fn schedule(&mut self, shard: ShardId, at: SimTime, event: E) {
        assert!(at >= self.now, "cannot schedule an event in the past");
        self.lanes
            .get_mut(shard.0 as usize)
            .unwrap_or_else(|| panic!("{shard} is not a shard of this engine"))
            .queue
            .schedule(at, event);
        self.refresh_next(shard.0 as usize);
    }

    /// Schedules a batch of events with non-decreasing times on `shard`,
    /// kept in the calendar's presorted run (see
    /// [`EventQueue::schedule_sorted`]). The pop order is the one the same
    /// [`ShardedEngine::schedule`] calls would give.
    ///
    /// # Panics
    ///
    /// Panics if any time is earlier than the current clock or `shard` is
    /// out of range.
    pub fn schedule_sorted<I: IntoIterator<Item = (SimTime, E)>>(
        &mut self,
        shard: ShardId,
        batch: I,
    ) {
        let now = self.now;
        self.lanes
            .get_mut(shard.0 as usize)
            .unwrap_or_else(|| panic!("{shard} is not a shard of this engine"))
            .queue
            .schedule_sorted(batch.into_iter().inspect(|(at, _)| {
                assert!(*at >= now, "cannot schedule an event in the past");
            }));
        self.refresh_next(shard.0 as usize);
    }

    /// Schedules a *serial* event at absolute time `at`, attributed to
    /// `shard` for (time, shard, seq) ordering. Serial events execute at
    /// the epoch barriers of [`ShardedEngine::run_threaded`] with
    /// exclusive access to the whole world; the plain [`ShardedEngine::run`]
    /// loop refuses to start while any are pending.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current clock or `shard` is out
    /// of range.
    pub fn schedule_serial(&mut self, shard: ShardId, at: SimTime, event: E) {
        assert!(at >= self.now, "cannot schedule an event in the past");
        assert!(
            (shard.0 as usize) < self.lanes.len(),
            "{shard} is not a shard of this engine"
        );
        let seq = self.serial_seq;
        self.serial_seq += 1;
        self.serial.push(SerialEntry {
            at,
            shard,
            seq,
            event,
        });
    }

    /// Recomputes the cached next-event slot of `shard` from its lane.
    fn refresh_next(&mut self, shard: usize) {
        cache_next(
            &self.lanes[shard],
            &mut self.next_times[shard],
            &mut self.next_srcs[shard],
        );
    }

    /// Rebuilds every cached next-event slot (used after bulk surgery on
    /// the lanes, e.g. when `run_threaded` hands them back).
    pub(crate) fn rebuild_next_cache(&mut self) {
        for shard in 0..self.lanes.len() {
            self.refresh_next(shard);
        }
    }

    /// The globally next event: earliest time, ties to the lowest shard.
    /// A branch-free min scan of the flat time cache — no heap peeks.
    fn global_next(&self) -> Option<(SimTime, usize, Source)> {
        let mut best_t = IDLE;
        let mut best_s = usize::MAX;
        for (shard, &t) in self.next_times.iter().enumerate() {
            // Strict `<` keeps the lowest shard id on equal times,
            // because shards are visited in ascending order.
            if t < best_t {
                best_t = t;
                best_s = shard;
            }
        }
        if best_s == usize::MAX {
            // Every slot reads the sentinel: the engine is drained —
            // unless an event is genuinely scheduled at the sentinel
            // time itself, which only a look at the lanes can tell.
            return self.global_next_slow();
        }
        Some((best_t, best_s, self.next_srcs[best_s]))
    }

    /// Sentinel-collision fallback for [`ShardedEngine::global_next`]:
    /// asks every lane directly, to find an event scheduled at [`IDLE`].
    #[cold]
    fn global_next_slow(&self) -> Option<(SimTime, usize, Source)> {
        self.lanes
            .iter()
            .enumerate()
            .filter_map(|(shard, lane)| lane.next().map(|(t, src)| (t, shard, src)))
            .min_by_key(|&(t, shard, _)| (t, shard))
    }

    /// Runs the simulation single-threaded until every calendar and
    /// mailbox drains or a limit is hit: the budget is checked before
    /// each pop and the horizon against the next event's time.
    ///
    /// # Panics
    ///
    /// Panics if serial events are pending — those have barrier semantics
    /// only [`ShardedEngine::run_threaded`] implements.
    pub fn run<P: ShardedProcess<Event = E>>(&mut self, world: &mut P) -> RunOutcome {
        assert!(
            self.serial.is_empty(),
            "serial events require run_threaded; the plain run loop has no barriers"
        );
        // Same-shard continuation: after firing shard `s` at time `t` with no
        // cross-shard sends, if `s`'s refreshed slot still reads `t` then `s`
        // stays the global winner — it held the lowest id among the time-`t`
        // slots and no other slot moved — so the min scan can be skipped.
        let mut hint: Option<usize> = None;
        loop {
            if let Some(max) = self.max_events {
                if self.processed >= max {
                    return RunOutcome::BudgetExhausted;
                }
            }
            let (next_time, shard, source) = match hint.take() {
                Some(s) => (self.next_times[s], s, self.next_srcs[s]),
                None => match self.global_next() {
                    Some(next) => next,
                    None => return RunOutcome::Drained,
                },
            };
            if let Some(h) = self.horizon {
                if next_time > h {
                    return RunOutcome::HorizonReached;
                }
            }
            let (at, event) = self.lanes[shard].pop(source);
            debug_assert!(at >= self.now, "shard produced a time in the past");
            self.now = at;
            self.processed += 1;
            let mut ctx = ShardContext {
                shard: ShardId(shard as u32),
                now: at,
                lanes: &mut self.lanes,
                next_times: &mut self.next_times,
                next_srcs: &mut self.next_srcs,
                sent: false,
            };
            world.handle(ShardId(shard as u32), at, event, &mut ctx);
            let sent = ctx.sent;
            // Sends already refreshed their destinations' cached slots in
            // place; only the fired shard's own slot needs a re-peek.
            self.refresh_next(shard);
            if !sent && at < IDLE && self.next_times[shard] == at {
                hint = Some(shard);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    /// Respawns each event until its payload reaches `respawn`, recording
    /// the full pop trace.
    struct Tracer {
        trace: Vec<(SimTime, u32, u32)>, // (time, shard, payload)
        respawn: u32,
        interval: SimDuration,
    }

    impl ShardedProcess for Tracer {
        type Event = u32;
        fn handle(
            &mut self,
            shard: ShardId,
            now: SimTime,
            ev: u32,
            ctx: &mut ShardContext<'_, u32>,
        ) {
            self.trace.push((now, shard.0, ev));
            if ev < self.respawn {
                ctx.schedule(now + self.interval, ev + 1);
            }
        }
    }

    #[test]
    fn one_shard_matches_the_flat_engine_bit_for_bit() {
        let interval = SimDuration::from_micros(3);
        let horizon = SimTime::from_micros(40);
        let respawn = 1_000;

        // Reference: one calendar drained by hand up to the horizon.
        let mut flat = EventQueue::new();
        flat.schedule(SimTime::ZERO, 0u32);
        flat.schedule(SimTime::from_micros(5), 100);
        let mut flat_trace = Vec::new();
        let (mut flat_now, mut flat_processed) = (SimTime::ZERO, 0u64);
        let flat_outcome = loop {
            match flat.peek_time() {
                None => break RunOutcome::Drained,
                Some(t) if t > horizon => break RunOutcome::HorizonReached,
                Some(_) => {}
            }
            let (now, ev) = flat.pop().expect("peeked event must exist");
            flat_now = now;
            flat_processed += 1;
            flat_trace.push((now, 0, ev));
            if ev < respawn {
                flat.schedule(now + interval, ev + 1);
            }
        };
        assert_eq!(flat_outcome, RunOutcome::HorizonReached);

        let mut sharded = ShardedEngine::new(1).with_horizon(horizon);
        let mut world = Tracer {
            trace: Vec::new(),
            respawn,
            interval,
        };
        sharded.schedule(ShardId(0), SimTime::ZERO, 0);
        sharded.schedule(ShardId(0), SimTime::from_micros(5), 100);
        let outcome = sharded.run(&mut world);

        assert_eq!(outcome, flat_outcome);
        assert_eq!(world.trace, flat_trace);
        assert_eq!(sharded.now(), flat_now);
        assert_eq!(sharded.processed(), flat_processed);
        assert_eq!(sharded.pending(), flat.len());
    }

    #[test]
    fn sharded_runs_replay_deterministically() {
        let run = || {
            let mut engine = ShardedEngine::new(4);
            let mut world = Bouncer { log: Vec::new() };
            for s in 0..4u32 {
                engine.schedule(ShardId(s), SimTime::from_nanos(u64::from(s % 2)), s);
            }
            let outcome = engine.run(&mut world);
            (outcome, world.log, engine.processed())
        };
        assert_eq!(run(), run());
    }

    /// Every event hops to the next shard until its payload hits 40.
    struct Bouncer {
        log: Vec<(SimTime, u32, u32)>,
    }

    impl ShardedProcess for Bouncer {
        type Event = u32;
        fn handle(
            &mut self,
            shard: ShardId,
            now: SimTime,
            ev: u32,
            ctx: &mut ShardContext<'_, u32>,
        ) {
            self.log.push((now, shard.0, ev));
            if ev < 40 {
                let to = ShardId((shard.0 + 1) % 4);
                ctx.send(to, now + SimDuration::from_nanos(7), ev + 10);
            }
        }
    }

    #[test]
    fn mailbox_merge_orders_by_time_shard_seq_not_send_order() {
        // Shard 2 executes FIRST (t=0) and sends to shard 0 arriving at
        // t=100; shard 1 executes later (t=5) and sends arriving at the
        // same t=100. The merge rule (time, source shard, send seq) must
        // pop shard 1's payload first despite shard 2 sending first.
        struct W {
            received: Vec<u32>,
        }
        impl ShardedProcess for W {
            type Event = u32;
            fn handle(
                &mut self,
                shard: ShardId,
                _now: SimTime,
                ev: u32,
                ctx: &mut ShardContext<'_, u32>,
            ) {
                if shard == ShardId(0) {
                    self.received.push(ev);
                } else {
                    ctx.send(ShardId(0), SimTime::from_nanos(100), ev);
                }
            }
        }
        let mut engine = ShardedEngine::new(3);
        engine.schedule(ShardId(2), SimTime::ZERO, 22);
        engine.schedule(ShardId(1), SimTime::from_nanos(5), 11);
        let mut world = W {
            received: Vec::new(),
        };
        assert_eq!(engine.run(&mut world), RunOutcome::Drained);
        assert_eq!(world.received, vec![11, 22]);
    }

    #[test]
    fn local_events_fire_before_mailbox_arrivals_at_equal_times() {
        // Shard 0 has a LOCAL event at t=100; shard 1 sends an arrival for
        // the same t=100. The local event must pop first.
        struct W {
            order: Vec<&'static str>,
        }
        impl ShardedProcess for W {
            type Event = &'static str;
            fn handle(
                &mut self,
                shard: ShardId,
                _now: SimTime,
                ev: &'static str,
                ctx: &mut ShardContext<'_, &'static str>,
            ) {
                if shard == ShardId(1) {
                    ctx.send(ShardId(0), SimTime::from_nanos(100), "remote");
                } else {
                    self.order.push(ev);
                }
            }
        }
        let mut engine = ShardedEngine::new(2);
        engine.schedule(ShardId(1), SimTime::ZERO, "trigger");
        engine.schedule(ShardId(0), SimTime::from_nanos(100), "local");
        let mut world = W { order: Vec::new() };
        assert_eq!(engine.run(&mut world), RunOutcome::Drained);
        assert_eq!(world.order, vec!["local", "remote"]);
    }

    #[test]
    fn equal_time_pops_go_to_the_lowest_shard_first() {
        struct W {
            order: Vec<u32>,
        }
        impl ShardedProcess for W {
            type Event = ();
            fn handle(
                &mut self,
                shard: ShardId,
                _now: SimTime,
                _ev: (),
                _ctx: &mut ShardContext<'_, ()>,
            ) {
                self.order.push(shard.0);
            }
        }
        let mut engine = ShardedEngine::new(3);
        for s in [2u32, 0, 1] {
            engine.schedule(ShardId(s), SimTime::from_nanos(9), ());
        }
        let mut world = W { order: Vec::new() };
        engine.run(&mut world);
        assert_eq!(world.order, vec![0, 1, 2]);
    }

    #[test]
    fn horizon_and_budget_match_flat_semantics() {
        let mut engine = ShardedEngine::new(2).with_horizon(SimTime::from_micros(3));
        engine.schedule(ShardId(0), SimTime::ZERO, 0);
        let mut world = Tracer {
            trace: Vec::new(),
            respawn: 1_000,
            interval: SimDuration::from_micros(1),
        };
        assert_eq!(engine.run(&mut world), RunOutcome::HorizonReached);
        // t=0,1,2,3 us processed; the t=4 us event stays queued.
        assert_eq!(world.trace.len(), 4);
        assert_eq!(engine.pending(), 1);

        let mut engine = ShardedEngine::new(2).with_event_budget(7);
        engine.schedule(ShardId(1), SimTime::ZERO, 0);
        let mut world = Tracer {
            trace: Vec::new(),
            respawn: 1_000,
            interval: SimDuration::from_nanos(5),
        };
        assert_eq!(engine.run(&mut world), RunOutcome::BudgetExhausted);
        assert_eq!(world.trace.len(), 7);
    }

    #[test]
    fn sorted_batches_replay_like_plain_schedules() {
        // Chains respawn every 3 us while a presorted batch lands at
        // 1 us spacing, so run and calendar interleave with equal times.
        let run = |sorted: bool| {
            let mut engine = ShardedEngine::new(1).with_horizon(SimTime::from_micros(60));
            let mut world = Tracer {
                trace: Vec::new(),
                respawn: 1_000,
                interval: SimDuration::from_micros(3),
            };
            engine.schedule(ShardId(0), SimTime::ZERO, 0);
            let batch = (0..40u32).map(|i| (SimTime::from_micros(u64::from(i)), 10_000 + i));
            if sorted {
                engine.schedule_sorted(ShardId(0), batch);
            } else {
                for (at, ev) in batch {
                    engine.schedule(ShardId(0), at, ev);
                }
            }
            assert_eq!(engine.pending(), 41);
            let outcome = engine.run(&mut world);
            (outcome, world.trace, engine.pending(), engine.now())
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    #[should_panic(expected = "cannot schedule an event in the past")]
    fn sorted_batch_in_the_past_panics() {
        let mut engine = ShardedEngine::new(1).with_horizon(SimTime::from_micros(3));
        engine.schedule(ShardId(0), SimTime::ZERO, 0);
        let mut world = Tracer {
            trace: Vec::new(),
            respawn: 1_000,
            interval: SimDuration::from_micros(1),
        };
        engine.run(&mut world);
        assert_eq!(engine.now(), SimTime::from_micros(3));
        engine.schedule_sorted(ShardId(0), [5, 2].map(|us| (SimTime::from_micros(us), 0)));
    }

    #[test]
    #[should_panic]
    fn zero_shards_panics() {
        let _ = ShardedEngine::<()>::new(0);
    }

    #[test]
    #[should_panic]
    fn sending_to_an_unknown_shard_panics() {
        struct W;
        impl ShardedProcess for W {
            type Event = ();
            fn handle(
                &mut self,
                _s: ShardId,
                now: SimTime,
                _ev: (),
                ctx: &mut ShardContext<'_, ()>,
            ) {
                ctx.send(ShardId(9), now, ());
            }
        }
        let mut engine = ShardedEngine::new(2);
        engine.schedule(ShardId(0), SimTime::ZERO, ());
        engine.run(&mut W);
    }
}
