//! Threaded epoch runner for the sharded engine.
//!
//! [`ShardedEngine::run_threaded`] executes shard calendars on several
//! threads under *conservative synchronization*: time is carved into
//! epochs, and within an epoch every shard may advance its calendar up to
//! a per-shard **horizon**. Horizons come from declared channel
//! latencies: if every message from shard `q` to shard `s` arrives at
//! least `L(q→s)` after it is sent, then shard `s` processes everything
//! strictly before `min over q (next_time(q) + L(q→s))`, taken over the
//! shards `q` with a declared channel into `s` — any message `q` emits
//! while working through the events it already holds arrives at or after
//! that bound. Each shard's inbound channel list is built once from
//! [`ParallelWorld::latency`], so a horizon costs one step per channel
//! into the shard, not one per shard. Cross-shard sends are buffered in
//! per-shard outboxes and exchanged as mailbox batches at the epoch
//! barrier, merged under the same (arrival time, source shard, send seq)
//! contract as the serial mailbox, so the event order every shard
//! observes is a pure function of timestamps and ids, never of thread
//! interleaving.
//!
//! The bound does not cover what `q` sends in answer to mail that reaches
//! it later: a reply to mail from `s` itself, or a forward of mail from
//! a third shard. When `q` held nothing earlier, such a message can
//! arrive before the horizon `s` already ran to, and `s` then handles it
//! at its own timestamp after later events. The order is still a pure
//! function of timestamps, so every thread count agrees, but it is not
//! the order of [`ShardedEngine::run`]. Worlds that need the serial
//! order must not answer or forward mail through a shard that may be
//! idle.
//!
//! # Threads and the work pool
//!
//! `threads = N` means N participating threads: the calling thread
//! (thread 0) plus N − 1 helpers spawned for the run (N is clamped to
//! `1..=shard_count`). An epoch's active shards — the *units* — go onto
//! per-thread home lists: shard `s` lives on thread `s % N`. Each thread
//! takes the units of its own list one at a time, and once its list is
//! empty it steals the back of the longest other list, until every list
//! is empty. A shard therefore runs on the same thread epoch after epoch
//! unless balance needs a steal, so its calendar and world state stay in
//! that core's cache. Stealing keeps the taking dynamic: how long a unit
//! takes is not known in advance, so no thread idles while another's
//! list still holds work. Each list hands out the unit with the largest
//! mail batch first (ties in ascending shard order), and so does a
//! steal: mail carries the work other shards sent, and it is the one
//! cost signal known before the epoch runs, so the longest units tend to
//! start early and the calling thread waits less for the last one.
//! An epoch with a single active unit, or a run with N = 1, runs on the
//! calling thread alone and wakes no helper. Helpers wait between epochs
//! and acknowledge each one; a handler panic on a helper travels back
//! with its acknowledgement and is re-raised on the calling thread.
//!
//! Both waits at the epoch barrier — a helper's for the next epoch, the
//! calling thread's for the helpers' acknowledgements — first spin on an
//! atomic mirror of the pool state for at most `SPIN` (400 µs), then park on
//! a condition variable. The spin is taken only when every participating
//! thread can have a core of its own (N ≤ [`thread::available_parallelism`]);
//! otherwise a spinning thread would hold the core the thread it waits
//! for needs, so waiters park at once. The check counts this run's own
//! threads only, not how busy the host is: threaded runs made side by
//! side (a test binary's parallel tests, a sweep in several processes)
//! each still spin and may take turns on a shared core. That costs wall
//! time, never results.
//!
//! # Determinism
//!
//! `run_threaded` produces bit-identical worlds and reports for every
//! thread count, including 1: the epoch schedule (horizons, barrier
//! times, serial batches) is computed from event timestamps only, each
//! shard's event sequence within an epoch is fully ordered by its own
//! calendar and inbox, and barrier routing merges every send under its
//! unique (time, source shard, send seq) key, so the order units come
//! home in does not matter. Which thread takes a unit, and when, changes only
//! the wall-clock instant a shard's slice runs at, never what it
//! computes.
//!
//! An event budget keeps that contract without any state shared per
//! event. When an epoch is planned, the budget still remaining is split
//! over its units in ascending shard order (`remaining / units` each, one
//! more for the lowest `remaining % units` shards), and each unit stops
//! at its own quota even before its horizon. The quotas sum to the
//! remaining budget, so a run never overshoots it, and they depend on
//! the epoch plan alone, so every thread count stops at the same events.
//! A unit that stops early has sent only what its horizon allowed, and
//! the next epoch replans. Once no more budgeted events remain than are
//! pending, every epoch is a *fine step*: planning activates only the
//! shard holding the least (time, shard) event, at time `t`, with the
//! horizon `t + 1 ns` and, as the lone unit, the whole remaining budget
//! as its quota; it runs through the same unit path and barrier as any
//! other epoch. Its events at `t` are the next ones of the global
//! (time, shard) order of [`ShardedEngine::run`], because any mail they
//! send arrives after `t`, so fine steps replay that order exactly.
//! Where a quota binds first, the cutoff can differ from the serial
//! engine's; scenario budgets are runaway guards sized far above their
//! traces, so neither binds there.
//!
//! # Serial events
//!
//! Events scheduled through [`ShardedEngine::schedule_serial`] (or
//! [`SerialContext::schedule_serial`] from a barrier handler) execute at
//! epoch barriers on the coordinating thread, which hands the world every
//! shard's worker
//! ([`ParallelWorld::handle_barrier`]) — this is where cluster-tier
//! decisions that touch many racks (drain, upgrade, fault, repair,
//! rebalance) live. A serial event at time `F` fences the run: no shard
//! processes past `F` before it, it observes every shard's state as of
//! `F`, and parallel events at exactly `F` fire after it. Serial events
//! order among themselves by (time, shard, seq).
//!
//! # Independent shards
//!
//! A world that declares no channel runs every shard to the next serial
//! event (or the run's end) in one epoch. A single shard with no channels
//! — a single-rack scenario replay — runs on the calling thread alone,
//! whatever the thread count, and its serial events (the replay's faults
//! and repairs) split its calendar into one epoch per gap between them.

use std::any::Any;
use std::cmp::Reverse;
use std::hint;
use std::mem;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering as AtomicOrdering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use crate::engine::RunOutcome;
use crate::shard::{Lane, MailEntry, SerialEntry, ShardId, ShardedEngine};
use crate::time::{SimDuration, SimTime};

/// Effectively-unbounded horizon cap.
const FAR_FUTURE: SimTime = SimTime::from_nanos(u64::MAX);

/// How long a thread waiting at the epoch barrier spins before it parks.
/// In a two-thread `datacenter-64` replay on a 2-core host, the calling
/// thread spends ~80 µs on average between pooled epochs (a front-door-
/// only epoch and the barrier's bookkeeping), but the tail is long:
/// spinning 100 µs still left the helper parked for ~10% of its time,
/// 400 µs for ~2%.
const SPIN: Duration = Duration::from_micros(400);

/// A world that can be torn into per-shard workers for epoch execution.
///
/// [`ParallelWorld::split`] moves each shard's state out into an owned
/// [`WorldWorker`], leaving only the coordinator's own state behind;
/// [`ParallelWorld::reunite`] is the exact inverse. The runner splits
/// once when a run starts and reunites once when it returns. In between,
/// serial events reach [`ParallelWorld::handle_barrier`] together with
/// every shard's worker, so the world never has to reassemble itself.
pub trait ParallelWorld {
    /// The event type simulated by this world.
    type Event: Send;
    /// Owned per-shard slice of the world, sent across worker threads.
    type Worker: WorldWorker<Event = Self::Event> + Send;

    /// Tears the world into exactly `shards` workers; worker `s` handles
    /// every parallel event of shard `s`.
    fn split(&mut self, shards: usize) -> Vec<Self::Worker>;

    /// Takes back the workers produced by [`ParallelWorld::split`] when
    /// the run returns.
    fn reunite(&mut self, workers: Vec<Self::Worker>);

    /// Latency floor of the `from → to` message channel: every
    /// [`WorkerContext::send`] from `from` to `to` must arrive at least
    /// this long after it is sent. `None` means the channel is never
    /// used. `Some(SimDuration::ZERO)` is rejected at run start — zero
    /// lookahead cannot make progress.
    fn latency(&self, from: ShardId, to: ShardId) -> Option<SimDuration>;

    /// Handles one serial event at an epoch barrier. `workers` holds
    /// every shard's worker, indexed by shard, exclusive for the call.
    /// The default ignores them and hands the event to
    /// [`ParallelWorld::handle_serial`].
    fn handle_barrier(
        &mut self,
        workers: &mut [Self::Worker],
        shard: ShardId,
        now: SimTime,
        event: Self::Event,
        ctx: &mut SerialContext<'_, Self::Event>,
    ) {
        let _ = workers;
        self.handle_serial(shard, now, event, ctx);
    }

    /// Handles one serial event from the coordinator's own state alone,
    /// for worlds whose barrier logic reads no worker. Worlds that need
    /// the workers override [`ParallelWorld::handle_barrier`] instead.
    ///
    /// # Panics
    ///
    /// The default panics: a world that schedules serial events must
    /// override one of the two handlers.
    fn handle_serial(
        &mut self,
        shard: ShardId,
        now: SimTime,
        event: Self::Event,
        ctx: &mut SerialContext<'_, Self::Event>,
    ) {
        let _ = (shard, now, event, ctx);
        unreachable!("this world schedules no serial events");
    }
}

/// The per-shard half of a [`ParallelWorld`]: handles that shard's
/// events during parallel epochs. Must only touch state it owns — the
/// runner's determinism argument rests on shard state being disjoint.
pub trait WorldWorker {
    /// The event type handled by this worker.
    type Event: Send;

    /// Handles `event` firing on `shard` at `now`. Local follow-ups and
    /// cross-shard sends go through `ctx`.
    fn handle(
        &mut self,
        shard: ShardId,
        now: SimTime,
        event: Self::Event,
        ctx: &mut WorkerContext<'_, Self::Event>,
    );
}

/// Scheduling surface handed to [`WorldWorker::handle`] during a
/// parallel epoch.
pub struct WorkerContext<'a, E> {
    shard: ShardId,
    now: SimTime,
    lane: &'a mut Lane<E>,
    /// The unit's cross-shard sends, each with its destination shard.
    outbox: &'a mut Vec<(u32, MailEntry<E>)>,
    /// This shard's outbound latency row, enforcing the send contract.
    lat_row: &'a [Option<SimDuration>],
}

impl<E> WorkerContext<'_, E> {
    /// Schedules `event` on this shard's own calendar at absolute time
    /// `at` — it may land inside the current epoch and fire immediately
    /// after, exactly like a local schedule in the serial engine.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current clock.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(at >= self.now, "cannot schedule an event in the past");
        self.lane.queue.schedule(at, event);
    }

    /// Sends `event` to shard `to`, arriving at absolute time `at`. A
    /// send to the current shard is a local schedule; anything else is
    /// buffered until the epoch barrier and must respect the declared
    /// channel latency: `at ≥ now + latency(from, to)`.
    ///
    /// # Panics
    ///
    /// Panics if the channel is undeclared or `at` beats its latency.
    pub fn send(&mut self, to: ShardId, at: SimTime, event: E) {
        if to == self.shard {
            self.schedule(at, event);
            return;
        }
        let lat = self.channel_to(to);
        assert!(
            at >= self.now + lat,
            "send {} -> {to} beats the declared channel latency",
            self.shard
        );
        let entry = self.lane.mail(self.shard, at, event);
        self.outbox.push((to.0, entry));
    }

    fn channel_to(&self, to: ShardId) -> SimDuration {
        self.lat_row
            .get(to.0 as usize)
            .copied()
            .flatten()
            .unwrap_or_else(|| panic!("no declared channel {} -> {to}", self.shard))
    }
}

/// One operation staged by a serial handler, routed by the runner in
/// call order after the handler returns.
struct SerialOp<E> {
    shard: u32,
    at: SimTime,
    serial: bool,
    event: E,
}

/// Scheduling surface handed to [`ParallelWorld::handle_barrier`] at an
/// epoch barrier: the handler has exclusive access to the whole world,
/// so events may be placed on any shard with no latency floor.
pub struct SerialContext<'a, E> {
    now: SimTime,
    shards: u32,
    staged: &'a mut Vec<SerialOp<E>>,
}

impl<E> SerialContext<'_, E> {
    /// Schedules a parallel `event` on `shard`'s calendar at absolute
    /// time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current clock or `shard` is
    /// out of range.
    pub fn schedule(&mut self, shard: ShardId, at: SimTime, event: E) {
        assert!(at >= self.now, "cannot schedule an event in the past");
        assert!(
            shard.0 < self.shards,
            "{shard} is not a shard of this engine"
        );
        self.staged.push(SerialOp {
            shard: shard.0,
            at,
            serial: false,
            event,
        });
    }

    /// Schedules a follow-up *serial* event attributed to `shard` at
    /// absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current clock or `shard` is
    /// out of range.
    pub fn schedule_serial(&mut self, shard: ShardId, at: SimTime, event: E) {
        assert!(at >= self.now, "cannot schedule an event in the past");
        assert!(
            shard.0 < self.shards,
            "{shard} is not a shard of this engine"
        );
        self.staged.push(SerialOp {
            shard: shard.0,
            at,
            serial: true,
            event,
        });
    }
}

/// Pending cross-epoch deliveries for one destination shard, buffered at
/// the coordinator until the shard next activates. The entry buffer is
/// reused; a shard with an empty batch skips the merge entirely.
struct Batch<E> {
    entries: Vec<MailEntry<E>>,
    /// Earliest arrival among `entries`, cached for horizon math.
    min_at: Option<SimTime>,
}

impl<E> Batch<E> {
    fn push(&mut self, entry: MailEntry<E>) {
        self.min_at = Some(match self.min_at {
            Some(t) => t.min(entry.at),
            None => entry.at,
        });
        self.entries.push(entry);
    }

    /// Merges all buffered entries into `lane`'s inbox.
    fn deliver(&mut self, lane: &mut Lane<E>) {
        for entry in self.entries.drain(..) {
            lane.inbox.push(entry);
        }
        self.min_at = None;
    }
}

/// A shard's next event time at the barrier: the earlier of its lane's
/// next event and the earliest arrival in its undelivered batch.
fn next_at<E>(lane: &Lane<E>, batch: &Batch<E>) -> Option<SimTime> {
    match (lane.next().map(|(t, _)| t), batch.min_at) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

/// One shard's travelling state: engine lane plus world worker. Units
/// live at the coordinator between epochs and move (owned, through the
/// epoch's [`Pool`]) to whichever thread takes them — no cross-thread
/// borrows.
struct Unit<E, Wk> {
    shard: u32,
    lane: Lane<E>,
    /// Cross-shard sends of the epoch being executed, each with its
    /// destination shard; routed into the destinations' batches when the
    /// unit comes home. The buffer is reused across epochs, so
    /// steady-state routing does not allocate.
    outbox: Vec<(u32, MailEntry<E>)>,
    worker: Option<Wk>,
    /// Exclusive horizon for the epoch being executed.
    horizon: SimTime,
    /// This unit's share of the run's remaining event budget for the
    /// epoch being executed.
    quota: u64,
    /// Entries of the mail batch delivered for the epoch being executed;
    /// the pool hands out the unit with the most mail first.
    mail: usize,
    /// Events processed during the epoch being executed.
    processed: u64,
    /// Latest event time processed during the epoch being executed.
    max_t: Option<SimTime>,
}

/// A shard's unit while it is home at the coordinator, `None` while it
/// is out in an epoch. Units are boxed so that moving one between the
/// slots, the pool and the threads copies a pointer, not the whole unit.
type Slot<E, Wk> = Option<Box<Unit<E, Wk>>>;

/// One parallel epoch for one shard: pop while strictly below the
/// horizon and the unit's quota is not spent.
fn process_unit<E, Wk: WorldWorker<Event = E>>(
    unit: &mut Unit<E, Wk>,
    lat: &[Vec<Option<SimDuration>>],
) {
    unit.processed = 0;
    unit.max_t = None;
    let shard = ShardId(unit.shard);
    let worker = unit.worker.as_mut().expect("unit carries its worker");
    while unit.processed < unit.quota {
        let src = match unit.lane.next() {
            Some((at, src)) if at < unit.horizon => src,
            _ => break,
        };
        let (at, event) = unit.lane.pop(src);
        unit.processed += 1;
        unit.max_t = Some(at);
        let mut ctx = WorkerContext {
            shard,
            now: at,
            lane: &mut unit.lane,
            outbox: &mut unit.outbox,
            lat_row: &lat[shard.0 as usize],
        };
        worker.handle(shard, at, event, &mut ctx);
    }
}

/// The event quota of the unit at `rank` (0 = lowest shard) among
/// `units` active units sharing `remaining` budgeted events: an equal
/// share, plus one for each of the lowest `remaining % units` shards.
fn quota(remaining: u64, units: usize, rank: usize) -> u64 {
    let units = units as u64;
    remaining / units + u64::from((rank as u64) < remaining % units)
}

/// Takes the next unit for thread `me` from the per-thread home lists:
/// the back of its own list, else the back of the longest other list (a
/// steal, reported as `true`). Lists hold units in ascending mail order,
/// so the back is the unit with the most mail.
fn take<T>(todo: &mut [Vec<T>], me: usize) -> Option<(T, bool)> {
    if let Some(unit) = todo[me].pop() {
        return Some((unit, false));
    }
    let victim = (0..todo.len()).max_by_key(|&t| (todo[t].len(), Reverse(t)))?;
    todo[victim].pop().map(|unit| (unit, true))
}

/// The shared state of one epoch's work pool.
struct PoolState<E, Wk> {
    /// Bumped once per pooled epoch; a helper runs when it moves.
    epoch: u64,
    /// Unclaimed units, one list per participating thread (the calling
    /// thread is 0): a unit's home is `shard % threads`, and each list is
    /// handed out from the back.
    todo: Vec<Vec<Box<Unit<E, Wk>>>>,
    /// Units taken from another thread's list over the run.
    steals: u64,
    /// Units whose epoch slice is done.
    done: Vec<Box<Unit<E, Wk>>>,
    /// Helpers that have not yet acknowledged the current epoch.
    running: usize,
    /// The first helper panic of the epoch, re-raised by the caller.
    panic: Option<Box<dyn Any + Send>>,
    /// Set once the run ends, normally or by panic: helpers exit.
    closed: bool,
}

/// Work pool shared by the calling thread and its helpers: every
/// participating thread takes the active units of its own home list one
/// at a time, then takes from the longest other list until none is left,
/// so a shard runs on the same thread epoch after epoch unless balance
/// needs a steal, and a slow unit never strands a fixed chunk of work
/// behind it.
struct Pool<E, Wk> {
    state: Mutex<PoolState<E, Wk>>,
    /// Wakes the helpers for a new epoch or for shutdown.
    start: Condvar,
    /// Wakes the calling thread once every helper has acknowledged.
    idle: Condvar,
    /// `state.epoch`, mirrored for helpers spinning at the barrier; also
    /// bumped at shutdown so that they stop spinning.
    epoch: AtomicU64,
    /// `state.running`, mirrored for the calling thread spinning at the
    /// barrier.
    running: AtomicUsize,
    /// Whether barrier waits spin before they park (see the module docs).
    spin: bool,
}

impl<E, Wk: WorldWorker<Event = E>> Pool<E, Wk> {
    fn new(shards: usize, threads: usize, spin: bool) -> Self {
        Pool {
            state: Mutex::new(PoolState {
                epoch: 0,
                todo: (0..threads)
                    .map(|_| Vec::with_capacity(shards.div_ceil(threads)))
                    .collect(),
                steals: 0,
                done: Vec::with_capacity(shards),
                running: 0,
                panic: None,
                closed: false,
            }),
            start: Condvar::new(),
            idle: Condvar::new(),
            epoch: AtomicU64::new(0),
            running: AtomicUsize::new(0),
            spin,
        }
    }

    /// Spins until `ready` holds or [`SPIN`] has passed, when the pool
    /// spins at all. The caller then checks its condition under the lock
    /// and parks if it still does not hold.
    fn spin_until(&self, ready: impl Fn() -> bool) {
        if !self.spin {
            return;
        }
        let deadline = Instant::now() + SPIN;
        loop {
            for _ in 0..64 {
                if ready() {
                    return;
                }
                hint::spin_loop();
            }
            if Instant::now() >= deadline {
                return;
            }
        }
    }

    fn lock(&self) -> MutexGuard<'_, PoolState<E, Wk>> {
        // No handler runs under the lock, and every update made under it
        // is a single push, pop, swap or counter step, so the state stays
        // valid even if the mutex is poisoned.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Takes and runs units on thread `me` until the pool is empty.
    fn drain(&self, me: usize, lat: &[Vec<Option<SimDuration>>]) {
        let mut state = self.lock();
        while let Some((mut unit, stolen)) = take(&mut state.todo, me) {
            state.steals += u64::from(stolen);
            drop(state);
            process_unit(&mut unit, lat);
            state = self.lock();
            state.done.push(unit);
        }
    }

    /// The life of helper thread `me`: wait for an epoch, drain the pool,
    /// and acknowledge — with the panic payload if a handler panicked, so
    /// the calling thread never waits on a dead helper.
    fn help(&self, me: usize, lat: &[Vec<Option<SimDuration>>]) {
        let mut seen = 0;
        loop {
            self.spin_until(|| self.epoch.load(AtomicOrdering::Acquire) != seen);
            {
                let mut state = self.lock();
                while state.epoch == seen && !state.closed {
                    state = self
                        .start
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                if state.closed {
                    return;
                }
                seen = state.epoch;
            }
            let result = panic::catch_unwind(AssertUnwindSafe(|| self.drain(me, lat)));
            let last = {
                let mut state = self.lock();
                if let Err(payload) = result {
                    state.panic.get_or_insert(payload);
                }
                state.running -= 1;
                self.running.store(state.running, AtomicOrdering::Release);
                state.running == 0
            };
            if last {
                self.idle.notify_one();
            }
        }
    }

    /// Runs one epoch over `active`, in ascending mail order, on the
    /// calling thread and every helper, and returns the finished units in
    /// `active`. Re-raises a helper's panic on the calling thread.
    fn run_epoch(&self, active: &mut Vec<Box<Unit<E, Wk>>>, lat: &[Vec<Option<SimDuration>>]) {
        {
            let mut state = self.lock();
            let threads = state.todo.len();
            // Pushed in order, so every home list keeps ascending mail.
            for unit in active.drain(..) {
                state.todo[unit.shard as usize % threads].push(unit);
            }
            let helpers = threads - 1;
            state.epoch += 1;
            state.running = helpers;
            self.running.store(helpers, AtomicOrdering::Release);
            self.epoch.store(state.epoch, AtomicOrdering::Release);
        }
        self.start.notify_all();
        self.drain(0, lat);
        self.spin_until(|| self.running.load(AtomicOrdering::Acquire) == 0);
        let mut state = self.lock();
        while state.running > 0 {
            state = self
                .idle
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if let Some(payload) = state.panic.take() {
            drop(state);
            panic::resume_unwind(payload);
        }
        mem::swap(active, &mut state.done);
    }
}

/// Closes the pool when the run ends, normally or by panic, so that
/// every helper returns and the thread scope can join them.
struct ClosePool<'p, E, Wk: WorldWorker<Event = E>>(&'p Pool<E, Wk>);

impl<E, Wk: WorldWorker<Event = E>> Drop for ClosePool<'_, E, Wk> {
    fn drop(&mut self) {
        self.0.lock().closed = true;
        self.0.epoch.fetch_add(1, AtomicOrdering::Release);
        self.0.start.notify_all();
    }
}

impl<E: Send> ShardedEngine<E> {
    /// Runs the simulation under conservative-epoch synchronization on
    /// `threads` threads in all: the calling thread plus `threads − 1`
    /// helpers (clamped to `1..=shard_count`), which take each epoch's
    /// active shards from their own home lists first, then from the
    /// others'. The event budget is split into per-shard quotas when each
    /// epoch is planned, and the horizon and [`RunOutcome`] priorities
    /// match [`ShardedEngine::run`]. See the module docs for the
    /// determinism contract.
    ///
    /// # Panics
    ///
    /// Panics if the world declares a zero-latency channel, splits into
    /// the wrong number of workers, or a handler violates the send
    /// contract. A handler panic on any thread is re-raised here with
    /// its original payload once every helper has stopped.
    pub fn run_threaded<W>(&mut self, world: &mut W, threads: usize) -> RunOutcome
    where
        W: ParallelWorld<Event = E>,
    {
        let threads = threads.clamp(1, self.lanes.len());
        // One thread never waits at a barrier, so it skips the host query.
        let spin = threads > 1
            && thread::available_parallelism().is_ok_and(|cores| threads <= cores.get());
        self.run_epochs(world, threads, spin)
    }

    /// [`ShardedEngine::run_threaded`] on exactly `threads` threads, whose
    /// barrier waits spin before they park iff `spin`.
    fn run_epochs<W>(&mut self, world: &mut W, threads: usize, spin: bool) -> RunOutcome
    where
        W: ParallelWorld<Event = E>,
    {
        let shards = self.lanes.len();
        debug_assert!((1..=shards).contains(&threads), "threads out of range");

        // Channel latency matrix, validated once: a declared channel with
        // zero latency would collapse every horizon onto the global
        // minimum and the epoch loop could not progress.
        let lat: Vec<Vec<Option<SimDuration>>> = (0..shards)
            .map(|from| {
                (0..shards)
                    .map(|to| {
                        if from == to {
                            return None;
                        }
                        let l = world.latency(ShardId(from as u32), ShardId(to as u32));
                        if let Some(d) = l {
                            assert!(
                                d > SimDuration::ZERO,
                                "zero-latency channel shard{from} -> shard{to}: \
                                 conservative epochs cannot make progress"
                            );
                        }
                        l
                    })
                    .collect()
            })
            .collect();
        // Per-destination inbound channels, so each horizon walks only
        // the shards that can message it: O(channels) per epoch, not
        // O(shards²). In the federation that is one channel per rack and
        // one per rack into the front door.
        let mut inbound: Vec<Vec<(usize, SimDuration)>> = vec![Vec::new(); shards];
        for (q, row) in lat.iter().enumerate() {
            for (s, l) in row.iter().enumerate() {
                if let Some(l) = *l {
                    inbound[s].push((q, l));
                }
            }
        }

        // Move the lanes into units and tear the world into owned workers;
        // both are restored before returning.
        let workers = world.split(shards);
        assert_eq!(
            workers.len(),
            shards,
            "split must produce exactly one worker per shard"
        );
        let mut slots: Vec<Slot<E, W::Worker>> = mem::take(&mut self.lanes)
            .into_iter()
            .zip(workers)
            .enumerate()
            .map(|(s, (lane, worker))| {
                Some(Box::new(Unit {
                    shard: s as u32,
                    lane,
                    outbox: Vec::new(),
                    worker: Some(worker),
                    horizon: SimTime::ZERO,
                    quota: 0,
                    mail: 0,
                    processed: 0,
                    max_t: None,
                }))
            })
            .collect();
        let mut batches: Vec<Batch<E>> = (0..shards)
            .map(|_| Batch {
                entries: Vec::new(),
                min_at: None,
            })
            .collect();
        let mut staged: Vec<SerialOp<E>> = Vec::new();
        let mut t_eff: Vec<Option<SimTime>> = vec![None; shards];
        let mut active: Vec<Box<Unit<E, W::Worker>>> = Vec::with_capacity(shards);
        let pool = Pool::new(shards, threads, spin);
        // The run horizon is inclusive; unit horizons are exclusive bounds.
        let one_ns = SimDuration::from_nanos(1);
        let run_bound = self
            .horizon
            .map_or(FAR_FUTURE, |h| h.saturating_add(one_ns));
        // Epoch-shape counters, reported on stderr when
        // `DREDBOX_EPOCH_DEBUG` is set: events-per-epoch and the
        // single-unit share tell whether a workload's lookahead feeds the
        // workers enough batch to amortize the barrier.
        let mut dbg_epochs = 0u64;
        let mut dbg_serial = 0u64;
        let mut dbg_fine = 0u64;
        let mut dbg_quota_stops = 0u64;
        let mut dbg_single = 0u64;
        let mut dbg_units = 0u64;

        let outcome = thread::scope(|scope| {
            // The calling thread is one of the `threads` participants; the
            // helpers sleep on the pool between epochs and return once
            // `_close` drops at the end of the run, panic or not.
            let _close = ClosePool(&pool);
            for me in 1..threads {
                let (pool, lat) = (&pool, &lat[..]);
                scope.spawn(move || pool.help(me, lat));
            }

            'run: loop {
                let remaining = match self.max_events {
                    Some(max) => {
                        if self.processed >= max {
                            break 'run RunOutcome::BudgetExhausted;
                        }
                        max - self.processed
                    }
                    None => u64::MAX,
                };

                // First pass over the shards: next times, the least
                // (time, shard), and the pending count fine mode needs.
                let mut least: Option<(SimTime, usize)> = None;
                let mut pending = self.serial.len() as u64;
                for s in 0..shards {
                    let lane = &slots[s].as_ref().expect("unit is home at the barrier").lane;
                    pending += (lane.pending() + batches[s].entries.len()) as u64;
                    t_eff[s] = next_at(lane, &batches[s]);
                    if let Some(t) = t_eff[s] {
                        if least.map_or(true, |(m, _)| t < m) {
                            least = Some((t, s));
                        }
                    }
                }
                let min_parallel = least.map(|(t, _)| t);
                let serial_head = self.serial.peek().map(|e| e.at);

                let global_min = match (min_parallel, serial_head) {
                    (None, None) => break 'run RunOutcome::Drained,
                    (Some(p), None) => p,
                    (None, Some(f)) => f,
                    (Some(p), Some(f)) => p.min(f),
                };
                if let Some(h) = self.horizon {
                    if global_min > h {
                        break 'run RunOutcome::HorizonReached;
                    }
                }

                // Serial phase: the fence is due once every shard's next
                // parallel work is at or past it (serial-first at ties).
                if let Some(f) = serial_head {
                    let due = match min_parallel {
                        None => true,
                        Some(p) => f <= p,
                    };
                    if due {
                        dbg_serial += 1;
                        self.serial_phase(world, &mut slots, &mut batches, &mut staged);
                        continue 'run;
                    }
                }

                // Second pass: each shard's horizon from the next times of
                // the shards with a channel into it plus their latencies,
                // capped by the serial fence and the run horizon. Walking
                // shards in descending order leaves `active` with the
                // lowest shard last: the quotas below rank units from the
                // back, and the pool hands units out from there.
                //
                // Fine mode: once the budget left is no more than the
                // events pending, an epoch could overshoot the serial
                // cutoff, so only the least (time, shard) shard runs, up to
                // `t + 1 ns`, with the whole remaining budget as its quota.
                // Its events at `t` are the serial engine's next ones: no
                // lower shard holds an event at `t`, and the mail they send
                // arrives after `t`.
                let fine = remaining <= pending;
                let shards_to_plan = match least {
                    Some((_, s)) if fine => s..s + 1,
                    _ => 0..shards,
                };
                let fence = serial_head.map_or(run_bound, |f| f.min(run_bound));
                for s in shards_to_plan.rev() {
                    let Some(t_s) = t_eff[s] else { continue };
                    let h_s = if fine {
                        t_s.saturating_add(one_ns)
                    } else {
                        let mut h_s = fence;
                        for &(q, l) in &inbound[s] {
                            if let Some(t_q) = t_eff[q] {
                                h_s = h_s.min(t_q.saturating_add(l));
                            }
                        }
                        h_s
                    };
                    if t_s >= h_s {
                        continue;
                    }
                    let mut unit = slots[s].take().expect("unit is home");
                    unit.mail = batches[s].entries.len();
                    if unit.mail > 0 {
                        batches[s].deliver(&mut unit.lane);
                    }
                    unit.horizon = h_s;
                    active.push(unit);
                }
                assert!(
                    !active.is_empty(),
                    "conservative epoch made no progress; is a channel latency missing?"
                );
                // Each active unit holds a pending event, so outside fine
                // mode `remaining > pending >= units`, and a fine epoch has
                // one unit: every quota is at least one.
                let units = active.len();
                debug_assert!(remaining >= units as u64, "a unit got no quota");
                for (rank, unit) in active.iter_mut().rev().enumerate() {
                    unit.quota = quota(remaining, units, rank);
                }

                if fine {
                    dbg_fine += 1;
                } else {
                    dbg_epochs += 1;
                    dbg_units += units as u64;
                    dbg_single += u64::from(units == 1);
                }
                if threads == 1 || units == 1 {
                    for unit in &mut active {
                        process_unit(unit, &lat);
                    }
                } else {
                    // Largest mail last, so each home list hands it out
                    // first; the shard key keeps ties in ascending shard
                    // order. Which thread runs a unit changes only
                    // wall-clock balance, never results.
                    active.sort_unstable_by_key(|u| (u.mail, Reverse(u.shard)));
                    pool.run_epoch(&mut active, &lat);
                }

                // Bring the units home, routing each one's sends into the
                // destination batches; the batch merge orders them by
                // (time, source shard, send seq), whatever the routing order.
                for mut unit in active.drain(..) {
                    if unit.processed == unit.quota
                        && unit.lane.next().is_some_and(|(t, _)| t < unit.horizon)
                    {
                        dbg_quota_stops += 1;
                    }
                    self.processed += unit.processed;
                    if let Some(t) = unit.max_t {
                        self.now = self.now.max(t);
                    }
                    for (to, entry) in unit.outbox.drain(..) {
                        batches[to as usize].push(entry);
                    }
                    let home = unit.shard as usize;
                    slots[home] = Some(unit);
                }
            }
        });

        if std::env::var_os("DREDBOX_EPOCH_DEBUG").is_some() {
            eprintln!(
                "epochs={dbg_epochs} units={dbg_units} single-unit={dbg_single} \
                 serial-phases={dbg_serial} fine-steps={dbg_fine} \
                 quota-stops={dbg_quota_stops} processed={} steals={}",
                self.processed,
                pool.lock().steals
            );
        }
        // Reassemble the world and hand the lanes back, each with its
        // undelivered mail.
        let (lanes, parts): (Vec<Lane<E>>, Vec<W::Worker>) = slots
            .into_iter()
            .zip(&mut batches)
            .map(|(slot, batch)| {
                let Unit {
                    mut lane, worker, ..
                } = *slot.expect("unit is home");
                batch.deliver(&mut lane);
                (lane, worker.expect("unit carries its worker"))
            })
            .unzip();
        world.reunite(parts);
        self.lanes = lanes;
        self.rebuild_next_cache();
        outcome
    }

    /// Runs every due serial event with every shard's worker in hand:
    /// pops the (time, shard, seq) head while no shard has parallel work
    /// before it, executes it against the whole world, and routes its
    /// staged follow-ups.
    fn serial_phase<W>(
        &mut self,
        world: &mut W,
        slots: &mut [Slot<E, W::Worker>],
        batches: &mut [Batch<E>],
        staged: &mut Vec<SerialOp<E>>,
    ) where
        W: ParallelWorld<Event = E>,
    {
        let shards = slots.len();
        let mut workers: Vec<W::Worker> = slots
            .iter_mut()
            .map(|u| {
                u.as_mut()
                    .expect("unit is home")
                    .worker
                    .take()
                    .expect("unit carries its worker")
            })
            .collect();

        loop {
            if let Some(max) = self.max_events {
                if self.processed >= max {
                    break;
                }
            }
            let Some(head_at) = self.serial.peek().map(|e| e.at) else {
                break;
            };
            if let Some(h) = self.horizon {
                if head_at > h {
                    break;
                }
            }
            // Recomputed every iteration: staged schedules may have put
            // new parallel work in front of the next serial event.
            let min_parallel = slots
                .iter()
                .zip(batches.iter())
                .filter_map(|(u, b)| next_at(&u.as_ref().expect("unit is home").lane, b))
                .min();
            if let Some(p) = min_parallel {
                if head_at > p {
                    break;
                }
            }

            let entry = self.serial.pop().expect("peeked entry must exist");
            self.processed += 1;
            self.now = self.now.max(entry.at);
            let mut ctx = SerialContext {
                now: entry.at,
                shards: shards as u32,
                staged,
            };
            world.handle_barrier(&mut workers, entry.shard, entry.at, entry.event, &mut ctx);
            for op in staged.drain(..) {
                if op.serial {
                    let seq = self.serial_seq;
                    self.serial_seq += 1;
                    self.serial.push(SerialEntry {
                        at: op.at,
                        shard: ShardId(op.shard),
                        seq,
                        event: op.event,
                    });
                } else {
                    slots[op.shard as usize]
                        .as_mut()
                        .expect("unit is home")
                        .lane
                        .queue
                        .schedule(op.at, op.event);
                }
            }
        }

        for (slot, worker) in slots.iter_mut().zip(workers) {
            slot.as_mut().expect("unit is home").worker = Some(worker);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::{ShardContext, ShardedProcess};

    /// Independent shards, one per worker and joined by no channel: every
    /// horizon is the run's own, so each shard works through its whole
    /// calendar in one epoch.
    impl<Wk: WorldWorker + Send> ParallelWorld for Vec<Wk> {
        type Event = Wk::Event;
        type Worker = Wk;

        fn split(&mut self, _shards: usize) -> Vec<Wk> {
            mem::take(self)
        }

        fn reunite(&mut self, workers: Vec<Wk>) {
            *self = workers;
        }

        fn latency(&self, _from: ShardId, _to: ShardId) -> Option<SimDuration> {
            None
        }
    }

    /// A ring relay with partitioned per-shard logs: tokens hop to the
    /// next shard with a fixed channel latency until their payload
    /// reaches `ceiling`. Implements both the serial and the parallel
    /// traits over identical logic so runs can be compared bit-for-bit.
    struct Relay {
        logs: Vec<Vec<(SimTime, u32)>>,
        latency: SimDuration,
        ceiling: u32,
    }

    impl Relay {
        fn new(shards: usize, ceiling: u32) -> Self {
            Relay {
                logs: (0..shards).map(|_| Vec::new()).collect(),
                latency: SimDuration::from_nanos(7),
                ceiling,
            }
        }
    }

    fn relay_step(
        shards: u32,
        latency: SimDuration,
        ceiling: u32,
        shard: ShardId,
        now: SimTime,
        ev: u32,
    ) -> Option<(ShardId, SimTime, u32)> {
        (ev < ceiling).then(|| (ShardId((shard.0 + 1) % shards), now + latency, ev + 1))
    }

    impl ShardedProcess for Relay {
        type Event = u32;
        fn handle(
            &mut self,
            shard: ShardId,
            now: SimTime,
            ev: u32,
            ctx: &mut ShardContext<'_, u32>,
        ) {
            let shards = self.logs.len() as u32;
            self.logs[shard.0 as usize].push((now, ev));
            if let Some((to, at, next)) =
                relay_step(shards, self.latency, self.ceiling, shard, now, ev)
            {
                ctx.send(to, at, next);
            }
        }
    }

    struct RelayWorker {
        log: Vec<(SimTime, u32)>,
        shards: u32,
        latency: SimDuration,
        ceiling: u32,
    }

    impl WorldWorker for RelayWorker {
        type Event = u32;
        fn handle(
            &mut self,
            shard: ShardId,
            now: SimTime,
            ev: u32,
            ctx: &mut WorkerContext<'_, u32>,
        ) {
            self.log.push((now, ev));
            if let Some((to, at, next)) =
                relay_step(self.shards, self.latency, self.ceiling, shard, now, ev)
            {
                ctx.send(to, at, next);
            }
        }
    }

    impl ParallelWorld for Relay {
        type Event = u32;
        type Worker = RelayWorker;
        fn split(&mut self, shards: usize) -> Vec<RelayWorker> {
            assert_eq!(shards, self.logs.len());
            self.logs
                .iter_mut()
                .map(|log| RelayWorker {
                    log: mem::take(log),
                    shards: shards as u32,
                    latency: self.latency,
                    ceiling: self.ceiling,
                })
                .collect()
        }
        fn reunite(&mut self, workers: Vec<RelayWorker>) {
            for (slot, worker) in self.logs.iter_mut().zip(workers) {
                *slot = worker.log;
            }
        }
        fn latency(&self, _from: ShardId, _to: ShardId) -> Option<SimDuration> {
            Some(self.latency)
        }
    }

    fn seeded_engine(shards: usize) -> ShardedEngine<u32> {
        let mut engine = ShardedEngine::new(shards);
        for s in 0..shards as u32 {
            engine.schedule(ShardId(s), SimTime::from_nanos(u64::from(s % 3)), s * 1000);
        }
        engine
    }

    /// Serial `run` and `run_threaded` at 1/2/4 workers must agree on
    /// every log byte, the clock, the outcome and the processed count.
    #[test]
    fn threaded_matches_serial_bit_for_bit() {
        let shards = 4;
        let mut serial_engine = seeded_engine(shards);
        let mut serial_world = Relay::new(shards, 4200);
        let serial_outcome = serial_engine.run(&mut serial_world);

        for threads in [1, 2, 4, 9] {
            let mut engine = seeded_engine(shards);
            let mut world = Relay::new(shards, 4200);
            let outcome = engine.run_threaded(&mut world, threads);
            assert_eq!(outcome, serial_outcome, "threads={threads}");
            assert_eq!(world.logs, serial_world.logs, "threads={threads}");
            assert_eq!(engine.now(), serial_engine.now(), "threads={threads}");
            assert_eq!(
                engine.processed(),
                serial_engine.processed(),
                "threads={threads}"
            );
            assert_eq!(
                engine.pending(),
                serial_engine.pending(),
                "threads={threads}"
            );
        }
    }

    /// Event budgets and horizons are global and land on the same event
    /// in serial and threaded runs.
    #[test]
    fn budget_and_horizon_are_global_and_identical() {
        let shards = 4;
        for (budget, horizon) in [
            (Some(937), None),
            (None, Some(SimTime::from_nanos(4000))),
            (Some(100), Some(SimTime::from_nanos(350))),
        ] {
            let build = || {
                let mut e = seeded_engine(shards);
                if let Some(b) = budget {
                    e = e.with_event_budget(b);
                }
                if let Some(h) = horizon {
                    e = e.with_horizon(h);
                }
                e
            };
            let mut serial_engine = build();
            let mut serial_world = Relay::new(shards, u32::MAX);
            let serial_outcome = serial_engine.run(&mut serial_world);

            for threads in [1, 2, 4] {
                let mut engine = build();
                let mut world = Relay::new(shards, u32::MAX);
                let outcome = engine.run_threaded(&mut world, threads);
                assert_eq!(outcome, serial_outcome, "threads={threads}");
                assert_eq!(
                    engine.processed(),
                    serial_engine.processed(),
                    "threads={threads}"
                );
                assert_eq!(world.logs, serial_world.logs, "threads={threads}");
                assert_eq!(engine.now(), serial_engine.now(), "threads={threads}");
            }
        }
    }

    /// A world with serial barrier events: each shard counts local
    /// ticks; a serial census reads every shard's worker (sum across
    /// shards) and seeds another tick on every shard. The census value
    /// proves the barrier saw every shard caught up to the fence.
    struct Census {
        counts: Vec<u64>,
        censuses: Vec<(SimTime, u64)>,
    }

    #[derive(Debug)]
    enum CensusEvent {
        Tick,
        Census(u32),
    }

    struct CensusWorker {
        count: u64,
    }

    impl WorldWorker for CensusWorker {
        type Event = CensusEvent;
        fn handle(
            &mut self,
            shard: ShardId,
            now: SimTime,
            ev: CensusEvent,
            ctx: &mut WorkerContext<'_, CensusEvent>,
        ) {
            match ev {
                CensusEvent::Tick => {
                    self.count += 1;
                    if self.count < 40 {
                        ctx.schedule(
                            now + SimDuration::from_nanos(10 + u64::from(shard.0)),
                            CensusEvent::Tick,
                        );
                    }
                }
                CensusEvent::Census(_) => unreachable!("census events are serial"),
            }
        }
    }

    impl ParallelWorld for Census {
        type Event = CensusEvent;
        type Worker = CensusWorker;
        fn split(&mut self, shards: usize) -> Vec<CensusWorker> {
            assert_eq!(shards, self.counts.len());
            self.counts
                .iter()
                .map(|&count| CensusWorker { count })
                .collect()
        }
        fn reunite(&mut self, workers: Vec<CensusWorker>) {
            for (slot, worker) in self.counts.iter_mut().zip(workers) {
                *slot = worker.count;
            }
        }
        fn latency(&self, _from: ShardId, _to: ShardId) -> Option<SimDuration> {
            Some(SimDuration::from_nanos(50))
        }
        fn handle_barrier(
            &mut self,
            workers: &mut [CensusWorker],
            shard: ShardId,
            now: SimTime,
            ev: CensusEvent,
            ctx: &mut SerialContext<'_, CensusEvent>,
        ) {
            let CensusEvent::Census(round) = ev else {
                unreachable!("ticks are parallel events")
            };
            let total: u64 = workers.iter().map(|w| w.count).sum();
            self.censuses.push((now, total));
            for s in 0..self.counts.len() as u32 {
                ctx.schedule(
                    ShardId(s),
                    now + SimDuration::from_nanos(5),
                    CensusEvent::Tick,
                );
            }
            if round < 3 {
                ctx.schedule_serial(
                    shard,
                    now + SimDuration::from_nanos(200),
                    CensusEvent::Census(round + 1),
                );
            }
        }
    }

    #[test]
    fn serial_events_fence_the_run_identically_at_all_thread_counts() {
        let run = |threads: usize| {
            let shards = 3;
            let mut engine = ShardedEngine::new(shards);
            for s in 0..shards as u32 {
                engine.schedule(ShardId(s), SimTime::ZERO, CensusEvent::Tick);
            }
            engine.schedule_serial(ShardId(0), SimTime::from_nanos(120), CensusEvent::Census(0));
            let mut world = Census {
                counts: vec![0; shards],
                censuses: Vec::new(),
            };
            let outcome = engine.run_threaded(&mut world, threads);
            (
                outcome,
                world.counts,
                world.censuses,
                engine.processed(),
                engine.now(),
            )
        };
        let baseline = run(1);
        assert_eq!(baseline.0, RunOutcome::Drained);
        assert_eq!(baseline.2.len(), 4, "all four census rounds ran");
        // Censuses read cumulative sums, so they are strictly increasing.
        assert!(baseline.2.windows(2).all(|w| w[0].1 < w[1].1));
        for threads in [2, 3, 8] {
            assert_eq!(run(threads), baseline, "threads={threads}");
        }
    }

    /// A serial event seeded on the engine reaches the barrier, where the
    /// default barrier handler delegates to `handle_serial`.
    #[test]
    fn worker_serial_sends_reach_the_barrier() {
        struct Probe {
            fired: Vec<(SimTime, ShardId)>,
        }
        struct ProbeWorker;
        impl WorldWorker for ProbeWorker {
            type Event = u8;
            fn handle(
                &mut self,
                _shard: ShardId,
                _now: SimTime,
                ev: u8,
                _ctx: &mut WorkerContext<'_, u8>,
            ) {
                assert_eq!(ev, 0);
            }
        }
        impl ParallelWorld for Probe {
            type Event = u8;
            type Worker = ProbeWorker;
            fn split(&mut self, shards: usize) -> Vec<ProbeWorker> {
                (0..shards).map(|_| ProbeWorker).collect()
            }
            fn reunite(&mut self, _workers: Vec<ProbeWorker>) {}
            fn latency(&self, _f: ShardId, _t: ShardId) -> Option<SimDuration> {
                Some(SimDuration::from_nanos(90))
            }
            fn handle_serial(
                &mut self,
                shard: ShardId,
                now: SimTime,
                ev: u8,
                _ctx: &mut SerialContext<'_, u8>,
            ) {
                assert_eq!(ev, 1);
                self.fired.push((now, shard));
            }
        }
        for threads in [1, 2] {
            let mut engine = ShardedEngine::new(2);
            engine.schedule(ShardId(0), SimTime::from_nanos(3), 0);
            engine.schedule_serial(ShardId(1), SimTime::from_nanos(93), 1);
            let mut world = Probe { fired: Vec::new() };
            assert_eq!(
                engine.run_threaded(&mut world, threads),
                RunOutcome::Drained
            );
            assert_eq!(world.fired, vec![(SimTime::from_nanos(93), ShardId(1))]);
            assert_eq!(engine.processed(), 2);
        }
    }

    /// With a single shard and no channels, the epoch runner degenerates
    /// to the plain loop and matches `run` exactly.
    #[test]
    fn single_shard_matches_serial() {
        let mut serial_engine = ShardedEngine::new(1).with_horizon(SimTime::from_nanos(600));
        serial_engine.schedule(ShardId(0), SimTime::ZERO, 0);
        let mut serial_world = Relay::new(1, u32::MAX);
        let serial_outcome = serial_engine.run(&mut serial_world);
        assert_eq!(serial_outcome, RunOutcome::HorizonReached);

        let mut engine = ShardedEngine::new(1).with_horizon(SimTime::from_nanos(600));
        engine.schedule(ShardId(0), SimTime::ZERO, 0);
        let mut world = Relay::new(1, u32::MAX);
        assert_eq!(engine.run_threaded(&mut world, 4), serial_outcome);
        assert_eq!(world.logs, serial_world.logs);
        assert_eq!(engine.now(), serial_engine.now());
        assert_eq!(engine.processed(), serial_engine.processed());
    }

    /// Independent chains: every shard holds a presorted run of arrivals
    /// at the same instants, and each arrival respawns local follow-ups,
    /// spaced by shard, until its low byte reaches `CHAIN_DEPTH`. No shard
    /// ever messages another. The equal-time arrivals make a budget cut
    /// depend on the lowest-shard-first tie-break.
    const CHAIN_DEPTH: u32 = 4;

    fn chain_step(shard: ShardId, now: SimTime, ev: u32) -> Option<(SimTime, u32)> {
        let depth = ev & 0xff;
        (depth < CHAIN_DEPTH).then(|| {
            let gap = 2 + u64::from(shard.0) + u64::from(depth);
            (now + SimDuration::from_nanos(gap), ev + 1)
        })
    }

    struct Chains {
        logs: Vec<Vec<(SimTime, u32)>>,
    }

    impl ShardedProcess for Chains {
        type Event = u32;
        fn handle(
            &mut self,
            shard: ShardId,
            now: SimTime,
            ev: u32,
            ctx: &mut ShardContext<'_, u32>,
        ) {
            self.logs[shard.0 as usize].push((now, ev));
            if let Some((at, next)) = chain_step(shard, now, ev) {
                ctx.schedule(at, next);
            }
        }
    }

    struct ChainWorker {
        log: Vec<(SimTime, u32)>,
    }

    impl WorldWorker for ChainWorker {
        type Event = u32;
        fn handle(
            &mut self,
            shard: ShardId,
            now: SimTime,
            ev: u32,
            ctx: &mut WorkerContext<'_, u32>,
        ) {
            self.log.push((now, ev));
            if let Some((at, next)) = chain_step(shard, now, ev) {
                ctx.schedule(at, next);
            }
        }
    }

    /// A `Vec` of workers runs as independent shards: at every thread
    /// count it matches the serial engine on the logs, the clock, the
    /// processed count, the pending count and the outcome — draining,
    /// stopping at a horizon, or cut by a budget smaller than the
    /// arrivals still queued, which the runner meets in fine-step mode.
    #[test]
    fn independent_shards_match_serial_at_every_thread_count() {
        const ARRIVALS: u32 = 60;
        for shards in [1usize, 4] {
            let total = shards as u64 * u64::from(ARRIVALS);
            for (budget, horizon, expected) in [
                (None, None, RunOutcome::Drained),
                (
                    None,
                    Some(SimTime::from_nanos(333)),
                    RunOutcome::HorizonReached,
                ),
                (Some(total * 3 / 4), None, RunOutcome::BudgetExhausted),
                (
                    Some(total / 2),
                    Some(SimTime::from_nanos(500)),
                    RunOutcome::BudgetExhausted,
                ),
            ] {
                let build = || {
                    let mut engine = ShardedEngine::new(shards);
                    if let Some(b) = budget {
                        engine = engine.with_event_budget(b);
                    }
                    if let Some(h) = horizon {
                        engine = engine.with_horizon(h);
                    }
                    for s in 0..shards as u32 {
                        engine.schedule_sorted(
                            ShardId(s),
                            (0..ARRIVALS).map(|k| (SimTime::from_nanos(u64::from(10 * k)), k << 8)),
                        );
                    }
                    engine
                };
                let mut serial_engine = build();
                let mut serial_world = Chains {
                    logs: vec![Vec::new(); shards],
                };
                let serial_outcome = serial_engine.run(&mut serial_world);
                assert_eq!(serial_outcome, expected, "shards={shards}");

                for threads in [1, 2, 4] {
                    let case = format!(
                        "shards={shards} threads={threads} budget={budget:?} horizon={horizon:?}"
                    );
                    let mut engine = build();
                    let mut world: Vec<ChainWorker> = (0..shards)
                        .map(|_| ChainWorker { log: Vec::new() })
                        .collect();
                    let outcome = engine.run_threaded(&mut world, threads);
                    assert_eq!(outcome, serial_outcome, "{case}");
                    let logs: Vec<_> = world.into_iter().map(|w| w.log).collect();
                    assert_eq!(logs, serial_world.logs, "{case}");
                    assert_eq!(engine.now(), serial_engine.now(), "{case}");
                    assert_eq!(engine.processed(), serial_engine.processed(), "{case}");
                    assert_eq!(engine.pending(), serial_engine.pending(), "{case}");
                }
            }
        }
    }

    /// A declared zero-latency channel is rejected up front.
    #[test]
    #[should_panic(expected = "zero-latency channel")]
    fn zero_latency_channel_panics() {
        struct Zero;
        struct ZeroWorker;
        impl WorldWorker for ZeroWorker {
            type Event = ();
            fn handle(&mut self, _s: ShardId, _n: SimTime, _e: (), _c: &mut WorkerContext<'_, ()>) {
            }
        }
        impl ParallelWorld for Zero {
            type Event = ();
            type Worker = ZeroWorker;
            fn split(&mut self, shards: usize) -> Vec<ZeroWorker> {
                (0..shards).map(|_| ZeroWorker).collect()
            }
            fn reunite(&mut self, _w: Vec<ZeroWorker>) {}
            fn latency(&self, _f: ShardId, _t: ShardId) -> Option<SimDuration> {
                Some(SimDuration::ZERO)
            }
        }
        let mut engine = ShardedEngine::new(2);
        engine.schedule(ShardId(0), SimTime::ZERO, ());
        engine.run_threaded(&mut Zero, 2);
    }

    /// A send that beats its declared channel latency is a contract
    /// violation and panics.
    #[test]
    #[should_panic(expected = "beats the declared channel latency")]
    fn undercutting_the_channel_latency_panics() {
        struct Cheat;
        struct CheatWorker;
        impl WorldWorker for CheatWorker {
            type Event = ();
            fn handle(
                &mut self,
                shard: ShardId,
                now: SimTime,
                _e: (),
                ctx: &mut WorkerContext<'_, ()>,
            ) {
                ctx.send(ShardId(1 - shard.0), now + SimDuration::from_nanos(1), ());
            }
        }
        impl ParallelWorld for Cheat {
            type Event = ();
            type Worker = CheatWorker;
            fn split(&mut self, shards: usize) -> Vec<CheatWorker> {
                (0..shards).map(|_| CheatWorker).collect()
            }
            fn reunite(&mut self, _w: Vec<CheatWorker>) {}
            fn latency(&self, _f: ShardId, _t: ShardId) -> Option<SimDuration> {
                Some(SimDuration::from_nanos(100))
            }
        }
        let mut engine = ShardedEngine::new(2);
        engine.schedule(ShardId(0), SimTime::ZERO, ());
        engine.run_threaded(&mut Cheat, 1);
    }

    /// Every shard ticks every 10 ns; shard 3's handler panics once its
    /// clock reaches 500 ns, mid-run, with all eight units in the pool.
    /// `spin` picks the barrier's wait branch; `None` leaves it to the
    /// host, as `run_threaded` does.
    fn run_with_a_panicking_shard(threads: usize, spin: Option<bool>) {
        struct Faulty;
        struct FaultyWorker;
        impl WorldWorker for FaultyWorker {
            type Event = ();
            fn handle(
                &mut self,
                shard: ShardId,
                now: SimTime,
                _e: (),
                ctx: &mut WorkerContext<'_, ()>,
            ) {
                if shard == ShardId(3) && now >= SimTime::from_nanos(500) {
                    panic!("shard 3 handler failed at {now}");
                }
                if now < SimTime::from_nanos(5_000) {
                    ctx.schedule(now + SimDuration::from_nanos(10), ());
                }
            }
        }
        impl ParallelWorld for Faulty {
            type Event = ();
            type Worker = FaultyWorker;
            fn split(&mut self, shards: usize) -> Vec<FaultyWorker> {
                (0..shards).map(|_| FaultyWorker).collect()
            }
            fn reunite(&mut self, _w: Vec<FaultyWorker>) {}
            fn latency(&self, _f: ShardId, _t: ShardId) -> Option<SimDuration> {
                Some(SimDuration::from_nanos(100))
            }
        }
        let mut engine = ShardedEngine::new(8);
        for s in 0..8 {
            engine.schedule(ShardId(s), SimTime::ZERO, ());
        }
        match spin {
            Some(spin) => engine.run_epochs(&mut Faulty, threads, spin),
            None => engine.run_threaded(&mut Faulty, threads),
        };
    }

    /// A handler panic on a helper thread reaches the caller instead of
    /// leaving it waiting for an acknowledgement that never comes.
    #[test]
    #[should_panic(expected = "shard 3 handler failed")]
    fn handler_panic_propagates_at_two_threads() {
        run_with_a_panicking_shard(2, None);
    }

    #[test]
    #[should_panic(expected = "shard 3 handler failed")]
    fn handler_panic_propagates_at_four_threads() {
        run_with_a_panicking_shard(4, None);
    }

    #[test]
    #[should_panic(expected = "shard 3 handler failed")]
    fn handler_panic_propagates_through_a_spinning_barrier() {
        run_with_a_panicking_shard(2, Some(true));
    }

    #[test]
    #[should_panic(expected = "shard 3 handler failed")]
    fn handler_panic_propagates_through_a_parking_barrier() {
        run_with_a_panicking_shard(4, Some(false));
    }

    /// Both barrier branches — spin then park, and park at once, whatever
    /// the host's core count — give the one-thread run's logs, count,
    /// clock and outcome, on the ring relay (one pooled epoch per hop)
    /// and on the skewed hub (long-idle shards, so waits often park).
    #[test]
    fn both_barrier_branches_match_one_thread() {
        let relay = |threads: usize, spin: bool| {
            let mut engine = seeded_engine(4);
            let mut world = Relay::new(4, 3000);
            let outcome = engine.run_epochs(&mut world, threads, spin);
            (outcome, world.logs, engine.processed(), engine.now())
        };
        let skewed = |threads: usize, spin: bool| {
            let mut engine = ShardedEngine::new(6);
            engine.schedule(ShardId(0), SimTime::ZERO, 0);
            engine.schedule(ShardId(1), SimTime::ZERO, TOCK);
            let mut world = Skewed {
                logs: vec![Vec::new(); 6],
            };
            let outcome = engine.run_epochs(&mut world, threads, spin);
            (outcome, world.logs, engine.processed(), engine.now())
        };
        let relay_baseline = relay(1, false);
        let skewed_baseline = skewed(1, false);
        for (threads, spin) in [(2, true), (2, false), (4, true), (4, false)] {
            let case = format!("threads={threads} spin={spin}");
            assert_eq!(relay(threads, spin), relay_baseline, "relay {case}");
            assert_eq!(skewed(threads, spin), skewed_baseline, "skewed {case}");
        }
    }

    /// Independent countdowns: an event carrying `n > 0` schedules `n − 1`
    /// one nanosecond later on its own shard.
    struct CountdownWorker {
        handled: u64,
    }

    impl WorldWorker for CountdownWorker {
        type Event = u32;
        fn handle(&mut self, _s: ShardId, now: SimTime, n: u32, ctx: &mut WorkerContext<'_, u32>) {
            self.handled += 1;
            if n > 0 {
                ctx.schedule(now + SimDuration::from_nanos(1), n - 1);
            }
        }
    }

    /// Runs countdowns starting at `starts` (one per shard, all at time
    /// zero) under `budget` on `threads` threads, and returns the outcome
    /// and each shard's handled count.
    fn run_countdowns(
        starts: &[u32],
        budget: u64,
        threads: usize,
        spin: bool,
    ) -> (RunOutcome, Vec<u64>) {
        let mut engine = ShardedEngine::new(starts.len()).with_event_budget(budget);
        for (s, &n) in starts.iter().enumerate() {
            engine.schedule(ShardId(s as u32), SimTime::ZERO, n);
        }
        let mut world: Vec<CountdownWorker> = starts
            .iter()
            .map(|_| CountdownWorker { handled: 0 })
            .collect();
        let outcome = engine.run_epochs(&mut world, threads, spin);
        let handled: Vec<u64> = world.iter().map(|w| w.handled).collect();
        assert_eq!(engine.processed(), handled.iter().sum::<u64>());
        (outcome, handled)
    }

    /// A budget that binds inside one pooled epoch: four countdowns of 500
    /// events each run in a single epoch, and a budget of 777 is far above
    /// the four events pending when it starts, so the fine-step guard
    /// stays off and the per-unit quotas (195, 194, 194, 194) alone stop
    /// the run. Every thread count and barrier branch handles the same
    /// events on every shard, and here that is also the serial engine's
    /// cutoff, since the countdowns advance in lockstep.
    #[test]
    fn a_budget_binding_inside_a_pooled_epoch_stops_at_the_serial_cutoff() {
        const BUDGET: u64 = 777;
        struct Countdowns {
            handled: Vec<u64>,
        }
        impl ShardedProcess for Countdowns {
            type Event = u32;
            fn handle(
                &mut self,
                s: ShardId,
                now: SimTime,
                n: u32,
                ctx: &mut ShardContext<'_, u32>,
            ) {
                self.handled[s.0 as usize] += 1;
                if n > 0 {
                    ctx.schedule(now + SimDuration::from_nanos(1), n - 1);
                }
            }
        }
        let mut serial = ShardedEngine::new(4).with_event_budget(BUDGET);
        for s in 0..4 {
            serial.schedule(ShardId(s), SimTime::ZERO, 499);
        }
        let mut counts = Countdowns {
            handled: vec![0; 4],
        };
        let serial_outcome = serial.run(&mut counts);
        assert_eq!(serial_outcome, RunOutcome::BudgetExhausted);
        assert_eq!(counts.handled, [195, 194, 194, 194]);

        for (threads, spin) in [(1, false), (2, true), (2, false), (4, true), (4, false)] {
            let case = format!("threads={threads} spin={spin}");
            let (outcome, handled) = run_countdowns(&[499; 4], BUDGET, threads, spin);
            assert_eq!(outcome, serial_outcome, "{case}");
            assert_eq!(handled, counts.handled, "{case}");
        }
    }

    /// Uneven countdowns under the same budget: shard 0's 51 events end
    /// well before its quota of 195, so the first epoch handles 51 + 3 ×
    /// 194 = 633 events, and the next one splits the remaining 144 over
    /// the three shards still busy. Every thread count and barrier branch
    /// stops on the same per-shard counts.
    #[test]
    fn a_short_unit_leaves_its_unspent_quota_to_the_next_epoch() {
        const BUDGET: u64 = 777;
        let starts = [50, 499, 499, 499];
        let (baseline_outcome, baseline) = run_countdowns(&starts, BUDGET, 1, false);
        assert_eq!(baseline_outcome, RunOutcome::BudgetExhausted);
        assert_eq!(baseline, [51, 242, 242, 242]);
        for (threads, spin) in [(2, true), (2, false), (4, true), (4, false)] {
            let case = format!("threads={threads} spin={spin}");
            let (outcome, handled) = run_countdowns(&starts, BUDGET, threads, spin);
            assert_eq!(outcome, baseline_outcome, "{case}");
            assert_eq!(handled, baseline, "{case}");
        }
    }

    /// The budget split: quotas sum to the remaining budget, even a
    /// budget-free run's `u64::MAX`; the remainder goes to the lowest
    /// shards; and every unit gets at least one event whenever the budget
    /// exceeds the pending count, which is at least the unit count.
    #[test]
    fn quotas_split_the_remaining_budget_exactly() {
        let split = |remaining: u64, units: usize| -> Vec<u64> {
            (0..units).map(|r| quota(remaining, units, r)).collect()
        };
        assert_eq!(split(777, 4), [195, 194, 194, 194]);
        assert_eq!(split(10, 4), [3, 3, 2, 2]);
        assert_eq!(split(5, 1), [5]);
        for units in [1, 2, 3, 7, 64, 65] {
            let quotas = split(u64::MAX, units);
            let sum = quotas.iter().try_fold(0u64, |a, &q| a.checked_add(q));
            assert_eq!(sum, Some(u64::MAX), "units={units}");
            // Pooled epochs run only while `remaining > pending >= units`.
            for remaining in units as u64 + 1..units as u64 + 140 {
                let quotas = split(remaining, units);
                assert_eq!(quotas.iter().sum::<u64>(), remaining);
                assert!(quotas.iter().all(|&q| q >= 1), "{remaining}/{units}");
                assert!(quotas.windows(2).all(|w| w[0] >= w[1]));
                assert!(quotas[0] - quotas[units - 1] <= 1);
            }
        }
    }

    /// A thread takes its own units from the back of its home list, the
    /// largest mail first; once that list is empty it takes the back of
    /// the longest other list, the lowest thread's at equal lengths, and
    /// reports the take as a steal.
    #[test]
    fn a_thread_takes_its_own_units_then_the_back_of_the_longest_list() {
        // Three threads' home lists of (shard, mail), ascending in mail.
        let mut todo = vec![
            vec![(3, 1), (0, 9)],
            vec![(4, 2), (1, 5), (7, 8)],
            vec![(2, 0), (8, 1), (5, 3), (11, 4)],
        ];
        assert_eq!(take(&mut todo, 1), Some(((7, 8), false)));
        let order: Vec<_> = std::iter::from_fn(|| take(&mut todo, 0)).collect();
        assert_eq!(
            order,
            [
                ((0, 9), false),
                ((3, 1), false),
                ((11, 4), true),
                ((5, 3), true),
                ((1, 5), true),
                ((8, 1), true),
                ((4, 2), true),
                ((2, 0), true),
            ]
        );
        assert!(todo.iter().all(Vec::is_empty));
        assert_eq!(take(&mut todo, 2), None);
    }

    const HOT_TICKS: u64 = 40_000;
    const MAIL: u64 = 1 << 40;
    const ECHO: u64 = 1 << 41;
    const TOCK: u64 = 1 << 42;

    /// A skewed world on six shards. Shard 0 ticks every nanosecond and
    /// leaves one far-future echo per tick, so its volume dwarfs the rest
    /// and enough events stay pending for a budget to bind in fine mode.
    /// Every 64 ticks it mails one of shards 1–3; shard 4 gets mail only
    /// in the last quarter of the run, and shard 5 never does. Mail costs
    /// its receiver one local follow-up. Only the hub channels 0 ↔ 1–4
    /// are declared, both ways, so shard 1's 50 ns metronome bounds shard
    /// 0's horizon and the budget check sees the echoes pile up. No shard
    /// answers mail: an answer from a shard that looked idle can land
    /// behind a horizon, so only one-way traffic keeps the serial engine
    /// a valid oracle.
    struct Skewed {
        logs: Vec<Vec<(SimTime, u64)>>,
    }

    struct SkewedWorker {
        log: Vec<(SimTime, u64)>,
    }

    fn skewed_latency(from: ShardId, to: ShardId) -> Option<SimDuration> {
        let (a, b) = (from.0.min(to.0), from.0.max(to.0));
        (a == 0 && (1..=4).contains(&b))
            .then(|| SimDuration::from_nanos(40 + 10 * u64::from(from.0 + to.0)))
    }

    /// One skewed-world event; every follow-up leaves through `send`,
    /// which treats a send to the own shard as a local schedule.
    fn skewed_step(
        shard: ShardId,
        now: SimTime,
        ev: u64,
        mut send: impl FnMut(ShardId, SimTime, u64),
    ) {
        if ev & ECHO != 0 {
            return;
        }
        if ev & TOCK != 0 {
            if now < SimTime::from_nanos(HOT_TICKS) {
                send(shard, now + SimDuration::from_nanos(50), TOCK);
            }
            return;
        }
        if shard == ShardId(0) {
            if ev + 1 < HOT_TICKS {
                send(shard, now + SimDuration::from_nanos(1), ev + 1);
            }
            send(shard, SimTime::from_nanos(1_000_000 + ev), ev | ECHO);
            let to = if ev >= HOT_TICKS / 4 * 3 {
                (ev % 256 == 0).then_some(4)
            } else {
                (ev % 64 == 0).then_some(1 + (ev / 64) % 3)
            };
            if let Some(to) = to {
                let to = ShardId(to as u32);
                let lat = skewed_latency(shard, to).expect("hub channel");
                send(to, now + lat, ev | MAIL);
            }
        } else if ev & MAIL != 0 {
            send(shard, now + SimDuration::from_nanos(3), ev & !MAIL);
        }
    }

    impl ShardedProcess for Skewed {
        type Event = u64;
        fn handle(
            &mut self,
            shard: ShardId,
            now: SimTime,
            ev: u64,
            ctx: &mut ShardContext<'_, u64>,
        ) {
            self.logs[shard.0 as usize].push((now, ev));
            skewed_step(shard, now, ev, |to, at, e| ctx.send(to, at, e));
        }
    }

    impl WorldWorker for SkewedWorker {
        type Event = u64;
        fn handle(
            &mut self,
            shard: ShardId,
            now: SimTime,
            ev: u64,
            ctx: &mut WorkerContext<'_, u64>,
        ) {
            self.log.push((now, ev));
            skewed_step(shard, now, ev, |to, at, e| ctx.send(to, at, e));
        }
    }

    impl ParallelWorld for Skewed {
        type Event = u64;
        type Worker = SkewedWorker;
        fn split(&mut self, shards: usize) -> Vec<SkewedWorker> {
            assert_eq!(shards, self.logs.len());
            self.logs
                .iter_mut()
                .map(|log| SkewedWorker {
                    log: mem::take(log),
                })
                .collect()
        }
        fn reunite(&mut self, workers: Vec<SkewedWorker>) {
            for (slot, worker) in self.logs.iter_mut().zip(workers) {
                *slot = worker.log;
            }
        }
        fn latency(&self, from: ShardId, to: ShardId) -> Option<SimDuration> {
            skewed_latency(from, to)
        }
    }

    /// Dynamic claiming must not leak into results: under a ≥100× load
    /// skew with long-idle shards, the serial engine and every thread
    /// count — including more threads than shards — give the same logs,
    /// count, clock and outcome, whether the run drains, stops on a
    /// binding budget or stops at a horizon.
    #[test]
    fn skewed_load_is_bit_identical_at_every_thread_count() {
        let shards = 6;
        for (budget, horizon, expected) in [
            (None, None, RunOutcome::Drained),
            (Some(30_000), None, RunOutcome::BudgetExhausted),
            (
                None,
                Some(SimTime::from_nanos(25_000)),
                RunOutcome::HorizonReached,
            ),
        ] {
            // Threads 0 stands for the serial engine.
            let run = |threads: usize| {
                let mut engine = ShardedEngine::new(shards);
                if let Some(b) = budget {
                    engine = engine.with_event_budget(b);
                }
                if let Some(h) = horizon {
                    engine = engine.with_horizon(h);
                }
                engine.schedule(ShardId(0), SimTime::ZERO, 0);
                engine.schedule(ShardId(1), SimTime::ZERO, TOCK);
                let mut world = Skewed {
                    logs: vec![Vec::new(); shards],
                };
                let outcome = if threads == 0 {
                    engine.run(&mut world)
                } else {
                    engine.run_threaded(&mut world, threads)
                };
                (outcome, world.logs, engine.processed(), engine.now())
            };
            let baseline = run(0);
            assert_eq!(baseline.0, expected);
            if expected == RunOutcome::Drained {
                let volume: Vec<usize> = baseline.1.iter().map(Vec::len).collect();
                let busiest = volume.iter().copied().max().unwrap_or(0);
                let quietest = volume.iter().copied().filter(|&n| n > 0).min();
                assert!(
                    busiest >= 100 * quietest.unwrap_or(usize::MAX),
                    "load is not skewed: {volume:?}"
                );
                assert!(volume[5] == 0, "shard 5 stays idle");
                let first_mail = baseline.1[4].first().map(|&(t, _)| t);
                assert!(
                    first_mail > Some(SimTime::from_nanos(HOT_TICKS / 4 * 3)),
                    "shard 4 sits idle for most of the run"
                );
            }
            for threads in [1, 2, 3, 4, 8] {
                assert_eq!(
                    run(threads),
                    baseline,
                    "threads={threads} budget={budget:?} horizon={horizon:?}"
                );
            }
        }
    }

    /// The observable end of a run: outcome, per-shard logs, clock,
    /// processed count and pending count.
    type End<T> = (RunOutcome, Vec<Vec<(SimTime, T)>>, SimTime, u64, usize);

    /// Runs `world` from `engine` on the serial engine when `threads` is
    /// 0, else on `threads` threads, and returns the end of the run with
    /// the logs `logs` reads out of the world. The threaded runs park at
    /// every barrier: spinning would hold a core the binary's other tests
    /// need, and the barrier branch never changes results
    /// (`both_barrier_branches_match_one_thread`).
    fn run_to_end<W, T>(
        mut engine: ShardedEngine<<W as ParallelWorld>::Event>,
        mut world: W,
        threads: usize,
        logs: impl Fn(W) -> Vec<Vec<(SimTime, T)>>,
    ) -> End<T>
    where
        W: ParallelWorld + ShardedProcess<Event = <W as ParallelWorld>::Event>,
    {
        let outcome = if threads == 0 {
            engine.run(&mut world)
        } else {
            engine.run_epochs(&mut world, threads, false)
        };
        let (now, processed, pending) = (engine.now(), engine.processed(), engine.pending());
        (outcome, logs(world), now, processed, pending)
    }

    /// Applies an optional budget and horizon to `engine`.
    fn limited<E>(
        mut engine: ShardedEngine<E>,
        budget: Option<u64>,
        horizon: Option<SimTime>,
    ) -> ShardedEngine<E> {
        if let Some(b) = budget {
            engine = engine.with_event_budget(b);
        }
        if let Some(h) = horizon {
            engine = engine.with_horizon(h);
        }
        engine
    }

    /// The relay ring of `seeded_engine(4)` with a hop ceiling of 2,000:
    /// it drains after `RELAY_EVENTS` events, the last near 14 µs.
    const RELAY_EVENTS: u64 = 3_004;

    /// The skewed hub drains after `SKEWED_EVENTS` events, the last echo
    /// near 1.04 ms.
    const SKEWED_EVENTS: u64 = 81_817;

    fn relay_end(budget: Option<u64>, horizon: Option<SimTime>, threads: usize) -> End<u32> {
        let engine = limited(seeded_engine(4), budget, horizon);
        run_to_end(engine, Relay::new(4, 2_000), threads, |w| w.logs)
    }

    fn skewed_end(budget: Option<u64>, horizon: Option<SimTime>, threads: usize) -> End<u64> {
        let mut engine = limited(ShardedEngine::new(6), budget, horizon);
        engine.schedule(ShardId(0), SimTime::ZERO, 0);
        engine.schedule(ShardId(1), SimTime::ZERO, TOCK);
        let world = Skewed {
            logs: vec![Vec::new(); 6],
        };
        run_to_end(engine, world, threads, |w| w.logs)
    }

    /// A drawn budget: none, `small` (one of the first eight events, so
    /// below and around the shard count), or `any` (drawn up to the
    /// world's drain count).
    fn drawn_budget(kind: u8, small: u64, any: u64) -> Option<u64> {
        match kind {
            0 => None,
            1 => Some(small),
            _ => Some(any),
        }
    }

    /// A drawn horizon: none, `at`, or the last representable instant.
    fn drawn_horizon(kind: u8, at: u64) -> Option<SimTime> {
        match kind {
            0 => None,
            1 => Some(SimTime::from_nanos(at)),
            _ => Some(SimTime::from_nanos(u64::MAX)),
        }
    }

    proptest::proptest! {
        /// Random budgets and horizons cut the relay ring where the
        /// serial engine does, at 1, 2 and 3 threads: on either side of
        /// the switch into fine mode, below the shard count, and at the
        /// last representable horizon.
        #[test]
        fn random_limits_cut_the_relay_where_the_serial_engine_does(
            budget_kind in 0u8..3,
            small in 1u64..9,
            any in 1u64..RELAY_EVENTS + 1,
            horizon_kind in 0u8..3,
            at in 0u64..15_000,
        ) {
            let budget = drawn_budget(budget_kind, small, any);
            let horizon = drawn_horizon(horizon_kind, at);
            let serial = relay_end(budget, horizon, 0);
            for threads in [1, 2, 3] {
                proptest::prop_assert_eq!(
                    &relay_end(budget, horizon, threads),
                    &serial,
                    "threads={} budget={:?} horizon={:?}",
                    threads,
                    budget,
                    horizon
                );
            }
        }

        /// The same on the skewed hub, whose echoes keep tens of
        /// thousands of events pending, so most budgets reach fine mode
        /// early and pooled epochs run under the rest. A skewed run is up
        /// to ~82k events, so each case checks one drawn thread count
        /// rather than all three; the 64 cases cover each many times.
        #[test]
        fn random_limits_cut_the_skewed_hub_where_the_serial_engine_does(
            budget_kind in 0u8..3,
            small in 1u64..9,
            any in 1u64..SKEWED_EVENTS + 1,
            horizon_kind in 0u8..3,
            at in 0u64..1_050_000,
            threads in 1usize..4,
        ) {
            let budget = drawn_budget(budget_kind, small, any);
            let horizon = drawn_horizon(horizon_kind, at);
            proptest::prop_assert_eq!(
                skewed_end(budget, horizon, threads),
                skewed_end(budget, horizon, 0),
                "threads={} budget={:?} horizon={:?}",
                threads,
                budget,
                horizon
            );
        }
    }

    /// The drain counts the proptests draw budgets up to.
    #[test]
    fn the_drawn_worlds_drain_at_their_declared_counts() {
        assert_eq!(relay_end(None, None, 0).3, RELAY_EVENTS);
        assert_eq!(skewed_end(None, None, 0).3, SKEWED_EVENTS);
    }

    /// A horizon at the last representable instant: the epoch runner's
    /// exclusive bounds saturate instead of overflowing, and `run_threaded`
    /// drains, or stops at a budget, exactly as the serial engine does.
    #[test]
    fn a_maximal_horizon_matches_serial() {
        let last = Some(SimTime::from_nanos(u64::MAX));
        for budget in [None, Some(937)] {
            let serial = relay_end(budget, last, 0);
            for threads in [1, 2, 4] {
                let mut engine = limited(seeded_engine(4), budget, last);
                let mut world = Relay::new(4, 2_000);
                let outcome = engine.run_threaded(&mut world, threads);
                let end = (
                    outcome,
                    world.logs,
                    engine.now(),
                    engine.processed(),
                    engine.pending(),
                );
                assert_eq!(end, serial, "threads={threads} budget={budget:?}");
            }
        }
    }
}
