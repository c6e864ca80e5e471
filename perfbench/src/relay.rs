//! A synthetic hub relay on `ShardedEngine`: the engine's own cost per
//! event, with no system model behind it.
//!
//! Shard 0 is the hub (the cluster front door); every other shard runs one
//! self-rescheduling chain. A share of each chain's hops crosses to the
//! hub through the mailbox, and the hub hands the chain back to the next
//! rack shard — the hub topology of a federated replay.

use std::mem;

use dredbox::sim::engine::RunOutcome;
use dredbox::sim::parallel::{ParallelWorld, SerialContext, WorkerContext, WorldWorker};
use dredbox::sim::shard::{ShardContext, ShardId, ShardedEngine, ShardedProcess};
use dredbox::sim::time::{SimDuration, SimTime};

/// Simulated time between two hops of one chain.
const STEP: SimDuration = SimDuration::from_micros(10);
/// Latency of every hub ↔ rack channel (the threaded runner's lookahead).
const LATENCY: SimDuration = SimDuration::from_micros(100);

/// Where a hop goes next: `Some(shard)` crosses the mailbox, `None` stays.
#[derive(Debug, Clone, Copy)]
struct Route {
    shards: u32,
    /// Every `cross_every`-th countdown value crosses to the hub (0: never).
    cross_every: u64,
}

impl Route {
    fn next(&self, shard: ShardId, countdown: u64) -> Option<ShardId> {
        if self.shards == 1 {
            None
        } else if shard.0 == 0 {
            Some(ShardId(1 + (countdown % u64::from(self.shards - 1)) as u32))
        } else if self.cross_every > 0 && countdown.is_multiple_of(self.cross_every) {
            Some(ShardId(0))
        } else {
            None
        }
    }
}

#[derive(Debug)]
struct Hub {
    route: Route,
    hops: Vec<u64>,
}

#[derive(Debug)]
struct HubWorker {
    route: Route,
    hops: u64,
}

impl ShardedProcess for Hub {
    type Event = u64;

    fn handle(&mut self, shard: ShardId, now: SimTime, ev: u64, ctx: &mut ShardContext<'_, u64>) {
        self.hops[shard.0 as usize] += 1;
        if ev == 0 {
            return;
        }
        match self.route.next(shard, ev) {
            Some(to) => ctx.send(to, now + LATENCY, ev - 1),
            None => ctx.schedule(now + STEP, ev - 1),
        }
    }
}

impl WorldWorker for HubWorker {
    type Event = u64;

    fn handle(&mut self, shard: ShardId, now: SimTime, ev: u64, ctx: &mut WorkerContext<'_, u64>) {
        self.hops += 1;
        if ev == 0 {
            return;
        }
        match self.route.next(shard, ev) {
            Some(to) => ctx.send(to, now + LATENCY, ev - 1),
            None => ctx.schedule(now + STEP, ev - 1),
        }
    }
}

impl ParallelWorld for Hub {
    type Event = u64;
    type Worker = HubWorker;

    fn split(&mut self, shards: usize) -> Vec<HubWorker> {
        assert_eq!(shards, self.hops.len());
        self.hops
            .iter_mut()
            .map(|h| HubWorker {
                route: self.route,
                hops: mem::take(h),
            })
            .collect()
    }

    fn reunite(&mut self, workers: Vec<HubWorker>) {
        for (slot, w) in self.hops.iter_mut().zip(workers) {
            *slot = w.hops;
        }
    }

    fn latency(&self, _from: ShardId, _to: ShardId) -> Option<SimDuration> {
        Some(LATENCY)
    }

    fn handle_serial(&mut self, _: ShardId, _: SimTime, _: u64, _: &mut SerialContext<'_, u64>) {
        unreachable!("the hub relay schedules no serial events")
    }
}

/// Drives ~`total` events through a relay of `shards` shards in which
/// `cross_share` of the rack hops cross to the hub, on `threads` workers
/// (`0` selects the serial `ShardedEngine::run`). Returns the processed
/// event count, checked against the world's own hop tally.
pub fn run(shards: usize, cross_share: f64, total: u64, threads: usize) -> u64 {
    let chains = shards.saturating_sub(1).max(1) as u64;
    let per_chain = total / chains;
    let route = Route {
        shards: shards as u32,
        cross_every: if cross_share > 0.0 {
            (1.0 / cross_share).round().max(2.0) as u64
        } else {
            0
        },
    };
    let mut engine = ShardedEngine::new(shards);
    let first = usize::from(shards > 1);
    for s in first..first + chains as usize {
        engine.schedule(ShardId(s as u32), SimTime::ZERO, per_chain - 1);
    }
    let mut world = Hub {
        route,
        hops: vec![0; shards],
    };
    let outcome = if threads == 0 {
        engine.run(&mut world)
    } else {
        engine.run_threaded(&mut world, threads)
    };
    assert_eq!(outcome, RunOutcome::Drained, "the relay drains");
    let hops: u64 = world.hops.iter().sum();
    assert_eq!(
        hops,
        engine.processed(),
        "every processed event was handled"
    );
    assert_eq!(hops, per_chain * chains, "no chain lost a hop");
    hops
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_threaded_relays_process_every_event() {
        for (shards, share) in [(1, 0.0), (5, 0.25), (17, 0.05)] {
            let serial = run(shards, share, 8_000, 0);
            assert_eq!(serial, run(shards, share, 8_000, 2));
        }
    }
}
