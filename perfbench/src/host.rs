//! How fast the host runs: the time the hypervisor stole from this
//! machine's CPUs, and a probe of fixed work whose duration says how much
//! slower than a reference host the machine runs right now.
//!
//! On a shared virtual machine the same replay takes 20–50% longer in one
//! minute than in the next, as neighbours load the host's cores, caches and
//! memory. The end-to-end pass subtracts the stolen time from each replay
//! and divides the rest by the probe's slowdown measured around it, so its
//! host-time metrics read as seconds on the reference host. The probe is
//! the benchmark's own code and does not call the simulator, so a change
//! that makes the simulator faster moves the scaled time by the same share
//! as the raw one.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::time::Instant;

/// Steps of the probe's two halves.
const CORE_STEPS: u64 = 20_000_000;
const EVENT_STEPS: usize = 400_000;
/// Entities of the probe's event loop, each with an event pending.
const EVENT_IDS: u32 = 20_000;

/// The halves' durations on the reference host: a 2-vCPU Xeon virtual
/// machine (105 MB shared cache) at a quiet time.
const CORE_REF_S: f64 = 0.056;
const EVENTS_REF_S: f64 = 0.144;

/// Seconds the hypervisor has stolen from this machine's CPUs since boot
/// (the `steal` column of the `cpu` line of `/proc/stat`, in 1/100 s), or 0
/// where `/proc` is unavailable.
pub fn stolen_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| stat.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .map_or(0.0, |ticks: f64| ticks / 100.0)
}

/// How many times longer than on the reference host the probe takes now
/// (1 = as fast): the mean of its two halves' ratios. One half is a serial
/// integer recurrence (core speed); the other a small discrete-event loop
/// of the simulator's kind, a binary-heap calendar over entities whose
/// state lives in a `BTreeMap` of vectors allocated and freed as events
/// fire (caches, branches and the allocator).
pub fn slowdown() -> f64 {
    let t = Instant::now();
    black_box(recurrence(black_box(CORE_STEPS)));
    let core = t.elapsed().as_secs_f64();
    let t = Instant::now();
    black_box(event_loop(black_box(EVENT_STEPS)));
    let events = t.elapsed().as_secs_f64();
    (core / CORE_REF_S + events / EVENTS_REF_S) / 2.0
}

fn recurrence(steps: u64) -> u64 {
    let (mut x, mut sum) = (0x2545_F491_4F6C_DD1Du64, 0u64);
    for _ in 0..steps {
        x = xorshift(x);
        sum = sum.wrapping_add(x);
    }
    sum
}

/// Fires `steps` events and returns how many entities hold state at the end.
fn event_loop(steps: usize) -> usize {
    let mut calendar = BinaryHeap::new();
    let mut state: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for id in 0..EVENT_IDS {
        x = xorshift(x);
        calendar.push(Reverse((x % 1_000_000, id)));
    }
    for _ in 0..steps {
        let Reverse((now, id)) = calendar.pop().expect("every fired event is rescheduled");
        x = xorshift(x);
        match x % 4 {
            0 => {
                state.insert(id, vec![now; (x >> 8) as usize % 16 + 1]);
            }
            1 => {
                state.remove(&id);
            }
            2 => {
                if let Some(v) = state.get_mut(&id) {
                    v.push(now);
                }
            }
            _ => {
                x ^= state
                    .range(id..)
                    .take(4)
                    .map(|(_, v)| v.len() as u64)
                    .sum::<u64>()
            }
        }
        calendar.push(Reverse((now + 1 + (x >> 40) % 1000, id)));
    }
    state.len()
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^ (x << 17)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_probe_does_the_same_work_every_time() {
        assert_eq!(recurrence(1_000), recurrence(1_000));
        assert_eq!(event_loop(10_000), event_loop(10_000));
        assert!(event_loop(10_000) > 0);
    }

    #[test]
    fn slowdown_and_steal_are_finite() {
        let s = slowdown();
        assert!(s.is_finite() && s > 0.0, "{s}");
        let stolen = stolen_s();
        assert!(stolen.is_finite() && stolen >= 0.0, "{stolen}");
    }
}
