//! FIFO serialization of control-plane requests.
//!
//! The SDM controller is a single autonomous service: concurrent requests do
//! not execute in parallel, they queue. [`ControlPlaneQueue`] models that
//! serialization point for any control plane — the dReDBox SDM controller
//! (`scale_up_burst`, the scenario engine's per-event latency injection) and
//! the conventional-cloud baseline (`ScaleOutBaseline`) alike — so the
//! per-queued-request penalty is charged by one model everywhere.
//!
//! A request admitted at `now` with service time `s` starts once every
//! request ahead of it has completed, pays a fixed penalty for each request
//! still queued ahead of it (scheduler / state-store contention), and
//! completes `s` later. The queue is purely deterministic: no randomness,
//! no wall clock.
//!
//! ```
//! use dredbox_sim::queue::ControlPlaneQueue;
//! use dredbox_sim::time::{SimDuration, SimTime};
//!
//! let mut q = ControlPlaneQueue::new(SimDuration::from_millis(1));
//! let a = q.admit(SimTime::ZERO, SimDuration::from_millis(10));
//! let b = q.admit(SimTime::ZERO, SimDuration::from_millis(10));
//! assert_eq!(a.queue_wait, SimDuration::ZERO);
//! // b waits for a's 10 ms of service plus one queued-request penalty.
//! assert_eq!(b.queue_wait, SimDuration::from_millis(11));
//! assert_eq!(b.completion, SimTime::ZERO + SimDuration::from_millis(21));
//! ```

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use crate::time::{SimDuration, SimTime};

/// What one admitted request experienced at the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueueAdmission {
    /// When the request's own service began.
    pub start: SimTime,
    /// When the request's own service completed.
    pub completion: SimTime,
    /// Time spent waiting behind earlier requests (including penalties).
    pub queue_wait: SimDuration,
    /// Requests that were still in the queue ahead of this one.
    pub queued_ahead: usize,
}

/// A FIFO queue serializing requests through a single-server control plane,
/// charging a fixed penalty per request queued ahead of a new arrival.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ControlPlaneQueue {
    /// Extra delay charged per request found queued ahead of an arrival.
    per_queued_penalty: SimDuration,
    /// Completion times of admitted-but-not-yet-finished requests,
    /// ascending.
    completions: VecDeque<SimTime>,
    served: u64,
    total_wait: SimDuration,
    peak_depth: usize,
}

impl ControlPlaneQueue {
    /// Creates an idle queue with the given per-queued-request penalty.
    pub fn new(per_queued_penalty: SimDuration) -> Self {
        ControlPlaneQueue {
            per_queued_penalty,
            ..ControlPlaneQueue::default()
        }
    }

    /// Admits a request arriving at `now` that needs `service` of exclusive
    /// controller time. Returns when it starts, when it completes and how
    /// long it queued.
    pub fn admit(&mut self, now: SimTime, service: SimDuration) -> QueueAdmission {
        while self.completions.front().is_some_and(|&done| done <= now) {
            self.completions.pop_front();
        }
        let queued_ahead = self.completions.len();
        let start = match self.completions.back() {
            Some(&busy_until) => {
                busy_until.max(now) + self.per_queued_penalty.saturating_mul(queued_ahead as u64)
            }
            None => now,
        };
        let completion = start + service;
        self.completions.push_back(completion);
        self.served += 1;
        let queue_wait = start.saturating_duration_since(now);
        self.total_wait += queue_wait;
        self.peak_depth = self.peak_depth.max(queued_ahead + 1);
        QueueAdmission {
            start,
            completion,
            queue_wait,
            queued_ahead,
        }
    }

    /// Requests still queued or in service at `now`.
    #[cfg(test)]
    pub(crate) fn depth(&self, now: SimTime) -> usize {
        self.completions.iter().filter(|&&done| done > now).count()
    }

    /// The deepest the queue ever got (including the request in service).
    pub fn peak_depth(&self) -> usize {
        self.peak_depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_queue_serves_immediately() {
        let mut q = ControlPlaneQueue::new(SimDuration::from_millis(2));
        let t = SimTime::from_secs(5);
        let a = q.admit(t, SimDuration::from_millis(7));
        assert_eq!(a.start, t);
        assert_eq!(a.completion, t + SimDuration::from_millis(7));
        assert_eq!(a.queue_wait, SimDuration::ZERO);
        assert_eq!(a.queued_ahead, 0);
        assert_eq!(q.depth(t), 1);
        assert_eq!(q.depth(t + SimDuration::from_millis(7)), 0);
    }

    #[test]
    fn simultaneous_requests_serialize_with_penalties() {
        let mut q = ControlPlaneQueue::new(SimDuration::from_millis(1));
        let s = SimDuration::from_millis(10);
        let admissions: Vec<QueueAdmission> = (0..4).map(|_| q.admit(SimTime::ZERO, s)).collect();
        // Request i waits i services plus 1 + 2 + … + i penalties.
        for (i, a) in admissions.iter().enumerate() {
            let penalties: u64 = (1..=i as u64).sum();
            let expected = SimDuration::from_millis(10 * i as u64 + penalties);
            assert_eq!(a.queue_wait, expected, "request {i}");
            assert_eq!(a.queued_ahead, i);
        }
        assert_eq!(q.served, 4);
        assert_eq!(q.peak_depth(), 4);
        assert!(q.total_wait > SimDuration::ZERO);
    }

    #[test]
    fn drained_queue_resets_and_late_arrivals_skip_the_wait() {
        let mut q = ControlPlaneQueue::new(SimDuration::from_millis(5));
        let a = q.admit(SimTime::ZERO, SimDuration::from_secs(1));
        let late = q.admit(
            a.completion + SimDuration::from_secs(1),
            SimDuration::from_secs(1),
        );
        assert_eq!(late.queue_wait, SimDuration::ZERO);
        assert_eq!(late.queued_ahead, 0);
        // An arrival while the late request runs queues behind it only.
        let mid = q.admit(late.start, SimDuration::from_secs(1));
        assert_eq!(mid.queued_ahead, 1);
        assert_eq!(mid.start, late.completion + SimDuration::from_millis(5));
    }

    #[test]
    fn zero_penalty_is_pure_fifo() {
        let mut q = ControlPlaneQueue::new(SimDuration::ZERO);
        let s = SimDuration::from_millis(3);
        let a = q.admit(SimTime::ZERO, s);
        let b = q.admit(SimTime::ZERO, s);
        let c = q.admit(SimTime::ZERO, s);
        assert_eq!(b.start, a.completion);
        assert_eq!(c.completion, SimTime::ZERO + s.saturating_mul(3));
    }
}
