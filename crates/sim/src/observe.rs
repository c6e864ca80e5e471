//! Decision-free work off the event loop: an observation log.
//!
//! Some of what a world does per event changes no decision: pricing a
//! read it only reports, or recording a report sample. Such work can
//! leave the event loop. The loop appends compact records to an
//! [`ObservationLog`] in event order, and an [`Observer`] applies them in
//! that same order, one batch at a time. Whatever the observer computes
//! is therefore a pure function of the record sequence, wherever and
//! whenever the batches run.
//!
//! A log drains inline: when its batch is full, and when the caller asks
//! for the observer back. [`drain_on_helper`] moves the observer to one
//! scoped helper thread for the length of a run instead. The loop then
//! hands each full batch over and takes an applied one back in exchange,
//! from a fixed set of `SPARE_BATCHES` + 1 buffers, so a steady run
//! allocates nothing per batch. The hand-off blocks only when the helper
//! still holds every spare. A panic on either side reaches the caller of
//! [`drain_on_helper`] with its own payload; neither side is left
//! waiting.

use std::mem;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread;

/// Applies logged records, in log order, away from the event loop.
pub trait Observer: Send {
    /// A batch of records. The default value is an empty batch.
    type Batch: Default + Send;

    /// Whether `batch` should drain before the next record.
    fn is_full(batch: &Self::Batch) -> bool;

    /// Applies every record of `batch` in order and leaves it empty, its
    /// buffers kept for reuse.
    fn apply(&mut self, batch: &mut Self::Batch);
}

/// Buffers a log owns besides the one it fills while its observer runs
/// on a helper.
pub(crate) const SPARE_BATCHES: usize = 2;

/// Where a full batch goes.
enum Sink<O: Observer> {
    /// Applied on the appending thread.
    Inline(O),
    /// Sent to the helper thread, which sends each applied batch back.
    Helper {
        full: SyncSender<O::Batch>,
        spares: Receiver<O::Batch>,
    },
    /// Moving between the two.
    Detached,
}

/// A bounded log of records from the event loop to its [`Observer`].
pub struct ObservationLog<O: Observer> {
    batch: O::Batch,
    sink: Sink<O>,
}

impl<O: Observer> ObservationLog<O> {
    /// A log draining inline into `observer`.
    pub fn new(observer: O) -> Self {
        ObservationLog {
            batch: O::Batch::default(),
            sink: Sink::Inline(observer),
        }
    }

    /// Appends one record through `write`, then drains the batch if it is
    /// full. A record is whatever `write` adds; the batch never drains
    /// in the middle of one.
    #[inline]
    pub fn record(&mut self, write: impl FnOnce(&mut O::Batch)) {
        write(&mut self.batch);
        if O::is_full(&self.batch) {
            self.drain();
        }
    }

    fn drain(&mut self) {
        match &mut self.sink {
            Sink::Inline(observer) => observer.apply(&mut self.batch),
            Sink::Helper { full, spares } => {
                // A failed hand-off means the helper stopped: its panic
                // is what `drain_on_helper` re-raises.
                let spare = spares.recv().expect("the observer thread stopped");
                let batch = mem::replace(&mut self.batch, spare);
                full.send(batch).expect("the observer thread stopped");
            }
            Sink::Detached => unreachable!("a detached log takes no records"),
        }
    }

    /// The observer, with every record so far applied.
    ///
    /// # Panics
    ///
    /// Panics while the observer runs on a helper thread.
    pub fn observer(&mut self) -> &mut O {
        match &mut self.sink {
            Sink::Inline(observer) => {
                observer.apply(&mut self.batch);
                observer
            }
            _ => panic!("the observer is on a helper thread"),
        }
    }

    /// Applies every record so far and returns the observer.
    ///
    /// # Panics
    ///
    /// Panics while the observer runs on a helper thread.
    pub fn into_observer(mut self) -> O {
        self.observer();
        match self.sink {
            Sink::Inline(observer) => observer,
            _ => unreachable!("observer() checked the sink"),
        }
    }
}

/// Runs `run` on `world` while the observer of the log that `log` finds
/// in it applies batches on one scoped helper thread, and returns what
/// `run` returns. Afterwards every record is applied and the log drains
/// inline again, exactly as if it had never left.
///
/// # Panics
///
/// Re-raises a panic of the observer, or else one of `run`, with its
/// original payload.
pub fn drain_on_helper<W, O, R>(
    world: &mut W,
    log: impl Fn(&mut W) -> &mut ObservationLog<O>,
    run: impl FnOnce(&mut W) -> R,
) -> R
where
    O: Observer,
{
    let mut observer = match mem::replace(&mut log(world).sink, Sink::Detached) {
        Sink::Inline(observer) => observer,
        _ => panic!("the observer is already on a helper thread"),
    };
    observer.apply(&mut log(world).batch);
    let (full, full_rx) = sync_channel::<O::Batch>(SPARE_BATCHES);
    // Room for every buffer, so returning one never blocks the helper:
    // the last batch comes back after the log stopped taking spares.
    let (spare_tx, spares) = sync_channel::<O::Batch>(SPARE_BATCHES + 1);
    for _ in 0..SPARE_BATCHES {
        spare_tx
            .send(O::Batch::default())
            .expect("the spare channel holds every spare");
    }
    thread::scope(|scope| {
        let helper = scope.spawn(move || {
            for mut batch in full_rx {
                observer.apply(&mut batch);
                // The log stops taking spares once its run is over.
                let _ = spare_tx.send(batch);
            }
            observer
        });
        log(world).sink = Sink::Helper { full, spares };
        let ran = panic::catch_unwind(AssertUnwindSafe(|| run(&mut *world)));
        let log = log(world);
        let Sink::Helper { full, spares } = mem::replace(&mut log.sink, Sink::Detached) else {
            unreachable!("only drain_on_helper moves the sink");
        };
        if ran.is_ok() {
            // The helper may be gone; its join below says why.
            let _ = full.send(mem::take(&mut log.batch));
        }
        drop(full);
        let observer = match helper.join() {
            Ok(observer) => observer,
            Err(payload) => panic::resume_unwind(payload),
        };
        let ran = ran.unwrap_or_else(|payload| panic::resume_unwind(payload));
        log.batch = spares.try_recv().unwrap_or_default();
        log.sink = Sink::Inline(observer);
        ran
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sums records in order, remembering how many it saw, and panics on
    /// the record `fail_at` if set.
    #[derive(Default)]
    struct Summer {
        seen: Vec<u64>,
        fail_at: Option<u64>,
    }

    impl Observer for Summer {
        type Batch = Vec<u64>;

        fn is_full(batch: &Vec<u64>) -> bool {
            batch.len() >= 16
        }

        fn apply(&mut self, batch: &mut Vec<u64>) {
            for x in batch.drain(..) {
                if Some(x) == self.fail_at {
                    panic!("observer failed on record {x}");
                }
                self.seen.push(x);
            }
        }
    }

    struct World {
        log: ObservationLog<Summer>,
    }

    fn world(fail_at: Option<u64>) -> World {
        World {
            log: ObservationLog::new(Summer {
                seen: Vec::new(),
                fail_at,
            }),
        }
    }

    fn append(w: &mut World, from: u64, to: u64) {
        for x in from..to {
            w.log.record(|b| b.push(x));
        }
    }

    #[test]
    fn inline_and_helper_logs_apply_the_same_records_in_order() {
        let mut inline = world(None);
        append(&mut inline, 0, 1_000);
        let mut helped = world(None);
        append(&mut helped, 0, 10);
        let out = drain_on_helper(
            &mut helped,
            |w| &mut w.log,
            |w| {
                append(w, 10, 990);
                7
            },
        );
        assert_eq!(out, 7);
        append(&mut helped, 990, 1_000);
        let expected: Vec<u64> = (0..1_000).collect();
        assert_eq!(inline.log.into_observer().seen, expected);
        assert_eq!(helped.log.observer().seen, expected);
        // The log drains inline again, with a recycled buffer.
        assert!(matches!(helped.log.sink, Sink::Inline(_)));
    }

    #[test]
    fn a_helper_run_that_records_nothing_returns_the_observer() {
        let mut w = world(None);
        drain_on_helper(&mut w, |w| &mut w.log, |_| ());
        assert!(w.log.observer().seen.is_empty());
    }

    /// A panic while draining on the helper reaches the caller with its
    /// payload instead of leaving the loop waiting for a spare batch.
    #[test]
    #[should_panic(expected = "observer failed on record 100")]
    fn observer_panic_propagates_at_two_threads() {
        let mut w = world(Some(100));
        drain_on_helper(&mut w, |w| &mut w.log, |w| append(w, 0, 100_000));
    }

    /// A panic that leaves no full batch behind is raised when the rest
    /// of the log is handed over.
    #[test]
    #[should_panic(expected = "observer failed on record 3")]
    fn observer_panic_on_the_last_batch_propagates() {
        let mut w = world(Some(3));
        drain_on_helper(&mut w, |w| &mut w.log, |w| append(w, 0, 5));
    }

    /// A panic of the run itself is not masked by the helper, which the
    /// closed channel releases.
    #[test]
    #[should_panic(expected = "run failed")]
    fn run_panic_propagates_and_releases_the_helper() {
        let mut w = world(None);
        drain_on_helper(
            &mut w,
            |w| &mut w.log,
            |w| {
                append(w, 0, 40);
                panic!("run failed");
            },
        );
    }
}
