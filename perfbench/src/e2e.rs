//! The end-to-end pass: untraced replays through
//! `ScenarioSpec::run_with_threads`, timed in host seconds scaled to the
//! reference host (see `host`), plus the simulated outcomes of the
//! replayed rack (deterministic per seed).

use std::hint::black_box;
use std::time::{Duration, Instant};

use dredbox::sim::stats::Summary;
use dredbox::ScenarioReport;

use crate::host::{slowdown, stolen_s};
use crate::metrics::{median, peak_rss_mb, percentile, tail_reportable, Fingerprint, Metrics};
use crate::workloads::{build_racks, Trace, Workload};

/// Host seconds of one set-up: trace generation, then every rack build.
#[derive(Debug, Clone, Copy)]
pub struct Setup {
    pub gen_s: f64,
    pub build_s: f64,
}

impl Setup {
    pub fn measure(w: &Workload, seed: u64) -> Setup {
        let t = Instant::now();
        black_box(Trace::generate(&w.spec, seed));
        let gen_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        black_box(build_racks(&w.spec));
        Setup {
            gen_s,
            build_s: t.elapsed().as_secs_f64(),
        }
    }

    pub fn total(&self) -> f64 {
        self.gen_s + self.build_s
    }
}

/// Repeats the set-up at least `min` times and until `budget` is spent
/// (at most 1000 times).
pub fn setups(w: &Workload, seed: u64, min: usize, budget: Duration) -> Vec<Setup> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || (start.elapsed() < budget && out.len() < 1000) {
        out.push(Setup::measure(w, seed));
    }
    out
}

/// Host time spent timing set-ups before each replay. At least three are
/// timed; the budget gives the ~15 µs `datapath` set-up hundreds.
const SETUP_BUDGET: Duration = Duration::from_millis(25);

/// What one pass found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metrics for the final JSON line.
    pub metrics: Metrics,
    /// Further results for the results file (not bounded, see README).
    pub details: Metrics,
    pub notes: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("CHECK FAILED: {}", what.into()));
        }
    }
}

/// Replays the workload serially once untimed, as a warm-up that also
/// gives the reference report, then runs timed serial and 2-worker replays
/// alternately for the rest of about `seconds` (at least one of each),
/// checking every report's invariants and the first 2-worker report against
/// the reference.
///
/// Set-ups are timed just before every replay and their median is
/// subtracted from that replay, so the set-ups sample the whole run as the
/// replays do, and each replay loses the set-up cost of its own stretch of
/// the run. Host times are scaled to the reference host (see `host`): a
/// replay loses the time stolen from the machine while it ran and is
/// divided by the mean probe slowdown just before and just after it; a
/// set-up is divided by the slowdown measured just before it. The metrics
/// are medians over the run; the unscaled medians go to the details.
pub fn run(w: &Workload, seed: u64, seconds: u64) -> Outcome {
    let mut out = Outcome::default();
    let budget = Duration::from_secs(seconds).as_secs_f64();
    let start = Instant::now();
    let stolen_at_start = stolen_s();
    // Bit for bit: the Debug rendering prints every float exactly, so equal
    // fingerprints mean equal reports. Rendering takes about as long as a
    // replay, so only the warm-up and the first 2-worker replay render.
    let reference = {
        let report = replay(w, seed, 1);
        check_invariants(w, &report, &mut out);
        let fp = Fingerprint::of(&report);
        simulated_outcomes(w, &report, &fp, &mut out);
        fp
    };
    // The high-water mark of one serial replay. Read later, it would also
    // hold what the 2-worker replays' per-thread heaps leave behind, which
    // varies from run to run.
    let peak_rss = peak_rss_mb();
    let (mut setup, mut serial, mut threaded) = (Vec::new(), Vec::new(), Vec::new());
    let (mut raw_serial, mut raw_threaded) = (Vec::new(), Vec::new());
    let mut slowdowns = vec![slowdown()];
    // Pairs continue while the run would end within half a pair of the
    // budget, so a run lasts about `seconds` whatever the replay size.
    while serial.is_empty()
        || start.elapsed().as_secs_f64() * (1.0 + 0.5 / serial.len() as f64) < budget
    {
        for threads in [1, 2] {
            let slow_before = *slowdowns.last().expect("probed before the first replay");
            let mut before: Vec<f64> = setups(w, seed, 3, SETUP_BUDGET)
                .iter()
                .map(Setup::total)
                .collect();
            setup.extend(before.iter().map(|s| s / slow_before));
            let setup_s = median(&mut before);
            let stolen = stolen_s();
            let t = Instant::now();
            let report = replay(w, seed, threads);
            let wall = t.elapsed().as_secs_f64() - setup_s;
            let ran = wall - (stolen_s() - stolen);
            let slow_after = slowdown();
            slowdowns.push(slow_after);
            let scaled = ran / ((slow_before + slow_after) / 2.0);
            if threads == 1 {
                serial.push(scaled);
                raw_serial.push(wall);
            } else {
                threaded.push(scaled);
                raw_threaded.push(wall);
            }
            check_invariants(w, &report, &mut out);
            if threads == 2 && threaded.len() == 1 {
                out.check(
                    reference == Fingerprint::of(&report),
                    "the 2-worker report renders identically to the serial one",
                );
            }
        }
    }
    let stolen = stolen_s() - stolen_at_start;

    let fmt = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let setup_s = median(&mut setup);
    out.notes.push(format!(
        "host: {} set-ups, scaled quartiles (s) {}; probe slowdowns {}; {stolen:.2} s stolen",
        setup.len(),
        fmt(&[25.0, 50.0, 75.0].map(|p| percentile(&setup, p))),
        fmt(&slowdowns),
    ));
    out.notes.push(format!(
        "host: serial replays (s) {} scaled {}; 2-worker replays (s) {} scaled {}",
        fmt(&raw_serial),
        fmt(&serial),
        fmt(&raw_threaded),
        fmt(&threaded)
    ));
    out.metrics.push("replay_s", median(&mut serial), "s");
    out.metrics.push("replay_s_2w", median(&mut threaded), "s");
    out.metrics.push("setup_s", setup_s, "s");
    out.metrics.push("peak_rss_mb", peak_rss, "MiB");
    out.details.push("peak_rss_mb.run", peak_rss_mb(), "MiB");
    out.details
        .push("replay_s.unscaled", median(&mut raw_serial), "s");
    out.details
        .push("replay_s_2w.unscaled", median(&mut raw_threaded), "s");
    out.details
        .push("host.slowdown", median(&mut slowdowns), "x");
    out.details.push("host.stolen_s", stolen, "s");
    out
}

fn replay(w: &Workload, seed: u64, threads: usize) -> ScenarioReport {
    w.spec
        .run_with_threads(seed, threads)
        .expect("benchmark workloads are valid")
}

/// Report invariants every replay must satisfy.
pub fn check_invariants(w: &Workload, r: &ScenarioReport, out: &mut Outcome) {
    out.check(
        r.admitted + r.rejected == w.spec.vm_count as u64,
        format!(
            "admitted {} + rejected {} = arrivals {}",
            r.admitted, r.rejected, w.spec.vm_count
        ),
    );
    out.check(
        r.departed <= r.admitted,
        format!("departed {} <= admitted {}", r.departed, r.admitted),
    );
}

/// The modelled rack's outcomes: deterministic for a seed, so a change
/// meant only to speed up the simulator must leave every one identical.
fn simulated_outcomes(w: &Workload, r: &ScenarioReport, fp: &Fingerprint, out: &mut Outcome) {
    out.notes.push(format!(
        "report fingerprint {} ({} bytes of {{report:#?}}, {} events)",
        fp.hex(),
        fp.bytes,
        r.events
    ));
    let d = &mut out.details;
    let failures = r.rejected + r.scale_up_failures + r.migration_failures + r.offload_failures;
    let attempts = r.admitted
        + r.rejected
        + r.scale_ups
        + r.scale_up_failures
        + r.migrations
        + r.migration_failures
        + r.offloads
        + r.offload_failures;
    d.push("fail_ratio", ratio(failures, attempts), "ratio");
    d.push("fail_ratio.attempts", attempts as f64, "count");
    summary_ms(d, "cp_wait", r.control_plane_wait.as_ref(), true);
    summary_ms(d, "scaleup", r.scale_up_delay.as_ref(), false);
    if let Some(c) = r.cluster.as_ref().filter(|_| w.federated()) {
        d.push(
            "spill_ratio",
            ratio(c.spillovers, c.routed_admissions),
            "ratio",
        );
        d.push("spill_ratio.routed", c.routed_admissions as f64, "count");
    }
    if let Some(dp) = &r.data_path {
        d.push("read_p50_ns", dp.read_latency_p50_ns, "ns");
        if tail_reportable(dp.reads as usize, 99.0) {
            d.push("read_p99_ns", dp.read_latency_p99_ns, "ns");
        }
        d.push("read.samples", dp.reads as f64, "count");
    }
}

/// `<name>_p50_ms` (when `with_median`) and `<name>_p99_ms` from a summary
/// in seconds, each only where the tail rule allows, with the sample count.
fn summary_ms(d: &mut Metrics, name: &str, s: Option<&Summary>, with_median: bool) {
    let Some(s) = s else { return };
    if with_median {
        d.push(format!("{name}_p50_ms"), s.percentile(50.0) * 1e3, "ms");
    }
    if tail_reportable(s.count(), 99.0) {
        d.push(format!("{name}_p99_ms"), s.percentile(99.0) * 1e3, "ms");
    }
    d.push(format!("{name}.samples"), s.count() as f64, "count");
}

pub fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}
