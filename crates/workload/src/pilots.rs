//! The three pilot applications of Section V.
//!
//! Each model turns the qualitative description in the paper into a memory /
//! compute demand timeline that the examples and the orchestrator can drive:
//!
//! 1. **Video analytics** — investigations arrive unpredictably and may need
//!    to chew through up to 100 000 hours of footage quickly; demand is
//!    event-driven and bursty.
//! 2. **NFV edge computing with a key server** — load follows a daily
//!    traffic pattern; the key server holds sensitive state and must scale
//!    *up* (more memory) rather than *out* (replicas).
//! 3. **Network analytics at 100 GbE** — an online stage classifies every
//!    frame at line rate; an offline stage re-examines flagged packets and
//!    can be scaled down during datacenter memory peaks as long as it keeps
//!    running.

use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize};

use dredbox_sim::rng::SimRng;
use dredbox_sim::time::SimDuration;
use dredbox_sim::units::{Bandwidth, ByteSize};

use crate::traces::DiurnalPattern;

/// The video-surveillance analytics pilot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VideoAnalyticsWorkload {
    /// Bytes of compressed video per hour of footage.
    pub bytes_per_hour: ByteSize,
    /// Working-set fraction of the footage an investigation keeps in memory
    /// at once (decode buffers, feature indexes).
    pub working_set_fraction: f64,
    /// Hours of footage an average investigation must review.
    pub mean_case_hours: f64,
}

impl VideoAnalyticsWorkload {
    /// Defaults: ~1 GiB per hour of 1080p footage, 5% resident working set,
    /// 20 000 hours per average case (serious cases reach 100 000 hours).
    pub fn dredbox_default() -> Self {
        VideoAnalyticsWorkload {
            bytes_per_hour: ByteSize::from_gib(1),
            working_set_fraction: 0.05,
            mean_case_hours: 20_000.0,
        }
    }

    /// Memory demand of an investigation over `case_hours` of footage.
    pub fn memory_demand(&self, case_hours: f64) -> ByteSize {
        let total = self.bytes_per_hour.as_bytes() as f64 * case_hours;
        ByteSize::from_bytes((total * self.working_set_fraction) as u64)
    }

    /// Samples the footage size of a new investigation (log-normal: most are
    /// moderate, a few are enormous).
    pub fn sample_case_hours(&self, rng: &mut SimRng) -> f64 {
        let mu = self.mean_case_hours.ln() - 0.5;
        rng.log_normal(mu, 1.0).min(100_000.0)
    }

    /// Compute demand (cores) to finish the case within `deadline`, given a
    /// per-core analysis throughput of one hour of footage per 30 s.
    pub fn cores_for_deadline(&self, case_hours: f64, deadline: SimDuration) -> u32 {
        let core_seconds = case_hours * 30.0;
        let cores = (core_seconds / deadline.as_secs_f64()).ceil();
        (cores as u32).max(1)
    }
}

impl Default for VideoAnalyticsWorkload {
    fn default() -> Self {
        VideoAnalyticsWorkload::dredbox_default()
    }
}

/// The NFV edge-computing / key-server pilot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NfvKeyServerWorkload {
    /// Daily traffic pattern of the edge server.
    pub pattern: DiurnalPattern,
    /// Key-server memory at the nightly trough.
    pub base_memory: ByteSize,
    /// Additional key-server memory needed at the daily peak.
    pub peak_extra_memory: ByteSize,
}

impl NfvKeyServerWorkload {
    /// Defaults: 4 GiB base, 28 GiB extra at peak (TLS session caches and
    /// per-connection key material scale with concurrent connections).
    pub fn dredbox_default() -> Self {
        NfvKeyServerWorkload {
            pattern: DiurnalPattern::nfv_default(),
            base_memory: ByteSize::from_gib(4),
            peak_extra_memory: ByteSize::from_gib(28),
        }
    }

    /// Key-server memory demand at a given hour of the day.
    pub fn memory_at_hour(&self, hour: f64) -> ByteSize {
        let load = self.pattern.load_at_hour(hour);
        let extra = self.peak_extra_memory.as_bytes() as f64 * load;
        self.base_memory + ByteSize::from_bytes(extra as u64)
    }

    /// The scale-up (positive) or scale-down (negative) in bytes needed when
    /// moving from `from_hour` to `to_hour`.
    #[cfg(test)]
    pub(crate) fn memory_delta(&self, from_hour: f64, to_hour: f64) -> i64 {
        self.memory_at_hour(to_hour).as_bytes() as i64
            - self.memory_at_hour(from_hour).as_bytes() as i64
    }

    /// Why scale-out is unacceptable for this pilot: replicating the key
    /// server would replicate the private keys. Always true; kept as a
    /// queryable property for the examples.
    pub fn requires_scale_up(&self) -> bool {
        true
    }
}

impl Default for NfvKeyServerWorkload {
    fn default() -> Self {
        NfvKeyServerWorkload::dredbox_default()
    }
}

/// The network-analytics pilot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetworkAnalyticsWorkload {
    /// Monitored link rate (the paper targets standardized 100 GbE links).
    pub link_rate: Bandwidth,
    /// Fraction of frames the online stage flags for offline inspection.
    pub flagged_fraction: f64,
    /// Mean frame size on the monitored link.
    pub mean_frame_size: ByteSize,
}

impl NetworkAnalyticsWorkload {
    /// Defaults: a 100 GbE link, 2% of frames flagged, 800-byte mean frames.
    pub fn dredbox_default() -> Self {
        NetworkAnalyticsWorkload {
            link_rate: Bandwidth::from_gbps(100.0),
            flagged_fraction: 0.02,
            mean_frame_size: ByteSize::from_bytes(800),
        }
    }

    /// Frames per second the online stage must classify at full line rate.
    pub fn frames_per_second(&self) -> f64 {
        self.link_rate.as_bps() / (self.mean_frame_size.as_bytes() as f64 * 8.0)
    }

    /// Bytes of flagged traffic accumulated for offline analysis over a
    /// capture window.
    pub(crate) fn offline_buffer(&self, window: SimDuration) -> ByteSize {
        let bytes_per_second = self.link_rate.as_bps() / 8.0 * self.flagged_fraction;
        ByteSize::from_bytes((bytes_per_second * window.as_secs_f64()) as u64)
    }

    /// Memory the offline stage needs to index a capture window (flagged
    /// buffer plus a third of metadata overhead).
    pub fn offline_memory(&self, window: SimDuration) -> ByteSize {
        let buffer = self.offline_buffer(window);
        buffer + ByteSize::from_bytes(buffer.as_bytes() / 3)
    }
}

impl Default for NetworkAnalyticsWorkload {
    fn default() -> Self {
        NetworkAnalyticsWorkload::dredbox_default()
    }
}

/// A near-data offload demand derived from one of the Section V pilots: a
/// kernel (named partial-reconfiguration bitstream) plus the input data it
/// streams through once on the dACCELBRICK.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OffloadDemand {
    /// Kernel name; offloads naming the same kernel can reuse a programmed
    /// accelerator slot. The pilots share one name per kernel, so a demand,
    /// its bitstream, its session and its report all point at it.
    pub kernel: Arc<str>,
    /// Size of the partial bitstream (determines PCAP programming time).
    pub bitstream: ByteSize,
    /// Input data the kernel streams through.
    pub input: ByteSize,
}

/// The one shared name of a pilot kernel, created on first use.
fn pilot_kernel(name: &'static OnceLock<Arc<str>>, text: &str) -> Arc<str> {
    Arc::clone(name.get_or_init(|| Arc::from(text)))
}

impl VideoAnalyticsWorkload {
    /// The motion-detection kernel an investigation offloads near the
    /// footage: input is the resident working set of `case_hours` of
    /// footage, capped so a single session stays rack-serviceable.
    pub fn offload_demand(&self, case_hours: f64) -> OffloadDemand {
        static KERNEL: OnceLock<Arc<str>> = OnceLock::new();
        let cap = ByteSize::from_gib(8);
        OffloadDemand {
            kernel: pilot_kernel(&KERNEL, "video-motion-detect"),
            bitstream: ByteSize::from_mib(16),
            input: self.memory_demand(case_hours).min(cap),
        }
    }
}

impl NetworkAnalyticsWorkload {
    /// The frame-classification kernel the offline stage offloads: input is
    /// the flagged-traffic buffer of one capture window.
    pub fn offload_demand(&self, window: SimDuration) -> OffloadDemand {
        static KERNEL: OnceLock<Arc<str>> = OnceLock::new();
        OffloadDemand {
            kernel: pilot_kernel(&KERNEL, "frame-classify"),
            bitstream: ByteSize::from_mib(8),
            input: self.offline_buffer(window),
        }
    }
}

impl NfvKeyServerWorkload {
    /// The TLS handshake-offload kernel the key server uses at a given hour:
    /// input scales with the session-cache footprint at that hour.
    pub fn offload_demand(&self, hour: f64) -> OffloadDemand {
        static KERNEL: OnceLock<Arc<str>> = OnceLock::new();
        OffloadDemand {
            kernel: pilot_kernel(&KERNEL, "tls-handshake"),
            bitstream: ByteSize::from_mib(4),
            input: self.memory_at_hour(hour),
        }
    }
}

/// Samples offload demands from a mix of the three pilots — the kernel set
/// an offload-heavy scenario rotates through, so bitstream reuse (repeated
/// kernels) and reprogramming (kernel changes) both occur.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PilotOffloadMix {
    /// Video-surveillance analytics pilot.
    pub video: VideoAnalyticsWorkload,
    /// NFV key-server pilot.
    pub nfv: NfvKeyServerWorkload,
    /// 100 GbE network-analytics pilot.
    pub network: NetworkAnalyticsWorkload,
}

impl PilotOffloadMix {
    /// The default mix over the three pilot models.
    pub fn dredbox_default() -> Self {
        PilotOffloadMix {
            video: VideoAnalyticsWorkload::dredbox_default(),
            nfv: NfvKeyServerWorkload::dredbox_default(),
            network: NetworkAnalyticsWorkload::dredbox_default(),
        }
    }

    /// Samples one offload demand: picks a pilot, then sizes the input from
    /// that pilot's own model (case hours, hour of day, capture window).
    pub fn sample(&self, rng: &mut SimRng) -> OffloadDemand {
        match rng.range(0u64..3) {
            0 => {
                // Moderate slices of a case: near-data review of one chunk.
                let hours = self.video.sample_case_hours(rng).min(4_000.0);
                self.video.offload_demand(hours)
            }
            1 => self.nfv.offload_demand(rng.range(0u64..24) as f64),
            _ => {
                let window = SimDuration::from_secs(rng.range(1u64..=4));
                self.network.offload_demand(window)
            }
        }
    }
}

impl Default for PilotOffloadMix {
    fn default() -> Self {
        PilotOffloadMix::dredbox_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn video_cases_are_bursty_but_bounded() {
        let w = VideoAnalyticsWorkload::dredbox_default();
        let mut rng = SimRng::seed(4);
        for _ in 0..100 {
            let hours = w.sample_case_hours(&mut rng);
            assert!(hours > 0.0 && hours <= 100_000.0);
        }
        // A 100 000-hour case needs ~5 TiB of working set: far beyond one
        // server, exactly the scalability argument of the pilot.
        let huge = w.memory_demand(100_000.0);
        assert!(huge.as_gib() > 1_000);
        // Deadline pressure translates into cores.
        let relaxed = w.cores_for_deadline(1_000.0, SimDuration::from_secs(24 * 3600));
        let urgent = w.cores_for_deadline(1_000.0, SimDuration::from_secs(3600));
        assert!(urgent > relaxed);
        assert!(w.cores_for_deadline(0.0, SimDuration::from_secs(60)) >= 1);
    }

    #[test]
    fn nfv_memory_follows_the_diurnal_pattern() {
        let w = NfvKeyServerWorkload::dredbox_default();
        let night = w.memory_at_hour(3.0);
        let peak = w.memory_at_hour(15.0);
        assert!(peak > night);
        assert_eq!(peak, ByteSize::from_gib(32));
        assert!(night < ByteSize::from_gib(8));
        assert!(w.memory_delta(3.0, 15.0) > 0);
        assert!(w.memory_delta(15.0, 3.0) < 0);
        assert!(w.requires_scale_up());
    }

    #[test]
    fn offload_demands_are_pilot_sized_and_deterministic() {
        let mix = PilotOffloadMix::dredbox_default();
        let mut a = SimRng::seed(9);
        let mut b = SimRng::seed(9);
        let demands: Vec<OffloadDemand> = (0..64).map(|_| mix.sample(&mut a)).collect();
        let replay: Vec<OffloadDemand> = (0..64).map(|_| mix.sample(&mut b)).collect();
        assert_eq!(demands, replay, "same seed must sample the same demands");
        // All three pilot kernels appear, inputs are nonzero and bounded.
        for kernel in ["video-motion-detect", "tls-handshake", "frame-classify"] {
            let named: Vec<&OffloadDemand> =
                demands.iter().filter(|d| &*d.kernel == kernel).collect();
            assert!(!named.is_empty(), "kernel {kernel} never sampled");
            // Every demand of a pilot shares its one name.
            assert!(named
                .iter()
                .all(|d| Arc::ptr_eq(&d.kernel, &named[0].kernel)));
        }
        for d in &demands {
            assert!(!d.input.is_zero(), "{}: empty input", d.kernel);
            assert!(d.input <= ByteSize::from_gib(32), "{}: oversized", d.kernel);
            assert!(!d.bitstream.is_zero());
        }
        // Individual pilot demands carry their model's sizing.
        let video = mix.video.offload_demand(100.0);
        assert_eq!(video.input, mix.video.memory_demand(100.0));
        let capped = mix.video.offload_demand(1_000_000.0);
        assert_eq!(capped.input, ByteSize::from_gib(8));
        let net = mix.network.offload_demand(SimDuration::from_secs(2));
        assert_eq!(
            net.input,
            mix.network.offline_buffer(SimDuration::from_secs(2))
        );
        assert!(mix.nfv.offload_demand(15.0).input > mix.nfv.offload_demand(3.0).input);
    }

    #[test]
    fn network_analytics_rates() {
        let w = NetworkAnalyticsWorkload::dredbox_default();
        // 100 Gb/s over 800-byte frames is ~15.6 M frames/s.
        let fps = w.frames_per_second();
        assert!((15.0e6..16.5e6).contains(&fps), "fps was {fps}");
        let one_minute = w.offline_buffer(SimDuration::from_secs(60));
        // 2% of 12.5 GB/s for 60 s = 15 GB.
        assert!(one_minute.as_gib() >= 13 && one_minute.as_gib() <= 15);
        assert!(w.offline_memory(SimDuration::from_secs(60)) > one_minute);
    }
}
