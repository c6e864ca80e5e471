//! The benchmark workloads and their set-up (trace generation plus
//! one `DredboxSystem::build` per rack).
//!
//! Every workload is a closed-loop trace replay through
//! `ScenarioSpec::run_with_threads`: the next event of a VM is scheduled
//! only once the simulator has handled the previous one. The generated
//! trace is a pure function of the seed.

use dredbox::bricks::{MemoryController, MemoryTechnology};
use dredbox::orchestrator::PlacementPolicy;
use dredbox::scenario::{
    ArrivalModel, ChurnModel, ContentionConfig, DataPathConfig, Granularity, MigrationPolicy,
    OffloadPlan, ReadProfile, RemoteCacheConfig, ScenarioMix, ScenarioSpec,
};
use dredbox::sim::rng::SimRng;
use dredbox::sim::time::{SimDuration, SimTime};
use dredbox::sim::units::ByteSize;
use dredbox::workload::{
    ArrivalTrace, BurstTrace, LifetimeModel, PilotOffloadMix, VmDemand, WorkloadConfig,
};
use dredbox::{DredboxSystem, SystemConfig};

/// Names accepted by `--workload`. `BENCHMARK.json` declares `fed64` and
/// `rack`; `fed16` and `datapath` run the same passes when named.
pub const NAMES: [&str; 4] = ["fed64", "fed16", "rack", "datapath"];

/// One named workload: the scenario it replays.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub spec: ScenarioSpec,
}

impl Workload {
    /// The workload called `name`, shrunk by `scale` (1 = full size; the
    /// tests run every workload at a small fraction of its size).
    pub fn by_name(name: &str, scale: u32) -> Option<Workload> {
        let spec = match name {
            "fed64" => fed64(scale),
            "fed16" => fed16(scale),
            "rack" => rack(scale),
            "datapath" => datapath(scale),
            _ => return None,
        };
        let name = NAMES.into_iter().find(|n| *n == name)?;
        Some(Workload { name, spec })
    }

    /// Whether the replay federates several racks behind a cluster front
    /// door (and so has a threaded runner, spillover and barriers).
    pub fn federated(&self) -> bool {
        self.spec.system.racks > 1
    }

    /// Engine shards of the replay: one per rack plus the front door on a
    /// federation, one otherwise.
    pub fn shards(&self) -> usize {
        if self.federated() {
            usize::from(self.spec.system.racks) + 1
        } else {
            1
        }
    }
}

/// `datacenter-64` as shipped: 64 racks, 150k VMs, ~1.2M events.
fn fed64(scale: u32) -> ScenarioSpec {
    let mut spec = ScenarioSpec::datacenter_64();
    shrink(&mut spec, scale);
    spec
}

/// The `datacenter` shape (16 racks, 1 s mean inter-arrival, rack-0 drain)
/// with 100k VMs over 30 h, so it keeps the shipped arrival rate and with
/// it the ~35 events per epoch that make it barrier-bound.
fn fed16(scale: u32) -> ScenarioSpec {
    let mut spec = ScenarioSpec::datacenter();
    spec.name = "fed16".to_owned();
    spec.vm_count = 100_000;
    spec.horizon = SimTime::from_secs(30 * 3_600);
    spec.event_budget = 2_000_000;
    shrink(&mut spec, scale);
    spec
}

/// One full-height accelerated rack (256 dCOMPUBRICKs, 128 dMEMBRICKs, 32
/// dACCELBRICKs) with scale-up churn, consolidation migrations and offload
/// sessions. Arrivals are spaced so most admissions do full placement work
/// instead of failing fast on a full rack. Each VM also prices one short
/// burst of remote reads, so the data path runs here too, at a small share
/// of the replay (its priced latencies change no decision).
fn rack(scale: u32) -> ScenarioSpec {
    let mut system = SystemConfig::accelerated_rack(16, 16, 8, 2);
    system.placement = PlacementPolicy::Balanced;
    let mut spec = ScenarioSpec {
        name: "rack".to_owned(),
        system,
        vm_count: 60_000,
        mix: ScenarioMix::Table1(WorkloadConfig::Random),
        arrivals: ArrivalModel::Poisson {
            mean_interarrival: SimDuration::from_secs(6),
        },
        lifetime: LifetimeModel::new(SimDuration::from_secs(1_800), SimDuration::from_secs(300)),
        churn: Some(ChurnModel {
            cycles_per_vm: 1,
            hold: SimDuration::from_secs(120),
            amount_gib: (1, 2),
        }),
        migration: Some(MigrationPolicy::Consolidate {
            every: SimDuration::from_secs(600),
            spare_below: 0.25,
            max_moves: 8,
        }),
        offload: Some(OffloadPlan {
            sessions_per_vm: 1,
            start_after: SimDuration::from_secs(60),
            hold: SimDuration::from_secs(60),
            mix: PilotOffloadMix::dredbox_default(),
        }),
        reads_per_vm: 4,
        horizon: SimTime::from_secs(104 * 3_600),
        power_sweep_every: Some(SimDuration::from_secs(600)),
        event_budget: 2_000_000,
        data_path: Some(contended_data_path(1, 8)),
        ..ScenarioSpec::rack_scale()
    };
    shrink(&mut spec, scale);
    spec
}

/// The `memory-thrash` shape (dense dMEMBRICKs, contention, remote caches
/// and adaptive granularity on) with long-lived VMs issuing many more
/// bursts, so read pricing dominates and placement is negligible.
fn datapath(scale: u32) -> ScenarioSpec {
    let mut system = SystemConfig::datacenter_rack(2, 4, 2);
    let mut memory = system.catalog.memory_spec().clone();
    memory.controllers = vec![MemoryController::new(
        MemoryTechnology::Ddr4,
        ByteSize::from_gib(128),
    )];
    system.catalog = system.catalog.with_memory_spec(memory);
    let bursts = (400 / scale).max(2);
    ScenarioSpec {
        name: "datapath".to_owned(),
        system,
        vm_count: 12,
        mix: ScenarioMix::Table1(WorkloadConfig::MoreRam),
        arrivals: ArrivalModel::Poisson {
            mean_interarrival: SimDuration::from_secs(20),
        },
        lifetime: LifetimeModel::new(
            SimDuration::from_secs(48 * 3_600),
            SimDuration::from_secs(24 * 3_600),
        ),
        churn: None,
        migration: None,
        offload: None,
        reads_per_vm: 4,
        horizon: SimTime::from_secs(15 + 45 * u64::from(bursts) + 600),
        power_sweep_every: Some(SimDuration::from_secs(600)),
        event_budget: 1_000_000,
        data_path: Some(contended_data_path(bursts, 400)),
        ..ScenarioSpec::memory_thrash()
    }
}

/// Contention, remote caches and adaptive granularity on; each VM prices
/// `bursts` bursts of `reads` reads, 45 s apart, from 15 s after admission.
fn contended_data_path(bursts: u32, reads: u32) -> DataPathConfig {
    DataPathConfig {
        contention: Some(ContentionConfig::dredbox_default()),
        cache: Some(RemoteCacheConfig::dredbox_default()),
        initial_granularity: Granularity::Page,
        adaptive: true,
        profile: ReadProfile {
            working_set: ByteSize::from_bytes(4 * 1024 * 1024),
            reads_per_sec: 1.0e5,
            bursts_per_vm: bursts,
            reads_per_burst: reads,
            burst_every: SimDuration::from_secs(45),
            start_after: SimDuration::from_secs(15),
            locality: 0.8,
        },
    }
}

/// Divides the arrival count (and the horizon with it) by `scale`.
fn shrink(spec: &mut ScenarioSpec, scale: u32) {
    if scale > 1 {
        spec.vm_count /= scale as usize;
        spec.horizon = SimTime::from_nanos(spec.horizon.as_nanos() / u64::from(scale));
        if let Some(drain) = &mut spec.drain {
            drain.at = SimTime::from_nanos(drain.at.as_nanos() / u64::from(scale));
        }
    }
}

/// The generated trace: per-VM demands and arrival instants, drawn from
/// the seed exactly as `ScenarioSpec::run_with_threads` draws them.
#[derive(Debug, Clone)]
pub struct Trace {
    pub demands: Vec<VmDemand>,
    pub arrivals: Vec<SimTime>,
}

impl Trace {
    pub fn generate(spec: &ScenarioSpec, seed: u64) -> Trace {
        let mut rng = SimRng::seed(seed);
        let demands = match &spec.mix {
            ScenarioMix::Table1(config) => config.generate(spec.vm_count, &mut rng.fork(1)),
            ScenarioMix::Tenants(mix) => mix.generate(spec.vm_count, &mut rng.fork(1)),
        };
        let mut arrival_rng = rng.fork(2);
        let arrivals = match &spec.arrivals {
            ArrivalModel::Poisson { mean_interarrival } => {
                ArrivalTrace::new(*mean_interarrival).generate(spec.vm_count, &mut arrival_rng)
            }
            ArrivalModel::Bursts {
                burst_size,
                gap,
                spread,
            } => BurstTrace::new(*burst_size, *gap, *spread)
                .generate(spec.vm_count, &mut arrival_rng),
            ArrivalModel::Diurnal {
                mean_at_peak,
                pattern,
            } => ArrivalTrace::new(*mean_at_peak).generate_diurnal(
                spec.vm_count,
                pattern,
                &mut arrival_rng,
            ),
        };
        Trace { demands, arrivals }
    }
}

/// Builds the racks a replay of `spec` builds: one single-rack system per
/// rack of a federation, or the one rack itself.
pub fn build_racks(spec: &ScenarioSpec) -> Vec<DredboxSystem> {
    let mut config = spec.system.clone();
    let racks = usize::from(config.racks);
    config.racks = 1;
    (0..racks)
        .map(|_| DredboxSystem::build(config.clone()).expect("benchmark rack configs build"))
        .collect()
}
