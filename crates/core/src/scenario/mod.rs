//! Closed-loop rack-scale scenario engine.
//!
//! The paper's headline claim is a *full-stack* prototype: VM requests flow
//! through the SDM controller into disaggregated memory and the rack behaves
//! as one elastic machine. This module drives every layer of the workspace
//! together over simulated time: a discrete-event loop replays VM
//! arrival/lifetime/departure traces from `dredbox-workload` through the
//! orchestrator (placement → reservation → power management), backs each VM
//! with memory carved from the `dredbox-memory` pool (hotplugged into the
//! guest on scale-up), charges per-access latency through the
//! `dredbox-interconnect` data-path models, and emits per-scenario
//! [`Summary`]/[`Table`] reports.
//!
//! The module splits in two: this file holds the declarative side — specs,
//! suites, validation and report types — while `world` (private) holds the
//! state machine the engine drives. Replays run on the
//! [`ShardedEngine`]: each rack owns its own event calendar and
//! control-plane queue. On a multi-rack system, admissions route through
//! the cluster controller's capacity digests on shard 0 and hop to the
//! chosen rack's shard as timestamped mailbox messages; replays are
//! bit-identical at every worker-thread count
//! ([`ScenarioSpec::run_with_threads`]).
//!
//! Four built-in scenarios ship with the engine (see
//! [`ScenarioSpec::builtin_suite`]):
//!
//! * **steady-state** — Poisson arrivals of mixed Table I VMs with mild
//!   scale-up churn, the baseline capacity picture.
//! * **diurnal** — a 24-hour NFV-style day/night load curve (thinned Poisson
//!   arrivals following [`DiurnalPattern`]).
//! * **burst-arrival** — groups of compute-heavy VMs arriving together, the
//!   network-analytics stress case.
//! * **memory-churn** — few long-lived VMs continuously growing and
//!   shrinking through the Scale-up API, the allocator hot path.
//!
//! Nine more ride in [`ScenarioSpec::extended_suite`]:
//!
//! * **rack-scale** ([`ScenarioSpec::rack_scale`], 256 dCOMPUBRICKs, 128
//!   dMEMBRICKs, 4096 VM arrivals) — stresses the SDM control plane itself,
//!   riding on the incrementally maintained capacity indexes.
//! * **consolidation** ([`ScenarioSpec::consolidation`]) — a periodic
//!   rebalance migrates VMs off sparsely used bricks (memory staying
//!   resident on the dMEMBRICKs) so the power sweep can sleep the emptied
//!   bricks, reporting migration downtime against the conventional
//!   pre-copy counterfactual.
//! * **hotspot-evacuation** ([`ScenarioSpec::hotspot_evacuation`]) — burst
//!   arrivals saturate a brick; its VMs are evacuated onto (woken) spare
//!   bricks, reported against the 45–100 s conventional scale-out baseline
//!   of Figure 10.
//! * **offload-heavy** ([`ScenarioSpec::offload_heavy`]) — VMs on an
//!   accelerated rack issue near-data offload sessions sized from the
//!   Section V pilots; the report carries accelerator utilization,
//!   bitstream reuse vs reprogram counts and the offload-vs-local-compute
//!   counterfactual.
//! * **datacenter** ([`ScenarioSpec::datacenter`], 16 racks × 256
//!   dCOMPUBRICKs, 20000 VM arrivals) — two-level orchestration at scale:
//!   the cluster controller routes admissions across racks off its
//!   capacity digests, enforces per-rack power budgets, and drains the
//!   busiest rack mid-run through cross-rack live migration.
//! * **failure-storm** ([`ScenarioSpec::failure_storm`]) — a seeded
//!   mid-trace storm of brick crashes, severed fibres and an
//!   optical-switch failover, each repaired minutes later; the report's
//!   availability block carries blast radius and MTTR.
//! * **rolling-upgrade** ([`ScenarioSpec::rolling_upgrade`]) — every rack
//!   of a four-rack federation drained, snapshotted, restored
//!   bit-identically and readmitted in turn under steady load.
//! * **memory-thrash** ([`ScenarioSpec::memory_thrash`]) — VMs stream
//!   over their remote working sets through the load-dependent data path
//!   ([`DataPathConfig`]): fabric contention, per-VM remote caches and
//!   the adaptive movement-granularity controller all engaged.
//! * **incast** ([`ScenarioSpec::incast`]) — ten VMs hammer the single
//!   dMEMBRICK of a small rack at fixed page granularity, saturating its
//!   ingress port; the report's data-path block shows the p99/p999 tail
//!   collapse that adaptive granularity avoids.
//!
//! Every SDM request of a replay — admissions, scale-ups/downs, releases,
//! migrations, offload begins/ends — is serialized through the owning
//! rack's [`ControlPlaneQueue`](dredbox_sim::queue::ControlPlaneQueue): the
//! controller is a single autonomous service per rack, so concurrent events
//! queue and pay a per-queued-request contention penalty on top of their own
//! service time. Power sweeps batch per rack per tick: each rack's periodic
//! sweep covers exactly its own bricks.
//!
//! Replays are deterministic: the same spec and seed produce a bit-identical
//! [`ScenarioReport`].
//!
//! ```
//! use dredbox::scenario::ScenarioSpec;
//!
//! let spec = ScenarioSpec::memory_churn();
//! let a = spec.run(7)?;
//! let b = spec.run(7)?;
//! assert_eq!(a, b);
//! assert!(a.admitted > 0);
//! # Ok::<(), dredbox::SystemError>(())
//! ```

mod cluster;
mod datapath;
mod faults;
mod observer;
mod world;

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use dredbox_bricks::{MemoryController, MemoryTechnology};
use dredbox_orchestrator::{ClusterTimings, PlacementPolicy};
use dredbox_sim::engine::RunOutcome;
pub(crate) use dredbox_sim::fault::{FailurePlan, FailureSchedule, SiteCounts};
use dredbox_sim::observe::drain_on_helper;
use dredbox_sim::report::{Row, Table};
use dredbox_sim::rng::SimRng;
use dredbox_sim::shard::{ShardId, ShardedEngine};
use dredbox_sim::stats::Summary;
use dredbox_sim::time::{SimDuration, SimTime};
use dredbox_sim::units::{ByteSize, Watts};
use dredbox_softstack::ScaleOutBaseline;
use dredbox_workload::{
    ArrivalTrace, BurstTrace, DiurnalPattern, LifetimeModel, PilotOffloadMix, TenantMix, VmDemand,
    WorkloadConfig,
};

use crate::config::SystemConfig;
use crate::system::{DredboxSystem, SystemError};

pub use datapath::{DataPathConfig, DataPathStats, Granularity, ReadProfile, RemoteCacheConfig};
pub use dredbox_interconnect::ContentionConfig;

use faults::FaultLedger;
use observer::Metric;
use world::{Counters, RackWorld, ScenarioEvent, ScenarioWorld};

/// Which generator a scenario draws its per-VM demands from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ScenarioMix {
    /// Every VM sampled from one Table I mix.
    Table1(WorkloadConfig),
    /// A weighted blend of Table I mixes — the multi-tenant arrival mix of
    /// a federated datacenter, where tenants with different resource
    /// shapes share one cluster front door.
    Tenants(TenantMix),
}

impl ScenarioMix {
    /// Generates the per-VM demand trace.
    fn generate(&self, count: usize, rng: &mut SimRng) -> Vec<VmDemand> {
        match self {
            ScenarioMix::Table1(config) => config.generate(count, rng),
            ScenarioMix::Tenants(mix) => mix.generate(count, rng),
        }
    }
}

/// How VM arrivals are laid out over simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArrivalModel {
    /// Poisson process with the given mean inter-arrival time.
    Poisson {
        /// Mean inter-arrival time.
        mean_interarrival: SimDuration,
    },
    /// Bursts of near-simultaneous arrivals separated by quiet gaps.
    Bursts {
        /// Arrivals per burst.
        burst_size: usize,
        /// Time between burst starts.
        gap: SimDuration,
        /// Window over which one burst's arrivals spread.
        spread: SimDuration,
    },
    /// Poisson process modulated by a 24-hour diurnal load pattern; the mean
    /// holds at the pattern's peak hour.
    Diurnal {
        /// Mean inter-arrival time at the peak hour.
        mean_at_peak: SimDuration,
        /// The day/night load curve.
        pattern: DiurnalPattern,
    },
}

/// Scale-up/scale-down churn applied to every admitted VM: after `hold`, the
/// VM grows by a sampled amount through the Scale-up API, holds it for
/// another `hold`, gives it back, and repeats for `cycles_per_vm` cycles.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChurnModel {
    /// Grow/shrink cycles per VM.
    pub cycles_per_vm: u32,
    /// Delay before the first scale-up and between the steps of a cycle.
    pub hold: SimDuration,
    /// Inclusive range (GiB) the scale-up amount is drawn from.
    pub amount_gib: (u64, u64),
}

/// Near-data offload demand applied to every admitted VM: after
/// `start_after`, the VM issues an offload request sized from the Section V
/// pilot models, holds the session for `hold` (or the session's own data
/// time if longer), ends it, and repeats for `sessions_per_vm` sessions.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OffloadPlan {
    /// Offload sessions each admitted VM issues over its lifetime.
    pub sessions_per_vm: u32,
    /// Delay before the first offload and between session end and the next
    /// begin.
    pub start_after: SimDuration,
    /// Minimum session duration (streaming longer than this keeps the
    /// session open until the data drains).
    pub hold: SimDuration,
    /// The pilot mix offload kernels and input sizes are sampled from.
    pub mix: PilotOffloadMix,
}

/// How (and whether) a scenario rebalances running VMs through the
/// migration flow.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum MigrationPolicy {
    /// Periodically migrate VMs off sparsely used bricks onto fuller ones,
    /// so the power sweep can sleep the emptied bricks.
    Consolidate {
        /// Rebalance period.
        every: SimDuration,
        /// A brick is a consolidation source when its used-core fraction is
        /// at or below this (and it runs at least one VM).
        spare_below: f64,
        /// Migrations allowed per rebalance cycle.
        max_moves: usize,
    },
    /// Periodically evacuate the most loaded brick once its used-core
    /// fraction reaches a threshold, spreading its VMs onto (woken) spare
    /// bricks.
    EvacuateHotspot {
        /// Check period.
        every: SimDuration,
        /// Used-core fraction at which a brick counts as saturated.
        saturated_at: f64,
        /// The conventional scale-out model whose provisioning delay is
        /// reported as the counterfactual for each evacuation burst.
        baseline: ScaleOutBaseline,
    },
}

impl MigrationPolicy {
    /// The policy's rebalance period.
    pub fn every(&self) -> SimDuration {
        match self {
            MigrationPolicy::Consolidate { every, .. }
            | MigrationPolicy::EvacuateHotspot { every, .. } => *every,
        }
    }
}

/// A one-shot rack drain: at `at`, stop routing admissions to `rack` and
/// migrate its VMs onto the other racks of the federation (cross-rack
/// migration — memory moves wholesale, so each evacuee pays the
/// conventional full-copy downtime rather than the disaggregated
/// switchover).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DrainPlan {
    /// The rack to drain.
    pub rack: u16,
    /// When the drain fires.
    pub at: SimTime,
}

/// A staged rolling upgrade: rack by rack, the scenario drains the rack,
/// snapshots the whole controller ([`crate::SystemSnapshot`]), serializes
/// it, restores it, verifies the restored system is bit-identical (and
/// that not a byte of pooled memory went missing), and readmits the rack.
/// Rack `r` upgrades at `start + r * stagger`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct UpgradePlan {
    /// When the first rack's upgrade fires.
    pub start: SimTime,
    /// Delay between consecutive racks' upgrades.
    pub stagger: SimDuration,
}

/// One closed-loop scenario: a rack configuration plus the trace replayed
/// against it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Scenario name, used in reports.
    pub name: String,
    /// The rack and policies under test.
    pub system: SystemConfig,
    /// Number of VM arrivals to replay.
    pub vm_count: usize,
    /// Generator the per-VM demands are sampled from.
    pub mix: ScenarioMix,
    /// Arrival process.
    pub arrivals: ArrivalModel,
    /// Lifetime distribution driving departures.
    pub lifetime: LifetimeModel,
    /// Optional scale-up/down churn applied to admitted VMs.
    pub churn: Option<ChurnModel>,
    /// Optional periodic migration/rebalance policy.
    pub migration: Option<MigrationPolicy>,
    /// Optional near-data offload demand issued by admitted VMs.
    pub offload: Option<OffloadPlan>,
    /// Remote reads charged (through the interconnect model) per admitted VM.
    pub reads_per_vm: u32,
    /// Simulated-time horizon; the run stops here at the latest.
    pub horizon: SimTime,
    /// Period of the power-management sweep, if any.
    pub power_sweep_every: Option<SimDuration>,
    /// Hard cap on processed events (runaway guard).
    pub event_budget: u64,
    /// Optional one-shot rack drain (multi-rack systems only).
    #[serde(default)]
    pub drain: Option<DrainPlan>,
    /// Optional seeded failure storm delivered through the event engine.
    #[serde(default)]
    pub faults: Option<FailurePlan>,
    /// Optional staged rolling upgrade (multi-rack systems only).
    #[serde(default)]
    pub upgrade: Option<UpgradePlan>,
    /// Optional load-dependent remote-memory data path: fabric
    /// contention, per-VM remote caches and adaptive movement
    /// granularity. `None` replays the flat latency model unchanged.
    #[serde(default)]
    pub data_path: Option<DataPathConfig>,
}

impl ScenarioSpec {
    /// Baseline: Poisson arrivals of mixed Table I VMs with mild scale-up
    /// churn on a two-tray datacenter rack.
    pub fn steady_state() -> Self {
        ScenarioSpec {
            name: "steady-state".to_owned(),
            system: SystemConfig::datacenter_rack(2, 4, 4),
            vm_count: 48,
            mix: ScenarioMix::Table1(WorkloadConfig::Random),
            arrivals: ArrivalModel::Poisson {
                mean_interarrival: SimDuration::from_secs(45),
            },
            lifetime: LifetimeModel::new(SimDuration::from_secs(900), SimDuration::from_secs(60)),
            churn: Some(ChurnModel {
                cycles_per_vm: 1,
                hold: SimDuration::from_secs(120),
                amount_gib: (1, 4),
            }),
            migration: None,
            offload: None,
            reads_per_vm: 8,
            horizon: SimTime::from_secs(2 * 3_600),
            power_sweep_every: Some(SimDuration::from_secs(600)),
            event_budget: 100_000,
            drain: None,
            faults: None,
            upgrade: None,
            data_path: None,
        }
    }

    /// A 24-hour NFV-style day/night curve: memory-heavy VMs arrive
    /// following [`DiurnalPattern::nfv_default`], so the rack empties at
    /// night and the power sweep can switch bricks off.
    pub(crate) fn diurnal() -> Self {
        ScenarioSpec {
            name: "diurnal".to_owned(),
            system: SystemConfig::datacenter_rack(2, 4, 4),
            vm_count: 72,
            mix: ScenarioMix::Table1(WorkloadConfig::HighRam),
            arrivals: ArrivalModel::Diurnal {
                mean_at_peak: SimDuration::from_secs(600),
                pattern: DiurnalPattern::nfv_default(),
            },
            lifetime: LifetimeModel::new(
                SimDuration::from_secs(2 * 3_600),
                SimDuration::from_secs(600),
            ),
            churn: None,
            migration: None,
            offload: None,
            reads_per_vm: 8,
            horizon: SimTime::from_secs(24 * 3_600),
            power_sweep_every: Some(SimDuration::from_secs(3_600)),
            event_budget: 100_000,
            drain: None,
            faults: None,
            upgrade: None,
            data_path: None,
        }
    }

    /// Bursts of compute-heavy VMs arriving together — the bursty,
    /// memory-churning traffic of the network-analytics pilot.
    pub(crate) fn burst_arrival() -> Self {
        ScenarioSpec {
            name: "burst-arrival".to_owned(),
            system: SystemConfig::datacenter_rack(2, 4, 4),
            vm_count: 64,
            mix: ScenarioMix::Table1(WorkloadConfig::MoreCpu),
            arrivals: ArrivalModel::Bursts {
                burst_size: 8,
                gap: SimDuration::from_secs(300),
                spread: SimDuration::from_secs(5),
            },
            lifetime: LifetimeModel::new(SimDuration::from_secs(180), SimDuration::from_secs(30)),
            churn: None,
            migration: None,
            offload: None,
            reads_per_vm: 16,
            horizon: SimTime::from_secs(3_600),
            power_sweep_every: Some(SimDuration::from_secs(300)),
            event_budget: 100_000,
            drain: None,
            faults: None,
            upgrade: None,
            data_path: None,
        }
    }

    /// Few long-lived, memory-heavy VMs continuously growing and shrinking
    /// through the Scale-up API — the allocator and hotplug hot path.
    pub fn memory_churn() -> Self {
        ScenarioSpec {
            name: "memory-churn".to_owned(),
            system: SystemConfig::datacenter_rack(2, 4, 4),
            vm_count: 8,
            mix: ScenarioMix::Table1(WorkloadConfig::MoreRam),
            arrivals: ArrivalModel::Poisson {
                mean_interarrival: SimDuration::from_secs(45),
            },
            lifetime: LifetimeModel::new(
                SimDuration::from_secs(3_600),
                SimDuration::from_secs(600),
            ),
            churn: Some(ChurnModel {
                cycles_per_vm: 6,
                hold: SimDuration::from_secs(90),
                amount_gib: (2, 12),
            }),
            migration: None,
            offload: None,
            reads_per_vm: 8,
            horizon: SimTime::from_secs(2 * 3_600),
            power_sweep_every: Some(SimDuration::from_secs(900)),
            event_budget: 100_000,
            drain: None,
            faults: None,
            upgrade: None,
            data_path: None,
        }
    }

    /// The control-plane stress case: a full-height rack (16 trays × 16
    /// dCOMPUBRICKs + 8 dMEMBRICKs each → 256 compute bricks, 128 memory
    /// bricks, 8192 cores, 4 TiB of pooled memory) absorbing 4096 mixed
    /// Table I VM arrivals with departures, churn and periodic power
    /// sweeps. Every arrival walks the full placement → reservation →
    /// hotplug path, so the run scales with the cost of the SDM
    /// controller's availability inspection — the hot path the capacity
    /// indexes keep free of rack-wide scans.
    pub fn rack_scale() -> Self {
        ScenarioSpec {
            name: "rack-scale".to_owned(),
            system: SystemConfig::datacenter_rack(16, 16, 8),
            vm_count: 4096,
            mix: ScenarioMix::Table1(WorkloadConfig::Random),
            arrivals: ArrivalModel::Poisson {
                mean_interarrival: SimDuration::from_secs(2),
            },
            lifetime: LifetimeModel::new(
                SimDuration::from_secs(1_800),
                SimDuration::from_secs(300),
            ),
            churn: Some(ChurnModel {
                cycles_per_vm: 1,
                hold: SimDuration::from_secs(120),
                amount_gib: (1, 2),
            }),
            migration: None,
            offload: None,
            reads_per_vm: 4,
            horizon: SimTime::from_secs(4 * 3_600),
            power_sweep_every: Some(SimDuration::from_secs(600)),
            event_budget: 200_000,
            drain: None,
            faults: None,
            upgrade: None,
            data_path: None,
        }
    }

    /// The elasticity case: VMs spread over the rack (Balanced placement)
    /// and mostly outlive the two-hour horizon, so without intervention
    /// every brick stays busy. A periodic rebalance migrates VMs off
    /// sparsely used bricks — memory staying resident on the dMEMBRICKs —
    /// so the power sweep can sleep the emptied sources. The report carries
    /// the migration downtime against the conventional pre-copy
    /// counterfactual of the same guests.
    pub fn consolidation() -> Self {
        let mut system = SystemConfig::datacenter_rack(2, 4, 4);
        system.placement = PlacementPolicy::Balanced;
        ScenarioSpec {
            name: "consolidation".to_owned(),
            system,
            vm_count: 40,
            mix: ScenarioMix::Table1(WorkloadConfig::Random),
            arrivals: ArrivalModel::Poisson {
                mean_interarrival: SimDuration::from_secs(60),
            },
            lifetime: LifetimeModel::new(
                SimDuration::from_secs(3_600),
                SimDuration::from_secs(600),
            ),
            churn: None,
            migration: Some(MigrationPolicy::Consolidate {
                every: SimDuration::from_secs(600),
                spare_below: 0.5,
                max_moves: 6,
            }),
            offload: None,
            reads_per_vm: 4,
            horizon: SimTime::from_secs(2 * 3_600),
            power_sweep_every: Some(SimDuration::from_secs(900)),
            event_budget: 100_000,
            drain: None,
            faults: None,
            upgrade: None,
            data_path: None,
        }
    }

    /// The burst-pressure case: power-aware placement packs the
    /// compute-heavy bursts onto as few bricks as possible, saturating
    /// them; once a brick crosses the load threshold its VMs are evacuated
    /// onto (woken) spare bricks. The report carries, per evacuation burst,
    /// the 45–100 s conventional scale-out provisioning counterfactual of
    /// Figure 10.
    pub fn hotspot_evacuation() -> Self {
        ScenarioSpec {
            name: "hotspot-evacuation".to_owned(),
            system: SystemConfig::datacenter_rack(2, 4, 4),
            vm_count: 48,
            mix: ScenarioMix::Table1(WorkloadConfig::MoreCpu),
            arrivals: ArrivalModel::Bursts {
                burst_size: 8,
                gap: SimDuration::from_secs(300),
                spread: SimDuration::from_secs(5),
            },
            lifetime: LifetimeModel::new(SimDuration::from_secs(600), SimDuration::from_secs(120)),
            churn: None,
            migration: Some(MigrationPolicy::EvacuateHotspot {
                every: SimDuration::from_secs(120),
                saturated_at: 0.75,
                baseline: ScaleOutBaseline::mao_humphrey_default(),
            }),
            offload: None,
            reads_per_vm: 8,
            horizon: SimTime::from_secs(3_600),
            power_sweep_every: Some(SimDuration::from_secs(600)),
            event_budget: 100_000,
            drain: None,
            faults: None,
            upgrade: None,
            data_path: None,
        }
    }

    /// The near-data acceleration case: an accelerated rack (two
    /// dACCELBRICKs per tray) absorbs VMs that continuously issue offload
    /// sessions sized from the Section V pilot models (video analytics,
    /// NFV key server, 100 GbE network analytics). Three kernels rotate
    /// over four accelerators, so bitstream reuse and PCAP reprogramming
    /// both occur; periodic power sweeps sleep idle accelerators (dropping
    /// their cached bitstreams), making the power-saving vs reuse tension
    /// visible. The report carries accelerator utilization, reuse vs
    /// program counts and the offload-vs-local-compute counterfactual.
    pub fn offload_heavy() -> Self {
        ScenarioSpec {
            name: "offload-heavy".to_owned(),
            system: SystemConfig::accelerated_rack(2, 4, 4, 2),
            vm_count: 32,
            mix: ScenarioMix::Table1(WorkloadConfig::Random),
            arrivals: ArrivalModel::Poisson {
                mean_interarrival: SimDuration::from_secs(45),
            },
            lifetime: LifetimeModel::new(
                SimDuration::from_secs(1_800),
                SimDuration::from_secs(300),
            ),
            churn: None,
            migration: None,
            offload: Some(OffloadPlan {
                sessions_per_vm: 3,
                start_after: SimDuration::from_secs(30),
                hold: SimDuration::from_secs(60),
                mix: PilotOffloadMix::dredbox_default(),
            }),
            reads_per_vm: 4,
            horizon: SimTime::from_secs(2 * 3_600),
            power_sweep_every: Some(SimDuration::from_secs(600)),
            event_budget: 100_000,
            drain: None,
            faults: None,
            upgrade: None,
            data_path: None,
        }
    }

    /// The federation case: 16 TCO-dimensioned racks (16 trays × 16
    /// dCOMPUBRICKs + 8 dMEMBRICKs each → 4096 compute bricks, 2048 memory
    /// bricks, 131072 cores) under one cluster controller, absorbing 20000
    /// VM arrivals from a multi-tenant blend of Table I mixes. Admissions
    /// route through the cluster tier's capacity digests (one pass over
    /// the per-rack digests per decision — never a per-brick scan), hop to the chosen
    /// rack's shard, and spill over between racks when a digest admitted a
    /// layout the rack's pool cannot serve. A per-rack provisioned-power
    /// budget steers routing away from power-saturated racks, per-rack
    /// sweeps reclaim headroom, and mid-run the busiest rack is drained —
    /// every resident VM live-migrates across racks. With ~100k events
    /// over ~6k bricks this is the scale case for two-level orchestration.
    pub fn datacenter() -> Self {
        ScenarioSpec {
            name: "datacenter".to_owned(),
            system: SystemConfig::datacenter_cluster(16, 16, 16, 8)
                .with_rack_power_budget(Some(Watts::new(30_000.0))),
            vm_count: 20_000,
            mix: ScenarioMix::Tenants(TenantMix::datacenter_default()),
            arrivals: ArrivalModel::Poisson {
                mean_interarrival: SimDuration::from_secs(1),
            },
            lifetime: LifetimeModel::new(
                SimDuration::from_secs(1_200),
                SimDuration::from_secs(300),
            ),
            churn: Some(ChurnModel {
                cycles_per_vm: 1,
                hold: SimDuration::from_secs(120),
                amount_gib: (1, 2),
            }),
            migration: None,
            offload: None,
            reads_per_vm: 2,
            horizon: SimTime::from_secs(6 * 3_600),
            power_sweep_every: Some(SimDuration::from_secs(600)),
            event_budget: 400_000,
            // Rack 0 soaks up the early load (the power budget keeps the
            // other racks closed until the first sweep), so draining it
            // mid-run forces a large cross-rack evacuation.
            drain: Some(DrainPlan {
                rack: 0,
                at: SimTime::from_secs(2_500),
            }),
            faults: None,
            upgrade: None,
            data_path: None,
        }
    }

    /// The scale-out case: the `datacenter` workload grown to 64 racks and
    /// roughly a million events, sized for the threaded `PerRack` runner.
    /// Arrivals land every ~120ms so all 64 front-door routing decisions
    /// stay digest-driven, and the drain mid-run still forces a cross-rack
    /// evacuation wave. This spec exists for benchmarking the parallel
    /// runner — it is deliberately not part of the extended golden suite.
    pub fn datacenter_64() -> Self {
        ScenarioSpec {
            name: "datacenter-64".to_owned(),
            system: SystemConfig::datacenter_cluster(64, 16, 16, 8)
                .with_rack_power_budget(Some(Watts::new(30_000.0))),
            vm_count: 150_000,
            mix: ScenarioMix::Tenants(TenantMix::datacenter_default()),
            arrivals: ArrivalModel::Poisson {
                mean_interarrival: SimDuration::from_millis(120),
            },
            lifetime: LifetimeModel::new(
                SimDuration::from_secs(1_200),
                SimDuration::from_secs(300),
            ),
            churn: Some(ChurnModel {
                cycles_per_vm: 2,
                hold: SimDuration::from_secs(120),
                amount_gib: (1, 2),
            }),
            migration: None,
            offload: None,
            reads_per_vm: 1,
            horizon: SimTime::from_secs(6 * 3_600),
            power_sweep_every: Some(SimDuration::from_secs(600)),
            event_budget: 1_500_000,
            drain: Some(DrainPlan {
                rack: 0,
                at: SimTime::from_secs(2_500),
            }),
            faults: None,
            upgrade: None,
            data_path: None,
        }
    }

    /// The robustness case: a two-rack accelerated federation absorbing a
    /// seeded mid-trace failure storm — dCOMPUBRICK, dMEMBRICK and
    /// dACCELBRICK crashes, severed fibres and an optical-switch failover,
    /// each repaired minutes later. VMs on dead compute bricks evacuate
    /// intra-rack (memory resident on their dMEMBRICKs) or restart across
    /// racks; guests whose segments died restart from surviving capacity;
    /// drained offload sessions retry; orphaned bytes are detected and
    /// reclaimed. The report's availability block carries blast radius,
    /// VM-seconds lost and MTTR percentiles.
    pub fn failure_storm() -> Self {
        ScenarioSpec {
            name: "failure-storm".to_owned(),
            system: SystemConfig::accelerated_rack(2, 4, 4, 2).with_racks(2),
            vm_count: 48,
            mix: ScenarioMix::Table1(WorkloadConfig::Random),
            arrivals: ArrivalModel::Poisson {
                mean_interarrival: SimDuration::from_secs(30),
            },
            lifetime: LifetimeModel::new(
                SimDuration::from_secs(2_400),
                SimDuration::from_secs(300),
            ),
            churn: Some(ChurnModel {
                cycles_per_vm: 1,
                hold: SimDuration::from_secs(120),
                amount_gib: (1, 4),
            }),
            migration: None,
            offload: Some(OffloadPlan {
                sessions_per_vm: 2,
                start_after: SimDuration::from_secs(30),
                hold: SimDuration::from_secs(60),
                mix: PilotOffloadMix::dredbox_default(),
            }),
            reads_per_vm: 4,
            horizon: SimTime::from_secs(2 * 3_600),
            power_sweep_every: Some(SimDuration::from_secs(600)),
            event_budget: 100_000,
            drain: None,
            faults: Some(FailurePlan::storm(
                SimTime::from_secs(1_500),
                SimDuration::from_secs(1_200),
            )),
            upgrade: None,
            data_path: None,
        }
    }

    /// The live-servicing case: a four-rack federation under steady load
    /// while every rack is upgraded in turn — drained, its controller
    /// state snapshotted, serialized, restored bit-identically and the
    /// rack readmitted. The availability block proves the servicing
    /// window loses zero bytes of pooled memory and zero restore
    /// mismatches across all four stages.
    pub fn rolling_upgrade() -> Self {
        ScenarioSpec {
            name: "rolling-upgrade".to_owned(),
            system: SystemConfig::datacenter_cluster(4, 2, 4, 4),
            vm_count: 64,
            mix: ScenarioMix::Table1(WorkloadConfig::Random),
            arrivals: ArrivalModel::Poisson {
                mean_interarrival: SimDuration::from_secs(30),
            },
            lifetime: LifetimeModel::new(
                SimDuration::from_secs(3_600),
                SimDuration::from_secs(600),
            ),
            churn: None,
            migration: None,
            offload: None,
            reads_per_vm: 4,
            horizon: SimTime::from_secs(5_400),
            power_sweep_every: Some(SimDuration::from_secs(600)),
            event_budget: 100_000,
            drain: None,
            faults: None,
            // Offset from the 600 s sweep grid, so no upgrade barrier
            // shares a timestamp with a rack's sweep.
            upgrade: Some(UpgradePlan {
                start: SimTime::from_secs(1_805),
                stagger: SimDuration::from_secs(600),
            }),
            data_path: None,
        }
    }

    /// The data-path stress case: memory-leaning VMs stream over remote
    /// working sets far larger than their brick-local caches, through the
    /// full load-dependent model — fabric contention priced per fetch,
    /// per-VM remote caches, and the adaptive movement-granularity
    /// controller. The initial all-miss page-granularity load saturates
    /// the dMEMBRICK ports, VMs demote to cache-line movement, and as
    /// measured miss rates bring the background down they promote back —
    /// the report's data-path block carries the switch count and the
    /// queue-delay distribution.
    pub fn memory_thrash() -> Self {
        let mut system = SystemConfig::datacenter_rack(2, 4, 2);
        // Dense dMEMBRICKs (128 GiB) so twelve memory-leaning VMs fit in
        // the pool and thrash concurrently instead of being rejected.
        let mut memory = system.catalog.memory_spec().clone();
        memory.controllers = vec![MemoryController::new(
            MemoryTechnology::Ddr4,
            ByteSize::from_gib(128),
        )];
        system.catalog = system.catalog.with_memory_spec(memory);
        ScenarioSpec {
            name: "memory-thrash".to_owned(),
            system,
            vm_count: 12,
            mix: ScenarioMix::Table1(WorkloadConfig::MoreRam),
            arrivals: ArrivalModel::Poisson {
                mean_interarrival: SimDuration::from_secs(20),
            },
            lifetime: LifetimeModel::new(SimDuration::from_secs(900), SimDuration::from_secs(240)),
            churn: None,
            migration: None,
            offload: None,
            reads_per_vm: 4,
            horizon: SimTime::from_secs(1_800),
            power_sweep_every: Some(SimDuration::from_secs(600)),
            event_budget: 100_000,
            drain: None,
            faults: None,
            upgrade: None,
            data_path: Some(DataPathConfig {
                contention: Some(ContentionConfig::dredbox_default()),
                cache: Some(RemoteCacheConfig::dredbox_default()),
                initial_granularity: Granularity::Page,
                adaptive: true,
                profile: ReadProfile {
                    working_set: ByteSize::from_bytes(4 * 1024 * 1024),
                    reads_per_sec: 1.0e5,
                    bursts_per_vm: 10,
                    reads_per_burst: 80,
                    burst_every: SimDuration::from_secs(45),
                    start_after: SimDuration::from_secs(15),
                    locality: 0.8,
                },
            }),
        }
    }

    /// The congestion-collapse case: ten low-core, memory-leaning VMs on
    /// a four-brick rack whose pool is one dense dMEMBRICK, so every
    /// remote fetch funnels into a single ingress port. Movement is
    /// pinned at page granularity with the adaptive controller off: the
    /// all-miss page load oversubscribes the port several times over and
    /// the report's data-path block shows the p99/p999 latency collapse
    /// that cache-line fallback (see [`ScenarioSpec::memory_thrash`])
    /// avoids.
    pub fn incast() -> Self {
        let mut system = SystemConfig::datacenter_rack(1, 4, 1);
        // One dense dMEMBRICK (512 GiB): the whole pool — and therefore
        // every VM's read route — sits behind a single ingress port.
        let mut memory = system.catalog.memory_spec().clone();
        memory.controllers = vec![MemoryController::new(
            MemoryTechnology::Ddr4,
            ByteSize::from_gib(512),
        )];
        system.catalog = system.catalog.with_memory_spec(memory);
        ScenarioSpec {
            name: "incast".to_owned(),
            system,
            vm_count: 10,
            mix: ScenarioMix::Table1(WorkloadConfig::MoreRam),
            arrivals: ArrivalModel::Bursts {
                burst_size: 10,
                gap: SimDuration::from_secs(300),
                spread: SimDuration::from_secs(2),
            },
            lifetime: LifetimeModel::new(
                SimDuration::from_secs(3_600),
                SimDuration::from_secs(600),
            ),
            churn: None,
            migration: None,
            offload: None,
            reads_per_vm: 0,
            horizon: SimTime::from_secs(600),
            power_sweep_every: None,
            event_budget: 100_000,
            drain: None,
            faults: None,
            upgrade: None,
            data_path: Some(DataPathConfig {
                contention: Some(ContentionConfig::dredbox_default()),
                cache: Some(RemoteCacheConfig::dredbox_default()),
                initial_granularity: Granularity::Page,
                adaptive: false,
                profile: ReadProfile {
                    working_set: ByteSize::from_bytes(2 * 1024 * 1024),
                    reads_per_sec: 2.0e5,
                    bursts_per_vm: 8,
                    reads_per_burst: 120,
                    burst_every: SimDuration::from_secs(30),
                    start_after: SimDuration::from_secs(10),
                    locality: 0.85,
                },
            }),
        }
    }

    /// The four scenarios shipped with the engine.
    pub fn builtin_suite() -> Vec<ScenarioSpec> {
        vec![
            ScenarioSpec::steady_state(),
            ScenarioSpec::diurnal(),
            ScenarioSpec::burst_arrival(),
            ScenarioSpec::memory_churn(),
        ]
    }

    /// The built-in suite plus the rack-scale control-plane stress case,
    /// the two migration scenarios (consolidation, hotspot-evacuation),
    /// the near-data offload-heavy scenario, the federated multi-rack
    /// datacenter scenario, the two robustness scenarios (failure-storm,
    /// rolling-upgrade), and the two data-path scenarios (memory-thrash,
    /// incast).
    pub fn extended_suite() -> Vec<ScenarioSpec> {
        let mut suite = ScenarioSpec::builtin_suite();
        suite.push(ScenarioSpec::rack_scale());
        suite.push(ScenarioSpec::consolidation());
        suite.push(ScenarioSpec::hotspot_evacuation());
        suite.push(ScenarioSpec::offload_heavy());
        suite.push(ScenarioSpec::datacenter());
        suite.push(ScenarioSpec::failure_storm());
        suite.push(ScenarioSpec::rolling_upgrade());
        suite.push(ScenarioSpec::memory_thrash());
        suite.push(ScenarioSpec::incast());
        suite
    }

    /// Replays the scenario from `seed`. The same spec and seed always
    /// produce a bit-identical report.
    ///
    /// # Errors
    ///
    /// Propagates system-construction failures and rejects invalid specs
    /// (e.g. deserialized with zero-size bursts or a zero mean lifetime)
    /// with [`SystemError::InvalidConfig`]; trace-replay errors (pool
    /// exhaustion, no compute capacity, races with departures) are counted
    /// in the report instead of aborting the run.
    pub fn run(&self, seed: u64) -> Result<ScenarioReport, SystemError> {
        self.run_with_threads(seed, 1)
    }

    /// Replays the scenario from `seed` on up to `threads` threads in
    /// all: the calling thread plus `threads − 1` helpers, so `threads =
    /// 2` keeps two cores busy. `0` counts as 1.
    ///
    /// Every replay runs under the conservative epoch runner
    /// ([`ShardedEngine::run_threaded`]), and the report is bit-identical
    /// for every `threads` value, including 1. Multi-rack systems run on
    /// the partitioned federation (one shard per rack plus the cluster
    /// front door), where the threads claim each epoch's busy shards one
    /// at a time, each from its own home list first and then from the
    /// others'. A single-rack system is one shard
    /// with no channels, so its events run on the calling thread; from
    /// `threads = 2` its report work (priced reads and report samples)
    /// runs beside them on one helper thread. On both, faults and repairs
    /// are serial events, recovered at epoch barriers by the same code.
    ///
    /// # Errors
    ///
    /// Same contract as [`ScenarioSpec::run`].
    pub fn run_with_threads(
        &self,
        seed: u64,
        threads: usize,
    ) -> Result<ScenarioReport, SystemError> {
        self.validate()?;
        let mut rng = SimRng::seed(seed);

        let demands = Arc::new(self.mix.generate(self.vm_count, &mut rng.fork(1)));
        let mut arrival_rng = rng.fork(2);
        let arrivals = match &self.arrivals {
            ArrivalModel::Poisson { mean_interarrival } => {
                ArrivalTrace::new(*mean_interarrival).generate(self.vm_count, &mut arrival_rng)
            }
            ArrivalModel::Bursts {
                burst_size,
                gap,
                spread,
            } => BurstTrace::new(*burst_size, *gap, *spread)
                .generate(self.vm_count, &mut arrival_rng),
            ArrivalModel::Diurnal {
                mean_at_peak,
                pattern,
            } => ArrivalTrace::new(*mean_at_peak).generate_diurnal(
                self.vm_count,
                pattern,
                &mut arrival_rng,
            ),
        };

        if self.system.racks > 1 {
            return self.run_cluster(demands, arrivals, &mut rng, threads);
        }

        // Single-rack: one shard, no channels.
        let system = DredboxSystem::build(self.system.clone())?;
        let mut engine = ShardedEngine::new(1)
            .with_horizon(self.horizon)
            .with_event_budget(self.event_budget);
        // Arrival traces are generated in time order, so they ride in the
        // calendar's presorted run and the heap holds only in-flight events.
        engine.schedule_sorted(
            ShardId(0),
            arrivals
                .iter()
                .enumerate()
                .map(|(index, at)| (*at, ScenarioEvent::Arrival { index })),
        );
        if let Some(every) = self.power_sweep_every {
            engine.schedule(ShardId(0), SimTime::ZERO + every, ScenarioEvent::PowerSweep);
        }
        // Drains and upgrades need somewhere to move VMs, so validate()
        // rejects them on single-rack systems — nothing to schedule here.
        if let Some(policy) = &self.migration {
            engine.schedule(
                ShardId(0),
                SimTime::ZERO + policy.every(),
                ScenarioEvent::Rebalance,
            );
        }
        // Fork order is part of the replay contract: demands (1), arrivals
        // (2), world (3), faults (4).
        let world_rng = rng.fork(3);
        let cabled_links = system.topology().manager().cabled_count() as u32;
        let faults = self.fault_ledger(1, cabled_links, &mut rng, &mut engine);

        let mut world = RackWorld {
            rack: vec![ScenarioWorld::new(self, system, demands, world_rng)],
            faults,
        };
        // One shard keeps every other worker idle, so a second thread
        // drains the rack's observation log instead.
        let outcome = if threads >= 2 {
            drain_on_helper(
                &mut world,
                |world| &mut world.rack[0].log,
                |world| engine.run_threaded(world, threads),
            )
        } else {
            engine.run_threaded(&mut world, threads)
        };
        Ok(world.finish(outcome, engine.now(), engine.processed()))
    }

    /// The spec's seeded fault schedule over `racks` racks of
    /// `cabled_links` links each, drawn from the replay's fourth fork —
    /// and only when the spec injects faults, so every fault-free spec's
    /// streams (and goldens) are untouched — in a ledger that schedules
    /// each fault and repair on `engine` (rack `r` on shard `r` of a
    /// single rack's engine, on shard `1 + r` behind a federation's front
    /// door).
    fn fault_ledger(
        &self,
        racks: u32,
        cabled_links: u32,
        rng: &mut SimRng,
        engine: &mut ShardedEngine<ScenarioEvent>,
    ) -> FaultLedger {
        let first_shard = u32::from(racks > 1);
        let Some(plan) = &self.faults else {
            return FaultLedger::new(FailureSchedule::default(), first_shard, engine);
        };
        let trays = u32::from(self.system.trays);
        let sites = SiteCounts {
            compute: trays * u32::from(self.system.compute_per_tray),
            memory: trays * u32::from(self.system.memory_per_tray),
            accel: trays * u32::from(self.system.accel_per_tray),
            links: cabled_links,
            switches: 1,
        };
        let schedule = FailureSchedule::generate(plan, racks, sites, &mut rng.fork(4));
        FaultLedger::new(schedule, first_shard, engine)
    }

    /// The multi-rack replay: the federation partitions into one
    /// single-rack system per rack plus a cluster front door, and the
    /// conservative threaded runner drives the shards.
    fn run_cluster(
        &self,
        demands: Arc<Vec<VmDemand>>,
        arrivals: Vec<SimTime>,
        rng: &mut SimRng,
        threads: usize,
    ) -> Result<ScenarioReport, SystemError> {
        let racks = usize::from(self.system.racks);
        // Each rack worker owns the single-rack form of the federation's
        // configuration, so a worker thread drives its whole rack without
        // sharing mutable state with any other shard.
        let mut rack_config = self.system.clone();
        rack_config.racks = 1;
        let mut rack_systems = Vec::with_capacity(racks);
        for _ in 0..racks {
            rack_systems.push(DredboxSystem::build(rack_config.clone())?);
        }
        // Fork order is part of the replay contract: demands (1), arrivals
        // (2), world (3) — sub-forked per rack, in rack order — faults (4).
        let mut world_rng = rng.fork(3);
        let rack_rngs: Vec<SimRng> = (0..racks).map(|r| world_rng.fork(r as u64)).collect();
        let cabled_links = rack_systems[0].topology().manager().cabled_count() as u32;

        let timings = ClusterTimings::dredbox_default();
        // Shard 0 is the front door; shard 1 + r is rack r.
        let mut engine = ShardedEngine::new(racks + 1)
            .with_horizon(self.horizon)
            .with_event_budget(self.event_budget);
        engine.schedule(
            ShardId(0),
            SimTime::ZERO + timings.control_interval,
            ScenarioEvent::FrontDoorTick,
        );
        for rack in 0..racks {
            let shard = ShardId(1 + rack as u32);
            engine.schedule(
                shard,
                SimTime::ZERO + timings.control_interval,
                ScenarioEvent::DigestPublish,
            );
            if let Some(every) = self.power_sweep_every {
                engine.schedule(shard, SimTime::ZERO + every, ScenarioEvent::PowerSweep);
            }
        }
        // Cluster-tier operations touch several rack worlds at once, so
        // they run as serial events at epoch barriers, attributed to the
        // shard they strike (the attribution orders equal-time barriers).
        if let Some(plan) = &self.drain {
            engine.schedule_serial(
                ShardId(1 + u32::from(plan.rack)),
                plan.at,
                ScenarioEvent::DrainRack { rack: plan.rack },
            );
        }
        if let Some(policy) = &self.migration {
            engine.schedule_serial(
                ShardId(0),
                SimTime::ZERO + policy.every(),
                ScenarioEvent::Rebalance,
            );
        }
        let faults = self.fault_ledger(racks as u32, cabled_links, rng, &mut engine);
        if let Some(plan) = &self.upgrade {
            for rack in 0..self.system.racks {
                engine.schedule_serial(
                    ShardId(1 + u32::from(rack)),
                    plan.start + plan.stagger.saturating_mul(u64::from(rack)),
                    ScenarioEvent::UpgradeRack { rack },
                );
            }
        }

        let mut world = cluster::ClusterWorld::new(
            self,
            demands,
            arrivals,
            faults,
            rack_systems,
            rack_rngs,
            timings,
        );
        let outcome = engine.run_threaded(&mut world, threads);
        Ok(world.finish(outcome, engine.now(), engine.processed()))
    }

    /// The data path's fabric contention, when the spec configures both.
    fn contention(&self) -> Option<&ContentionConfig> {
        self.data_path.as_ref()?.contention.as_ref()
    }

    /// Rejects parameter combinations the trace generators would panic on,
    /// so a spec deserialized from config reaches the caller as an error.
    fn validate(&self) -> Result<(), SystemError> {
        let invalid = |reason: &str| SystemError::InvalidConfig {
            reason: reason.to_owned(),
        };
        if self.lifetime.mean.as_nanos() == 0 {
            return Err(invalid("lifetime mean must be positive"));
        }
        if self.system.racks > cluster::MAX_RACKS {
            return Err(invalid("a federation holds at most 64 racks"));
        }
        match &self.migration {
            Some(MigrationPolicy::Consolidate {
                every,
                spare_below,
                max_moves,
            }) if every.as_nanos() == 0
                || !(0.0..=1.0).contains(spare_below)
                || *max_moves == 0 =>
            {
                return Err(invalid(
                    "consolidation needs a positive period, 0 <= spare_below <= 1 and max_moves > 0",
                ));
            }
            Some(MigrationPolicy::EvacuateHotspot {
                every,
                saturated_at,
                ..
            }) if every.as_nanos() == 0 || !(0.0..=1.0).contains(saturated_at) => {
                return Err(invalid(
                    "hotspot evacuation needs a positive period and 0 <= saturated_at <= 1",
                ));
            }
            _ => {}
        }
        if let Some(plan) = &self.drain {
            if self.system.racks < 2 {
                return Err(invalid("rack drains need a multi-rack system"));
            }
            if plan.rack >= self.system.racks {
                return Err(invalid("drain rack is out of range"));
            }
        }
        if self.upgrade.is_some() && self.system.racks < 2 {
            // A drained rack's VMs need somewhere to go during servicing.
            return Err(invalid("rolling upgrades need a multi-rack system"));
        }
        if let Some(plan) = &self.faults {
            if plan.counts.iter().all(|&n| n == 0) {
                return Err(invalid("failure plans need at least one fault"));
            }
        }
        if let Some(dp) = &self.data_path {
            if let Some(reason) = dp.invalid_reason() {
                return Err(invalid(reason));
            }
            if self.system.racks > 1 {
                // The contention ledger models one rack's fabric; the
                // partitioned cluster runner has no global data path.
                return Err(invalid("the load-dependent data path is single-rack only"));
            }
        }
        if let Some(plan) = &self.offload {
            if plan.sessions_per_vm == 0 || plan.hold.as_nanos() == 0 {
                return Err(invalid(
                    "offload plans need sessions_per_vm > 0 and a positive hold",
                ));
            }
            if self.system.total_accel_bricks() == 0 {
                return Err(invalid(
                    "offload plans need at least one dACCELBRICK in the rack",
                ));
            }
        }
        match &self.arrivals {
            ArrivalModel::Poisson { mean_interarrival } if mean_interarrival.as_nanos() == 0 => {
                Err(invalid("Poisson mean inter-arrival must be positive"))
            }
            ArrivalModel::Bursts {
                burst_size, gap, ..
            } if *burst_size == 0 || gap.as_nanos() == 0 => {
                Err(invalid("bursts need a positive burst size and gap"))
            }
            ArrivalModel::Diurnal {
                mean_at_peak,
                pattern,
            } if mean_at_peak.as_nanos() == 0
                || !(0.0..=1.0).contains(&pattern.trough)
                || !(0.0..=1.0).contains(&pattern.peak)
                || pattern.trough > pattern.peak =>
            {
                Err(invalid(
                    "diurnal arrivals need a positive at-peak mean and 0 <= trough <= peak <= 1",
                ))
            }
            _ => Ok(()),
        }
    }
}

/// Runs the four built-in scenarios with one seed and collects their reports
/// plus a cross-scenario summary table.
///
/// # Errors
///
/// Propagates system-construction failures from any scenario.
pub fn run_builtin_suite(seed: u64) -> Result<SuiteReport, SystemError> {
    let mut reports = Vec::new();
    for spec in ScenarioSpec::builtin_suite() {
        reports.push(spec.run(seed)?);
    }
    Ok(SuiteReport { seed, reports })
}

/// Cluster-tier telemetry of one replay, present on reports of systems
/// that federate more than one rack.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterScenarioStats {
    /// Number of federated racks.
    pub racks: u64,
    /// Admissions placed after a cluster routing decision (the inter-tier
    /// hop from the front door to the chosen rack's SDM controller).
    pub routed_admissions: u64,
    /// Rack-level spillover hops: a proposed rack refused the admission
    /// and the next rack in preference order was tried.
    pub spillovers: u64,
    /// Racks skipped during routing because their provisioned power had
    /// reached the rack budget.
    pub power_deferrals: u64,
    /// VMs live-migrated between racks by drains.
    pub cross_rack_migrations: u64,
    /// Rack drains executed.
    pub racks_drained: u64,
    /// VMs left on a draining rack because no other rack admitted them.
    pub drain_stranded: u64,
    /// Successful admissions per rack, ascending by rack id.
    pub admissions_per_rack: Vec<u64>,
    /// Bricks powered off by sweeps per rack, ascending by rack id.
    pub power_off_per_rack: Vec<u64>,
}

/// Availability telemetry of one replay, present on reports of specs that
/// inject faults or run a rolling upgrade.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AvailabilityStats {
    /// Faults that actually struck a live site.
    pub faults_injected: u64,
    /// Faults absorbed because their site was already down.
    pub faults_absorbed: u64,
    /// Repairs completed.
    pub repairs: u64,
    /// VMs evacuated off dead compute bricks by intra-rack migration
    /// (memory stayed resident on its dMEMBRICKs).
    pub vm_migrations: u64,
    /// VMs restarted elsewhere: cross-rack spillover off dead compute
    /// bricks, plus guests killed and readmitted after dMEMBRICK faults.
    pub vm_restarts: u64,
    /// VMs lost outright — no surviving capacity could take them.
    pub vms_lost: u64,
    /// Live offload sessions force-ended by faults.
    pub sessions_dropped: u64,
    /// Pool bytes on dMEMBRICKs that died.
    pub segments_lost_bytes: u64,
    /// Bytes stranded by compute-brick crashes (VMs with nowhere to go).
    pub orphaned_bytes: u64,
    /// Orphaned bytes detected and returned to the pool.
    pub reclaimed_bytes: u64,
    /// Cabled fibres severed by link faults.
    pub links_severed: u64,
    /// Circuits re-routed over surviving fibres after link faults.
    pub circuits_rerouted: u64,
    /// Circuits lost to link faults (no surviving path).
    pub circuits_lost: u64,
    /// Optical-switch failovers onto the cold standby.
    pub switch_failovers: u64,
    /// Circuits re-programmed on the standby across all failovers.
    pub circuits_restored: u64,
    /// Guest downtime attributable to faults: evacuation downtime plus
    /// whole-outage downtime of every lost VM.
    pub vm_seconds_lost: f64,
    /// Rolling-upgrade stages completed (one per rack).
    pub upgrades: u64,
    /// Serialized snapshot bytes written across all upgrade stages.
    pub upgrade_snapshot_bytes: u64,
    /// Pooled bytes lost across upgrade servicing windows (must be 0).
    pub upgrade_lost_bytes: u64,
    /// Upgrade stages whose restored system was not bit-identical to the
    /// captured one (must be 0).
    pub upgrade_restore_mismatches: u64,
    /// VMs affected per struck fault.
    pub blast_radius: Option<Summary>,
    /// Repair time (seconds) per completed repair.
    pub mttr: Option<Summary>,
}

/// The result of one scenario replay: headline counters, latency/utilization
/// summaries, and a rendered per-scenario table.
///
/// `Debug` is implemented by hand so the single-rack rendering (the golden
/// snapshot format) stays byte-identical to the pre-federation engine: the
/// `cluster` field is printed only when present.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioReport {
    /// Scenario name.
    pub name: String,
    /// How the event loop ended (drained / horizon / budget).
    pub outcome: RunOutcome,
    /// Simulated time of the last processed event.
    pub end: SimTime,
    /// Number of events processed.
    pub events: u64,
    /// VMs admitted into the rack.
    pub admitted: u64,
    /// VM requests rejected (no compute capacity or pool exhausted).
    pub rejected: u64,
    /// Peak number of simultaneously live VMs.
    pub peak_live: u64,
    /// VMs that completed their lifetime and released their resources.
    pub departed: u64,
    /// Successful scale-up operations.
    pub scale_ups: u64,
    /// Scale-up operations rejected by the pool or the orchestrator.
    pub scale_up_failures: u64,
    /// Successful scale-down operations.
    pub scale_downs: u64,
    /// Power-management sweeps executed.
    pub power_sweeps: u64,
    /// Total bricks switched off across all sweeps.
    pub bricks_powered_off: u64,
    /// Migration/rebalance passes executed.
    pub rebalances: u64,
    /// VMs live-migrated between bricks.
    pub migrations: u64,
    /// Migration attempts that were rejected (no target, no capacity).
    pub migration_failures: u64,
    /// Rebalance passes that evacuated at least one VM off a hotspot.
    pub evacuations: u64,
    /// Offload sessions begun on dACCELBRICKs.
    pub offloads: u64,
    /// Offload requests rejected (every accelerator saturated).
    pub offload_failures: u64,
    /// Offload sessions that ran to completion.
    pub offloads_completed: u64,
    /// Sessions that reused an already-programmed bitstream.
    pub bitstream_reuses: u64,
    /// Sessions that paid a PCAP (re)programming.
    pub bitstream_programs: u64,
    /// Sessions that had to wake a sleeping accelerator.
    pub accel_wakes: u64,
    /// Deepest any shard's SDM control-plane queue ever got.
    pub control_plane_peak_queue: u64,
    /// End-to-end scale-up delay (seconds), if any scale-up ran.
    pub scale_up_delay: Option<Summary>,
    /// Remote-read round-trip latency (nanoseconds), if any read was charged.
    pub read_latency: Option<Summary>,
    /// Pool utilization in `[0, 1]`, sampled after every event.
    pub pool_utilization: Option<Summary>,
    /// Per-migration downtime (seconds): local-state move + switchover +
    /// orchestration + control-plane queueing.
    pub migration_downtime: Option<Summary>,
    /// Per-migration conventional pre-copy counterfactual (seconds).
    pub precopy_counterfactual: Option<Summary>,
    /// Per-evacuation conventional scale-out counterfactual (seconds).
    pub scaleout_counterfactual: Option<Summary>,
    /// Per-request SDM control-plane queueing delay (seconds).
    pub control_plane_wait: Option<Summary>,
    /// Per-session near-data offload time (seconds): queueing +
    /// orchestration + pipelined transfer/kernel.
    pub offload_time: Option<Summary>,
    /// Per-session local-compute counterfactual (seconds): page-granular
    /// remote reads into the dCOMPUBRICK plus the software scan.
    pub offload_local_counterfactual: Option<Summary>,
    /// Fraction of accelerator bricks streaming a session, sampled after
    /// every event on accelerated racks.
    pub accel_utilization: Option<Summary>,
    /// Cluster-tier telemetry; `None` on single-rack systems.
    pub cluster: Option<ClusterScenarioStats>,
    /// Availability telemetry; `None` unless the spec injects faults or
    /// runs a rolling upgrade.
    pub availability: Option<AvailabilityStats>,
    /// Data-path telemetry; `None` unless the spec configures the
    /// load-dependent remote-memory data path.
    pub data_path: Option<DataPathStats>,
}

impl ScenarioReport {
    /// Assembles one replay's report, for a single rack and a federation
    /// alike: `c` and `peak_queue` are the racks' counters and deepest
    /// control-plane queue, `summaries` every [`Metric`]'s finished
    /// sketch, and `faults` yields the availability block.
    #[allow(clippy::too_many_arguments)]
    fn assemble(
        spec: &ScenarioSpec,
        outcome: RunOutcome,
        end: SimTime,
        events: u64,
        c: &Counters,
        mut summaries: [Option<Summary>; Metric::ALL.len()],
        peak_queue: u64,
        cluster: Option<ClusterScenarioStats>,
        faults: FaultLedger,
        data_path: Option<DataPathStats>,
    ) -> Self {
        let mut summary = |metric: Metric| summaries[metric as usize].take();
        ScenarioReport {
            name: spec.name.clone(),
            outcome,
            end,
            events,
            admitted: c.admitted,
            rejected: c.rejected,
            peak_live: c.peak_live,
            departed: c.departed,
            scale_ups: c.scale_ups,
            scale_up_failures: c.scale_up_failures,
            scale_downs: c.scale_downs,
            power_sweeps: c.power_sweeps,
            bricks_powered_off: c.bricks_powered_off,
            rebalances: c.rebalances,
            migrations: c.migrations,
            migration_failures: c.migration_failures,
            evacuations: c.evacuations,
            offloads: c.offloads,
            offload_failures: c.offload_failures,
            offloads_completed: c.offloads_completed,
            bitstream_reuses: c.bitstream_reuses,
            bitstream_programs: c.bitstream_programs,
            accel_wakes: c.accel_wakes,
            control_plane_peak_queue: peak_queue,
            scale_up_delay: summary(Metric::ScaleUpDelay),
            read_latency: summary(Metric::ReadLatency),
            pool_utilization: summary(Metric::PoolUtilization),
            migration_downtime: summary(Metric::MigrationDowntime),
            precopy_counterfactual: summary(Metric::PrecopyCounterfactual),
            scaleout_counterfactual: summary(Metric::ScaleoutCounterfactual),
            control_plane_wait: summary(Metric::ControlPlaneWait),
            offload_time: summary(Metric::OffloadTime),
            offload_local_counterfactual: summary(Metric::OffloadLocalCounterfactual),
            accel_utilization: summary(Metric::AccelUtilization),
            cluster,
            availability: faults.finish(spec),
            data_path,
        }
    }
}

impl std::fmt::Debug for ScenarioReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = f.debug_struct("ScenarioReport");
        s.field("name", &self.name)
            .field("outcome", &self.outcome)
            .field("end", &self.end)
            .field("events", &self.events)
            .field("admitted", &self.admitted)
            .field("rejected", &self.rejected)
            .field("peak_live", &self.peak_live)
            .field("departed", &self.departed)
            .field("scale_ups", &self.scale_ups)
            .field("scale_up_failures", &self.scale_up_failures)
            .field("scale_downs", &self.scale_downs)
            .field("power_sweeps", &self.power_sweeps)
            .field("bricks_powered_off", &self.bricks_powered_off)
            .field("rebalances", &self.rebalances)
            .field("migrations", &self.migrations)
            .field("migration_failures", &self.migration_failures)
            .field("evacuations", &self.evacuations)
            .field("offloads", &self.offloads)
            .field("offload_failures", &self.offload_failures)
            .field("offloads_completed", &self.offloads_completed)
            .field("bitstream_reuses", &self.bitstream_reuses)
            .field("bitstream_programs", &self.bitstream_programs)
            .field("accel_wakes", &self.accel_wakes)
            .field("control_plane_peak_queue", &self.control_plane_peak_queue)
            .field("scale_up_delay", &self.scale_up_delay)
            .field("read_latency", &self.read_latency)
            .field("pool_utilization", &self.pool_utilization)
            .field("migration_downtime", &self.migration_downtime)
            .field("precopy_counterfactual", &self.precopy_counterfactual)
            .field("scaleout_counterfactual", &self.scaleout_counterfactual)
            .field("control_plane_wait", &self.control_plane_wait)
            .field("offload_time", &self.offload_time)
            .field(
                "offload_local_counterfactual",
                &self.offload_local_counterfactual,
            )
            .field("accel_utilization", &self.accel_utilization);
        if self.cluster.is_some() {
            s.field("cluster", &self.cluster);
        }
        if self.availability.is_some() {
            s.field("availability", &self.availability);
        }
        if self.data_path.is_some() {
            s.field("data_path", &self.data_path);
        }
        s.finish()
    }
}

impl ScenarioReport {
    /// Renders the per-scenario metric table from the report fields.
    pub(crate) fn table(&self) -> Table {
        let mut table = Table::new(format!("Scenario — {}", self.name), ["Metric", "Value"]);
        table.push(Row::new("run outcome", [self.outcome.to_string()]));
        table.push(Row::new(
            "simulated end time (s)",
            [format!("{:.3}", self.end.as_secs_f64())],
        ));
        table.push(Row::new("events processed", [self.events.to_string()]));
        table.push(Row::new(
            "VMs admitted / rejected",
            [format!("{} / {}", self.admitted, self.rejected)],
        ));
        table.push(Row::new("peak live VMs", [self.peak_live.to_string()]));
        table.push(Row::new("departures", [self.departed.to_string()]));
        table.push(Row::new(
            "scale-ups ok / failed",
            [format!("{} / {}", self.scale_ups, self.scale_up_failures)],
        ));
        table.push(Row::new("scale-downs", [self.scale_downs.to_string()]));
        table.push(Row::new(
            "power sweeps / bricks powered off",
            [format!(
                "{} / {}",
                self.power_sweeps, self.bricks_powered_off
            )],
        ));
        if self.rebalances > 0 {
            table.push(Row::new(
                "rebalances / migrations ok / failed",
                [format!(
                    "{} / {} / {}",
                    self.rebalances, self.migrations, self.migration_failures
                )],
            ));
        }
        if let Some(s) = &self.migration_downtime {
            table.push(Row::new(
                "migration downtime mean / max (ms)",
                [format!("{:.3} / {:.3}", s.mean() * 1e3, s.max() * 1e3)],
            ));
        }
        if let Some(s) = &self.precopy_counterfactual {
            table.push(Row::new(
                "pre-copy counterfactual mean (s)",
                [format!("{:.3}", s.mean())],
            ));
        }
        if let Some(s) = &self.scaleout_counterfactual {
            table.push(Row::new(
                "scale-out counterfactual mean (s)",
                [format!("{:.3}", s.mean())],
            ));
        }
        if self.offloads > 0 || self.offload_failures > 0 {
            table.push(Row::new(
                "offloads ok / failed / completed",
                [format!(
                    "{} / {} / {}",
                    self.offloads, self.offload_failures, self.offloads_completed
                )],
            ));
            table.push(Row::new(
                "bitstream reuses / programs / wakes",
                [format!(
                    "{} / {} / {}",
                    self.bitstream_reuses, self.bitstream_programs, self.accel_wakes
                )],
            ));
        }
        if let Some(s) = &self.offload_time {
            table.push(Row::new(
                "offload time mean / max (s)",
                [format!("{:.3} / {:.3}", s.mean(), s.max())],
            ));
        }
        if let Some(s) = &self.offload_local_counterfactual {
            table.push(Row::new(
                "local-compute counterfactual mean (s)",
                [format!("{:.3}", s.mean())],
            ));
        }
        if let Some(s) = &self.accel_utilization {
            table.push(Row::new(
                "accel utilization mean / peak (%)",
                [format!("{:.2} / {:.2}", s.mean() * 100.0, s.max() * 100.0)],
            ));
        }
        if let Some(s) = &self.control_plane_wait {
            table.push(Row::new(
                "control-plane wait mean (ms) / peak queue",
                [format!(
                    "{:.3} / {}",
                    s.mean() * 1e3,
                    self.control_plane_peak_queue
                )],
            ));
        }
        if let Some(s) = &self.scale_up_delay {
            table.push(Row::new(
                "scale-up delay mean / p95 (ms)",
                [format!(
                    "{:.3} / {:.3}",
                    s.mean() * 1e3,
                    s.percentile(95.0) * 1e3
                )],
            ));
        }
        if let Some(s) = &self.read_latency {
            table.push(Row::new(
                "remote read mean / max (ns)",
                [format!("{:.1} / {:.1}", s.mean(), s.max())],
            ));
        }
        if let Some(s) = &self.pool_utilization {
            table.push(Row::new(
                "pool utilization mean / peak (%)",
                [format!("{:.2} / {:.2}", s.mean() * 100.0, s.max() * 100.0)],
            ));
        }
        if let Some(c) = &self.cluster {
            table.push(Row::new(
                "federated racks / drained / stranded VMs",
                [format!(
                    "{} / {} / {}",
                    c.racks, c.racks_drained, c.drain_stranded
                )],
            ));
            table.push(Row::new(
                "routed admissions / spillovers / power deferrals",
                [format!(
                    "{} / {} / {}",
                    c.routed_admissions, c.spillovers, c.power_deferrals
                )],
            ));
            table.push(Row::new(
                "cross-rack migrations",
                [c.cross_rack_migrations.to_string()],
            ));
            if let Some((rack, n)) = c
                .admissions_per_rack
                .iter()
                .enumerate()
                .max_by_key(|&(i, &n)| (n, std::cmp::Reverse(i)))
            {
                table.push(Row::new(
                    "busiest rack (admissions)",
                    [format!("rack {rack} ({n})")],
                ));
            }
        }
        if let Some(a) = &self.availability {
            table.push(Row::new(
                "faults injected / absorbed / repaired",
                [format!(
                    "{} / {} / {}",
                    a.faults_injected, a.faults_absorbed, a.repairs
                )],
            ));
            table.push(Row::new(
                "fault VMs migrated / restarted / lost",
                [format!(
                    "{} / {} / {}",
                    a.vm_migrations, a.vm_restarts, a.vms_lost
                )],
            ));
            table.push(Row::new(
                "offload sessions dropped by faults",
                [a.sessions_dropped.to_string()],
            ));
            table.push(Row::new(
                "segment bytes lost / orphaned / reclaimed",
                [format!(
                    "{} / {} / {}",
                    a.segments_lost_bytes, a.orphaned_bytes, a.reclaimed_bytes
                )],
            ));
            table.push(Row::new(
                "links severed / circuits rerouted / lost",
                [format!(
                    "{} / {} / {}",
                    a.links_severed, a.circuits_rerouted, a.circuits_lost
                )],
            ));
            table.push(Row::new(
                "switch failovers / circuits restored",
                [format!("{} / {}", a.switch_failovers, a.circuits_restored)],
            ));
            table.push(Row::new(
                "VM-seconds lost",
                [format!("{:.3}", a.vm_seconds_lost)],
            ));
            if let Some(s) = &a.blast_radius {
                table.push(Row::new(
                    "fault blast radius mean / max (VMs)",
                    [format!("{:.2} / {:.0}", s.mean(), s.max())],
                ));
            }
            if let Some(s) = &a.mttr {
                table.push(Row::new(
                    "MTTR mean / p95 (s)",
                    [format!("{:.1} / {:.1}", s.mean(), s.percentile(95.0))],
                ));
            }
            if a.upgrades > 0 {
                table.push(Row::new(
                    "rolling upgrades / restore mismatches",
                    [format!("{} / {}", a.upgrades, a.upgrade_restore_mismatches)],
                ));
                table.push(Row::new(
                    "upgrade snapshot bytes / bytes lost",
                    [format!(
                        "{} / {}",
                        a.upgrade_snapshot_bytes, a.upgrade_lost_bytes
                    )],
                ));
            }
        }
        if let Some(d) = &self.data_path {
            table.push(Row::new(
                "data-path reads / cache hits / misses",
                [format!(
                    "{} / {} / {}",
                    d.reads, d.cache_hits, d.cache_misses
                )],
            ));
            table.push(Row::new(
                "fetches line / page / granularity switches",
                [format!(
                    "{} / {} / {}",
                    d.line_fetches, d.page_fetches, d.granularity_switches
                )],
            ));
            table.push(Row::new(
                "read latency p50 / p99 / p999 (ns)",
                [format!(
                    "{:.1} / {:.1} / {:.1}",
                    d.read_latency_p50_ns, d.read_latency_p99_ns, d.read_latency_p999_ns
                )],
            ));
            if let Some(s) = &d.queue_delay {
                table.push(Row::new(
                    "fabric queue delay mean / max (ns)",
                    [format!("{:.1} / {:.1}", s.mean(), s.max())],
                ));
            }
            table.push(Row::new(
                "peak fabric stage utilization (%)",
                [format!("{:.2}", d.peak_fabric_utilization * 100.0)],
            ));
        }
        table
    }
}

impl std::fmt::Display for ScenarioReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.table().fmt(f)
    }
}

/// Reports of a whole scenario suite plus a cross-scenario summary table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SuiteReport {
    /// The seed the suite was replayed from.
    pub seed: u64,
    /// Per-scenario reports, in suite order.
    pub reports: Vec<ScenarioReport>,
}

impl SuiteReport {
    /// Renders the one-row-per-scenario summary table.
    pub fn table(&self) -> Table {
        let mut table = Table::new(
            format!("Scenario suite (seed {})", self.seed),
            [
                "Scenario",
                "Admitted",
                "Rejected",
                "Peak live",
                "Scale-ups",
                "Migrations",
                "Mean scale-up (ms)",
                "Mean read (ns)",
                "Peak pool util (%)",
                "Bricks off",
                "End (s)",
            ],
        );
        for r in &self.reports {
            table.push(Row::new(
                r.name.clone(),
                [
                    r.admitted.to_string(),
                    r.rejected.to_string(),
                    r.peak_live.to_string(),
                    r.scale_ups.to_string(),
                    r.migrations.to_string(),
                    r.scale_up_delay
                        .as_ref()
                        .map_or_else(|| "-".to_owned(), |s| format!("{:.3}", s.mean() * 1e3)),
                    r.read_latency
                        .as_ref()
                        .map_or_else(|| "-".to_owned(), |s| format!("{:.1}", s.mean())),
                    r.pool_utilization
                        .as_ref()
                        .map_or_else(|| "-".to_owned(), |s| format!("{:.2}", s.max() * 100.0)),
                    r.bricks_powered_off.to_string(),
                    format!("{:.3}", r.end.as_secs_f64()),
                ],
            ));
        }
        table
    }

    /// Looks up one scenario's report by name.
    pub fn report(&self, name: &str) -> Option<&ScenarioReport> {
        self.reports.iter().find(|r| r.name == name)
    }
}

impl std::fmt::Display for SuiteReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for r in &self.reports {
            writeln!(f, "{r}")?;
        }
        self.table().fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calendar_entries_and_epoch_units_stay_small() {
        // Every calendar and mailbox entry holds an event, and the epoch
        // loop moves workers by value: a wide new variant must be boxed.
        assert!(std::mem::size_of::<ScenarioEvent>() <= 24);
        assert!(std::mem::size_of::<cluster::ClusterWorker<'static>>() <= 256);
    }

    #[test]
    fn steady_state_replay_is_deterministic() {
        let spec = ScenarioSpec::steady_state();
        let a = spec.run(2018).expect("run");
        let b = spec.run(2018).expect("run");
        assert_eq!(a, b);
        assert_eq!(a.to_string(), b.to_string());
        assert!(a.admitted > 0);
    }

    #[test]
    fn federated_replay_is_bit_identical_across_sharding_modes() {
        // A shrunk datacenter: 4 racks, routed admissions, a mid-run drain
        // of the loaded rack. Replays of the sharded federation on one and
        // on several worker threads must not differ in a single bit, and
        // the cluster tier must actually exercise routing, spillover
        // bookkeeping and the drain.
        let mut spec = ScenarioSpec::datacenter();
        spec.name = "mini-cluster".to_owned();
        spec.system = SystemConfig::datacenter_cluster(4, 2, 4, 4);
        spec.vm_count = 96;
        spec.arrivals = ArrivalModel::Poisson {
            mean_interarrival: SimDuration::from_secs(10),
        };
        spec.drain = Some(DrainPlan {
            rack: 0,
            at: SimTime::from_secs(700),
        });
        spec.horizon = SimTime::from_secs(3_600);
        spec.event_budget = 50_000;
        let a = spec.run(2018).expect("run");
        let b = spec.run_with_threads(2018, 3).expect("run");
        assert_eq!(a, b);
        assert_eq!(format!("{a:#?}\n{a}"), format!("{b:#?}\n{b}"));
        let cluster = a.cluster.as_ref().expect("multi-rack reports cluster");
        assert_eq!(cluster.racks, 4);
        assert_eq!(cluster.routed_admissions, a.admitted);
        assert_eq!(cluster.admissions_per_rack.iter().sum::<u64>(), a.admitted);
        assert_eq!(cluster.racks_drained, 1);
        assert!(
            cluster.cross_rack_migrations > 0,
            "the drain must move VMs across racks"
        );
        assert_eq!(
            a.migrations, cluster.cross_rack_migrations,
            "all migrations here come from the drain"
        );
        // Draining rack 0 pushes later admissions onto the other racks.
        assert!(cluster.admissions_per_rack[1..].iter().any(|&n| n > 0));
    }

    #[test]
    fn drain_plans_are_validated() {
        let mut spec = ScenarioSpec::steady_state();
        spec.drain = Some(DrainPlan {
            rack: 0,
            at: SimTime::from_secs(10),
        });
        assert!(matches!(
            spec.run(1),
            Err(SystemError::InvalidConfig { .. })
        ));
        let mut spec = ScenarioSpec::datacenter();
        spec.drain = Some(DrainPlan {
            rack: 99,
            at: SimTime::from_secs(10),
        });
        assert!(matches!(
            spec.run(1),
            Err(SystemError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn federations_over_64_racks_are_rejected() {
        let mut spec = ScenarioSpec::datacenter();
        spec.system.racks = 65;
        assert!(matches!(
            spec.run_with_threads(1, 2),
            Err(SystemError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn churn_scenario_exercises_the_scale_up_path() {
        let report = ScenarioSpec::memory_churn().run(7).expect("run");
        assert!(report.admitted > 0);
        assert!(report.scale_ups > 0, "churn must trigger scale-ups");
        assert!(report.scale_downs > 0, "churn must trigger scale-downs");
        let delay = report.scale_up_delay.expect("delays recorded");
        // Figure 10 territory: well under two seconds end to end per VM.
        assert!(delay.max() < 2.0, "scale-up took {} s", delay.max());
    }

    #[test]
    fn burst_scenario_sees_concurrent_vms() {
        let report = ScenarioSpec::burst_arrival().run(5).expect("run");
        assert!(report.admitted > 0);
        assert!(
            report.peak_live >= 4,
            "bursts of 8 should overlap, peak was {}",
            report.peak_live
        );
    }

    #[test]
    fn invalid_specs_error_instead_of_panicking() {
        let mut spec = ScenarioSpec::burst_arrival();
        spec.arrivals = ArrivalModel::Bursts {
            burst_size: 0,
            gap: SimDuration::from_secs(1),
            spread: SimDuration::ZERO,
        };
        assert!(matches!(
            spec.run(1),
            Err(SystemError::InvalidConfig { .. })
        ));
        let mut spec = ScenarioSpec::steady_state();
        spec.lifetime.mean = SimDuration::ZERO;
        assert!(matches!(
            spec.run(1),
            Err(SystemError::InvalidConfig { .. })
        ));
        // Offload plans need sessions, a hold, and accelerators to land on.
        let mut spec = ScenarioSpec::offload_heavy();
        spec.offload = Some(OffloadPlan {
            sessions_per_vm: 0,
            ..spec.offload.unwrap()
        });
        assert!(matches!(
            spec.run(1),
            Err(SystemError::InvalidConfig { .. })
        ));
        let mut spec = ScenarioSpec::offload_heavy();
        spec.system = SystemConfig::datacenter_rack(2, 4, 4);
        assert!(matches!(
            spec.run(1),
            Err(SystemError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn offload_heavy_drives_the_accelerators() {
        let report = ScenarioSpec::offload_heavy().run(2018).expect("run");
        assert!(report.admitted > 0);
        assert!(report.offloads > 0, "no offload session ever began");
        assert!(report.offloads_completed > 0);
        // Bitstream reuse and PCAP programming must both occur, or the
        // scenario exercises only half the accel placement order.
        assert!(report.bitstream_reuses > 0, "no bitstream was ever reused");
        assert!(report.bitstream_programs > 0, "no bitstream was programmed");
        let util = report.accel_utilization.as_ref().expect("accel sampled");
        assert!(util.max() > 0.0, "accelerators never utilized");
        // The near-data claim, per session on average.
        let offload = report.offload_time.as_ref().expect("offload timed");
        let local = report
            .offload_local_counterfactual
            .as_ref()
            .expect("counterfactual recorded");
        assert!(
            offload.mean() < local.mean(),
            "near-data offload ({:.3} s) must beat local compute ({:.3} s)",
            offload.mean(),
            local.mean()
        );
    }

    #[test]
    fn failure_storm_is_bit_identical_across_seeds_and_sharding_modes() {
        let spec = ScenarioSpec::failure_storm();
        for seed in [2018, 7] {
            let a = spec.run(seed).expect("run");
            let b = spec.run(seed).expect("run");
            assert_eq!(a, b, "same seed, same storm, same report");
            let c = spec.run_with_threads(seed, 2).expect("run");
            assert_eq!(a, c, "worker counts must not differ in a single bit");
            assert_eq!(format!("{a:#?}\n{a}"), format!("{c:#?}\n{c}"));
        }
        let report = spec.run(2018).expect("run");
        let a = report.availability.as_ref().expect("availability reported");
        assert!(a.faults_injected > 0, "the storm must actually strike");
        assert_eq!(
            a.faults_injected + a.faults_absorbed,
            9,
            "3+2+1+2+1 planned faults"
        );
        assert!(a.repairs > 0, "repairs must complete within the horizon");
        assert!(a.mttr.is_some(), "MTTR percentiles reported");
        assert!(
            a.orphaned_bytes >= a.reclaimed_bytes,
            "reclaim never invents bytes"
        );
        // The rendered report carries the availability block.
        assert!(report.to_string().contains("faults injected"));
    }

    #[test]
    fn rolling_upgrade_loses_zero_bytes() {
        let report = ScenarioSpec::rolling_upgrade().run(2018).expect("run");
        let a = report.availability.as_ref().expect("availability reported");
        assert_eq!(a.upgrades, 4, "every rack upgrades once");
        assert_eq!(
            a.upgrade_restore_mismatches, 0,
            "every restore must be bit-identical"
        );
        assert_eq!(
            a.upgrade_lost_bytes, 0,
            "not a byte of pooled memory may go missing across servicing"
        );
        assert!(a.upgrade_snapshot_bytes > 0, "snapshots were serialized");
        let cluster = report.cluster.as_ref().expect("multi-rack");
        assert_eq!(cluster.racks_drained, 4);
        // Readmitted racks keep absorbing load after their upgrade.
        assert!(report.admitted > 0);
        // And the replay stays bit-identical across worker counts.
        let b = ScenarioSpec::rolling_upgrade()
            .run_with_threads(2018, 2)
            .expect("run");
        assert_eq!(report, b);
    }

    #[test]
    fn fault_and_upgrade_specs_are_validated() {
        // Rolling upgrades need racks to drain into.
        let mut spec = ScenarioSpec::steady_state();
        spec.upgrade = Some(UpgradePlan {
            start: SimTime::from_secs(10),
            stagger: SimDuration::from_secs(10),
        });
        assert!(matches!(
            spec.run(1),
            Err(SystemError::InvalidConfig { .. })
        ));
        // Empty failure plans are refused rather than silently no-ops.
        let mut spec = ScenarioSpec::failure_storm();
        spec.faults = Some(FailurePlan {
            counts: [0; 5],
            ..spec.faults.unwrap()
        });
        assert!(matches!(
            spec.run(1),
            Err(SystemError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn suite_runs_all_four_scenarios() {
        let suite = run_builtin_suite(1).expect("suite");
        assert_eq!(suite.reports.len(), 4);
        assert_eq!(suite.table().len(), 4);
        assert!(suite.report("diurnal").is_some());
        assert!(suite.report("missing").is_none());
    }
}
