//! SoC assembly: the two architectures of the paper's Fig. 1.
//!
//! * [`Mapping::AllFixed`] — Fig. 1(a): CPU + memory + one hardwired
//!   accelerator per workload kernel on the shared bus.
//! * [`Mapping::Drcf`] — Fig. 1(b): a chosen subset of those accelerators
//!   folded into a single dynamically reconfigurable fabric, configuration
//!   images resident in system memory.
//!
//! [`run_soc`] executes the workload's compiled CPU program on the built
//! system and extracts the metric record every experiment harness consumes.

use drcf_bus::prelude::*;
use drcf_core::prelude::*;
use drcf_kernel::prelude::*;

use crate::accelerator::KernelAccelerator;
use crate::cpu::{Cpu, CpuConfig};
use crate::tasks::{compile_with, AccelBinding, CompileOptions, CopyMode};
use crate::workloads::Workload;

/// Configuration transport choice at SoC level.
#[derive(Debug, Clone)]
pub enum SocConfigPath {
    /// Images in system memory, loaded over the shared bus.
    SystemBus,
    /// Dedicated port into the system memory (set `dual_port` on the
    /// memory config to make it contention-free).
    DirectPort,
    /// Fixed-rate loader (no modeled traffic).
    FixedRate {
        /// Words per cycle.
        words_per_cycle: u64,
    },
}

/// How the workload's accelerators are implemented.
// A configuration enum built a handful of times per run; the Technology
// payload's size is irrelevant next to the construction ergonomics.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum Mapping {
    /// Every accelerator is its own hardwired block (Fig. 1a).
    AllFixed,
    /// The named accelerators fold into one DRCF (Fig. 1b); the rest stay
    /// hardwired.
    Drcf {
        /// Accelerator names to fold.
        candidates: Vec<String>,
        /// Target technology.
        technology: Technology,
        /// Fabric geometry.
        geometry: FabricGeometry,
        /// Configuration transport.
        config_path: SocConfigPath,
        /// Scheduler parameters.
        scheduler: SchedulerConfig,
        /// Background loading.
        overlap_load_exec: bool,
    },
}

/// Data-movement strategy at SoC level (resolved to a
/// [`crate::tasks::CopyMode`] by the builder, which allocates the staging
/// area and the DMA block).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SocCopyMode {
    /// CPU writes accelerator windows directly.
    CpuDirect,
    /// Inputs pre-loaded in memory; CPU relays them.
    CpuViaMemory,
    /// Inputs pre-loaded in memory; the DMA controller streams them.
    Dma,
}

/// Full SoC parameter set.
#[derive(Debug, Clone)]
pub struct SocSpec {
    /// Shared bus.
    pub bus: BusConfig,
    /// System memory.
    pub memory: MemoryConfig,
    /// Processor.
    pub cpu: CpuConfig,
    /// Clock of hardwired accelerators, MHz.
    pub accel_clock_mhz: u64,
    /// STATUS poll interval in CPU cycles.
    pub poll_interval_cycles: u64,
    /// Data movement strategy.
    pub copy_mode: SocCopyMode,
    /// Implementation mapping.
    pub mapping: Mapping,
    /// Fault injection: DRCF context ids whose loads are aborted
    /// mid-reconfiguration (forwarded to [`DrcfConfig::abort_load_of`]).
    pub abort_load_of: Vec<usize>,
    /// Structured-tracing ring-buffer capacity in events. `None` leaves the
    /// recorder disabled (zero overhead on the dispatch hot path).
    pub trace_capacity: Option<usize>,
    /// Coalesce uncontended configuration traffic into analytically timed
    /// bus windows (system-bus config path only). Timing-neutral: every
    /// run observable (makespan, bus/memory statistics, per-master waits)
    /// is bit-identical to the per-burst path; the bus falls back to
    /// per-burst transactions whenever another master contends, a fault
    /// range overlaps, or tracing is enabled.
    pub coalesce_config_traffic: bool,
    /// Pause the run at this simulated offset and capture a deterministic
    /// [`Snapshot`] before resuming to completion ([`run_soc`] stores it in
    /// [`BuiltSoc::snapshot`]). `None` runs straight through.
    pub snapshot_at: Option<SimDuration>,
}

impl Default for SocSpec {
    fn default() -> Self {
        SocSpec {
            bus: BusConfig::default(),
            memory: MemoryConfig {
                base: 0,
                size_words: 0x8000,
                ..MemoryConfig::default()
            },
            cpu: CpuConfig::default(),
            accel_clock_mhz: 100,
            poll_interval_cycles: 50,
            copy_mode: SocCopyMode::CpuDirect,
            mapping: Mapping::AllFixed,
            abort_load_of: vec![],
            trace_capacity: None,
            coalesce_config_traffic: true,
            snapshot_at: None,
        }
    }
}

/// A built, ready-to-run SoC.
pub struct BuiltSoc {
    /// The simulator.
    pub sim: Simulator,
    /// CPU component.
    pub cpu: ComponentId,
    /// Bus component.
    pub bus: ComponentId,
    /// Memory component.
    pub memory: ComponentId,
    /// DRCF component, when the mapping folds accelerators.
    pub drcf: Option<ComponentId>,
    /// Standalone accelerators: (name, id).
    pub standalone: Vec<(String, ComponentId)>,
    /// Accelerator address bindings (all of them, folded or not).
    pub bindings: Vec<AccelBinding>,
    /// Area proxy in equivalent gates (hardwired blocks + fabric).
    pub area_gates: u64,
    /// Per-context parameters of the fabric (empty without a DRCF).
    pub context_params: Vec<ContextParams>,
    /// Power model of the fabric technology (fabric mapping only).
    pub power_model: Option<PowerModel>,
    /// Fabric clock, MHz.
    pub fabric_clock_mhz: u64,
    /// When set, [`run_soc`] pauses here to capture a snapshot.
    pub snapshot_at: Option<SimDuration>,
    /// The snapshot captured by [`run_soc`] at [`Self::snapshot_at`].
    pub snapshot: Option<Snapshot>,
}

/// Warm-fork sweeps (`drcf_dse::runner::sweep_warm_fork`) address the
/// simulator inside a live SoC through this, rewinding it back to the
/// fork point between point evaluations.
impl AsMut<Simulator> for BuiltSoc {
    fn as_mut(&mut self) -> &mut Simulator {
        &mut self.sim
    }
}

/// Metrics of one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunMetrics {
    /// Application makespan.
    pub makespan: SimDuration,
    /// Bus utilization over the run.
    pub bus_utilization: f64,
    /// Words moved across the bus.
    pub bus_words: u64,
    /// Context switches (0 without a fabric).
    pub switches: u64,
    /// Configuration words streamed.
    pub config_words: u64,
    /// Fraction of the run lost to blocking reconfiguration.
    pub reconfig_overhead: f64,
    /// Context scheduler hit rate.
    pub hit_rate: f64,
    /// Fabric energy, mJ (0 without a fabric/power model).
    pub fabric_energy_mj: f64,
    /// Area proxy, equivalent gates.
    pub area_gates: u64,
    /// Bus transactions that errored.
    pub errors: u64,
    /// How the run ended.
    pub ok: bool,
    /// The typed simulation error that ended the run, when `ok` is false.
    pub error: Option<String>,
    /// Per-context reconfiguration timeline (§5.3 step-5 accounting);
    /// empty without a fabric.
    pub timeline: ReconfigTimeline,
    /// Per-master bus grant-latency report.
    pub bus_contention: BusContention,
}

/// Assign consecutive, gap-separated base addresses to the workload's
/// accelerators, starting after the memory.
pub fn assign_bindings(workload: &Workload, spec: &SocSpec) -> Vec<AccelBinding> {
    let mut base = spec.memory.base + spec.memory.size_words as u64;
    // Round up to a friendly boundary.
    base = (base + 0xFF) & !0xFF;
    workload
        .accels
        .iter()
        .map(|a| {
            let b = AccelBinding {
                name: a.name.clone(),
                base,
                window_words: a.window_words,
            };
            let footprint = 3 + a.window_words as u64;
            base = (base + footprint + 0xF) & !0xF;
            b
        })
        .collect()
}

/// Build the SoC for `workload` under `spec`.
///
/// Component id layout: CPU = 0, bus = 1, memory = 2, then the DRCF (if
/// any), then standalone accelerators in workload order.
///
/// Every rejected configuration is a typed [`SimErrorKind::Validation`]
/// error naming the offending ingredient.
pub fn build_soc(workload: &Workload, spec: &SocSpec) -> SimResult<BuiltSoc> {
    fn invalid(msg: String) -> SimError {
        SimError::new(SimErrorKind::Validation, msg)
    }
    let bindings = assign_bindings(workload, spec);
    // The staging area sits in the upper half of system memory; the DMA
    // register block just above the accelerator bindings.
    let staging_base = spec.memory.base + spec.memory.size_words as u64 / 2;
    let dma_base = bindings
        .iter()
        .map(|b| b.base + 3 + b.window_words as u64)
        .max()
        .unwrap_or(spec.memory.base + spec.memory.size_words as u64)
        .div_ceil(0x100)
        * 0x100;
    let copy = match spec.copy_mode {
        SocCopyMode::CpuDirect => CopyMode::CpuDirect,
        SocCopyMode::CpuViaMemory => CopyMode::CpuViaMemory { staging_base },
        SocCopyMode::Dma => CopyMode::Dma {
            dma_base,
            staging_base,
        },
    };
    let (program, preloads) = compile_with(
        &workload.graph,
        &bindings,
        &CompileOptions {
            poll_interval_cycles: spec.poll_interval_cycles,
            copy,
        },
    )
    .map_err(invalid)?;
    let total_staging: u64 = preloads.iter().map(|(_, d)| d.len() as u64).sum();
    if total_staging > spec.memory.size_words as u64 / 2 {
        return Err(invalid(format!(
            "staging data ({total_staging} words) does not fit the staging half of memory"
        )));
    }

    let (fold, tech_geom): (Vec<String>, Option<_>) = match &spec.mapping {
        Mapping::AllFixed => (vec![], None),
        Mapping::Drcf {
            candidates,
            technology,
            geometry,
            config_path,
            scheduler,
            overlap_load_exec,
        } => (
            candidates.clone(),
            Some((
                technology.clone(),
                *geometry,
                config_path.clone(),
                scheduler.clone(),
                *overlap_load_exec,
            )),
        ),
    };
    for c in &fold {
        if !workload.accels.iter().any(|a| &a.name == c) {
            return Err(invalid(format!(
                "candidate '{c}' is not a workload accelerator"
            )));
        }
    }

    let mut sim = Simulator::new();
    if let Some(cap) = spec.trace_capacity {
        sim.enable_observe(cap);
    }
    let cpu_id = 0;
    let bus_id = 1;
    let mem_id = 2;

    // Decode map.
    let mut map = AddressMap::new();
    map.add(
        spec.memory.base,
        spec.memory.base + spec.memory.size_words as u64 - 1,
        mem_id,
    )
    .map_err(invalid)?;
    let drcf_planned = if fold.is_empty() { None } else { Some(3usize) };
    let mut next_id = if drcf_planned.is_some() { 4 } else { 3 };
    // next_id walks past the standalone accelerators; the DMA (if any)
    // takes the id after them — reserve its decode entry at the end.
    let mut standalone_plan = Vec::new();
    for (a, b) in workload.accels.iter().zip(&bindings) {
        let high = b.base + 3 + a.window_words as u64 - 1;
        if fold.contains(&a.name) {
            // One decode entry per folded context: a non-contiguous fold
            // must not swallow the address holes between its members.
            // `fold` is non-empty here, so a DRCF is planned at id 3.
            map.add(b.base, high, drcf_planned.unwrap_or(3))
                .map_err(invalid)?;
        } else {
            map.add(b.base, high, next_id).map_err(invalid)?;
            standalone_plan.push((a.name.clone(), next_id));
            next_id += 1;
        }
    }
    // DMA registers (the DMA component is instantiated last, at next_id).
    if spec.copy_mode == SocCopyMode::Dma {
        map.add(dma_base, dma_base + 3, next_id).map_err(invalid)?;
    }

    // CPU.
    let got = sim.add("cpu", Cpu::new(spec.cpu.clone(), bus_id, program));
    debug_assert_eq!(got, cpu_id);
    let mut system_bus = Bus::new(spec.bus.clone(), map);
    if spec.coalesce_config_traffic
        && spec.memory.poison.is_empty()
        && matches!(
            &spec.mapping,
            Mapping::Drcf {
                config_path: SocConfigPath::SystemBus,
                ..
            }
        )
    {
        // Publishing the memory's deterministic service timing lets the bus
        // accept coalesced configuration trains; without it every offer is
        // rejected and the fabric stays on the per-burst path.
        system_bus.register_slave_timing(mem_id, spec.memory.slave_timing());
    }
    let got = sim.add("system_bus", system_bus);
    debug_assert_eq!(got, bus_id);
    let got = sim.add("memory", Memory::new(spec.memory.clone()));
    debug_assert_eq!(got, mem_id);

    // DRCF.
    let mut drcf_id = None;
    let mut context_params_out = Vec::new();
    let mut power_model = None;
    let mut fabric_clock = spec.accel_clock_mhz;
    let mut area = 0u64;
    if let Some((tech, geometry, config_path, scheduler, overlap)) = tech_geom {
        let folded: Vec<_> = workload
            .accels
            .iter()
            .zip(&bindings)
            .filter(|(a, _)| fold.contains(&a.name))
            .collect();
        let gate_counts: Vec<u64> = folded.iter().map(|(a, _)| a.kind.gate_count()).collect();
        let config_base = spec.memory.base + 0x100;
        let params = plan_contexts(geometry, &tech, &gate_counts, config_base)
            .map_err(|e| invalid(format!("context planning failed: {e}")))?;
        let total_config: u64 = params.iter().map(|p| p.config_size_words).sum();
        if 0x100 + total_config > spec.memory.size_words as u64 {
            return Err(invalid(format!(
                "configuration images ({total_config} words) do not fit the memory"
            )));
        }
        let contexts: Vec<Context> = folded
            .iter()
            .zip(&params)
            .map(|((a, b), p)| {
                Context::new(
                    Box::new(KernelAccelerator::new(
                        &a.name,
                        a.kind.clone(),
                        b.base,
                        a.window_words,
                    )),
                    p.clone(),
                )
            })
            .collect();
        let path = match config_path {
            SocConfigPath::SystemBus => ConfigPath::SystemBus {
                bus: bus_id,
                priority: 3,
                burst: 16,
            },
            SocConfigPath::DirectPort => ConfigPath::DirectPort { memory: mem_id },
            SocConfigPath::FixedRate { words_per_cycle } => ConfigPath::FixedRate {
                words_per_cycle,
                clock_mhz: tech.config_clock_mhz,
            },
        };
        let fabric = Drcf::try_new(
            DrcfConfig {
                clock_mhz: tech.fabric_clock_mhz,
                config_path: path,
                scheduler,
                overlap_load_exec: overlap,
                abort_load_of: spec.abort_load_of.clone(),
                coalesce_config_traffic: spec.coalesce_config_traffic,
            },
            contexts,
        )?;
        let id = sim.add("drcf", fabric);
        debug_assert_eq!(id, 3);
        drcf_id = Some(id);
        context_params_out = params;
        power_model = Some(tech.power);
        fabric_clock = tech.fabric_clock_mhz;
        area += geometry.total_gates;
    }

    // Standalone accelerators.
    let mut standalone = Vec::new();
    for (a, b) in workload.accels.iter().zip(&bindings) {
        if fold.contains(&a.name) {
            continue;
        }
        let id = sim.add(
            &a.name,
            SlaveAdapter::new(
                KernelAccelerator::new(&a.name, a.kind.clone(), b.base, a.window_words),
                spec.accel_clock_mhz,
            ),
        );
        standalone.push((a.name.clone(), id));
        area += a.kind.gate_count();
    }
    debug_assert_eq!(
        standalone.iter().map(|&(_, id)| id).collect::<Vec<_>>(),
        standalone_plan
            .iter()
            .map(|&(_, id)| id)
            .collect::<Vec<_>>()
    );

    // DMA controller (only when the copy mode uses it).
    if spec.copy_mode == SocCopyMode::Dma {
        let id = sim.add(
            "dma",
            drcf_bus::prelude::Dma::new(
                drcf_bus::prelude::DmaConfig {
                    base: dma_base,
                    max_burst: 16,
                    priority: 2,
                },
                bus_id,
            ),
        );
        debug_assert_eq!(id, next_id);
    }

    // Pre-load staging data.
    {
        let mem = sim.get_mut::<Memory>(mem_id);
        for (addr, data) in &preloads {
            mem.load(*addr, data);
        }
    }

    Ok(BuiltSoc {
        sim,
        cpu: cpu_id,
        bus: bus_id,
        memory: mem_id,
        drcf: drcf_id,
        standalone,
        bindings,
        area_gates: area,
        context_params: context_params_out,
        power_model,
        fabric_clock_mhz: fabric_clock,
        snapshot_at: spec.snapshot_at,
        snapshot: None,
    })
}

/// Rebuild the SoC for `workload` under `spec` and restore `snapshot` into
/// it, ready to resume with [`run_soc`].
///
/// The spec must describe the same system the snapshot was taken from
/// (restore validates component names, types, and per-component shape).
/// The rebuilt SoC's own `snapshot_at` is cleared so the resumed run goes
/// straight to completion.
pub fn restore_soc(
    workload: &Workload,
    spec: &SocSpec,
    snapshot: &Snapshot,
) -> SimResult<BuiltSoc> {
    let mut soc = build_fitting(workload, spec, snapshot)?;
    soc.sim.restore(snapshot)?;
    Ok(soc)
}

/// [`restore_soc`] for a checkpoint chain: rebuild the SoC, check it fits
/// the chain's base document, and replay the chain into it
/// ([`SnapshotChain::restore_into`], whose verified capture of the chain's
/// tip is returned alongside).
pub fn restore_soc_chain(
    workload: &Workload,
    spec: &SocSpec,
    chain: &SnapshotChain,
) -> SimResult<(BuiltSoc, Option<Snapshot>)> {
    let Some(ChainDoc::Full(base)) = chain.docs().first() else {
        return Err(SimError::new(
            SimErrorKind::SnapshotChain,
            "snapshot chain does not start with a full document",
        ));
    };
    let mut soc = build_fitting(workload, spec, base)?;
    let tip = chain.restore_into(&mut soc.sim)?;
    Ok((soc, tip))
}

/// Build the SoC and check its roster against `snapshot` before any state
/// lands in it, so a mismatched spec names everything that differs.
fn build_fitting(workload: &Workload, spec: &SocSpec, snapshot: &Snapshot) -> SimResult<BuiltSoc> {
    let mut soc = build_soc(workload, spec)?;
    if let Some(diff) = soc.sim.roster_mismatch(snapshot) {
        return Err(SimError::new(
            SimErrorKind::Validation,
            format!(
                "snapshot does not fit the SoC this spec builds — \
                 the workload/spec must match the run that captured it: {diff}"
            ),
        ));
    }
    soc.snapshot_at = None;
    Ok(soc)
}

/// Content fingerprint of a `(workload, spec)` pair — the cache key the
/// snapshot-store layer (`drcf-serve`) files prefix snapshots and sweep
/// records under, so identical scenarios hash identically across
/// processes and clients.
///
/// FNV-1a 64 over the canonical `Debug` rendering of both values: cheap,
/// covers every field, and adding a field changes the key (the safe
/// direction — a stale entry is missed, never wrongly hit). Correctness
/// never rests on this key alone: a store entry is additionally validated
/// against its recorded `state_hash` and [`restore_soc`]'s roster check
/// before anything is restored from it.
pub fn scenario_fingerprint(workload: &Workload, spec: &SocSpec) -> u64 {
    let mut h = Fnv1a::new();
    h.update(format!("{workload:?}").as_bytes());
    h.update(&[0xff]); // unambiguous separator: Debug output never emits 0xff
    h.update(format!("{spec:?}").as_bytes());
    h.finish()
}

/// Run the shared prefix of a sweep exactly once: build the SoC, run it to
/// `at`, and return the snapshot. The tail of the run is discarded — warm
/// forks ([`restore_soc`]) resume it per sweep point.
pub fn snapshot_prefix(
    workload: &Workload,
    spec: &SocSpec,
    at: SimDuration,
) -> SimResult<Snapshot> {
    let mut soc = build_soc(workload, spec)?;
    soc.sim.run_until(SimTime::ZERO + at)?;
    soc.sim.snapshot()
}

/// Run a built SoC to completion and extract the metric record.
///
/// When the SoC was built with [`SocSpec::snapshot_at`], the run pauses at
/// that offset, captures a deterministic snapshot into
/// [`BuiltSoc::snapshot`], and then resumes to completion — the metrics are
/// bit-identical to a straight run.
pub fn run_soc(mut soc: BuiltSoc) -> (RunMetrics, BuiltSoc) {
    let m = run_soc_mut(&mut soc);
    (m, soc)
}

/// By-reference variant of [`run_soc`]: run the SoC to completion in place
/// and return the metric record, leaving the (now finished) SoC usable —
/// warm-fork sweeps keep one live SoC per worker and
/// [`drcf_kernel::kernel::Simulator::rewind`] it back to the fork point
/// between evaluations instead of rebuilding.
pub fn run_soc_mut(soc: &mut BuiltSoc) -> RunMetrics {
    let reason = match soc.snapshot_at {
        Some(at) => soc.sim.run_until(SimTime::ZERO + at).and_then(|_| {
            soc.snapshot = Some(soc.sim.snapshot()?);
            soc.sim.run()
        }),
        None => soc.sim.run(),
    };
    let now = soc.sim.now();
    let mut m = RunMetrics {
        ok: reason == Ok(StopReason::Quiescent),
        error: reason.err().map(|e| e.to_string()),
        area_gates: soc.area_gates,
        ..RunMetrics::default()
    };
    {
        let cpu = soc.sim.get::<Cpu>(soc.cpu);
        m.makespan = cpu.finished_at.unwrap_or(now).since(SimTime::ZERO);
        m.errors = cpu.port.errors;
    }
    {
        let names: Vec<String> = (0..soc.sim.component_count())
            .map(|id| soc.sim.component_name(id).to_string())
            .collect();
        let bus = soc.sim.get::<Bus>(soc.bus);
        m.bus_utilization = bus.stats.utilization(now);
        m.bus_words = bus.stats.words;
        m.bus_contention = bus.stats.contention(|id| {
            names
                .get(id)
                .cloned()
                .unwrap_or_else(|| format!("comp{id}"))
        });
    }
    if let Some(d) = soc.drcf {
        let f = soc.sim.get::<Drcf>(d);
        let names: Vec<&str> = (0..f.context_count()).map(|c| f.context_name(c)).collect();
        m.timeline = ReconfigTimeline::from_stats(&f.stats, &names);
        m.switches = f.stats.switches;
        m.config_words = f.stats.config_words;
        m.reconfig_overhead = f.stats.reconfig_overhead(now);
        m.hit_rate = f.stats.hit_rate();
        if let Some(pm) = &soc.power_model {
            m.fabric_energy_mj =
                energy_of_run(&f.stats, &soc.context_params, pm, soc.fabric_clock_mhz, now)
                    .total_mj();
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{multi_standard, wireless_receiver};

    fn drcf_mapping(candidates: Vec<String>) -> Mapping {
        // Fabric sized to the largest folded kernel (Viterbi, 22K gates):
        // that is the whole point of sharing one reconfigurable block.
        Mapping::Drcf {
            candidates,
            technology: morphosys(),
            geometry: FabricGeometry::new(24_000, 1),
            config_path: SocConfigPath::SystemBus,
            scheduler: SchedulerConfig::default(),
            overlap_load_exec: false,
        }
    }

    #[test]
    fn fixed_architecture_runs_wireless_workload() {
        let w = wireless_receiver(2, 32);
        let soc = build_soc(&w, &SocSpec::default()).unwrap();
        assert!(soc.drcf.is_none());
        assert_eq!(soc.standalone.len(), 3);
        let (m, _) = run_soc(soc);
        assert!(m.ok, "{m:?}");
        assert!(m.makespan > SimDuration::ZERO);
        assert_eq!(m.switches, 0);
        assert_eq!(m.errors, 0);
        assert!(m.bus_utilization > 0.0);
    }

    #[test]
    fn drcf_architecture_runs_and_reconfigures() {
        let w = wireless_receiver(2, 32);
        let spec = SocSpec {
            mapping: drcf_mapping(vec!["fir".into(), "fft".into(), "viterbi".into()]),
            ..SocSpec::default()
        };
        let soc = build_soc(&w, &spec).unwrap();
        assert!(soc.drcf.is_some());
        assert!(soc.standalone.is_empty());
        let (m, _) = run_soc(soc);
        assert!(m.ok, "{m:?}");
        assert!(m.switches >= 3, "each kernel loads at least once");
        assert!(m.config_words > 0);
        assert!(m.reconfig_overhead > 0.0);
        assert_eq!(m.errors, 0);
        assert!(m.fabric_energy_mj > 0.0);
    }

    #[test]
    fn drcf_saves_area_but_costs_time() {
        let w = wireless_receiver(2, 32);
        let fixed = run_soc(build_soc(&w, &SocSpec::default()).unwrap()).0;
        let spec = SocSpec {
            mapping: drcf_mapping(vec!["fir".into(), "fft".into(), "viterbi".into()]),
            ..SocSpec::default()
        };
        let folded = run_soc(build_soc(&w, &spec).unwrap()).0;
        assert!(folded.area_gates < fixed.area_gates, "area win");
        assert!(folded.makespan > fixed.makespan, "time-multiplexing cost");
    }

    #[test]
    fn partial_fold_keeps_other_accelerators_standalone() {
        let w = wireless_receiver(1, 32);
        let spec = SocSpec {
            mapping: drcf_mapping(vec!["fir".into(), "fft".into()]),
            ..SocSpec::default()
        };
        let soc = build_soc(&w, &spec).unwrap();
        assert_eq!(soc.standalone.len(), 1);
        assert_eq!(soc.standalone[0].0, "viterbi");
        let (m, _) = run_soc(soc);
        assert!(m.ok);
    }

    #[test]
    fn functional_results_identical_across_mappings() {
        let w = multi_standard(4, 32, 1);
        let read_log = |mapping: Mapping| {
            let spec = SocSpec {
                mapping,
                ..SocSpec::default()
            };
            let soc = build_soc(&w, &spec).unwrap();
            let (m, soc) = run_soc(soc);
            assert!(m.ok);
            soc.sim.get::<Cpu>(0).read_log.clone()
        };
        let fixed = read_log(Mapping::AllFixed);
        let folded = read_log(drcf_mapping(vec![
            "std_a_fir".into(),
            "std_a_fft".into(),
            "std_b_dct".into(),
            "std_b_aes".into(),
        ]));
        assert_eq!(fixed, folded, "bus-visible data must match");
    }

    #[test]
    fn copy_modes_agree_on_readback_data() {
        // The three data-movement strategies must produce identical
        // accelerator results (reads of the accelerator window).
        let w = wireless_receiver(2, 32);
        let window_reads = |mode: SocCopyMode| {
            let spec = SocSpec {
                copy_mode: mode,
                ..SocSpec::default()
            };
            let soc = build_soc(&w, &spec).unwrap();
            let (m, soc) = run_soc(soc);
            assert!(m.ok, "{mode:?}: {m:?}");
            assert_eq!(m.errors, 0, "{mode:?}");
            // Keep only reads of accelerator windows (>= first binding
            // base), excluding staging reads from memory.
            let first_accel = soc.bindings.iter().map(|b| b.base).min().unwrap();
            soc.sim
                .get::<Cpu>(0)
                .read_log
                .iter()
                .filter(|(addr, _)| *addr >= first_accel)
                .map(|(_, d)| d.clone())
                .collect::<Vec<_>>()
        };
        let direct = window_reads(SocCopyMode::CpuDirect);
        let via_mem = window_reads(SocCopyMode::CpuViaMemory);
        let dma = window_reads(SocCopyMode::Dma);
        assert_eq!(direct, via_mem);
        assert_eq!(direct, dma);
    }

    #[test]
    fn dma_mode_actually_uses_the_dma() {
        let w = wireless_receiver(2, 64);
        let spec = SocSpec {
            copy_mode: SocCopyMode::Dma,
            ..SocSpec::default()
        };
        let soc = build_soc(&w, &spec).unwrap();
        let dma_id = soc.sim.component_count() - 1;
        let (m, soc) = run_soc(soc);
        assert!(m.ok);
        let dma = soc.sim.get::<drcf_bus::prelude::Dma>(dma_id);
        assert_eq!(dma.transfers, 6, "one transfer per hardware task");
        assert_eq!(dma.words_moved, 2 * (64 + 64 + 32), "full windows moved");
    }

    #[test]
    fn dma_offload_beats_cpu_relay() {
        // With inputs resident in memory, DMA streaming needs fewer CPU
        // instructions and bus turnarounds than the CPU relay.
        let w = wireless_receiver(3, 64);
        let t = |mode: SocCopyMode| {
            let spec = SocSpec {
                copy_mode: mode,
                ..SocSpec::default()
            };
            let (m, _) = run_soc(build_soc(&w, &spec).unwrap());
            assert!(m.ok);
            m.makespan
        };
        assert!(t(SocCopyMode::Dma) < t(SocCopyMode::CpuViaMemory));
    }

    #[test]
    fn trace_capacity_records_events_and_metrics_carry_reports() {
        let w = wireless_receiver(2, 32);
        let spec = SocSpec {
            mapping: drcf_mapping(vec!["fir".into(), "fft".into(), "viterbi".into()]),
            trace_capacity: Some(1 << 16),
            ..SocSpec::default()
        };
        let soc = build_soc(&w, &spec).unwrap();
        assert!(soc.sim.recorder().is_enabled());
        let (m, soc) = run_soc(soc);
        assert!(m.ok, "{m:?}");
        let events = soc.sim.observe_events();
        assert!(!events.is_empty(), "tracing recorded events");
        // Spans came from all three instrumented layers.
        for cat in [
            TraceCategory::Cpu,
            TraceCategory::Bus,
            TraceCategory::Fabric,
        ] {
            assert!(
                events.iter().any(|e| e.cat == cat),
                "no events in category {cat:?}"
            );
        }
        // The §5.3 timeline rode along on the metrics.
        assert_eq!(m.timeline.rows.len(), 3);
        assert_eq!(m.timeline.switches, m.switches);
        assert!(m.timeline.contexts_loaded >= 3);
        assert!(m.timeline.total_reconfig > SimDuration::ZERO);
        // So did the contention report, with resolved master names.
        assert!(!m.bus_contention.is_empty());
        assert!(
            m.bus_contention.rows.iter().any(|r| r.master == "cpu"),
            "{:?}",
            m.bus_contention.rows
        );
    }

    #[test]
    fn tracing_off_by_default() {
        let w = wireless_receiver(1, 16);
        let soc = build_soc(&w, &SocSpec::default()).unwrap();
        assert!(!soc.sim.recorder().is_enabled());
        let (m, soc) = run_soc(soc);
        assert!(m.ok);
        assert!(soc.sim.observe_events().is_empty());
        assert!(m.timeline.rows.is_empty(), "no fabric, no timeline");
    }

    #[test]
    fn snapshot_mid_run_resumes_bit_identical() {
        let w = wireless_receiver(2, 32);
        let spec = SocSpec {
            mapping: drcf_mapping(vec!["fir".into(), "fft".into(), "viterbi".into()]),
            ..SocSpec::default()
        };
        let (straight, straight_soc) = run_soc(build_soc(&w, &spec).unwrap());
        assert!(straight.ok, "{straight:?}");
        // Pause halfway through the straight makespan — inside the
        // context-switch traffic — and capture a snapshot on the way.
        let at = SimDuration::fs(straight.makespan.as_fs() / 2);
        let snap_spec = SocSpec {
            snapshot_at: Some(at),
            ..spec.clone()
        };
        let (paused, paused_soc) = run_soc(build_soc(&w, &snap_spec).unwrap());
        assert!(paused.ok, "{paused:?}");
        // Pausing to snapshot must not perturb any run observable.
        assert_eq!(paused.makespan, straight.makespan);
        assert_eq!(paused.bus_words, straight.bus_words);
        assert_eq!(paused.switches, straight.switches);
        assert_eq!(paused.config_words, straight.config_words);
        // Resume from the snapshot through the serialized text form.
        let text = paused_soc.snapshot.expect("snapshot captured").to_text();
        let snap = Snapshot::parse(&text).unwrap();
        let (m, resumed_soc) = run_soc(restore_soc(&w, &spec, &snap).unwrap());
        assert!(m.ok, "{m:?}");
        assert_eq!(m.makespan, straight.makespan);
        assert_eq!(m.bus_words, straight.bus_words);
        assert_eq!(m.switches, straight.switches);
        assert_eq!(m.config_words, straight.config_words);
        assert_eq!(
            resumed_soc.sim.get::<Cpu>(0).read_log,
            straight_soc.sim.get::<Cpu>(0).read_log,
            "bus-visible data must match after resume"
        );
        assert_eq!(
            resumed_soc.sim.get::<Drcf>(3).stats,
            straight_soc.sim.get::<Drcf>(3).stats,
            "fabric statistics must match after resume"
        );
    }

    #[test]
    fn restore_rejects_mismatched_spec() {
        let w = wireless_receiver(1, 16);
        let spec = SocSpec {
            snapshot_at: Some(SimDuration::us(1)),
            ..SocSpec::default()
        };
        let (m, soc) = run_soc(build_soc(&w, &spec).unwrap());
        assert!(m.ok);
        let snap = soc.snapshot.expect("snapshot captured");
        // A spec with a different copy mode builds a different component
        // roster; restore must refuse it rather than resume nonsense.
        let other = SocSpec {
            copy_mode: SocCopyMode::Dma,
            snapshot_at: None,
            ..SocSpec::default()
        };
        assert!(restore_soc(&w, &other, &snap).is_err());
    }

    #[test]
    fn unknown_candidate_rejected() {
        let w = wireless_receiver(1, 32);
        let spec = SocSpec {
            mapping: drcf_mapping(vec!["ghost".into()]),
            ..SocSpec::default()
        };
        let Err(err) = build_soc(&w, &spec) else {
            unreachable!("expected build failure")
        };
        assert_eq!(err.kind, SimErrorKind::Validation);
        assert!(err.message.contains("ghost"), "{}", err.message);
    }
}
