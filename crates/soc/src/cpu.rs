//! Abstract processor model.
//!
//! The CPU executes a linear program of timed computation, bus accesses and
//! status polling — the "software functionality" boxes of the paper's
//! Fig. 1 architectures. It is deliberately instruction-set-agnostic: the
//! system-level flow only needs the bus traffic and timing software
//! generates, not its semantics.

use drcf_bus::prelude::*;
use drcf_bus::snapshot::{time_json, time_of, words_json, words_of};
use drcf_kernel::json::{ju64, Json};
use drcf_kernel::prelude::*;
use drcf_kernel::snapshot::{self as snap, Snapshotable};

/// One CPU program step.
#[derive(Debug, Clone)]
pub enum Instr {
    /// Busy-compute locally for the given number of CPU cycles.
    Compute(u64),
    /// Burst-read `burst` words from `addr`; data lands in the read log.
    Read {
        /// Start address.
        addr: Addr,
        /// Words.
        burst: usize,
    },
    /// Burst-write literal data to `addr`.
    Write {
        /// Start address.
        addr: Addr,
        /// Payload.
        data: Vec<Word>,
    },
    /// Read `addr` until it equals `expect`, waiting `interval_cycles`
    /// between attempts (device status polling).
    Poll {
        /// Polled address.
        addr: Addr,
        /// Value that terminates the poll.
        expect: Word,
        /// CPU cycles between polls.
        interval_cycles: u64,
    },
    /// Sleep until a DMA completion notification ([`DmaDone`]) arrives —
    /// interrupt-style synchronization with an offloaded transfer started
    /// by writing `ctrl::START_IRQ` to the DMA's CTRL register.
    WaitDmaIrq,
}

/// CPU parameters.
#[derive(Debug, Clone)]
pub struct CpuConfig {
    /// Core clock, MHz.
    pub clock_mhz: u64,
    /// Bus priority of CPU transactions.
    pub priority: u8,
    /// Fixed issue cost per program step, CPU cycles (fetch/decode/loop
    /// overhead).
    pub issue_cycles: u64,
    /// Additional CPU cycles per word marshalled by `Read`/`Write` steps
    /// (load + store + pointer increment + loop branch of software data
    /// movement — the cost DMA offload removes).
    pub marshal_cycles_per_word: u64,
}

impl Default for CpuConfig {
    fn default() -> Self {
        CpuConfig {
            clock_mhz: 300, // the paper's PowerPC 405 runs at 300+ MHz
            priority: 1,
            issue_cycles: 2,
            marshal_cycles_per_word: 4,
        }
    }
}

/// Execution statistics of one CPU.
#[derive(Debug, Clone, Default)]
pub struct CpuStats {
    /// Instructions retired.
    pub retired: u64,
    /// Time spent in `Compute` steps.
    pub compute_time: SimDuration,
    /// Poll attempts issued.
    pub polls: u64,
}

const TAG_COMPUTE_DONE: u64 = 1;
const TAG_POLL_AGAIN: u64 = 2;
const TAG_ISSUE_DONE: u64 = 3;

enum CpuState {
    Ready,
    /// Paying the issue/marshalling cost of the instruction at `pc`.
    Issuing,
    Computing,
    WaitingBus,
    Polling {
        addr: Addr,
        expect: Word,
        interval_cycles: u64,
    },
    /// Sleeping until a DMA completion message arrives.
    WaitingIrq,
    Finished,
}

/// The processor component.
pub struct Cpu {
    cfg: CpuConfig,
    /// Master port to the system bus.
    pub port: MasterPort,
    program: Vec<Instr>,
    pc: usize,
    state: CpuState,
    /// Data returned by `Read` steps, in program order.
    pub read_log: Vec<(Addr, Vec<Word>)>,
    /// When the program finished.
    pub finished_at: Option<SimTime>,
    /// DMA completion notifications received before the matching
    /// `WaitDmaIrq` executed.
    pending_irqs: u32,
    /// Statistics.
    pub stats: CpuStats,
}

impl Cpu {
    /// New CPU mastering `bus`, running `program`.
    pub fn new(cfg: CpuConfig, bus: ComponentId, program: Vec<Instr>) -> Self {
        let priority = cfg.priority;
        Cpu {
            cfg,
            port: MasterPort::new(bus, priority),
            program,
            pc: 0,
            state: CpuState::Ready,
            read_log: Vec::new(),
            finished_at: None,
            pending_irqs: 0,
            stats: CpuStats::default(),
        }
    }

    /// True once the whole program has retired.
    pub fn is_finished(&self) -> bool {
        matches!(self.state, CpuState::Finished)
    }

    /// Current core clock, MHz.
    pub fn clock_mhz(&self) -> u64 {
        self.cfg.clock_mhz
    }

    /// Retune the core clock on a *live* CPU: every cycle count converted
    /// to time from here on uses the new frequency. This is the what-if
    /// knob sweep services vary per warm fork without rebuilding the SoC —
    /// the clock is static configuration, not snapshot state, so a rewind
    /// leaves it alone and each fork must set it explicitly.
    pub fn set_clock_mhz(&mut self, mhz: u64) {
        self.cfg.clock_mhz = mhz.max(1);
    }

    fn cycles(&self, c: u64) -> SimDuration {
        SimDuration::cycles_at_mhz(c, self.cfg.clock_mhz)
    }

    fn step(&mut self, api: &mut Api<'_>) {
        api.trace_counter(TraceCategory::Cpu, "retired", self.stats.retired);
        let Some(instr) = self.program.get(self.pc) else {
            self.state = CpuState::Finished;
            self.finished_at = Some(api.now());
            api.obligation_end();
            return;
        };
        // Issue cost: fixed dispatch plus per-word marshalling for bus
        // data movement.
        let words = match instr {
            Instr::Read { burst, .. } => *burst as u64,
            Instr::Write { data, .. } => data.len() as u64,
            _ => 0,
        };
        let cost = self.cfg.issue_cycles + self.cfg.marshal_cycles_per_word * words;
        if cost > 0 {
            self.state = CpuState::Issuing;
            let d = self.cycles(cost);
            api.timer_in(d, TAG_ISSUE_DONE);
            return;
        }
        self.exec_current(api);
    }

    fn exec_current(&mut self, api: &mut Api<'_>) {
        let Some(instr) = self.program.get(self.pc) else {
            unreachable!("exec_current beyond program end");
        };
        match instr.clone() {
            Instr::Compute(cycles) => {
                self.pc += 1;
                self.stats.retired += 1;
                let d = self.cycles(cycles);
                self.stats.compute_time += d;
                self.state = CpuState::Computing;
                api.trace_begin(TraceCategory::Cpu, "compute", cycles);
                api.timer_in(d, TAG_COMPUTE_DONE);
            }
            Instr::Read { addr, burst } => {
                self.pc += 1;
                self.stats.retired += 1;
                self.state = CpuState::WaitingBus;
                api.trace_begin(TraceCategory::Cpu, "bus_access", addr);
                self.port.read(api, addr, burst);
            }
            Instr::Write { addr, data } => {
                self.pc += 1;
                self.stats.retired += 1;
                self.state = CpuState::WaitingBus;
                api.trace_begin(TraceCategory::Cpu, "bus_access", addr);
                self.port.write(api, addr, data);
            }
            Instr::Poll {
                addr,
                expect,
                interval_cycles,
            } => {
                // Retired when it completes, not per attempt.
                self.state = CpuState::Polling {
                    addr,
                    expect,
                    interval_cycles,
                };
                self.stats.polls += 1;
                api.trace_instant(TraceCategory::Cpu, "poll", addr);
                self.port.read(api, addr, 1);
            }
            Instr::WaitDmaIrq => {
                if self.pending_irqs > 0 {
                    self.pending_irqs -= 1;
                    self.pc += 1;
                    self.stats.retired += 1;
                    self.state = CpuState::Ready;
                    self.step(api);
                } else {
                    self.state = CpuState::WaitingIrq;
                }
            }
        }
    }

    fn on_response(&mut self, api: &mut Api<'_>, resp: BusResponse) {
        match &self.state {
            CpuState::WaitingBus => {
                api.trace_end(TraceCategory::Cpu, "bus_access", resp.addr);
                if !resp.is_ok() {
                    api.raise(
                        SimErrorKind::BusError,
                        format!(
                            "CPU transaction failed at {:#x}: {:?}",
                            resp.addr, resp.status
                        ),
                    );
                }
                if resp.op == BusOp::Read {
                    self.read_log.push((resp.addr, resp.data));
                }
                self.state = CpuState::Ready;
                self.step(api);
            }
            CpuState::Polling { expect, .. } => {
                let done = resp.is_ok() && resp.data.first() == Some(expect);
                if done {
                    self.pc += 1;
                    self.stats.retired += 1;
                    self.state = CpuState::Ready;
                    self.step(api);
                } else if !resp.is_ok() {
                    // An error response is a fault, not "not ready yet":
                    // retrying would poll a dead device forever and hang
                    // the simulation. Halt the program instead; the typed
                    // error makes the run fail while the rest of the
                    // system drains.
                    api.raise(
                        SimErrorKind::BusError,
                        format!(
                            "CPU poll at {:#x} failed ({:?}); halting program",
                            resp.addr, resp.status
                        ),
                    );
                    self.state = CpuState::Finished;
                    api.obligation_end();
                } else {
                    let CpuState::Polling {
                        interval_cycles, ..
                    } = self.state
                    else {
                        unreachable!()
                    };
                    let d = self.cycles(interval_cycles.max(1));
                    api.timer_in(d, TAG_POLL_AGAIN);
                }
            }
            _ => {}
        }
    }
}

impl Cpu {
    fn state_json(&self) -> Json {
        match &self.state {
            CpuState::Ready => Json::obj().with("kind", "ready".into()),
            CpuState::Issuing => Json::obj().with("kind", "issuing".into()),
            CpuState::Computing => Json::obj().with("kind", "computing".into()),
            CpuState::WaitingBus => Json::obj().with("kind", "waiting_bus".into()),
            CpuState::Polling {
                addr,
                expect,
                interval_cycles,
            } => Json::obj()
                .with("kind", "polling".into())
                .with("addr", ju64(*addr))
                .with("expect", ju64(*expect))
                .with("interval_cycles", ju64(*interval_cycles)),
            CpuState::WaitingIrq => Json::obj().with("kind", "waiting_irq".into()),
            CpuState::Finished => Json::obj().with("kind", "finished".into()),
        }
    }

    fn restore_cpu_state(&mut self, state: &Json) -> SimResult<()> {
        let j = snap::field(state, "state")?;
        self.state = match snap::str_field(j, "kind")? {
            "ready" => CpuState::Ready,
            "issuing" => CpuState::Issuing,
            "computing" => CpuState::Computing,
            "waiting_bus" => CpuState::WaitingBus,
            "polling" => CpuState::Polling {
                addr: snap::u64_field(j, "addr")?,
                expect: snap::u64_field(j, "expect")?,
                interval_cycles: snap::u64_field(j, "interval_cycles")?,
            },
            "waiting_irq" => CpuState::WaitingIrq,
            "finished" => CpuState::Finished,
            other => return Err(snap::err(format!("unknown CPU state `{other}`"))),
        };
        Ok(())
    }

    fn read_log_entry(e: &Json) -> SimResult<(Addr, Vec<Word>)> {
        let pair = e
            .as_arr()
            .filter(|p| p.len() == 2)
            .ok_or_else(|| snap::err("malformed read-log entry"))?;
        let addr = drcf_kernel::json::ju64_of(&pair[0])
            .ok_or_else(|| snap::err("read-log address is not a u64"))?;
        let data = words_of(&pair[1]).ok_or_else(|| snap::err("malformed read-log data"))?;
        Ok((addr, data))
    }

    /// Everything but the read log — shared by [`Component::restore`] and
    /// [`Component::restore_live`].
    fn restore_frame(&mut self, state: &Json) -> SimResult<()> {
        self.port.restore_json(snap::field(state, "port")?)?;
        self.pc = snap::usize_field(state, "pc")?;
        self.restore_cpu_state(state)?;
        self.finished_at = match snap::field(state, "finished_at")? {
            Json::Null => None,
            j => Some(time_of(j).ok_or_else(|| snap::err("bad finish time"))?),
        };
        self.pending_irqs = u32::try_from(snap::u64_field(state, "pending_irqs")?)
            .map_err(|_| snap::err("pending_irqs out of range"))?;
        self.stats.retired = snap::u64_field(state, "retired")?;
        self.stats.compute_time = SimDuration::fs(snap::u64_field(state, "compute_time")?);
        self.stats.polls = snap::u64_field(state, "polls")?;
        Ok(())
    }
}

impl Component for Cpu {
    fn decoders(&self) -> &'static [drcf_kernel::snapshot::Decoder] {
        drcf_bus::snapshot::BUS_DECODERS
    }

    fn snapshot(&mut self) -> SimResult<Json> {
        Ok(Json::obj()
            .with("port", self.port.snapshot_json())
            .with("pc", ju64(self.pc as u64))
            .with("state", self.state_json())
            .with(
                "read_log",
                Json::Arr(
                    self.read_log
                        .iter()
                        .map(|(addr, data)| Json::Arr(vec![ju64(*addr), words_json(data)]))
                        .collect(),
                ),
            )
            .with(
                "finished_at",
                self.finished_at.map_or(Json::Null, time_json),
            )
            .with("pending_irqs", ju64(self.pending_irqs as u64))
            .with("retired", ju64(self.stats.retired))
            .with("compute_time", ju64(self.stats.compute_time.as_fs()))
            .with("polls", ju64(self.stats.polls)))
    }

    fn restore(&mut self, state: &Json) -> SimResult<()> {
        self.restore_frame(state)?;
        self.read_log.clear();
        for e in snap::arr_field(state, "read_log")? {
            self.read_log.push(Self::read_log_entry(e)?);
        }
        Ok(())
    }

    fn restore_live(&mut self, state: &Json) -> SimResult<()> {
        self.restore_frame(state)?;
        // The read log is grow-only along a run, and a live restore's
        // document lies on the same timeline as the live state (lineage
        // contract), so the shared prefix is already in place: truncate to
        // an ancestor's length, or parse only a descendant's new suffix —
        // O(difference) instead of O(log length).
        let log = snap::arr_field(state, "read_log")?;
        if log.len() <= self.read_log.len() {
            self.read_log.truncate(log.len());
        } else {
            for e in &log[self.read_log.len()..] {
                self.read_log.push(Self::read_log_entry(e)?);
            }
        }
        Ok(())
    }

    fn handle(&mut self, api: &mut Api<'_>, msg: Msg) {
        match msg.kind {
            MsgKind::Start => {
                api.obligation_begin();
                self.step(api);
            }
            MsgKind::Timer(TAG_COMPUTE_DONE) => {
                api.trace_end(TraceCategory::Cpu, "compute", 0);
                self.state = CpuState::Ready;
                self.step(api);
            }
            MsgKind::Timer(TAG_ISSUE_DONE) => {
                debug_assert!(matches!(self.state, CpuState::Issuing));
                self.exec_current(api);
            }
            MsgKind::Timer(TAG_POLL_AGAIN) => {
                if let CpuState::Polling { addr, .. } = self.state {
                    self.stats.polls += 1;
                    api.trace_instant(TraceCategory::Cpu, "poll", addr);
                    self.port.read(api, addr, 1);
                }
            }
            _ => {
                let msg = match self.port.take_response(api, msg) {
                    Ok(resp) => {
                        self.on_response(api, resp);
                        return;
                    }
                    Err(m) => m,
                };
                if msg.user_ref::<DmaDone>().is_some() {
                    if matches!(self.state, CpuState::WaitingIrq) {
                        self.pc += 1;
                        self.stats.retired += 1;
                        self.state = CpuState::Ready;
                        self.step(api);
                    } else {
                        self.pending_irqs += 1;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drcf_bus::bus::{Bus, BusConfig};
    use drcf_bus::map::AddressMap;
    use drcf_bus::memory::{Memory, MemoryConfig};

    fn system(program: Vec<Instr>) -> (Simulator, ComponentId) {
        let mut sim = Simulator::new();
        let mut map = AddressMap::new();
        map.add(0x0, 0xFFF, 2).unwrap();
        let cpu = sim.add("cpu", Cpu::new(CpuConfig::default(), 1, program));
        sim.add("bus", Bus::new(BusConfig::default(), map));
        sim.add(
            "mem",
            Memory::new(MemoryConfig {
                size_words: 0x1000,
                ..MemoryConfig::default()
            }),
        );
        (sim, cpu)
    }

    #[test]
    fn program_runs_to_completion() {
        let (mut sim, cpu) = system(vec![
            Instr::Compute(100),
            Instr::Write {
                addr: 0x10,
                data: vec![1, 2, 3],
            },
            Instr::Read {
                addr: 0x10,
                burst: 3,
            },
        ]);
        assert_eq!(sim.run(), Ok(StopReason::Quiescent));
        let c = sim.get::<Cpu>(cpu);
        assert!(c.is_finished());
        assert_eq!(c.stats.retired, 3);
        assert_eq!(c.read_log.len(), 1);
        assert_eq!(c.read_log[0].1, vec![1, 2, 3]);
        assert!(c.finished_at.is_some());
        // 100 cycles at 300 MHz = 333.33 ns of compute.
        assert_eq!(c.stats.compute_time, SimDuration::cycles_at_mhz(100, 300));
    }

    #[test]
    fn poll_waits_for_value() {
        // Poll a location that a second master (here: preloaded memory)
        // already satisfies vs one that is satisfied later. We preload and
        // poll — single attempt.
        let (mut sim, cpu) = system(vec![
            Instr::Write {
                addr: 0x20,
                data: vec![7],
            },
            Instr::Poll {
                addr: 0x20,
                expect: 7,
                interval_cycles: 10,
            },
        ]);
        assert_eq!(sim.run(), Ok(StopReason::Quiescent));
        let c = sim.get::<Cpu>(cpu);
        assert!(c.is_finished());
        assert_eq!(c.stats.polls, 1);
    }

    #[test]
    fn poll_on_error_response_halts_instead_of_hanging() {
        // Polling an unmapped address gets a decode error back: the CPU
        // must abandon the poll (a dead device never becomes ready) and
        // the run must fail with a typed bus error.
        let (mut sim, cpu) = system(vec![Instr::Poll {
            addr: 0xDEAD_0000,
            expect: 1,
            interval_cycles: 10,
        }]);
        let err = sim.run().expect_err("failed poll must fail the run");
        assert_eq!(err.kind, SimErrorKind::BusError, "{err}");
        assert!(err.to_string().contains("halting program"), "{err}");
        let c = sim.get::<Cpu>(cpu);
        assert_eq!(c.stats.polls, 1, "no retries against a dead device");
        assert!(c.finished_at.is_none(), "the program did not complete");
    }

    #[test]
    fn poll_retries_until_satisfied() {
        // A helper component flips the flag after 2us.
        let mut sim = Simulator::new();
        let mut map = AddressMap::new();
        map.add(0x0, 0xFFF, 2).unwrap();
        let cpu = sim.add(
            "cpu",
            Cpu::new(
                CpuConfig::default(),
                1,
                vec![Instr::Poll {
                    addr: 0x30,
                    expect: 1,
                    interval_cycles: 50,
                }],
            ),
        );
        sim.add("bus", Bus::new(BusConfig::default(), map));
        sim.add(
            "mem",
            Memory::new(MemoryConfig {
                size_words: 0x1000,
                ..MemoryConfig::default()
            }),
        );
        sim.add(
            "flipper",
            FnComponent::new(|api, msg| match msg.kind {
                MsgKind::Start => {
                    api.obligation_begin();
                    api.timer_in(SimDuration::us(2), 0);
                }
                MsgKind::Timer(_) => {
                    // Write directly into the memory via a one-off port.
                    let mut port = MasterPort::new(1, 5);
                    port.write(api, 0x30, vec![1]);
                    // This throwaway port leaks its obligation bookkeeping,
                    // so balance it manually.
                    api.obligation_end(); // for the port's own begin
                    api.obligation_end(); // for ours at Start
                }
                _ => {}
            }),
        );
        assert_eq!(sim.run(), Ok(StopReason::Quiescent));
        let c = sim.get::<Cpu>(cpu);
        assert!(c.is_finished());
        assert!(c.stats.polls > 5, "polled {} times", c.stats.polls);
        assert!(c.finished_at.unwrap() >= SimTime::ZERO + SimDuration::us(2));
    }

    #[test]
    fn empty_program_finishes_immediately() {
        let (mut sim, cpu) = system(vec![]);
        assert_eq!(sim.run(), Ok(StopReason::Quiescent));
        assert!(sim.get::<Cpu>(cpu).is_finished());
        assert_eq!(sim.get::<Cpu>(cpu).stats.retired, 0);
    }
}
