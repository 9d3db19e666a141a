//! DMA controller.
//!
//! Moves blocks of words from a source to a destination address by
//! mastering the bus with burst transactions, like the DMA controllers in
//! both of the paper's reference architectures (Fig. 1) and MorphoSys's
//! context/frame transfer engine. Programmable two ways:
//!
//! * over the bus, through four registers (SRC, DST, LEN, CTRL) — how a CPU
//!   model kicks off a transfer;
//! * by a direct [`DmaProgram`] message — how another component (e.g. a
//!   testbench) requests a transfer.
//!
//! On completion the programmer receives a [`DmaDone`].

use drcf_kernel::json::{ju64, Json};
use drcf_kernel::prelude::*;
use drcf_kernel::snapshot::{self as snap, Snapshotable};

use crate::interfaces::MasterPort;
use crate::protocol::{Addr, BusOp, BusResponse, SlaveAccess, SlaveReply, Word};
use crate::snapshot::{words_json, words_of};

/// Register offsets from the DMA's base address.
pub mod regs {
    /// Source address register.
    pub const SRC: u64 = 0;
    /// Destination address register.
    pub const DST: u64 = 1;
    /// Length (words) register.
    pub const LEN: u64 = 2;
    /// Control/status: write 1 to start (poll CTRL for DONE), write
    /// [`super::ctrl::START_IRQ`] to start with a completion notification
    /// ([`super::DmaDone`]) sent to the programming master. Reads back
    /// 0 = idle, 1 = busy, 2 = done.
    pub const CTRL: u64 = 3;
}

/// CTRL write commands.
pub mod ctrl {
    /// Start; completion is observed by polling CTRL.
    pub const START: u64 = 1;
    /// Start; completion additionally raises a `DmaDone` message to the
    /// master that wrote the register (interrupt-style).
    pub const START_IRQ: u64 = 3;
}

/// Status codes readable from the CTRL register.
pub mod status {
    /// No transfer programmed.
    pub const IDLE: u64 = 0;
    /// Transfer in progress.
    pub const BUSY: u64 = 1;
    /// Last transfer completed.
    pub const DONE: u64 = 2;
}

/// Direct programming message.
#[derive(Debug, Clone)]
pub struct DmaProgram {
    /// Source start address.
    pub src: Addr,
    /// Destination start address.
    pub dst: Addr,
    /// Words to move.
    pub words: u64,
    /// Component to notify on completion.
    pub notify: ComponentId,
    /// Tag echoed in the completion message.
    pub tag: u64,
}

/// Completion notification.
#[derive(Debug, Clone, Copy)]
pub struct DmaDone {
    /// Tag from the program.
    pub tag: u64,
    /// Words moved.
    pub words: u64,
}

/// Self-re-arming transfer request: run `program`, then re-run it until
/// `count` transfers have completed, idling `period` between a completion
/// and the next start. Models a recurring bursty master (a descriptor-ring
/// DMA draining a periodic source) without an external driver component;
/// each repetition raises its own [`DmaDone`].
#[derive(Debug, Clone)]
pub struct DmaAutoRepeat {
    /// The transfer to repeat.
    pub program: DmaProgram,
    /// Idle gap between a completion and the next start.
    pub period: SimDuration,
    /// Total number of transfers (0 is ignored).
    pub count: u64,
}

/// DMA parameters.
#[derive(Debug, Clone)]
pub struct DmaConfig {
    /// Register block base address.
    pub base: Addr,
    /// Largest burst per bus transaction.
    pub max_burst: usize,
    /// Bus priority of DMA transactions.
    pub priority: u8,
}

impl Default for DmaConfig {
    fn default() -> Self {
        DmaConfig {
            base: 0xD000,
            max_burst: 16,
            priority: 2,
        }
    }
}

enum State {
    Idle,
    /// A read burst is in flight.
    Reading,
    /// A write burst is in flight.
    Writing,
}

/// Armed auto-repeat state.
struct AutoRepeat {
    program: DmaProgram,
    period: SimDuration,
    /// Transfers not yet started.
    left: u64,
}

/// Timer tag: start the next auto-repeat transfer.
const TAG_AUTO_NEXT: u64 = 1;

/// The DMA controller component.
pub struct Dma {
    cfg: DmaConfig,
    regs: [Word; 4],
    port: MasterPort,
    state: State,
    remaining: u64,
    cur_src: Addr,
    cur_dst: Addr,
    notify: Option<(ComponentId, u64)>,
    auto: Option<AutoRepeat>,
    /// Total words moved across all transfers.
    pub words_moved: u64,
    /// Completed transfers.
    pub transfers: u64,
}

impl Dma {
    /// New controller mastering `bus`.
    pub fn new(cfg: DmaConfig, bus: ComponentId) -> Self {
        let priority = cfg.priority;
        Dma {
            cfg,
            regs: [0; 4],
            port: MasterPort::new(bus, priority),
            state: State::Idle,
            remaining: 0,
            cur_src: 0,
            cur_dst: 0,
            notify: None,
            auto: None,
            words_moved: 0,
            transfers: 0,
        }
    }

    /// Register block base.
    pub fn base(&self) -> Addr {
        self.cfg.base
    }

    /// Register block top (inclusive).
    pub fn high(&self) -> Addr {
        self.cfg.base + 3
    }

    fn start(&mut self, api: &mut Api<'_>, src: Addr, dst: Addr, words: u64) {
        if words == 0 {
            self.regs[regs::CTRL as usize] = status::DONE;
            self.finish(api);
            return;
        }
        self.remaining = words;
        self.cur_src = src;
        self.cur_dst = dst;
        self.regs[regs::CTRL as usize] = status::BUSY;
        self.issue_read(api);
    }

    fn issue_read(&mut self, api: &mut Api<'_>) {
        let burst = (self.remaining as usize).min(self.cfg.max_burst);
        self.port.read(api, self.cur_src, burst);
        self.state = State::Reading;
    }

    fn finish(&mut self, api: &mut Api<'_>) {
        self.state = State::Idle;
        self.transfers += 1;
        if let Some((target, tag)) = self.notify.take() {
            let words = self.regs[regs::LEN as usize];
            api.send(target, DmaDone { tag, words }, Delay::Delta);
        }
        match &self.auto {
            Some(a) if a.left > 0 => api.timer_in(a.period, TAG_AUTO_NEXT),
            Some(_) => self.auto = None,
            None => {}
        }
    }

    /// Start the next transfer of an armed auto-repeat sequence.
    fn start_auto(&mut self, api: &mut Api<'_>) {
        let Some(a) = self.auto.as_mut() else {
            return;
        };
        a.left -= 1;
        let p = a.program.clone();
        self.notify = Some((p.notify, p.tag));
        self.regs[regs::SRC as usize] = p.src;
        self.regs[regs::DST as usize] = p.dst;
        self.regs[regs::LEN as usize] = p.words;
        self.start(api, p.src, p.dst, p.words);
    }

    fn on_response(&mut self, api: &mut Api<'_>, resp: BusResponse) {
        if !resp.is_ok() {
            api.raise(
                SimErrorKind::BusError,
                format!(
                    "DMA transaction failed at {:#x}: {:?}",
                    resp.addr, resp.status
                ),
            );
            self.regs[regs::CTRL as usize] = status::IDLE;
            self.finish(api);
            return;
        }
        match self.state {
            State::Reading => {
                let n = resp.data.len() as u64;
                let dst = self.cur_dst;
                self.port.write(api, dst, resp.data);
                self.cur_src += n;
                self.cur_dst += n;
                self.remaining -= n;
                self.words_moved += n;
                self.state = State::Writing;
            }
            State::Writing => {
                if self.remaining > 0 {
                    self.issue_read(api);
                } else {
                    self.regs[regs::CTRL as usize] = status::DONE;
                    self.finish(api);
                }
            }
            State::Idle => {
                api.log(Severity::Warning, "DMA response while idle".to_string());
            }
        }
    }

    fn on_slave_access(&mut self, api: &mut Api<'_>, access: SlaveAccess) {
        use crate::protocol::{BusRequest, BusStatus};
        let req: &BusRequest = &access.req;
        let mut status_code = BusStatus::Ok;
        let mut data = Vec::new();
        let off = req.addr.wrapping_sub(self.cfg.base);
        if off > 3 || req.burst != 1 {
            status_code = BusStatus::SlaveError;
        } else {
            match req.op {
                BusOp::Read => data.push(self.regs[off as usize]),
                BusOp::Write => {
                    // The bus validates burst/payload agreement, but a
                    // directly-addressed access may not be well-formed.
                    let v = req.data.first().copied().unwrap_or(0);
                    self.regs[off as usize] = v;
                    if off == regs::CTRL && v != 0 && matches!(self.state, State::Idle) {
                        if v == ctrl::START_IRQ {
                            // Interrupt-style completion to the programmer.
                            self.notify = Some((req.master, 0));
                        }
                        let (src, dst, len) = (
                            self.regs[regs::SRC as usize],
                            self.regs[regs::DST as usize],
                            self.regs[regs::LEN as usize],
                        );
                        self.start(api, src, dst, len);
                    }
                }
            }
        }
        let resp = BusResponse {
            id: req.id,
            op: req.op,
            addr: req.addr,
            status: status_code,
            data,
        };
        // Register access takes one bus-clock-ish cycle; modeled as 10 ns.
        api.send_in(
            access.bus,
            SlaveReply {
                resp,
                master: access.req.master,
            },
            SimDuration::ns(10),
        );
    }
}

impl Component for Dma {
    fn decoders(&self) -> &'static [drcf_kernel::snapshot::Decoder] {
        crate::snapshot::BUS_DECODERS
    }

    fn snapshot(&mut self) -> SimResult<Json> {
        Ok(Json::obj()
            .with("regs", words_json(&self.regs))
            .with("port", self.port.snapshot_json())
            .with(
                "state",
                Json::from(match self.state {
                    State::Idle => "idle",
                    State::Reading => "reading",
                    State::Writing => "writing",
                }),
            )
            .with("remaining", ju64(self.remaining))
            .with("cur_src", ju64(self.cur_src))
            .with("cur_dst", ju64(self.cur_dst))
            .with(
                "notify",
                match self.notify {
                    Some((target, tag)) => Json::Arr(vec![ju64(target as u64), ju64(tag)]),
                    None => Json::Null,
                },
            )
            .with(
                "auto",
                match &self.auto {
                    Some(a) => Json::obj()
                        .with("src", ju64(a.program.src))
                        .with("dst", ju64(a.program.dst))
                        .with("words", ju64(a.program.words))
                        .with("notify", ju64(a.program.notify as u64))
                        .with("tag", ju64(a.program.tag))
                        .with("period", ju64(a.period.as_fs()))
                        .with("left", ju64(a.left)),
                    None => Json::Null,
                },
            )
            .with("words_moved", ju64(self.words_moved))
            .with("transfers", ju64(self.transfers)))
    }

    fn restore(&mut self, state: &Json) -> SimResult<()> {
        let regs = words_of(snap::field(state, "regs")?)
            .filter(|r| r.len() == 4)
            .ok_or_else(|| snap::err("DMA registers malformed"))?;
        self.regs.copy_from_slice(&regs);
        self.port.restore_json(snap::field(state, "port")?)?;
        self.state = match snap::str_field(state, "state")? {
            "idle" => State::Idle,
            "reading" => State::Reading,
            "writing" => State::Writing,
            other => return Err(snap::err(format!("unknown DMA state {other:?}"))),
        };
        self.remaining = snap::u64_field(state, "remaining")?;
        self.cur_src = snap::u64_field(state, "cur_src")?;
        self.cur_dst = snap::u64_field(state, "cur_dst")?;
        self.notify = match snap::field(state, "notify")? {
            Json::Null => None,
            j => {
                let pair = j.as_arr().filter(|p| p.len() == 2);
                let (target, tag) = pair
                    .and_then(|p| {
                        Some((
                            drcf_kernel::json::ju64_of(&p[0])?,
                            drcf_kernel::json::ju64_of(&p[1])?,
                        ))
                    })
                    .ok_or_else(|| snap::err("malformed DMA notify entry"))?;
                Some((target as ComponentId, tag))
            }
        };
        self.auto = match snap::field(state, "auto")? {
            Json::Null => None,
            a => Some(AutoRepeat {
                program: DmaProgram {
                    src: snap::u64_field(a, "src")?,
                    dst: snap::u64_field(a, "dst")?,
                    words: snap::u64_field(a, "words")?,
                    notify: snap::usize_field(a, "notify")?,
                    tag: snap::u64_field(a, "tag")?,
                },
                period: SimDuration::fs(snap::u64_field(a, "period")?),
                left: snap::u64_field(a, "left")?,
            }),
        };
        self.words_moved = snap::u64_field(state, "words_moved")?;
        self.transfers = snap::u64_field(state, "transfers")?;
        Ok(())
    }

    fn handle(&mut self, api: &mut Api<'_>, msg: Msg) {
        if matches!(msg.kind, MsgKind::Timer(TAG_AUTO_NEXT)) {
            self.start_auto(api);
            return;
        }
        let msg = match self.port.take_response(api, msg) {
            Ok(resp) => {
                self.on_response(api, resp);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.user::<SlaveAccess>() {
            Ok(access) => {
                self.on_slave_access(api, access);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.user::<DmaProgram>() {
            Ok(prog) => {
                if matches!(self.state, State::Idle) {
                    self.notify = Some((prog.notify, prog.tag));
                    self.regs[regs::SRC as usize] = prog.src;
                    self.regs[regs::DST as usize] = prog.dst;
                    self.regs[regs::LEN as usize] = prog.words;
                    self.start(api, prog.src, prog.dst, prog.words);
                } else {
                    api.log(
                        Severity::Warning,
                        "DMA program rejected: controller busy".to_string(),
                    );
                }
                return;
            }
            Err(m) => m,
        };
        if let Ok(auto) = msg.user::<DmaAutoRepeat>() {
            if auto.count == 0 {
                return;
            }
            if !matches!(self.state, State::Idle) || self.auto.is_some() {
                api.log(
                    Severity::Warning,
                    "DMA auto-repeat rejected: controller busy".to_string(),
                );
                return;
            }
            self.auto = Some(AutoRepeat {
                program: auto.program,
                period: auto.period,
                left: auto.count,
            });
            self.start_auto(api);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::{Bus, BusConfig};
    use crate::map::AddressMap;
    use crate::memory::{Memory, MemoryConfig};
    use drcf_kernel::testing::ok;

    /// Build: driver(0) -> bus(1); memory(2) holds both src and dst
    /// regions; dma(3).
    fn build() -> Simulator {
        let mut sim = Simulator::new();
        let mut map = AddressMap::new();
        ok(map.add(0x0000, 0x0FFF, 2)); // memory
        ok(map.add(0xD000, 0xD003, 3)); // DMA registers
        sim.add(
            "driver",
            FnComponent::new(move |api, msg| match &msg.kind {
                MsgKind::Start => {
                    api.send(
                        3,
                        DmaProgram {
                            src: 0x000,
                            dst: 0x800,
                            words: 40,
                            notify: 0,
                            tag: 5,
                        },
                        Delay::Delta,
                    );
                    api.obligation_begin();
                }
                _ => {
                    if msg.user_ref::<DmaDone>().is_some() {
                        api.obligation_end();
                    }
                }
            }),
        );
        sim.add("bus", Bus::new(BusConfig::default(), map));
        let mut mem = Memory::new(MemoryConfig {
            size_words: 0x1000,
            ..MemoryConfig::default()
        });
        for i in 0..40 {
            mem.poke(i, 1000 + i);
        }
        sim.add("mem", mem);
        sim.add("dma", Dma::new(DmaConfig::default(), 1));
        sim
    }

    #[test]
    fn dma_copies_a_block() {
        let mut sim = build();
        assert_eq!(sim.run(), Ok(StopReason::Quiescent));
        let mem = sim.get::<Memory>(2);
        for i in 0..40u64 {
            assert_eq!(mem.peek(0x800 + i), Some(1000 + i), "word {i}");
        }
        let dma = sim.get::<Dma>(3);
        assert_eq!(dma.words_moved, 40);
        assert_eq!(dma.transfers, 1);
        // 40 words at max_burst 16 -> bursts of 16,16,8 -> 3 reads + 3 writes.
        assert_eq!(dma.port.issued, 6);
        assert_eq!(dma.port.completed, 6);
    }

    #[test]
    fn dma_programmable_via_registers() {
        let mut sim = Simulator::new();
        let mut map = AddressMap::new();
        ok(map.add(0x0000, 0x0FFF, 2));
        ok(map.add(0xD000, 0xD003, 3));
        // A register-programming master: writes SRC/DST/LEN/CTRL then polls
        // CTRL until DONE.
        struct Prog {
            port: MasterPort,
            step: usize,
            pub done_seen: bool,
        }
        impl Component for Prog {
            fn handle(&mut self, api: &mut Api<'_>, msg: Msg) {
                match &msg.kind {
                    MsgKind::Start => {
                        self.port.write(api, 0xD000 + regs::SRC, vec![0x10]);
                    }
                    _ => {
                        if let Ok(resp) = self.port.take_response(api, msg) {
                            assert!(resp.is_ok());
                            self.step += 1;
                            match self.step {
                                1 => {
                                    self.port.write(api, 0xD000 + regs::DST, vec![0x400]);
                                }
                                2 => {
                                    self.port.write(api, 0xD000 + regs::LEN, vec![8]);
                                }
                                3 => {
                                    self.port.write(api, 0xD000 + regs::CTRL, vec![1]);
                                }
                                _ => {
                                    // Poll status.
                                    if resp.op == BusOp::Read && resp.data == vec![status::DONE] {
                                        self.done_seen = true;
                                    } else {
                                        self.port.read(api, 0xD000 + regs::CTRL, 1);
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        sim.add(
            "prog",
            Prog {
                port: MasterPort::new(1, 0),
                step: 0,
                done_seen: false,
            },
        );
        sim.add("bus", Bus::new(BusConfig::default(), map));
        let mut mem = Memory::new(MemoryConfig {
            size_words: 0x1000,
            ..MemoryConfig::default()
        });
        for i in 0..8 {
            mem.poke(0x10 + i, 7 + i);
        }
        sim.add("mem", mem);
        sim.add("dma", Dma::new(DmaConfig::default(), 1));
        assert_eq!(sim.run(), Ok(StopReason::Quiescent));
        assert!(sim.get::<Prog>(0).done_seen, "CTRL never read back DONE");
        let mem = sim.get::<Memory>(2);
        for i in 0..8u64 {
            assert_eq!(mem.peek(0x400 + i), Some(7 + i));
        }
    }

    #[test]
    fn auto_repeat_runs_count_transfers_with_gaps() {
        let mut sim = Simulator::new();
        let mut map = AddressMap::new();
        ok(map.add(0x0000, 0x0FFF, 2));
        ok(map.add(0xD000, 0xD003, 3));
        let times = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let t2 = times.clone();
        sim.add(
            "driver",
            FnComponent::new(move |api, msg| match &msg.kind {
                MsgKind::Start => {
                    api.send(
                        3,
                        DmaAutoRepeat {
                            program: DmaProgram {
                                src: 0x000,
                                dst: 0x800,
                                words: 8,
                                notify: 0,
                                tag: 9,
                            },
                            period: SimDuration::us(1),
                            count: 3,
                        },
                        Delay::Delta,
                    );
                }
                _ => {
                    if let Some(d) = msg.user_ref::<DmaDone>() {
                        assert_eq!(d.tag, 9);
                        t2.borrow_mut().push(api.now());
                    }
                }
            }),
        );
        sim.add("bus", Bus::new(BusConfig::default(), map));
        sim.add(
            "mem",
            Memory::new(MemoryConfig {
                size_words: 0x1000,
                ..MemoryConfig::default()
            }),
        );
        sim.add("dma", Dma::new(DmaConfig::default(), 1));
        assert_eq!(sim.run(), Ok(StopReason::Quiescent));
        let dma = sim.get::<Dma>(3);
        assert_eq!(dma.transfers, 3);
        assert_eq!(dma.words_moved, 24);
        let times = times.borrow();
        assert_eq!(times.len(), 3);
        // Each repetition starts one period after the previous completion.
        assert!(times[1].since(times[0]) >= SimDuration::us(1));
        assert!(times[2].since(times[1]) >= SimDuration::us(1));
    }

    #[test]
    fn zero_length_transfer_completes_immediately() {
        let mut sim = Simulator::new();
        let mut map = AddressMap::new();
        ok(map.add(0x0000, 0x0FFF, 2));
        ok(map.add(0xD000, 0xD003, 3));
        let done = std::rc::Rc::new(std::cell::Cell::new(false));
        let d2 = done.clone();
        sim.add(
            "driver",
            FnComponent::new(move |api, msg| match &msg.kind {
                MsgKind::Start => {
                    api.obligation_begin();
                    api.send(
                        3,
                        DmaProgram {
                            src: 0,
                            dst: 0,
                            words: 0,
                            notify: 0,
                            tag: 1,
                        },
                        Delay::Delta,
                    );
                }
                _ => {
                    if msg.user_ref::<DmaDone>().is_some() {
                        d2.set(true);
                        api.obligation_end();
                    }
                }
            }),
        );
        sim.add("bus", Bus::new(BusConfig::default(), map));
        sim.add("mem", Memory::new(MemoryConfig::default()));
        sim.add("dma", Dma::new(DmaConfig::default(), 1));
        assert_eq!(sim.run(), Ok(StopReason::Quiescent));
        assert!(done.get());
        assert_eq!(sim.get::<Dma>(3).words_moved, 0);
    }
}
