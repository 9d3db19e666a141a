//! Memory models.
//!
//! [`Memory`] is a word-addressed RAM with configurable first-word latency
//! and per-word burst cost. It serves two kinds of traffic:
//!
//! * **bus port** — [`SlaveAccess`] messages from a [`crate::bus::Bus`];
//! * **direct port** — [`DirectReadReq`] messages, modeling a dedicated
//!   point-to-point connection (e.g. a configuration-memory port feeding a
//!   reconfigurable fabric without crossing the system bus).
//!
//! With `dual_port = false` the two ports contend for the single internal
//! port; with `dual_port = true` they proceed independently. This is the
//! knob behind the paper's §5.3 remark that the methodology "may be used to
//! measure the effects of different memory organizations ... to the total
//! system performance" (experiment E6).

use drcf_kernel::json::{ju64, ju64_of, Json};
use drcf_kernel::prelude::*;
use drcf_kernel::snapshot as snap;

use crate::bus::SlaveTiming;
use crate::interfaces::apply_request;
use crate::interfaces::BusSlaveModel;
use crate::protocol::{
    Addr, BulkAccess, BusOp, DirectReadDone, DirectReadReq, SlaveAccess, SlaveReply, Word,
};

/// Memory timing/organization parameters.
#[derive(Debug, Clone)]
pub struct MemoryConfig {
    /// First claimed address (word units).
    pub base: Addr,
    /// Capacity in words.
    pub size_words: usize,
    /// Memory clock in MHz.
    pub clock_mhz: u64,
    /// Cycles to the first word of a read.
    pub read_latency: u64,
    /// Cycles to accept the first word of a write.
    pub write_latency: u64,
    /// Additional cycles per burst word after the first.
    pub per_word: u64,
    /// True: the direct port is independent of the bus port (dual-ported
    /// RAM, like the Virtex-II Pro 18 Kbit block dual-port BRAM).
    pub dual_port: bool,
    /// Fault injection: inclusive `[low, high]` address ranges whose words
    /// refuse every access, so transactions touching them come back with a
    /// `SlaveError` status (a poisoned/corrupted region in a
    /// fault-injection campaign).
    pub poison: Vec<(Addr, Addr)>,
}

impl Default for MemoryConfig {
    fn default() -> Self {
        MemoryConfig {
            base: 0,
            size_words: 64 * 1024,
            clock_mhz: 100,
            read_latency: 2,
            write_latency: 1,
            per_word: 1,
            dual_port: false,
            poison: Vec::new(),
        }
    }
}

impl MemoryConfig {
    /// Is `addr` inside a poisoned range?
    pub fn poisoned(&self, addr: Addr) -> bool {
        self.poison
            .iter()
            .any(|&(low, high)| (low..=high).contains(&addr))
    }

    /// Service cycles for a burst access.
    pub fn service_cycles(&self, op: BusOp, burst: usize) -> u64 {
        let first = match op {
            BusOp::Read => self.read_latency,
            BusOp::Write => self.write_latency,
        };
        first + burst.saturating_sub(1) as u64 * self.per_word
    }

    /// The bus-side analytic timing of this memory, for
    /// [`crate::bus::Bus::register_slave_timing`]. Mirrors
    /// [`MemoryConfig::service_cycles`] exactly — the reply to an access at
    /// `t` arrives at `max(t, port free) + service`, which is precisely
    /// what [`Memory`]'s bus-port handler computes.
    pub fn slave_timing(&self) -> SlaveTiming {
        SlaveTiming {
            clock_mhz: self.clock_mhz,
            read_latency: self.read_latency,
            write_latency: self.write_latency,
            per_word: self.per_word,
        }
    }
}

/// Counters a memory accumulates.
#[derive(Debug, Default, Clone, Copy)]
pub struct MemoryStats {
    /// Bus-port read transactions.
    pub reads: u64,
    /// Bus-port write transactions.
    pub writes: u64,
    /// Words read over the bus port.
    pub words_read: u64,
    /// Words written over the bus port.
    pub words_written: u64,
    /// Direct-port read transactions.
    pub direct_reads: u64,
    /// Words streamed over the direct port.
    pub direct_words: u64,
}

/// Words per dirty-tracking page. Each page carries a deterministic write
/// epoch; a live restore along a snapshot lineage (`Simulator::rewind`,
/// `Simulator::restore_delta`) skips re-filling pages whose epoch matches
/// the document, so warm forks pay for the words that changed, not the
/// whole image.
pub const PAGE_WORDS: usize = 64;

/// The RAM component.
pub struct Memory {
    cfg: MemoryConfig,
    data: Vec<Word>,
    /// Per-page write counters — monotonically non-decreasing along a run,
    /// so epoch equality between two points on one timeline implies the
    /// page content is unchanged between them.
    page_epochs: Vec<u64>,
    bus_busy_until: SimTime,
    direct_busy_until: SimTime,
    /// Accumulated statistics.
    pub stats: MemoryStats,
}

impl Memory {
    /// New zero-initialized memory.
    pub fn new(cfg: MemoryConfig) -> Self {
        crate::snapshot::register_bus_codecs();
        let data = vec![0; cfg.size_words];
        let page_epochs = vec![0; cfg.size_words.div_ceil(PAGE_WORDS)];
        Memory {
            cfg,
            data,
            page_epochs,
            bus_busy_until: SimTime::ZERO,
            direct_busy_until: SimTime::ZERO,
            stats: MemoryStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &MemoryConfig {
        &self.cfg
    }

    /// Direct (zero-time, test-only) peek.
    pub fn peek(&self, addr: Addr) -> Option<Word> {
        self.data
            .get((addr.checked_sub(self.cfg.base)?) as usize)
            .copied()
    }

    /// Direct (zero-time, test-only) poke.
    pub fn poke(&mut self, addr: Addr, v: Word) {
        let i = (addr - self.cfg.base) as usize;
        self.data[i] = v;
        self.page_epochs[i / PAGE_WORDS] += 1;
    }

    /// Preload a block of words starting at `addr`.
    pub fn load(&mut self, addr: Addr, words: &[Word]) {
        let start = (addr - self.cfg.base) as usize;
        self.data[start..start + words.len()].copy_from_slice(words);
        if !words.is_empty() {
            let last = (start + words.len() - 1) / PAGE_WORDS;
            for p in (start / PAGE_WORDS)..=last {
                self.page_epochs[p] += 1;
            }
        }
    }

    /// Zero `words` words from `addr` on and bump each touched page's
    /// epoch by the words written in it: the state that many single-word
    /// writes leave, in one fill. Coalesced train writes carry
    /// implied-zero payloads, and the bus never coalesces over poisoned
    /// or unmapped words.
    fn fill_zero(&mut self, addr: Addr, words: usize) {
        debug_assert!(
            (addr..addr + words as u64).all(|a| !self.cfg.poisoned(a)),
            "bulk write over poisoned words"
        );
        let start = (addr - self.cfg.base) as usize;
        let end = start + words;
        self.data[start..end].fill(0);
        let mut i = start;
        while i < end {
            let page_end = ((i / PAGE_WORDS + 1) * PAGE_WORDS).min(end);
            self.page_epochs[i / PAGE_WORDS] += (page_end - i) as u64;
            i = page_end;
        }
    }

    fn schedule_on_port(
        now: SimTime,
        busy_until: &mut SimTime,
        service: SimDuration,
    ) -> SimDuration {
        let start = (*busy_until).max(now);
        let done = start + service;
        *busy_until = done;
        done.since(now)
    }

    /// Nonzero words as `[index, value]` pairs — memories are mostly zeros,
    /// so snapshots stay proportional to live data, not capacity.
    fn sparse_data_json(&self) -> Json {
        Json::Arr(
            self.data
                .iter()
                .enumerate()
                .filter(|&(_, &w)| w != 0)
                .map(|(i, &w)| Json::Arr(vec![ju64(i as u64), ju64(w)]))
                .collect(),
        )
    }

    fn restore_sparse_data(&mut self, j: &Json) -> SimResult<()> {
        // The freshly built memory may have been preloaded by the harness;
        // the snapshot is authoritative, so start from all-zeros.
        self.data.fill(0);
        for e in j
            .as_arr()
            .ok_or_else(|| snap::err("memory data is not an array"))?
        {
            let pair = e.as_arr().filter(|p| p.len() == 2);
            let (i, w) = pair
                .and_then(|p| Some((ju64_of(&p[0])?, ju64_of(&p[1])?)))
                .ok_or_else(|| snap::err("malformed memory word entry"))?;
            let slot = self
                .data
                .get_mut(i as usize)
                .ok_or_else(|| snap::err(format!("memory word {i} outside capacity")))?;
            *slot = w;
        }
        Ok(())
    }

    /// Nonzero page epochs as `[page, epoch]` pairs.
    fn page_epochs_json(&self) -> Json {
        Json::Arr(
            self.page_epochs
                .iter()
                .enumerate()
                .filter(|&(_, &e)| e != 0)
                .map(|(p, &e)| Json::Arr(vec![ju64(p as u64), ju64(e)]))
                .collect(),
        )
    }

    /// The document's page-epoch table, densified to this memory's page
    /// count.
    fn doc_page_epochs(&self, state: &Json) -> SimResult<Vec<u64>> {
        let mut epochs = vec![0u64; self.page_epochs.len()];
        for e in snap::arr_field(state, "page_epochs")? {
            let pair = e.as_arr().filter(|p| p.len() == 2);
            let (p, ep) = pair
                .and_then(|p| Some((ju64_of(&p[0])?, ju64_of(&p[1])?)))
                .ok_or_else(|| snap::err("malformed memory page-epoch entry"))?;
            let slot = epochs
                .get_mut(p as usize)
                .ok_or_else(|| snap::err(format!("memory page {p} outside capacity")))?;
            *slot = ep;
        }
        Ok(epochs)
    }

    /// Restore the non-image fields shared by [`Component::restore`] and
    /// [`Component::restore_live`].
    fn restore_meta(&mut self, state: &Json) -> SimResult<()> {
        self.bus_busy_until = SimTime(snap::u64_field(state, "bus_busy_until")?);
        self.direct_busy_until = SimTime(snap::u64_field(state, "direct_busy_until")?);
        let s = snap::field(state, "stats")?;
        self.stats = MemoryStats {
            reads: snap::u64_field(s, "reads")?,
            writes: snap::u64_field(s, "writes")?,
            words_read: snap::u64_field(s, "words_read")?,
            words_written: snap::u64_field(s, "words_written")?,
            direct_reads: snap::u64_field(s, "direct_reads")?,
            direct_words: snap::u64_field(s, "direct_words")?,
        };
        Ok(())
    }
}

impl BusSlaveModel for Memory {
    fn low_addr(&self) -> Addr {
        self.cfg.base
    }
    fn high_addr(&self) -> Addr {
        self.cfg.base + self.cfg.size_words as u64 - 1
    }
    fn read(&mut self, addr: Addr) -> Result<Word, ()> {
        if self.cfg.poisoned(addr) {
            return Err(());
        }
        self.data
            .get((addr.checked_sub(self.cfg.base).ok_or(())?) as usize)
            .copied()
            .ok_or(())
    }
    fn write(&mut self, addr: Addr, data: Word) -> Result<(), ()> {
        if self.cfg.poisoned(addr) {
            return Err(());
        }
        let i = (addr.checked_sub(self.cfg.base).ok_or(())?) as usize;
        match self.data.get_mut(i) {
            Some(w) => {
                *w = data;
                self.page_epochs[i / PAGE_WORDS] += 1;
                Ok(())
            }
            None => Err(()),
        }
    }
    fn access_cycles(&self, op: BusOp, _addr: Addr, burst: usize) -> u64 {
        self.cfg.service_cycles(op, burst)
    }
    fn model_name(&self) -> &str {
        "memory"
    }
}

impl Component for Memory {
    fn snapshot(&mut self) -> SimResult<Json> {
        Ok(Json::obj()
            .with("data", self.sparse_data_json())
            .with("page_epochs", self.page_epochs_json())
            .with("bus_busy_until", ju64(self.bus_busy_until.as_fs()))
            .with("direct_busy_until", ju64(self.direct_busy_until.as_fs()))
            .with(
                "stats",
                Json::obj()
                    .with("reads", ju64(self.stats.reads))
                    .with("writes", ju64(self.stats.writes))
                    .with("words_read", ju64(self.stats.words_read))
                    .with("words_written", ju64(self.stats.words_written))
                    .with("direct_reads", ju64(self.stats.direct_reads))
                    .with("direct_words", ju64(self.stats.direct_words)),
            ))
    }

    fn restore(&mut self, state: &Json) -> SimResult<()> {
        // A cross-simulator restore trusts nothing about the live image:
        // force-parse every word, then adopt the document's epochs.
        self.restore_sparse_data(snap::field(state, "data")?)?;
        self.page_epochs = self.doc_page_epochs(state)?;
        self.restore_meta(state)
    }

    fn restore_live(&mut self, state: &Json) -> SimResult<()> {
        // Live restore along a snapshot lineage: page epochs are
        // monotonically non-decreasing along the one timeline the document
        // and the live state share, so epoch equality means no write
        // touched the page between the two points — its words are already
        // correct. Only mismatching pages are zeroed and re-filled.
        let doc_epochs = self.doc_page_epochs(state)?;
        let dirty: Vec<bool> = doc_epochs
            .iter()
            .zip(&self.page_epochs)
            .map(|(d, l)| d != l)
            .collect();
        if dirty.iter().any(|&d| d) {
            for (p, _) in dirty.iter().enumerate().filter(|&(_, &d)| d) {
                let lo = p * PAGE_WORDS;
                let hi = ((p + 1) * PAGE_WORDS).min(self.data.len());
                self.data[lo..hi].fill(0);
            }
            for e in snap::arr_field(state, "data")? {
                let pair = e.as_arr().filter(|p| p.len() == 2);
                let (i, w) = pair
                    .and_then(|p| Some((ju64_of(&p[0])?, ju64_of(&p[1])?)))
                    .ok_or_else(|| snap::err("malformed memory word entry"))?;
                let i = i as usize;
                if i >= self.data.len() {
                    return Err(snap::err(format!("memory word {i} outside capacity")));
                }
                if dirty[i / PAGE_WORDS] {
                    self.data[i] = w;
                }
            }
        }
        self.page_epochs = doc_epochs;
        self.restore_meta(state)
    }

    fn handle(&mut self, api: &mut Api<'_>, msg: Msg) {
        // Bus port.
        let msg = match msg.user::<SlaveAccess>() {
            Ok(access) => {
                let resp = apply_request(self, &access.req);
                if !resp.is_ok() {
                    api.log(
                        Severity::Warning,
                        format!(
                            "memory rejected {:?} burst {} at {:#x}",
                            access.req.op, access.req.burst, access.req.addr
                        ),
                    );
                }
                match access.req.op {
                    BusOp::Read => {
                        self.stats.reads += 1;
                        self.stats.words_read += access.req.burst as u64;
                    }
                    BusOp::Write => {
                        self.stats.writes += 1;
                        self.stats.words_written += access.req.burst as u64;
                    }
                }
                let cycles = self.cfg.service_cycles(access.req.op, access.req.burst);
                let service = SimDuration::cycles_at_mhz(cycles, self.cfg.clock_mhz);
                let delay = Self::schedule_on_port(api.now(), &mut self.bus_busy_until, service);
                api.send_in(
                    access.bus,
                    SlaveReply {
                        resp,
                        master: access.req.master,
                    },
                    delay,
                );
                return;
            }
            Err(m) => m,
        };
        // Coalesced-train fast-forward: account (and, for writes, apply)
        // a completed burst prefix in one step, then service the one burst
        // that was mid-flight when the train de-coalesced, if any.
        let msg = match msg.user::<BulkAccess>() {
            Ok(bulk) => {
                for b in &bulk.bursts {
                    match b.op {
                        BusOp::Read => {
                            self.stats.reads += 1;
                            self.stats.words_read += b.words as u64;
                        }
                        BusOp::Write => {
                            self.stats.writes += 1;
                            self.stats.words_written += b.words as u64;
                            self.fill_zero(b.addr, b.words);
                        }
                    }
                }
                if bulk.busy_until > self.bus_busy_until {
                    self.bus_busy_until = bulk.busy_until;
                }
                if let Some(s) = bulk.serve {
                    let resp = apply_request(self, &s.req);
                    debug_assert!(resp.is_ok(), "in-flight train burst rejected");
                    match s.req.op {
                        BusOp::Read => {
                            self.stats.reads += 1;
                            self.stats.words_read += s.req.burst as u64;
                        }
                        BusOp::Write => {
                            self.stats.writes += 1;
                            self.stats.words_written += s.req.burst as u64;
                        }
                    }
                    if s.reply_at > self.bus_busy_until {
                        self.bus_busy_until = s.reply_at;
                    }
                    api.send_in(
                        s.bus,
                        SlaveReply {
                            resp,
                            master: s.req.master,
                        },
                        s.reply_at.since(api.now()),
                    );
                }
                return;
            }
            Err(m) => m,
        };
        // Direct port.
        if let Ok(req) = msg.user::<DirectReadReq>() {
            self.stats.direct_reads += 1;
            self.stats.direct_words += req.words as u64;
            let cycles = self.cfg.service_cycles(BusOp::Read, req.words);
            let service = SimDuration::cycles_at_mhz(cycles, self.cfg.clock_mhz);
            let delay = if self.cfg.dual_port {
                Self::schedule_on_port(api.now(), &mut self.direct_busy_until, service)
            } else {
                // Single internal port: direct traffic contends with the
                // bus port.
                Self::schedule_on_port(api.now(), &mut self.bus_busy_until, service)
            };
            api.send_in(
                req.requester,
                DirectReadDone {
                    tag: req.tag,
                    words: req.words,
                },
                delay,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::BusRequest;
    use drcf_kernel::testing::{ok, some};
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn service_cycles_formula() {
        let cfg = MemoryConfig {
            read_latency: 5,
            write_latency: 2,
            per_word: 1,
            ..MemoryConfig::default()
        };
        assert_eq!(cfg.service_cycles(BusOp::Read, 1), 5);
        assert_eq!(cfg.service_cycles(BusOp::Read, 8), 12);
        assert_eq!(cfg.service_cycles(BusOp::Write, 4), 5);
    }

    #[test]
    fn functional_read_write_via_model_trait() {
        let mut m = Memory::new(MemoryConfig {
            base: 0x1000,
            size_words: 16,
            ..MemoryConfig::default()
        });
        assert_eq!(m.low_addr(), 0x1000);
        assert_eq!(m.high_addr(), 0x100F);
        ok(m.write(0x1004, 99));
        assert_eq!(m.read(0x1004), Ok(99));
        assert_eq!(m.peek(0x1004), Some(99));
        assert!(m.read(0x0FFF).is_err(), "below base");
        assert!(m.read(0x1010).is_err(), "above top");
        assert!(m.write(0x1010, 0).is_err());
    }

    #[test]
    fn fill_zero_matches_word_by_word_writes() {
        let cfg = MemoryConfig {
            base: 0x40,
            size_words: 5 * PAGE_WORDS,
            ..MemoryConfig::default()
        };
        // Bursts inside one page, ending on a page boundary, and spanning
        // two and three pages.
        for (addr, words) in [(0x45, 7), (0x40 + 56, 8), (0x40 + 60, 9), (0x40 + 10, 150)] {
            let (mut got, mut want) = (Memory::new(cfg.clone()), Memory::new(cfg.clone()));
            for m in [&mut got, &mut want] {
                m.load(0x40, &vec![9; 5 * PAGE_WORDS]);
            }
            got.fill_zero(addr, words);
            for i in 0..words as u64 {
                ok(want.write(addr + i, 0));
            }
            assert_eq!(got.data, want.data, "burst {addr:#x}+{words}");
            assert_eq!(got.page_epochs, want.page_epochs, "burst {addr:#x}+{words}");
        }
    }

    #[test]
    fn poisoned_range_rejects_access() {
        let mut m = Memory::new(MemoryConfig {
            base: 0,
            size_words: 32,
            poison: vec![(8, 11)],
            ..MemoryConfig::default()
        });
        assert_eq!(m.read(7), Ok(0));
        assert!(m.read(8).is_err());
        assert!(m.write(11, 5).is_err());
        assert_eq!(m.read(12), Ok(0));
        // A burst grazing the range comes back as a slave error.
        let req = BusRequest {
            id: 1,
            master: 0,
            op: BusOp::Read,
            addr: 6,
            burst: 4,
            data: vec![],
            priority: 0,
        };
        let resp = crate::interfaces::apply_request(&mut m, &req);
        assert_eq!(resp.status, crate::protocol::BusStatus::SlaveError);
    }

    #[test]
    fn load_preloads_a_block() {
        let mut m = Memory::new(MemoryConfig {
            base: 0,
            size_words: 8,
            ..MemoryConfig::default()
        });
        m.load(2, &[10, 11, 12]);
        assert_eq!(m.peek(2), Some(10));
        assert_eq!(m.peek(4), Some(12));
    }

    /// Two direct reads on a single-ported memory serialize; on a dual-port
    /// memory the direct port is independent of the bus port.
    #[test]
    fn port_contention_depends_on_organization() {
        let run = |dual_port: bool| {
            let mut sim = Simulator::new();
            let done_times = Rc::new(RefCell::new(Vec::new()));
            let dt = done_times.clone();
            // id 0: driver, id 1: memory
            sim.add(
                "driver",
                FnComponent::new(move |api, msg| match &msg.kind {
                    MsgKind::Start => {
                        api.obligation_begin();
                        api.obligation_begin();
                        // One bus access and one direct read at t=0.
                        api.send(
                            1,
                            SlaveAccess {
                                req: BusRequest {
                                    id: 1,
                                    master: 0,
                                    op: BusOp::Read,
                                    addr: 0,
                                    burst: 10,
                                    data: vec![],
                                    priority: 0,
                                },
                                bus: 0,
                            },
                            Delay::Delta,
                        );
                        api.send(
                            1,
                            DirectReadReq {
                                requester: 0,
                                addr: 0,
                                words: 10,
                                tag: 7,
                            },
                            Delay::Delta,
                        );
                    }
                    _ => {
                        if msg.user_ref::<SlaveReply>().is_some()
                            || msg.user_ref::<DirectReadDone>().is_some()
                        {
                            dt.borrow_mut().push(api.now().as_fs());
                            api.obligation_end();
                        }
                    }
                }),
            );
            sim.add(
                "mem",
                Memory::new(MemoryConfig {
                    size_words: 64,
                    read_latency: 1,
                    per_word: 1,
                    dual_port,
                    ..MemoryConfig::default()
                }),
            );
            assert!(sim.run().is_ok());
            let times = done_times.borrow().clone();
            times
        };
        let single = run(false);
        let dual = run(true);
        // 10-word read = 10 cycles = 100ns.
        // Dual port: both finish at ~100ns. Single port: second finishes at ~200ns.
        assert_eq!(dual.len(), 2);
        assert_eq!(single.len(), 2);
        let dual_last = some(dual.iter().max().copied());
        let single_last = some(single.iter().max().copied());
        assert!(
            single_last >= 2 * dual_last - 1_000_000,
            "single {single_last} vs dual {dual_last}"
        );
    }

    #[test]
    fn stats_count_both_ports() {
        let mut sim = Simulator::new();
        sim.add(
            "driver",
            FnComponent::new(move |api, msg| {
                if matches!(msg.kind, MsgKind::Start) {
                    api.send(
                        1,
                        DirectReadReq {
                            requester: 0,
                            addr: 0,
                            words: 32,
                            tag: 0,
                        },
                        Delay::Delta,
                    );
                }
            }),
        );
        let mem = sim.add("mem", Memory::new(MemoryConfig::default()));
        ok(sim.run());
        let m = sim.get::<Memory>(mem);
        assert_eq!(m.stats.direct_reads, 1);
        assert_eq!(m.stats.direct_words, 32);
        assert_eq!(m.stats.reads, 0);
    }
}
