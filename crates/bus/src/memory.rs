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

use std::ops::Range;

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

/// Words per page of the image. A page is the unit of both storage and
/// dirty tracking: it is allocated on its first nonzero write, and it
/// carries a deterministic write epoch, so a live restore along a snapshot
/// lineage (`Simulator::rewind`, `Simulator::restore_delta`) skips pages
/// whose epoch matches the document. Warm forks and captures pay for the
/// words a run touched, not the whole image.
pub const PAGE_WORDS: usize = 64;

/// One allocated page of the image.
type Page = Box<[Word; PAGE_WORDS]>;

/// The pages that words `start..end` of the image span, each with the word
/// range it covers inside that page.
fn page_spans(start: usize, end: usize) -> impl Iterator<Item = (usize, Range<usize>)> {
    let pages = if start < end {
        start / PAGE_WORDS..end.div_ceil(PAGE_WORDS)
    } else {
        0..0
    };
    pages.map(move |p| {
        let first = p * PAGE_WORDS;
        (
            p,
            start.max(first) - first..end.min(first + PAGE_WORDS) - first,
        )
    })
}

/// A document's `[page, epoch]` entries, each page checked against a
/// memory of `pages` pages.
fn doc_page_epochs(
    state: &Json,
    pages: usize,
) -> SimResult<impl Iterator<Item = SimResult<(usize, u64)>> + '_> {
    Ok(snap::arr_field(state, "page_epochs")?.iter().map(move |e| {
        let (p, ep) = e
            .as_arr()
            .filter(|p| p.len() == 2)
            .and_then(|p| Some((ju64_of(&p[0])?, ju64_of(&p[1])?)))
            .ok_or_else(|| snap::err("malformed memory page-epoch entry"))?;
        if p < pages as u64 {
            Ok((p as usize, ep))
        } else {
            Err(snap::err(format!("memory page {p} outside capacity")))
        }
    }))
}

/// A document's image runs `[start, [w, ...]]`, each checked to lie inside
/// a memory of `size` words.
fn doc_runs(
    state: &Json,
    size: usize,
) -> SimResult<impl Iterator<Item = SimResult<(usize, &[Json])>> + '_> {
    Ok(snap::arr_field(state, "data")?.iter().map(move |e| {
        let (start, words) = match e.as_arr() {
            Some([start, Json::Arr(words)]) => ju64_of(start).map(|s| (s, words.as_slice())),
            _ => None,
        }
        .ok_or_else(|| snap::err("malformed memory word run"))?;
        match start.checked_add(words.len() as u64) {
            Some(end) if end <= size as u64 => Ok((start as usize, words)),
            _ => Err(snap::err(format!(
                "memory run of {} words at {start} outside capacity",
                words.len()
            ))),
        }
    }))
}

/// The RAM component.
pub struct Memory {
    cfg: MemoryConfig,
    /// The image, one slot per `PAGE_WORDS` words. An absent page reads as
    /// zeros, so building, capturing and fully restoring a memory cost
    /// the pages in use, not the capacity.
    pages: Vec<Option<Page>>,
    /// Per-page write counters — monotonically non-decreasing along a run,
    /// so epoch equality between two points on one timeline implies the
    /// page content is unchanged between them. Every write counts, a zero
    /// write onto an absent page included.
    page_epochs: Vec<u64>,
    bus_busy_until: SimTime,
    direct_busy_until: SimTime,
    /// Accumulated statistics.
    pub stats: MemoryStats,
}

impl Memory {
    /// New zero-initialized memory.
    pub fn new(cfg: MemoryConfig) -> Self {
        let pages = cfg.size_words.div_ceil(PAGE_WORDS);
        Memory {
            cfg,
            pages: vec![None; pages],
            page_epochs: vec![0; pages],
            bus_busy_until: SimTime::ZERO,
            direct_busy_until: SimTime::ZERO,
            stats: MemoryStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &MemoryConfig {
        &self.cfg
    }

    /// Image index of `addr`, if it lies inside the memory.
    fn index(&self, addr: Addr) -> Option<usize> {
        let i = addr.checked_sub(self.cfg.base)?;
        (i < self.cfg.size_words as u64).then_some(i as usize)
    }

    /// Word `i` of the image (in range).
    fn word(&self, i: usize) -> Word {
        self.pages[i / PAGE_WORDS]
            .as_ref()
            .map_or(0, |page| page[i % PAGE_WORDS])
    }

    /// Page `p`, allocated first when `alloc` is set (a nonzero word is
    /// about to land in it); `None` for an absent page that stays absent.
    fn page_mut(&mut self, p: usize, alloc: bool) -> Option<&mut [Word; PAGE_WORDS]> {
        let slot = &mut self.pages[p];
        if alloc && slot.is_none() {
            *slot = Some(Box::new([0; PAGE_WORDS]));
        }
        slot.as_deref_mut()
    }

    /// Set word `i` (in range) without touching its page epoch.
    fn set_word(&mut self, i: usize, v: Word) {
        if let Some(page) = self.page_mut(i / PAGE_WORDS, v != 0) {
            page[i % PAGE_WORDS] = v;
        }
    }

    /// Direct (zero-time, test-only) peek.
    pub fn peek(&self, addr: Addr) -> Option<Word> {
        self.index(addr).map(|i| self.word(i))
    }

    /// Direct (zero-time, test-only) poke.
    pub fn poke(&mut self, addr: Addr, v: Word) {
        let i = self
            .index(addr)
            .unwrap_or_else(|| panic!("poke at {addr:#x} outside memory"));
        self.set_word(i, v);
        self.page_epochs[i / PAGE_WORDS] += 1;
    }

    /// Preload a block of words starting at `addr`.
    pub fn load(&mut self, addr: Addr, words: &[Word]) {
        let start = (addr - self.cfg.base) as usize;
        let end = start + words.len();
        assert!(end <= self.cfg.size_words, "load past the end of memory");
        let mut rest = words;
        for (p, r) in page_spans(start, end) {
            let (chunk, tail) = rest.split_at(r.len());
            rest = tail;
            if let Some(page) = self.page_mut(p, chunk.iter().any(|&w| w != 0)) {
                page[r].copy_from_slice(chunk);
            }
            self.page_epochs[p] += 1;
        }
    }

    /// Zero `words` words from `addr` on, `times` times over, and bump
    /// each touched page's epoch by the words written in it: the state that
    /// many single-word writes leave, in one fill. Coalesced train writes
    /// carry implied-zero payloads, and the bus never coalesces over
    /// poisoned or unmapped words.
    fn fill_zero(&mut self, addr: Addr, words: usize, times: u64) {
        debug_assert!(
            (addr..addr + words as u64).all(|a| !self.cfg.poisoned(a)),
            "bulk write over poisoned words"
        );
        let start = (addr - self.cfg.base) as usize;
        let end = start + words;
        assert!(
            end <= self.cfg.size_words,
            "bulk write past the end of memory"
        );
        for (p, r) in page_spans(start, end) {
            self.page_epochs[p] += r.len() as u64 * times;
            if let Some(page) = self.page_mut(p, false) {
                page[r].fill(0);
            }
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

    /// The image as maximal runs of consecutive nonzero words,
    /// `[start, [w, ...]]` in index order — memories are mostly zeros, so
    /// snapshots stay proportional to live data, not capacity, and only
    /// present pages are walked. A run may cross a page boundary.
    fn sparse_data_json(&self) -> Json {
        let words = self
            .pages
            .iter()
            .enumerate()
            .filter_map(|(p, page)| Some((p * PAGE_WORDS, page.as_deref()?)))
            .flat_map(|(first, page)| {
                page.iter()
                    .enumerate()
                    .filter(|&(_, &w)| w != 0)
                    .map(move |(o, &w)| (first + o, w))
            });
        let mut runs: Vec<(usize, Vec<Json>)> = Vec::new();
        for (i, w) in words {
            match runs.last_mut() {
                Some((start, run)) if *start + run.len() == i => run.push(ju64(w)),
                _ => runs.push((i, vec![ju64(w)])),
            }
        }
        Json::Arr(
            runs.into_iter()
                .map(|(start, run)| Json::Arr(vec![ju64(start as u64), Json::Arr(run)]))
                .collect(),
        )
    }

    /// Set the words of one document run, on the pages `keep` selects.
    /// Every word is decoded, so a malformed run fails whichever pages it
    /// lands on.
    fn apply_run(
        &mut self,
        start: usize,
        words: &[Json],
        keep: impl Fn(usize) -> bool,
    ) -> SimResult<()> {
        for (i, w) in (start..).zip(words) {
            let w = ju64_of(w).ok_or_else(|| snap::err("malformed memory word"))?;
            if keep(i / PAGE_WORDS) {
                self.set_word(i, w);
            }
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

    /// The pages whose live epoch differs from the document's, each with
    /// the document's epoch, in page order. One merge walk of the live
    /// table against the document's sparse list, which a capture writes
    /// in page order; a page the list skips has epoch 0 there.
    fn dirty_pages(&self, state: &Json) -> SimResult<Vec<(usize, u64)>> {
        let mut dirty = Vec::new();
        let mut next = 0;
        for entry in doc_page_epochs(state, self.page_epochs.len())? {
            let (p, ep) = entry?;
            if p < next {
                return Err(snap::err("memory page epochs out of page order"));
            }
            dirty.extend(
                (next..p)
                    .filter(|&q| self.page_epochs[q] != 0)
                    .map(|q| (q, 0)),
            );
            if self.page_epochs[p] != ep {
                dirty.push((p, ep));
            }
            next = p + 1;
        }
        dirty.extend(
            (next..self.page_epochs.len())
                .filter(|&q| self.page_epochs[q] != 0)
                .map(|q| (q, 0)),
        );
        Ok(dirty)
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
        self.index(addr).map(|i| self.word(i)).ok_or(())
    }
    fn write(&mut self, addr: Addr, data: Word) -> Result<(), ()> {
        if self.cfg.poisoned(addr) {
            return Err(());
        }
        let i = self.index(addr).ok_or(())?;
        self.set_word(i, data);
        self.page_epochs[i / PAGE_WORDS] += 1;
        Ok(())
    }
    fn access_cycles(&self, op: BusOp, _addr: Addr, burst: usize) -> u64 {
        self.cfg.service_cycles(op, burst)
    }
    fn model_name(&self) -> &str {
        "memory"
    }
}

impl Component for Memory {
    fn decoders(&self) -> &'static [drcf_kernel::snapshot::Decoder] {
        crate::snapshot::BUS_DECODERS
    }

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
        // drop every page, set the document's words, then adopt its epochs.
        self.pages.fill(None);
        for run in doc_runs(state, self.cfg.size_words)? {
            let (start, words) = run?;
            self.apply_run(start, words, |_| true)?;
        }
        self.page_epochs.fill(0);
        for entry in doc_page_epochs(state, self.page_epochs.len())? {
            let (p, ep) = entry?;
            self.page_epochs[p] = ep;
        }
        self.restore_meta(state)
    }

    fn restore_live(&mut self, state: &Json) -> SimResult<()> {
        // Live restore along a snapshot lineage: page epochs are
        // monotonically non-decreasing along the one timeline the document
        // and the live state share, so epoch equality means no write
        // touched the page between the two points — its words are already
        // correct. Only mismatching pages are dropped and refilled.
        let dirty = self.dirty_pages(state)?;
        if !dirty.is_empty() {
            for &(p, ep) in &dirty {
                self.pages[p] = None;
                self.page_epochs[p] = ep;
            }
            let is_dirty = |p: usize| dirty.binary_search_by_key(&p, |&(q, _)| q).is_ok();
            for run in doc_runs(state, self.cfg.size_words)? {
                let (start, words) = run?;
                self.apply_run(start, words, is_dirty)?;
            }
        }
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
                for r in bulk.runs.runs() {
                    let (n, words) = (r.count as u64, r.words_of(r.count));
                    match r.op {
                        BusOp::Read => {
                            self.stats.reads += n;
                            self.stats.words_read += words;
                        }
                        BusOp::Write => {
                            self.stats.writes += n;
                            self.stats.words_written += words;
                            if r.fixed {
                                self.fill_zero(r.addr, r.words, n);
                            } else {
                                self.fill_zero(r.addr, words as usize, 1);
                            }
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
    use crate::bus::tests::Lcg;
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

    /// Every word of `m`, read through `peek`.
    fn contents(m: &Memory) -> Vec<Option<Word>> {
        let base = m.cfg.base;
        (base..base + m.cfg.size_words as u64)
            .map(|a| m.peek(a))
            .collect()
    }

    #[test]
    fn fill_zero_matches_word_by_word_writes() {
        let cfg = MemoryConfig {
            base: 0x40,
            size_words: 5 * PAGE_WORDS,
            ..MemoryConfig::default()
        };
        // Bursts inside one page, ending on a page boundary, and spanning
        // two and three pages, some written repeatedly (a fixed-address
        // run); onto a preloaded image and onto one whose pages are all
        // absent.
        for preload in [true, false] {
            let bursts = [
                (0x45, 7, 1),
                (0x40 + 56, 8, 1),
                (0x40 + 60, 9, 3),
                (0x40 + 10, 150, 2),
            ];
            for (addr, words, times) in bursts {
                let (mut got, mut want) = (Memory::new(cfg.clone()), Memory::new(cfg.clone()));
                if preload {
                    for m in [&mut got, &mut want] {
                        m.load(0x40, &vec![9; 5 * PAGE_WORDS]);
                    }
                }
                got.fill_zero(addr, words, times);
                for _ in 0..times {
                    for i in 0..words as u64 {
                        ok(want.write(addr + i, 0));
                    }
                }
                // An absent page equals a zeroed one: compare contents.
                assert_eq!(contents(&got), contents(&want), "burst {addr:#x}+{words}");
                assert_eq!(got.page_epochs, want.page_epochs, "burst {addr:#x}+{words}");
            }
        }
    }

    /// The image as one dense zeroed `Vec` with per-page epochs: the
    /// representation [`Memory`] had before paging, kept verbatim as the
    /// oracle for the paged image.
    struct DenseMemory {
        cfg: MemoryConfig,
        data: Vec<Word>,
        page_epochs: Vec<u64>,
    }

    impl DenseMemory {
        fn new(cfg: MemoryConfig) -> Self {
            let data = vec![0; cfg.size_words];
            let page_epochs = vec![0; cfg.size_words.div_ceil(PAGE_WORDS)];
            DenseMemory {
                cfg,
                data,
                page_epochs,
            }
        }

        fn peek(&self, addr: Addr) -> Option<Word> {
            self.data
                .get((addr.checked_sub(self.cfg.base)?) as usize)
                .copied()
        }

        fn poke(&mut self, addr: Addr, v: Word) {
            let i = (addr - self.cfg.base) as usize;
            self.data[i] = v;
            self.page_epochs[i / PAGE_WORDS] += 1;
        }

        fn load(&mut self, addr: Addr, words: &[Word]) {
            let start = (addr - self.cfg.base) as usize;
            self.data[start..start + words.len()].copy_from_slice(words);
            if !words.is_empty() {
                let last = (start + words.len() - 1) / PAGE_WORDS;
                for p in (start / PAGE_WORDS)..=last {
                    self.page_epochs[p] += 1;
                }
            }
        }

        fn fill_zero(&mut self, addr: Addr, words: usize) {
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

        fn read(&self, addr: Addr) -> Result<Word, ()> {
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

        /// The document [`Memory`] writes, for a memory that never served
        /// a port (busy times and statistics all zero).
        fn snapshot(&self) -> Json {
            let pairs = |v: &[u64]| {
                Json::Arr(
                    v.iter()
                        .enumerate()
                        .filter(|&(_, &x)| x != 0)
                        .map(|(i, &x)| Json::Arr(vec![ju64(i as u64), ju64(x)]))
                        .collect(),
                )
            };
            // Maximal runs of nonzero words, found on the dense image.
            let mut runs = Vec::new();
            let mut i = 0;
            while i < self.data.len() {
                if self.data[i] == 0 {
                    i += 1;
                    continue;
                }
                let start = i;
                while i < self.data.len() && self.data[i] != 0 {
                    i += 1;
                }
                let words = self.data[start..i].iter().map(|&w| ju64(w)).collect();
                runs.push(Json::Arr(vec![ju64(start as u64), Json::Arr(words)]));
            }
            let zero = ju64(0);
            Json::obj()
                .with("data", Json::Arr(runs))
                .with("page_epochs", pairs(&self.page_epochs))
                .with("bus_busy_until", zero.clone())
                .with("direct_busy_until", zero.clone())
                .with(
                    "stats",
                    Json::obj()
                        .with("reads", zero.clone())
                        .with("writes", zero.clone())
                        .with("words_read", zero.clone())
                        .with("words_written", zero.clone())
                        .with("direct_reads", zero.clone())
                        .with("direct_words", zero),
                )
        }

        /// The document's runs as `(index, word)` pairs, checked against
        /// the capacity run by run.
        fn doc_words(&self, state: &Json) -> SimResult<Vec<(usize, Word)>> {
            let mut out = Vec::new();
            for e in snap::arr_field(state, "data")? {
                let run = e.as_arr().filter(|r| r.len() == 2);
                let (start, words) = run
                    .and_then(|r| Some((ju64_of(&r[0])?, r[1].as_arr()?)))
                    .ok_or_else(|| snap::err("malformed memory word run"))?;
                if start + words.len() as u64 > self.data.len() as u64 {
                    return Err(snap::err(format!(
                        "memory run of {} words at {start} outside capacity",
                        words.len()
                    )));
                }
                for (k, w) in words.iter().enumerate() {
                    let w = ju64_of(w).ok_or_else(|| snap::err("malformed memory word"))?;
                    out.push((start as usize + k, w));
                }
            }
            Ok(out)
        }

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

        fn restore(&mut self, state: &Json) -> SimResult<()> {
            self.data.fill(0);
            for (i, w) in self.doc_words(state)? {
                self.data[i] = w;
            }
            self.page_epochs = self.doc_page_epochs(state)?;
            Ok(())
        }

        fn restore_live(&mut self, state: &Json) -> SimResult<()> {
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
                for (i, w) in self.doc_words(state)? {
                    if dirty[i / PAGE_WORDS] {
                        self.data[i] = w;
                    }
                }
            }
            self.page_epochs = doc_epochs;
            Ok(())
        }
    }

    /// A random word: zero a third of the time, so zero writes land on
    /// absent pages and clear words of present ones.
    fn random_word(rng: &mut Lcg) -> Word {
        if rng.range(0, 2) == 0 {
            0
        } else {
            rng.range(1, 1 << 20)
        }
    }

    /// Drive the paged [`Memory`] and the [`DenseMemory`] oracle through
    /// one random timeline of writes, preloads, pokes, bulk zero fills,
    /// captures, full restores into the dirty live image and live rewinds
    /// to earlier captures, and compare every read, peek, rejected access
    /// and snapshot document after each step.
    #[test]
    fn paged_image_matches_the_dense_oracle() {
        let mut rng = Lcg(0x7061_6765);
        for _ in 0..200 {
            // Capacities that are rarely a whole number of pages, a
            // nonzero base, and up to two poisoned ranges.
            let size = rng.range(1, 6 * PAGE_WORDS as u64 + 7);
            let base = rng.range(0, 3) * 0x1000 + rng.range(0, 90);
            let poison = (0..rng.range(0, 2))
                .map(|_| {
                    let low = base + rng.range(0, size - 1);
                    (low, low + rng.range(0, 5))
                })
                .collect();
            let cfg = MemoryConfig {
                base,
                size_words: size as usize,
                poison,
                ..MemoryConfig::default()
            };
            let mut paged = Memory::new(cfg.clone());
            let mut dense = DenseMemory::new(cfg.clone());
            // Every capture, and the captures on the live timeline (the
            // ones a live restore may rewind to).
            let (mut history, mut timeline): (Vec<Json>, Vec<Json>) = (Vec::new(), Vec::new());
            let top = base + size;
            for step in 0..120 {
                match rng.range(0, 9) {
                    0..=2 => {
                        // Single writes, a few falling just outside.
                        let addr = rng.range(base.saturating_sub(2), top + 1);
                        let v = random_word(&mut rng);
                        assert_eq!(
                            paged.write(addr, v),
                            dense.write(addr, v),
                            "write {addr:#x}"
                        );
                    }
                    3 => {
                        let start = rng.range(base, top - 1);
                        let words: Vec<Word> = (0..rng.range(0, top - start))
                            .map(|_| if rng.flip() { 0 } else { random_word(&mut rng) })
                            .collect();
                        paged.load(start, &words);
                        dense.load(start, &words);
                    }
                    4 => {
                        let addr = rng.range(base, top - 1);
                        let v = random_word(&mut rng);
                        paged.poke(addr, v);
                        dense.poke(addr, v);
                    }
                    5 => {
                        // The bus never coalesces over poisoned words.
                        let start = rng.range(base, top - 1);
                        let words = rng.range(0, (top - start).min(3 * PAGE_WORDS as u64));
                        if (start..start + words).all(|a| !cfg.poisoned(a)) {
                            paged.fill_zero(start, words as usize, 1);
                            dense.fill_zero(start, words as usize);
                        }
                    }
                    6 => {
                        let doc = ok(paged.snapshot());
                        history.push(doc.clone());
                        timeline.push(doc);
                    }
                    7 if !history.is_empty() => {
                        let doc = history[rng.range(0, history.len() as u64 - 1) as usize].clone();
                        ok(paged.restore(&doc));
                        ok(dense.restore(&doc));
                        timeline = vec![doc];
                    }
                    8 if !timeline.is_empty() => {
                        // Rewind; captures after the target belong to the
                        // abandoned branch and are forgotten.
                        let k = rng.range(0, timeline.len() as u64 - 1) as usize;
                        timeline.truncate(k + 1);
                        ok(paged.restore_live(&timeline[k]));
                        ok(dense.restore_live(&timeline[k]));
                    }
                    _ => {}
                }
                let at = format!("step {step} of {cfg:?}");
                assert_eq!(ok(paged.snapshot()), dense.snapshot(), "{at}");
                for addr in base.saturating_sub(1)..=top {
                    assert_eq!(paged.peek(addr), dense.peek(addr), "peek {addr:#x}, {at}");
                    assert_eq!(paged.read(addr), dense.read(addr), "read {addr:#x}, {at}");
                }
            }
        }
    }

    /// The image is written as maximal runs of nonzero words: a run
    /// continues across a page boundary, and a zero word ends it. Both
    /// restore paths read the runs back.
    #[test]
    fn image_runs_straddle_pages_and_split_at_zeros() {
        let cfg = MemoryConfig {
            base: 0x40,
            size_words: 4 * PAGE_WORDS,
            ..MemoryConfig::default()
        };
        let mut m = Memory::new(cfg.clone());
        let page = PAGE_WORDS as u64;
        // Words page-3..page+5 (one run over the page boundary), a zero at
        // page+2 splitting it, a lone word, and a run ending the image.
        let words: Vec<(u64, Word)> = (page - 3..page + 5)
            .filter(|&i| i != page + 2)
            .map(|i| (i, i + 1))
            .chain([(2 * page + 7, 9)])
            .chain((4 * page - 2..4 * page).map(|i| (i, 7)))
            .collect();
        for &(i, w) in &words {
            ok(m.write(0x40 + i, w));
        }
        let doc = ok(m.snapshot());
        let run = |start: u64, ws: &[u64]| {
            Json::Arr(vec![
                ju64(start),
                Json::Arr(ws.iter().map(|&w| ju64(w)).collect()),
            ])
        };
        let p = page;
        assert_eq!(
            snap::field(&doc, "data").ok(),
            Some(&Json::Arr(vec![
                run(p - 3, &[p - 2, p - 1, p, p + 1, p + 2]),
                run(p + 3, &[p + 4, p + 5]),
                run(2 * p + 7, &[9]),
                run(4 * p - 2, &[7, 7]),
            ]))
        );
        let check = |r: &Memory| {
            for i in 0..4 * page {
                let want = words.iter().find(|e| e.0 == i).map_or(0, |e| e.1);
                assert_eq!(r.peek(0x40 + i), Some(want), "word {i}");
            }
        };
        let mut fresh = Memory::new(cfg.clone());
        ok(fresh.restore(&doc));
        check(&fresh);
        // A live rewind refills the pages written since the capture.
        ok(m.write(0x40 + page + 1, 0));
        ok(m.write(0x40 + 2 * page + 7, 3));
        ok(m.restore_live(&doc));
        check(&m);
        assert_eq!(ok(m.snapshot()), doc);
    }

    /// A document naming a word or page past the capacity is refused the
    /// same way by both restore paths and by the oracle.
    #[test]
    fn restore_refuses_entries_outside_capacity() {
        let cfg = MemoryConfig {
            base: 0x80,
            size_words: PAGE_WORDS + 3,
            ..MemoryConfig::default()
        };
        let mut m = Memory::new(cfg.clone());
        ok(m.write(0x80 + PAGE_WORDS as u64 + 2, 5));
        let doc = ok(m.snapshot());
        let with = |key: &str, entry: Json| {
            let Json::Obj(mut fields) = doc.clone() else {
                unreachable!("a memory snapshot is an object")
            };
            for (k, v) in &mut fields {
                if k == key {
                    if let Json::Arr(list) = v {
                        list.push(entry.clone());
                    }
                }
            }
            Json::Obj(fields)
        };
        let pair = |a: u64, b: Json| Json::Arr(vec![ju64(a), b]);
        // A run whose first word is the last in range and whose second is not.
        let past_word = with(
            "data",
            pair(PAGE_WORDS as u64 + 2, Json::Arr(vec![ju64(1), ju64(1)])),
        );
        let past_page = with("page_epochs", pair(2, ju64(1)));
        for bad in [&past_word, &past_page] {
            let want = DenseMemory::new(cfg.clone())
                .restore(bad)
                .map_err(|e| e.to_string());
            let got = Memory::new(cfg.clone())
                .restore(bad)
                .map_err(|e| e.to_string());
            assert!(want.is_err());
            assert_eq!(got, want);
            // A live rewind onto a memory whose epochs differ parses it too.
            let mut live = Memory::new(cfg.clone());
            ok(live.write(0x80, 1));
            let mut oracle = DenseMemory::new(cfg.clone());
            ok(oracle.write(0x80, 1));
            assert_eq!(
                live.restore_live(bad).map_err(|e| e.to_string()),
                oracle.restore_live(bad).map_err(|e| e.to_string())
            );
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
