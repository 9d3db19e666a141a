//! Deterministic snapshot & restore of simulator state.
//!
//! A [`Snapshot`] is a JSON document capturing everything dynamic about a
//! simulation — current time, the global sequence counter, every pending
//! timed event (with its original sequence number, so the restored run
//! dispatches in exactly the same `(time, seq)` total order), signal and
//! FIFO contents, clock phases, subscriptions created by `Start` handlers,
//! kernel metrics, trace buffers, and each component's model state.
//!
//! The contract the round-trip tests enforce: for any time `t`,
//!
//! ```text
//! run_until(t); snapshot(); restore-into-fresh-sim; run()
//! ```
//!
//! produces *bit-identical* observable results (stats, records, trace event
//! streams) to a single uninterrupted `run()`. Restoring never replays
//! `Start` — subscriptions are part of the snapshot — and the snapshot
//! contains no wall-clock or RNG state, so it is reproducible by
//! construction.
//!
//! Static configuration (component graph, channel names, clock periods,
//! address maps …) is deliberately **not** captured: a snapshot is restored
//! into a freshly built simulator of the same shape. That split is what
//! makes warm-fork DSE sweeps work — the shared prefix is snapshot once,
//! then each sweep point rebuilds its (parameter-varied) world and restores
//! the common dynamic state into it.
//!
//! The report log ([`crate::report::Reporter`]) is intentionally excluded:
//! it is a diagnostic artifact of a particular process, not simulation
//! state, and restoring it would duplicate entries already surfaced to the
//! user when the prefix ran.
//!
//! In-flight user payloads (`MsgKind::User(Box<dyn Payload>)`) encode
//! themselves: every type sent through the kernel implements [`Codec`], so
//! sending a type without one does not compile. Decoding looks the codec
//! name up in the simulator's own table of [`Decoder`]s, which its
//! components declare (`Component::decoders`); an unknown name is a typed
//! error. Signal and FIFO values encode through [`SnapPrim`], the bound of
//! `add_signal`/`add_fifo`. Nothing here is registered process-wide.

use std::any::Any;
use std::collections::HashSet;
use std::sync::{Mutex, OnceLock};

use crate::error::{SimError, SimErrorKind, SimResult};
use crate::json::{ji64, ji64_of, ju64, ju64_of, Json};
use crate::signal::SignalValue;

/// Schema identifier embedded in every snapshot document.
pub const SNAPSHOT_SCHEMA: &str = "drcf-snapshot-v2";

/// Schema identifier embedded in every delta-snapshot document.
pub const DELTA_SCHEMA: &str = "drcf-snapshot-delta-v2";

/// Marker a delta document carries in place of a heavy global (tracer,
/// recorder) whose mutation epoch is unchanged since the parent capture.
/// Unambiguous because every real payload in those positions is an object
/// or `null`, never a bare string.
pub const UNCHANGED_MARK: &str = "unchanged";

/// The [`UNCHANGED_MARK`] as a JSON value.
pub fn unchanged_mark() -> Json {
    Json::from(UNCHANGED_MARK)
}

/// Whether `j` is the [`UNCHANGED_MARK`].
pub fn is_unchanged_mark(j: &Json) -> bool {
    matches!(j, Json::Str(s) if s == UNCHANGED_MARK)
}

/// A serialized simulation state (see the module docs for the contract).
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    state: Json,
    /// FNV-1a 64 of the compact rendering, computed once at construction.
    /// Delta chaining compares parent hashes on every fork, so the
    /// fingerprint is cached instead of re-streaming the document.
    hash: u64,
    /// Compact-rendering byte length (size accounting for the perf bench).
    bytes: u64,
}

impl Snapshot {
    /// Wrap a state document produced by `Simulator::snapshot`.
    pub(crate) fn from_state(state: Json) -> Snapshot {
        let (hash, bytes) = state.fnv1a64_with_len();
        Snapshot { state, hash, bytes }
    }

    /// The underlying JSON document.
    pub fn json(&self) -> &Json {
        &self.state
    }

    /// Serialize (pretty-printed, suitable for a file).
    pub fn to_text(&self) -> String {
        self.state.to_string_pretty()
    }

    /// FNV-1a (64-bit) fingerprint of the canonical compact rendering —
    /// the same value `Simulator::state_hash` reports. Useful for cheap
    /// replay validation: hash a stored snapshot and compare against a
    /// re-simulated run without diffing full documents. Cached at
    /// construction, so calling it is free.
    pub fn state_hash(&self) -> u64 {
        self.hash
    }

    /// Byte length of the compact rendering (what `json().to_string()`
    /// would occupy). Cached at construction.
    pub fn byte_len(&self) -> u64 {
        self.bytes
    }

    /// Parse a snapshot previously written with [`Snapshot::to_text`],
    /// validating the schema marker.
    pub fn parse(text: &str) -> SimResult<Snapshot> {
        let state = Json::parse(text).map_err(|e| err(format!("snapshot parse failed: {e}")))?;
        match state.get("schema").and_then(Json::as_str) {
            Some(SNAPSHOT_SCHEMA) => Ok(Snapshot::from_state(state)),
            Some(other) => Err(err(format!(
                "snapshot schema mismatch: expected {SNAPSHOT_SCHEMA}, found {other}"
            ))),
            None => Err(err("snapshot document has no schema field")),
        }
    }

    /// Parse a *stored* snapshot and validate its content against the
    /// state hash recorded when it was written (the snapshot-store
    /// cache-validation idiom). A document that parses but hashes
    /// differently — truncated tail, bit flip, stale overwrite — is a
    /// typed [`SimErrorKind::SnapshotChain`] error, so callers can fall
    /// back to a cold re-simulation instead of restoring a wrong state.
    pub fn parse_validated(text: &str, expected_hash: u64) -> SimResult<Snapshot> {
        let snap = Snapshot::parse(text).map_err(|e| {
            SimError::new(
                SimErrorKind::SnapshotChain,
                format!("stored snapshot is unreadable: {}", e.message),
            )
        })?;
        if snap.state_hash() != expected_hash {
            return Err(SimError::new(
                SimErrorKind::SnapshotChain,
                format!(
                    "stored snapshot hashes to {:016x}, expected {expected_hash:016x} \
                     (corrupt or stale store entry)",
                    snap.state_hash()
                ),
            ));
        }
        Ok(snap)
    }
}

/// An incremental snapshot: only the components/channels that changed since
/// a parent snapshot, chained to that parent by its state hash.
///
/// Produced by `Simulator::snapshot_delta` and applied with
/// `Simulator::restore_delta`, which patches a *live* simulator standing at
/// the parent state instead of rebuilding one. The document records both
/// the parent hash (what the live state must equal before applying) and the
/// child hash (what `state_hash()` reports after a faithful apply), so a
/// chain of deltas validates end to end: [`SnapshotChain::push`] checks the
/// links, [`SnapshotChain::restore_into`] the state they produce.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotDelta {
    state: Json,
    parent: u64,
    child: u64,
    bytes: u64,
}

impl SnapshotDelta {
    /// Wrap a delta document produced by `Simulator::snapshot_delta`,
    /// validating the schema marker and extracting the chain hashes.
    pub(crate) fn from_state(state: Json) -> SimResult<SnapshotDelta> {
        match state.get("schema").and_then(Json::as_str) {
            Some(DELTA_SCHEMA) => {}
            Some(other) => {
                return Err(err(format!(
                    "delta schema mismatch: expected {DELTA_SCHEMA}, found {other}"
                )))
            }
            None => return Err(err("delta document has no schema field")),
        }
        let parent = u64_field(&state, "parent")?;
        let child = u64_field(&state, "child")?;
        let (_, bytes) = state.fnv1a64_with_len();
        Ok(SnapshotDelta {
            state,
            parent,
            child,
            bytes,
        })
    }

    /// The underlying JSON document.
    pub fn json(&self) -> &Json {
        &self.state
    }

    /// Serialize (pretty-printed, suitable for a file).
    pub fn to_text(&self) -> String {
        self.state.to_string_pretty()
    }

    /// State hash of the snapshot this delta chains onto: the live
    /// simulator must be at exactly this state for `restore_delta`.
    pub fn parent_hash(&self) -> u64 {
        self.parent
    }

    /// State hash after this delta is applied (the full-snapshot hash of
    /// the child state).
    pub fn child_hash(&self) -> u64 {
        self.child
    }

    /// Compact-rendering byte length — the size the delta actually costs,
    /// versus `Snapshot::byte_len` for the full document.
    pub fn byte_len(&self) -> u64 {
        self.bytes
    }

    /// Parse a delta previously written with [`SnapshotDelta::to_text`].
    pub fn parse(text: &str) -> SimResult<SnapshotDelta> {
        let state = Json::parse(text).map_err(|e| err(format!("delta parse failed: {e}")))?;
        SnapshotDelta::from_state(state)
    }
}

/// One link of a snapshot chain: either a full (rebase) document or a delta
/// chained onto the previous link.
#[derive(Debug, Clone, PartialEq)]
pub enum ChainDoc {
    /// A full snapshot — the chain can be entered (restored) here.
    Full(Snapshot),
    /// An incremental delta onto the preceding link.
    Delta(SnapshotDelta),
}

impl ChainDoc {
    /// Parse a document that may be either a full snapshot or a delta,
    /// dispatching on the schema marker.
    pub fn parse(text: &str) -> SimResult<ChainDoc> {
        let state = Json::parse(text).map_err(|e| err(format!("snapshot parse failed: {e}")))?;
        match state.get("schema").and_then(Json::as_str) {
            Some(SNAPSHOT_SCHEMA) => Ok(ChainDoc::Full(Snapshot::from_state(state))),
            Some(DELTA_SCHEMA) => Ok(ChainDoc::Delta(SnapshotDelta::from_state(state)?)),
            Some(other) => Err(err(format!(
                "unknown snapshot schema {other:?} (expected {SNAPSHOT_SCHEMA} or {DELTA_SCHEMA})"
            ))),
            None => Err(err("snapshot document has no schema field")),
        }
    }

    /// State hash after this link is applied.
    pub fn tip_hash(&self) -> u64 {
        match self {
            ChainDoc::Full(s) => s.state_hash(),
            ChainDoc::Delta(d) => d.child_hash(),
        }
    }

    /// Serialize (pretty-printed, suitable for a file).
    pub fn to_text(&self) -> String {
        match self {
            ChainDoc::Full(s) => s.to_text(),
            ChainDoc::Delta(d) => d.to_text(),
        }
    }

    /// Compact-rendering byte length.
    pub fn byte_len(&self) -> u64 {
        match self {
            ChainDoc::Full(s) => s.byte_len(),
            ChainDoc::Delta(d) => d.byte_len(),
        }
    }

    /// Parse a *stored* chain link and validate it against the tip hash
    /// recorded when it was written (see [`Snapshot::parse_validated`]).
    /// For a full document the tip is its own state hash; for a delta it
    /// is the child hash, whose declared value is checked against the
    /// expectation so a corrupted link surfaces as a typed
    /// [`SimErrorKind::SnapshotChain`] error rather than a wrong restore.
    pub fn parse_validated(text: &str, expected_tip: u64) -> SimResult<ChainDoc> {
        let doc = ChainDoc::parse(text).map_err(|e| {
            SimError::new(
                SimErrorKind::SnapshotChain,
                format!("stored chain link is unreadable: {}", e.message),
            )
        })?;
        if doc.tip_hash() != expected_tip {
            return Err(SimError::new(
                SimErrorKind::SnapshotChain,
                format!(
                    "stored chain link tips at {:016x}, expected {expected_tip:016x} \
                     (corrupt or stale store entry)",
                    doc.tip_hash()
                ),
            ));
        }
        Ok(doc)
    }
}

/// A checkpoint chain: one full base snapshot followed by deltas, with a
/// periodic full-snapshot rebase every `delta_chain` links so restore cost
/// and failure blast radius stay bounded (DESIGN.md §15).
///
/// `checkpoint` captures the next link from a live simulator (delta against
/// the current tip, or a full rebase when the chain since the last full
/// document reaches `delta_chain`); `push` validates and appends documents
/// read back from disk; `restore_into` replays the whole chain into a
/// freshly built simulator and checks that it lands on the tip.
#[derive(Debug, Clone)]
pub struct SnapshotChain {
    docs: Vec<ChainDoc>,
    /// Rebase period: after this many consecutive deltas the next
    /// checkpoint is a full snapshot. `0` disables deltas entirely (every
    /// checkpoint is full).
    delta_chain: usize,
}

impl SnapshotChain {
    /// Start a chain from a full base snapshot.
    pub fn new(base: Snapshot, delta_chain: usize) -> SnapshotChain {
        SnapshotChain {
            docs: vec![ChainDoc::Full(base)],
            delta_chain,
        }
    }

    /// The rebase period.
    pub fn delta_chain(&self) -> usize {
        self.delta_chain
    }

    /// All links, oldest first (the first is always a full snapshot).
    pub fn docs(&self) -> &[ChainDoc] {
        &self.docs
    }

    /// Number of links in the chain.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// A chain always has at least its base document.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// State hash at the tip of the chain.
    pub fn tip_hash(&self) -> u64 {
        // The chain is never empty: `new` seeds the base document.
        self.docs.last().map_or(0, ChainDoc::tip_hash)
    }

    /// Consecutive deltas since the most recent full document.
    fn deltas_since_rebase(&self) -> usize {
        self.docs
            .iter()
            .rev()
            .take_while(|d| matches!(d, ChainDoc::Delta(_)))
            .count()
    }

    /// Capture the next checkpoint from a live simulator: a delta against
    /// the current tip, or a full rebase once `delta_chain` consecutive
    /// deltas have accumulated (and always when `delta_chain` is 0).
    /// Returns the document just appended, for the caller to persist, and
    /// the full state at the new tip, from the same single capture.
    pub fn checkpoint(
        &mut self,
        sim: &mut crate::kernel::Simulator,
    ) -> SimResult<(&ChainDoc, Snapshot)> {
        let (doc, full) = if self.delta_chain == 0 || self.deltas_since_rebase() >= self.delta_chain
        {
            let full = sim.snapshot()?;
            (ChainDoc::Full(full.clone()), full)
        } else {
            let (delta, full) = sim.snapshot_delta(self.tip_hash())?;
            (ChainDoc::Delta(delta), full)
        };
        self.docs.push(doc);
        match self.docs.last() {
            Some(d) => Ok((d, full)),
            None => Err(err("snapshot chain invariant broken: empty after push")),
        }
    }

    /// Replay the chain into a freshly built simulator: restore the most
    /// recent full document, then apply every delta after it. Rebasing is
    /// what keeps this bounded — at most `delta_chain` deltas ever need
    /// applying.
    ///
    /// `push` checks only a delta's declared hashes, which say nothing
    /// about its body. So once a delta has been applied, the live state is
    /// captured and its hash checked against the chain's tip: a tampered
    /// body is a typed [`SimErrorKind::SnapshotChain`] error, never a wrong
    /// state. Returns that verified capture of the tip, or `None` when the
    /// chain is entered at its tip (a full document is its own hash).
    pub fn restore_into(&self, sim: &mut crate::kernel::Simulator) -> SimResult<Option<Snapshot>> {
        let start = self
            .docs
            .iter()
            .rposition(|d| matches!(d, ChainDoc::Full(_)))
            .ok_or_else(|| err("snapshot chain has no full document to restore from"))?;
        if let ChainDoc::Full(base) = &self.docs[start] {
            sim.restore(base)?;
        }
        let deltas = &self.docs[start + 1..];
        for doc in deltas {
            match doc {
                ChainDoc::Delta(d) => sim.restore_delta(d)?,
                ChainDoc::Full(_) => {
                    return Err(err(
                        "snapshot chain has a full document after the last rebase",
                    ))
                }
            }
        }
        if deltas.is_empty() {
            return Ok(None);
        }
        let tip = sim.snapshot()?;
        if tip.state_hash() != self.tip_hash() {
            return Err(SimError::new(
                SimErrorKind::SnapshotChain,
                format!(
                    "snapshot chain restores to {:016x}, but its tip declares {:016x} \
                     (a delta body does not match its hashes)",
                    tip.state_hash(),
                    self.tip_hash()
                ),
            ));
        }
        Ok(Some(tip))
    }

    /// Append a document read back from storage, validating the chain
    /// linkage: a delta must name the current tip as its parent.
    pub fn push(&mut self, doc: ChainDoc) -> SimResult<()> {
        if let ChainDoc::Delta(d) = &doc {
            let tip = self.tip_hash();
            if d.parent_hash() != tip {
                return Err(SimError::new(
                    SimErrorKind::SnapshotChain,
                    format!(
                        "delta parent hash {:016x} does not match chain tip {:016x}",
                        d.parent_hash(),
                        tip
                    ),
                ));
            }
        }
        self.docs.push(doc);
        Ok(())
    }
}

/// Anything that can capture and restore its dynamic state as JSON.
///
/// Model crates implement this for stats blocks, ports and other plain
/// state holders; [`crate::component::Component`] has equivalent
/// `snapshot`/`restore` hooks for the polymorphic component slots.
pub trait Snapshotable {
    /// Capture dynamic state. Must be a pure function of model state —
    /// no wall-clock, RNG, or environment reads.
    fn snapshot_json(&self) -> Json;
    /// Restore state captured by [`Snapshotable::snapshot_json`] on a
    /// freshly constructed value.
    fn restore_json(&mut self, state: &Json) -> SimResult<()>;
}

/// Construct the typed error all snapshot/restore failures use.
pub fn err(msg: impl Into<String>) -> SimError {
    SimError::new(SimErrorKind::Validation, msg)
}

// ---------------------------------------------------------------------------
// Payload and channel-value codecs
// ---------------------------------------------------------------------------

/// The snapshot encoding of one message payload type.
///
/// [`Api::send`](crate::kernel::Api::send) accepts only [`Payload`]s, which
/// every `Codec` type is, so a payload caught in flight by a snapshot
/// always encodes: a type without a codec is a compile error, not a failed
/// snapshot. The document form is `{"codec": NAME, "data": encode()}`;
/// decoding goes through the [`Decoder`]s the receiving components declare
/// ([`Component::decoders`](crate::component::Component::decoders)).
pub trait Codec: Any + Sized {
    /// Stable codec name, written into the snapshot document.
    const NAME: &'static str;
    /// The payload's data document.
    fn encode(&self) -> Json;
    /// Decode a data document written by [`Codec::encode`]; `None` when it
    /// is malformed.
    fn decode(data: &Json) -> Option<Self>;
}

/// Implement [`Codec`] for a struct whose named fields are all
/// [`SnapPrim`] values: the document is an object with one entry per
/// field, in the order given.
///
/// ```
/// struct Done {
///     tag: u64,
///     words: usize,
/// }
/// drcf_kernel::field_codec!(Done, "doc.Done", tag, words);
/// ```
#[macro_export]
macro_rules! field_codec {
    ($t:ty, $name:literal, $($f:ident),+) => {
        impl $crate::snapshot::Codec for $t {
            const NAME: &'static str = $name;
            fn encode(&self) -> $crate::json::Json {
                $crate::json::Json::obj()
                    $(.with(stringify!($f), $crate::snapshot::SnapPrim::enc(&self.$f)))+
            }
            fn decode(data: &$crate::json::Json) -> Option<Self> {
                Some(Self {
                    $($f: $crate::snapshot::SnapPrim::dec(data.get(stringify!($f))?)?),+
                })
            }
        }
    };
}

/// The object-safe face of a [`Codec`]: what `MsgKind::User` holds.
pub trait Payload: Any {
    /// The codec name ([`Codec::NAME`]).
    fn codec_name(&self) -> &'static str;
    /// The data document ([`Codec::encode`]).
    fn encode_data(&self) -> Json;
}

impl<T: Codec> Payload for T {
    fn codec_name(&self) -> &'static str {
        T::NAME
    }

    fn encode_data(&self) -> Json {
        self.encode()
    }
}

/// Decodes one payload type, found by its codec name. A crate exports its
/// payload types' decoders as one `const` slice of [`Decoder::of`].
#[derive(Clone, Copy)]
pub struct Decoder {
    /// The codec name ([`Codec::NAME`]).
    pub name: &'static str,
    /// Decode a data document into a fresh boxed payload.
    pub decode: fn(&Json) -> Option<Box<dyn Payload>>,
}

fn decode_boxed<T: Codec>(data: &Json) -> Option<Box<dyn Payload>> {
    Some(Box::new(T::decode(data)?))
}

impl Decoder {
    /// The decoder of payload type `T`.
    pub const fn of<T: Codec>() -> Decoder {
        Decoder {
            name: T::NAME,
            decode: decode_boxed::<T>,
        }
    }
}

/// `{"codec": <name>, "data": <codec document>}` of an in-flight payload.
pub(crate) fn payload_json(payload: &dyn Payload) -> Json {
    Json::obj()
        .with("codec", Json::from(payload.codec_name()))
        .with("data", payload.encode_data())
}

/// The decoders one simulator knows: the slices its components declared.
#[derive(Default)]
pub(crate) struct DecoderTable {
    slices: Vec<&'static [Decoder]>,
}

impl DecoderTable {
    /// Add a component's declared slice. A slice already in the table is
    /// skipped by address, which costs nothing per component; a copy that
    /// slips through only repeats names, and the first match wins.
    pub(crate) fn add(&mut self, decoders: &'static [Decoder]) {
        if !decoders.is_empty() && !self.slices.iter().any(|s| std::ptr::eq(*s, decoders)) {
            self.slices.push(decoders);
        }
    }

    /// Decode a payload document written by [`payload_json`]. A codec name
    /// no slice declares is a typed error.
    pub(crate) fn decode(&self, doc: &Json) -> SimResult<Box<dyn Payload>> {
        let name = str_field(doc, "codec")?;
        let data = field(doc, "data")?;
        let decoder = self
            .slices
            .iter()
            .flat_map(|s| s.iter())
            .find(|d| d.name == name)
            .ok_or_else(|| err(format!("unknown payload codec {name:?}")))?;
        (decoder.decode)(data)
            .ok_or_else(|| err(format!("payload codec {name:?} rejected its data")))
    }
}

/// Value types a signal or FIFO can carry: each writes its values, tagged
/// with [`SnapPrim::TAG`], into the snapshot document.
/// [`Simulator::add_signal`](crate::kernel::Simulator::add_signal) and
/// [`Simulator::add_fifo`](crate::kernel::Simulator::add_fifo) require it,
/// so every channel can be captured; restoring an entry whose tag is not
/// the channel's own is a typed error.
pub trait SnapPrim: SignalValue {
    /// Type tag written beside the channel's values.
    const TAG: &'static str;
    /// Encode one value.
    fn enc(&self) -> Json;
    /// Decode one value; `None` when it is malformed or out of range.
    fn dec(j: &Json) -> Option<Self>;
}

macro_rules! snap_prim {
    ($($t:ty => $tag:literal, |$v:ident| $enc:expr, |$j:ident| $dec:expr;)*) => {$(
        impl SnapPrim for $t {
            const TAG: &'static str = $tag;
            fn enc(&self) -> Json {
                let $v = *self;
                $enc
            }
            fn dec($j: &Json) -> Option<$t> {
                $dec
            }
        }
    )*};
}

snap_prim! {
    bool => "bool", |v| Json::Bool(v), |j| j.as_bool();
    u8 => "u8", |v| Json::Num(v.into()), |j| u8::try_from(j.as_u64()?).ok();
    u16 => "u16", |v| Json::Num(v.into()), |j| u16::try_from(j.as_u64()?).ok();
    u32 => "u32", |v| Json::Num(v.into()), |j| u32::try_from(j.as_u64()?).ok();
    u64 => "u64", |v| ju64(v), |j| ju64_of(j);
    usize => "usize", |v| ju64(v as u64), |j| usize::try_from(ju64_of(j)?).ok();
    i32 => "i32", |v| Json::Num(v.into()), |j| i32::try_from(ji64_of(j)?).ok();
    i64 => "i64", |v| ji64(v), |j| ji64_of(j);
    f64 => "f64", |v| Json::Num(v), |j| j.as_f64();
}

/// Check a channel entry's type tag against the channel's own `T`.
pub(crate) fn check_tag<T: SnapPrim>(what: &str, name: &str, state: &Json) -> SimResult<()> {
    let tag = str_field(state, "type")?;
    if tag == T::TAG {
        return Ok(());
    }
    Err(err(format!(
        "unknown {what} type tag {tag:?} ({what} {name:?} holds {})",
        T::TAG
    )))
}

// ---------------------------------------------------------------------------
// Static-string interning (trace event names survive the round trip)
// ---------------------------------------------------------------------------

/// Return a `&'static str` equal to `s`. Structured-trace event names are
/// `&'static str` so recording never allocates; restoring a snapshot needs
/// to materialize names parsed from JSON, which this process-global intern
/// table does (each distinct name is leaked exactly once).
pub fn intern(s: &str) -> &'static str {
    static TABLE: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let table = TABLE.get_or_init(|| Mutex::new(HashSet::new()));
    let Ok(mut set) = table.lock() else {
        // Poisoned table: fall back to a fresh leak. Correct, merely
        // wasteful, and only reachable after a panic mid-intern.
        return Box::leak(s.to_string().into_boxed_str());
    };
    if let Some(&existing) = set.get(s) {
        return existing;
    }
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    set.insert(leaked);
    leaked
}

// ---------------------------------------------------------------------------
// Field-access helpers (shared by every restore implementation)
// ---------------------------------------------------------------------------

/// Required object field.
pub fn field<'a>(j: &'a Json, key: &str) -> SimResult<&'a Json> {
    j.get(key)
        .ok_or_else(|| err(format!("snapshot field {key:?} missing")))
}

/// Required `u64` field (accepts the lossless [`crate::json::ju64`] forms).
pub fn u64_field(j: &Json, key: &str) -> SimResult<u64> {
    crate::json::ju64_of(field(j, key)?)
        .ok_or_else(|| err(format!("snapshot field {key:?} is not a u64")))
}

/// Required `usize` field.
pub fn usize_field(j: &Json, key: &str) -> SimResult<usize> {
    Ok(u64_field(j, key)? as usize)
}

/// Required `i64` field (accepts the lossless [`crate::json::ji64`] forms).
pub fn i64_field(j: &Json, key: &str) -> SimResult<i64> {
    crate::json::ji64_of(field(j, key)?)
        .ok_or_else(|| err(format!("snapshot field {key:?} is not an i64")))
}

/// Required `f64` field.
pub fn f64_field(j: &Json, key: &str) -> SimResult<f64> {
    field(j, key)?
        .as_f64()
        .ok_or_else(|| err(format!("snapshot field {key:?} is not a number")))
}

/// Required boolean field.
pub fn bool_field(j: &Json, key: &str) -> SimResult<bool> {
    field(j, key)?
        .as_bool()
        .ok_or_else(|| err(format!("snapshot field {key:?} is not a bool")))
}

/// Required string field.
pub fn str_field<'a>(j: &'a Json, key: &str) -> SimResult<&'a str> {
    field(j, key)?
        .as_str()
        .ok_or_else(|| err(format!("snapshot field {key:?} is not a string")))
}

/// Required array field.
pub fn arr_field<'a>(j: &'a Json, key: &str) -> SimResult<&'a [Json]> {
    field(j, key)?
        .as_arr()
        .ok_or_else(|| err(format!("snapshot field {key:?} is not an array")))
}

/// Decode an array of `u64` values (component-id lists, subscriber lists).
pub fn u64_list(j: &Json, key: &str) -> SimResult<Vec<u64>> {
    arr_field(j, key)?
        .iter()
        .map(|v| {
            crate::json::ju64_of(v)
                .ok_or_else(|| err(format!("snapshot field {key:?} has a non-u64 element")))
        })
        .collect()
}

/// Decode an array of `usize` values.
pub fn usize_list(j: &Json, key: &str) -> SimResult<Vec<usize>> {
    Ok(u64_list(j, key)?.into_iter().map(|v| v as usize).collect())
}

/// Encode a list of `usize` (subscriber lists and similar).
pub fn usize_list_json(v: &[usize]) -> Json {
    Json::Arr(v.iter().map(|&x| crate::json::ju64(x as u64)).collect())
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct TestPayload {
        a: u64,
    }

    impl Codec for TestPayload {
        const NAME: &'static str = "test-payload";
        fn encode(&self) -> Json {
            Json::obj().with("a", ju64(self.a))
        }
        fn decode(data: &Json) -> Option<TestPayload> {
            Some(TestPayload {
                a: ju64_of(data.get("a")?)?,
            })
        }
    }

    const TEST_DECODERS: &[Decoder] = &[Decoder::of::<TestPayload>()];

    fn table() -> DecoderTable {
        let mut t = DecoderTable::default();
        t.add(TEST_DECODERS);
        t.add(TEST_DECODERS);
        t.add(&[]);
        t
    }

    #[test]
    fn payload_codec_round_trips() {
        let t = table();
        let doc = payload_json(&TestPayload { a: 1 << 60 });
        assert_eq!(doc.get("codec").unwrap().as_str(), Some("test-payload"));
        let back = t.decode(&doc).unwrap();
        let p = (back.as_ref() as &dyn Any).downcast_ref::<TestPayload>();
        assert_eq!(p, Some(&TestPayload { a: 1 << 60 }));
        let bad = Json::obj()
            .with("codec", Json::from("test-payload"))
            .with("data", Json::obj());
        let Err(e) = t.decode(&bad) else {
            panic!("malformed data decoded")
        };
        assert!(e.message.contains("rejected its data"), "{e}");
    }

    #[test]
    fn unknown_codec_name_is_a_typed_error() {
        let doc = Json::obj()
            .with("codec", Json::from("no-such-codec"))
            .with("data", Json::obj());
        for t in [DecoderTable::default(), table()] {
            let Err(e) = t.decode(&doc) else {
                panic!("unknown codec decoded")
            };
            assert_eq!(e.kind, SimErrorKind::Validation);
            assert!(e.message.contains("unknown payload codec"), "{e}");
        }
    }

    #[test]
    fn intern_deduplicates() {
        let a = intern("snapshot-test-name");
        let b = intern(&String::from("snapshot-test-name"));
        assert!(std::ptr::eq(a, b));
        assert_eq!(a, "snapshot-test-name");
    }

    #[test]
    fn snapshot_text_round_trip_validates_schema() {
        let s = Snapshot::from_state(
            Json::obj()
                .with("schema", Json::from(SNAPSHOT_SCHEMA))
                .with("now", crate::json::ju64(42)),
        );
        let text = s.to_text();
        let back = Snapshot::parse(&text).unwrap();
        assert_eq!(&back, &s);
        assert!(Snapshot::parse("{}").is_err());
        assert!(Snapshot::parse("{\"schema\":\"other\"}").is_err());
        assert!(Snapshot::parse("not json").is_err());
    }

    /// Documents of the previous version are not read: a v1 full or delta
    /// document is a typed error through every parser, naming the schema
    /// it expected.
    #[test]
    fn v1_documents_are_typed_errors() {
        let full = "{\"schema\":\"drcf-snapshot-v1\",\"now\":0}";
        let delta = "{\"schema\":\"drcf-snapshot-delta-v1\",\"parent\":1,\"child\":2}";
        let errors = [
            Snapshot::parse(full).map(|_| ()),
            ChainDoc::parse(full).map(|_| ()),
            SnapshotDelta::parse(delta).map(|_| ()),
            ChainDoc::parse(delta).map(|_| ()),
        ];
        for e in errors {
            let e = e.expect_err("a v1 document is refused");
            assert_eq!(e.kind, SimErrorKind::Validation, "{e}");
            assert!(
                e.message.contains(SNAPSHOT_SCHEMA) || e.message.contains(DELTA_SCHEMA),
                "{e}"
            );
        }
        // The current schemas still parse.
        assert!(Snapshot::parse(&full.replace("drcf-snapshot-v1", SNAPSHOT_SCHEMA)).is_ok());
        assert!(
            SnapshotDelta::parse(&delta.replace("drcf-snapshot-delta-v1", DELTA_SCHEMA)).is_ok()
        );
    }

    #[test]
    fn field_helpers_report_missing_and_mistyped() {
        let j = Json::obj()
            .with("n", Json::Num(7.0))
            .with("s", Json::from("x"))
            .with("b", Json::Bool(true))
            .with("a", Json::Arr(vec![Json::Num(1.0)]))
            .with("i", crate::json::ji64(-5));
        assert_eq!(u64_field(&j, "n").unwrap(), 7);
        assert_eq!(str_field(&j, "s").unwrap(), "x");
        assert!(bool_field(&j, "b").unwrap());
        assert_eq!(arr_field(&j, "a").unwrap().len(), 1);
        assert_eq!(i64_field(&j, "i").unwrap(), -5);
        assert!(field(&j, "missing").is_err());
        assert!(u64_field(&j, "s").is_err());
        assert!(str_field(&j, "n").is_err());
    }
}
