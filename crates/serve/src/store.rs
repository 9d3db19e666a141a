//! Content-addressed on-disk snapshot store.
//!
//! Layout under the store root:
//!
//! ```text
//! <root>/serve.addr              # "host:port" of the running server, if any
//! <root>/manifest.json           # store-wide inventory (observability artifact)
//! <root>/<key:016x>/             # one entry per (workload, spec) fingerprint
//!     meta.json                  # schema tag + ordered chain-link index
//!     link-000.chain             # full base snapshot at the earliest fork
//!     link-001.chain             # delta (or periodic full rebase) extending it
//!     records-<fork_ns>.jsonl    # completed sweep records for that fork time
//!     lease                      # cross-process writer lease (create_new + pid)
//! ```
//!
//! Trust model: the key routes, the hashes decide. Every link load is
//! validated with [`ChainDoc::parse_validated`] against the tip hash
//! recorded at write time, deltas additionally re-prove their parent hash
//! when applied, and [`drcf_soc::prelude::restore_soc`] checks the roster
//! before any state lands in a simulator. A truncated, bit-flipped, or
//! re-parented entry therefore surfaces as a typed
//! [`SimErrorKind::SnapshotChain`]/`Validation` error — the serving layer
//! wipes the entry and re-simulates cold, so corruption costs time, never
//! correctness.
//! Each record line carries a checksum over its entry key, fork time,
//! point and record; a line that fails it is skipped like a torn one, and
//! its point is re-simulated.

use std::collections::HashMap;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use drcf_dse::prelude::RunRecord;
use drcf_kernel::json::{self, Fnv1a, Json};
use drcf_kernel::prelude::{ChainDoc, SimError, SimErrorKind, SimResult};

/// Store format tag; bump when the entry layout changes incompatibly.
pub const STORE_SCHEMA: &str = "drcf-store-v2";

/// Rebase period of every stored chain, passed to
/// [`drcf_kernel::prelude::SnapshotChain::new`]: after this many
/// consecutive delta links the next link is a full rebase, so a restore
/// never applies more than `REBASE_PERIOD` deltas.
pub const REBASE_PERIOD: usize = 4;

/// One chain link as indexed by `meta.json`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainLink {
    /// File name inside the entry directory.
    pub file: String,
    /// Full (restorable entry point) vs delta (extends the previous link).
    pub full: bool,
    /// State hash after this link is applied — validated on every load.
    pub tip: u64,
    /// Requested fork offset this link lands on, in nanoseconds.
    pub time_ns: u64,
}

/// Parsed `meta.json`: the ordered link index of one store entry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreMeta {
    /// Chain links in apply order; times strictly increase, entry 0 is full.
    pub links: Vec<ChainLink>,
}

impl StoreMeta {
    fn to_json(&self, key: u64) -> Json {
        Json::obj()
            .with("schema", STORE_SCHEMA.into())
            .with("key", json::ju64(key))
            .with(
                "links",
                Json::Arr(
                    self.links
                        .iter()
                        .map(|l| {
                            Json::obj()
                                .with("file", l.file.as_str().into())
                                .with("full", l.full.into())
                                .with("tip", json::ju64(l.tip))
                                .with("time_ns", json::ju64(l.time_ns))
                        })
                        .collect(),
                ),
            )
    }

    fn from_json(j: &Json) -> SimResult<StoreMeta> {
        let poison = |msg: String| SimError::new(SimErrorKind::SnapshotChain, msg);
        match j.get("schema").and_then(Json::as_str) {
            Some(STORE_SCHEMA) => {}
            other => {
                return Err(poison(format!(
                    "store entry has schema {other:?}, expected {STORE_SCHEMA:?}"
                )))
            }
        }
        let mut links = Vec::new();
        for lj in j
            .get("links")
            .and_then(Json::as_arr)
            .ok_or_else(|| poison("store entry meta has no links array".into()))?
        {
            let field = |k: &str| {
                lj.get(k)
                    .ok_or_else(|| poison(format!("store link is missing {k}")))
            };
            links.push(ChainLink {
                file: field("file")?
                    .as_str()
                    .ok_or_else(|| poison("store link file is not a string".into()))?
                    .to_string(),
                full: field("full")?
                    .as_bool()
                    .ok_or_else(|| poison("store link full flag is not a bool".into()))?,
                tip: json::ju64_of(field("tip")?)
                    .ok_or_else(|| poison("store link tip hash is unreadable".into()))?,
                time_ns: json::ju64_of(field("time_ns")?)
                    .ok_or_else(|| poison("store link time is unreadable".into()))?,
            });
        }
        Ok(StoreMeta { links })
    }
}

/// Held while a process extends or repairs an entry; the file is removed on
/// drop. A process killed mid-write leaves the file behind — waiters break
/// it after [`SnapshotStore::lease_timeout`] of no progress.
#[derive(Debug)]
pub struct Lease {
    path: PathBuf,
}

impl Drop for Lease {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// A content-addressed snapshot + record store rooted at one directory.
///
/// Thread safety: the store hands out per-key in-process locks
/// ([`SnapshotStore::key_lock`]) and cross-process lease files
/// ([`SnapshotStore::try_lease`]); the serving layer holds both for the
/// duration of a cache-miss job, so concurrent requests for one key cost
/// one simulation.
#[derive(Debug)]
pub struct SnapshotStore {
    root: PathBuf,
    lease_timeout: Duration,
    locks: Mutex<HashMap<u64, Arc<Mutex<()>>>>,
}

/// FNV-1a over a record line's entry key, fork time, point and the
/// record's canonical (compact) rendering, as written.
fn record_sum(key: u64, fork_ns: u64, point: u64, record: &str) -> u64 {
    let mut h = Fnv1a::new();
    for v in [key, fork_ns, point] {
        h.update(&v.to_le_bytes());
    }
    h.update(record.as_bytes());
    h.finish()
}

/// One line of a record log: `{"point":P,"record":R,"sum":"S"}`, the
/// completed record for `point` with the [`record_sum`] that ties it to its
/// entry and fork time. Appended whole, so an interruption loses at most
/// the line being written.
fn record_jsonl_line(key: u64, fork_ns: u64, point: u64, record: &RunRecord) -> String {
    let record = record.to_json().to_string();
    let sum = record_sum(key, fork_ns, point, &record);
    format!("{{\"point\":{point},\"record\":{record},\"sum\":\"{sum:016x}\"}}\n")
}

/// The `(point, record)` of a line written by [`record_jsonl_line`] for
/// this entry and fork time, or `None` when it is torn, malformed or fails
/// its checksum. The sum covers the record's bytes as written, so any
/// change to them fails it.
fn checked_record(key: u64, fork_ns: u64, line: &str) -> Option<(u64, RunRecord)> {
    let (point, rest) = line
        .strip_prefix("{\"point\":")?
        .split_once(",\"record\":")?;
    let (record, sum) = rest.rsplit_once(",\"sum\":\"")?;
    let sum = u64::from_str_radix(sum.strip_suffix("\"}")?, 16).ok()?;
    let point = point.parse().ok()?;
    if sum != record_sum(key, fork_ns, point, record) {
        return None;
    }
    Some((
        point,
        RunRecord::from_json(&Json::parse(record).ok()?).ok()?,
    ))
}

fn io_err(what: &str, path: &Path, e: std::io::Error) -> SimError {
    SimError::new(
        SimErrorKind::Internal,
        format!("store {what} {} failed: {e}", path.display()),
    )
}

/// Write `text` atomically: temp file in the same directory, then rename.
/// Readers never observe a torn file; a crash leaves only a stale temp.
fn write_atomic(path: &Path, text: &str) -> SimResult<()> {
    let tmp = path.with_extension(format!("tmp-{}", std::process::id()));
    let mut f = fs::File::create(&tmp).map_err(|e| io_err("create", &tmp, e))?;
    f.write_all(text.as_bytes())
        .map_err(|e| io_err("write", &tmp, e))?;
    f.sync_all().map_err(|e| io_err("sync", &tmp, e))?;
    fs::rename(&tmp, path).map_err(|e| io_err("rename into", path, e))
}

impl SnapshotStore {
    /// Open (creating if absent) a store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> SimResult<SnapshotStore> {
        let root = root.into();
        fs::create_dir_all(&root).map_err(|e| io_err("create root", &root, e))?;
        Ok(SnapshotStore {
            root,
            lease_timeout: Duration::from_secs(30),
            locks: Mutex::new(HashMap::new()),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// How long a lease file may sit unmodified before waiters break it
    /// (the holder is presumed dead). Defaults to 30 s.
    pub fn lease_timeout(&self) -> Duration {
        self.lease_timeout
    }

    /// Override the stale-lease timeout (tests use a short one to recover
    /// quickly from deliberately killed writers).
    pub fn set_lease_timeout(&mut self, timeout: Duration) {
        self.lease_timeout = timeout;
    }

    fn entry_dir(&self, key: u64) -> PathBuf {
        self.root.join(format!("{key:016x}"))
    }

    /// The in-process lock for `key`. Callers lock it around a whole job so
    /// a second thread racing the same key blocks, then finds the records
    /// already on disk — a pure cache hit.
    pub fn key_lock(&self, key: u64) -> Arc<Mutex<()>> {
        let mut map = match self.locks.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        Arc::clone(map.entry(key).or_default())
    }

    /// Load an entry's link index. `Ok(None)` means the entry does not
    /// exist (a clean miss); an unreadable or wrong-schema meta is a typed
    /// poisoning error.
    pub fn meta(&self, key: u64) -> SimResult<Option<StoreMeta>> {
        let path = self.entry_dir(key).join("meta.json");
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(io_err("read", &path, e)),
        };
        let j = Json::parse(&text).map_err(|e| {
            SimError::new(
                SimErrorKind::SnapshotChain,
                format!("store entry meta is unreadable: {e}"),
            )
        })?;
        StoreMeta::from_json(&j).map(Some)
    }

    /// Persist an entry's link index (atomically).
    pub fn write_meta(&self, key: u64, meta: &StoreMeta) -> SimResult<()> {
        let dir = self.entry_dir(key);
        fs::create_dir_all(&dir).map_err(|e| io_err("create entry", &dir, e))?;
        write_atomic(
            &dir.join("meta.json"),
            &meta.to_json(key).to_string_pretty(),
        )
    }

    /// Load one chain link and validate it against the tip hash recorded in
    /// the index. Truncation, bit flips, and swapped files all surface here
    /// as typed [`SimErrorKind::SnapshotChain`] errors.
    pub fn load_link(&self, key: u64, link: &ChainLink) -> SimResult<ChainDoc> {
        let path = self.entry_dir(key).join(&link.file);
        let text = fs::read_to_string(&path).map_err(|e| {
            SimError::new(
                SimErrorKind::SnapshotChain,
                format!("store link {} is unreadable: {e}", path.display()),
            )
        })?;
        ChainDoc::parse_validated(&text, link.tip)
    }

    /// Append a link to an entry's chain: write the document, then the
    /// updated index. Callers must hold the key's lease; `meta` is the
    /// index being extended and is updated in place.
    pub fn append_link(
        &self,
        key: u64,
        meta: &mut StoreMeta,
        doc: &ChainDoc,
        time_ns: u64,
    ) -> SimResult<()> {
        let dir = self.entry_dir(key);
        fs::create_dir_all(&dir).map_err(|e| io_err("create entry", &dir, e))?;
        let file = format!("link-{:03}.chain", meta.links.len());
        write_atomic(&dir.join(&file), &doc.to_text())?;
        meta.links.push(ChainLink {
            file,
            full: matches!(doc, ChainDoc::Full(_)),
            tip: doc.tip_hash(),
            time_ns,
        });
        self.write_meta(key, meta)
    }

    /// Recover the completed sweep records for one fork time, keyed by
    /// clock point. A line that does not parse (a torn tail from a killed
    /// writer), or whose checksum is missing or does not match its entry
    /// key, fork time, point and record, is skipped, so its point is
    /// re-simulated; the second value counts the skipped lines.
    pub fn records(&self, key: u64, fork_ns: u64) -> SimResult<(HashMap<u64, RunRecord>, usize)> {
        let path = self.entry_dir(key).join(format!("records-{fork_ns}.jsonl"));
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((HashMap::new(), 0)),
            Err(e) => return Err(io_err("read", &path, e)),
        };
        let mut records = HashMap::new();
        let mut skipped = 0;
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            match checked_record(key, fork_ns, line) {
                Some((point, record)) => {
                    records.insert(point, record);
                }
                None => skipped += 1,
            }
        }
        Ok((records, skipped))
    }

    /// Durably append one completed record for `(fork_ns, clock)`. One
    /// whole line per call via `O_APPEND`, so concurrent appenders (and a
    /// crash at any instant) can tear at most the final line — which
    /// [`SnapshotStore::records`] then skips.
    pub fn append_record(
        &self,
        key: u64,
        fork_ns: u64,
        clock: u64,
        record: &RunRecord,
    ) -> SimResult<()> {
        let dir = self.entry_dir(key);
        fs::create_dir_all(&dir).map_err(|e| io_err("create entry", &dir, e))?;
        let path = dir.join(format!("records-{fork_ns}.jsonl"));
        let mut f = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| io_err("open", &path, e))?;
        f.write_all(record_jsonl_line(key, fork_ns, clock, record).as_bytes())
            .map_err(|e| io_err("append", &path, e))?;
        f.sync_all().map_err(|e| io_err("sync", &path, e))
    }

    /// Delete an entry wholesale — the repair action for a poisoned entry.
    pub fn wipe(&self, key: u64) -> SimResult<()> {
        match fs::remove_dir_all(self.entry_dir(key)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(io_err("wipe", &self.entry_dir(key), e)),
        }
    }

    /// Try to take the cross-process writer lease for `key`. Returns
    /// `Ok(None)` when another live process holds it (poll again); a lease
    /// older than [`SnapshotStore::lease_timeout`] is broken and retaken.
    pub fn try_lease(&self, key: u64) -> SimResult<Option<Lease>> {
        let dir = self.entry_dir(key);
        fs::create_dir_all(&dir).map_err(|e| io_err("create entry", &dir, e))?;
        let path = dir.join("lease");
        match fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)
        {
            Ok(mut f) => {
                let _ = f.write_all(format!("{}\n", std::process::id()).as_bytes());
                Ok(Some(Lease { path }))
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                let stale = fs::metadata(&path)
                    .and_then(|m| m.modified())
                    .ok()
                    .and_then(|t| t.elapsed().ok())
                    .is_some_and(|age| age > self.lease_timeout);
                if stale {
                    // Holder presumed dead; break the lease and let the
                    // caller retry the create_new race.
                    let _ = fs::remove_file(&path);
                }
                Ok(None)
            }
            Err(e) => Err(io_err("lease", &path, e)),
        }
    }

    /// Inventory every entry: key, link count, chain bytes, record files.
    /// This is the observability artifact CI uploads after the smoke run.
    pub fn manifest(&self) -> SimResult<Json> {
        let mut entries = Vec::new();
        let dir_iter = fs::read_dir(&self.root).map_err(|e| io_err("list", &self.root, e))?;
        let mut names: Vec<String> = dir_iter
            .filter_map(|d| Some(d.ok()?.file_name().to_string_lossy().into_owned()))
            .filter(|n| u64::from_str_radix(n, 16).is_ok() && n.len() == 16)
            .collect();
        names.sort();
        for name in names {
            let Ok(key) = u64::from_str_radix(&name, 16) else {
                continue;
            };
            let meta = self.meta(key).unwrap_or(None).unwrap_or_default();
            let entry_dir = self.entry_dir(key);
            let mut chain_bytes = 0u64;
            for l in &meta.links {
                if let Ok(m) = fs::metadata(entry_dir.join(&l.file)) {
                    chain_bytes += m.len();
                }
            }
            let mut record_files: Vec<String> = fs::read_dir(&entry_dir)
                .map(|it| {
                    it.filter_map(|d| Some(d.ok()?.file_name().to_string_lossy().into_owned()))
                        .filter(|n| n.starts_with("records-"))
                        .collect()
                })
                .unwrap_or_default();
            record_files.sort();
            entries.push(
                Json::obj()
                    .with("key", json::ju64(key))
                    .with("links", Json::from(meta.links.len() as u64))
                    .with("chain_bytes", json::ju64(chain_bytes))
                    .with(
                        "record_files",
                        Json::Arr(record_files.into_iter().map(Json::from).collect()),
                    ),
            );
        }
        Ok(Json::obj()
            .with("schema", STORE_SCHEMA.into())
            .with("entries", Json::Arr(entries)))
    }

    /// Write `manifest.json` at the store root and return its path.
    pub fn write_manifest(&self) -> SimResult<PathBuf> {
        let path = self.root.join("manifest.json");
        write_atomic(&path, &self.manifest()?.to_string_pretty())?;
        Ok(path)
    }
}
