//! Host-side measurement: process CPU time, peak resident memory,
//! percentiles, and the host record every result carries.

use std::path::Path;
use std::process::Command;
use std::time::Instant;

use drcf_kernel::json::Json;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed so far by every thread of this process, in seconds.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark builds for), and
    // `clock_gettime` writes only into it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Wall and process-CPU stopwatch.
#[derive(Clone, Copy)]
pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
}

impl Stopwatch {
    /// Start now.
    pub fn start() -> Stopwatch {
        Stopwatch {
            wall: Instant::now(),
            cpu: process_cpu_s(),
        }
    }

    /// `(wall seconds, process CPU seconds)` since start.
    pub fn stop(&self) -> (f64, f64) {
        (
            self.wall.elapsed().as_secs_f64(),
            process_cpu_s() - self.cpu,
        )
    }
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Reset the peak resident set size to the current one (Linux `clear_refs`
/// code 5), so that [`peak_rss_mb`] next reads the peak since now. Returns
/// whether the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Linear-interpolated percentile (`q` in [0, 1]) of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Mean of samples (0 when empty).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// The machine and build a result was measured on. Results are only
/// comparable when these records are equal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostRecord {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `git rev-parse HEAD`, or `none` outside a git checkout.
    pub commit: String,
    /// FNV-1a over the workspace sources the benchmark links, so runs from
    /// a plain source checkout (no git) still identify their code.
    pub source_digest: String,
    /// `rustc --version`.
    pub rustc: String,
    /// Global allocator the benchmark links.
    pub allocator: String,
    /// Filesystem type holding the serve workload's store.
    pub store_fs: String,
}

impl HostRecord {
    /// Probe the host. `root` is the repository checkout, `store_dir` the
    /// directory the serve workload writes its store under.
    pub fn probe(root: &Path, store_dir: &Path) -> HostRecord {
        let run = |prog: &str, args: &[&str]| -> Option<String> {
            let abs = std::fs::canonicalize(root).unwrap_or_else(|_| root.to_path_buf());
            let out = Command::new(prog)
                .args(args)
                .current_dir(root)
                // Keep git from searching above the checkout for a repository.
                .env("GIT_CEILING_DIRECTORIES", abs.parent().unwrap_or(&abs))
                .stderr(std::process::Stdio::null())
                .output()
                .ok()?;
            out.status
                .success()
                .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        };
        HostRecord {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            commit: run("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "none".into()),
            source_digest: format!("{:016x}", source_digest(root)),
            rustc: run("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            allocator: "system (std default)".into(),
            store_fs: filesystem_of(store_dir),
        }
    }

    /// Every field, as `(name, value)` pairs.
    pub fn fields(&self) -> Vec<(&'static str, String)> {
        vec![
            ("nproc", self.nproc.to_string()),
            ("commit", self.commit.clone()),
            ("source_digest", self.source_digest.clone()),
            ("rustc", self.rustc.clone()),
            ("allocator", self.allocator.clone()),
            ("store_fs", self.store_fs.clone()),
        ]
    }
}

/// Host-record fields that describe the machine and toolchain. Two results
/// are comparable only when these agree. `commit` and `source_digest` name
/// the code under test, which differs between a parent and a change.
pub const MACHINE_FIELDS: &[&str] = &["nproc", "rustc", "allocator", "store_fs"];

/// The [`MACHINE_FIELDS`] on which two host records (as stored in result
/// artifacts) differ or which either lacks.
pub fn machine_mismatch(a: Option<&Json>, b: Option<&Json>) -> Vec<&'static str> {
    let field = |h: Option<&Json>, k: &str| h?.get(k)?.as_str().map(str::to_string);
    MACHINE_FIELDS
        .iter()
        .copied()
        .filter(|k| {
            let x = field(a, k);
            x.is_none() || x != field(b, k)
        })
        .collect()
}

/// FNV-1a over every `.rs` and `Cargo.toml` under `crates/`, plus the root
/// manifest and lock file, in sorted path order.
fn source_digest(root: &Path) -> u64 {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs")
                || p.file_name().is_some_and(|n| n == "Cargo.toml")
            {
                out.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h = drcf_kernel::prelude::Fnv1a::new();
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            h.update(
                f.strip_prefix(root)
                    .unwrap_or(&f)
                    .to_string_lossy()
                    .as_bytes(),
            );
            h.update(&bytes);
        }
    }
    h.finish()
}

/// Filesystem type of the longest mount point containing `path`.
fn filesystem_of(path: &Path) -> String {
    let abs = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, mnt, fs) = (f.next()?, f.next()?, f.next()?);
            abs.starts_with(mnt).then(|| (mnt.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
    }

    #[test]
    fn only_machine_fields_decide_comparability() {
        let host = |commit: &str, nproc: &str| {
            Json::parse(&format!(
                "{{\"nproc\": \"{nproc}\", \"commit\": \"{commit}\", \"source_digest\": \"{commit}\", \
\"rustc\": \"r\", \"allocator\": \"a\", \"store_fs\": \"ext4\"}}"
            ))
            .expect("host record parses")
        };
        let parent = host("aaaa", "2");
        assert!(machine_mismatch(Some(&parent), Some(&host("bbbb", "2"))).is_empty());
        assert_eq!(
            machine_mismatch(Some(&parent), Some(&host("aaaa", "4"))),
            ["nproc"]
        );
        assert_eq!(machine_mismatch(Some(&parent), None), MACHINE_FIELDS);
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let t0 = process_cpu_s();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(process_cpu_s() > t0, "{x}");
    }
}
