//! Parallel sweep execution.
//!
//! Each simulation in this workspace is single-threaded and fully
//! deterministic, so design-space exploration parallelizes at whole-run
//! granularity. One std scoped-thread pool does all of it: workers pull
//! point indices off a shared atomic cursor, carry their own state from
//! point to point (nothing for a cold sweep, a live simulator base for a
//! warm-fork sweep), evaluate each point under `catch_unwind`, and stream
//! results back over a channel by point index — so the records come out in
//! input order, identical to a serial `points.iter().map(eval)`.
//!
//! Three entry points sit on that pool:
//! - [`sweep`] — cold runs; a panicking point becomes a
//!   [`RunRecord::failed`] entry.
//! - [`sweep_with`] — arbitrary payloads; a panic re-panics on the caller
//!   once every other point has finished.
//! - [`sweep_warm_fork`] — every point forked copy-on-write from one live
//!   base per worker, with crash-resume (`done` prefill) and a per-record
//!   persistence hook.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use drcf_kernel::prelude::{SimResult, Simulator, Snapshot};

use crate::metrics::RunRecord;

/// Why a point has no result: its worker died outside `catch_unwind`.
const WORKER_DIED: &str = "sweep worker died before reporting this point";

/// Render a `catch_unwind` payload as a message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A failed record for point `i`.
fn failed(scenario: &str, i: usize, msg: impl Into<String>) -> RunRecord {
    RunRecord::failed(scenario, vec![("point".into(), i.to_string())], msg)
}

/// The worker pool behind every entry point: fills each `None` slot of
/// `out` with `settle(i, eval(&mut state, i))`.
///
/// Up to `available_parallelism` scoped workers (at least one, at most one
/// per open slot) each own a `W::default()` state that lives on that thread
/// only, so `W` needs no `Send`. Every evaluation runs under `catch_unwind`
/// (a panic reaches `settle` as `Err(message)`), and `settle` runs on the
/// worker before its result is sent to the caller. Results stream back the
/// moment each point finishes and every worker is joined explicitly: a
/// worker that dies outside `catch_unwind` (say, a panic payload whose
/// `Drop` panics while the message is rendered) loses only the point that
/// killed it, whose slot stays `None`.
fn pool<W, R, T, E, S>(out: &mut [Option<T>], eval: E, settle: S)
where
    W: Default,
    T: Send,
    E: Fn(&mut W, usize) -> R + Sync,
    S: Fn(usize, Result<R, String>) -> T + Sync,
{
    let todo: Vec<usize> = (0..out.len()).filter(|&i| out[i].is_none()).collect();
    if todo.is_empty() {
        return;
    }
    let workers = std::thread::available_parallelism()
        .map_or(1, |p| p.get())
        .clamp(1, todo.len());
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = std::sync::mpsc::channel::<(usize, T)>();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (tx, cursor, todo, eval, settle) = (tx.clone(), &cursor, &todo, &eval, &settle);
                scope.spawn(move || {
                    let mut state = W::default();
                    while let Some(&i) = todo.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                        let r = catch_unwind(AssertUnwindSafe(|| eval(&mut state, i)))
                            .map_err(panic_message);
                        if tx.send((i, settle(i, r))).is_err() {
                            break;
                        }
                    }
                })
            })
            .collect();
        // Drop the scope's own sender so the drain ends once every worker
        // has exited (normally or by unwinding, which drops its clone).
        drop(tx);
        for (i, t) in rx {
            out[i] = Some(t);
        }
        for h in handles {
            // A join failure means the thread itself died; its completed
            // points already arrived over the channel.
            let _ = h.join();
        }
    });
}

/// Run `eval` over every point, in parallel, preserving order.
///
/// Faults are isolated per point: an evaluation that panics becomes a
/// [`RunRecord::failed`] record (ok = false, `error` set) at that point's
/// position, and every other point still completes.
pub fn sweep<P, F>(points: &[P], eval: F) -> Vec<RunRecord>
where
    P: Sync,
    F: Fn(&P) -> RunRecord + Sync,
{
    let mut out: Vec<Option<RunRecord>> = points.iter().map(|_| None).collect();
    pool(
        &mut out,
        |_: &mut (), i| eval(&points[i]),
        |i, r| r.unwrap_or_else(|msg| failed("sweep", i, format!("evaluator panicked: {msg}"))),
    );
    out.into_iter()
        .enumerate()
        .map(|(i, r)| r.unwrap_or_else(|| failed("sweep", i, WORKER_DIED)))
        .collect()
}

/// Run `eval` over every point in parallel, returning arbitrary payloads.
///
/// A panicking evaluation re-panics *here*, on the caller's thread, but
/// only after every other point has completed — a worker thread is never
/// lost to somebody else's bad point. Use [`sweep`] to turn panics into
/// data instead.
pub fn sweep_with<P, R, F>(points: &[P], eval: F) -> Vec<R>
where
    P: Sync,
    R: Send,
    F: Fn(&P) -> R + Sync,
{
    let mut out: Vec<Option<Result<R, String>>> = points.iter().map(|_| None).collect();
    pool(&mut out, |_: &mut (), i| eval(&points[i]), |_, r| r);
    out.into_iter()
        .enumerate()
        .map(|(i, r)| match r {
            Some(Ok(v)) => v,
            Some(Err(msg)) => panic!("sweep point {i} panicked: {msg}"),
            None => panic!("sweep point {i}: {WORKER_DIED}"),
        })
        .collect()
}

/// Warm-fork sweep: every worker keeps ONE live simulator standing at a
/// shared prefix snapshot and forks each point from it copy-on-write.
///
/// The caller captures the fork point once (e.g. with
/// `drcf_soc::prelude::snapshot_prefix`). `build` constructs a worker's
/// base — typically `restore_soc(&workload, &spec, &snap)` — and must
/// leave it standing exactly at `fork` with that document registered as a
/// capture (restoring from the snapshot does both). For each point the
/// runner rewinds the base to the fork in place ([`Simulator::rewind`]
/// touches only state dirtied since the capture, so per-point cost scales
/// with the tail's diff, not the prefix), then hands it to `eval`, which
/// applies the point's parameters to the live system and runs the tail —
/// e.g. via `drcf_soc::prelude::run_soc_mut`.
///
/// Rewind is bit-exact, so one base serves the whole sweep. It is rebuilt
/// only when a rewind is refused (the capture fell out of the simulator's
/// window), which costs one cold rebuild, and when a panicking `eval`
/// retires it, so a poisoned point costs one cold build, never the sweep.
///
/// Crash resume: `done` holds records recovered from an interrupted run of
/// the same sweep, aligned with `points` (it may be shorter, or empty);
/// `Some` entries are returned verbatim without simulating. `on_record` is
/// invoked on the worker for every freshly evaluated record before it is
/// merged, in completion order — append it to durable storage there and an
/// interruption at any instant loses at most the points in flight. A caller
/// that holds records back to store them in point order also loses the
/// completed ones still held. Recovered records are not re-announced.
///
/// Same ordering and fault-isolation contract as [`sweep`]: one record per
/// point, in input order, panics becoming `RunRecord::failed` entries.
pub fn sweep_warm_fork<P, S, B, F, O>(
    points: &[P],
    fork: &Snapshot,
    build: B,
    eval: F,
    done: &[Option<RunRecord>],
    on_record: O,
) -> Vec<RunRecord>
where
    P: Sync,
    B: Fn() -> SimResult<S> + Sync,
    F: Fn(&P, &mut S) -> RunRecord + Sync,
    O: Fn(usize, &RunRecord) + Sync,
    S: AsMut<Simulator>,
{
    let mut out: Vec<Option<RunRecord>> = (0..points.len())
        .map(|i| done.get(i).cloned().flatten())
        .collect();
    // Worker state: the live base.
    let point = |base: &mut Option<S>, i: usize| {
        // The base is out of its slot while the point runs: a panic leaves
        // the slot empty, so a base possibly left mid-mutation is never
        // forked from again.
        let mut b = match base.take().map_or_else(&build, Ok) {
            Ok(b) => b,
            Err(e) => return failed("warm-fork", i, format!("building warm-fork base: {e}")),
        };
        // Copy-on-write return to the fork point. A refusal falls back to
        // one cold rebuild, which stands at the fork by construction.
        if let Err(e) = b.as_mut().rewind(fork) {
            drop(b);
            b = match build() {
                Ok(b) => b,
                Err(err) => {
                    let msg =
                        format!("rebuilding warm-fork base after rewind refusal ({e}): {err}");
                    return failed("warm-fork", i, msg);
                }
            };
        }
        let rec = eval(&points[i], &mut b);
        *base = Some(b);
        rec
    };
    pool(&mut out, point, |i, r| {
        let rec =
            r.unwrap_or_else(|msg| failed("warm-fork", i, format!("evaluator panicked: {msg}")));
        on_record(i, &rec);
        rec
    });
    out.into_iter()
        .enumerate()
        .map(|(i, r)| r.unwrap_or_else(|| failed("warm-fork", i, WORKER_DIED)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use drcf_soc::prelude::*;

    /// A panic payload whose `Drop` panics: it detonates *after*
    /// `catch_unwind`, while the message is rendered, so the worker thread
    /// itself dies.
    struct Bomb;
    impl Drop for Bomb {
        fn drop(&mut self) {
            if !std::thread::panicking() {
                panic!("panic payload detonated on drop");
            }
        }
    }

    fn eval_frames(frames: &usize) -> RunRecord {
        let w = wireless_receiver(*frames, 32);
        let soc = build_soc(&w, &SocSpec::default()).expect("build");
        let (m, _) = run_soc(soc);
        RunRecord::from_metrics("frames", vec![("frames".into(), frames.to_string())], &m)
    }

    /// Point `p`'s record of a run with metrics `m`.
    fn tag(p: usize, m: &RunMetrics) -> RunRecord {
        RunRecord::from_metrics("p", vec![("p".into(), p.to_string())], m)
    }

    /// A straight run plus a prefix snapshot halfway through it.
    struct Fork {
        w: Workload,
        spec: SocSpec,
        snap: Snapshot,
        straight: RunMetrics,
    }

    impl Fork {
        fn new() -> Fork {
            let w = wireless_receiver(2, 32);
            let spec = SocSpec::default();
            let (straight, _) = run_soc(build_soc(&w, &spec).expect("build"));
            assert!(straight.ok);
            let at = drcf_kernel::prelude::SimDuration::fs(straight.makespan.as_fs() / 2);
            let snap = snapshot_prefix(&w, &spec, at).expect("prefix");
            Fork {
                w,
                spec,
                snap,
                straight,
            }
        }

        /// Warm-fork `points`, tagging each tail run with its point unless
        /// `before_tail` panics first.
        fn sweep(&self, points: &[usize], before_tail: impl Fn(usize) + Sync) -> Vec<RunRecord> {
            sweep_warm_fork(
                points,
                &self.snap,
                || restore_soc(&self.w, &self.spec, &self.snap),
                |&p, soc| {
                    before_tail(p);
                    tag(p, &run_soc_mut(soc))
                },
                &[],
                |_, _| {},
            )
        }
    }

    fn multi_threaded() -> bool {
        std::thread::available_parallelism().map_or(1, |p| p.get()) >= 2
    }

    #[test]
    fn parallel_equals_serial() {
        let points = vec![1usize, 2, 3];
        let par = sweep(&points, eval_frames);
        let ser: Vec<RunRecord> = points.iter().map(eval_frames).collect();
        assert_eq!(par, ser);
        assert!(par.iter().all(|r| r.ok));
        // More frames take longer — ordering sanity.
        assert!(par[0].makespan_ns < par[2].makespan_ns);
    }

    #[test]
    fn sweep_preserves_point_order() {
        let points = vec![3usize, 1, 2];
        let recs = sweep(&points, eval_frames);
        let frames: Vec<&str> = recs.iter().map(|r| r.param("frames").unwrap()).collect();
        assert_eq!(frames, vec!["3", "1", "2"]);
    }

    #[test]
    fn sweep_with_custom_payloads() {
        let out = sweep_with(&[1u64, 2, 3], |x| x * 10);
        assert_eq!(out, vec![10, 20, 30]);
    }

    #[test]
    fn sweep_handles_many_points() {
        let points: Vec<u64> = (0..257).collect();
        let out = sweep_with(&points, |x| x + 1);
        assert_eq!(out.len(), 257);
        assert!(out.iter().enumerate().all(|(i, &v)| v == i as u64 + 1));
    }

    #[test]
    fn panicking_point_yields_failed_record_others_complete() {
        let fx = Fork::new();
        let points: Vec<usize> = vec![1, 2, 3, 4];
        let recs = sweep(&points, |&p| {
            if p == 3 {
                panic!("injected failure at point {p}");
            }
            tag(p, &fx.straight)
        });
        assert_eq!(recs.len(), 4, "every point gets a record");
        let failed: Vec<usize> = recs
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.ok)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(failed, vec![2], "exactly the panicking point fails");
        let err = recs[2].error.as_deref().unwrap_or("");
        assert!(err.contains("injected failure at point 3"), "{err}");
        for i in [0, 1, 3] {
            assert_eq!(recs[i], tag(points[i], &fx.straight), "point {i} in place");
        }
    }

    #[test]
    fn sweep_catch_preserves_order_with_errors() {
        let fx = Fork::new();
        let ok = &fx.straight;
        let out = sweep(&[1usize, 2, 3], |&p| {
            if p == 2 {
                panic!("boom");
            }
            tag(p, ok)
        });
        assert_eq!(out[0], tag(1, ok));
        assert!(!out[1].ok);
        assert_eq!(
            out[1].param("point"),
            Some("1"),
            "failed record names its point"
        );
        let err = out[1].error.as_deref().unwrap_or("");
        assert!(err.contains("boom"), "{err}");
        assert_eq!(out[2], tag(3, ok));
    }

    #[test]
    fn sweep_empty_points() {
        let out = sweep_with::<u64, u64, _>(&[], |x| *x);
        assert!(out.is_empty());
        assert!(sweep(&[] as &[usize], eval_frames).is_empty());
        let fx = Fork::new();
        assert!(fx.sweep(&[], |_| {}).is_empty());
    }

    #[test]
    fn warm_fork_survives_a_panicking_point() {
        let fx = Fork::new();
        let points = [0usize, 1, 2, 3];
        let out = fx.sweep(&points, |p| {
            if p == 1 {
                panic!("poisoned point");
            }
        });
        assert_eq!(out.len(), 4, "one record per point");
        for (i, r) in out.iter().enumerate() {
            if i == 1 {
                assert!(!r.ok, "the panicking point reports a failure");
                let err = r.error.as_deref().unwrap_or("");
                assert!(err.contains("poisoned point"), "panic message kept: {err}");
            } else {
                assert_eq!(
                    r,
                    &tag(i, &fx.straight),
                    "point {i} unharmed by the poisoned base"
                );
            }
        }
    }

    #[test]
    fn worker_death_loses_no_completed_points() {
        // Every point the dying worker had already completed must still be
        // reported. The test needs a second worker to outlive it.
        if !multi_threaded() {
            return;
        }
        let fx = Fork::new();
        let points: Vec<usize> = (0..64).collect();
        let out = sweep(&points, |&p| {
            if p == 40 {
                std::panic::panic_any(Bomb);
            }
            tag(p, &fx.straight)
        });
        assert_eq!(out.len(), points.len(), "one result per point");
        for (i, r) in out.iter().enumerate() {
            if i == 40 {
                assert!(!r.ok, "the killing point reports an error");
            } else {
                assert_eq!(
                    r,
                    &tag(i, &fx.straight),
                    "point {i} must survive the dead worker"
                );
            }
        }
    }

    #[test]
    fn warm_fork_worker_death_loses_no_completed_points() {
        if !multi_threaded() {
            return;
        }
        let fx = Fork::new();
        let points: Vec<usize> = (0..12).collect();
        let out = fx.sweep(&points, |p| {
            if p == 7 {
                std::panic::panic_any(Bomb);
            }
        });
        assert_eq!(out.len(), points.len(), "one record per point");
        for (i, r) in out.iter().enumerate() {
            if i == 7 {
                assert!(!r.ok, "the killing point reports a failure");
            } else {
                assert_eq!(
                    r,
                    &tag(i, &fx.straight),
                    "point {i} must survive the dead worker"
                );
            }
        }
    }

    #[test]
    fn warm_fork_matches_cold_runs() {
        let w = wireless_receiver(2, 32);
        let spec = SocSpec {
            mapping: Mapping::Drcf {
                candidates: vec!["fir".into(), "fft".into(), "viterbi".into()],
                technology: drcf_core::prelude::morphosys(),
                geometry: drcf_core::prelude::FabricGeometry::new(24_000, 1),
                config_path: SocConfigPath::SystemBus,
                scheduler: drcf_core::prelude::SchedulerConfig::default(),
                overlap_load_exec: false,
            },
            ..SocSpec::default()
        };
        let eval_cold = |_: &usize| {
            let (m, _) = run_soc(build_soc(&w, &spec).expect("build"));
            RunRecord::from_metrics("cold", vec![], &m)
        };
        let cold = sweep(&[0usize, 1, 2, 3, 4], eval_cold);
        assert!(cold.iter().all(|r| r.ok));
        // Fork each point from a snapshot taken halfway through the run.
        let makespan_fs = (cold[0].makespan_ns * 1_000_000.0) as u64;
        let at = drcf_kernel::prelude::SimDuration::fs(makespan_fs / 2);
        let snap = snapshot_prefix(&w, &spec, at).expect("prefix");
        let warm = sweep_warm_fork(
            &[0usize, 1, 2, 3, 4],
            &snap,
            || restore_soc(&w, &spec, &snap),
            |_, soc| {
                let m = run_soc_mut(soc);
                RunRecord::from_metrics("cold", vec![], &m)
            },
            &[],
            |_, _| {},
        );
        assert_eq!(warm, cold, "warm forks must be bit-identical to cold runs");
    }
}
