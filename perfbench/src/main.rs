//! Command line of the benchmark.
//!
//! ```text
//! drcf-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! drcf-perfbench --compare <result.json> <result.json>
//! ```
//!
//! Run from the repository root. Human-readable lines come first; the last
//! line of standard output is the JSON result. Result artifacts (host
//! record, digest, counts, spans) go to `.perfbench/results/`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use drcf_kernel::json::Json;
use drcf_perfbench::measure::{machine_mismatch, HostRecord};
use drcf_perfbench::{json_num, result_line, run_named, Outcome, Params, Scale};

const USAGE: &str =
    "usage: drcf-perfbench --workload <dse_cold|dse_warm_fork|serve_mixed|sharded_e12> \
--seed <n> --seconds <s> --trace <0|1>\n       \
drcf-perfbench --compare <result.json> <result.json>";

struct Args {
    workload: String,
    params: Params,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        params: Params {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            scale: Scale::Full,
            work_dir: PathBuf::from(".perfbench"),
        },
    })
}

fn host_json(h: &HostRecord) -> String {
    let fields: Vec<String> = h
        .fields()
        .iter()
        .map(|(k, v)| format!("\"{k}\": {}", Json::from(v.as_str())))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn artifact(a: &Args, host: &HostRecord, o: &Outcome) -> String {
    let kv = |pairs: Vec<(String, String)>| -> String {
        let v: Vec<String> = pairs
            .into_iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", v.join(", "))
    };
    let metrics = kv(o
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                format!(
                    "{{\"value\": {}, \"unit\": \"{}\"}}",
                    json_num(m.value),
                    m.unit
                ),
            )
        })
        .collect());
    let counts = kv(o
        .counts
        .iter()
        .map(|(k, v)| (k.to_string(), json_num(*v)))
        .collect());
    let notes: Vec<String> = o
        .notes
        .iter()
        .map(|n| Json::from(n.as_str()).to_string())
        .collect();
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"host\": {}, \"output_digest\": \"{:016x}\", \
\"rounds\": {}, \"attempted\": {}, \"failed\": {}, \"counts\": {counts}, \"metrics\": {metrics}, \"notes\": [{}]}}\n",
        a.workload,
        a.params.seed,
        a.params.trace,
        host_json(host),
        o.digest,
        o.rounds,
        o.attempted,
        o.failed,
        notes.join(", ")
    )
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run(a: &Args) -> Result<bool, String> {
    let p = &a.params;
    std::fs::create_dir_all(&p.work_dir).map_err(|e| format!("{}: {e}", p.work_dir.display()))?;
    let host = HostRecord::probe(Path::new("."), &p.work_dir);
    println!(
        "workload {} seed {} seconds {} trace {}",
        a.workload, p.seed, p.seconds, p.trace
    );
    println!("host {}", host_json(&host));
    let o = run_named(&a.workload, p)?;
    println!("output_digest {:016x}", o.digest);
    for n in &o.notes {
        println!("note {n}");
    }
    for (k, v) in &o.counts {
        println!("count {k} = {v}");
    }
    for m in &o.metrics {
        println!("metric {} = {} {}", m.name, json_num(m.value), m.unit);
    }
    println!(
        "failed_frac = {} ({} of {} ops)",
        o.failed as f64 / o.attempted.max(1) as f64,
        o.failed,
        o.attempted
    );
    let stem = format!("{}-seed{}-trace{}", a.workload, p.seed, u8::from(p.trace));
    let results = p.work_dir.join("results");
    write(
        &results.join(format!("{stem}.json")),
        &artifact(a, &host, &o),
    )?;
    if p.trace {
        write(
            &results.join(format!("{stem}.spans.jsonl")),
            &o.tracer.to_jsonl(),
        )?;
    }
    println!("{}", result_line(&o));
    Ok(o.correct())
}

/// Compare two result artifacts, refusing when their machines differ.
fn compare(a: &str, b: &str) -> Result<bool, String> {
    let load = |p: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (ja, jb) = (load(a)?, load(b)?);
    let (ha, hb) = (ja.get("host"), jb.get("host"));
    let differ = machine_mismatch(ha, hb);
    if !differ.is_empty() {
        eprintln!(
            "refusing to compare: host records differ in {differ:?}\n  {a}: {ha:?}\n  {b}: {hb:?}"
        );
        return Ok(false);
    }
    for k in ["commit", "source_digest"] {
        let field = |h: Option<&Json>| {
            h.and_then(|h| h.get(k))
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string()
        };
        println!("{k:<14} a {}  b {}", field(ha), field(hb));
    }
    let metrics = |j: &Json| -> Vec<(String, f64)> {
        j.get("metrics")
            .and_then(Json::as_obj)
            .map(|o| {
                o.iter()
                    .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
                    .collect()
            })
            .unwrap_or_default()
    };
    let mb = metrics(&jb);
    println!("{:<28} {:>14} {:>14} {:>8}", "metric", "a", "b", "b/a");
    for (k, va) in metrics(&ja) {
        if let Some((_, vb)) = mb.iter().find(|(n, _)| *n == k) {
            let ratio = if va != 0.0 { vb / va } else { f64::NAN };
            println!("{k:<28} {va:>14.6} {vb:>14.6} {ratio:>8.3}");
        }
    }
    Ok(true)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.first().map(String::as_str) == Some("--compare") {
        match &args[1..] {
            [a, b] => compare(a, b),
            _ => Err("--compare takes two result files".into()),
        }
    } else {
        parse(&args).and_then(|a| run(&a))
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
