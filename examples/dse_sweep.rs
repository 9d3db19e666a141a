//! Design-space exploration: which accelerators should fold into the DRCF?
//!
//! Enumerates every folding subset for the video pipeline, simulates all
//! of them in parallel (a scoped-thread pool over deterministic
//! single-threaded runs), extracts the makespan/area Pareto front, and
//! dumps the full record set as JSON for external plotting.
//!
//! Run with: `cargo run --release --example dse_sweep`

use drcf::prelude::*;

fn main() {
    let w = video_pipeline(4, 64);
    println!("exploring folding subsets for '{}'...\n", w.name);

    let outcomes = explore_partitions(&w, &SocSpec::default(), &morphosys(), 2);
    let records: Vec<RunRecord> = outcomes.iter().map(|o| o.record.clone()).collect();
    let front = pareto_front(&records, &[objectives::makespan, objectives::area]);

    let mut t = Table::new(
        "all folding subsets (min fold = 2)",
        &[
            "folded",
            "makespan",
            "area(kgate)",
            "switches",
            "hit rate",
            "Pareto",
        ],
    );
    for (i, o) in outcomes.iter().enumerate() {
        t.row(vec![
            if o.folded.is_empty() {
                "(none)".into()
            } else {
                o.folded.join("+")
            },
            fmt_ns(o.record.makespan_ns),
            format!("{:.1}", o.record.area_gates as f64 / 1000.0),
            o.record.switches.to_string(),
            fmt_pct(o.record.hit_rate),
            if front.contains(&i) {
                "*".into()
            } else {
                String::new()
            },
        ]);
    }
    print!("{}", t.render());

    // Cross-check against the §5.1 rules.
    let (profile, _) = asap_profile(&w).expect("library workloads are acyclic");
    let groups = select_candidates(&profile, &SelectionRules::default());
    println!("\nrule-based proposal(s):");
    for g in &groups {
        println!("  fold {:?} — {}", g.instances, g.rationale);
    }

    // Dump records for plotting.
    let json = records_to_json(&records).to_string_pretty();
    let path = std::env::temp_dir().join("drcf_dse_records.json");
    std::fs::write(&path, json).expect("write JSON");
    println!("\nwrote {} records to {}", records.len(), path.display());
    println!("Pareto-optimal subsets: {:?}", front);
}
