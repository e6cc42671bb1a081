//! Pins every engine's quick-scale quality numbers bit for bit.
//!
//! The quick Table-1 and Table-2 runs exercise the whole engine contract:
//! DAMO-like fitting (which runs the Calibre-like loop), the Calibre-like,
//! RL-OPC and CAMO step loops, RL-OPC's REINFORCE training and CAMO's
//! imitation plus modulated REINFORCE training. Every number below is
//! deterministic, so a refactor of any of them must reproduce each case's
//! total |EPE| and PV band exactly (`f64::to_bits`). Runtimes are not
//! compared: engines never read the clock, and the harness's wall-clock
//! stamp is not a quality number.

use camo_bench::{run_metal_experiment, run_via_experiment, ExperimentScale, ExperimentSummary};

/// `(engine, case, total |EPE| bits, PV-band bits)`.
type Pinned = (&'static str, &'static str, u64, u64);

const VIA: &[Pinned] = &[
    ("DAMO-like", "V1", 0x4047f8036f21eb0a, 0x40b5e00000000000), // 47.937… nm, 5600 nm²
    ("DAMO-like", "V2", 0x4047f8036f21eb0a, 0x40b5e00000000000), // 47.937… nm, 5600 nm²
    ("DAMO-like", "V3", 0x40520ea4dc035ebf, 0x40c0680000000000), // 72.228… nm, 8400 nm²
    ("Calibre-like", "V1", 0x401c190bf9e29d4a, 0x40b5e00000000000), // 7.024… nm, 5600 nm²
    ("Calibre-like", "V2", 0x401c190bf9e29d4a, 0x40b5e00000000000), // 7.024… nm, 5600 nm²
    ("Calibre-like", "V3", 0x402455a1855141e4, 0x40c0680000000000), // 10.167… nm, 8400 nm²
    ("RL-OPC", "V1", 0x4074000000000000, 0x0000000000000000),    // 320 nm, 0 nm²
    ("RL-OPC", "V2", 0x4074000000000000, 0x0000000000000000),    // 320 nm, 0 nm²
    ("RL-OPC", "V3", 0x4076a6b7a4fdea10, 0x40a2c00000000000),    // 362.419… nm, 2400 nm²
    ("CAMO", "V1", 0x401c190bf9e29d4a, 0x40b5e00000000000),      // 7.024… nm, 5600 nm²
    ("CAMO", "V2", 0x401c190bf9e29d4a, 0x40b5e00000000000),      // 7.024… nm, 5600 nm²
    ("CAMO", "V3", 0x402455a1855141e4, 0x40c0680000000000),      // 10.167… nm, 8400 nm²
];

const METAL: &[Pinned] = &[
    ("Calibre-like", "M1", 0x404ceff232dc4506, 0x40e1490000000000), // 57.874… nm, 35400 nm²
    ("Calibre-like", "M2", 0x405b792d6847ffaa, 0x40eb580000000000), // 109.893… nm, 56000 nm²
    ("RL-OPC", "M1", 0x40936c17f78b8fb0, 0x40d6f30000000000),       // 1243.023… nm, 23500 nm²
    ("RL-OPC", "M2", 0x409bea33929b7622, 0x40e3a10000000000),       // 1786.550… nm, 40200 nm²
    ("CAMO", "M1", 0x4066c1cc7165758f, 0x40c7700000000000),         // 182.056… nm, 12000 nm²
    ("CAMO", "M2", 0x406d897be186e800, 0x40e1940000000000),         // 236.296… nm, 36000 nm²
];

fn assert_pinned(summary: &ExperimentSummary, expected: &[Pinned]) {
    let actual: Vec<(String, String, u64, u64)> = summary
        .rows
        .iter()
        .flat_map(|row| {
            row.cases.iter().map(|c| {
                (
                    row.engine.clone(),
                    c.case.clone(),
                    c.epe.to_bits(),
                    c.pvb.to_bits(),
                )
            })
        })
        .collect();
    let expected: Vec<(String, String, u64, u64)> = expected
        .iter()
        .map(|&(e, c, epe, pvb)| (e.to_string(), c.to_string(), epe, pvb))
        .collect();
    if actual != expected {
        for (engine, case, epe, pvb) in &actual {
            eprintln!(
                "(\"{engine}\", \"{case}\", {epe:#018x}, {pvb:#018x}), // EPE {} nm, PVB {} nm²",
                f64::from_bits(*epe),
                f64::from_bits(*pvb)
            );
        }
    }
    assert_eq!(actual, expected);
}

#[test]
fn quick_via_table_reproduces_its_pinned_bits() {
    assert_pinned(&run_via_experiment(ExperimentScale::Quick), VIA);
}

#[test]
fn quick_metal_table_reproduces_its_pinned_bits() {
    assert_pinned(&run_metal_experiment(ExperimentScale::Quick), METAL);
}
