//! Micro-benchmarks of the substrates that dominate OPC runtime: mask
//! rasterisation + aerial imaging, EPE evaluation, squish feature encoding,
//! graph construction and policy inference. These back the "RT" columns of
//! Tables 1/2 and the kernel-count ablation called out in `DESIGN.md`.

use camo::{CamoConfig, CamoEngine};
use camo_baselines::OpcConfig;
use camo_litho::{GaussianKernel, LithoConfig, LithoSimulator, OpticalModel};
use camo_workloads::{metal_test_set, via_test_set};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

fn bench_litho(c: &mut Criterion) {
    let case = &via_test_set()[0];
    let opc = OpcConfig::via_layer();
    let mask = opc.initial_mask(&case.clip);
    let mut group = c.benchmark_group("litho");
    group.sample_size(10);
    for (name, config) in [
        ("evaluate_fast_px10", LithoConfig::fast()),
        ("evaluate_default_px5", LithoConfig::default()),
        (
            "evaluate_single_kernel",
            LithoConfig {
                optical: OpticalModel::new(vec![GaussianKernel::new(1.0, 28.0)]),
                ..LithoConfig::fast()
            },
        ),
    ] {
        let sim = LithoSimulator::new(config);
        group.bench_function(name, |b| b.iter(|| sim.evaluate(&mask)));
    }
    let sim = LithoSimulator::new(LithoConfig::fast());
    group.bench_function("evaluate_epe_only", |b| b.iter(|| sim.evaluate_epe(&mask)));
    group.finish();
}

fn bench_features_and_policy(c: &mut Criterion) {
    let case = &via_test_set()[4];
    let opc = OpcConfig::via_layer();
    let mask = opc.initial_mask(&case.clip);
    let mut group = c.benchmark_group("policy");
    group.sample_size(10);

    // The unit `CamoEngine::decide` calls once per OPC step: every
    // segment's features from one index, on the largest metal clip (M10)
    // under the configuration the engines run with.
    let metal_opc = OpcConfig::metal_layer();
    let metal_mask = metal_opc.initial_mask(&metal_test_set()[9].clip);
    let metal_engine = CamoEngine::new(metal_opc, CamoConfig::fast());
    group.bench_function("node_features_metal_m10", |b| {
        b.iter(|| metal_engine.node_features(&metal_mask))
    });

    let engine = CamoEngine::new(opc.clone(), CamoConfig::fast());
    group.bench_function("graph_build", |b| b.iter(|| engine.graph(&mask)));

    let graph = engine.graph(&mask);
    let features = engine.node_features(&mask);
    group.bench_function("camo_policy_forward", |b| {
        b.iter_batched(
            || engine.policy().clone(),
            |policy| policy.forward_inference(&features, graph.adjacency()),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_litho, bench_features_and_policy);
criterion_main!(benches);
