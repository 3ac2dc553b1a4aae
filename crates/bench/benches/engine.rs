//! Micro-benchmarks of the simulator substrate itself: event throughput on
//! the big 4-degree workflow, generator speed from 1 to 16 degrees, DAX
//! round-trips, and the parallel-sweep speedup.

use std::hint::black_box;

use mcloud_bench::harness::Bench;
use mcloud_core::{simulate, DataMode, ExecConfig, Provisioning};
use mcloud_dag::{from_dax, to_dax};
use mcloud_montage::{
    generate, montage_16_degree, montage_4_degree, montage_8_degree, MosaicConfig,
};
use mcloud_sweep::{geometric_processors, processor_sweep};

fn bench_simulator(b: &Bench) {
    let wf = montage_4_degree();
    for mode in DataMode::ALL {
        b.run(&format!("engine/simulate_4deg/{}", mode.label()), || {
            black_box(simulate(&wf, &ExecConfig::on_demand(mode)))
        });
    }
    b.run("engine/simulate_4deg_fixed128_trace", || {
        black_box(simulate(&wf, &ExecConfig::fixed(128).with_trace()))
    });
    // Scale-up presets: the engine should stay in the
    // tens-of-milliseconds range even at ~12k/~49k tasks.
    let wf8 = montage_8_degree();
    let wf16 = montage_16_degree();
    for mode in DataMode::ALL {
        b.run(&format!("engine/simulate_8deg/{}", mode.label()), || {
            black_box(simulate(&wf8, &ExecConfig::on_demand(mode)))
        });
        b.run(&format!("engine/simulate_16deg/{}", mode.label()), || {
            black_box(simulate(&wf16, &ExecConfig::on_demand(mode)))
        });
    }
}

fn bench_generator(b: &Bench) {
    // 8 and 16 degrees are the production mosaic sizes of the follow-on
    // EC2 studies; workflow construction is linear in edges, so they are
    // cheap enough to time alongside the paper's sizes.
    for degrees in [1.0, 2.0, 4.0, 8.0, 16.0] {
        let cfg = MosaicConfig::new(degrees);
        b.run(&format!("generator/generate/{degrees}deg"), || {
            black_box(generate(&cfg))
        });
    }
}

fn bench_dax(b: &Bench) {
    let wf = generate(&MosaicConfig::new(1.0));
    let doc = to_dax(&wf);
    b.run("dax/serialize_1deg", || black_box(to_dax(&wf)));
    b.run("dax/parse_1deg", || black_box(from_dax(&doc).unwrap()));
}

fn bench_parallel_sweep(b: &Bench) {
    // The sweep behind Figures 4-6, threaded and sequential, to document
    // the fork-join harness speedup.
    let wf = generate(&MosaicConfig::new(2.0));
    let base = ExecConfig::paper_default();
    let procs = geometric_processors(128);
    b.run("sweep/processor_sweep_2deg_parallel", || {
        black_box(processor_sweep(&wf, &base, &procs))
    });
    b.run("sweep/processor_sweep_2deg_serial", || {
        let points: Vec<_> = procs
            .iter()
            .map(|&p| {
                let cfg = ExecConfig {
                    provisioning: Provisioning::Fixed { processors: p },
                    ..base.clone()
                };
                simulate(&wf, &cfg)
            })
            .collect();
        black_box(points)
    });
}

fn main() {
    let b = Bench::from_env();
    bench_simulator(&b);
    bench_generator(&b);
    bench_dax(&b);
    bench_parallel_sweep(&b);
}
