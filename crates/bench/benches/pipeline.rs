//! F5/F6/Q1 end-to-end cost: the whole observer pipeline on the paper's
//! examples and one detection sweep iteration.

use criterion::{criterion_group, criterion_main, Criterion};
use jmpax_observer::{Pipeline, PipelineConfig};
use jmpax_sched::{run_fixed, run_random};
use jmpax_workloads::{landing, xyz};

fn bench_fig5(c: &mut Criterion) {
    let w = landing::workload();
    let out = run_fixed(&w.program, landing::observed_success_schedule(), 300);
    c.bench_function("pipeline/fig5_landing", |b| {
        b.iter(|| {
            let mut syms = w.symbols.clone();
            let report = Pipeline::new(PipelineConfig::new())
                .check_execution(&out.execution, &w.spec, &mut syms)
                .unwrap();
            report.verdict.analysis().violating_runs
        });
    });
}

fn bench_fig6(c: &mut Criterion) {
    let w = xyz::workload();
    let out = run_fixed(&w.program, xyz::observed_success_schedule(), 100);
    c.bench_function("pipeline/fig6_xyz", |b| {
        b.iter(|| {
            let mut syms = w.symbols.clone();
            let report = Pipeline::new(PipelineConfig::new())
                .check_execution(&out.execution, &w.spec, &mut syms)
                .unwrap();
            report.verdict.analysis().violating_runs
        });
    });
}

fn bench_interpreter(c: &mut Criterion) {
    let w = xyz::workload();
    c.bench_function("pipeline/interpret_one_schedule", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            run_random(&w.program, seed, 200).finished
        });
    });
}

fn bench_detection_iteration(c: &mut Criterion) {
    let w = landing::workload();
    c.bench_function("pipeline/detection_iteration", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let out = run_random(&w.program, seed, 500);
            if !out.finished {
                return 0;
            }
            let mut syms = w.symbols.clone();
            let report = Pipeline::new(PipelineConfig::new())
                .check_execution(&out.execution, &w.spec, &mut syms)
                .unwrap();
            u128::from(report.predicted()) + report.verdict.analysis().violating_runs
        });
    });
}

criterion_group!(
    benches,
    bench_fig5,
    bench_fig6,
    bench_interpreter,
    bench_detection_iteration
);
criterion_main!(benches);
