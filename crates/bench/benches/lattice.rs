//! Q3: computation-lattice construction and analysis scaling — full
//! materialization vs the 2-level streaming analyzer, across concurrency
//! regimes (hypercube vs banded).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use jmpax_bench::{banded_computation, BandedConfig};
use jmpax_core::AnalysisKind;
use jmpax_lattice::analysis::analyze_lattice;
use jmpax_lattice::AnalysisConfig;
use jmpax_lattice::{Exactness, Lattice, LatticeInput, SuiteBuilder};
use jmpax_spec::parse;

fn monitor() -> jmpax_spec::Monitor {
    let mut syms = jmpax_core::SymbolTable::new();
    for i in 0..8 {
        syms.intern(&format!("v{i}"));
    }
    parse("v0 >= 0", &mut syms).unwrap().monitor().unwrap()
}

fn bench_build_hypercube(c: &mut Criterion) {
    let mut group = c.benchmark_group("lattice/build_hypercube");
    for threads in [2usize, 3, 4] {
        let config = BandedConfig {
            threads,
            rounds: 8,
            period: 0,
        };
        let (msgs, initial) = banded_computation(config);
        group.throughput(Throughput::Elements(msgs.len() as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &(msgs, initial),
            |b, (msgs, initial)| {
                b.iter(|| {
                    let input = LatticeInput::from_messages(msgs.clone(), initial.clone()).unwrap();
                    Lattice::build(input).node_count()
                });
            },
        );
    }
    group.finish();
}

fn bench_banded_full_vs_streaming(c: &mut Criterion) {
    let mut group = c.benchmark_group("lattice/banded_full_vs_streaming");
    let monitor = monitor();
    for (threads, rounds, period) in [(3, 24, 2), (4, 16, 2), (4, 32, 1)] {
        let (msgs, initial) = banded_computation(BandedConfig {
            threads,
            rounds,
            period,
        });
        let label = format!("t{threads}r{rounds}p{period}");
        group.throughput(Throughput::Elements(msgs.len() as u64));
        group.bench_with_input(
            BenchmarkId::new("full", &label),
            &(msgs.clone(), initial.clone()),
            |b, (msgs, initial)| {
                b.iter(|| {
                    let input = LatticeInput::from_messages(msgs.clone(), initial.clone()).unwrap();
                    let lattice = Lattice::build(input);
                    analyze_lattice(&lattice, &monitor, AnalysisConfig::default()).violating_runs
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("streaming", &label),
            &(msgs, initial),
            |b, (msgs, initial)| {
                b.iter(|| {
                    let mut suite = SuiteBuilder::new(&[AnalysisKind::Ltl], threads)
                        .build(Some((monitor.clone(), initial)));
                    suite.push_all(msgs.iter().cloned());
                    suite.finish(Exactness::Exact).into_ltl().states_explored
                });
            },
        );
    }
    group.finish();
}

fn bench_run_counting(c: &mut Criterion) {
    let mut group = c.benchmark_group("lattice/count_runs");
    for threads in [3usize, 4] {
        let (msgs, initial) = banded_computation(BandedConfig {
            threads,
            rounds: 8,
            period: 0,
        });
        let lattice = Lattice::build(LatticeInput::from_messages(msgs, initial).unwrap());
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &lattice,
            |b, lattice| b.iter(|| lattice.count_runs()),
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_build_hypercube,
    bench_banded_full_vs_streaming,
    bench_run_counting
);
criterion_main!(benches);
