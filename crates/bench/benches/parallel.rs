//! Sequential vs parallel dispatch of the verification obligations: the
//! cascade (five independent stages), BMC obligations over the wrapper
//! property set, and the SAT portfolio on a pigeonhole miter. On a
//! single-core host the parallel numbers track the sequential ones (plus
//! thread overhead); on a multi-core host they show the fan-out win.
#![allow(clippy::needless_range_loop)]

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn php_cnf(n_holes: usize) -> sat::Cnf {
    let pigeons = n_holes + 1;
    let mut s = sat::Solver::new();
    let mut x = vec![vec![]; pigeons];
    for row in x.iter_mut() {
        for _ in 0..n_holes {
            row.push(s.new_var());
        }
    }
    for row in &x {
        s.add_clause(row.iter().map(|&v| sat::Lit::pos(v)));
    }
    for h in 0..n_holes {
        for p1 in 0..pigeons {
            for p2 in (p1 + 1)..pigeons {
                s.add_clause([sat::Lit::neg(x[p1][h]), sat::Lit::neg(x[p2][h])]);
            }
        }
    }
    s.export_cnf()
}

fn parallel_benches(c: &mut Criterion) {
    let modes = [
        ("seq", exec::ExecMode::Sequential),
        ("par4", exec::ExecMode::Parallel { workers: 4 }),
    ];

    let mut group = c.benchmark_group("parallel/cascade");
    group.sample_size(10);
    for (name, mode) in modes {
        group.bench_function(name, |b| {
            b.iter(|| {
                symbad_core::cascade::run(&symbad_core::RunCtx {
                    mode: black_box(mode),
                    ..symbad_core::RunCtx::default()
                })
            })
        });
    }
    group.finish();

    let wrapper = hdl::fsm::bus_wrapper_fsm("bus_wrapper");
    let props: Vec<mc::prop::Property> = symbad_core::level4::extended_properties();
    let mut group = c.benchmark_group("parallel/bmc_obligations");
    group.sample_size(10);
    for (name, mode) in modes {
        group.bench_function(name, |b| {
            b.iter(|| {
                mc::bmc::check_many(
                    black_box(&wrapper),
                    black_box(&props),
                    12,
                    mode,
                    &telemetry::noop(),
                )
            })
        });
    }
    group.finish();

    let cnf = php_cnf(7);
    let mut group = c.benchmark_group("parallel/sat_portfolio");
    group.sample_size(10);
    for (name, mode) in modes {
        group.bench_function(name, |b| {
            b.iter(|| sat::solve_portfolio(black_box(&cnf), mode))
        });
    }
    group.finish();
}

criterion_group!(benches, parallel_benches);
criterion_main!(benches);
