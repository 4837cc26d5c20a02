//! Criterion benchmarks for router-model operations: netlist
//! construction/validation and interaction-matrix extraction. These run
//! once per problem, but custom-router users iterate on them
//! interactively, so they should stay fast.

use criterion::{criterion_group, criterion_main, Criterion};
use phonoc_phys::PhysicalParameters;
use phonoc_router::crossbar::{crossbar_router, xy_crossbar_router};
use phonoc_router::crux::crux_router;

fn netlist_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("router_build");
    group.bench_function("crux", |b| b.iter(crux_router));
    group.bench_function("crossbar", |b| b.iter(crossbar_router));
    group.bench_function("xy_crossbar", |b| b.iter(xy_crossbar_router));
    group.finish();
}

fn interaction_matrix(c: &mut Criterion) {
    let params = PhysicalParameters::default();
    let mut group = c.benchmark_group("interaction_matrix_25x25");
    for (name, router) in [
        ("crux", crux_router()),
        ("crossbar", crossbar_router()),
        ("xy_crossbar", xy_crossbar_router()),
    ] {
        group.bench_function(name, |b| b.iter(|| router.interaction_matrix(&params)));
    }
    group.finish();
}

criterion_group!(benches, netlist_construction, interaction_matrix);
criterion_main!(benches);
