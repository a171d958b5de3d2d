//! Criterion bench for experiment S1: the cycle-accurate simulator running
//! tree workloads on embedded guests.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use xtree_core::theorem1;
use xtree_sim::{run_rounds, workload, Network};
use xtree_topology::XTree;
use xtree_trees::generate::{theorem1_size, TreeFamily};

fn bench_simulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulation");
    group.sample_size(10);
    // X(10) was unreachable before the structured routers (the table build
    // alone dominated); it now benches like the small hosts.
    for r in [4u8, 6, 10] {
        let n = theorem1_size(r);
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let tree = TreeFamily::RandomBst.generate(n, &mut rng);
        let emb = theorem1::embed(&tree).emb;
        let net = Network::xtree(&XTree::new(r));
        let bc = workload::broadcast_rounds(&tree, &emb);
        let ex = vec![workload::exchange_round(&tree, &emb)];
        group.bench_with_input(BenchmarkId::new("broadcast", n), &bc, |b, w| {
            b.iter(|| black_box(run_rounds(&net, w)))
        });
        group.bench_with_input(BenchmarkId::new("exchange", n), &ex, |b, w| {
            b.iter(|| black_box(run_rounds(&net, w)))
        });
        group.bench_with_input(BenchmarkId::new("routing_tables", n), &r, |b, &r| {
            b.iter(|| black_box(Network::table(XTree::new(r).graph().clone())))
        });
        group.bench_with_input(BenchmarkId::new("structured_router", n), &r, |b, &r| {
            b.iter(|| black_box(Network::xtree(&XTree::new(r))))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_simulation);
criterion_main!(benches);
