//! Criterion benchmarks of the RCB tree on the path the engines run:
//! rebuild (3-phase SoA partition + chunk level) and the symmetric
//! chunk-pair force pass, across leaf sizes — the "fat leaf" trade-off
//! of Section III (walk minimization vs kernel work).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hacc_short::{ForceKernel, RcbTree, TreeParams, TreeScratch};

fn particles(np: usize, side: f32) -> (Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>) {
    let mut s = 7u64;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s as f64 / u64::MAX as f64) as f32 * side
    };
    let xs: Vec<f32> = (0..np).map(|_| next()).collect();
    let ys: Vec<f32> = (0..np).map(|_| next()).collect();
    let zs: Vec<f32> = (0..np).map(|_| next()).collect();
    (xs, ys, zs, vec![1.0; np])
}

fn bench_tree(c: &mut Criterion) {
    let np = 20_000usize;
    let side = 32.0f32;
    let (xs, ys, zs, m) = particles(np, side);
    let kernel = ForceKernel::newtonian(3.0, 1e-5);

    let mut group = c.benchmark_group("rcb_tree");
    group.sample_size(10);
    group.throughput(Throughput::Elements(np as u64));
    for &leaf in &[16usize, 64, 256] {
        let mut tree = RcbTree::new_empty(TreeParams { leaf_size: leaf });
        let mut scratch = TreeScratch::default();
        group.bench_with_input(BenchmarkId::new("rebuild", leaf), &leaf, |b, _| {
            b.iter(|| tree.rebuild(&xs, &ys, &zs, &m, &mut scratch));
        });
        let mut out = [Vec::new(), Vec::new(), Vec::new()];
        group.bench_with_input(BenchmarkId::new("forces_symmetric", leaf), &leaf, |b, _| {
            b.iter(|| {
                std::hint::black_box(tree.forces_symmetric_into(&kernel, 0.0, &mut scratch, &mut out))
            });
        });
    }
    // P3M comparison point: the chaining-mesh tree (cells of side 3.2,
    // ten to the periodic box side), built once.
    let mut p3m = RcbTree::chaining_mesh(side / (side / 3.0).floor());
    p3m.set_periods([side; 3]);
    p3m.rebuild(&xs, &ys, &zs, &m, &mut TreeScratch::default());
    let (mut scratch, mut out) = (TreeScratch::default(), [Vec::new(), Vec::new(), Vec::new()]);
    group.bench_function("p3m_forces", |b| {
        b.iter(|| {
            std::hint::black_box(p3m.forces_symmetric_into(&kernel, 0.0, &mut scratch, &mut out))
        });
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_tree
}
criterion_main!(benches);
