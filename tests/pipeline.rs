//! End-to-end pipeline tests: guest tree → embedding → simulated program,
//! spanning all four crates.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use xtree::core::{evaluate, hypercube, theorem1};
use xtree::sim::{run_rounds, simulate_all, workload, Network};
use xtree::topology::{Hypercube, XTree};
use xtree::trees::{theorem1_size, theorem3_size, TreeFamily};

#[test]
fn exchange_cycles_bounded_by_dilation_times_congestion() {
    let mut rng = ChaCha8Rng::seed_from_u64(10);
    let r = 4u8;
    let tree = TreeFamily::RandomBst.generate(theorem1_size(r), &mut rng);
    let emb = theorem1::embed(&tree).emb;
    let stats = evaluate(&tree, &emb);
    let host = XTree::new(r);
    let net = Network::table(host.graph().clone()).unwrap();

    let batch = run_rounds(&net, &[workload::exchange_round(&tree, &emb)]).unwrap();
    let ex = &batch[0];
    // Every message needs at most `dilation` hops; with load 16 the
    // per-link pressure is bounded, so the exchange finishes in a small
    // constant number of cycles.
    assert!(ex.ideal_cycles <= stats.dilation);
    assert!(
        ex.cycles <= stats.dilation * ex.max_link_traffic,
        "{} cycles vs dilation {} × traffic {}",
        ex.cycles,
        stats.dilation,
        ex.max_link_traffic
    );
}

#[test]
fn broadcast_on_xtree_close_to_ideal() {
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    for family in [TreeFamily::RandomAttach, TreeFamily::Caterpillar] {
        let tree = family.generate(theorem1_size(4), &mut rng);
        let emb = theorem1::embed(&tree).emb;
        let host = XTree::new(4);
        let net = Network::table(host.graph().clone()).unwrap();
        let reports = simulate_all(&net, &tree, &emb).unwrap();
        let bc = reports.iter().find(|r| r.workload == "broadcast").unwrap();
        assert!(
            (bc.cycles as f64) <= 2.0 * bc.ideal_cycles as f64 + 16.0,
            "{family:?}: broadcast {} vs ideal {}",
            bc.cycles,
            bc.ideal_cycles
        );
    }
}

#[test]
fn same_guest_runs_on_both_hosts() {
    let mut rng = ChaCha8Rng::seed_from_u64(12);
    let tree = TreeFamily::Broom.generate(theorem3_size(5), &mut rng);

    let x = theorem1::embed(&tree).emb;
    let xnet = Network::xtree(&XTree::new(x.height));
    let xr = simulate_all(&xnet, &tree, &x).unwrap();

    let q = hypercube::embed_theorem3(&tree);
    let qnet = Network::hypercube(&Hypercube::new(q.dim));
    let qr = simulate_all(&qnet, &tree, &q).unwrap();

    for (a, b) in xr.iter().zip(qr.iter()) {
        assert_eq!(a.workload, b.workload);
        assert!(a.cycles > 0 && b.cycles > 0);
        // The hypercube host pays at most one extra hop per message
        // (Lemma 3 distortion), so its ideal cycles are within ~2× plus
        // per-level slack of the X-tree's.
        assert!(
            b.ideal_cycles <= 2 * a.ideal_cycles + 64,
            "{}: {} vs {}",
            a.workload,
            b.ideal_cycles,
            a.ideal_cycles
        );
    }
}

#[test]
fn non_exact_guest_still_runs() {
    let mut rng = ChaCha8Rng::seed_from_u64(13);
    let tree = TreeFamily::RandomSplit.generate(500, &mut rng);
    let emb = theorem1::embed(&tree).emb;
    let net = Network::xtree(&XTree::new(emb.height));
    let reports = simulate_all(&net, &tree, &emb).unwrap();
    assert_eq!(reports.len(), 4);
    for r in reports {
        assert!(r.cycles >= r.ideal_cycles);
    }
}
