//! Host-network comparison: the same tree program simulated on an X-tree
//! and on a hypercube, with the embeddings the paper provides for each.
//!
//! Also prints the degree/diameter context table of the introduction: the
//! X-tree against the hypercube and the constant-degree hypercube
//! derivatives (cube-connected cycles, butterfly) into which X-trees
//! *cannot* be embedded with constant dilation.
//!
//! Run with: `cargo run --release --example network_sim`

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use xtree::core::{hypercube, theorem1};
use xtree::sim::{simulate_all, Host, Network};
use xtree::topology::{Butterfly, CubeConnectedCycles, Graph, Hypercube, XTree};
use xtree::trees::{theorem3_size, TreeFamily};

fn main() {
    // ---- network context table (paper introduction / experiment B2) ----
    println!("host networks at comparable sizes:");
    println!(
        "{:<22} {:>8} {:>8} {:>9}",
        "network", "nodes", "degree", "diameter"
    );
    let x = XTree::new(7);
    let q = Hypercube::new(8);
    let c = CubeConnectedCycles::new(6);
    let b = Butterfly::new(6);
    println!(
        "{:<22} {:>8} {:>8} {:>9}",
        "X-tree X(7)",
        x.node_count(),
        x.max_degree(),
        x.graph().diameter()
    );
    println!(
        "{:<22} {:>8} {:>8} {:>9}",
        "hypercube Q_8",
        q.node_count(),
        q.max_degree(),
        q.graph().diameter()
    );
    println!(
        "{:<22} {:>8} {:>8} {:>9}",
        "cube-conn. cycles(6)",
        c.node_count(),
        c.max_degree(),
        c.graph().diameter()
    );
    println!(
        "{:<22} {:>8} {:>8} {:>9}",
        "butterfly BF(6)",
        b.node_count(),
        b.max_degree(),
        b.graph().diameter()
    );

    // ---- same guest, two hosts ------------------------------------------
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let r = 5;
    let n = theorem3_size(r); // 16·(2^5 − 1) = 496
    let tree = TreeFamily::Caterpillar.generate(n, &mut rng);
    println!("\nguest: caterpillar with {n} nodes\n");

    // X-tree route (Theorem 1).
    let t1 = theorem1::embed(&tree);
    let xh = XTree::new(t1.emb.height);
    let xnet = Network::xtree(&xh);
    println!(
        "on X({}) [{} processors]:",
        t1.emb.height,
        xnet.node_count()
    );
    print_reports(&simulate_all(&xnet, &tree, &t1.emb).expect("simulation failed"));

    // Hypercube route (Theorem 3).
    let qemb = hypercube::embed_theorem3(&tree);
    let qh = Hypercube::new(qemb.dim);
    let qnet = Network::hypercube(&qh);
    println!("\non Q_{} [{} processors]:", qemb.dim, qnet.node_count());
    print_reports(&simulate_all(&qnet, &tree, &qemb).expect("simulation failed"));

    println!("\nboth hosts run the tree program within a small constant of the ideal ✓");
}

fn print_reports(reports: &[xtree::sim::SimReport]) {
    println!(
        "  {:<10} {:>8} {:>8} {:>9} {:>13}",
        "workload", "cycles", "ideal", "slowdown", "link traffic"
    );
    for r in reports {
        println!(
            "  {:<10} {:>8} {:>8} {:>8.2}x {:>13}",
            r.workload,
            r.cycles,
            r.ideal_cycles,
            r.cycles as f64 / r.ideal_cycles.max(1) as f64,
            r.max_link_traffic
        );
    }
}
