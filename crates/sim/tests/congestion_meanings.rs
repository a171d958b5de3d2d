//! The two congestion scores on the X-tree walk the same routes but count
//! differently, and this pins how far apart they may be.
//!
//! `xtree_core::metrics::edge_congestion` counts route crossings per
//! *undirected* host edge; `xtree_sim::congestion` counts them per
//! *directed* link. Both take every hop from the same smallest-id-downhill
//! next hop, so an undirected edge's count is the sum of its two links'
//! counts: `sim ≤ edge ≤ 2·sim`, with equality at neither end in general.
//! Replacing one score by the other would change X-tree `EmbedOk` answers,
//! and the explicit path case below fails if that happens unnoticed.

use xtree_core::metrics::edge_congestion;
use xtree_core::{theorem1, theorem2, XEmbedding};
use xtree_sim::{congestion, XTreeHost};
use xtree_topology::XTree;
use xtree_trees::{BinaryTree, TreeFamily};

/// `(sim::congestion, edge_congestion)` of one embedding on its X-tree.
fn both(tree: &BinaryTree, emb: &XEmbedding) -> (u32, u32) {
    let sim = congestion(&XTreeHost::new(emb.height), tree, emb).unwrap();
    (sim, edge_congestion(tree, emb, &XTree::new(emb.height)))
}

#[test]
fn undirected_congestion_lies_between_one_and_two_directed() {
    // The serving golden's families, sizes and seeds, on both theorems.
    for (f, family) in TreeFamily::ALL.iter().enumerate() {
        for nodes in [1u64, 48, 112, 240, 496] {
            let seed = 0x5EED ^ ((f as u64) << 16) ^ nodes;
            let tree = family.generate_seeded(nodes as usize, seed);
            let emb1 = theorem1::embed(&tree).emb;
            let emb2 = theorem2::injectivize(&emb1);
            for (theorem, emb) in [(1, &emb1), (2, &emb2)] {
                let (sim, edge) = both(&tree, emb);
                assert!(
                    sim <= edge && edge <= 2 * sim,
                    "{family:?} n={nodes} theorem {theorem}: sim {sim}, edge {edge}"
                );
            }
        }
    }
}

#[test]
fn path_of_2032_nodes_scores_four_directed_and_seven_undirected() {
    // What `xtree-cli embed --family path --nodes 2032 --traffic uniform`
    // prints as `weighted congestion: 4` beside `congestion: 7`.
    let tree = TreeFamily::Path.generate_seeded(2032, 7);
    let emb = theorem1::embed(&tree).emb;
    assert_eq!(both(&tree, &emb), (4, 7));
}
