//! Printed-seed parametric tests pinning the closed-form host routers to
//! the BFS-table reference ([`xtree_trees::paramtest`] harness).
//!
//! The [`Host`] contract is *exactly* [`TableHost`]'s: `next_hop(v,
//! dst)` is the smallest-id neighbour of `v` strictly closer to `dst`
//! (and `v` itself at the destination), and `distance` is the true
//! shortest-path metric. Both sides are deterministic, so the comparison
//! is equality on sampled pairs — not just "some downhill neighbour" —
//! over random host sizes each iteration. A failing seed prints as a
//! `XTREE_PARAM_SEED=0x…` one-liner and belongs in the `regressions`
//! list once fixed.

use rand::Rng;
use rand_chacha::ChaCha8Rng;
use xtree_host::{Host, HypercubeHost, TableHost, UniversalHost};
use xtree_trees::paramtest::start_parametric_test;

const ITERS: usize = 8;
/// Sampled (source, destination) pairs per host instance.
const PAIRS: usize = 256;

/// Pins `host` to the BFS table built from its own CSR view: identical
/// `distance` and identical (not merely valid) `next_hop` on every
/// sampled pair.
fn pin_to_table<H: Host>(host: &H, rng: &mut ChaCha8Rng) {
    let table = TableHost::new(host.csr().clone()).expect("host fits the table cap");
    let n = host.node_count() as u32;
    for _ in 0..PAIRS {
        let v = rng.random_range(0..n);
        let dst = rng.random_range(0..n);
        assert_eq!(
            host.distance(v, dst),
            table.distance(v, dst),
            "{}: distance({v}, {dst})",
            host.label()
        );
        assert_eq!(
            host.next_hop(v, dst),
            table.next_hop(v, dst),
            "{}: next_hop({v}, {dst})",
            host.label()
        );
    }
}

#[test]
fn hypercube_next_hop_matches_the_bfs_table() {
    start_parametric_test(
        "hypercube_next_hop_matches_the_bfs_table",
        &[],
        ITERS,
        |rng| {
            let dim = rng.random_range(1..=8u8);
            pin_to_table(&HypercubeHost::new(dim), rng);
        },
    );
}

#[test]
fn universal_next_hop_matches_the_bfs_table() {
    start_parametric_test(
        "universal_next_hop_matches_the_bfs_table",
        &[],
        ITERS,
        |rng| {
            // Height 4 is already 496 slot vertices; the quotient shortcut
            // must agree with a table built on the full G_n.
            let height = rng.random_range(0..=4u8);
            pin_to_table(&UniversalHost::new(height), rng);
        },
    );
}
