//! Property tests: the closed-form hosts are observationally identical to
//! the dense BFS next-hop tables of [`TableHost`] — exact
//! distances, the same smallest-id downhill next hop, and the downhill
//! invariant (each hop decreases the distance by exactly one) — across
//! X(1..=8), Q(1..=8) and CBT(1..=8), plus the downhill invariant alone on
//! X-trees far past the old 2^13-vertex table cap.

use proptest::prelude::*;
use std::sync::OnceLock;
use xtree_host::{AnyHost, CbtHost, Host, HypercubeHost, TableHost, XTreeHost};
use xtree_topology::XTree;

/// A closed-form host beside the BFS table built from its own CSR: the
/// oracle it must reproduce bit for bit.
fn with_oracle<H: Host>(host: H) -> (H, TableHost) {
    let table = TableHost::new(host.csr().clone()).unwrap();
    (host, table)
}

/// One host and oracle per size 1..=8, built once.
fn xtree_oracles() -> &'static Vec<(XTreeHost, TableHost)> {
    static T: OnceLock<Vec<(XTreeHost, TableHost)>> = OnceLock::new();
    T.get_or_init(|| (1..=8u8).map(|r| with_oracle(XTreeHost::new(r))).collect())
}

fn hypercube_oracles() -> &'static Vec<(HypercubeHost, TableHost)> {
    static T: OnceLock<Vec<(HypercubeHost, TableHost)>> = OnceLock::new();
    T.get_or_init(|| {
        (1..=8u8)
            .map(|d| with_oracle(HypercubeHost::new(d)))
            .collect()
    })
}

fn cbt_oracles() -> &'static Vec<(CbtHost, TableHost)> {
    static T: OnceLock<Vec<(CbtHost, TableHost)>> = OnceLock::new();
    T.get_or_init(|| (1..=8u8).map(|r| with_oracle(CbtHost::new(r))).collect())
}

/// X-trees past the table cap, `X(14)..=X(20)`, each built on first use.
fn large_xtree(r: u8) -> &'static XTreeHost {
    static T: [OnceLock<XTreeHost>; 7] = [const { OnceLock::new() }; 7];
    T[usize::from(r - 14)].get_or_init(|| XTreeHost::new(r))
}

proptest! {
    #[test]
    fn xtree_host_agrees_with_bfs_table(r in 1u8..=8, a in any::<u32>(), b in any::<u32>()) {
        let (fast, table) = &xtree_oracles()[usize::from(r) - 1];
        let n = fast.node_count() as u32;
        let (v, dst) = (a % n, b % n);
        prop_assert_eq!(fast.distance(v, dst), table.distance(v, dst));
        prop_assert_eq!(fast.next_hop(v, dst), table.next_hop(v, dst));
        if v != dst {
            let hop = fast.next_hop(v, dst);
            prop_assert_eq!(fast.distance(hop, dst) + 1, fast.distance(v, dst));
        }
    }

    #[test]
    fn hypercube_host_agrees_with_bfs_table(d in 1u8..=8, a in any::<u32>(), b in any::<u32>()) {
        let (fast, table) = &hypercube_oracles()[usize::from(d) - 1];
        let n = fast.node_count() as u32;
        let (v, dst) = (a % n, b % n);
        prop_assert_eq!(fast.distance(v, dst), table.distance(v, dst));
        prop_assert_eq!(fast.next_hop(v, dst), table.next_hop(v, dst));
        if v != dst {
            let hop = fast.next_hop(v, dst);
            prop_assert_eq!(fast.distance(hop, dst) + 1, fast.distance(v, dst));
        }
    }

    #[test]
    fn cbt_host_agrees_with_bfs_table(r in 1u8..=8, a in any::<u32>(), b in any::<u32>()) {
        let (fast, table) = &cbt_oracles()[usize::from(r) - 1];
        let n = fast.node_count() as u32;
        let (v, dst) = (a % n, b % n);
        prop_assert_eq!(fast.distance(v, dst), table.distance(v, dst));
        prop_assert_eq!(fast.next_hop(v, dst), table.next_hop(v, dst));
        if v != dst {
            let hop = fast.next_hop(v, dst);
            prop_assert_eq!(fast.distance(hop, dst) + 1, fast.distance(v, dst));
        }
    }

    #[test]
    fn xtree_downhill_invariant_past_the_table_cap(
        r in 14u8..=20,
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        // No oracle exists at these sizes — that is the point. The hop-by-
        // hop walk must still descend monotonically and reach `dst` in
        // exactly `distance` steps.
        let n = (1u64 << (r + 1)) - 1;
        let (mut at, dst) = ((a % n) as u32, (b % n) as u32);
        let fast = large_xtree(r);
        prop_assert_eq!(fast.node_count() as u64, n);
        let mut hops = 0;
        let total = fast.distance(at, dst);
        while at != dst {
            let next = fast.next_hop(at, dst);
            prop_assert_eq!(fast.distance(next, dst) + 1, fast.distance(at, dst));
            at = next;
            hops += 1;
        }
        prop_assert_eq!(hops, total);
    }

    #[test]
    fn any_host_constructors_are_interchangeable(r in 1u8..=6, a in any::<u32>(), b in any::<u32>()) {
        // End to end through `AnyHost`: the public constructors expose the
        // same routing function regardless of strategy.
        let x = XTree::new(r);
        let fast = AnyHost::xtree(&x);
        let table = AnyHost::table(x.graph().clone()).unwrap();
        let n = fast.node_count() as u32;
        let (v, dst) = (a % n, b % n);
        prop_assert_eq!(fast.next_hop(v, dst), table.next_hop(v, dst));
        prop_assert_eq!(fast.distance(v, dst), table.distance(v, dst));
    }
}
