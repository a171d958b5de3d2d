//! Property tests for fault injection: delivery under random damage must
//! agree exactly with plain graph reachability. For random X-tree and
//! hypercube hosts with random cycle-0 fault sets, every message whose
//! endpoints share a survivor component is delivered, every other message
//! is reported stranded, and the stranded set matches a reference
//! computation built from `Csr::survivor` + `Csr::component_ids` — a
//! completely independent path through the topology crate.

use proptest::prelude::*;
use std::collections::HashSet;
use xtree_sim::{BatchOutcome, Engine, FaultPlan, FaultState, Message, Network};
use xtree_topology::{Csr, Graph, Hypercube, XTree};

fn host(xtree: bool, size: u8) -> Csr {
    if xtree {
        XTree::new(size).graph().clone()
    } else {
        Hypercube::new(size).graph().clone()
    }
}

proptest! {
    #[test]
    fn faulted_delivery_matches_survivor_reachability(
        xtree in any::<bool>(),
        size in 2u8..=4,
        edge_picks in prop::collection::vec(any::<u32>(), 0..8),
        node_picks in prop::collection::vec(any::<u32>(), 0..3),
        msg_picks in prop::collection::vec((any::<u32>(), any::<u32>()), 1..24),
    ) {
        let graph = host(xtree, size);
        let n = graph.node_count() as u32;
        let edges: Vec<(u32, u32)> = graph.edges().collect();

        // Random damage, all landing at cycle 0: kill a handful of links
        // and up to a couple of nodes.
        let mut plan = FaultPlan::new();
        let mut dead_edges: HashSet<(u32, u32)> = HashSet::new();
        for p in &edge_picks {
            let (u, v) = edges[*p as usize % edges.len()];
            if dead_edges.insert((u.min(v), u.max(v))) {
                plan = plan.link_down(0, u, v);
            }
        }
        let mut dead_nodes: HashSet<u32> = HashSet::new();
        for p in &node_picks {
            if dead_nodes.insert(p % n) {
                plan = plan.node_down(0, p % n);
            }
        }
        let msgs: Vec<Message> = msg_picks
            .iter()
            .map(|(a, b)| Message { src: a % n, dst: b % n })
            .collect();

        // Reference verdict: component labels of the survivor graph,
        // computed without any simulator code.
        let survivor = graph.survivor(
            |v| !dead_nodes.contains(&v),
            |u, v| !dead_edges.contains(&(u.min(v), u.max(v))),
        );
        let (comp, _) = survivor.component_ids();
        let expected_stranded: Vec<u32> = msgs
            .iter()
            .enumerate()
            .filter(|(_, m)| {
                m.src != m.dst
                    && (dead_nodes.contains(&m.src)
                        || dead_nodes.contains(&m.dst)
                        || comp[m.src as usize] != comp[m.dst as usize])
            })
            .map(|(i, _)| i as u32)
            .collect();

        let net = Network::table(graph.clone()).unwrap();
        let mut faults = FaultState::new(&graph, plan).unwrap();
        let out = Engine::new().run_batch_faulted(&net, &msgs, &mut faults).unwrap();
        match out {
            BatchOutcome::Delivered(_) => prop_assert!(
                expected_stranded.is_empty(),
                "engine claims full delivery but reachability strands {expected_stranded:?}"
            ),
            BatchOutcome::Partial { stranded, .. } => {
                prop_assert_eq!(stranded, expected_stranded)
            }
            BatchOutcome::Stalled { .. } => prop_assert!(
                false,
                "all faults land at cycle 0 with no repairs: a stall is impossible"
            ),
        }
    }

    #[test]
    fn random_link_plans_are_reproducible_and_fit_their_host(
        size in 2u8..=4,
        seed in any::<u64>(),
        rate_pct in 0u32..30,
    ) {
        let rate = f64::from(rate_pct) / 100.0;
        let graph = XTree::new(size).graph().clone();
        let a = FaultPlan::random_links(&graph, rate, seed, 8, Some(4)).unwrap();
        let b = FaultPlan::random_links(&graph, rate, seed, 8, Some(4)).unwrap();
        prop_assert_eq!(a.events(), b.events());
        // Generated plans always validate against the host they came from.
        prop_assert!(FaultState::new(&graph, a).is_ok());
    }

    #[test]
    fn link_faults_with_repairs_always_terminate_and_deliver_the_reachable(
        size in 2u8..=4,
        seed in any::<u64>(),
        msg_picks in prop::collection::vec((any::<u32>(), any::<u32>()), 1..16),
    ) {
        // Link-only faults with repairs inside the watchdog budget: the
        // engine must settle on a typed outcome (usually full delivery once
        // every link is back) — never hang, never panic.
        let graph = XTree::new(size).graph().clone();
        let n = graph.node_count() as u32;
        let plan = FaultPlan::random_links(&graph, 0.2, seed, 6, Some(3)).unwrap();
        let msgs: Vec<Message> = msg_picks
            .iter()
            .map(|(a, b)| Message { src: a % n, dst: b % n })
            .collect();
        let net = Network::table(graph.clone()).unwrap();
        let mut faults = FaultState::new(&graph, plan).unwrap();
        let out = Engine::new().run_batch_faulted(&net, &msgs, &mut faults).unwrap();
        // Every link is repaired 3 cycles after it fails and nodes never
        // die, so the survivor graph is eventually whole again and nothing
        // can be stranded or stalled.
        prop_assert!(out.delivered_all(), "repairs guarantee delivery, got {:?}", out);
    }
}
