//! Acceptance tests for the self-healing stack on realistic hosts: an
//! X(10) run whose node faults strand messages without supervision must
//! end fully delivered under the default [`RecoveryPolicy`] with the
//! repaired embedding audited against the fault state; a temporarily
//! cut-off vertex must be waited out and delivered once its links return;
//! and a checkpoint/restore cycle through the full `XCKPT1` container must
//! continue to a byte-identical telemetry trace.

use xtree_core::metrics::heap_order_embedding;
use xtree_sim::telemetry::TraceRecorder;
use xtree_sim::workload::exchange_round;
use xtree_sim::{
    decode_checkpoint, encode_checkpoint, recover_batch, Checkpoint, Engine, FaultPlan, FaultState,
    Host, Network, RecoveryPolicy, RepairableHost, Session,
};
use xtree_topology::{Graph, XTree};
use xtree_trees::generate;

/// The paper-scale acceptance run: X(10) (2047 vertices), a full guest
/// tree, and a fixed-seed node-failure schedule that the bare engine
/// cannot route around. The default policy must migrate the affected
/// guests, re-dispatch the leftovers, and end fully delivered with the
/// embedding provably clean of dead vertices.
#[test]
fn x10_node_faults_heal_to_full_delivery() {
    let x = XTree::new(10);
    let net = Network::xtree(&x);
    let tree = generate::left_complete(x.node_count());
    let emb0 = heap_order_embedding(&tree, 10);
    let batch = exchange_round(&tree, &emb0);
    // Seed 5 kills ~20 vertices inside the fault window and strands 22
    // messages without supervision (pinned by the assertion below).
    let plan = FaultPlan::random_nodes(net.csr(), 0.01, 5, 16).unwrap();

    let mut faults = FaultState::new(net.csr(), plan.clone()).unwrap();
    let mut engine = Engine::new();
    let bare = engine.run_batch_faulted(&net, &batch, &mut faults).unwrap();
    assert!(
        !bare.delivered_all(),
        "fixture must degrade without recovery"
    );

    let policy = RecoveryPolicy::default();
    let mut faults = FaultState::new(net.csr(), plan).unwrap();
    let mut emb = emb0;
    let mut engine = Engine::new();
    let out = recover_batch(
        &mut engine,
        &net,
        &tree,
        &mut emb,
        &batch,
        &mut faults,
        &policy,
    )
    .unwrap();
    assert!(out.delivered_all(), "recovery must finish: {:?}", out.end);
    assert!(out.retries() >= 1, "delivery must have needed a retry");
    assert!(out.requeued() >= 1);
    assert!(
        emb.validate_against(&faults),
        "no guest may remain on a dead vertex"
    );
    let report = out.repair.expect("node deaths force a migration");
    assert!(report.migrated > 0);
    assert!(report.max_load <= policy.repair.load_cap);
    assert!(emb.max_load() <= policy.repair.load_cap);
}

/// Temporary disconnection: every link of one leaf vertex goes down at
/// cycle 0 and returns at cycle 60, and the engine's stall watchdog is
/// tightened to 16 idle cycles so a single batch gives up long before the
/// repair lands. The bare run stalls on the cut-off destination; the
/// supervisor's backoff waits the outage out on the simulated clock and
/// delivers 100% — the survivor graph is connected again by then, so
/// nothing may be called unreachable.
#[test]
fn temporarily_cut_vertex_recovers_once_links_return() {
    let x = XTree::new(6);
    let net = Network::xtree(&x);
    let tree = generate::left_complete(x.node_count());
    let emb0 = heap_order_embedding(&tree, 6);
    let batch = exchange_round(&tree, &emb0);
    let victim = net.csr().node_count() as u32 - 1;
    let mut plan = FaultPlan::new();
    for w in net.csr().out_edges(victim as usize).map(|(_, w)| w) {
        plan = plan.link_down(0, victim, w).link_up(60, victim, w);
    }

    let mut faults = FaultState::new(net.csr(), plan.clone())
        .unwrap()
        .with_max_idle_wait(16);
    let mut engine = Engine::new();
    let bare = engine.run_batch_faulted(&net, &batch, &mut faults).unwrap();
    assert!(!bare.delivered_all(), "the cut vertex must strand messages");

    let mut faults = FaultState::new(net.csr(), plan)
        .unwrap()
        .with_max_idle_wait(16);
    let mut emb = emb0;
    let mut engine = Engine::new();
    let out = recover_batch(
        &mut engine,
        &net,
        &tree,
        &mut emb,
        &batch,
        &mut faults,
        &RecoveryPolicy::default(),
    )
    .unwrap();
    assert!(out.delivered_all(), "links return, so: {:?}", out.end);
    assert!(out.retries() >= 1);
    assert!(
        out.repair.is_none(),
        "pure link faults must not touch the embedding"
    );
}

/// The tentpole determinism guarantee, end to end through the `XCKPT1`
/// container: interrupt a supervised session at every round boundary,
/// serialise it (session snapshot + embedding + trace), deserialise,
/// resume, and the completed run must produce the *byte-identical*
/// telemetry trace and the same reports as the uninterrupted oracle.
#[test]
fn checkpoint_restore_traces_byte_identically() {
    let x = XTree::new(3);
    let net = Network::xtree(&x);
    let tree = generate::left_complete(x.node_count());
    let emb = heap_order_embedding(&tree, 3);
    let victim = net.csr().node_count() as u32 - 1;
    let plan = FaultPlan::new()
        .node_down(1, victim)
        .node_down(2, victim / 2);
    let policy = Some(RecoveryPolicy::default());

    let mut oracle_trace = TraceRecorder::new();
    let oracle = Session::new(&net, &tree, emb.clone(), plan.clone(), policy.clone());
    let (want_reports, want_totals, want_emb) =
        oracle.run_to_completion_with(&mut oracle_trace).unwrap();
    assert!(
        want_totals.retries > 0 && want_totals.migrated > 0,
        "fixture must exercise the supervisor: {want_totals:?}"
    );

    for k in 0..40 {
        let mut trace = TraceRecorder::new();
        let mut first = Session::new(&net, &tree, emb.clone(), plan.clone(), policy.clone());
        let complete = first.run_with(k, &mut trace).unwrap();
        let ck = Checkpoint {
            session: first.snapshot(),
            embedding: first.embedding().clone(),
            config: format!("{{\"cut\":{k}}}"),
            trace: trace.bytes().to_vec(),
        };
        // Through the container and back: framing must be lossless.
        let ck = decode_checkpoint(&encode_checkpoint(&ck)).unwrap();
        assert_eq!(ck.config, format!("{{\"cut\":{k}}}"));
        let mut trace = TraceRecorder::resume(ck.trace).unwrap();
        let resumed =
            Session::resume(&net, &tree, ck.embedding, policy.clone(), &ck.session).unwrap();
        let (reports, totals, emb_after) = resumed.run_to_completion_with(&mut trace).unwrap();
        assert_eq!(reports, want_reports, "cut at {k}");
        assert_eq!(totals, want_totals, "cut at {k}");
        assert_eq!(emb_after.map, want_emb.map, "cut at {k}");
        assert_eq!(
            trace.bytes(),
            oracle_trace.bytes(),
            "resumed trace must be byte-identical (cut at {k})"
        );
        if complete == xtree_sim::SessionStatus::Complete {
            break;
        }
    }
}
