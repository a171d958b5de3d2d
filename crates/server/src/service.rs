//! Request execution: what a worker thread does with a pooled request.
//!
//! Validation happens here, not in the codec — the wire layer moves any
//! well-formed message, and the service decides whether the values make
//! sense (`family` must index `TreeFamily::ALL`, `theorem` must be 1 or
//! 2, `nodes` is capped). The embedding itself is a pure function of the
//! request key, fetched from the shared cache or built via the Theorem-1
//! construction (plus Theorem-2 injectivization) on a miss.

// `Result<_, Response>` keeps the typed error frame as the error value
// on the compute path; `Response` is as large as its biggest variant
// (`StatsOk`) but these calls are per-request, not per-byte.
#![allow(clippy::result_large_err)]

use crate::cache::{EmbeddingCache, EmbeddingKey};
use crate::metrics::ServerMetrics;
use crate::wire::{Request, Response, WireReport, ERR_BAD_REQUEST, ERR_INTERNAL, WORKLOAD_ALL};
use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;
use xtree_core::theorem1::{EmbedOptions, Theorem1Scratch};
use xtree_core::{evaluate, metrics::edge_congestion, theorem1, theorem2, XEmbedding};
use xtree_host::{guest_map, host_label, AnyHost, Host, HOST_XTREE};
use xtree_sim::workload::WORKLOADS;
use xtree_sim::{compute_load, congestion, simulate_all_with, simulate_one_with, SimReport};
use xtree_topology::XTree;
use xtree_trees::{BinaryTree, TreeFamily};

/// Largest guest a single request may ask for: a million-node tree embeds
/// in well under a second, and the cap keeps one request from pinning a
/// worker (and the cache from holding arbitrarily large maps).
pub const MAX_NODES: u64 = 1 << 20;

fn bad(message: impl Into<String>) -> Response {
    Response::Error {
        code: ERR_BAD_REQUEST,
        message: message.into(),
    }
}

/// The typed reply for work whose deadline budget expired before it could
/// run. `stage` names where the budget died (admission, the queue, the
/// router's replay loop) so a client log pinpoints the bottleneck.
pub fn deadline_reject(stage: &str) -> Response {
    Response::Error {
        code: crate::wire::ERR_DEADLINE,
        message: format!("deadline budget expired ({stage})"),
    }
}

/// Resolves the validated (family, tree) pair of a request key.
fn make_tree(family: u8, nodes: u64, seed: u64) -> Result<(TreeFamily, BinaryTree), Response> {
    let fam = *TreeFamily::ALL
        .get(usize::from(family))
        .ok_or_else(|| bad(format!("unknown family index {family}")))?;
    if nodes == 0 || nodes > MAX_NODES {
        return Err(bad(format!(
            "nodes must be in 1..={MAX_NODES}, got {nodes}"
        )));
    }
    Ok((fam, fam.generate_seeded(nodes as usize, seed)))
}

thread_local! {
    /// One Theorem-1 scratch per worker thread: every cache-miss build on
    /// a worker reuses the previous build's buffers (DESIGN.md §13), so
    /// steady-state misses allocate only the result itself.
    static SCRATCH: RefCell<Theorem1Scratch> = RefCell::new(Theorem1Scratch::new());
}

/// The embedding for a key: cache hit, or build-and-insert. Returns the
/// embedding and whether it was a hit.
fn embedding(
    cache: &EmbeddingCache,
    key: EmbeddingKey,
    tree: &BinaryTree,
) -> Result<(Arc<XEmbedding>, bool), Response> {
    if let Some(emb) = cache.get(&key) {
        return Ok((emb, true));
    }
    let emb = SCRATCH.with(|s| {
        let scratch = &mut *s.borrow_mut();
        match key.theorem {
            1 => Ok(theorem1::embed_with_scratch(tree, EmbedOptions::default(), scratch).emb),
            2 => Ok(theorem2::injectivize(
                &theorem1::embed_with_scratch(tree, EmbedOptions::default(), scratch).emb,
            )),
            t => Err(bad(format!("theorem must be 1 or 2, got {t}"))),
        }
    })?;
    let emb = Arc::new(emb);
    cache.insert(key, Arc::clone(&emb));
    Ok((emb, false))
}

/// [`embedding`], timed into the hit/miss-split construction histograms.
fn timed_embedding(
    cache: &EmbeddingCache,
    key: EmbeddingKey,
    tree: &BinaryTree,
    metrics: &ServerMetrics,
) -> Result<(Arc<XEmbedding>, bool), Response> {
    let t0 = Instant::now();
    let res = embedding(cache, key, tree);
    if let Ok((_, hit)) = &res {
        metrics.observe_embed_us(t0.elapsed().as_micros() as u64, *hit);
    }
    res
}

fn wire_report(r: &SimReport) -> WireReport {
    let workload = WORKLOADS
        .iter()
        .position(|&w| w == r.workload)
        .unwrap_or(usize::from(WORKLOAD_ALL)) as u8;
    WireReport {
        workload,
        cycles: u64::from(r.cycles),
        ideal_cycles: u64::from(r.ideal_cycles),
        max_link_traffic: u64::from(r.max_link_traffic),
    }
}

/// Resolves the servable host backend for a request, or the typed
/// rejection when the tag is unknown / the backend is unavailable at this
/// height (the universal graph's BFS table is capped).
fn host_net(host: u8, height: u8) -> Result<AnyHost, Response> {
    AnyHost::for_xtree_height(host, height).ok_or_else(|| match host_label(host) {
        Some(label) => bad(format!(
            "host '{label}' is unavailable at X-tree height {height}"
        )),
        None => bad(format!("unknown host tag {host}")),
    })
}

/// Executes one pooled request against the shared cache, reporting engine
/// events and embed-construction latency to `metrics`. Only `Embed` and
/// `Simulate` arrive here — control requests are answered inline by the
/// connection handler. `host` selects the host topology the embedding is
/// served on ([`HOST_XTREE`] is the wire default and the pre-host
/// behavior, bit for bit).
pub fn handle_compute(
    req: &Request,
    host: u8,
    cache: &EmbeddingCache,
    metrics: &ServerMetrics,
) -> Response {
    // Reject junk tags before any compute (and before they become cache
    // keys); height-dependent availability is checked once the height is
    // known.
    if host_label(host).is_none() {
        return bad(format!("unknown host tag {host}"));
    }
    match *req {
        Request::Embed {
            family,
            nodes,
            seed,
            theorem,
        } => {
            let key = EmbeddingKey {
                family,
                nodes,
                seed,
                theorem,
                host,
            };
            let (_, tree) = match make_tree(family, nodes, seed) {
                Ok(t) => t,
                Err(resp) => return resp,
            };
            let (emb, cached) = match timed_embedding(cache, key, &tree, metrics) {
                Ok(e) => e,
                Err(resp) => return resp,
            };
            if host == HOST_XTREE {
                let stats = evaluate(&tree, &emb);
                let xt = XTree::new(emb.height);
                let congestion = edge_congestion(&tree, &emb, &xt);
                return Response::EmbedOk {
                    height: emb.height,
                    dilation: u64::from(stats.dilation),
                    max_load: u64::from(stats.max_load),
                    congestion: u64::from(congestion),
                    injective: stats.injective,
                    cached,
                };
            }
            let net = match host_net(host, emb.height) {
                Ok(n) => n,
                Err(resp) => return resp,
            };
            let map = guest_map(host, &emb).expect("tag validated by host_net");
            let dilation = tree
                .edges()
                .map(|(p, c)| net.distance(map[p.index()], map[c.index()]))
                .max()
                .unwrap_or(0);
            let max_load = compute_load(&net, &tree, &map);
            let cong = match congestion(&net, &tree, &map) {
                Ok(c) => c,
                Err(e) => {
                    return Response::Error {
                        code: ERR_INTERNAL,
                        message: format!("host routing failed: {e}"),
                    }
                }
            };
            Response::EmbedOk {
                // The X-tree height the map was built for — the shared
                // size parameter every host derives its own order from.
                height: emb.height,
                dilation: u64::from(dilation),
                max_load: u64::from(max_load),
                congestion: u64::from(cong),
                injective: max_load <= 1,
                cached,
            }
        }
        Request::Simulate {
            family,
            nodes,
            seed,
            theorem,
            workload,
        } => {
            if workload != WORKLOAD_ALL && usize::from(workload) >= WORKLOADS.len() {
                return bad(format!("workload must be 0..{} or 255", WORKLOADS.len()));
            }
            let key = EmbeddingKey {
                family,
                nodes,
                seed,
                theorem,
                host,
            };
            let (_, tree) = match make_tree(family, nodes, seed) {
                Ok(t) => t,
                Err(resp) => return resp,
            };
            let (emb, cached) = match timed_embedding(cache, key, &tree, metrics) {
                Ok(e) => e,
                Err(resp) => return resp,
            };
            let net = match host_net(host, emb.height) {
                Ok(n) => n,
                Err(resp) => return resp,
            };
            let map = guest_map(host, &emb).expect("tag validated by host_net");
            let mut sink = &metrics.sim;
            let reports = if workload == WORKLOAD_ALL {
                simulate_all_with(&net, &tree, &map, &mut sink)
            } else {
                simulate_one_with(&net, &tree, &map, usize::from(workload), &mut sink)
                    .map(|r| vec![r])
            };
            match reports {
                Ok(reports) => Response::SimulateOk {
                    cached,
                    reports: reports.iter().map(wire_report).collect(),
                },
                Err(e) => Response::Error {
                    code: ERR_INTERNAL,
                    message: format!("simulation failed: {e}"),
                },
            }
        }
        // Control requests never reach the pool.
        Request::Stats | Request::Health | Request::Shutdown => Response::Error {
            code: ERR_INTERNAL,
            message: "control request routed to a worker".into(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters() -> ServerMetrics {
        ServerMetrics::new()
    }

    #[test]
    fn embed_matches_direct_construction() {
        let cache = EmbeddingCache::new(8);
        let req = Request::Embed {
            family: 0, // path
            nodes: 240,
            seed: 7,
            theorem: 1,
        };
        let metrics = counters();
        let resp = handle_compute(&req, HOST_XTREE, &cache, &metrics);
        let Response::EmbedOk {
            height,
            dilation,
            max_load,
            cached,
            ..
        } = resp
        else {
            panic!("expected EmbedOk, got {resp:?}");
        };
        assert_eq!(height, 3);
        assert!(dilation <= 3);
        assert_eq!(max_load, 16);
        assert!(!cached, "first request must miss");
        // Second identical request hits.
        let resp = handle_compute(&req, HOST_XTREE, &cache, &metrics);
        assert!(matches!(resp, Response::EmbedOk { cached: true, .. }));
        // One construction landed in each side of the split histogram.
        let prom = metrics.to_prometheus(&cache, 0);
        assert!(prom.contains("xtree_server_embed_miss_latency_us_count 1"));
        assert!(prom.contains("xtree_server_embed_hit_latency_us_count 1"));
    }

    #[test]
    fn simulate_single_workload_matches_the_all_run() {
        let cache = EmbeddingCache::new(8);
        let base = |workload| Request::Simulate {
            family: 2, // caterpillar
            nodes: 112,
            seed: 5,
            theorem: 1,
            workload,
        };
        let all = handle_compute(&base(WORKLOAD_ALL), HOST_XTREE, &cache, &counters());
        let Response::SimulateOk { reports: all, .. } = all else {
            panic!("expected SimulateOk");
        };
        assert_eq!(all.len(), 4);
        for (i, expect) in all.iter().enumerate() {
            let one = handle_compute(&base(i as u8), HOST_XTREE, &cache, &counters());
            let Response::SimulateOk { reports: one, .. } = one else {
                panic!("expected SimulateOk");
            };
            assert_eq!(one.len(), 1);
            assert_eq!(&one[0], expect, "workload {i} must match the all-run");
        }
    }

    #[test]
    fn theorem2_requests_are_injective() {
        let cache = EmbeddingCache::new(8);
        let resp = handle_compute(
            &Request::Embed {
                family: 3, // broom
                nodes: 48,
                seed: 7,
                theorem: 2,
            },
            HOST_XTREE,
            &cache,
            &counters(),
        );
        let Response::EmbedOk {
            injective,
            max_load,
            ..
        } = resp
        else {
            panic!("expected EmbedOk, got {resp:?}");
        };
        assert!(injective);
        assert_eq!(max_load, 1);
    }

    #[test]
    fn invalid_fields_return_typed_errors() {
        let cache = EmbeddingCache::new(8);
        let sim = counters();
        for req in [
            Request::Embed {
                family: 200,
                nodes: 48,
                seed: 7,
                theorem: 1,
            },
            Request::Embed {
                family: 0,
                nodes: 0,
                seed: 7,
                theorem: 1,
            },
            Request::Embed {
                family: 0,
                nodes: MAX_NODES + 1,
                seed: 7,
                theorem: 1,
            },
            Request::Embed {
                family: 0,
                nodes: 48,
                seed: 7,
                theorem: 3,
            },
            Request::Simulate {
                family: 0,
                nodes: 48,
                seed: 7,
                theorem: 1,
                workload: 4,
            },
        ] {
            let resp = handle_compute(&req, HOST_XTREE, &cache, &sim);
            assert!(
                matches!(
                    resp,
                    Response::Error {
                        code: ERR_BAD_REQUEST,
                        ..
                    }
                ),
                "{req:?} must be rejected, got {resp:?}"
            );
        }
    }

    #[test]
    fn simulations_report_engine_events() {
        let cache = EmbeddingCache::new(8);
        let sim = counters();
        handle_compute(
            &Request::Simulate {
                family: 0,
                nodes: 112,
                seed: 7,
                theorem: 1,
                workload: 0,
            },
            HOST_XTREE,
            &cache,
            &sim,
        );
        let snap = sim.sim.snapshot();
        assert!(snap.hops > 0, "engine events must land in the shared sink");
        assert!(snap.delivered > 0);
    }
}
