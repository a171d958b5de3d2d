//! The traced run: per-layer metrics, measured from outside the program.
//!
//! The program carries no spans of its own, so the layers are timed by
//! calling their public functions. After set-up, one pass (A) replays a
//! slice of the workload untraced and a second pass (B) replays the next
//! slice with one span per `Client` call. Pass B's requests are then run
//! once more in-process, single-threaded, on private caches that went
//! through the same set-up: for each request the benchmark times the
//! wire codec, the real `service::handle_compute`, and the layer calls
//! `handle_compute` makes, in its order, on a second private cache with
//! the same history. The layer calls are children of one
//! `service.layers` span; all spans of one request share its index. On
//! `routed-mixed`, pass B's requests are also sent through the router and
//! straight to their owning shards, in alternating chunks; the difference
//! of the two mean round trips is the router's overhead.
//!
//! Reconciliation: the layer calls redo `handle_compute`'s work minus its
//! bookkeeping, so their sum should not exceed `handle_compute` by more
//! than the replay's noise ([`RECONCILE_TOLERANCE`]);
//! `server.unattributed_us` is the gap as measured, and the two replays
//! alternate which runs first. On the server side of pass B, the daemon's own
//! request-latency histogram (admission, queue wait and `handle_compute`,
//! read through `Server::prometheus()` over the same requests at the same
//! moment) plus the wire codec should not exceed the client round trip
//! (`server.residual_us`: transport, connection-handler scheduling, and
//! on `routed-mixed` the router). Comparing the round trip with the
//! in-process `handle_compute` instead would compare two moments of a
//! shared host whose speed drifts by more than the residual. Counters
//! come from `Server::prometheus()`, `Router::prometheus()` and the
//! `Stats` reply.

use crate::bench::{Outcome, Size};
use crate::check::check;
use crate::deploy::{self, front_door, record, Pass};
use crate::plan::{Call, Plan};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;
use xtree_core::evaluate;
use xtree_core::metrics::edge_congestion;
use xtree_core::theorem1::{self, EmbedOptions, Theorem1Scratch};
use xtree_host::{guest_map, AnyHost, Host, HOST_XTREE};
use xtree_server::cluster::HashRing;
use xtree_server::service::handle_compute;
use xtree_server::wire::{
    decode_request_host, decode_response, encode_request_host, encode_response, frame,
};
use xtree_server::{EmbeddingCache, EmbeddingKey, Request, RouterConfig, ServerMetrics};
use xtree_sim::{compute_load, congestion, simulate_one_with, AtomicCounters, Network};
use xtree_topology::XTree;
use xtree_trees::TreeFamily;

/// Every per-layer metric, with its unit, in report order.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("trees.generate_calls", "count"),
    ("trees.generate_us", "us"),
    ("core.theorem1_builds", "count"),
    ("core.theorem1_us", "us"),
    ("core.evaluate_us", "us"),
    ("core.edge_congestion_us", "us"),
    ("host.builds", "count"),
    ("host.build_us", "us"),
    ("host.guest_map_us", "us"),
    ("sim.simulate_calls", "count"),
    ("sim.simulate_us", "us"),
    ("sim.congestion_us", "us"),
    ("sim.hops", "count"),
    ("server.cache_hit_ratio", "ratio"),
    ("server.cache_lookup_us", "us"),
    ("server.cache_insert_us", "us"),
    ("server.cache_entries", "count"),
    ("server.wire_encode_us", "us"),
    ("server.wire_decode_us", "us"),
    ("server.wire_bytes_per_request", "bytes"),
    ("server.handle_compute_us", "us"),
    ("server.unattributed_us", "us"),
    ("server.request_us", "us"),
    ("server.residual_us", "us"),
    ("server.queue_depth_mean", "count"),
    ("server.overloaded", "count"),
    ("client.rtt_us", "us"),
    ("cluster.router_overhead_us", "us"),
    ("cluster.replayed", "count"),
    ("cluster.failed", "count"),
    ("trace.overhead_ratio", "ratio"),
];

/// How far the layer sum may exceed `handle_compute` and still count as
/// reconciled: the two are separate timings of the same work, and on a
/// shared host back-to-back timings of one call differ by about this much.
const RECONCILE_TOLERANCE: f64 = 0.02;

/// Requests per chunk of the paired router and direct passes.
const PAIR_CHUNK: u64 = 64;

/// Layer spans (children of `service.layers`) and the metric each feeds.
const LAYER_SPANS: [(&str, &str); 10] = [
    ("trees.generate", "trees.generate_us"),
    ("server.cache_lookup", "server.cache_lookup_us"),
    ("core.theorem1", "core.theorem1_us"),
    ("server.cache_insert", "server.cache_insert_us"),
    ("core.evaluate", "core.evaluate_us"),
    ("core.edge_congestion", "core.edge_congestion_us"),
    ("host.build", "host.build_us"),
    ("host.guest_map", "host.guest_map_us"),
    ("sim.congestion", "sim.congestion_us"),
    ("sim.simulate", "sim.simulate_us"),
];

/// One recorded span.
struct Span {
    name: &'static str,
    /// The request index (pass B) this span belongs to.
    req: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// An in-memory span log, written out when the run ends.
struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, req: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            req,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    fn time<R>(&mut self, name: &'static str, req: u64, parent: usize, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, req, Some(parent));
        let r = black_box(f());
        self.close(id);
        r
    }

    /// Total duration and count of the spans named `name`.
    fn totals(&self) -> BTreeMap<&'static str, (f64, u64)> {
        let mut t = BTreeMap::new();
        for s in &self.spans {
            let e = t.entry(s.name).or_insert((0.0, 0));
            e.0 += (s.end_ns - s.start_ns) as f64 / 1e3;
            e.1 += 1;
        }
        t
    }

    fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{id},\"name\":\"{}\",\"req\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.req, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// The in-process side: two private caches with one history, one for the
/// real `handle_compute` and one for the replayed layer calls.
struct InProcess {
    real: EmbeddingCache,
    mirror: EmbeddingCache,
    metrics: ServerMetrics,
    scratch: Theorem1Scratch,
    sink: AtomicCounters,
    wire_bytes: u64,
}

impl InProcess {
    fn new(plan: &Plan, warmup: u64) -> InProcess {
        let ip = InProcess {
            real: EmbeddingCache::new(deploy::CACHE_CAP),
            mirror: EmbeddingCache::new(deploy::CACHE_CAP),
            metrics: ServerMetrics::new(),
            scratch: Theorem1Scratch::new(),
            sink: AtomicCounters::new(),
            wire_bytes: 0,
        };
        let setup = plan
            .preload()
            .into_iter()
            .chain((0..warmup).map(|i| plan.warmup(i)));
        for call in setup {
            for cache in [&ip.real, &ip.mirror] {
                handle_compute(&call.req, call.host_tag(), cache, &ip.metrics);
            }
        }
        ip
    }

    /// Request `rid` through the codec, the real service call, and the
    /// replayed layer calls.
    fn request(&mut self, tr: &mut Tracer, rid: u64, call: &Call) {
        let root = tr.open("request", rid, None);
        let mut payload = Vec::new();
        let framed = tr.time("wire.encode_request", rid, root, || {
            encode_request_host(&call.req, None, call.host, &mut payload);
            frame(&payload)
        });
        let (req, _, host) = tr
            .time("wire.decode_request", rid, root, || {
                decode_request_host(&payload)
            })
            .expect("a generated request decodes");
        let host = host.unwrap_or(HOST_XTREE);
        // The two replays alternate which runs first, so neither gains
        // from the caches the other has just warmed.
        let replay = |ip: &mut Self, tr: &mut Tracer| {
            let layers = tr.open("service.layers", rid, Some(root));
            ip.layers(tr, rid, layers, &req, host);
            tr.close(layers);
        };
        let mirror_first = !rid.is_multiple_of(2);
        if mirror_first {
            replay(self, tr);
        }
        let resp = tr.time("service.handle_compute", rid, root, || {
            handle_compute(&req, host, &self.real, &self.metrics)
        });
        if !mirror_first {
            replay(self, tr);
        }
        let mut out = Vec::new();
        let reply = tr.time("wire.encode_response", rid, root, || {
            encode_response(&resp, &mut out);
            frame(&out)
        });
        tr.time("wire.decode_response", rid, root, || decode_response(&out))
            .expect("an encoded response decodes");
        tr.close(root);
        self.wire_bytes += (framed.len() + reply.len()) as u64;
    }

    /// The public layer calls `handle_compute` makes for `req`, in its
    /// order, each in its own span.
    fn layers(&mut self, tr: &mut Tracer, rid: u64, parent: usize, req: &Request, host: u8) {
        let (family, nodes, seed, theorem, workload) = match *req {
            Request::Embed {
                family,
                nodes,
                seed,
                theorem,
            } => (family, nodes, seed, theorem, None),
            Request::Simulate {
                family,
                nodes,
                seed,
                theorem,
                workload,
            } => (family, nodes, seed, theorem, Some(usize::from(workload))),
            _ => unreachable!("plans generate compute requests only"),
        };
        assert_eq!(theorem, 1, "plans generate Theorem-1 requests only");
        let tree = tr.time("trees.generate", rid, parent, || {
            TreeFamily::ALL[usize::from(family)].generate_seeded(nodes as usize, seed)
        });
        let key = EmbeddingKey {
            family,
            nodes,
            seed,
            theorem,
            host,
        };
        let emb = match tr.time("server.cache_lookup", rid, parent, || self.mirror.get(&key)) {
            Some(emb) => emb,
            None => {
                let scratch = &mut self.scratch;
                let emb = Arc::new(tr.time("core.theorem1", rid, parent, || {
                    theorem1::embed_with_scratch(&tree, EmbedOptions::default(), scratch).emb
                }));
                tr.time("server.cache_insert", rid, parent, || {
                    self.mirror.insert(key, Arc::clone(&emb))
                });
                emb
            }
        };
        let mut sink = &self.sink;
        if host == HOST_XTREE {
            match workload {
                None => {
                    tr.time("core.evaluate", rid, parent, || evaluate(&tree, &emb));
                    tr.time("core.edge_congestion", rid, parent, || {
                        edge_congestion(&tree, &emb, &XTree::new(emb.height))
                    });
                }
                Some(w) => {
                    tr.time("sim.simulate", rid, parent, || {
                        let net = Network::xtree(&XTree::new(emb.height));
                        simulate_one_with(&net, &tree, &*emb, w, &mut sink)
                            .expect("reference simulation runs")
                    });
                }
            }
            return;
        }
        let net = tr.time("host.build", rid, parent, || {
            AnyHost::for_xtree_height(host, emb.height).expect("the plan's hosts serve this height")
        });
        let map = tr.time("host.guest_map", rid, parent, || {
            guest_map(host, &emb).expect("a known host tag")
        });
        match workload {
            None => {
                tr.time("sim.congestion", rid, parent, || {
                    let dilation = tree
                        .edges()
                        .map(|(p, c)| net.distance(map[p.index()], map[c.index()]))
                        .max();
                    let load = compute_load(&net, &tree, &map);
                    (
                        dilation,
                        load,
                        congestion(&net, &tree, &map).expect("routable host"),
                    )
                });
            }
            Some(w) => {
                tr.time("sim.simulate", rid, parent, || {
                    simulate_one_with(&net, &tree, &map, w, &mut sink)
                        .expect("reference simulation runs")
                });
            }
        }
    }
}

/// Sums the values of every Prometheus sample line of `metric` (all
/// label sets).
fn prom_sum(text: &str, metric: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            let bare = name.split('{').next()?;
            (bare == metric)
                .then(|| value.parse::<f64>().ok())
                .flatten()
        })
        .fold(0.0, |a, b| a + b)
}

/// The server-side histograms, summed over every daemon.
#[derive(Clone, Copy)]
struct ServerSide {
    /// Queue depth seen at admission: sum, count.
    depth: (f64, f64),
    /// Admission to reply, in microseconds: sum, count.
    latency: (f64, f64),
}

impl ServerSide {
    fn read(d: &deploy::Deployment) -> ServerSide {
        let mut s = ServerSide {
            depth: (0.0, 0.0),
            latency: (0.0, 0.0),
        };
        for server in &d.servers {
            let p = server.prometheus();
            s.depth.0 += prom_sum(&p, "xtree_server_queue_depth_observed_sum");
            s.depth.1 += prom_sum(&p, "xtree_server_queue_depth_observed_count");
            s.latency.0 += prom_sum(&p, "xtree_server_request_latency_us_sum");
            s.latency.1 += prom_sum(&p, "xtree_server_request_latency_us_count");
        }
        s
    }
}

/// Mean of a histogram between two (sum, count) readings.
fn mean_between(before: (f64, f64), after: (f64, f64)) -> f64 {
    (after.0 - before.0) / (after.1 - before.1).max(1.0)
}

/// Runs the traced replay of `plan` and writes its spans to
/// `spans_path`. The notes carry the reconciliation and each layer's
/// share of `handle_compute`.
pub fn run(plan: &Plan, size: &Size, spans_path: &std::path::Path) -> Result<Outcome, String> {
    let w = plan.workload;
    let n = size.trace_pass;
    let warmup = size.warmup;
    let io = |e: std::io::Error| format!("set-up: {e}");
    let mut ready = deploy::setup(plan, warmup).map_err(io)?;
    let setup_s = ready.setup_s;
    // Pass A, untraced; pass B, traced, over the next slice of indices
    // (the same requests again on a warm workload, fresh keys on cold).
    let pass_a = record(&mut ready.conns, n, &|i| plan.call(i), &front_door);
    let before = ready.deployment.stats()?;
    let side_before = ServerSide::read(&ready.deployment);
    let pass_b = record(&mut ready.conns, n, &|i| plan.call(n + i), &front_door);
    let after = ready.deployment.stats()?;
    let side_after = ServerSide::read(&ready.deployment);
    // Pass B's requests again, through the router and straight to their
    // owning shards in turn, in short chunks that alternate which goes
    // first, so both see the host at the same speed: what the router
    // adds is the difference.
    let paired: Option<(Pass, Pass)> = if w.routed() {
        let ring = HashRing::with_shards(
            RouterConfig::default().ring_seed,
            RouterConfig::default().vnodes,
            ready.deployment.servers.len() as u16,
        );
        let route = |c: &Call| -> usize {
            let (Request::Embed {
                family,
                nodes,
                seed,
                theorem,
            }
            | Request::Simulate {
                family,
                nodes,
                seed,
                theorem,
                ..
            }) = c.req
            else {
                unreachable!("plans generate compute requests only")
            };
            let key = EmbeddingKey {
                family,
                nodes,
                seed,
                theorem,
                host: c.host_tag(),
            };
            usize::from(ring.route_key(&key, |_| true).expect("a non-empty ring"))
        };
        let mut shards = ready.deployment.connect_shards().map_err(io)?;
        let mut routed = Pass::default();
        let mut direct = Pass::default();
        for (k, start) in (0..n).step_by(PAIR_CHUNK as usize).enumerate() {
            let len = PAIR_CHUNK.min(n - start);
            let source = |i: u64| plan.call(n + start + i);
            for router_side in [k % 2 == 0, k % 2 == 1] {
                if router_side {
                    routed.append(record(&mut ready.conns, len, &source, &front_door));
                } else {
                    direct.append(record(&mut shards, len, &source, &route));
                }
            }
        }
        Some((routed, direct))
    } else {
        None
    };
    let cluster = ready
        .deployment
        .router
        .as_ref()
        .map(|r| r.prometheus())
        .unwrap_or_default();
    let setup_samples = std::mem::take(&mut ready.samples);
    ready.shutdown();

    // Every reply of every pass is checked.
    let all = || {
        setup_samples
            .iter()
            .chain(&pass_a.samples)
            .chain(&pass_b.samples)
            .chain(
                paired
                    .iter()
                    .flat_map(|(r, d)| r.samples.iter().chain(&d.samples)),
            )
    };
    let verdict = check(all());
    let attempted = all().count() as u64;
    let failed = all().filter(|s| !s.answer.ok()).count() as u64;

    // In-process replay of pass B.
    let mut ip = InProcess::new(plan, warmup);
    let mut tr = Tracer {
        t0: Instant::now(),
        spans: Vec::new(),
    };
    for (i, s) in pass_b.samples.iter().enumerate() {
        ip.request(&mut tr, i as u64, &s.call);
    }
    let totals = tr.totals();
    // Client spans go in after the in-process ones, on the pass's clock.
    for (i, s) in pass_b.samples.iter().enumerate() {
        tr.spans.push(Span {
            name: "client.call",
            req: i as u64,
            parent: None,
            start_ns: s.start_ns,
            end_ns: s.end_ns,
        });
    }
    tr.write_jsonl(spans_path)
        .map_err(|e| format!("writing {}: {e}", spans_path.display()))?;

    let reqs = n as f64;
    let per_req = |span: &str| totals.get(span).map_or(0.0, |t| t.0) / reqs;
    let calls = |span: &str| totals.get(span).map_or(0, |t| t.1) as f64;
    let mut layer: BTreeMap<&str, f64> = BTreeMap::new();
    let mut layer_sum = 0.0;
    for (span, metric) in LAYER_SPANS {
        let v = per_req(span);
        layer.insert(metric, v);
        layer_sum += v;
    }
    let handle = per_req("service.handle_compute");
    let wire_encode = per_req("wire.encode_request") + per_req("wire.encode_response");
    let wire_decode = per_req("wire.decode_request") + per_req("wire.decode_response");
    let rtt = pass_b.mean_rtt_us();
    let server_us = mean_between(side_before.latency, side_after.latency);
    let hits = after.cache_hits.saturating_sub(before.cache_hits) as f64;
    let misses = after.cache_misses.saturating_sub(before.cache_misses) as f64;
    let overhead = paired
        .as_ref()
        .map_or(0.0, |(r, d)| r.mean_rtt_us() - d.mean_rtt_us());
    let tput = |p: &Pass| p.ok() as f64 / p.wall_s;

    let value = |name: &str| -> f64 {
        match name {
            "trees.generate_calls" => calls("trees.generate"),
            "core.theorem1_builds" => misses,
            "host.builds" => calls("host.build"),
            "sim.simulate_calls" => calls("sim.simulate"),
            "sim.hops" => after.sim_hops.saturating_sub(before.sim_hops) as f64,
            "server.cache_hit_ratio" => hits / (hits + misses).max(1.0),
            "server.cache_entries" => after.cache_entries as f64,
            "server.wire_encode_us" => wire_encode,
            "server.wire_decode_us" => wire_decode,
            "server.wire_bytes_per_request" => ip.wire_bytes as f64 / reqs,
            "server.handle_compute_us" => handle,
            "server.unattributed_us" => handle - layer_sum,
            "server.request_us" => server_us,
            "server.residual_us" => rtt - server_us - wire_encode - wire_decode,
            "server.queue_depth_mean" => mean_between(side_before.depth, side_after.depth),
            "server.overloaded" => after.overloaded.saturating_sub(before.overloaded) as f64,
            "client.rtt_us" => rtt,
            "cluster.router_overhead_us" => overhead,
            "cluster.replayed" => prom_sum(&cluster, "xtree_cluster_replayed_total"),
            "cluster.failed" => prom_sum(&cluster, "xtree_cluster_failed_total"),
            "trace.overhead_ratio" => tput(&pass_b) / tput(&pass_a),
            other => *layer
                .get(other)
                .unwrap_or_else(|| panic!("no source for per-layer metric {other}")),
        }
    };
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, unit, value(name)))
        .collect();
    let share = |metric: &str| layer.get(metric).copied().unwrap_or(0.0) / handle.max(1e-9);
    let notes = vec![
        ("layer_sum_us", layer_sum),
        ("handle_compute_us", handle),
        ("client_rtt_us", rtt),
        // The layer calls redo `handle_compute`'s work minus its
        // bookkeeping, so the two agree to within the replay's noise.
        (
            "reconciled",
            f64::from(u8::from(
                layer_sum <= handle * (1.0 + RECONCILE_TOLERANCE)
                    && server_us + wire_encode + wire_decode <= rtt,
            )),
        ),
        ("in_process_sim_hops", ip.sink.snapshot().hops as f64),
        ("share.host.build_us", share("host.build_us")),
        ("share.core.theorem1_us", share("core.theorem1_us")),
        ("share.core.evaluate_us", share("core.evaluate_us")),
        ("share.sim.simulate_us", share("sim.simulate_us")),
        ("share.trees.generate_us", share("trees.generate_us")),
    ];
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        correct: verdict.correct(),
        problem: verdict.first_problem,
        notes,
        series: vec![("setup_s_runs", vec![setup_s])],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prometheus_sums_cover_every_label_set() {
        let text =
            "# TYPE x counter\nx_total{shard=\"0\"} 2\nx_total{shard=\"1\"} 3\nx_total_other 9\n";
        assert_eq!(prom_sum(text, "x_total"), 5.0);
        assert_eq!(prom_sum(text, "missing"), 0.0);
    }

    #[test]
    fn every_layer_span_feeds_a_listed_metric() {
        for (_, metric) in LAYER_SPANS {
            assert!(PER_LAYER.iter().any(|(m, _)| *m == metric), "{metric}");
        }
    }
}
