//! The system under test, in-process: one daemon (or two shards behind a
//! router), the client connections that drive it, and the closed loop
//! that sends the requests.
//!
//! Load model: [`CONNS`] connections in one process, each waiting for
//! its reply before sending the next request. The connections pull
//! request indices from one shared cursor, so the sequence is sent in
//! order and exactly once whichever connection is free first.

use crate::check::Answer;
use crate::plan::{Call, Plan, Workload};
use crate::sys;
use std::io;
use std::net::SocketAddr;
use std::sync::Mutex;
use std::time::Instant;
use xtree_server::{
    Client, Request, Response, Router, RouterConfig, Server, ServerConfig, WireStats,
};

/// Client connections. With one connection in a closed loop exactly one
/// thread of the deployment is runnable at a time (client, router, shard
/// connection handler or worker, in turn), so the run never competes with
/// itself for a core, and on a single pinned core every hand-off between
/// them is a local context switch.
pub const CONNS: usize = 1;

/// Embedding-cache capacity of every daemon (the server default).
pub const CACHE_CAP: usize = 256;

/// A running deployment.
pub struct Deployment {
    pub servers: Vec<Server>,
    pub router: Option<Router>,
    /// Where clients connect: the router, or the single daemon.
    pub addr: SocketAddr,
}

impl Deployment {
    /// Spawns what `w` drives: one daemon, or a 2-shard router over two
    /// daemons; every daemon has one worker, as one connection never
    /// keeps a second busy.
    pub fn spawn(w: Workload) -> io::Result<Deployment> {
        let config = ServerConfig {
            workers: 1,
            cache_cap: CACHE_CAP,
            ..ServerConfig::default()
        };
        if !w.routed() {
            let server = Server::spawn(&config)?;
            let addr = server.local_addr();
            return Ok(Deployment {
                servers: vec![server],
                router: None,
                addr,
            });
        }
        let servers = vec![Server::spawn(&config)?, Server::spawn(&config)?];
        let router = Router::spawn(&RouterConfig {
            shards: servers.iter().map(Server::local_addr).collect(),
            ..RouterConfig::default()
        })?;
        let addr = router.local_addr();
        Ok(Deployment {
            servers,
            router: Some(router),
            addr,
        })
    }

    /// `CONNS` connections to the front door, one client each.
    pub fn connect(&self) -> io::Result<Vec<Vec<Client>>> {
        (0..CONNS)
            .map(|_| Client::connect(self.addr).map(|c| vec![c]))
            .collect()
    }

    /// `CONNS` connections, each holding one client per shard daemon:
    /// the router-free path to the same caches.
    pub fn connect_shards(&self) -> io::Result<Vec<Vec<Client>>> {
        (0..CONNS)
            .map(|_| {
                self.servers
                    .iter()
                    .map(|s| Client::connect(s.local_addr()))
                    .collect()
            })
            .collect()
    }

    /// The `Stats` reply of the front door (aggregated over the shards
    /// behind a router).
    pub fn stats(&self) -> Result<WireStats, String> {
        let mut client = Client::connect(self.addr).map_err(|e| format!("stats: {e}"))?;
        match client.call(&Request::Stats) {
            Ok(Response::StatsOk(s)) => Ok(s),
            other => Err(format!("stats: unexpected {other:?}")),
        }
    }

    /// Drains and joins everything. Drop the clients first, so the
    /// connection handlers see EOF and exit.
    pub fn shutdown(mut self) {
        if let Some(mut router) = self.router.take() {
            router.shutdown();
            router.wait();
        }
        for server in &mut self.servers {
            server.shutdown();
            server.wait();
        }
    }
}

/// One finished request, as the closed loop hands it to a [`Sink`].
pub struct Done<'a> {
    pub idx: u64,
    pub call: &'a Call,
    /// Send and receive instants, in nanoseconds since the pass began.
    pub start_ns: u64,
    pub end_ns: u64,
    /// The reply, or `None` after a transport failure.
    pub resp: Option<&'a Response>,
}

/// Where a pass's finished requests go; called from every connection.
pub type Sink<'a> = dyn Fn(Done) + Sync + 'a;

/// When a pass stops.
#[derive(Clone, Copy)]
pub enum Until {
    /// After exactly this many requests.
    Count(u64),
    /// At the first boundary of a `len`-request block at or after `secs`
    /// seconds, so the pass always sends whole blocks.
    Blocks { len: u64, secs: f64 },
}

/// The instant the cursor handed out a block's first index (or stopped).
#[derive(Clone, Copy, Debug)]
pub struct Boundary {
    pub t_ns: u64,
    /// Process CPU time at that instant, in microseconds.
    pub cpu_us: f64,
}

struct Cursor {
    next: u64,
    done: bool,
    boundaries: Vec<Boundary>,
}

/// A finished pass's timing.
pub struct Drove {
    pub wall_s: f64,
    /// For [`Until::Blocks`]: one per block boundary crossed, the last
    /// one at the stop.
    pub boundaries: Vec<Boundary>,
}

/// Sends requests `0, 1, 2, …` of `source` over `conns` in a closed loop
/// until `until`, handing each finished request to `sink`. Each
/// connection sends through `conn[route(call)]`.
pub fn drive(
    conns: &mut [Vec<Client>],
    until: Until,
    source: &(dyn Fn(u64) -> Call + Sync),
    route: &(dyn Fn(&Call) -> usize + Sync),
    sink: &Sink,
) -> Drove {
    let cursor = Mutex::new(Cursor {
        next: 0,
        done: false,
        boundaries: Vec::new(),
    });
    let t0 = Instant::now();
    let take = || -> Option<u64> {
        let mut c = cursor.lock().expect("cursor lock poisoned");
        if c.done {
            return None;
        }
        let i = c.next;
        let boundary = match until {
            Until::Count(n) => {
                c.done = i >= n;
                false
            }
            Until::Blocks { len, secs } => {
                c.done = i > 0 && i.is_multiple_of(len) && t0.elapsed().as_secs_f64() >= secs;
                i.is_multiple_of(len)
            }
        };
        if boundary {
            c.boundaries.push(Boundary {
                t_ns: t0.elapsed().as_nanos() as u64,
                cpu_us: sys::cpu_us(),
            });
        }
        if c.done {
            return None;
        }
        c.next += 1;
        Some(i)
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|clients| {
                let take = &take;
                scope.spawn(move || {
                    while let Some(idx) = take() {
                        let call = source(idx);
                        let client = &mut clients[route(&call)];
                        let start_ns = t0.elapsed().as_nanos() as u64;
                        let resp = client.call_host(&call.req, None, call.host);
                        let end_ns = t0.elapsed().as_nanos() as u64;
                        if resp.is_err() {
                            // Counted as failed; a fresh connection keeps
                            // the rest of the pass going.
                            let _ = client.reconnect();
                        }
                        sink(Done {
                            idx,
                            call: &call,
                            start_ns,
                            end_ns,
                            resp: resp.as_ref().ok(),
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("client thread panicked");
        }
    });
    Drove {
        wall_s: t0.elapsed().as_secs_f64(),
        boundaries: cursor
            .into_inner()
            .expect("cursor lock poisoned")
            .boundaries,
    }
}

/// One request of a recorded pass.
pub struct Sample {
    pub call: Call,
    pub start_ns: u64,
    pub end_ns: u64,
    pub answer: Answer,
}

impl Sample {
    pub fn rtt_us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// A pass that kept every request, in index order.
#[derive(Default)]
pub struct Pass {
    pub samples: Vec<Sample>,
    pub wall_s: f64,
}

impl Pass {
    /// Adds `later`'s requests and time to this pass.
    pub fn append(&mut self, mut later: Pass) {
        self.samples.append(&mut later.samples);
        self.wall_s += later.wall_s;
    }

    pub fn ok(&self) -> u64 {
        self.samples.iter().filter(|s| s.answer.ok()).count() as u64
    }

    /// Mean client round trip, in microseconds.
    pub fn mean_rtt_us(&self) -> f64 {
        self.samples.iter().map(Sample::rtt_us).sum::<f64>() / self.samples.len().max(1) as f64
    }
}

/// [`drive`]s exactly `n` requests and keeps every one of them.
pub fn record(
    conns: &mut [Vec<Client>],
    n: u64,
    source: &(dyn Fn(u64) -> Call + Sync),
    route: &(dyn Fn(&Call) -> usize + Sync),
) -> Pass {
    let kept = Mutex::new(Vec::with_capacity(n as usize));
    let drove = drive(conns, Until::Count(n), source, route, &|d| {
        let sample = Sample {
            call: d.call.clone(),
            start_ns: d.start_ns,
            end_ns: d.end_ns,
            answer: Answer::of(d.call, d.resp),
        };
        kept.lock()
            .expect("samples lock poisoned")
            .push((d.idx, sample));
    });
    let mut kept = kept.into_inner().expect("samples lock poisoned");
    kept.sort_unstable_by_key(|(i, _)| *i);
    Pass {
        samples: kept.into_iter().map(|(_, s)| s).collect(),
        wall_s: drove.wall_s,
    }
}

/// Sends everything through the connection's only client.
pub fn front_door(_: &Call) -> usize {
    0
}

/// A deployment after set-up: spawned, connected, pool loaded and
/// warmed up.
pub struct Ready {
    pub deployment: Deployment,
    pub conns: Vec<Vec<Client>>,
    /// Spawn to end of warm-up, in seconds.
    pub setup_s: f64,
    /// Set-up replies, checked with the timed ones.
    pub samples: Vec<Sample>,
}

/// Spawns the deployment, loads the key pool and runs the warm-up.
pub fn setup(plan: &Plan, warmup: u64) -> io::Result<Ready> {
    let t0 = Instant::now();
    let deployment = Deployment::spawn(plan.workload)?;
    let mut conns = deployment.connect()?;
    let preload = plan.preload();
    let loaded = record(
        &mut conns,
        preload.len() as u64,
        &|i| preload[i as usize].clone(),
        &front_door,
    );
    let warmed = record(&mut conns, warmup, &|i| plan.warmup(i), &front_door);
    let setup_s = t0.elapsed().as_secs_f64();
    let mut samples = loaded.samples;
    samples.extend(warmed.samples);
    Ok(Ready {
        deployment,
        conns,
        setup_s,
        samples,
    })
}

impl Ready {
    /// Closes the connections and drains the deployment.
    pub fn shutdown(self) {
        drop(self.conns);
        self.deployment.shutdown();
    }
}
