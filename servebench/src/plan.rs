//! The four workloads and their seeded request streams.
//!
//! Every request a run sends is a pure function of `(workload, seed,
//! index)`: the server only ever sees the generated frames. Every
//! workload repeats one fixed sequence of requests. The warm workloads
//! draw theirs over a small key pool that set-up loads into the cache;
//! `cold-xtree`'s is [`COLD_KEYS`] distinct keys, three times the
//! cache's capacity, sent in the same cyclic order every time round, so
//! the least-recently-used cache has evicted each key before it comes
//! round again and no request is ever a cache hit.

use xtree_host::{HOST_HYPERCUBE, HOST_UNIVERSAL, HOST_XTREE};
use xtree_server::wire::encode_request_host;
use xtree_server::Request;

/// `random-bst` in `TreeFamily::ALL`.
pub const FAMILY_RANDOM_BST: u8 = 4;

/// Number of simulation workloads a `Simulate` cycles through.
const SIM_WORKLOADS: u8 = 4;

/// Distinct keys in `cold-xtree`'s sequence: three times the cache's 256
/// entries, so each of the cache's 8 LRU shards sees far more than its 32
/// entries' worth of keys in every cycle.
pub const COLD_KEYS: u64 = 768;

/// Tags that keep the key-seed streams of the pool, the cold warm-up and
/// the cold timed window disjoint (the mix below is a bijection, so
/// distinct inputs never share a tree seed).
const POOL_TAG: u64 = 1 << 62;
const WARMUP_TAG: u64 = 1 << 63;

/// One benchmark workload: a single request-cost mode each.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Cache hits on the X-tree: 3 Simulate to 1 Embed, Zipf keys.
    WarmXtree,
    /// Every request a cache miss: Theorem-1 build, insert, evict.
    ColdXtree,
    /// Cache hits served on the degree-415 universal graph.
    WarmUniversal,
    /// X-tree and hypercube hits through a 2-shard router.
    RoutedMixed,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::WarmXtree,
        Workload::ColdXtree,
        Workload::WarmUniversal,
        Workload::RoutedMixed,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmXtree => "warm-xtree",
            Workload::ColdXtree => "cold-xtree",
            Workload::WarmUniversal => "warm-universal",
            Workload::RoutedMixed => "routed-mixed",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Guest size: the filling size 16(2^(r+1) - 1) of X(r).
    pub fn nodes(self) -> u64 {
        match self {
            Workload::WarmXtree | Workload::RoutedMixed => 2032, // X(6)
            Workload::ColdXtree => 4080,                         // X(7)
            Workload::WarmUniversal => 496,                      // X(4)
        }
    }

    /// Distinct tree seeds in the key pool (0 for `cold-xtree`).
    pub fn pool(self) -> u64 {
        match self {
            Workload::WarmXtree => 64,
            Workload::ColdXtree => 0,
            Workload::WarmUniversal => 8,
            Workload::RoutedMixed => 32,
        }
    }

    /// Requests per block: the unit the timed window is measured in
    /// (about 0.2 to 0.8 s of load each). The window always ends on a
    /// block boundary, so every run sends whole blocks.
    pub fn block(self) -> u64 {
        match self {
            Workload::WarmXtree | Workload::RoutedMixed => 512,
            Workload::ColdXtree => 256,
            Workload::WarmUniversal => 128,
        }
    }

    /// Requests after which the sequence repeats: one block, or for
    /// `cold-xtree` the whole key cycle (three blocks).
    pub fn period(self) -> u64 {
        match self {
            Workload::ColdXtree => COLD_KEYS,
            _ => self.block(),
        }
    }

    /// Whether every request must miss the cache.
    pub fn misses_only(self) -> bool {
        self == Workload::ColdXtree
    }

    /// Whether the workload runs through the cluster router.
    pub fn routed(self) -> bool {
        self == Workload::RoutedMixed
    }
}

/// One generated request: the message and the optional host tag stamped
/// into its frame (`None` sends the pre-host encoding).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Call {
    pub req: Request,
    pub host: Option<u8>,
}

impl Call {
    /// The host the server resolves for this call.
    pub fn host_tag(&self) -> u8 {
        self.host.unwrap_or(HOST_XTREE)
    }

    /// The request payload exactly as the client encodes it.
    pub fn payload(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_request_host(&self.req, None, self.host, &mut buf);
        buf
    }
}

/// SplitMix64's output function: a bijection on `u64`.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SplitMix64: the seeded generator behind every draw.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        (self.unit() * n as f64) as u64
    }
}

/// Zipf(s) over ranks `0..n` by inverse CDF.
fn zipf_cdf(n: u64, s: f64) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (1..=n)
        .map(|k| {
            acc += (k as f64).powf(-s);
            acc
        })
        .collect();
    for c in &mut cdf {
        *c /= acc;
    }
    cdf
}

/// A workload's whole request stream under one seed.
pub struct Plan {
    pub workload: Workload,
    /// The repeating sequence: one period of requests.
    period: Vec<Call>,
    /// Seed-derived base of every tree seed.
    base: u64,
}

impl Plan {
    /// Draws the workload's stream from `seed`.
    pub fn new(workload: Workload, seed: u64) -> Plan {
        let base = mix(seed ^ 0x5EED_5E4E_BE4C_0001);
        let mut plan = Plan {
            workload,
            period: Vec::new(),
            base,
        };
        let mut rng = SplitMix(mix(base ^ 0xB10C));
        let len = workload.period();
        plan.period = match workload {
            Workload::ColdXtree => (0..len).map(|i| plan.cold(i)).collect(),
            Workload::WarmXtree => {
                let cdf = zipf_cdf(workload.pool(), 1.1);
                let mut sims = 0u8;
                (0..len)
                    .map(|i| {
                        let u = rng.unit();
                        let key = cdf.partition_point(|&c| c <= u).min(cdf.len() - 1) as u64;
                        if i % 4 == 3 {
                            plan.embed(key, None)
                        } else {
                            sims = (sims + 1) % SIM_WORKLOADS;
                            plan.simulate(key, None, sims)
                        }
                    })
                    .collect()
            }
            Workload::WarmUniversal => (0..len)
                .map(|_| plan.embed(rng.below(workload.pool()), Some(HOST_UNIVERSAL)))
                .collect(),
            Workload::RoutedMixed => (0..len)
                .map(|i| {
                    let key = rng.below(workload.pool());
                    let host = Some(if i % 2 == 0 {
                        HOST_XTREE
                    } else {
                        HOST_HYPERCUBE
                    });
                    if (i / 2) % 2 == 0 {
                        plan.embed(key, host)
                    } else {
                        plan.simulate(key, host, ((i / 4) % u64::from(SIM_WORKLOADS)) as u8)
                    }
                })
                .collect(),
        };
        plan
    }

    fn tree_seed(&self, tagged_index: u64) -> u64 {
        mix(self.base ^ tagged_index)
    }

    fn embed(&self, key: u64, host: Option<u8>) -> Call {
        Call {
            req: Request::Embed {
                family: FAMILY_RANDOM_BST,
                nodes: self.workload.nodes(),
                seed: self.tree_seed(POOL_TAG | key),
                theorem: 1,
            },
            host,
        }
    }

    fn simulate(&self, key: u64, host: Option<u8>, workload: u8) -> Call {
        Call {
            req: Request::Simulate {
                family: FAMILY_RANDOM_BST,
                nodes: self.workload.nodes(),
                seed: self.tree_seed(POOL_TAG | key),
                theorem: 1,
                workload,
            },
            host,
        }
    }

    /// A cold key: its own tree seed, never in the pool.
    fn cold(&self, tagged_index: u64) -> Call {
        Call {
            req: Request::Embed {
                family: FAMILY_RANDOM_BST,
                nodes: self.workload.nodes(),
                seed: self.tree_seed(tagged_index),
                theorem: 1,
            },
            host: None,
        }
    }

    /// Embeds that load the key pool into the cache during set-up: every
    /// pool key on every host the workload serves.
    pub fn preload(&self) -> Vec<Call> {
        let hosts: &[Option<u8>] = match self.workload {
            Workload::ColdXtree => &[],
            Workload::WarmXtree => &[None],
            Workload::WarmUniversal => &[Some(HOST_UNIVERSAL)],
            Workload::RoutedMixed => &[Some(HOST_XTREE), Some(HOST_HYPERCUBE)],
        };
        hosts
            .iter()
            .flat_map(|&h| (0..self.workload.pool()).map(move |k| (k, h)))
            .map(|(k, h)| self.embed(k, h))
            .collect()
    }

    /// The untimed warm-up request `i`: the head of the block for a warm
    /// workload, a key outside the sequence for `cold-xtree`.
    pub fn warmup(&self, i: u64) -> Call {
        match self.workload {
            Workload::ColdXtree => self.cold(WARMUP_TAG | i),
            _ => self.call(i),
        }
    }

    /// Timed request `i`.
    pub fn call(&self, i: u64) -> Call {
        self.period[i as usize % self.period.len()].clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first `n` timed requests as the bytes the client sends.
    fn stream(w: Workload, seed: u64, n: u64) -> Vec<u8> {
        let plan = Plan::new(w, seed);
        let mut out: Vec<u8> = plan.preload().iter().flat_map(Call::payload).collect();
        for i in 0..n {
            out.extend(plan.warmup(i).payload());
            out.extend(plan.call(i).payload());
        }
        out
    }

    #[test]
    fn same_seed_gives_byte_identical_requests() {
        for w in Workload::ALL {
            let n = 2 * w.block();
            assert_eq!(stream(w, 1991, n), stream(w, 1991, n), "{w:?}");
        }
    }

    #[test]
    fn different_seed_gives_different_requests() {
        for w in Workload::ALL {
            assert_ne!(
                stream(w, 1991, w.block()),
                stream(w, 1992, w.block()),
                "{w:?}"
            );
        }
    }

    #[test]
    fn cold_keys_are_distinct_in_a_cycle_and_miss_the_warmup() {
        let plan = Plan::new(Workload::ColdXtree, 7);
        let mut seen = std::collections::HashSet::new();
        for i in 0..COLD_KEYS {
            assert!(seen.insert(plan.call(i).payload()));
            assert!(seen.insert(plan.warmup(i).payload()));
        }
        assert_eq!(plan.call(COLD_KEYS), plan.call(0), "the sequence cycles");
    }

    #[test]
    fn warm_blocks_stay_inside_the_preloaded_pool() {
        for w in [
            Workload::WarmXtree,
            Workload::WarmUniversal,
            Workload::RoutedMixed,
        ] {
            let plan = Plan::new(w, 3);
            let keys: std::collections::HashSet<_> = plan
                .preload()
                .iter()
                .map(|c| match c.req {
                    Request::Embed { seed, .. } => (seed, c.host_tag()),
                    _ => unreachable!("preload is Embed only"),
                })
                .collect();
            assert_eq!(keys.len() as u64, plan.preload().len() as u64);
            for i in 0..w.block() {
                let c = plan.call(i);
                let (Request::Embed { seed, .. } | Request::Simulate { seed, .. }) = c.req else {
                    unreachable!("compute requests only")
                };
                assert!(keys.contains(&(seed, c.host_tag())), "{w:?} request {i}");
            }
        }
    }

    #[test]
    fn mixes_have_the_stated_shape() {
        let plan = Plan::new(Workload::WarmXtree, 1);
        let n = Workload::WarmXtree.block();
        let embeds = (0..n)
            .filter(|&i| matches!(plan.call(i).req, Request::Embed { .. }))
            .count() as u64;
        assert_eq!(embeds, n / 4, "3 Simulate to 1 Embed");
        let plan = Plan::new(Workload::RoutedMixed, 1);
        let n = Workload::RoutedMixed.block();
        let hyper = (0..n)
            .filter(|&i| plan.call(i).host == Some(HOST_HYPERCUBE))
            .count() as u64;
        assert_eq!(hyper, n / 2, "X-tree and hypercube alternate");
    }
}
