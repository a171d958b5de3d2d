//! Golden pinning of serving answers across commits.
//!
//! Every compute request a shard can answer — each tree family at a few
//! sizes, both theorems, all three hosts, `Embed` and every `Simulate`
//! workload (single and `WORKLOAD_ALL`) — goes through
//! [`handle_compute`] on a cache of capacity 0 (every request builds),
//! and one FNV-1a hash over the encoded replies is compared with a
//! checked-in constant. The cluster byte-agreement test compares two
//! paths of one build; this one catches a refactor that changes what the
//! server says.
//!
//! Theorem 2 on the universal host runs at one node only: its `G_n` sits
//! over `X(r + 4)` and is rebuilt per request, which at 48 nodes already
//! costs ~0.3 s per reply in a debug build.
//!
//! Regenerate (only when a change is *meant* to alter answers):
//! `XTREE_GOLDEN_PRINT=1 cargo test -p xtree-server --test serving_golden -- --nocapture`

use xtree_host::{HOST_LABELS, HOST_UNIVERSAL};
use xtree_server::service::handle_compute;
use xtree_server::wire::{encode_response, WORKLOAD_ALL};
use xtree_server::{EmbeddingCache, Request, Response, ServerMetrics};
use xtree_sim::workload::WORKLOADS;
use xtree_trees::TreeFamily;

/// One node and the filling sizes `2^{r+5} − 16` of `X(1)` to `X(4)`.
const SIZES: [u64; 5] = [1, 48, 112, 240, 496];

/// FNV-1a of every encoded reply, in request order, at the commit that
/// introduced this test.
const GOLDEN: u64 = 0xd9ad_f1fa_7359_1de8;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn serving_answers_match_the_golden_hash() {
    let cache = EmbeddingCache::new(0);
    let metrics = ServerMetrics::new();
    let workloads: Vec<Option<u8>> = std::iter::once(None)
        .chain((0..WORKLOADS.len() as u8).map(Some))
        .chain(std::iter::once(Some(WORKLOAD_ALL)))
        .collect();
    let mut bytes = Vec::new();
    let mut replies = 0usize;
    for family in 0..TreeFamily::ALL.len() as u8 {
        for nodes in SIZES {
            let seed = 0x5EED ^ (u64::from(family) << 16) ^ nodes;
            for theorem in [1u8, 2] {
                for host in 0..HOST_LABELS.len() as u8 {
                    if theorem == 2 && host == HOST_UNIVERSAL && nodes > 1 {
                        continue;
                    }
                    for &workload in &workloads {
                        let req = match workload {
                            None => Request::Embed {
                                family,
                                nodes,
                                seed,
                                theorem,
                            },
                            Some(workload) => Request::Simulate {
                                family,
                                nodes,
                                seed,
                                theorem,
                                workload,
                            },
                        };
                        let resp = handle_compute(&req, host, &cache, &metrics);
                        assert!(
                            !matches!(resp, Response::Error { .. }),
                            "{req:?} on host {host}: {resp:?}"
                        );
                        let start = bytes.len();
                        encode_response(&resp, &mut bytes);
                        // Length-delimit each reply so two streams cannot
                        // collide by shifting bytes between neighbours.
                        let len = (bytes.len() - start) as u32;
                        bytes.extend_from_slice(&len.to_le_bytes());
                        replies += 1;
                    }
                }
            }
        }
    }
    let cells = 12 * (SIZES.len() * 2 * 3 - (SIZES.len() - 1));
    assert_eq!(replies, cells * (WORKLOADS.len() + 2));
    let hash = fnv1a(&bytes);
    if std::env::var_os("XTREE_GOLDEN_PRINT").is_some() {
        println!("serving golden: {hash:#018x} over {replies} replies");
    }
    assert_eq!(hash, GOLDEN, "serving answers changed: {hash:#018x}");
}
