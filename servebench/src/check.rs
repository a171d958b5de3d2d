//! Answer checking: every reply against the paper's bounds and against
//! an in-process `handle_compute` reference for its key.
//!
//! References are computed before the timed window (after it for the
//! set-up replies), on private cache-less state, once per distinct
//! request.

use crate::deploy::Sample;
use crate::plan::Call;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::Hasher;
use xtree_host::{HOST_HYPERCUBE, HOST_UNIVERSAL, HOST_XTREE};
use xtree_server::service::handle_compute;
use xtree_server::wire::encode_response;
use xtree_server::{EmbeddingCache, Response, ServerMetrics};

/// A reply reduced to what checking needs, so a pass can keep one per
/// request without holding the replies themselves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Answer {
    /// No computed answer: a transport failure, `Overloaded`, or a typed
    /// error.
    Failed,
    /// A computed answer.
    Ok {
        /// Hash of the reply's encoding with `cached` cleared.
        digest: u64,
        /// Whether an `EmbedOk` meets the paper's bound for its host.
        in_bounds: bool,
        /// Whether the reply says the cache answered.
        cached: bool,
    },
}

impl Answer {
    pub fn of(call: &Call, resp: Option<&Response>) -> Answer {
        match resp {
            Some(r @ (Response::EmbedOk { .. } | Response::SimulateOk { .. })) => Answer::Ok {
                digest: digest(r),
                in_bounds: within_bounds(call.host_tag(), r),
                cached: matches!(
                    r,
                    Response::EmbedOk { cached: true, .. }
                        | Response::SimulateOk { cached: true, .. }
                ),
            },
            _ => Answer::Failed,
        }
    }

    pub fn ok(&self) -> bool {
        matches!(self, Answer::Ok { .. })
    }

    pub fn cached(&self) -> bool {
        matches!(self, Answer::Ok { cached: true, .. })
    }
}

/// What checking found.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Replies compared against a reference.
    pub checked: u64,
    /// Replies that differ from their reference (ignoring `cached`).
    pub mismatches: u64,
    /// `EmbedOk` replies outside the paper's bounds.
    pub bound_violations: u64,
    /// Cache hits on a workload whose every request must miss: the run
    /// would not measure what it claims to.
    pub unexpected_hits: u64,
    /// The first problem found, for the log.
    pub first_problem: Option<String>,
}

impl Verdict {
    pub fn correct(&self) -> bool {
        self.mismatches == 0 && self.bound_violations == 0 && self.unexpected_hits == 0
    }

    /// Judges one answer against its reference digest. Failed requests
    /// are counted by the caller, not here.
    pub fn judge(&mut self, call: &Call, answer: Answer, want: u64) {
        let Answer::Ok {
            digest, in_bounds, ..
        } = answer
        else {
            return;
        };
        self.checked += 1;
        if !in_bounds {
            self.bound_violations += 1;
            self.first_problem
                .get_or_insert_with(|| format!("{call:?} breaks the paper's bound"));
        }
        if digest != want {
            self.mismatches += 1;
            self.first_problem
                .get_or_insert_with(|| format!("{call:?} differs from its reference"));
        }
    }

    /// Counts `answer` as a hit on a workload that must always miss, if
    /// the cache answered it.
    pub fn expect_miss(&mut self, call: &Call, answer: Answer) {
        if answer.cached() {
            self.unexpected_hits += 1;
            self.first_problem
                .get_or_insert_with(|| format!("{call:?} was a cache hit"));
        }
    }

    /// Adds another verdict's counts.
    pub fn merge(&mut self, other: Verdict) {
        self.checked += other.checked;
        self.mismatches += other.mismatches;
        self.bound_violations += other.bound_violations;
        self.unexpected_hits += other.unexpected_hits;
        if self.first_problem.is_none() {
            self.first_problem = other.first_problem;
        }
    }
}

/// Hash of the reply's encoding with the `cached` convenience flag
/// cleared: which cache answered is not part of the answer.
fn digest(resp: &Response) -> u64 {
    let mut r = resp.clone();
    if let Response::EmbedOk { cached, .. } | Response::SimulateOk { cached, .. } = &mut r {
        *cached = false;
    }
    let mut bytes = Vec::new();
    encode_response(&r, &mut bytes);
    let mut h = DefaultHasher::new();
    h.write(&bytes);
    h.finish()
}

/// The paper's bound on an `EmbedOk` for `host`: Theorem 1 (X-tree,
/// dilation 3, load 16), Theorem 3 (hypercube, dilation 4), Theorem 4
/// (universal graph, dilation 10).
fn within_bounds(host: u8, resp: &Response) -> bool {
    let Response::EmbedOk {
        dilation, max_load, ..
    } = *resp
    else {
        return true;
    };
    match host {
        HOST_XTREE => dilation <= 3 && max_load <= 16,
        HOST_HYPERCUBE => dilation <= 4,
        HOST_UNIVERSAL => dilation <= 10,
        _ => false,
    }
}

/// The in-process answer for one call, on cache-less private state.
pub fn reference(call: &Call, metrics: &ServerMetrics) -> Response {
    handle_compute(&call.req, call.host_tag(), &EmbeddingCache::new(0), metrics)
}

/// Reference digests, one per distinct request payload.
pub struct References(HashMap<Vec<u8>, u64>);

impl References {
    /// References for every distinct call in `calls`.
    pub fn compute<'a>(calls: impl Iterator<Item = &'a Call>) -> References {
        let metrics = ServerMetrics::new();
        let mut refs = HashMap::new();
        for c in calls {
            refs.entry(c.payload())
                .or_insert_with(|| digest(&reference(c, &metrics)));
        }
        References(refs)
    }

    /// The reference digest for `call`, if it was computed.
    pub fn get(&self, call: &Call) -> Option<u64> {
        self.0.get(&call.payload()).copied()
    }
}

/// Checks every answer among `samples`.
pub fn check<'a>(samples: impl Iterator<Item = &'a Sample> + Clone) -> Verdict {
    let refs = References::compute(samples.clone().map(|s| &s.call));
    let mut v = Verdict::default();
    for s in samples {
        let want = refs.get(&s.call).expect("every call has a reference");
        v.judge(&s.call, s.answer, want);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtree_server::Request;

    #[test]
    fn bounds_follow_the_host() {
        let embed = |dilation, max_load| Response::EmbedOk {
            height: 6,
            dilation,
            max_load,
            congestion: 1,
            injective: false,
            cached: false,
        };
        assert!(within_bounds(HOST_XTREE, &embed(3, 16)));
        assert!(!within_bounds(HOST_XTREE, &embed(4, 16)));
        assert!(!within_bounds(HOST_XTREE, &embed(3, 17)));
        assert!(within_bounds(HOST_HYPERCUBE, &embed(4, 16)));
        assert!(!within_bounds(HOST_HYPERCUBE, &embed(5, 16)));
        assert!(within_bounds(HOST_UNIVERSAL, &embed(10, 1)));
        assert!(!within_bounds(HOST_UNIVERSAL, &embed(11, 1)));
    }

    #[test]
    fn a_wrong_answer_is_caught() {
        let call = Call {
            req: Request::Embed {
                family: 4,
                nodes: 496,
                seed: 9,
                theorem: 1,
            },
            host: None,
        };
        let right = reference(&call, &ServerMetrics::new());
        let Response::EmbedOk { congestion, .. } = right else {
            panic!("reference must be EmbedOk, got {right:?}");
        };
        let mut wrong = right.clone();
        if let Response::EmbedOk { congestion: c, .. } = &mut wrong {
            *c = congestion + 1;
        }
        let sample = |resp: Response| Sample {
            call: call.clone(),
            start_ns: 0,
            end_ns: 1,
            answer: Answer::of(&call, Some(&resp)),
        };
        let good = [sample(right)];
        assert!(check(good.iter()).correct());
        let bad = [sample(wrong)];
        let v = check(bad.iter());
        assert_eq!(v.mismatches, 1);
        assert!(!v.correct());
    }

    #[test]
    fn a_hit_on_a_miss_only_workload_is_caught() {
        let call = Call {
            req: Request::Embed {
                family: 4,
                nodes: 496,
                seed: 9,
                theorem: 1,
            },
            host: None,
        };
        let mut resp = reference(&call, &ServerMetrics::new());
        let mut v = Verdict::default();
        v.expect_miss(&call, Answer::of(&call, Some(&resp)));
        assert!(v.correct(), "a computed answer is a miss");
        if let Response::EmbedOk { cached, .. } = &mut resp {
            *cached = true;
        }
        v.expect_miss(&call, Answer::of(&call, Some(&resp)));
        assert_eq!(v.unexpected_hits, 1);
        assert!(!v.correct());
    }
}
