//! The untraced run: end-to-end metrics as a client sees them.

use crate::check::{check, Answer, References, Verdict};
use crate::deploy::{self, drive, front_door, Until};
use crate::plan::{Call, Plan, Workload};
use crate::sys;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// How much work a run does besides its timed window.
pub struct Size {
    /// Set-ups per untraced run; `setup_s` is their median.
    pub setups: usize,
    /// Untimed warm-up requests after the pool is loaded.
    pub warmup: u64,
    /// Requests per traced pass.
    pub trace_pass: u64,
}

impl Size {
    /// The benchmark's sizes for `w`.
    pub fn full(w: Workload) -> Size {
        Size {
            setups: 11,
            warmup: match w {
                // On `cold-xtree`, 64 distinct builds bring the worker's
                // Theorem-1 scratch to its steady-state size.
                Workload::ColdXtree | Workload::WarmUniversal => 64,
                Workload::WarmXtree | Workload::RoutedMixed => 256,
            },
            // About a second of load.
            trace_pass: match w {
                Workload::WarmXtree | Workload::RoutedMixed => 2048,
                Workload::ColdXtree | Workload::WarmUniversal => 512,
            },
        }
    }

    /// A few requests of everything.
    pub fn smoke() -> Size {
        Size {
            setups: 1,
            warmup: 8,
            trace_pass: 64,
        }
    }
}

/// What a run produced, traced or not.
pub struct Outcome {
    /// `(name, unit, value)`, in report order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    /// Every checked reply matched its reference and the paper's bounds.
    pub correct: bool,
    pub problem: Option<String>,
    /// Raw values behind the metrics, for the raw record.
    pub notes: Vec<(&'static str, f64)>,
    /// Raw series behind the metrics (every set-up time, every block's
    /// value), for the raw record.
    pub series: Vec<(&'static str, Vec<f64>)>,
}

/// The median of `v`.
fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of sorted `v`; 0 for an empty `v` (a block
/// in which every request failed).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// One finished block of the timed window.
#[derive(Clone, Copy)]
struct BlockStat {
    ok: u64,
    p50_us: f64,
    p90_us: f64,
}

/// What the timed window accumulates while it runs: per-block latency
/// (only the open blocks keep their round trips) and failures. Memory
/// stays flat however many requests the window sends.
struct Window {
    block: u64,
    attempted: u64,
    failed: u64,
    /// Open blocks: requests finished, round trips of the computed ones.
    open: BTreeMap<u64, (u64, Vec<f64>)>,
    done: BTreeMap<u64, BlockStat>,
    verdict: Verdict,
}

impl Window {
    fn finish(&mut self, idx: u64, rtt_us: f64, ok: bool) {
        self.attempted += 1;
        let block = idx / self.block;
        let (n, rtts) = self.open.entry(block).or_default();
        *n += 1;
        if ok {
            rtts.push(rtt_us);
        } else {
            self.failed += 1;
        }
        if *n == self.block {
            let (_, mut rtts) = self.open.remove(&block).expect("block is open");
            rtts.sort_by(f64::total_cmp);
            let stat = BlockStat {
                ok: rtts.len() as u64,
                p50_us: percentile(&rtts, 50.0),
                p90_us: percentile(&rtts, 90.0),
            };
            self.done.insert(block, stat);
        }
    }
}

/// The level nine in ten of the window's blocks did at least as well
/// as: the 90th percentile of a per-block cost (`cost` true) or the
/// 10th of a per-block rate.
fn steady(per_block: &[f64], cost: bool) -> f64 {
    let mut v = per_block.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, if cost { 90.0 } else { 10.0 })
}

/// Sets up, drives the timed window for `seconds` of whole blocks, then
/// sets up `size.setups - 1` more times for the set-up median.
///
/// Throughput, latency percentiles and CPU per request are computed per
/// block, and each metric is the block value on the slow side of the
/// window's blocks that [`steady`] picks. On a shared host the blocks'
/// speed is not spread around one level: most blocks run at one steady,
/// slower speed, and bursts of blocks run up to 1.8 times faster when
/// the host has room to spare. The bursts come and go from run to run,
/// so a median or a best block moves with them; the slow side stays at
/// the steady speed.
pub fn run(plan: &Plan, size: &Size, seconds: f64) -> Result<Outcome, String> {
    let len = plan.workload.block();
    // The window only repeats one period of requests, so every answer it
    // can get is known before anything is timed and is judged as it
    // arrives.
    let period: Vec<Call> = (0..plan.workload.period()).map(|i| plan.call(i)).collect();
    let refs = References::compute(period.iter());
    let setup = || deploy::setup(plan, size.warmup).map_err(|e| format!("set-up: {e}"));
    let mut ready = setup()?;

    let window = Mutex::new(Window {
        block: len,
        attempted: 0,
        failed: 0,
        open: BTreeMap::new(),
        done: BTreeMap::new(),
        verdict: Verdict::default(),
    });
    let drove = drive(
        &mut ready.conns,
        Until::Blocks { len, secs: seconds },
        &|i| plan.call(i),
        &front_door,
        &|d| {
            let answer = Answer::of(d.call, d.resp);
            let want = refs.get(d.call).expect("every timed call has a reference");
            let rtt_us = (d.end_ns - d.start_ns) as f64 / 1e3;
            let mut w = window.lock().expect("window lock poisoned");
            w.finish(d.idx, rtt_us, answer.ok());
            w.verdict.judge(d.call, answer, want);
            if plan.workload.misses_only() {
                w.verdict.expect_miss(d.call, answer);
            }
        },
    );
    let peak_rss_mib = sys::peak_rss_mib()?;
    let mut setups = vec![ready.setup_s];
    let mut setup_samples = std::mem::take(&mut ready.samples);
    ready.shutdown();
    // The other set-ups come after the window, so the memory they leave
    // in the allocator stays out of `peak_rss_mib`.
    for _ in 1..size.setups {
        let mut again = setup()?;
        setups.push(again.setup_s);
        setup_samples.append(&mut again.samples);
        again.shutdown();
    }

    let w = window.into_inner().expect("window lock poisoned");
    let mut verdict = check(setup_samples.iter());
    verdict.merge(w.verdict);

    if !w.open.is_empty() || w.done.is_empty() || drove.boundaries.len() != w.done.len() + 1 {
        return Err(format!(
            "window ended off a block boundary ({} open, {} done)",
            w.open.len(),
            w.done.len()
        ));
    }
    let blocks: Vec<BlockStat> = w.done.values().copied().collect();
    let spans = drove.boundaries.windows(2);
    let tput: Vec<f64> = blocks
        .iter()
        .zip(spans.clone())
        .map(|(b, e)| b.ok as f64 / ((e[1].t_ns - e[0].t_ns) as f64 / 1e9))
        .collect();
    let cpu: Vec<f64> = spans
        .map(|e| (e[1].cpu_us - e[0].cpu_us) / len as f64)
        .collect();
    let p50: Vec<f64> = blocks.iter().map(|b| b.p50_us).collect();
    let p90: Vec<f64> = blocks.iter().map(|b| b.p90_us).collect();
    let metrics = vec![
        ("throughput_rps", "1/s", steady(&tput, false)),
        ("latency_p50_us", "us", steady(&p50, true)),
        ("latency_p90_us", "us", steady(&p90, true)),
        ("cpu_us_per_req", "us", steady(&cpu, true)),
        ("peak_rss_mib", "MiB", peak_rss_mib),
        ("setup_s", "s", median(&setups)),
    ];
    let notes = vec![
        ("failed_ratio", w.failed as f64 / w.attempted.max(1) as f64),
        ("wall_s", drove.wall_s),
        ("blocks", blocks.len() as f64),
        ("checked", verdict.checked as f64),
    ];
    Ok(Outcome {
        metrics,
        attempted: w.attempted,
        failed: w.failed,
        correct: verdict.correct(),
        problem: verdict.first_problem,
        notes,
        series: vec![
            ("setup_s_runs", setups),
            ("block_throughput_rps", tput),
            ("block_latency_p50_us", p50),
            ("block_latency_p90_us", p90),
            ("block_cpu_us_per_req", cpu),
        ],
    })
}
