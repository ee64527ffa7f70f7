//! The part every workload shares: set up, one untimed warm-up round, the
//! timed rounds, the off-the-clock verification pass, tear-down, and the
//! reduction of rounds to the reported metrics.

use std::path::Path;
use std::time::{Duration, Instant};

use crate::fixture::{peak_rss_mib, stolen_cpu_secs, ScratchDir, Sizes};
use crate::span::{NoTrace, Tracer};
use crate::stats::{coefficient_of_variation, median, percentile_sorted};

/// What one round measured, before any reduction.
pub struct RoundRaw {
    /// Wall time of the round.
    pub wall: Duration,
    /// Operations attempted (refused, shed, missed and errored included).
    pub attempted: u64,
    /// Latency of every operation that was answered OK, in ns.
    pub ok_latencies_ns: Vec<u64>,
    /// Open loop only: how late the generator issued each request, in ns.
    pub gen_late_ns: Vec<u64>,
}

/// One round reduced to numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundSummary {
    /// Wall time of the round, seconds.
    pub wall_s: f64,
    /// Units of work answered OK per second of round wall time.
    pub throughput: f64,
    /// Median operation latency, µs.
    pub p50_us: f64,
    /// 90th percentile operation latency, µs.
    pub p90_us: f64,
    /// 99th percentile operation latency, µs.
    pub p99_us: f64,
    /// Slowest operation, µs.
    pub max_us: f64,
    /// 99th percentile generator lateness, µs (0 for closed loops).
    pub gen_late_p99_us: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations answered OK.
    pub ok: u64,
    /// Operations answered OK within the workload's latency limit.
    pub within_limit: u64,
    /// The round's `slo_met_share`: the median, over [`SLO_SLICES`] slices
    /// of consecutive operations, of the slice's share answered within the
    /// limit, times the share of operations answered at all.
    pub slo_share: f64,
    /// Share of the VM's CPU time the hypervisor withheld during the
    /// round: `steal` ÷ (wall × vCPUs).
    pub stolen_share: f64,
}

/// Slices a round's operations are cut into for `slo_met_share`. A host
/// stall of a few milliseconds puts a run of consecutive operations past
/// their limit and several such stalls land in every round, so the share
/// over a whole round reads the host (0.988 to 0.999 on the same code);
/// they spoil a minority of slices, though, while a program that has
/// become slow misses in every slice.
pub const SLO_SLICES: usize = 100;

impl RoundSummary {
    /// Reduces a round. `work_per_op` is the work one operation stands for
    /// in `throughput` (1024 predictions per batch call, 140 training
    /// queries per train op, 1 otherwise).
    pub fn of(mut raw: RoundRaw, work_per_op: u64, limit: Duration, stolen_s: f64) -> RoundSummary {
        let limit_ns = limit.as_nanos() as u64;
        // In the order the operations ran, before the sort below.
        let slice_shares: Vec<f64> = raw
            .ok_latencies_ns
            .chunks((raw.ok_latencies_ns.len() / SLO_SLICES).max(1))
            .map(|s| s.iter().filter(|&&ns| ns <= limit_ns).count() as f64 / s.len() as f64)
            .collect();
        raw.ok_latencies_ns.sort_unstable();
        raw.gen_late_ns.sort_unstable();
        let lat = &raw.ok_latencies_ns;
        let us = |ns: u64| ns as f64 / 1e3;
        let ok = lat.len() as u64;
        RoundSummary {
            wall_s: raw.wall.as_secs_f64(),
            throughput: (ok * work_per_op) as f64 / raw.wall.as_secs_f64(),
            p50_us: us(percentile_sorted(lat, 50.0)),
            p90_us: us(percentile_sorted(lat, 90.0)),
            p99_us: us(percentile_sorted(lat, 99.0)),
            max_us: us(lat.last().copied().unwrap_or(0)),
            gen_late_p99_us: us(percentile_sorted(&raw.gen_late_ns, 99.0)),
            attempted: raw.attempted,
            ok,
            within_limit: lat.partition_point(|&ns| ns <= limit_ns) as u64,
            slo_share: if ok == 0 {
                0.0
            } else {
                median(&slice_shares) * ok as f64 / raw.attempted as f64
            },
            stolen_share: stolen_s / (raw.wall.as_secs_f64() * vcpus()),
        }
    }
}

/// vCPUs of this VM.
fn vcpus() -> f64 {
    std::thread::available_parallelism().map_or(1, |n| n.get()) as f64
}

/// A round counts as disturbed when the hypervisor withheld more than
/// this share of the VM's CPU time while it ran.
pub const MAX_STOLEN_SHARE: f64 = 0.01;

/// At least this many rounds are kept, however disturbed the run.
pub const MIN_UNDISTURBED: usize = 5;

/// The rounds the hypervisor left alone: those with at most
/// [`MAX_STOLEN_SHARE`] of their CPU time stolen, or the
/// [`MIN_UNDISTURBED`] least-disturbed ones if fewer qualify. Steal is the
/// one kind of outside interference a VM can measure, and on the
/// reference host a round it hits sheds or delays thousands of requests
/// that the program would otherwise have served on time.
pub fn undisturbed(rounds: &[RoundSummary]) -> Vec<&RoundSummary> {
    let mut kept: Vec<&RoundSummary> = rounds.iter().collect();
    // Stable, so equally clean rounds stay in the order they ran.
    kept.sort_by(|a, b| a.stolen_share.total_cmp(&b.stolen_share));
    let clean = kept.partition_point(|r| r.stolen_share <= MAX_STOLEN_SHARE);
    kept.truncate(clean.max(MIN_UNDISTURBED.min(rounds.len())));
    kept
}

/// Median of a per-round value over the [`undisturbed`] rounds, so that
/// interference which hits a minority of rounds — or which the hypervisor
/// owns up to — is discarded.
pub fn median_over(rounds: &[RoundSummary], f: impl Fn(&RoundSummary) -> f64) -> f64 {
    median(&undisturbed(rounds).into_iter().map(f).collect::<Vec<_>>())
}

/// Coefficient of variation of per-round throughput: the run's own
/// reading of how noisy its rounds were.
pub fn throughput_cv(rounds: &[RoundSummary]) -> f64 {
    coefficient_of_variation(&rounds.iter().map(|r| r.throughput).collect::<Vec<_>>())
}

/// Share of the VM's CPU time the hypervisor withheld during `rounds`
/// (`steal` ÷ (wall × vCPUs)): how disturbed the host was, so a reader can
/// discount the timings of a run that was.
pub fn stolen_cpu_share(rounds: &[RoundSummary]) -> f64 {
    let wall: f64 = rounds.iter().map(|r| r.wall_s).sum();
    rounds
        .iter()
        .map(|r| r.stolen_share * r.wall_s)
        .sum::<f64>()
        / wall
}

/// A named pass/fail output check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub what: String,
    /// Whether it held.
    pub passed: bool,
}

impl Check {
    /// A check named `what`.
    pub fn new(what: impl Into<String>, passed: bool) -> Check {
        Check {
            what: what.into(),
            passed,
        }
    }
}

/// Result of a workload's verification pass.
pub struct Verified {
    /// `[mre_plan, mre_op, mre_hybrid]` over the pool, from predictions
    /// obtained through the workload's own path.
    pub mre: [f64; 3],
    /// Identity checks and the like.
    pub checks: Vec<Check>,
}

/// One rung of the staircase.
pub trait Workload: Sized {
    /// Name, as in `--workload`.
    const NAME: &'static str;
    /// An operation slower than this misses its SLO.
    const LIMIT: Duration;
    /// Work one operation stands for in `throughput`.
    fn work_per_op(sizes: &Sizes) -> u64;
    /// Builds everything the rounds need. `dir` is scratch space.
    fn set_up(sizes: &Sizes, seed: u64, dir: &Path) -> Self;
    /// Resolved thread/connection counts, for the context line.
    fn context(&self) -> String;
    /// Runs round `round` (0 is the warm-up; every round does the same
    /// amount of work on its own slice of the stream).
    fn round<T: Tracer + Send>(&mut self, round: usize, tracer: &mut T) -> RoundRaw;
    /// Off the clock: accuracy and identity through the workload's path.
    fn verify(&mut self) -> Verified;
    /// Stops servers and reports their ledgers' reconciliation.
    fn tear_down(self) -> Vec<Check>;
}

/// Runs `rounds` timed rounds starting at round index `first`.
pub fn timed_rounds<W: Workload, T: Tracer + Send>(
    workload: &mut W,
    sizes: &Sizes,
    first: usize,
    rounds: usize,
    tracer: &mut T,
) -> Vec<RoundSummary> {
    (first..first + rounds)
        .map(|r| {
            let stolen = stolen_cpu_secs();
            let raw = workload.round(r, tracer);
            let stolen = stolen_cpu_secs() - stolen;
            RoundSummary::of(raw, W::work_per_op(sizes), W::LIMIT, stolen)
        })
        .collect()
}

/// Everything an untraced run of one workload produced.
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Resolved thread/connection counts.
    pub context: String,
    /// Median set-up (nothing → ready for the first operation), seconds.
    pub setup_s: f64,
    /// What the untimed warm-up round that follows took, seconds.
    pub warmup_s: f64,
    /// The timed rounds.
    pub rounds: Vec<RoundSummary>,
    /// Accuracy through the workload's own path.
    pub mre: [f64; 3],
    /// Every output check made.
    pub checks: Vec<Check>,
    /// `VmHWM` after tear-down, MiB.
    pub peak_rss_mib: f64,
}

impl Outcome {
    /// Operations attempted over all timed rounds.
    pub fn attempted(&self) -> u64 {
        self.rounds.iter().map(|r| r.attempted).sum()
    }

    /// Operations not answered OK over all timed rounds.
    pub fn failed(&self) -> u64 {
        self.attempted() - self.rounds.iter().map(|r| r.ok).sum::<u64>()
    }

    /// True when every output check passed. Failed operations are
    /// reported beside it and count against `slo_met_share`.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    /// The end-to-end metrics, in `report::END_TO_END` order.
    pub fn end_to_end(&self) -> [f64; 6] {
        [
            self.setup_s,
            // Median over undisturbed rounds, like every timing, of the
            // round's median over slices: a host stall spoils its slice,
            // not the run.
            median_over(&self.rounds, |r| r.slo_share),
            self.mre[0],
            self.mre[1],
            self.mre[2],
            self.peak_rss_mib,
        ]
    }
}

/// Accuracy as an output check: every error is finite and the hybrid is no
/// worse than the operator models it starts from. (Not `<`: on this
/// template mix the operator models already meet Algorithm 1's 5 %
/// training-error target, so under the default config the hybrid accepts
/// no sub-plan model and answers exactly like them; see the README.)
pub fn accuracy_checks(mre: &[f64; 3], check_ordering: bool) -> Vec<Check> {
    let mut checks = vec![Check::new(
        "every mre_* is finite",
        mre.iter().all(|m| m.is_finite()),
    )];
    if check_ordering {
        checks.push(Check::new("mre_hybrid <= mre_op", mre[2] <= mre[1]));
    }
    checks
}

/// Set-ups per run; `setup_s` is their median. One set-up is 0.3 to 0.8 s
/// and a single reading of it spreads by half on a shared host.
pub const SETUPS: usize = 3;

/// The untraced run: set-up, the untimed warm-up round, the timed rounds,
/// verification, tear-down, and then the set-up twice more for the clock
/// alone.
///
/// `started` is when the process started: a set-up is everything a user
/// waits for before the workload can take its first operation. The first
/// is timed from process start and is the one everything runs on; the
/// repeats come after the workload is gone and its peak memory is read, so
/// they touch no other metric, and each starts with the global Gram cache
/// cleared, which would otherwise hand it its training matrices. The
/// warm-up round is not part of a set-up: it is a timed round's worth of
/// the very work whose timing does not repeat on a shared host (see the
/// README), and is reported beside `setup_s` as context.
pub fn run<W: Workload>(sizes: &Sizes, seed: u64, started: Instant) -> Outcome {
    let scratch = ScratchDir::create().expect("scratch directory under the target dir");
    let mut workload = W::set_up(sizes, seed, &scratch.path().join("0"));
    let mut setups = vec![started.elapsed().as_secs_f64()];
    let warmup = workload.round(0, &mut NoTrace).wall;
    let context = workload.context();
    let rounds = timed_rounds(&mut workload, sizes, 1, sizes.rounds, &mut NoTrace);
    let verified = workload.verify();
    let mut checks = accuracy_checks(&verified.mre, sizes.check_orderings);
    checks.extend(verified.checks);
    checks.extend(workload.tear_down());
    let peak_rss_mib = peak_rss_mib();
    for k in 1..SETUPS {
        ml::GramCache::global().clear();
        let again = Instant::now();
        let repeat = W::set_up(sizes, seed, &scratch.path().join(k.to_string()));
        setups.push(again.elapsed().as_secs_f64());
        checks.extend(repeat.tear_down());
    }
    Outcome {
        workload: W::NAME,
        context,
        setup_s: median(&setups),
        warmup_s: warmup.as_secs_f64(),
        rounds,
        mre: verified.mre,
        checks,
        peak_rss_mib,
    }
}
