//! Fast checks of the pieces that make the numbers repeatable: the order
//! statistics, the seeded inputs, the open-loop clock, and the names.

use std::time::{Duration, Instant};

use engine::faults::ArrivalPattern;
use qpp_e2e::harness::{
    median_over, undisturbed, RoundRaw, RoundSummary, MIN_UNDISTURBED, SLO_SLICES,
};
use qpp_e2e::report::{END_TO_END, PER_LAYER, WORKLOADS};
use qpp_e2e::serving::TENANTS;
use qpp_e2e::span::{SpanLog, Tracer, ROOT};
use qpp_e2e::stats::{coefficient_of_variation, median, percentile_sorted};
use qpp_e2e::stream::{
    latency_from_due, method_of, tenant_index, tenant_of, wait_until, zipf_stream, METHODS,
};

#[test]
fn median_ignores_a_minority_of_disturbed_rounds() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert!(median(&[]).is_nan());
    // 15 rounds, 6 of them hit by interference: the median does not move.
    let mut rounds = vec![100.0; 15];
    for r in rounds.iter_mut().take(6) {
        *r = 40.0;
    }
    assert_eq!(median(&rounds), 100.0);
}

#[test]
fn percentiles_are_nearest_rank() {
    let sorted: Vec<u64> = (1..=100).collect();
    assert_eq!(percentile_sorted(&sorted, 50.0), 50);
    assert_eq!(percentile_sorted(&sorted, 99.0), 99);
    assert_eq!(percentile_sorted(&sorted, 100.0), 100);
    assert_eq!(percentile_sorted(&sorted, 0.0), 1);
    assert_eq!(percentile_sorted(&[7], 50.0), 7);
    assert_eq!(percentile_sorted(&[], 50.0), 0);
}

#[test]
fn coefficient_of_variation_reads_round_noise() {
    assert_eq!(coefficient_of_variation(&[5.0, 5.0, 5.0]), 0.0);
    let cv = coefficient_of_variation(&[90.0, 110.0]);
    assert!((cv - 0.1).abs() < 1e-12, "{cv}");
}

#[test]
fn a_round_reduces_to_throughput_median_and_slo_counts() {
    let raw = RoundRaw {
        wall: Duration::from_secs(2),
        attempted: 5,
        // Four answered (one over the 1 ms limit), one failed.
        ok_latencies_ns: vec![400_000, 100_000, 2_000_000, 300_000],
        gen_late_ns: vec![10_000, 30_000],
    };
    let s = RoundSummary::of(raw, 10, Duration::from_millis(1), 0.0);
    assert_eq!(s.throughput, 20.0);
    assert_eq!(s.p50_us, 300.0);
    assert_eq!(s.max_us, 2000.0);
    assert_eq!((s.attempted, s.ok, s.within_limit), (5, 4, 3));
    // Four slices of one answered operation, the median slice on time,
    // four of five operations answered.
    assert_eq!(s.slo_share, 0.8);
    assert_eq!(s.gen_late_p99_us, 30.0);
}

#[test]
fn slo_share_sets_aside_a_stall_but_not_a_slow_program() {
    let share = |latencies_ms: Vec<u64>| {
        let raw = RoundRaw {
            wall: Duration::from_secs(1),
            attempted: latencies_ms.len() as u64,
            ok_latencies_ns: latencies_ms.iter().map(|ms| ms * 1_000_000).collect(),
            gen_late_ns: Vec::new(),
        };
        RoundSummary::of(raw, 1, Duration::from_millis(2), 0.0).slo_share
    };
    let n = 100 * SLO_SLICES;
    // A stall: 3 % of the round's operations, all in a row, are late.
    let stalled = (0..n).map(|i| if (500..800).contains(&i) { 9 } else { 1 });
    assert_eq!(share(stalled.collect()), 1.0);
    // A slow program: every hundredth operation is late, all round long.
    let slow = (0..n).map(|i| if i % 100 == 0 { 9 } else { 1 });
    assert_eq!(share(slow.collect()), 0.99);
}

#[test]
fn rounds_the_hypervisor_disturbed_are_set_aside() {
    let round = |throughput: f64, stolen_share: f64| RoundSummary {
        throughput,
        stolen_share,
        ..RoundSummary::of(
            RoundRaw {
                wall: Duration::from_secs(1),
                attempted: 1,
                ok_latencies_ns: vec![1],
                gen_late_ns: Vec::new(),
            },
            1,
            Duration::from_secs(1),
            0.0,
        )
    };
    // Nine of fifteen rounds lost CPU time to the hypervisor and ran slow:
    // a plain median would report a disturbed round, this one does not.
    let mut rounds: Vec<RoundSummary> = (0..9).map(|_| round(60.0, 0.2)).collect();
    rounds.extend((0..6).map(|k| round(100.0 + k as f64, 0.001)));
    assert_eq!(undisturbed(&rounds).len(), 6);
    assert_eq!(median_over(&rounds, |r| r.throughput), 102.5);
    // With too few clean rounds the least-disturbed five are kept.
    let mut rounds: Vec<RoundSummary> = (0..13).map(|k| round(50.0, 0.1 + k as f64)).collect();
    rounds.extend([round(100.0, 0.0), round(90.0, 0.005)]);
    let kept = undisturbed(&rounds);
    assert_eq!(kept.len(), MIN_UNDISTURBED);
    assert_eq!(kept[0].throughput, 100.0);
    assert_eq!(kept[4].stolen_share, 2.1);
    // No steal reading at all (no /proc): every round counts.
    let rounds: Vec<RoundSummary> = (0..15).map(|k| round(k as f64, 0.0)).collect();
    assert_eq!(median_over(&rounds, |r| r.throughput), 7.0);
}

#[test]
fn the_zipf_stream_is_a_function_of_its_seed() {
    let a = zipf_stream(700, 10_000, 7);
    assert_eq!(a, zipf_stream(700, 10_000, 7));
    assert_ne!(a, zipf_stream(700, 10_000, 8));
    assert!(a.iter().all(|&i| i < 700));
    // Skewed: the hottest plan recurs far more often than 1/700 of the
    // time, and the tail still shows up.
    let mut counts = vec![0usize; 700];
    for &i in &a {
        counts[i as usize] += 1;
    }
    let hottest = *counts.iter().max().unwrap();
    assert!(hottest > 1000, "hottest plan drawn {hottest} times");
    assert!(counts.iter().filter(|&&c| c > 0).count() > 300);
}

#[test]
fn the_arrival_schedule_is_a_function_of_its_seed() {
    let offsets = |seed| ArrivalPattern::Bursty { burst: 32, seed }.arrival_offsets(2000, 20_000.0);
    assert_eq!(offsets(3), offsets(3));
    assert_ne!(offsets(3), offsets(4));
    assert!(offsets(3).windows(2).all(|w| w[0] <= w[1]));
}

#[test]
fn requests_cycle_methods_and_split_tenants_three_to_one() {
    assert_eq!(
        [method_of(0), method_of(1), method_of(2), method_of(3)],
        [METHODS[0], METHODS[1], METHODS[2], METHODS[0]]
    );
    let gold = (0..4000).filter(|&i| tenant_of(i) == "gold").count();
    assert_eq!(gold, 3000);
    // The open loop's in-flight window counts per tenant by index.
    assert!((0..8).all(|i| TENANTS[tenant_index(i)] == tenant_of(i)));
}

#[test]
fn open_loop_latency_is_measured_from_the_due_time() {
    // A generator that runs 5 ms late issues a request the server then
    // answers in 2 ms: the request waited 7 ms, and that is what counts.
    let due = Instant::now();
    let issued = due + Duration::from_millis(5);
    let completed = issued + Duration::from_millis(2);
    assert_eq!(latency_from_due(due, completed), Duration::from_millis(7));
    // A reply cannot precede its due time by construction; saturate.
    assert_eq!(latency_from_due(completed, due), Duration::ZERO);
}

#[test]
fn wait_until_reports_how_late_the_generator_is() {
    let behind = wait_until(Instant::now() - Duration::from_millis(5));
    assert!(behind >= Duration::from_millis(5));
    let due = Instant::now() + Duration::from_millis(3);
    let late = wait_until(due);
    assert!(Instant::now() >= due);
    // Generous: a busy host can pause the whole VM for tens of milliseconds.
    assert!(late < Duration::from_secs(1), "{late:?}");
}

#[test]
fn self_time_is_a_span_minus_its_children() {
    let mut log = SpanLog::new(Instant::now());
    let parent = log.enter("parent", ROOT, 1);
    let child = log.enter("child", parent, 1);
    std::thread::sleep(Duration::from_millis(2));
    log.exit(child);
    log.exit(parent);
    let own = log.self_times();
    let spans = log.spans();
    let child_ns = spans[1].end_ns - spans[1].start_ns;
    assert!(child_ns >= 2_000_000);
    assert_eq!(own[1], child_ns);
    assert_eq!(own[0], spans[0].end_ns - spans[0].start_ns - child_ns);

    let mut other = log.fork();
    let root = other.enter("elsewhere", ROOT, 2);
    let leaf = other.enter("leaf", root, 2);
    other.exit(leaf);
    other.exit(root);
    log.absorb(other);
    assert_eq!(
        log.spans()[3].parent,
        2,
        "parent links are re-based on merge"
    );

    let mut jsonl = Vec::new();
    log.write_jsonl(&mut jsonl).unwrap();
    let text = String::from_utf8(jsonl).unwrap();
    assert_eq!(text.lines().count(), 4);
    assert!(text.lines().next().unwrap().contains("\"parent\":null"));
}

#[test]
fn names_use_the_contract_alphabet_and_are_unique() {
    let ok = |name: &str| {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let mut seen = std::collections::BTreeSet::new();
    let names = WORKLOADS
        .iter()
        .copied()
        .chain(END_TO_END.iter().map(|m| m.0))
        .chain(PER_LAYER.iter().map(|m| m.0));
    for name in names {
        assert!(ok(name), "{name}");
        assert!(seen.insert(name), "{name} is used twice");
    }
    for (_, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(
            unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        );
    }
}
