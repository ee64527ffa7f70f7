//! Property tests for the multi-tenant bulkhead front-end: the
//! weighted-fair queue serves backlogged lanes proportionally to weight
//! (no tenant starves, FIFO per lane), and the admission + quota pipeline
//! reconciles *exactly* — every submitted request is accounted shed or
//! served, per tenant and globally, over seeded tenant-skewed arrival
//! streams. (The token bucket's and the queue's lane-level cases are
//! `admission`'s and `tenant`'s unit tests.)

use engine::faults::ArrivalPattern;
use serve::{AdmissionController, RateLimit, TenantPushError, WeightedFairQueue};

const CASES: u64 = 64;

/// One request arrival in a multi-tenant stream: when it lands and whose
/// traffic it is.
#[derive(Debug, Clone, Copy, PartialEq)]
struct TenantArrival {
    /// Seconds from stream start.
    offset_secs: f64,
    /// Index of the tenant issuing the request, in `0..tenants`.
    tenant: usize,
}

/// A one-hot noisy-neighbor stream: the first `n` arrivals of a
/// `tenants`-way stream at long-run mean rate `rate` requests/second in
/// which tenant `hot` floods in bursts while every other tenant trickles.
///
/// Where [`ArrivalPattern`] answers *when* requests arrive, this also
/// answers *whose* they are — the load skew that makes bulkhead isolation
/// testable. Arrival times are [`ArrivalPattern::Bursty`]'s with `burst`
/// and `seed`; each burst is the hot tenant's except for one arrival per
/// quiet tenant, in index order. `burst` is clamped so each quiet tenant
/// still gets its arrival and the hot tenant at least one. Offsets are
/// non-decreasing and non-negative, every tenant index is in
/// `0..tenants`, and the whole vector is deterministic in the arguments,
/// so shed/served counts per tenant are exactly reproducible.
fn one_hot_burst(
    hot: usize,
    burst: usize,
    seed: u64,
    tenants: usize,
    n: usize,
    rate: f64,
) -> Vec<TenantArrival> {
    assert!(tenants >= 1, "need at least one tenant");
    assert!(rate > 0.0 && rate.is_finite(), "rate must be positive");
    let hot = hot % tenants;
    let burst = burst.max(tenants.max(2));
    let quiet_slots = tenants - 1;
    ArrivalPattern::Bursty { burst, seed }
        .arrival_offsets(n, rate)
        .into_iter()
        .enumerate()
        .map(|(i, offset_secs)| {
            let pos = i % burst;
            // The last `quiet_slots` positions of each burst go one each
            // to the non-hot tenants, in index order.
            let tenant = if pos < burst - quiet_slots {
                hot
            } else {
                let q = pos - (burst - quiet_slots);
                // q-th tenant when `hot` is skipped.
                if q < hot {
                    q
                } else {
                    q + 1
                }
            };
            TenantArrival {
                offset_secs,
                tenant,
            }
        })
        .collect()
}

/// With every lane continuously backlogged, normalized service
/// `served[t] / weight[t]` stays within one batch-charge of every
/// other lane's at all times — the virtual-time WFQ fairness bound.
/// Implies no starvation: every lane is served within `tenants` pops.
/// Per-lane FIFO order is checked along the way.
#[test]
fn wfq_service_tracks_weights_and_preserves_fifo() {
    rng::cases(CASES, |rng| {
        let weights: Vec<f64> = (0..rng.gen_range(2usize..6))
            .map(|_| rng.gen_range(0.25f64..8.0))
            .collect();
        let max_batch = rng.gen_range(1usize..8);
        let pops = rng.gen_range(8usize..64);
        let tenants = weights.len();
        let fill = pops * max_batch + 1; // no lane can drain below a full batch
        let q = WeightedFairQueue::new(fill * tenants);
        for &w in &weights {
            q.add_tenant(w, fill);
        }
        for t in 0..tenants {
            for seq in 0..fill {
                assert!(q.try_push(t, seq as i64).is_ok());
            }
        }
        let min_w = weights.iter().cloned().fold(f64::INFINITY, f64::min);
        let bound = max_batch as f64 / min_w + 1e-9;
        let mut served = vec![0usize; tenants];
        let mut next_seq = vec![0i64; tenants];
        for _ in 0..pops {
            let (t, batch) = q.try_pop_batch(max_batch).expect("lanes are backlogged");
            assert_eq!(batch.len(), max_batch);
            for &seq in &batch {
                assert_eq!(seq, next_seq[t], "lane {} broke FIFO order", t);
                next_seq[t] += 1;
            }
            served[t] += batch.len();
            for i in 0..tenants {
                for j in 0..tenants {
                    assert!(
                        served[i] as f64 / weights[i] - served[j] as f64 / weights[j] <= bound,
                        "normalized service diverged past one batch-charge: \
                         served {:?} weights {:?}",
                        served,
                        weights
                    );
                }
            }
        }
        if pops >= tenants {
            for (t, &s) in served.iter().enumerate() {
                assert!(s > 0, "lane {} starved across {} pops", t, pops);
            }
        }
    });
}

/// The full admission pipeline (per-tenant token bucket, per-tenant
/// quota, global capacity) over a seeded one-hot tenant burst stream
/// reconciles exactly: `submitted == shed + served` for every tenant
/// and globally, with zero requests unaccounted for.
#[test]
fn admission_and_quotas_reconcile_exactly() {
    rng::cases(CASES, |rng| {
        let seed = rng.gen_range(0..=u32::MAX);
        let tenants = rng.gen_range(2usize..5);
        let n = rng.gen_range(50usize..400);
        let rate = rng.gen_range(20.0f64..200.0);
        let quota = rng.gen_range(1usize..16);
        let bucket_rate = rng.gen_range(1.0f64..50.0);
        let drain_every = rng.gen_range(1usize..8);
        let max_batch = rng.gen_range(1usize..8);
        let arrivals = one_hot_burst(0, 32, seed as u64, tenants, n, rate);
        assert_eq!(arrivals.len(), n);

        // Global capacity deliberately below the sum of quotas so the
        // GlobalFull path is reachable too.
        let global_cap = (quota * tenants).saturating_sub(quota / 2).max(1);
        let q = WeightedFairQueue::new(global_cap);
        let mut admission = Vec::new();
        for _ in 0..tenants {
            q.add_tenant(1.0, quota);
            admission.push(AdmissionController::new(
                Some(RateLimit {
                    rate: bucket_rate,
                    burst: 4.0,
                }),
                usize::MAX >> 1,
            ));
        }

        let mut submitted = vec![0u64; tenants];
        let mut shed = vec![0u64; tenants];
        let mut served = vec![0u64; tenants];
        for (i, a) in arrivals.iter().enumerate() {
            submitted[a.tenant] += 1;
            if admission[a.tenant].admit(a.offset_secs, 0).is_err() {
                shed[a.tenant] += 1;
            } else {
                match q.try_push(a.tenant, i) {
                    Ok(_) => {}
                    Err(TenantPushError::TenantFull(_, _))
                    | Err(TenantPushError::GlobalFull(_, _)) => shed[a.tenant] += 1,
                    Err(TenantPushError::Closed(_)) => panic!("queue closed mid-run"),
                }
            }
            if i % drain_every == 0 {
                if let Some((t, batch)) = q.try_pop_batch(max_batch) {
                    served[t] += batch.len() as u64;
                }
            }
        }
        while let Some((t, batch)) = q.try_pop_batch(max_batch) {
            served[t] += batch.len() as u64;
        }

        for t in 0..tenants {
            assert_eq!(
                submitted[t],
                shed[t] + served[t],
                "tenant {} leaked requests: submitted {:?} shed {:?} served {:?}",
                t,
                submitted,
                shed,
                served
            );
        }
        let total: u64 = submitted.iter().sum();
        assert_eq!(total, n as u64);
        assert_eq!(total, shed.iter().sum::<u64>() + served.iter().sum::<u64>());
    });
}

/// A lane waking from idle joins at the current global virtual time: it
/// competes fairly from its first push but gets no credit for time away,
/// so it cannot monopolize the workers with banked vtime.
#[test]
fn waking_lane_gets_no_banked_credit() {
    let q = WeightedFairQueue::new(1024);
    let a = q.add_tenant(1.0, 512);
    let b = q.add_tenant(1.0, 512);
    // Lane a does a lot of work while b is idle.
    for i in 0..64 {
        q.try_push(a, i).unwrap();
    }
    for _ in 0..64 {
        let (t, _) = q.try_pop_batch(1).unwrap();
        assert_eq!(t, a);
    }
    // b wakes with a backlog; a is backlogged too.
    for i in 0..8 {
        q.try_push(a, 100 + i).unwrap();
        q.try_push(b, 200 + i).unwrap();
    }
    // If b had banked 64 units of idle credit it would win the next 8
    // pops outright; joining at the global vtime it must alternate.
    let mut first_four = Vec::new();
    for _ in 0..4 {
        first_four.push(q.try_pop_batch(1).unwrap().0);
    }
    assert!(
        first_four.contains(&a) && first_four.contains(&b),
        "service must interleave after wake, got {first_four:?}"
    );
}

#[test]
fn tenant_streams_are_deterministic_sorted_and_cover_all_tenants() {
    for tenants in [2usize, 4, 7] {
        let (n, rate) = (2000, 400.0);
        let a = one_hot_burst(1, 32, 5, tenants, n, rate);
        assert_eq!(
            a,
            one_hot_burst(1, 32, 5, tenants, n, rate),
            "must be deterministic"
        );
        assert_eq!(a.len(), n);
        assert!(a[0].offset_secs >= 0.0);
        for w in a.windows(2) {
            assert!(
                w[1].offset_secs >= w[0].offset_secs,
                "offsets must be sorted"
            );
        }
        let mut per_tenant = vec![0usize; tenants];
        for arr in &a {
            assert!(arr.tenant < tenants, "tenant out of range");
            per_tenant[arr.tenant] += 1;
        }
        for (t, &count) in per_tenant.iter().enumerate() {
            assert!(
                count > 0,
                "{tenants} tenants: tenant {t} starved of arrivals"
            );
        }
    }
}

#[test]
fn one_hot_burst_skews_hard_toward_the_hot_tenant() {
    let tenants = 4;
    let arrivals = one_hot_burst(2, 32, 9, tenants, 3200, 800.0);
    let mut per_tenant = vec![0usize; tenants];
    for a in &arrivals {
        per_tenant[a.tenant] += 1;
    }
    // 29 of every 32 burst slots are the hot tenant's; quiet tenants
    // get exactly one slot per burst each.
    assert_eq!(per_tenant[2], 2900);
    for t in [0, 1, 3] {
        assert_eq!(per_tenant[t], 100, "tenant {t}");
    }
    // Quiet tenants arrive steadily: one arrival per burst period,
    // never two back-to-back inside one burst.
    let quiet_offsets: Vec<f64> = arrivals
        .iter()
        .filter(|a| a.tenant == 0)
        .map(|a| a.offset_secs)
        .collect();
    let period = 32.0 / 800.0;
    for w in quiet_offsets.windows(2) {
        assert!(w[1] - w[0] > 0.5 * period, "quiet arrivals bunched");
    }
}
