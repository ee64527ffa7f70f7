//! Property tests for the multi-tenant bulkhead front-end: the token
//! bucket polices rate deterministically, the weighted-fair queue serves
//! backlogged lanes proportionally to weight (no tenant starves, FIFO per
//! lane), tenant quotas are bulkheads (one lane filling never rejects
//! another), and the admission + quota pipeline reconciles *exactly* —
//! every submitted request is accounted shed or served, per tenant and
//! globally, over seeded tenant-skewed arrival streams.

use engine::faults::one_hot_burst;
use serve::{AdmissionController, RateLimit, TenantPushError, TokenBucket, WeightedFairQueue};

const CASES: u64 = 64;

/// The bucket never admits more than `burst + rate * elapsed` requests
/// over any prefix of a monotone arrival stream, and replaying the
/// stream reproduces every decision bit-for-bit.
#[test]
fn token_bucket_caps_admissions_and_replays() {
    rng::cases(CASES, |rng| {
        let rate = rng.gen_range(0.5f64..200.0);
        let burst = rng.gen_range(1.0f64..32.0);
        let gaps: Vec<f64> = (0..rng.gen_range(1usize..256))
            .map(|_| rng.gen_range(0.0f64..0.5))
            .collect();
        let limit = RateLimit { rate, burst };
        let mut bucket = TokenBucket::new(limit);
        let mut now = 0.0;
        let mut accepted = 0u64;
        let mut decisions = Vec::with_capacity(gaps.len());
        for &g in &gaps {
            now += g;
            let ok = bucket.try_acquire(now);
            decisions.push(ok);
            if ok {
                accepted += 1;
                // The cap holds at every prefix, not just the end.
                assert!(
                    accepted as f64 <= burst + rate * now + 1.0 + 1e-6,
                    "admitted {} by t={} with rate {} burst {}",
                    accepted,
                    now,
                    rate,
                    burst
                );
            }
        }
        let mut replay = TokenBucket::new(limit);
        let mut now = 0.0;
        for (i, &g) in gaps.iter().enumerate() {
            now += g;
            assert_eq!(replay.try_acquire(now), decisions[i]);
        }
    });
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

/// Quotas are bulkheads: pushing one lane to (and past) its quota
/// rejects only that lane with `TenantFull`, and never consumes
/// another lane's quota.
#[test]
fn tenant_quota_never_bleeds_into_another_lane() {
    rng::cases(CASES, |rng| {
        let quota_a = rng.gen_range(1usize..8);
        let extra = rng.gen_range(1usize..16);
        let quota_b = rng.gen_range(1usize..8);
        let q = WeightedFairQueue::new(1024);
        let a = q.add_tenant(1.0, quota_a);
        let b = q.add_tenant(1.0, quota_b);
        for i in 0..quota_a {
            assert!(q.try_push(a, i).is_ok());
        }
        for i in 0..extra {
            match q.try_push(a, quota_a + i) {
                Err(TenantPushError::TenantFull(_, depth)) => assert_eq!(depth, quota_a),
                other => panic!("expected TenantFull, got {:?}", other.is_ok()),
            }
        }
        // The noisy lane being saturated must not cost lane b anything.
        for i in 0..quota_b {
            assert!(
                q.try_push(b, i).is_ok(),
                "quiet lane rejected at depth {}",
                i
            );
        }
        assert_eq!(q.tenant_len(a), quota_a);
        assert_eq!(q.tenant_len(b), quota_b);
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
                    Err(TenantPushError::Removed(_)) | Err(TenantPushError::Closed(_)) => {
                        panic!("queue closed mid-run");
                    }
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

/// Removing a lane under load hands back exactly its FIFO backlog,
/// refuses further pushes with `Removed`, and never disturbs the other
/// lanes' contents or quotas.
#[test]
fn remove_tenant_drains_its_lane_and_spares_the_rest() {
    let q = WeightedFairQueue::new(1024);
    let a = q.add_tenant(1.0, 64);
    let b = q.add_tenant(1.0, 64);
    for i in 0..10 {
        q.try_push(a, i).unwrap();
        q.try_push(b, 100 + i).unwrap();
    }
    let drained = q.remove_tenant(a);
    assert_eq!(drained, (0..10).collect::<Vec<_>>(), "FIFO drain");
    assert_eq!(q.tenant_len(a), 0);
    assert_eq!(q.tenant_len(b), 10, "quiet lane untouched");
    assert_eq!(q.len(), 10);
    assert!(matches!(
        q.try_push(a, 99),
        Err(TenantPushError::Removed(99))
    ));
    // The tombstoned lane is never selected again; b drains normally.
    let (t, batch) = q.try_pop_batch(64).unwrap();
    assert_eq!(t, b);
    assert_eq!(batch.len(), 10);
    // A lane added after the removal gets a fresh index, not a's slot.
    let c = q.add_tenant(1.0, 8);
    assert_eq!(c, 2);
    q.try_push(c, 7).unwrap();
    assert_eq!(q.try_pop_batch(8), Some((c, vec![7])));
}

/// Closing the queue drains what was admitted, then reports shutdown.
#[test]
fn close_drains_then_signals_shutdown() {
    let q = WeightedFairQueue::new(16);
    let a = q.add_tenant(1.0, 16);
    q.try_push(a, 1).unwrap();
    q.try_push(a, 2).unwrap();
    q.close();
    assert!(matches!(q.try_push(a, 3), Err(TenantPushError::Closed(3))));
    assert_eq!(q.pop_blocking_batch(8), Some((a, vec![1, 2])));
    assert_eq!(q.pop_blocking_batch(8), None);
}
