//! Micro-benches of the hot data structures: priority tracking, the
//! sources' indexed priority heap, the kernel's calendar queue, link token
//! accounting, threshold updates, the CGM allocation solver, and the
//! change-rate estimators.

use besync::heap::IndexedMaxHeap;
use besync::priority::AreaTracker;
use besync::threshold::{ThresholdParams, ThresholdState};
use besync_baselines::estimators::{
    BinaryChangeEstimator, ChangeObservation, LastModifiedEstimator, RateEstimate,
};
use besync_baselines::freshness;
use besync_net::Link;
use besync_sim::{CalendarQueue, SimTime, Wave};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_area_tracker(c: &mut Criterion) {
    c.bench_function("area_tracker_update_and_priority", |b| {
        let mut tracker = AreaTracker::new(SimTime::ZERO);
        let mut t = 0.0;
        b.iter(|| {
            t += 0.1;
            tracker.on_update(SimTime::new(t), black_box(t % 7.0));
            black_box(tracker.raw_priority(SimTime::new(t)))
        });
    });
}

fn bench_heap(c: &mut Criterion) {
    c.bench_function("indexed_heap_push_revise_pop_1k", |b| {
        b.iter(|| {
            let mut h = IndexedMaxHeap::new(1000);
            for i in 0..1000u32 {
                h.push(i, (i as f64 * 0.37) % 11.0);
            }
            // Revise a quarter of them in place, then drain.
            for i in (0..1000u32).step_by(4) {
                h.push(i, (i as f64 * 0.11) % 7.0);
            }
            let mut sum = 0.0;
            while let Some((p, _)) = h.pop_valid() {
                sum += p;
            }
            black_box(sum)
        });
    });
}

/// One pop and one reschedule of the popped slot, an exponential gap
/// later — the kernel's update→next-update pattern — on a full queue.
fn bench_calendar(c: &mut Criterion) {
    let mut g = c.benchmark_group("calendar_pop_schedule");
    for slots in [2_048usize, 131_072, 1_048_576] {
        g.bench_with_input(BenchmarkId::from_parameter(slots), &slots, |b, &slots| {
            // Each slot fires at rate 1, so the queue's mean gap is 1/slots.
            let mut state = 0x9E37_79B9_7F4A_7C15u64;
            let mut exp_gap = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let u = ((state >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
                -u.ln()
            };
            let mut q = CalendarQueue::new(slots, 1.0 / slots as f64);
            for slot in 0..slots as u32 {
                q.schedule(slot, SimTime::new(exp_gap()));
            }
            let far = SimTime::new(f64::MAX);
            b.iter(|| {
                let (now, slot) = q.pop_at_or_before(far).expect("the queue stays full");
                q.schedule(slot, now + exp_gap());
                black_box(slot)
            });
        });
    }
    g.finish();
}

fn bench_link(c: &mut Criterion) {
    c.bench_function("link_offer_service_tick", |b| {
        let mut link: Link<u32> = Link::new(Wave::fluctuating(50.0, 0.05, 0.3));
        let mut out = Vec::new();
        let mut t = 0.0;
        b.iter(|| {
            t += 1.0;
            let now = SimTime::new(t);
            for i in 0..60u32 {
                let _ = link.offer(now, i);
            }
            out.clear();
            black_box(link.service(now, &mut out))
        });
    });
}

fn bench_threshold(c: &mut Criterion) {
    c.bench_function("threshold_refresh_feedback_cycle", |b| {
        let params = ThresholdParams {
            alpha: 1.1,
            omega: 10.0,
            initial: 1.0,
            expected_feedback_period: 2.0,
        };
        let mut s = ThresholdState::new(params, SimTime::ZERO);
        let mut t = 0.0;
        b.iter(|| {
            t += 0.5;
            s.on_refresh(SimTime::new(t));
            if (t as u64).is_multiple_of(5) {
                s.on_feedback(SimTime::new(t), false);
            }
            black_box(s.value())
        });
    });
}

fn bench_allocation(c: &mut Criterion) {
    let rates: Vec<f64> = (0..1000).map(|i| 0.01 + (i as f64 * 0.731) % 1.0).collect();
    c.bench_function("cgm_allocate_1k_objects", |b| {
        b.iter(|| black_box(freshness::allocate(&rates, 300.0)));
    });
}

fn bench_estimators(c: &mut Criterion) {
    c.bench_function("last_modified_estimator_observe", |b| {
        let mut e = LastModifiedEstimator::new();
        let mut k = 0u64;
        b.iter(|| {
            k += 1;
            let obs = if k.is_multiple_of(3) {
                ChangeObservation::Unchanged
            } else {
                ChangeObservation::Changed { age: 0.4 }
            };
            e.observe(1.0, obs);
            black_box(e.estimate(0.5))
        });
    });
    c.bench_function("binary_estimator_solve_mle", |b| {
        let mut e = BinaryChangeEstimator::new();
        for k in 0..10_000u64 {
            let obs = if k.is_multiple_of(3) {
                ChangeObservation::Unchanged
            } else {
                ChangeObservation::Changed { age: 0.5 }
            };
            e.observe(1.0 + (k % 5) as f64 * 0.5, obs);
        }
        b.iter(|| black_box(e.estimate(0.5)));
    });
}

criterion_group!(
    benches,
    bench_area_tracker,
    bench_heap,
    bench_calendar,
    bench_link,
    bench_threshold,
    bench_allocation,
    bench_estimators
);
criterion_main!(benches);
