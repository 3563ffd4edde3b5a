//! Microbenchmarks of the calendar event queue, one per regime the
//! two-tier design distinguishes:
//!
//! * `schedule_pop` — the single-event API on short-horizon work, the
//!   bucket-ring fast path;
//! * `same_cycle_batch_drain` — a burst scheduled onto one cycle and
//!   drained with `pop_batch`, the dispatch-loop pattern the rebuild
//!   exists to serve;
//! * `bucket_wrap` — deltas that alias to already-visited ring slots, so
//!   every pop crosses the ring seam;
//! * `overflow_promotion` — events beyond the ring horizon that ride the
//!   overflow heap and are promoted as the clock advances.
//!
//! Nothing gates on these numbers (end-to-end speed is gated by the
//! same-host A/B benchmark in `perfbench/`); they are for diagnosing
//! *which* queue regime moved when that benchmark reports a regression.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mgpu_types::Cycle;
use sim_engine::EventQueue;

fn schedule_pop(c: &mut Criterion) {
    c.bench_function("engine_schedule_pop_short_horizon", |b| {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            q.schedule_after(t % 48, t);
            q.schedule_after(4, t);
            black_box(q.pop())
        });
    });
}

fn same_cycle_batch_drain(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_batch");
    for burst in [4usize, 32, 256] {
        group.bench_function(&format!("same_cycle_drain_{burst}"), |b| {
            let mut q: EventQueue<u64> = EventQueue::new();
            let mut out: Vec<u64> = Vec::with_capacity(burst);
            b.iter(|| {
                for i in 0..burst as u64 {
                    q.schedule_after(1, i);
                }
                let cycle = q.pop_batch(&mut out);
                black_box((cycle, out.len()))
            });
        });
    }
    group.finish();
}

fn bucket_wrap(c: &mut Criterion) {
    c.bench_function("engine_bucket_wrap_aliased_slots", |b| {
        // A 64-slot ring makes every multiple-of-64 delta alias to the
        // bucket the clock just left, so each iteration exercises the
        // seam between ring epochs and the occupancy-bitmap wrap scan.
        let mut q: EventQueue<u64> = EventQueue::with_ring(64);
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            q.schedule_after(63, t);
            q.schedule_after(1, t);
            black_box(q.pop())
        });
    });
}

fn overflow_promotion(c: &mut Criterion) {
    c.bench_function("engine_overflow_promotion", |b| {
        // Far-future events (beyond the 64-cycle horizon) enter the
        // overflow heap; popping the short-horizon companion advances the
        // clock and promotes them back into the ring.
        let mut q: EventQueue<u64> = EventQueue::with_ring(64);
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            q.schedule_after(200 + t % 1000, t);
            q.schedule_after(2, t);
            black_box(q.pop())
        });
    });
    c.bench_function("engine_overflow_drain_1k", |b| {
        b.iter(|| {
            let mut q: EventQueue<u64> = EventQueue::with_ring(64);
            for i in 0..1000u64 {
                q.schedule(Cycle(i * 17), i);
            }
            let mut delivered = 0u64;
            while q.pop().is_some() {
                delivered += 1;
            }
            black_box(delivered)
        });
    });
}

criterion_group!(
    benches,
    schedule_pop,
    same_cycle_batch_drain,
    bucket_wrap,
    overflow_promotion
);
criterion_main!(benches);
