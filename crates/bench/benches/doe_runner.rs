//! DoE execution-engine performance: the same seeded experiment dispatched
//! through the work-stealing pool at width 1 vs width 4, plus the pool's raw
//! dispatch overhead on trivial jobs. On a single-core runner the widths
//! tie (the engine adds no measurable overhead); on a multi-core runner the
//! width-4 leg shows the wall-clock win while producing byte-identical
//! tables.

use ffet_bench::BenchGroup;
use ffet_core::experiments::{self, DesignKind};
use ffet_core::runner::Pool;
use std::time::Instant;

fn main() {
    let t0 = Instant::now();
    let mut group = BenchGroup::new("doe_runner");
    group.sample_size(5);

    let fig9 = experiments::find("fig9").expect("fig9 is registered");
    group.bench_function("fig9_counter_jobs1", || {
        fig9.run(DesignKind::CounterSmall, &Pool::new(1))
    });
    group.bench_function("fig9_counter_jobs4", || {
        fig9.run(DesignKind::CounterSmall, &Pool::new(4))
    });

    // Raw engine overhead: 256 no-op jobs through the injector + stealing
    // machinery. This bounds the fixed cost a sweep point pays for being
    // scheduled rather than called directly.
    group.bench_function("dispatch_256_noop_jobs1", || {
        Pool::new(1).run((0..256usize).collect(), |&i| Ok::<usize, String>(i))
    });
    group.bench_function("dispatch_256_noop_jobs4", || {
        Pool::new(4).run((0..256usize).collect(), |&i| Ok::<usize, String>(i))
    });
    let legs = group.finish();
    ffet_bench::append_bench_ledger("doe_runner", legs, t0.elapsed());
}
