//! Allocation budget of the Montage generator, measured exactly with the
//! crate's per-thread counting allocator.
//!
//! A workflow keeps its tasks and files in a fixed set of columns (name
//! arenas, CSR file lists, plain size and runtime vectors), so building
//! one allocates a number of times that grows with the logarithm of its
//! size, not with its task count. Owning a name, a module and two file
//! lists per task, as an earlier layout did, cost ~65k allocations at 8°.

use mcloud_bench::alloc::{self, AllocDelta};
use mcloud_montage::{generate, MosaicConfig};

fn generate_measured(degrees: f64) -> (usize, AllocDelta) {
    let cfg = MosaicConfig::new(degrees);
    let (wf, delta) = alloc::measure(|| generate(&cfg));
    (wf.num_tasks(), delta)
}

#[test]
fn generate_allocation_count_does_not_grow_with_task_count() {
    // Warm-up, so lazily initialized runtime state bills to no measurement.
    generate_measured(1.0);
    let (tasks_1, small) = generate_measured(1.0);
    let (tasks_8, large) = generate_measured(8.0);
    assert!(tasks_8 >= 50 * tasks_1, "{tasks_1} vs {tasks_8} tasks");
    assert!(
        large.allocs <= 3 * small.allocs,
        "allocations grew with the task count: {} at {tasks_1} tasks, {} at {tasks_8}",
        small.allocs,
        large.allocs
    );
}

#[test]
fn sixteen_degree_peak_heap_is_below_the_per_task_layout() {
    // Peak live heap of one 16° `generate` with per-task owned names and
    // file lists, measured with this test on that layout (it made 277,076
    // allocations).
    const PER_TASK_LAYOUT_PEAK: u64 = 26_952_429;
    let (_, delta) = generate_measured(16.0);
    assert!(
        delta.peak_above_start * 10 <= PER_TASK_LAYOUT_PEAK * 7,
        "peak {} bytes, not 30% below the per-task layout's {PER_TASK_LAYOUT_PEAK}",
        delta.peak_above_start
    );
}
