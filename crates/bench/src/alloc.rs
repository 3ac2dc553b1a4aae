//! A counting global allocator for allocation-budget benchmarks.
//!
//! Every binary in this crate (the stopwatch benches and the `repro` tool)
//! routes its heap traffic through [`CountingAlloc`], which forwards to the
//! system allocator while maintaining per-thread counters. The baseline
//! runner ([`crate::baseline`]) snapshots the calling thread's counters
//! around a single-threaded simulation to obtain *exact, deterministic*
//! per-run allocation counts — the quantity the CI perf gate pins, because
//! unlike wall-clock throughput it is identical on every machine.
//!
//! The counters are per thread so that a measurement sees only the code it
//! brackets, never a concurrent test or worker thread. A block freed on a
//! thread other than the one that allocated it lowers the freeing thread's
//! live count, which may therefore go negative.

#![allow(unsafe_code)] // GlobalAlloc is an unsafe trait; this is the one spot.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialized and drop-free, so the allocator can touch it at
    // any point in a thread's life without allocating itself.
    static COUNTERS: Cell<AllocSnapshot> = const {
        Cell::new(AllocSnapshot {
            allocs: 0,
            alloc_bytes: 0,
            frees: 0,
            live_bytes: 0,
            peak_live_bytes: 0,
        })
    };
}

/// Applies `f` to this thread's counters.
fn update(f: impl FnOnce(&mut AllocSnapshot)) {
    let _ = COUNTERS.try_with(|cell| {
        let mut c = cell.get();
        f(&mut c);
        cell.set(c);
    });
}

/// System-allocator wrapper that counts every allocation.
pub struct CountingAlloc;

impl CountingAlloc {
    fn on_alloc(size: usize) {
        update(|c| {
            c.allocs += 1;
            c.alloc_bytes += size as u64;
            c.live_bytes += size as i64;
            c.peak_live_bytes = c.peak_live_bytes.max(c.live_bytes);
        });
    }

    fn on_free(size: usize) {
        update(|c| {
            c.frees += 1;
            c.live_bytes -= size as i64;
        });
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            Self::on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Self::on_free(layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // Count a realloc as one allocation event plus the byte delta,
            // so growth strategies show up in the totals.
            Self::on_free(layout.size());
            Self::on_alloc(new_size);
        }
        p
    }
}

/// A point-in-time copy of the calling thread's allocator counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Allocation events since thread start (reallocs count once).
    pub allocs: u64,
    /// Bytes requested by those events.
    pub alloc_bytes: u64,
    /// Deallocation events.
    pub frees: u64,
    /// Bytes this thread allocated minus bytes it freed; negative when it
    /// freed more than it allocated.
    pub live_bytes: i64,
    /// High-water mark of live bytes since the last [`reset_peak`].
    pub peak_live_bytes: i64,
}

/// Reads the calling thread's counters.
pub fn snapshot() -> AllocSnapshot {
    COUNTERS.with(Cell::get)
}

/// Restarts peak-live tracking from the current live level, so a
/// subsequent [`snapshot`] reports the high-water mark of the measured
/// region alone.
pub fn reset_peak() {
    update(|c| c.peak_live_bytes = c.live_bytes);
}

/// What one region of code allocated: the difference between two
/// snapshots bracketing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocDelta {
    /// Allocation events inside the region.
    pub allocs: u64,
    /// Bytes requested inside the region.
    pub alloc_bytes: u64,
    /// Peak live bytes above the region's starting level.
    pub peak_above_start: u64,
}

/// Runs `f` and returns its result together with exact allocation counts
/// for the call. Counts what `f` allocates on the calling thread; threads
/// it spawns count on their own.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, AllocDelta) {
    reset_peak();
    let before = snapshot();
    let out = f();
    let after = snapshot();
    (
        out,
        AllocDelta {
            allocs: after.allocs - before.allocs,
            alloc_bytes: after.alloc_bytes - before.alloc_bytes,
            peak_above_start: (after.peak_live_bytes - before.live_bytes) as u64,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_counts_a_vec_allocation() {
        let (v, delta) = measure(|| vec![0u8; 4096]);
        assert_eq!(v.len(), 4096);
        assert!(delta.allocs >= 1, "vec must have allocated: {delta:?}");
        assert!(delta.alloc_bytes >= 4096, "{delta:?}");
        assert!(delta.peak_above_start >= 4096, "{delta:?}");
    }

    #[test]
    fn measure_sees_no_allocations_in_pure_code() {
        let (sum, delta) = measure(|| (0u64..100).sum::<u64>());
        assert_eq!(sum, 4950);
        assert_eq!(delta.allocs, 0, "{delta:?}");
    }

    #[test]
    fn other_threads_do_not_count_here() {
        let (_, delta) = measure(|| {
            std::thread::spawn(|| std::hint::black_box(vec![0u8; 1 << 20]).len())
                .join()
                .unwrap()
        });
        assert!(delta.alloc_bytes < 1 << 20, "{delta:?}");
    }

    #[test]
    fn a_free_on_another_thread_is_tolerated() {
        let v = std::hint::black_box(vec![0u8; 4096]);
        std::thread::spawn(move || {
            let before = snapshot();
            let (_, delta) = measure(|| drop(v));
            let after = snapshot();
            assert_eq!(delta.allocs, 0, "{delta:?}");
            assert_eq!(delta.peak_above_start, 0, "{delta:?}");
            assert_eq!(after.frees, before.frees + 1);
            assert_eq!(after.live_bytes, before.live_bytes - 4096);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn counters_monotonically_increase() {
        let a = snapshot();
        let _v = std::hint::black_box(vec![1u32; 100]);
        let b = snapshot();
        assert!(b.allocs >= a.allocs);
        assert!(b.alloc_bytes >= a.alloc_bytes);
    }
}
