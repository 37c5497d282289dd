//! Counting-allocator proof of the zero-allocation steady state.
//!
//! The engine's hot-path contract (DESIGN.md §6): after a warm-up pass,
//! `run_range` performs **zero heap allocations** — candidate buffers are
//! recycled through the [`light_core::BufferPool`], COMP operand slices
//! live on the stack, and the k-way intersection orders operands in a
//! stack array. This test installs a counting `#[global_allocator]` and
//! asserts the allocation count does not move across a second `run_range`.
//!
//! This file must stay a single `#[test]`: integration-test binaries run
//! tests on multiple threads, and a concurrent test's allocations would
//! show up in the global counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use light_core::{CountVisitor, EngineConfig, Enumerator};
use light_graph::{generators, VertexId};
use light_pattern::Query;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc acquires a (possibly) new block: count it.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

#[test]
fn run_range_allocates_nothing_after_warm_up() {
    // A scale-free graph gives skewed candidate sizes, exercising both
    // kernels and buffer growth during warm-up.
    let g = generators::barabasi_albert(400, 6, 71);
    let n = g.num_vertices() as VertexId;

    // Leg 1 — cache off, disjoint ranges: the original steady-state
    // contract with nothing but the pool recycling buffers.
    for query in [Query::P2, Query::P4] {
        let pattern = query.pattern();
        let cfg = EngineConfig::light().aux_cache(false);
        let plan = cfg.plan(&pattern, &g);
        let mut visitor = CountVisitor::default();
        let mut e = Enumerator::new(&plan, &g, &cfg, &mut visitor);

        // Warm-up: the first half of the root range grows every candidate
        // buffer to its steady-state capacity (root candidates cover the
        // whole degree distribution, including the early hubs).
        let warm = e.run_range(0, n / 2);
        assert!(
            warm.matches > 0,
            "{}: warm-up found no matches",
            query.name()
        );

        // Steady state: the rest of the roots must not touch the heap.
        let before = allocs();
        let steady = e.run_range(n / 2, n);
        let delta = allocs() - before;
        assert!(
            steady.matches > 0,
            "{}: steady run found no matches",
            query.name()
        );
        assert_eq!(
            delta,
            0,
            "{}: {} heap allocations during steady-state run_range",
            query.name(),
            delta
        );
    }

    // Leg 2 — aux cache on (threshold 0 forces directives): the cache must
    // honour the same contract. A slot's buffer grows to its high-water
    // capacity during warm-up; stores then recycle it in place
    // (`clear` + `extend_from_slice`), and hits copy into pooled candidate
    // buffers that are already at capacity. The steady pass repeats the
    // warmed range so every store lands in a slot whose capacity the
    // warm-up already established.
    // P1 and P5 are the two catalog patterns whose plans are structurally
    // eligible for a trim directive (a multi-operand COMP below a
    // re-entered MAT slot). Both run without symmetry breaking: under it
    // those COMPs have slice bounds, and bounded COMPs get no directive.
    for query in [Query::P1, Query::P5] {
        let pattern = query.pattern();
        let cfg = EngineConfig::light()
            .symmetry(false)
            .aux_cache(true)
            .aux_threshold(0.0);
        let plan = cfg.plan(&pattern, &g);
        assert!(
            !plan.aux_directives().is_empty(),
            "{}: structural planning emitted no trim directive — the \
             cache-on leg would be vacuous",
            query.name()
        );
        let mut visitor = CountVisitor::default();
        let mut e = Enumerator::new(&plan, &g, &cfg, &mut visitor);

        let warm = e.run_range(0, n);
        assert!(
            warm.matches > 0,
            "{}: cache-on warm-up found no matches",
            query.name()
        );

        let before = allocs();
        let steady = e.run_range(0, n);
        let delta = allocs() - before;
        // Matches accumulate across `run_range` calls: an identical second
        // pass must land on exactly double, or the cache changed results.
        assert_eq!(
            steady.matches,
            2 * warm.matches,
            "{}: repeated range changed the count",
            query.name()
        );
        assert!(
            steady.stats.aux.hits + steady.stats.aux.misses > 0,
            "{}: cache-on steady pass never consulted the cache",
            query.name()
        );
        assert_eq!(
            delta,
            0,
            "{}: {} heap allocations during cache-on steady-state run_range",
            query.name(),
            delta
        );
    }
}
