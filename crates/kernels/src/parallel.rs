//! Worker-count policy and the chunked fan-out helper for the library's
//! parallel callers.
//!
//! The kernels in this crate are sequential. On a 2-core x86 host,
//! row-split parallel versions of SpMM/SpGEMM/MTTKRP/SpTTM measured
//! slower than the sequential kernels at 24 of 30 (operation, format,
//! size) points from 128² to 4096² at 16 nonzeros per row: a per-call
//! thread spawn costs more than a kernel call of that size does. Parallelism therefore lives where a work item is a whole tile
//! or job: the planner's tile executor and `FlexSystem::run_batch` in
//! `sparseflex-core` size their workers with [`worker_count`], and
//! `run_batch` fans out through [`par_chunks`]. Each worker owns a
//! disjoint chunk, so no synchronization beyond the final join is needed
//! and results equal the sequential loop.

use std::cell::Cell;
use std::sync::OnceLock;

thread_local! {
    /// Scoped [`with_workers`] override, highest precedence.
    static FORCED_WORKERS: Cell<Option<usize>> = const { Cell::new(None) };
}

/// `SPARSEFLEX_WORKERS` parsed once per process (invalid or zero values
/// are ignored).
fn env_workers() -> Option<usize> {
    static ENV_WORKERS: OnceLock<Option<usize>> = OnceLock::new();
    *ENV_WORKERS.get_or_init(|| {
        std::env::var("SPARSEFLEX_WORKERS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
    })
}

/// Number of worker threads to use for `work_items` independent units of
/// work, always in `1..=work_items.max(1)`.
///
/// Precedence of the thread-count source (highest first):
/// 1. a [`with_workers`] scope active on the calling thread — the
///    forced-worker-count equality tests pin exact counts this way;
/// 2. the `SPARSEFLEX_WORKERS` environment variable (parsed once per
///    process; zero or unparsable values are ignored) — CI runs set this
///    for reproducible behavior on any core count;
/// 3. the machine's [`std::thread::available_parallelism`].
pub fn worker_count(work_items: usize) -> usize {
    let base = FORCED_WORKERS
        .with(Cell::get)
        .or_else(env_workers)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
    base.min(work_items).max(1)
}

/// Run `f` with [`worker_count`] pinned to exactly `n` on this thread
/// (still capped by each call site's work-item count). Scopes nest; the
/// previous value is restored on exit, including on unwind.
pub fn with_workers<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            FORCED_WORKERS.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(FORCED_WORKERS.with(|c| c.replace(Some(n.max(1)))));
    f()
}

/// Split `data` into at most `parts` contiguous mutable chunks of
/// near-equal length, returning each with the index of its first element.
pub fn chunks_with_offsets<T>(data: &mut [T], parts: usize) -> Vec<(usize, &mut [T])> {
    let len = data.len();
    if len == 0 || parts == 0 {
        return Vec::new();
    }
    let parts = parts.min(len);
    let chunk = len.div_ceil(parts);
    let mut out = Vec::with_capacity(parts);
    let mut rest = data;
    let mut offset = 0;
    while !rest.is_empty() {
        let take = chunk.min(rest.len());
        let (head, tail) = rest.split_at_mut(take);
        out.push((offset, head));
        offset += take;
        rest = tail;
    }
    out
}

/// Run `f(chunk_start, chunk)` over near-equal contiguous chunks of
/// `data`, one scoped thread per chunk.
pub fn par_chunks<T: Send, F>(data: &mut [T], parts: usize, f: F)
where
    F: Fn(usize, &mut [T]) + Sync,
{
    let chunks = chunks_with_offsets(data, parts);
    if chunks.len() <= 1 {
        for (off, chunk) in chunks {
            f(off, chunk);
        }
        return;
    }
    std::thread::scope(|s| {
        for (off, chunk) in chunks {
            let f = &f;
            s.spawn(move || f(off, chunk));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_count_bounds() {
        assert_eq!(worker_count(0), 1);
        assert!(worker_count(1000) >= 1);
        assert!(worker_count(2) <= 2);
    }

    #[test]
    fn with_workers_pins_and_restores() {
        let outside = worker_count(64);
        with_workers(7, || {
            assert_eq!(worker_count(64), 7);
            assert_eq!(worker_count(3), 3, "work cap still applies");
            with_workers(2, || assert_eq!(worker_count(64), 2));
            assert_eq!(worker_count(64), 7, "nested scope must restore");
        });
        assert_eq!(worker_count(64), outside);
        with_workers(0, || assert_eq!(worker_count(64), 1, "zero clamps to 1"));
    }

    #[test]
    fn chunks_cover_everything_once() {
        let mut v: Vec<u32> = (0..103).collect();
        let chunks = chunks_with_offsets(&mut v, 7);
        let mut seen = Vec::new();
        for (off, c) in &chunks {
            assert_eq!(c[0] as usize, *off);
            seen.extend(c.iter().copied());
        }
        assert_eq!(seen, (0..103).collect::<Vec<_>>());
    }

    #[test]
    fn chunks_handle_degenerate_inputs() {
        let mut empty: Vec<u32> = vec![];
        assert!(chunks_with_offsets(&mut empty, 4).is_empty());
        let mut one = vec![42u32];
        let c = chunks_with_offsets(&mut one, 8);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn par_chunks_writes_disjoint() {
        let mut v = vec![0usize; 1000];
        par_chunks(&mut v, 8, |off, chunk| {
            for (i, x) in chunk.iter_mut().enumerate() {
                *x = off + i;
            }
        });
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, i);
        }
    }

    #[test]
    fn par_chunks_single_thread_path() {
        let mut v = vec![1u8; 3];
        par_chunks(&mut v, 1, |_, chunk| {
            for x in chunk {
                *x += 1;
            }
        });
        assert_eq!(v, vec![2, 2, 2]);
    }
}
