//! Reusable `f32` buffer arena backing tensor storage and kernel
//! scratch space.
//!
//! Training and serving hot paths allocate the *same* buffer shapes
//! every iteration: layer activations, gradients, im2col patch tiles,
//! GEMM packing panels. Paying a heap allocation (and the kernel page
//! faults behind it) for each one dominates small-scale iteration time
//! and adds allocator jitter to every benchmark number. The arena turns
//! those into recycled buffers: dropping a [`Tensor`](crate::Tensor) or
//! an [`ArenaBuf`] offers its storage back to a global pool keyed by
//! exact length, and the next request of that length reuses it.
//!
//! The pool keeps only what the arena hands out. For each length it
//! counts the buffers it had to allocate (its misses), and it holds at
//! most that many free buffers of the length. A returned buffer of a
//! length no take asked for (say, a data split wrapped with
//! [`Tensor::from_vec`](crate::Tensor::from_vec)) goes straight back to
//! the allocator, as does any buffer beyond the count. A foreign buffer
//! can stand in for an arena buffer that is out, but never adds to the
//! pool. Retention therefore follows the arena's own demand, and a
//! steady-state loop still finds every buffer it asks for.
//!
//! Recycling is *transparent to numerics*: a pooled buffer is either
//! fully overwritten or explicitly zeroed before use, so results are
//! bit-identical with the arena enabled, disabled (`DLBENCH_ARENA=0`),
//! hot or cold.
//!
//! The pool is shared across threads (parallel workers are short-lived
//! scoped threads, so a thread-local pool would leak every worker's
//! buffers); contention is a single uncontended mutex acquisition per
//! take/give, far below the cost of the kernels the buffers feed.
//!
//! [`stats`] exposes hit/miss counters and the bytes pooled right now,
//! so tests can prove steady-state training iterations stop allocating
//! (after one warm-up iteration every buffer request is served from the
//! pool and the miss counter stays flat, see `tests/tests/arena.rs`)
//! and that the pool does not grow with work it never serves (see
//! `tests/tests/arena_retention.rs`).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Total bytes the pool may retain across all lengths; beyond this,
/// returned buffers are freed instead of pooled. A backstop only: the
/// per-length count bounds the pool by the arena's own demand, except
/// that a buffer escaping through
/// [`Tensor::into_vec`](crate::Tensor::into_vec) leaves its length's
/// count raised, so foreign buffers of that length could fill the slot
/// it left.
const MAX_TOTAL_BYTES: usize = 512 << 20;

/// One length's share of the pool.
#[derive(Default)]
struct Bucket {
    /// Pooled buffers, ready for the next take.
    free: Vec<Vec<f32>>,
    /// Buffers of this length the arena allocated (its misses): the
    /// most `free` may hold.
    allocated: usize,
}

struct Pool {
    /// One bucket per length some take asked for.
    buckets: BTreeMap<usize, Bucket>,
    total_bytes: usize,
}

static POOL: Mutex<Pool> = Mutex::new(Pool { buckets: BTreeMap::new(), total_bytes: 0 });
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static RECYCLED: AtomicU64 = AtomicU64::new(0);

/// Drops take this lock and must not panic, so a poisoned mutex is
/// recovered: no update can leave a bucket holding a buffer of another
/// length.
fn lock_pool() -> MutexGuard<'static, Pool> {
    POOL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Whether pooling is enabled (`DLBENCH_ARENA=0` disables it; every
/// take then allocates fresh and every give frees — useful to bisect
/// arena interactions and to prove numeric transparency).
fn enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| std::env::var("DLBENCH_ARENA").map_or(true, |v| v.trim() != "0"))
}

/// Takes a buffer of exactly `len` elements with *unspecified contents*
/// (fresh allocations are zeroed, recycled ones carry stale values).
/// Crate-internal: callers must fully overwrite before reading.
pub(crate) fn take_vec(len: usize) -> Vec<f32> {
    if len == 0 {
        return Vec::new();
    }
    if enabled() {
        let mut guard = lock_pool();
        let pool = &mut *guard;
        let bucket = pool.buckets.entry(len).or_default();
        if let Some(v) = bucket.free.pop() {
            pool.total_bytes -= len * 4;
            drop(guard);
            HITS.fetch_add(1, Ordering::Relaxed);
            debug_assert_eq!(v.len(), len);
            return v;
        }
        bucket.allocated += 1;
    }
    MISSES.fetch_add(1, Ordering::Relaxed);
    vec![0.0; len]
}

/// Takes a zero-filled buffer of exactly `len` elements.
pub(crate) fn take_vec_zeroed(len: usize) -> Vec<f32> {
    let mut v = take_vec(len);
    v.fill(0.0);
    v
}

/// Pools a returned buffer if the arena allocated more buffers of its
/// length than the length's bucket holds free; frees it otherwise (also
/// when pooling is disabled, the buffer carries spare capacity or the
/// byte backstop is reached).
pub(crate) fn give_vec(v: Vec<f32>) {
    let len = v.len();
    if len == 0 || v.capacity() != len || !enabled() {
        return;
    }
    let mut guard = lock_pool();
    let pool = &mut *guard;
    if pool.total_bytes + len * 4 > MAX_TOTAL_BYTES {
        return;
    }
    let Some(bucket) = pool.buckets.get_mut(&len) else { return };
    if bucket.free.len() < bucket.allocated {
        bucket.free.push(v);
        pool.total_bytes += len * 4;
        drop(guard);
        RECYCLED.fetch_add(1, Ordering::Relaxed);
    }
}

/// A pooled scratch buffer; returns its storage to the arena on drop.
///
/// Used by kernel internals (GEMM packing panels, fused-conv patch
/// tiles) and by layer code staging per-sample scratch. Dereferences to
/// `[f32]`.
pub struct ArenaBuf {
    data: Vec<f32>,
}

impl std::ops::Deref for ArenaBuf {
    type Target = [f32];
    fn deref(&self) -> &[f32] {
        &self.data
    }
}

impl std::ops::DerefMut for ArenaBuf {
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }
}

impl Drop for ArenaBuf {
    fn drop(&mut self) {
        give_vec(std::mem::take(&mut self.data));
    }
}

/// Takes a buffer of `len` elements with **unspecified contents**; the
/// caller must overwrite every element it later reads.
pub fn take(len: usize) -> ArenaBuf {
    ArenaBuf { data: take_vec(len) }
}

/// Arena traffic counters since process start, and the pool's size now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaStats {
    /// Requests served by recycling a pooled buffer.
    pub hits: u64,
    /// Requests that fell through to a fresh heap allocation.
    pub misses: u64,
    /// Buffers accepted back into the pool.
    pub recycled: u64,
    /// Bytes of free buffers pooled right now.
    pub retained_bytes: u64,
}

/// Snapshot of the global arena counters.
pub fn stats() -> ArenaStats {
    let retained_bytes = lock_pool().total_bytes as u64;
    ArenaStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        recycled: RECYCLED.load(Ordering::Relaxed),
        retained_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_recycles_exact_length() {
        let before = stats();
        let a = take(4096);
        assert_eq!(a.len(), 4096);
        drop(a);
        let b = take(4096);
        let after = stats();
        assert_eq!(b.len(), 4096);
        // The second take of this length must be a hit (the pool is
        // global, so other tests can only add hits, never remove the
        // buffer we just returned within this sequential scope).
        assert!(after.hits > before.hits || after.misses >= before.misses + 2);
    }

    #[test]
    fn zeroed_take_is_actually_zeroed() {
        {
            let mut a = take(513);
            a.fill(7.0);
        }
        let b = take_vec_zeroed(513);
        assert!(b.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn zero_length_is_free() {
        let before = stats();
        let a = take(0);
        assert!(a.is_empty());
        drop(a);
        let after = stats();
        assert_eq!(before.misses, after.misses);
    }

    /// `(pooled, allocated)` buffer counts of one length. Tests share
    /// the global pool, so each owns a length no other test takes.
    fn counts(len: usize) -> (usize, usize) {
        lock_pool().buckets.get(&len).map_or((0, 0), |b| (b.free.len(), b.allocated))
    }

    #[test]
    fn a_length_no_take_asked_for_is_never_pooled() {
        const LEN: usize = 12_289;
        for _ in 0..3 {
            give_vec(vec![1.0; LEN]);
        }
        assert_eq!(counts(LEN), (0, 0));
    }

    #[test]
    fn foreign_buffers_never_grow_a_bucket_past_its_allocations() {
        if !enabled() {
            return;
        }
        const LEN: usize = 24_593;
        const K: usize = 3;
        let out: Vec<ArenaBuf> = (0..K).map(|_| take(LEN)).collect();
        // While the arena's buffers are out, foreign ones stand in.
        give_vec(vec![1.0; LEN]);
        assert_eq!(counts(LEN), (1, K));
        drop(out);
        assert_eq!(counts(LEN), (K, K));
        for _ in 0..10 {
            give_vec(vec![1.0; LEN]);
        }
        assert_eq!(counts(LEN), (K, K));
        // The next K takes all hit: none of them allocates.
        let again: Vec<ArenaBuf> = (0..K).map(|_| take(LEN)).collect();
        assert_eq!(counts(LEN), (0, K));
        drop(again);
        assert_eq!(counts(LEN), (K, K));
    }
}
