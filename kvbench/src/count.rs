//! Counters the benchmark takes from outside the store: a counting
//! [`Backend`] decorator, a counting global allocator, and process-wide CPU
//! time and peak memory from `/proc/self`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use papyrus_nvm::{Backend, MemBackend};

/// Global allocator that counts calls and tracks live bytes. It is installed
/// in both the end-to-end and the traced run, so both pay the same few
/// relaxed atomic operations per allocation.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

// Every atomic in this file is a statistic: it publishes no other data, only
// the atomicity of each update matters, and it is read after the threads that
// wrote it were joined. Hence `Relaxed` throughout.

fn grew(bytes: usize) {
    // ordering: statistic (see above); the peak may miss a momentary
    // overlap of two threads' updates by at most one allocation.
    let live = LIVE_BYTES.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    // ordering: statistic (see above).
    LIVE_BYTES.fetch_sub(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are
// statistics that publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // ordering: statistic (see above).
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        grew(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        // SAFETY: `ptr` came from `System` through this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // ordering: statistic (see above).
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        grew(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // ordering: statistic (see above).
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        shrank(layout.size());
        grew(new_size);
        // SAFETY: `ptr`/`layout` came from this allocator; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Heap allocations (alloc, alloc_zeroed, realloc) made by the whole
/// process so far, on every thread.
pub fn allocs() -> u64 {
    // ordering: statistic (see above).
    ALLOCS.load(Ordering::Relaxed)
}

/// The most heap bytes that were live at once so far, in MiB. Unlike the
/// resident set, which depends on which malloc arena each thread happened to
/// get and on what was returned to the kernel, it is a property of the
/// program and repeats for a seed.
pub fn peak_heap_mib() -> f64 {
    // ordering: statistic (see above).
    PEAK_BYTES.load(Ordering::Relaxed) as f64 / (1u64 << 20) as f64
}

/// Operation and byte counts of one [`CountingBackend`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackendCounts {
    pub put_ops: u64,
    pub put_bytes: u64,
    pub append_ops: u64,
    pub append_bytes: u64,
    pub get_ops: u64,
    pub get_bytes: u64,
    pub delete_ops: u64,
}

impl BackendCounts {
    /// Bytes written to the backend (whole-object puts plus appends).
    pub fn written_bytes(&self) -> u64 {
        self.put_bytes + self.append_bytes
    }

    /// Write operations (puts plus appends).
    pub fn write_ops(&self) -> u64 {
        self.put_ops + self.append_ops
    }

    /// Counts accumulated since `earlier`.
    pub fn since(&self, earlier: &BackendCounts) -> BackendCounts {
        BackendCounts {
            put_ops: self.put_ops - earlier.put_ops,
            put_bytes: self.put_bytes - earlier.put_bytes,
            append_ops: self.append_ops - earlier.append_ops,
            append_bytes: self.append_bytes - earlier.append_bytes,
            get_ops: self.get_ops - earlier.get_ops,
            get_bytes: self.get_bytes - earlier.get_bytes,
            delete_ops: self.delete_ops - earlier.delete_ops,
        }
    }

    /// Element-wise sum (the stores of several ranks).
    pub fn plus(&self, other: &BackendCounts) -> BackendCounts {
        BackendCounts {
            put_ops: self.put_ops + other.put_ops,
            put_bytes: self.put_bytes + other.put_bytes,
            append_ops: self.append_ops + other.append_ops,
            append_bytes: self.append_bytes + other.append_bytes,
            get_ops: self.get_ops + other.get_ops,
            get_bytes: self.get_bytes + other.get_bytes,
            delete_ops: self.delete_ops + other.delete_ops,
        }
    }
}

/// [`Backend`] decorator over the in-memory backend that counts every call
/// the store makes: what reaches the device, as opposed to what the
/// application asked for. Injected through `StorageMap::from_parts`.
#[derive(Default)]
pub struct CountingBackend {
    inner: MemBackend,
    put_ops: AtomicU64,
    put_bytes: AtomicU64,
    append_ops: AtomicU64,
    append_bytes: AtomicU64,
    get_ops: AtomicU64,
    get_bytes: AtomicU64,
    delete_ops: AtomicU64,
}

impl CountingBackend {
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Counts so far.
    pub fn counts(&self) -> BackendCounts {
        BackendCounts {
            // ordering: statistics (see the top of the file), all seven.
            put_ops: self.put_ops.load(Ordering::Relaxed),
            put_bytes: self.put_bytes.load(Ordering::Relaxed),
            append_ops: self.append_ops.load(Ordering::Relaxed),
            append_bytes: self.append_bytes.load(Ordering::Relaxed),
            get_ops: self.get_ops.load(Ordering::Relaxed),
            get_bytes: self.get_bytes.load(Ordering::Relaxed),
            delete_ops: self.delete_ops.load(Ordering::Relaxed),
        }
    }

    /// Bytes the backend holds now.
    pub fn resident_bytes(&self) -> u64 {
        self.inner.total_bytes()
    }

    fn count_get(&self, got: &Option<Bytes>) {
        // ordering: statistic (see the top of the file).
        self.get_ops.fetch_add(1, Ordering::Relaxed);
        if let Some(b) = got {
            // ordering: statistic, as above.
            self.get_bytes.fetch_add(b.len() as u64, Ordering::Relaxed);
        }
    }
}

impl Backend for CountingBackend {
    fn put(&self, path: &str, data: Bytes) {
        // ordering: statistics (see the top of the file).
        self.put_ops.fetch_add(1, Ordering::Relaxed);
        self.put_bytes.fetch_add(data.len() as u64, Ordering::Relaxed);
        self.inner.put(path, data);
    }

    fn append(&self, path: &str, data: &[u8]) {
        // ordering: statistics (see the top of the file).
        self.append_ops.fetch_add(1, Ordering::Relaxed);
        self.append_bytes.fetch_add(data.len() as u64, Ordering::Relaxed);
        self.inner.append(path, data);
    }

    fn get(&self, path: &str, offset: u64, len: u64) -> Option<Bytes> {
        let got = self.inner.get(path, offset, len);
        self.count_get(&got);
        got
    }

    fn get_all(&self, path: &str) -> Option<Bytes> {
        let got = self.inner.get_all(path);
        self.count_get(&got);
        got
    }

    fn len(&self, path: &str) -> Option<u64> {
        self.inner.len(path)
    }

    fn delete(&self, path: &str) -> bool {
        // ordering: statistic (see the top of the file).
        self.delete_ops.fetch_add(1, Ordering::Relaxed);
        self.inner.delete(path)
    }

    fn rename(&self, from: &str, to: &str) -> bool {
        self.inner.rename(from, to)
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        self.inner.list(prefix)
    }

    fn clear(&self) {
        self.inner.clear();
    }
}

/// Process-wide CPU seconds (user + system) from `/proc/self/stat`. The
/// process line includes threads that have exited, which a sum over
/// `/proc/self/task/*` misses: rank and helper threads are gone by the time
/// a world returns.
pub fn cpu_seconds() -> f64 {
    // Linux reports utime/stime in USER_HZ, which is 100 on every
    // architecture the kernel supports.
    const USER_HZ: f64 = 100.0;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else { return 0.0 };
    // The command name (field 2) may contain spaces; fields are counted
    // after its closing parenthesis, so utime and stime are the 12th and
    // 13th from there.
    let Some(after) = stat.rsplit_once(')').map(|(_, rest)| rest) else { return 0.0 };
    let mut fields = after.split_whitespace().skip(11);
    let ticks = |f: Option<&str>| f.and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(fields.next()) + ticks(fields.next())) / USER_HZ
}

/// Peak resident set size of the process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0.0 };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_counts_what_passes_through() {
        let b = CountingBackend::new();
        b.put("a", Bytes::from_static(b"12345"));
        b.append("a", b"678");
        assert_eq!(b.get("a", 0, 4).as_deref(), Some(&b"1234"[..]));
        assert_eq!(b.get_all("a").map(|v| v.len()), Some(8));
        assert!(b.get("missing", 0, 1).is_none());
        assert!(b.delete("a"));
        let c = b.counts();
        assert_eq!((c.put_ops, c.put_bytes, c.append_ops, c.append_bytes), (1, 5, 1, 3));
        assert_eq!((c.get_ops, c.get_bytes, c.delete_ops), (3, 12, 1));
        assert_eq!(c.written_bytes(), 8);
        assert_eq!(b.resident_bytes(), 0);
        let later = BackendCounts { put_ops: 4, ..c };
        assert_eq!(later.since(&c).put_ops, 3);
        assert_eq!(c.plus(&c).get_bytes, 24);
    }

    #[test]
    fn allocator_counts_and_proc_readers_answer() {
        let before = allocs();
        let v = std::hint::black_box(vec![0u8; 4096]);
        assert!(allocs() > before);
        assert!(peak_heap_mib() * 1024.0 * 1024.0 >= 4096.0);
        drop(v);
        assert!(peak_rss_mib() > 0.0);
        assert!(cpu_seconds() >= 0.0);
    }
}
