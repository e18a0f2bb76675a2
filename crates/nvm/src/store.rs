//! Cost-accounted object store: one shared NVM (or PFS) storage.

use std::sync::Arc;

use bytes::Bytes;
use papyrus_faultinject::{Backoff, FaultPlan, IoFault};
use papyrus_simtime::{AccessPattern, Clock, DeviceModel, Resource, SimNs};
use papyrus_telemetry::{Counter, Histogram, Registry, SpanRecorder};

use crate::backend::{Backend, MemBackend};

/// Base/cap for the virtual backoff used when an infallible store wrapper
/// rides out an injected transient fault.
const IO_BACKOFF_BASE_NS: SimNs = 50_000; // 50 µs
const IO_BACKOFF_CAP_NS: SimNs = 20_000_000; // 20 ms

/// Telemetry handles for one store in one world's registry. Each store
/// owns its own trace timeline there (pid ≥
/// [`papyrus_telemetry::NVM_PID_BASE`]) so device occupancy renders as a
/// separate track in Chrome/Perfetto.
struct StoreTel {
    reg: Arc<Registry>,
    read_ops: Counter,
    read_bytes: Counter,
    write_ops: Counter,
    write_bytes: Counter,
    meta_ops: Counter,
    io_retries: Counter,
    queue_wait: Histogram,
    service: Histogram,
    rec: SpanRecorder,
}

impl StoreTel {
    fn new(reg: &Arc<Registry>, store: &NvmStore) -> Self {
        let pid = reg.store_pid(&store.queue, &format!("nvm {}", store.device.name));
        Self {
            reg: reg.clone(),
            read_ops: reg.counter(pid, "io.read.ops"),
            read_bytes: reg.counter(pid, "io.read.bytes"),
            write_ops: reg.counter(pid, "io.write.ops"),
            write_bytes: reg.counter(pid, "io.write.bytes"),
            meta_ops: reg.counter(pid, "io.meta.ops"),
            io_retries: reg.counter(pid, "io_retries"),
            queue_wait: reg.histogram(pid, "io.queue_wait.ns"),
            service: reg.histogram(pid, "io.service.ns"),
            rec: reg.recorder(pid),
        }
    }

    /// Account one device operation: `cost` is pure service time, the gap
    /// `done - now - cost` is time spent queued behind other requests.
    fn io(
        &self,
        name: &'static str,
        is_write: bool,
        bytes: u64,
        now: SimNs,
        cost: SimNs,
        done: SimNs,
    ) {
        if is_write {
            self.write_ops.inc();
            self.write_bytes.add(bytes);
        } else {
            self.read_ops.inc();
            self.read_bytes.add(bytes);
        }
        self.queue_wait.record(done.saturating_sub(now).saturating_sub(cost));
        self.service.record(cost);
        self.rec.span("nvm", name, 0, now, done);
    }

    fn meta(&self, name: &'static str, now: SimNs, done: SimNs) {
        self.meta_ops.inc();
        self.rec.span("nvm", name, 0, now, done);
    }
}

/// One shared storage: a device cost model, a device queue, and a backend.
///
/// An `NvmStore` represents what one *storage group* shares — a node-local
/// NVMe, the burst-buffer aggregate, or the Lustre scratch. All ranks in the
/// group funnel their modelled I/O through the same device [`Resource`], so
/// concurrent flushes/reads queue behind each other.
///
/// Every operation comes in two flavours:
/// * a **clocked** wrapper taking `&Clock` — synchronous I/O: the caller's
///   virtual clock is advanced to the operation's completion stamp;
/// * an **`_at`** primitive taking an explicit `now` and returning the
///   completion stamp — used by the runtime's tasks (compaction, checkpoint
///   transfer) that must not advance the application rank's clock. The stamp
///   is reconciled later at a fence/barrier.
///
/// An `NvmStore` value is a *handle*: clones share the device queue and
/// the backend. What a handle does not share is its fault plan
/// ([`NvmStore::with_faults`]) and its telemetry
/// ([`NvmStore::with_telemetry`]) — the store itself keeps neither, so two
/// worlds using one store each see only their own plan and record into
/// their own registry. A handle with no registry records nothing.
#[derive(Clone)]
pub struct NvmStore {
    device: DeviceModel,
    queue: Resource,
    backend: Arc<dyn Backend>,
    tel: Option<Arc<StoreTel>>,
    /// The fault schedule ops issued through *this handle* run under.
    faults: Option<Arc<FaultPlan>>,
}

impl std::fmt::Debug for NvmStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NvmStore")
            .field("device", &self.device.name)
            .field("busy_until", &self.queue.busy_until())
            .finish()
    }
}

impl NvmStore {
    /// A store with the given device model, backed by memory.
    pub fn in_memory(device: DeviceModel) -> Self {
        Self::with_backend(device, Arc::new(MemBackend::new()))
    }

    /// A store with an explicit backend.
    pub fn with_backend(device: DeviceModel, backend: Arc<dyn Backend>) -> Self {
        Self { device, queue: Resource::new(), backend, tel: None, faults: None }
    }

    /// A handle on the same store whose operations run under `faults`
    /// (`None` = none). The runtime makes these per world, as each rank's
    /// context (`papyruskv`'s `Context::init`); the store behind them is
    /// untouched.
    pub fn with_faults(&self, faults: Option<Arc<FaultPlan>>) -> Self {
        Self { faults, ..self.clone() }
    }

    /// A handle on the same store whose operations record into `reg`, on
    /// the store's one timeline there: every handle of one store made with
    /// one registry shares its pid and its counters.
    pub fn with_telemetry(&self, reg: &Arc<Registry>) -> Self {
        Self { tel: Some(Arc::new(StoreTel::new(reg, self))), ..self.clone() }
    }

    /// The device cost model.
    pub fn device(&self) -> &DeviceModel {
        &self.device
    }

    /// Raw backend access (tests, capacity accounting).
    pub fn backend(&self) -> &Arc<dyn Backend> {
        &self.backend
    }

    /// The shared device queue (to model contention externally if needed).
    pub fn queue(&self) -> &Resource {
        &self.queue
    }

    /// Account to this handle's telemetry, while its registry is recording.
    #[inline]
    fn record(&self, f: impl FnOnce(&StoreTel)) {
        if let Some(tel) = self.tel.as_deref().filter(|t| t.reg.enabled()) {
            f(tel);
        }
    }

    // ----- fault injection -----

    /// Consult this handle's [`FaultPlan`] for an op issued at `now`.
    /// `Ok(extra_ns)` is an added slow-device stall.
    #[inline]
    fn inject(&self, write: bool, now: SimNs) -> Result<SimNs, IoFault> {
        match &self.faults {
            Some(p) => p.io_fault(write, now),
            None => Ok(0),
        }
    }

    /// Ride out injected faults for an infallible wrapper: retry with
    /// deterministic virtual backoff until the issue stamp escapes every
    /// fault window. Plans have finite horizons, so this terminates; the
    /// horizon jump after many attempts is a safety valve for hand-built
    /// plans with overlong windows. The backoff (seeded from `path`) is
    /// only built once an attempt fails, so on an unarmed handle this is
    /// `op`'s body plus [`NvmStore::inject`]'s one field load.
    fn ride_out<T>(
        &self,
        now: SimNs,
        path: &str,
        mut op: impl FnMut(SimNs) -> Result<T, IoFault>,
    ) -> T {
        let mut t = now;
        let mut backoff = None;
        loop {
            match op(t) {
                Ok(v) => return v,
                Err(_) => {
                    self.record(|tel| tel.io_retries.inc());
                    let bo = backoff.get_or_insert_with(|| {
                        Backoff::new(path_seed(path), IO_BACKOFF_BASE_NS, IO_BACKOFF_CAP_NS)
                    });
                    t = t.saturating_add(bo.next_delay());
                    if bo.attempts() > 64 {
                        if let Some(p) = &self.faults {
                            t = t.max(p.horizon().saturating_add(1));
                        }
                    }
                }
            }
        }
    }

    // ----- primitives (explicit timestamps) -----

    /// Open/metadata operation at `now`; returns completion stamp.
    pub fn open_at(&self, now: SimNs) -> SimNs {
        let done = self.queue.submit_shared(now, self.device.open_ns(), self.device.parallelism);
        self.record(|tel| tel.meta("open", now, done));
        done
    }

    /// Fallible whole-object write: surfaces injected transient `EIO` /
    /// `ENOSPC` as typed errors instead of retrying internally. The backend
    /// is untouched when the op faults.
    pub fn try_put_at(&self, path: &str, data: Bytes, now: SimNs) -> Result<SimNs, IoFault> {
        let stall = self.inject(true, now)?;
        let bytes = data.len() as u64;
        let cost = self.device.write_ns(bytes, AccessPattern::Sequential) + stall;
        self.backend.put(path, data);
        let done = self.queue.submit_shared(now, cost, self.device.parallelism);
        self.record(|tel| tel.io("write", true, bytes, now, cost, done));
        Ok(done)
    }

    /// Write (create/truncate) a whole object at `now`. Injected transient
    /// faults are retried internally with virtual backoff (counted in the
    /// `io_retries` telemetry counter); hardened callers that want typed
    /// errors use [`NvmStore::try_put_at`].
    pub fn put_at(&self, path: &str, data: Bytes, now: SimNs) -> SimNs {
        self.ride_out(now, path, |t| self.try_put_at(path, data.clone(), t))
    }

    /// A read of whatever `fetch` returns, charged by its length with
    /// `pattern` starting at `now`. A missing object is `None` and free;
    /// injected read faults are ridden out like [`NvmStore::put_at`]'s.
    fn read_with(
        &self,
        name: &'static str,
        path: &str,
        pattern: AccessPattern,
        now: SimNs,
        fetch: impl Fn() -> Option<Bytes>,
    ) -> Option<(Bytes, SimNs)> {
        self.ride_out(now, path, |t| {
            let Some(data) = fetch() else {
                return Ok(None);
            };
            let stall = self.inject(false, t)?;
            let cost = self.device.read_ns(data.len() as u64, pattern) + stall;
            let done = self.queue.submit_shared(t, cost, self.device.parallelism);
            self.record(|tel| tel.io(name, false, data.len() as u64, t, cost, done));
            Ok(Some((data, done)))
        })
    }

    /// Ranged read at `now` with the given access pattern.
    pub fn read_at(
        &self,
        path: &str,
        offset: u64,
        len: u64,
        pattern: AccessPattern,
        now: SimNs,
    ) -> Option<(Bytes, SimNs)> {
        self.read_with("read", path, pattern, now, || self.backend.get(path, offset, len))
    }

    /// Whole-object read at `now` (sequential scan).
    pub fn read_all_at(&self, path: &str, now: SimNs) -> Option<(Bytes, SimNs)> {
        let fetch = || self.backend.get_all(path);
        self.read_with("read_all", path, AccessPattern::Sequential, now, fetch)
    }

    /// Delete at `now` (metadata-cost operation).
    pub fn delete_at(&self, path: &str, now: SimNs) -> (bool, SimNs) {
        let existed = self.backend.delete(path);
        let done = self.queue.submit_shared(now, self.device.open_ns(), self.device.parallelism);
        self.record(|tel| tel.meta("delete", now, done));
        (existed, done)
    }

    /// Atomic rename at `now` (metadata-cost operation) — the commit step
    /// of write-tmp-then-rename updates. Returns whether `from` existed.
    pub fn rename_at(&self, from: &str, to: &str, now: SimNs) -> (bool, SimNs) {
        let moved = self.backend.rename(from, to);
        let done = self.queue.submit_shared(now, self.device.open_ns(), self.device.parallelism);
        self.record(|tel| tel.meta("rename", now, done));
        (moved, done)
    }

    /// Persistence fence: orders earlier writes before later ones for crash
    /// purposes. A pure ordering marker — devices complete in submission
    /// order in this model, so no virtual time is charged; the crashcheck
    /// journal records it to bound write reordering. Not `papyruskv_fence`,
    /// which waits for migrations.
    pub fn order_writes(&self) {
        self.backend.fence();
    }

    // ----- clocked wrappers (synchronous I/O) -----

    /// Synchronous open: clock advances to completion.
    pub fn open(&self, clock: &Clock) {
        let done = self.open_at(clock.now());
        clock.merge(done);
    }

    /// Synchronous whole-object write.
    pub fn put(&self, path: &str, data: Bytes, clock: &Clock) {
        let done = self.put_at(path, data, clock.now());
        clock.merge(done);
    }

    /// Synchronous ranged read.
    pub fn read(
        &self,
        path: &str,
        offset: u64,
        len: u64,
        pattern: AccessPattern,
        clock: &Clock,
    ) -> Option<Bytes> {
        let (data, done) = self.read_at(path, offset, len, pattern, clock.now())?;
        clock.merge(done);
        Some(data)
    }

    /// Synchronous whole-object read.
    pub fn read_all(&self, path: &str, clock: &Clock) -> Option<Bytes> {
        let (data, done) = self.read_all_at(path, clock.now())?;
        clock.merge(done);
        Some(data)
    }

    /// Synchronous delete.
    pub fn delete(&self, path: &str, clock: &Clock) -> bool {
        let (existed, done) = self.delete_at(path, clock.now());
        clock.merge(done);
        existed
    }

    /// Synchronous atomic rename.
    pub fn rename(&self, from: &str, to: &str, clock: &Clock) -> bool {
        let (moved, done) = self.rename_at(from, to, clock.now());
        clock.merge(done);
        moved
    }

    // ----- cost-free metadata (no device round trip modelled) -----

    /// Whether an object exists (in-memory metadata check).
    pub fn exists(&self, path: &str) -> bool {
        self.backend.exists(path)
    }

    /// Object length.
    pub fn len(&self, path: &str) -> Option<u64> {
        self.backend.len(path)
    }

    /// Objects under a prefix, sorted.
    pub fn list(&self, prefix: &str) -> Vec<String> {
        self.backend.list(prefix)
    }

    /// Drop every object (job-end scratch trim, paper §4).
    pub fn clear(&self) {
        self.backend.clear();
        self.queue.reset();
    }
}

/// Stable per-path seed so an object's injected-fault backoff jitter is
/// reproducible across runs (FNV-1a).
fn path_seed(path: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in path.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nvme() -> NvmStore {
        NvmStore::in_memory(DeviceModel::nvme_summitdev())
    }

    #[test]
    fn put_then_read_roundtrip() {
        let s = nvme();
        let clock = Clock::new();
        s.put("f", Bytes::from_static(b"abcdef"), &clock);
        let got = s.read("f", 2, 3, AccessPattern::Random, &clock).unwrap();
        assert_eq!(&got[..], b"cde");
        assert!(clock.now() > 0, "I/O must cost virtual time");
    }

    #[test]
    fn read_missing_is_none_and_free() {
        let s = nvme();
        let clock = Clock::new();
        assert!(s.read("nope", 0, 10, AccessPattern::Random, &clock).is_none());
        assert_eq!(clock.now(), 0);
    }

    #[test]
    fn writes_queue_on_shared_device() {
        let s = nvme();
        // Two "ranks" submit 1 MiB writes at the same instant. The device
        // services `parallelism` requests concurrently, so the second write
        // starts after the first's occupancy slot (cost / parallelism) and
        // still pays its own full latency+transfer.
        let d1 = s.put_at("a", Bytes::from(vec![0u8; 1 << 20]), 0);
        let d2 = s.put_at("b", Bytes::from(vec![0u8; 1 << 20]), 0);
        assert!(d2 > d1, "second write must queue behind the first");
        let occupancy = d1 / s.device().parallelism as u64;
        assert_eq!(d2, occupancy + d1);
    }

    #[test]
    fn saturated_device_throughput_bounded_by_occupancy() {
        let s = nvme();
        // 64 concurrent 1 MiB writes: aggregate completion must reflect the
        // device's total service capacity, not a single request's latency.
        let mut last = 0;
        for i in 0..64 {
            last = s.put_at(&format!("o{i}"), Bytes::from(vec![0u8; 1 << 20]), 0);
        }
        let one = s.device().write_ns(1 << 20, AccessPattern::Sequential);
        // 64 requests at occupancy one/parallelism each, plus the last
        // request's full duration.
        let expected_min = 63 * (one / s.device().parallelism as u64);
        assert!(last >= expected_min, "last={last} expected_min={expected_min}");
    }

    #[test]
    fn clocked_wrappers_merge_completion() {
        let s = nvme();
        let c = Clock::new();
        s.open(&c);
        let t1 = c.now();
        assert!(t1 >= s.device().open_ns());
        s.put("x", Bytes::from_static(b"12345"), &c);
        assert!(c.now() > t1);
        assert!(s.delete("x", &c));
        assert!(!s.delete("x", &c));
    }

    #[test]
    fn list_and_clear() {
        let s = nvme();
        let c = Clock::new();
        s.put("db/r0/s1", Bytes::new(), &c);
        s.put("db/r0/s2", Bytes::new(), &c);
        s.put("db/r1/s1", Bytes::new(), &c);
        assert_eq!(s.list("db/r0/").len(), 2);
        s.clear();
        assert!(s.list("").is_empty());
        assert_eq!(s.queue().busy_until(), 0);
    }

    #[test]
    fn rename_commits_atomically_and_charges_meta_cost() {
        let s = nvme();
        let c = Clock::new();
        s.put("m.tmp", Bytes::from_static(b"next:2\n1\n"), &c);
        let before = c.now();
        assert!(s.rename("m.tmp", "m", &c));
        assert!(c.now() > before, "rename is a metadata op with a cost");
        assert!(!s.exists("m.tmp"));
        assert_eq!(&s.backend().get_all("m").unwrap()[..], b"next:2\n1\n");
        assert!(!s.rename("m.tmp", "m", &c));
    }

    #[test]
    fn fence_is_free_and_preserves_state() {
        let s = nvme();
        let c = Clock::new();
        s.put("f", Bytes::from_static(b"x"), &c);
        let t = c.now();
        s.order_writes();
        assert_eq!(c.now(), t, "fence must not charge virtual time");
        assert!(s.exists("f"));
    }

    #[test]
    fn injected_faults_surface_typed_and_ride_out() {
        use papyrus_faultinject as fi;
        const BASE: SimNs = 1_000_000_000;
        let plan = fi::FaultPlan::with_events(
            1,
            vec![
                fi::FaultEvent::NvmEnospc { start: BASE, end: BASE + 1_000_000 },
                fi::FaultEvent::NvmTransientEio {
                    start: BASE,
                    end: BASE + 1_000_000,
                    reads: true,
                    writes: false,
                },
                fi::FaultEvent::NvmStall {
                    start: BASE + 10_000_000,
                    end: BASE + 11_000_000,
                    extra_ns: 5_000_000,
                },
            ],
        );
        let clean = nvme();
        let s = clean.with_faults(Some(Arc::new(plan)));
        // Typed errors from the fallible primitives inside the window.
        assert_eq!(s.try_put_at("f", Bytes::from_static(b"x"), BASE), Err(IoFault::NoSpace));
        assert!(!s.exists("f"), "faulted write must not touch the backend");
        // Below every window the write lands; inside them the infallible
        // wrappers ride the faults out with virtual backoff.
        s.put_at("f", Bytes::from_static(b"x"), 0);
        let (_, read_done) = s.read_all_at("f", BASE).expect("f exists");
        assert!(read_done > BASE + 1_000_000, "read retries must escape the EIO window");
        let done = s.put_at("g", Bytes::from_static(b"y"), BASE);
        assert!(done > BASE + 1_000_000, "retries must escape the fault window");
        assert!(s.exists("g"));
        // Slow-device stall inflates the op's service time.
        let slow = s.try_put_at("h", Bytes::from_static(b"z"), BASE + 10_000_000).unwrap();
        assert!(slow >= BASE + 10_000_000 + 5_000_000);
        // The plan afflicts the handle, not the store: the handle it was
        // made from shares the bytes and sees no fault in the same window.
        assert!(clean.exists("g"));
        assert!(clean.try_put_at("f2", Bytes::from_static(b"x"), BASE).is_ok());
    }

    #[test]
    fn background_io_does_not_touch_clock() {
        let s = nvme();
        let c = Clock::new();
        let done = s.put_at("bg", Bytes::from(vec![0u8; 4096]), c.now());
        assert_eq!(c.now(), 0);
        assert!(done > 0);
        // Later, a fence reconciles:
        c.merge(done);
        assert_eq!(c.now(), done);
    }

    #[test]
    fn random_read_slower_than_sequential_on_lustre() {
        // Two independent stores so the shared device queue doesn't
        // serialise the comparison.
        let mk = || {
            let s = NvmStore::in_memory(DeviceModel::lustre());
            s.put_at("f", Bytes::from(vec![1u8; 1 << 20]), 0);
            s.queue().reset();
            s
        };
        let c_rand = Clock::new();
        let c_seq = Clock::new();
        mk().read("f", 0, 1 << 20, AccessPattern::Random, &c_rand);
        mk().read("f", 0, 1 << 20, AccessPattern::Sequential, &c_seq);
        assert!(c_rand.now() > c_seq.now());
    }
}
