//! Storage backends: where object bytes actually live.

use std::collections::BTreeMap;

use bytes::Bytes;
use parking_lot::RwLock;

/// Abstract byte storage for named objects.
///
/// Paths are flat, `/`-separated strings (like object-store keys). The
/// backend handles durability only; all cost accounting happens in
/// [`crate::NvmStore`].
pub trait Backend: Send + Sync {
    /// Create or truncate an object with the given contents.
    fn put(&self, path: &str, data: Bytes);
    /// Append to an object, creating it if missing.
    fn append(&self, path: &str, data: &[u8]);
    /// Read `len` bytes at `offset`; `None` if the object is missing.
    /// Reads past the end are truncated.
    fn get(&self, path: &str, offset: u64, len: u64) -> Option<Bytes>;
    /// Full object contents; `None` if missing.
    fn get_all(&self, path: &str) -> Option<Bytes>;
    /// Object length in bytes; `None` if missing.
    fn len(&self, path: &str) -> Option<u64>;
    /// Remove an object. Returns whether it existed.
    fn delete(&self, path: &str) -> bool;
    /// Atomically move `from` to `to`, overwriting `to` if present.
    /// Returns `false` (leaving `to` untouched) when `from` is missing.
    /// This is the commit primitive for write-tmp-then-rename updates
    /// (manifests): a crash either observes the old object or the new one,
    /// never a torn mix.
    fn rename(&self, from: &str, to: &str) -> bool;
    /// Persistence fence: every mutation issued before the fence is durable
    /// before any mutation issued after it (fsync/pmem-drain analogue).
    /// Backends with no write-back caching model need do nothing; the
    /// crashcheck journal records it to bound write reordering.
    fn fence(&self) {}
    /// All object paths with the given prefix, sorted.
    fn list(&self, prefix: &str) -> Vec<String>;
    /// Whether an object exists.
    fn exists(&self, path: &str) -> bool {
        self.len(path).is_some()
    }
    /// Remove every object. Models the scratch trim at job end (paper §4).
    fn clear(&self);
}

/// Deterministic in-memory backend (the default for tests and benches).
///
/// A stored object *is* the immutable [`Bytes`] it was put as: `put` keeps
/// the handle and `get_all` hands out another (no copy; a handle taken
/// earlier keeps reading what it read), a ranged `get` copies its range out
/// once so what it returns never pins the object, and `append` replaces the
/// object with a rebuilt one.
#[derive(Default)]
pub struct MemBackend {
    objects: RwLock<BTreeMap<String, Bytes>>,
}

impl MemBackend {
    /// Empty in-memory store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total bytes held (capacity accounting, e.g. Stampede's 112 GB SSD).
    pub fn total_bytes(&self) -> u64 {
        self.objects.read().values().map(|v| v.len() as u64).sum()
    }
}

impl Backend for MemBackend {
    fn put(&self, path: &str, data: Bytes) {
        self.objects.write().insert(path.to_string(), data);
    }

    fn append(&self, path: &str, data: &[u8]) {
        let mut g = self.objects.write();
        let object = g.entry(path.to_string()).or_default();
        *object = Bytes::from([object.as_slice(), data].concat());
    }

    fn get(&self, path: &str, offset: u64, len: u64) -> Option<Bytes> {
        let g = self.objects.read();
        let v = g.get(path)?;
        let start = (offset as usize).min(v.len());
        let end = (offset.saturating_add(len) as usize).min(v.len());
        Some(Bytes::copy_from_slice(&v[start..end]))
    }

    fn get_all(&self, path: &str) -> Option<Bytes> {
        self.objects.read().get(path).cloned()
    }

    fn len(&self, path: &str) -> Option<u64> {
        self.objects.read().get(path).map(|v| v.len() as u64)
    }

    fn delete(&self, path: &str) -> bool {
        self.objects.write().remove(path).is_some()
    }

    fn rename(&self, from: &str, to: &str) -> bool {
        let mut g = self.objects.write();
        match g.remove(from) {
            Some(v) => {
                g.insert(to.to_string(), v);
                true
            }
            None => false,
        }
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        self.objects
            .read()
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, _)| k.clone())
            .collect()
    }

    fn clear(&self) {
        self.objects.write().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_backend_semantics() {
        let b = MemBackend::new();
        assert!(!b.exists("a/b"));
        b.put("a/b", Bytes::from_static(b"hello"));
        assert!(b.exists("a/b"));
        assert_eq!(b.len("a/b"), Some(5));
        assert_eq!(&b.get_all("a/b").unwrap()[..], b"hello");

        b.append("a/b", b" world");
        assert_eq!(b.len("a/b"), Some(11));
        assert_eq!(&b.get("a/b", 6, 5).unwrap()[..], b"world");
        // Read past end truncates.
        assert_eq!(&b.get("a/b", 6, 100).unwrap()[..], b"world");
        assert_eq!(b.get("a/b", 100, 5).unwrap().len(), 0);
        assert!(b.get("missing", 0, 1).is_none());

        b.append("fresh", b"x"); // append creates
        assert_eq!(b.len("fresh"), Some(1));

        b.put("a/c", Bytes::from_static(b"1"));
        b.put("z", Bytes::from_static(b"2"));
        assert_eq!(b.list("a/"), vec!["a/b".to_string(), "a/c".to_string()]);
        assert_eq!(b.list("").len(), 4);

        assert!(b.delete("a/c"));
        assert!(!b.delete("a/c"));
        assert!(!b.exists("a/c"));

        // Rename moves, overwrites the target, and fails on a missing source
        // without touching the target.
        b.put("m/src", Bytes::from_static(b"manifest"));
        b.put("m/dst", Bytes::from_static(b"old"));
        assert!(b.rename("m/src", "m/dst"));
        assert!(!b.exists("m/src"));
        assert_eq!(&b.get_all("m/dst").unwrap()[..], b"manifest");
        assert!(!b.rename("m/gone", "m/dst"));
        assert_eq!(&b.get_all("m/dst").unwrap()[..], b"manifest");
        b.fence(); // no-op, must not disturb state
        assert_eq!(&b.get_all("m/dst").unwrap()[..], b"manifest");

        b.clear();
        assert!(b.list("").is_empty());
    }

    #[test]
    fn mem_backend_total_bytes() {
        let b = MemBackend::new();
        b.put("x", Bytes::from_static(b"1234"));
        b.append("y", b"56");
        assert_eq!(b.total_bytes(), 6);
    }

    /// Objects are immutable handles: a `get_all` taken before the path is
    /// appended to or overwritten keeps reading the bytes it read.
    #[test]
    fn a_handle_keeps_reading_what_it_read() {
        let b = MemBackend::new();
        b.put("k", Bytes::from_static(b"first"));
        let before_append = b.get_all("k").unwrap();
        b.append("k", b"+more");
        let before_put = b.get_all("k").unwrap();
        b.put("k", Bytes::from_static(b"second"));
        b.put("other", Bytes::from_static(b"xy"));
        assert_eq!(&before_append[..], b"first");
        assert_eq!(&before_put[..], b"first+more");
        assert_eq!(&b.get_all("k").unwrap()[..], b"second");
        // Capacity accounting is the sum of the objects' lengths, whatever
        // handles are still out.
        assert_eq!(b.total_bytes(), b.len("k").unwrap() + b.len("other").unwrap());
        assert_eq!(b.total_bytes(), 8);
    }

    #[test]
    fn overwrite_truncates() {
        let b = MemBackend::new();
        b.put("k", Bytes::from_static(b"long contents"));
        b.put("k", Bytes::from_static(b"s"));
        assert_eq!(b.len("k"), Some(1));
    }
}
