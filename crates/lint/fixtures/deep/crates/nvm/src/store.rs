//! Deep fixture: the NVM store, a primitive file. Its I/O only advances a
//! clock, and its `backend.put(..)` resolves by name to a parking `Db::put`
//! in another crate — an edge reachability must not follow out of here.

pub struct NvmStore {
    backend: Backend,
}

impl NvmStore {
    pub fn read_at(&self, path: &str, offset: u64) -> u64 {
        self.io(path, offset)
    }

    pub fn try_put_at(&self, path: &str, data: &[u8]) {
        self.backend.put(path, data);
    }

    fn io(&self, _path: &str, offset: u64) -> u64 {
        offset
    }
}
