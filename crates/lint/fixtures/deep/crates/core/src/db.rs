//! Deep fixture: blocking-under-lock positives and the lexical-guard
//! negatives the analysis must NOT trip on.

pub struct Db {
    pub state: RwLock<u32>,
    pub inner: Mutex<Vec<u8>>,
    pub cv: Condvar,
}

pub fn direct_block(db: &Db, f: &crate::fabric::Fabric) {
    let g = db.inner.lock();
    // Bound guard live: direct call to the fabric primitive — finding.
    f.recv(0);
    drop(g);
}

pub fn transitive_block(db: &Db, f: &crate::fabric::Fabric) {
    let g = db.inner.lock();
    // Guard live across a local fn that reaches recv two hops down —
    // finding with a trace.
    relay(f);
    drop(g);
}

pub fn nvm_io_under_guard(db: &Db, store: &crate::store::NvmStore) {
    let g = db.inner.lock();
    // Charged NVM I/O only advances a clock; it never parks. Clean.
    store.read_at("sst", 0);
    drop(g);
}

pub fn condvar_callee_block(db: &Db) {
    let g = db.inner.lock();
    // The callee parks on a condvar (handing over its own guard, not this
    // one) — finding with a trace ending at the wait.
    wait_drained(db);
    drop(g);
}

pub fn leaf_rule_under_guard(db: &Db, store: &crate::store::NvmStore) {
    let g = db.inner.lock();
    // The primitive file's `backend.put(..)` resolves by name to `Db::put`,
    // which parks, but reachability ends at the primitive files. Clean.
    store.try_put_at("sst", b"x");
    drop(g);
}

pub fn wait_under_a_second_guard(db: &Db) {
    let outer = db.inner.lock();
    let mut g = db.state.write();
    // The wait releases `g`, not `outer` — finding.
    db.cv.wait(&mut g);
    drop(outer);
}

fn wait_drained(db: &Db) {
    let mut g = db.inner.lock();
    while g.len() > 0 {
        db.cv.wait(&mut g);
    }
}

impl Db {
    pub fn put(&self, _key: &[u8], _value: &[u8]) {
        wait_drained(self);
    }
}

pub fn scrutinee_block(db: &Db, f: &crate::fabric::Fabric) {
    // `match` scrutinee temporary lives through the block — finding.
    match *db.state.read() {
        0 => f.recv(0),
        _ => {}
    }
}

pub fn deref_copy_then_block(db: &Db, f: &crate::fabric::Fabric) {
    // `*...read()` copies the value; the guard is a statement temporary
    // that dies at the `;` — the recv below is NOT under it. Clean.
    let state = *db.state.read();
    if state > 0 {
        f.recv(0);
    }
}

pub fn drop_then_block(db: &Db, f: &crate::fabric::Fabric) {
    let g = db.inner.lock();
    drop(g);
    // Guard explicitly dropped first. Clean.
    f.recv(0);
}

pub fn if_condition_then_block(db: &Db, f: &crate::fabric::Fabric) {
    // A plain-`if` condition temporary drops before the block runs
    // (unlike a match scrutinee). Clean.
    if *db.state.read() > 0 {
        f.recv(0);
    }
}

fn relay(f: &crate::fabric::Fabric) {
    relay_inner(f);
}

fn relay_inner(f: &crate::fabric::Fabric) {
    f.recv(1);
}

pub struct Handle(pub Inner);

pub struct Inner {
    pub fabric: crate::fabric::Fabric,
}

pub fn tuple_field_block(db: &Db, h: &Handle) {
    let g = db.inner.lock();
    // The receiver goes through a tuple field: `0.fabric.recv` must not lex
    // as one number and take the call with it — finding.
    h.0.fabric.recv(0);
    drop(g);
}
