// Seeded fixture: a raw OS thread in a crate that runs inside a world.
use std::thread;

pub fn helper() {
    let h = std::thread::spawn(|| 1);
    let _ = h.join();
}

pub fn named_helper() {
    let _ = thread::Builder::new().name("helper".into()).spawn(|| 2);
}

pub fn waived() {
    let _ = thread::spawn(|| 3); // lint:allow(raw-thread)
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_spawn() {
        std::thread::spawn(|| ()).join().unwrap();
    }
}
