// A named OS thread, its handle and its identity.
use std::thread::{Builder, JoinHandle, Thread};

pub fn worker() -> Option<JoinHandle<()>> {
    Builder::new().name("w".into()).spawn(|| {}).ok()
}

pub fn me() -> Thread {
    std::thread::current()
}
