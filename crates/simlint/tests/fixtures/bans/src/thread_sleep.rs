// Host scheduling calls: each one hands control to the OS scheduler.
use std::thread;
use std::time::Duration;

pub fn nap() {
    thread::sleep(Duration::from_micros(1));
    thread::park_timeout(Duration::from_micros(1));
    thread::park();
    thread::yield_now();
}
