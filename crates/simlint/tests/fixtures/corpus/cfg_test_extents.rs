// #[cfg(test)] extents are brace-matched: each hazard below fires in
// model code and is silent in its twin inside the test module, where
// test-only code cannot reach simulation state. The cast after the
// module's closing brace fires again: the extent ends where it ends.
pub struct Sched {
    q: EventQueue,
}

static mut LIVE_SEED: u64 = 0;

impl Sched {
    pub fn mean_ns(total_ns: u64, n: u64) -> f64 {
        total_ns as f64 / n as f64
    }

    pub fn enqueue(&mut self, task: &Task) {
        self.q.schedule(task as *const Task as u64);
    }
}

#[cfg(test)]
mod tests {
    static mut TEST_SEED: u64 = 0;

    struct Harness {
        q: EventQueue,
    }

    impl Harness {
        fn mean_ns(total_ns: u64, n: u64) -> f64 {
            total_ns as f64 / n as f64
        }

        fn enqueue(&mut self, task: &Task) {
            self.q.schedule(task as *const Task as u64);
        }
    }
}

pub fn after_the_test_module(d: SimDuration) -> f64 {
    d.as_nanos() as f64
}
