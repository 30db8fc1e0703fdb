//! Use the scheduling framework directly: implement a custom queue policy
//! (deadline-aware EDF) and drive the placement-independent
//! [`Dispatcher`] by hand — the "libraries and tools to specify scheduling
//! functions for the SmartNIC" the paper calls for in §5.1(4).
//!
//! Run with:
//! ```sh
//! cargo run --release --example custom_policy
//! ```

use std::collections::BinaryHeap;

use mindgap::nicsched::{Dispatcher, FeedbackEvent, LeastOutstanding, SchedPolicy, Task};
use mindgap::sim::{SimDuration, SimTime};

/// Earliest-deadline-first: each request's deadline is its arrival plus a
/// class-dependent budget (tight for short requests, loose for long).
struct Edf {
    heap: BinaryHeap<Entry>,
    seq: u64,
}

struct Entry {
    deadline: SimTime,
    seq: u64,
    task: Task,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.deadline == other.deadline && self.seq == other.seq
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap on (deadline, seq).
        (other.deadline, other.seq).cmp(&(self.deadline, self.seq))
    }
}

impl Edf {
    fn new() -> Edf {
        Edf {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    fn deadline_of(task: &Task) -> SimTime {
        // Budget: 10x the intrinsic service time.
        task.arrived_at + task.service * 10
    }

    fn push(&mut self, task: Task) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry {
            deadline: Self::deadline_of(&task),
            seq,
            task,
        });
    }
}

impl SchedPolicy for Edf {
    fn enqueue(&mut self, _now: SimTime, task: Task) {
        self.push(task);
    }
    fn requeue(&mut self, _now: SimTime, task: Task) {
        self.push(task);
    }
    fn dequeue(&mut self, _now: SimTime) -> Option<Task> {
        self.heap.pop().map(|e| e.task)
    }
    // Deadlines do not depend on worker state, so failure signals change
    // nothing here; the dispatcher already requeues reclaimed work.
    fn feedback(&mut self, _now: SimTime, _event: &FeedbackEvent) {}
    fn worker_down(&mut self, _now: SimTime, _worker: usize) {}
    fn worker_up(&mut self, _now: SimTime, _worker: usize) {}
    fn len(&self) -> usize {
        self.heap.len()
    }
}

fn main() {
    let us = |n| SimDuration::from_micros(n);
    let at = |n| SimTime::from_micros(n);

    // One worker, one outstanding request: everything else queues, so the
    // policy alone decides the dispatch order.
    let mut dispatcher = Dispatcher::new(1, 1, Edf::new(), LeastOutstanding);

    let mut order = Vec::new();
    // A 100us request arrives first and grabs the worker.
    for a in dispatcher.on_request(at(0), Task::new(1, 0, us(100), at(0), at(0), 64)) {
        order.push(a.task.req_id);
    }
    // Another long request queues behind it...
    for a in dispatcher.on_request(at(1), Task::new(2, 0, us(100), at(1), at(1), 64)) {
        order.push(a.task.req_id);
    }
    // ...then three short requests arrive. FCFS would run them last; EDF
    // ranks them first (deadline = arrival + 10 x service = +50us vs +1ms).
    for id in 3..=5 {
        for a in dispatcher.on_request(at(2), Task::new(id, 0, us(5), at(2), at(2), 64)) {
            order.push(a.task.req_id);
        }
    }
    assert_eq!(order, vec![1], "only the first request dispatched so far");
    assert_eq!(dispatcher.queue_len(), 4);

    // Drain: each completion triggers the next EDF decision.
    let mut finished = order[0];
    let mut t = 100;
    while let Some(a) = dispatcher.on_done(at(t), 0, finished).first().copied() {
        order.push(a.task.req_id);
        finished = a.task.req_id;
        t += 100;
    }

    println!("dispatch order under EDF: {order:?}");

    // The shorts (ids 3-5, tight deadlines) jump the queued long (id 2).
    assert_eq!(order, vec![1, 3, 4, 5, 2]);
    println!("short requests jumped the queued 100us request — EDF at work");
}
