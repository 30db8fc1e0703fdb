//! `Self::key(..)` resolves to the caller's impl, so the address cast it
//! returns reaches the schedule call and is reported once, via `key()`.
struct Arm {
    q: Queue,
}
impl Arm {
    fn key(m: &Slot) -> u64 {
        m as *const Slot as u64
    }
    fn arm(&mut self, m: &Slot) {
        self.q.schedule(Self::key(m));
    }
}
