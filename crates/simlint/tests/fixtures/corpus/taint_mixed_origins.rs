//! Two origins reach one sink: a local address cast and a same-file
//! helper whose return value is itself an address cast. The sink is
//! reported once, from the first origin in token order.

pub struct Slot {
    pub id: u64,
}

fn pick(m: &Slot) -> u64 {
    let key = m as *const Slot as u64;
    key
}

pub fn arm(q: &mut EventQueue<u64>, v: &[u8], m: &Slot) {
    let _ = m.id;
    q.schedule(v.as_ptr() as u64, pick(m));
}
