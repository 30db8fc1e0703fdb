//! Receive Side Scaling: the Toeplitz hash and indirection table.
//!
//! RSS is the baseline steering mechanism the paper argues against (§1:
//! dataplane OSes "rely on Receive Side Scaling to randomly distribute
//! incoming requests to polling CPU cores"). We implement the real
//! algorithm — the Microsoft Toeplitz hash over the IPv4 4-tuple plus an
//! indirection table — verified against the published test vectors, so the
//! load-imbalance behaviour of RSS-based baselines (IX/ZygOS) is faithful.

/// The Microsoft-documented 40-byte default hash key, also the default in
/// most NIC drivers.
pub const DEFAULT_KEY: [u8; 40] = [
    0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2, 0x41, 0x67, 0x25, 0x3d, 0x43, 0xa3, 0x8f, 0xb0,
    0xd0, 0xca, 0x2b, 0xcb, 0xae, 0x7b, 0x30, 0xb4, 0x77, 0xcb, 0x2d, 0xa3, 0x80, 0x30, 0xf2, 0x0c,
    0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa,
];

/// Compute the Toeplitz hash of `input` under `key`.
///
/// For every set bit of the input (MSB-first), XOR in the 32-bit window of
/// the key beginning at that bit position. Works a byte at a time: a
/// 64-bit window holds key bits `8i .. 8i + 64` while input byte `i` is
/// hashed, so each of its 32-bit windows is a shift of one register.
pub fn toeplitz_hash(key: &[u8; 40], input: &[u8]) -> u32 {
    assert!(input.len() <= 36, "RSS input exceeds key coverage");
    let mut result: u32 = 0;
    let mut window = u64::from_be_bytes([
        key[0], key[1], key[2], key[3], key[4], key[5], key[6], key[7],
    ]);
    for (i, &byte) in input.iter().enumerate() {
        for bit in 0..8 {
            if byte & (0x80 >> bit) != 0 {
                result ^= (window >> (32 - bit)) as u32;
            }
        }
        // Zeros shift in past the key's end and are never used: byte `i`
        // reads key bits up to `8i + 39`, inside the key for `i < 36`.
        window = window << 8 | u64::from(key.get(i + 8).copied().unwrap_or(0));
    }
    result
}

/// The hash input for UDP/IPv4: src addr, dst addr, src port, dst port,
/// all big-endian (the "4-tuple" configuration).
pub fn four_tuple_input(src: [u8; 4], dst: [u8; 4], src_port: u16, dst_port: u16) -> [u8; 12] {
    let mut input = [0u8; 12];
    input[0..4].copy_from_slice(&src);
    input[4..8].copy_from_slice(&dst);
    input[8..10].copy_from_slice(&src_port.to_be_bytes());
    input[10..12].copy_from_slice(&dst_port.to_be_bytes());
    input
}

/// The hash input for IPv4 without ports (the "2-tuple" configuration).
pub fn two_tuple_input(src: [u8; 4], dst: [u8; 4]) -> [u8; 8] {
    let mut input = [0u8; 8];
    input[0..4].copy_from_slice(&src);
    input[4..8].copy_from_slice(&dst);
    input
}

/// An RSS engine: key + indirection table mapping hash → RX queue.
#[derive(Debug, Clone)]
pub struct Rss {
    key: [u8; 40],
    /// Indirection table; hardware typically has 128 or 512 entries.
    table: Vec<u32>,
}

impl Rss {
    /// An RSS engine spreading over `queues` RX queues round-robin through
    /// a 128-entry indirection table, with the default key.
    pub fn new(queues: u32) -> Rss {
        Rss::with_table(DEFAULT_KEY, (0..128).map(|i| i % queues).collect())
    }

    /// Full control over key and indirection table.
    pub fn with_table(key: [u8; 40], table: Vec<u32>) -> Rss {
        assert!(!table.is_empty(), "indirection table must not be empty");
        Rss { key, table }
    }

    /// Hash a 4-tuple and look up the target queue.
    pub fn steer(&self, src: [u8; 4], dst: [u8; 4], src_port: u16, dst_port: u16) -> u32 {
        let hash = toeplitz_hash(&self.key, &four_tuple_input(src, dst, src_port, dst_port));
        self.queue_for(hash)
    }

    /// Map an already-computed hash through the indirection table (the
    /// low-order bits index the table, as in hardware).
    pub fn queue_for(&self, hash: u32) -> u32 {
        self.table[hash as usize % self.table.len()]
    }

    /// Rewrite the indirection table (Elastic-RSS-style reconfiguration).
    pub fn set_table(&mut self, table: Vec<u32>) {
        assert!(!table.is_empty(), "indirection table must not be empty");
        self.table = table;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bit-serial definition: the oracle the byte loop is checked
    /// against.
    fn toeplitz_bitwise(key: &[u8; 40], input: &[u8]) -> u32 {
        let mut result: u32 = 0;
        // Current 32-bit window of the key, advanced one bit per input bit.
        let mut window: u32 = u32::from_be_bytes([key[0], key[1], key[2], key[3]]);
        let mut next_bit = 32; // absolute position of the next key bit
        for &byte in input {
            for bit in (0..8).rev() {
                if byte >> bit & 1 == 1 {
                    result ^= window;
                }
                let key_bit = key[next_bit / 8] >> (7 - next_bit % 8) & 1;
                window = window << 1 | u32::from(key_bit);
                next_bit += 1;
            }
        }
        result
    }

    #[test]
    fn byte_loop_matches_bitwise_oracle() {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x
        };
        for case in 0..100_000 {
            let mut key = DEFAULT_KEY;
            if case % 2 == 1 {
                for b in key.iter_mut() {
                    *b = next() as u8;
                }
            }
            let input: Vec<u8> = (0..if case % 4 < 2 { 12 } else { 8 })
                .map(|_| (next() >> 32) as u8)
                .collect();
            assert_eq!(
                toeplitz_hash(&key, &input),
                toeplitz_bitwise(&key, &input),
                "key {key:?} input {input:?}"
            );
        }
        // Every input length up to the key's coverage.
        let input: Vec<u8> = (0..36).map(|_| next() as u8).collect();
        for len in 0..=36 {
            assert_eq!(
                toeplitz_hash(&DEFAULT_KEY, &input[..len]),
                toeplitz_bitwise(&DEFAULT_KEY, &input[..len])
            );
        }
    }

    /// Microsoft's published IPv4 4-tuple verification suite.
    #[test]
    fn msdn_four_tuple_vectors() {
        type Case = ([u8; 4], u16, [u8; 4], u16, u32);
        let cases: &[Case] = &[
            (
                [66, 9, 149, 187],
                2794,
                [161, 142, 100, 80],
                1766,
                0x51cc_c178,
            ),
            (
                [199, 92, 111, 2],
                14230,
                [65, 69, 140, 83],
                4739,
                0xc626_b0ea,
            ),
            (
                [24, 19, 198, 95],
                12898,
                [12, 22, 207, 184],
                38024,
                0x5c2b_394a,
            ),
            (
                [38, 27, 205, 30],
                48228,
                [209, 142, 163, 6],
                2217,
                0xafc7_327f,
            ),
            (
                [153, 39, 163, 191],
                44251,
                [202, 188, 127, 2],
                1303,
                0x10e8_28a2,
            ),
        ];
        for &(src, sport, dst, dport, expect) in cases {
            let h = toeplitz_hash(&DEFAULT_KEY, &four_tuple_input(src, dst, sport, dport));
            assert_eq!(h, expect, "src {src:?}:{sport} dst {dst:?}:{dport}");
        }
    }

    /// Microsoft's published IPv4 2-tuple verification suite.
    #[test]
    fn msdn_two_tuple_vectors() {
        let cases: &[([u8; 4], [u8; 4], u32)] = &[
            ([66, 9, 149, 187], [161, 142, 100, 80], 0x323e_8fc2),
            ([199, 92, 111, 2], [65, 69, 140, 83], 0xd718_262a),
            ([24, 19, 198, 95], [12, 22, 207, 184], 0xd2d0_a5de),
            ([38, 27, 205, 30], [209, 142, 163, 6], 0x8298_9176),
            ([153, 39, 163, 191], [202, 188, 127, 2], 0x5d18_09c5),
        ];
        for &(src, dst, expect) in cases {
            let h = toeplitz_hash(&DEFAULT_KEY, &two_tuple_input(src, dst));
            assert_eq!(h, expect, "src {src:?} dst {dst:?}");
        }
    }

    #[test]
    fn steering_is_stable_per_flow() {
        let rss = Rss::new(8);
        let q1 = rss.steer([10, 0, 0, 1], [10, 0, 0, 2], 1234, 80);
        let q2 = rss.steer([10, 0, 0, 1], [10, 0, 0, 2], 1234, 80);
        assert_eq!(q1, q2, "same 4-tuple, same queue");
        assert!(q1 < 8);
    }

    #[test]
    fn many_flows_spread_across_queues() {
        let rss = Rss::new(8);
        let mut counts = [0usize; 8];
        for port in 0..4096u16 {
            let q = rss.steer([10, 0, 0, 1], [10, 0, 0, 2], port, 80);
            counts[q as usize] += 1;
        }
        // Every queue gets flows, and no queue gets everything.
        for (q, &c) in counts.iter().enumerate() {
            assert!(c > 0, "queue {q} starved");
            assert!(c < 4096, "queue {q} monopolized");
        }
    }

    #[test]
    fn indirection_table_rewrite_redirects_traffic() {
        let mut rss = Rss::new(4);
        // Pin everything to queue 3.
        rss.set_table(vec![3]);
        for port in 0..32u16 {
            assert_eq!(rss.steer([1, 2, 3, 4], [5, 6, 7, 8], port, 9), 3);
        }
    }

    #[test]
    #[should_panic(expected = "indirection table")]
    fn empty_table_rejected() {
        let _ = Rss::with_table(DEFAULT_KEY, vec![]);
    }

    #[test]
    #[should_panic(expected = "exceeds key coverage")]
    fn oversized_input_rejected() {
        let _ = toeplitz_hash(&DEFAULT_KEY, &[0u8; 37]);
    }
}
