//! Application-level message format.
//!
//! The paper's evaluation uses synthetic requests whose payload encodes how
//! long the server must spin ("requests contain fake work that keeps the
//! server busy for a specific amount of time", §4.1), and the offloaded
//! dispatcher exchanges control messages with workers as UDP packets
//! (§3.4.2). This module defines one self-describing header for all of
//! them, carried as the UDP payload.

use crate::WireError;

/// Magic bytes identifying a mindgap message ("MG").
pub const MAGIC: u16 = 0x4d47;

/// Fixed header length in bytes.
pub const HEADER_LEN: usize = 42;

/// Message kinds.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MsgKind {
    /// Client → server: a new request carrying `service_ns` of fake work.
    Request,
    /// Server → client: the response for a finished request.
    Response,
    /// Dispatcher → worker: run this request (possibly resumed after an
    /// earlier preemption, in which case `remaining_ns < service_ns`).
    Assign,
    /// Worker → dispatcher: the request finished; the worker is free.
    Done,
    /// Worker → dispatcher: the time slice expired; the request goes back to
    /// the tail of the centralized queue with `remaining_ns` left.
    Preempted,
    /// Worker → dispatcher: lease renewal for the failure detector. Only
    /// emitted when NIC-side recovery is enabled; runs without recovery
    /// never put this kind on the wire.
    Heartbeat,
}

impl MsgKind {
    fn to_u8(self) -> u8 {
        match self {
            MsgKind::Request => 1,
            MsgKind::Response => 2,
            MsgKind::Assign => 3,
            MsgKind::Done => 4,
            MsgKind::Preempted => 5,
            MsgKind::Heartbeat => 8,
        }
    }

    fn from_u8(v: u8) -> Result<MsgKind, WireError> {
        Ok(match v {
            1 => MsgKind::Request,
            2 => MsgKind::Response,
            3 => MsgKind::Assign,
            4 => MsgKind::Done,
            5 => MsgKind::Preempted,
            8 => MsgKind::Heartbeat,
            _ => return Err(WireError::Malformed),
        })
    }
}

/// The parsed/constructed application header.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MsgRepr {
    /// What this message is.
    pub kind: MsgKind,
    /// Unique request identifier (assigned by the client).
    pub req_id: u64,
    /// Originating client identifier.
    pub client_id: u32,
    /// Total fake-work service time, nanoseconds.
    pub service_ns: u64,
    /// Remaining fake work (== `service_ns` until first preemption).
    /// In `Response` messages this field is repurposed as the NIC's
    /// instantaneous scheduler-load stamp (queued + outstanding requests)
    /// for the §5.2 congestion-control co-design; pure open-loop clients
    /// ignore it.
    pub remaining_ns: u64,
    /// Client send timestamp, nanoseconds on the simulation clock; carried
    /// end-to-end so the client can compute sojourn latency.
    pub sent_at_ns: u64,
    /// Extra padding bytes appended after the header, emulating request
    /// bodies of different sizes (the paper considers 64 B and 1 KiB).
    pub body_len: u16,
    /// Scheduler slice grant riding `Assign` frames in the once-reserved
    /// header byte: 0 = inherit the worker's configured slice, 255 = run
    /// to completion, 1–254 = budget in microseconds (see
    /// `nicsched::PreemptDecision`). Zero — the old reserved value — in
    /// every other kind, so default frames are byte-identical to the
    /// pre-grant protocol.
    pub grant_code: u8,
}

mod field {
    use core::ops::Range;
    pub const MAGIC: Range<usize> = 0..2;
    pub const KIND: usize = 2;
    pub const GRANT: usize = 3;
    pub const REQ_ID: Range<usize> = 4..12;
    pub const CLIENT_ID: Range<usize> = 12..16;
    pub const SERVICE: Range<usize> = 16..24;
    pub const REMAINING: Range<usize> = 24..32;
    pub const SENT_AT: Range<usize> = 32..40;
    pub const BODY_LEN: Range<usize> = 40..42;
}

impl MsgRepr {
    /// A fresh client request.
    pub fn request(
        req_id: u64,
        client_id: u32,
        service_ns: u64,
        sent_at_ns: u64,
        body_len: u16,
    ) -> Self {
        MsgRepr {
            kind: MsgKind::Request,
            req_id,
            client_id,
            service_ns,
            remaining_ns: service_ns,
            sent_at_ns,
            body_len,
            grant_code: 0,
        }
    }

    /// Derive the response for this request.
    pub fn response(&self) -> MsgRepr {
        MsgRepr {
            kind: MsgKind::Response,
            remaining_ns: 0,
            grant_code: 0,
            ..*self
        }
    }

    /// Derive a message of a different kind, preserving identity fields
    /// but not the grant (only `Assign` frames carry one).
    pub fn with_kind(&self, kind: MsgKind) -> MsgRepr {
        MsgRepr {
            kind,
            grant_code: 0,
            ..*self
        }
    }

    /// Total emitted length: header plus padding body.
    pub fn buffer_len(&self) -> usize {
        HEADER_LEN + self.body_len as usize
    }

    /// Write the header (and zero body padding) into `buf`.
    ///
    /// # Panics
    /// Panics if `buf` is shorter than [`MsgRepr::buffer_len`].
    pub fn emit(&self, buf: &mut [u8]) {
        assert!(buf.len() >= self.buffer_len(), "message buffer too short");
        buf[field::MAGIC].copy_from_slice(&MAGIC.to_be_bytes());
        buf[field::KIND] = self.kind.to_u8();
        buf[field::GRANT] = self.grant_code;
        buf[field::REQ_ID].copy_from_slice(&self.req_id.to_be_bytes());
        buf[field::CLIENT_ID].copy_from_slice(&self.client_id.to_be_bytes());
        buf[field::SERVICE].copy_from_slice(&self.service_ns.to_be_bytes());
        buf[field::REMAINING].copy_from_slice(&self.remaining_ns.to_be_bytes());
        buf[field::SENT_AT].copy_from_slice(&self.sent_at_ns.to_be_bytes());
        buf[field::BODY_LEN].copy_from_slice(&self.body_len.to_be_bytes());
        buf[HEADER_LEN..self.buffer_len()].fill(0);
    }

    /// Parse a header from `buf`.
    pub fn parse(buf: &[u8]) -> Result<MsgRepr, WireError> {
        if buf.len() < HEADER_LEN {
            return Err(WireError::Truncated);
        }
        let magic = u16::from_be_bytes([buf[0], buf[1]]);
        if magic != MAGIC {
            return Err(WireError::BadMagic);
        }
        let kind = MsgKind::from_u8(buf[field::KIND])?;
        let body_len =
            u16::from_be_bytes([buf[field::BODY_LEN.start], buf[field::BODY_LEN.start + 1]]);
        if buf.len() < HEADER_LEN + body_len as usize {
            return Err(WireError::Truncated);
        }
        let be64 = |r: core::ops::Range<usize>| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&buf[r]);
            u64::from_be_bytes(b)
        };
        let mut cid = [0u8; 4];
        cid.copy_from_slice(&buf[field::CLIENT_ID]);
        Ok(MsgRepr {
            kind,
            req_id: be64(field::REQ_ID),
            client_id: u32::from_be_bytes(cid),
            service_ns: be64(field::SERVICE),
            remaining_ns: be64(field::REMAINING),
            sent_at_ns: be64(field::SENT_AT),
            body_len,
            grant_code: buf[field::GRANT],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MsgRepr {
        MsgRepr::request(0xdead_beef_0123, 7, 5_000, 123_456_789, 22)
    }

    #[test]
    fn emit_parse_round_trip() {
        let m = sample();
        let mut buf = vec![0u8; m.buffer_len()];
        m.emit(&mut buf);
        assert_eq!(MsgRepr::parse(&buf).unwrap(), m);
        assert_eq!(buf.len(), HEADER_LEN + 22);
    }

    #[test]
    fn all_kinds_round_trip() {
        for kind in [
            MsgKind::Request,
            MsgKind::Response,
            MsgKind::Assign,
            MsgKind::Done,
            MsgKind::Preempted,
            MsgKind::Heartbeat,
        ] {
            let m = sample().with_kind(kind);
            let mut buf = vec![0u8; m.buffer_len()];
            m.emit(&mut buf);
            assert_eq!(MsgRepr::parse(&buf).unwrap().kind, kind);
        }
    }

    #[test]
    fn response_derivation() {
        let m = sample();
        let r = m.response();
        assert_eq!(r.kind, MsgKind::Response);
        assert_eq!(r.req_id, m.req_id);
        assert_eq!(r.sent_at_ns, m.sent_at_ns);
        assert_eq!(r.remaining_ns, 0);
        assert_eq!(r.grant_code, 0);
    }

    #[test]
    fn grant_codes_ride_the_reserved_byte() {
        let mut m = sample().with_kind(MsgKind::Assign);
        m.grant_code = 25;
        let mut buf = vec![0u8; m.buffer_len()];
        m.emit(&mut buf);
        assert_eq!(buf[3], 25, "grant occupies the old reserved offset");
        assert_eq!(MsgRepr::parse(&buf).unwrap().grant_code, 25);
        // A zero grant reproduces the pre-grant frame bytes exactly.
        let legacy = sample().with_kind(MsgKind::Assign);
        let mut legacy_buf = vec![0u8; legacy.buffer_len()];
        legacy.emit(&mut legacy_buf);
        assert_eq!(legacy_buf[3], 0);
    }

    #[test]
    fn bad_magic_rejected() {
        let m = sample();
        let mut buf = vec![0u8; m.buffer_len()];
        m.emit(&mut buf);
        buf[0] = 0;
        assert_eq!(MsgRepr::parse(&buf).unwrap_err(), WireError::BadMagic);
    }

    #[test]
    fn bad_kind_rejected() {
        let m = sample();
        let mut buf = vec![0u8; m.buffer_len()];
        m.emit(&mut buf);
        // 6 and 7 are retired codes: no kind carries them any more.
        for code in [6, 7, 99] {
            buf[2] = code;
            assert_eq!(
                MsgRepr::parse(&buf).unwrap_err(),
                WireError::Malformed,
                "kind byte {code}"
            );
        }
    }

    #[test]
    fn truncation_rejected() {
        let m = sample();
        let mut buf = vec![0u8; m.buffer_len()];
        m.emit(&mut buf);
        assert_eq!(
            MsgRepr::parse(&buf[..HEADER_LEN - 1]).unwrap_err(),
            WireError::Truncated
        );
        // Header claims a 22-byte body; give it less.
        assert_eq!(
            MsgRepr::parse(&buf[..HEADER_LEN + 2]).unwrap_err(),
            WireError::Truncated
        );
    }

    #[test]
    #[should_panic(expected = "buffer too short")]
    fn emit_into_short_buffer_panics() {
        let m = sample();
        let mut buf = vec![0u8; HEADER_LEN]; // missing body space
        m.emit(&mut buf);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_kind() -> impl Strategy<Value = MsgKind> {
        prop_oneof![
            Just(MsgKind::Request),
            Just(MsgKind::Response),
            Just(MsgKind::Assign),
            Just(MsgKind::Done),
            Just(MsgKind::Preempted),
            Just(MsgKind::Heartbeat),
        ]
    }

    proptest! {
        #[test]
        fn any_message_round_trips(kind in arb_kind(), req_id in any::<u64>(),
                                   client_id in any::<u32>(), service in any::<u64>(),
                                   remaining in any::<u64>(), sent in any::<u64>(),
                                   body in 0u16..2048, grant in any::<u8>()) {
            let m = MsgRepr { kind, req_id, client_id, service_ns: service,
                              remaining_ns: remaining, sent_at_ns: sent, body_len: body,
                              grant_code: grant };
            let mut buf = vec![0xaau8; m.buffer_len()];
            m.emit(&mut buf);
            prop_assert_eq!(MsgRepr::parse(&buf).unwrap(), m);
        }

        #[test]
        fn random_bytes_never_panic(data in proptest::collection::vec(any::<u8>(), 0..128)) {
            let _ = MsgRepr::parse(&data);
        }
    }
}
