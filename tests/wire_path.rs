//! Integration of the wire and NIC layers: frames produced by the
//! workload client must steer, queue and parse correctly through the NIC
//! device model — the exact path request packets take in the systems.

use mindgap::nic::{NicDevice, QueueSteering, Rss};
use mindgap::sim::{Rng, SimDuration, SimTime};
use mindgap::systems::common::{AddressPlan, Client};
use mindgap::wire::{MsgKind, ParsedFrame};
use mindgap::workload::{ServiceDist, WorkloadSpec};

fn client() -> Client {
    let spec = WorkloadSpec::new(100_000.0, ServiceDist::Fixed(SimDuration::from_micros(5)));
    let mut master = Rng::new(11);
    Client::new(spec, &mut master)
}

#[test]
fn client_requests_steer_to_the_dispatcher_interface() {
    let mut c = client();
    let mut nic = NicDevice::new(SimDuration::from_nanos(900));
    let disp = nic.add_iface(AddressPlan::dispatcher_mac(), 1, 64, QueueSteering::Single);
    let _vf = nic.add_iface(AddressPlan::worker_mac(0), 1, 64, QueueSteering::Single);

    for i in 0..50 {
        let frame = c.make_request(SimTime::from_micros(i));
        let parsed = ParsedFrame::parse(&frame.build()).unwrap();
        let d = nic.steer(&parsed).expect("request must steer");
        assert_eq!(d.iface, disp, "client requests target the service MAC");
    }
    assert_eq!(nic.unmatched_drops, 0);
}

#[test]
fn rss_spreads_client_flows_across_worker_queues() {
    let mut c = client();
    let mut nic = NicDevice::new(SimDuration::ZERO);
    nic.add_iface(
        AddressPlan::dispatcher_mac(),
        8,
        256,
        QueueSteering::Rss(Rss::new(8)),
    );

    let mut hit = [0usize; 8];
    for i in 0..2048 {
        let frame = c.make_request(SimTime::from_micros(i));
        let parsed = ParsedFrame::parse(&frame.build()).unwrap();
        let d = nic.steer(&parsed).unwrap();
        hit[d.queue] += 1;
    }
    for (q, &n) in hit.iter().enumerate() {
        assert!(
            n > 64,
            "queue {q} starved with {n} of 2048 (imbalance too extreme)"
        );
    }
    assert_eq!(
        hit.iter().sum::<usize>(),
        2048,
        "every frame steered somewhere"
    );

    // Steering is per-flow stable: the same 4-tuple always lands on the
    // same queue (the client cycles through 1024 source ports, so request
    // i and request i+1024 share a flow).
    let mut c2 = client();
    let first: Vec<usize> = (0..1024)
        .map(|i| {
            let f = ParsedFrame::parse(&c2.make_request(SimTime::from_micros(i)).build()).unwrap();
            nic.steer(&f).unwrap().queue
        })
        .collect();
    for i in 0..1024 {
        let f =
            ParsedFrame::parse(&c2.make_request(SimTime::from_micros(9999 + i)).build()).unwrap();
        assert_eq!(
            nic.steer(&f).unwrap().queue,
            first[i as usize],
            "flow {i} moved queues"
        );
    }
}

#[test]
fn frames_survive_ring_transit_byte_for_byte() {
    let mut c = client();
    let mut nic = NicDevice::new(SimDuration::ZERO);
    let disp = nic.add_iface(AddressPlan::dispatcher_mac(), 1, 64, QueueSteering::Single);

    let spec = c.make_request(SimTime::from_micros(1));
    let bytes = spec.build();
    nic.steer(&spec).unwrap();
    assert!(nic.iface_mut(disp).rx[0].push(SimTime::from_micros(1), spec));

    let out = nic.iface_mut(disp).rx[0].pop().unwrap();
    assert_eq!(
        &out.spec.build()[..],
        &bytes[..],
        "ring must not mutate frames"
    );
    let reparsed = ParsedFrame::parse(&bytes).unwrap();
    assert_eq!(reparsed.to_spec(), out.spec);
    assert_eq!(reparsed.msg.kind, MsgKind::Request);
    assert_eq!(reparsed.msg.req_id, spec.msg.req_id);
}

#[test]
fn response_frames_carry_latency_provenance() {
    // The sojourn measurement depends on sent_at_ns surviving the full
    // request -> assign -> response chain.
    let mut c = client();
    let req = c.make_request(SimTime::from_micros(123));
    let assign = mindgap::wire::FrameSpec {
        src_mac: AddressPlan::dispatcher_mac(),
        dst_mac: AddressPlan::worker_mac(2),
        src: AddressPlan::dispatcher_ep(),
        dst: AddressPlan::worker_ep(2),
        msg: req.msg.with_kind(MsgKind::Assign),
    };
    let assign_parsed = ParsedFrame::parse(&assign.build()).unwrap();
    let resp = mindgap::wire::FrameSpec {
        src_mac: AddressPlan::worker_mac(2),
        dst_mac: AddressPlan::client_mac(),
        src: AddressPlan::worker_ep(2),
        dst: AddressPlan::client_ep(),
        msg: assign_parsed.msg.response(),
    };
    let resp_parsed = ParsedFrame::parse(&resp.build()).unwrap();
    assert_eq!(resp_parsed.msg.sent_at_ns, 123_000);
    assert_eq!(resp_parsed.msg.req_id, req.msg.req_id);
    assert_eq!(resp_parsed.msg.kind, MsgKind::Response);
}
