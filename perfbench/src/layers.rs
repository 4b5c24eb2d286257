//! Per-layer replays: a layer's state machine driven alone, with the run's shapes.

use std::time::Instant;

use vsync_msg::Message;
use vsync_net::calendar::CalendarQueue;
use vsync_net::MsgId;
use vsync_proto::abcast::AbcastState;
use vsync_proto::cbcast::{CbcastState, ReadyCb};
use vsync_util::{ProcessId, SimTime, SiteId, VectorClock};

const PROTO_MSGS: u64 = 20_000;

/// ns per `CbcastState::receive_into` for a group of `width` members, senders rotating.
pub fn cbcast_receive_ns(width: usize) -> f64 {
    let msgs: Vec<ReadyCb> = {
        let mut vt = VectorClock::zero(width);
        (0..PROTO_MSGS)
            .map(|i| {
                let rank = (i % width as u64) as usize;
                vt.increment(rank);
                ReadyCb {
                    id: MsgId::new(SiteId(rank as u16), i + 1),
                    sender: ProcessId::new(SiteId(rank as u16), 1),
                    sender_rank: rank,
                    vt: vt.clone(),
                    payload: Message::with_body(i),
                }
            })
            .collect()
    };
    let mut cb = CbcastState::new(width);
    let mut out = Vec::with_capacity(4);
    let t = Instant::now();
    for m in msgs {
        out.clear();
        cb.receive_into(m, &mut out);
        std::hint::black_box(&out);
    }
    t.elapsed().as_nanos() as f64 / PROTO_MSGS as f64
}

/// ns per ABCAST ordered at its initiator in a group spanning `sites` sites: initiate,
/// one proposal per peer, decide, drain.
pub fn abcast_order_ns(sites: usize) -> f64 {
    let peers: Vec<SiteId> = (1..sites as u16).map(SiteId).collect();
    let me = SiteId(0);
    let sender = ProcessId::new(me, 1);
    let mut ab = AbcastState::new();
    let t = Instant::now();
    for i in 1..=PROTO_MSGS {
        let id = MsgId::new(me, i);
        ab.initiate(id, sender, Message::with_body(i), me, peers.clone());
        let mut decision = None;
        for (k, p) in peers.iter().enumerate() {
            decision = ab.on_proposal(id, *p, i + k as u64);
        }
        if let Some((prio, site)) = decision {
            ab.decide(id, prio, site);
        }
        std::hint::black_box(ab.drain());
    }
    t.elapsed().as_nanos() as f64 / PROTO_MSGS as f64
}

/// ns per event for the run's virtual event instants replayed through a `CalendarQueue`,
/// keeping as many events pending as the recorded run's instants allow (a 64-event
/// look-ahead window).
pub fn calendar_ns(instants: &[u64]) -> f64 {
    if instants.is_empty() {
        return 0.0;
    }
    let mut q: CalendarQueue<u32> = CalendarQueue::new();
    let window = 64.min(instants.len());
    let t = Instant::now();
    for (i, at) in instants[..window].iter().enumerate() {
        q.push(SimTime(*at), i as u32);
    }
    for (i, at) in instants[window..].iter().enumerate() {
        std::hint::black_box(q.pop());
        q.push(SimTime(*at), i as u32);
    }
    while q.pop().is_some() {}
    t.elapsed().as_nanos() as f64 / instants.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replays_do_work() {
        assert!(cbcast_receive_ns(4) > 0.0);
        assert!(abcast_order_ns(5) > 0.0);
        assert!(calendar_ns(&[5, 3, 9, 9, 1]) > 0.0);
        assert_eq!(calendar_ns(&[]), 0.0);
    }
}
