//! `paced-multicast` and `saturated-multicast`: one 4-member group on two site threads.
//!
//! Two sites host two members each, so every multicast crosses the wire once (to the other
//! site) and is delivered twice locally.  The machine this benchmark was sized on has two
//! cores; two site threads plus a sleeping load generator keep the threads from fighting
//! over cores, which would turn the latency figures into a measure of the scheduler.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration as StdDuration, Instant};

use vsync_core::{Address, Message, ProcessId, ProtocolKind, ReplyWanted, SiteStack, StackConfig};
use vsync_net::NetStats;
use vsync_proto::ProtoConfig;
use vsync_rt::{FaultPlan, IsisHarness, IsisRuntime, ThreadedRuntime};
use vsync_util::{DetRng, Duration, EntryId, GroupId, SiteId};

use crate::check::{check_multicasts, Deliv, Sent};
use crate::stats::{median, Metrics, Windowed, LATENCY_WINDOW_NS};
use crate::trace::{self, now_ns, put_layers, Kind, LayerInputs, ThreadReport, TracedThreaded};
use crate::Outcome;

const MCAST: EntryId = EntryId(60);
/// Key bit marking an echo; the low bits are the trigger's key.
const ECHO: u32 = 1 << 31;
/// Client multicasts per round.  Each block of 4 consecutive multicasts has one per
/// member; every fourth block is ABCAST (3 CBCAST : 1 ABCAST); every tenth CBCAST is a
/// trigger, and the 12 triggers of a round are echoed by members 0,1,2,3,0,1,...  None of
/// this depends on the seed, so every round has the same failed share.
const ROUND: u64 = 160;
/// Open-loop rate of `paced-multicast`, multicasts per second.
const PACED_RATE: f64 = 10_000.0;
/// Outstanding multicasts (not yet delivered at every member) in `saturated-multicast`.
const WINDOW: u64 = 64;
/// How long the closed-loop generator sleeps when its window is full.
const WINDOW_SLEEP: StdDuration = StdDuration::from_micros(50);
/// Fresh clusters per run, each measured for an equal share of the run.  Where the two
/// site threads and the generator land on the two cores differs from cluster to cluster
/// and moves the latency figures, so a run reports the median over its clusters (and
/// `setup_s` is the median of their set-up times).
const EPOCHS: usize = 5;
/// Cluster set-ups timed per run (the epochs' plus extra ones); `setup_s` is their median.
const SETUPS: usize = 11;
const MEMBERS: usize = 4;
/// Traced runs sample the stability backlog every this many multicasts.
const UNSTABLE_SAMPLE_EVERY: u64 = 4096;
/// Upper bound on multicasts (client and echo) per second, for sizing buffers.
const MAX_RATE: f64 = 100_000.0;
const NS: f64 = 1e9;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Load {
    Paced,
    Saturated,
}

/// One delivery as recorded by a member's handler.
#[derive(Clone, Copy)]
struct Rec {
    key: u32,
    fseq: u32,
    t: u64,
}

struct Shared {
    logs: Vec<Mutex<Vec<Rec>>>,
    /// Per member and protocol (CBCAST, ABCAST): the next stream position.
    fseq: Vec<[AtomicU32; 2]>,
    delivered: AtomicU64,
    traced: bool,
}

struct Cluster<R: IsisRuntime> {
    h: IsisHarness<R>,
    gid: GroupId,
    members: Vec<ProcessId>,
    sh: Arc<Shared>,
}

fn site_of(member: usize) -> SiteId {
    SiteId((member / 2) as u16)
}

fn stack_config() -> StackConfig {
    ThreadedRuntime::fast_local_config()
}

fn build<R: IsisRuntime>(rt: R, traced: bool) -> Cluster<R> {
    let mut h = IsisHarness::new(rt);
    let gid = h.allocate_group_id();
    let sh = Arc::new(Shared {
        logs: (0..MEMBERS).map(|_| Mutex::new(Vec::new())).collect(),
        fseq: (0..MEMBERS)
            .map(|_| [AtomicU32::new(0), AtomicU32::new(0)])
            .collect(),
        delivered: AtomicU64::new(0),
        traced,
    });
    let members: Vec<ProcessId> = (0..MEMBERS)
        .map(|i| {
            let sh = sh.clone();
            h.spawn(site_of(i), move |b| {
                b.on_entry(MCAST, move |ctx, msg| {
                    let body = |ctx: &mut vsync_core::ToolCtx<'_>| {
                        let t = now_ns();
                        let key = msg.get_u64("k").unwrap_or(u64::MAX) as u32;
                        let fseq = msg.get_u64("f").unwrap_or(u64::MAX) as u32;
                        sh.logs[i]
                            .lock()
                            .expect("log lock")
                            .push(Rec { key, fseq, t });
                        if msg.get_u64("e") == Some(i as u64) {
                            let f = sh.fseq[i][0].fetch_add(1, Relaxed);
                            let echo = Message::new()
                                .with("k", u64::from(key | ECHO))
                                .with("f", u64::from(f));
                            ctx.send(Address::Group(gid), MCAST, echo, ProtocolKind::Cbcast);
                        }
                        sh.delivered.fetch_add(1, Relaxed);
                    };
                    if sh.traced {
                        trace::span(Kind::Entry, || body(ctx));
                    } else {
                        body(ctx);
                    }
                });
            })
        })
        .collect();
    h.create_group_with_id("bench", gid, members[0]);
    for m in &members[1..] {
        h.join_and_wait(gid, *m, None, Duration::from_secs(20))
            .expect("member join");
    }
    let full = h.wait_until(Duration::from_secs(20), |h| {
        (0..2u16).all(|s| {
            h.view_of(SiteId(s), gid)
                .map(|v| v.len() == MEMBERS)
                .unwrap_or(false)
        })
    });
    assert!(full, "the 4-member view never installed at both sites");
    Cluster {
        h,
        gid,
        members,
        sh,
    }
}

fn stock(seed: u64) -> ThreadedRuntime {
    ThreadedRuntime::new(
        2,
        stack_config(),
        ProtoConfig::fast(),
        FaultPlan::none(),
        seed,
    )
}

/// The fixed shape of client multicast `i`: (sender, abcast, echoer if a trigger).
fn shape(i: u64) -> (usize, bool, Option<usize>) {
    let j = i % ROUND;
    let block = j / 4;
    let sender = (j % 4) as usize;
    if block % 4 == 3 {
        return (sender, true, None);
    }
    let cb_index = (block - block / 4) * 4 + j % 4;
    let echoer = cb_index
        .is_multiple_of(10)
        .then_some(((cb_index / 10) % 4) as usize);
    (sender, false, echoer)
}

/// What the generator issued.
struct Issued {
    sent: Vec<Sent>,
    /// Instant (ns) each client multicast was handed to its sender's site.
    sent_at: Vec<u64>,
    triggers: u64,
    start: u64,
    /// When the generator stopped issuing.
    stop: u64,
    /// Summed lateness of sends behind their due instants.
    late_ns: u64,
    /// Stability backlog at site 0, sampled during traced runs.
    unstable: Vec<f64>,
}

fn send<R: IsisRuntime>(c: &mut Cluster<R>, i: u64, sent_at: u64, pad: usize, is: &mut Issued) {
    let (sender, abcast, echoer) = shape(i);
    let member = c.members[sender];
    let gid = c.gid;
    let sh = c.sh.clone();
    let payload = vec![(i & 0xff) as u8; pad];
    c.h.rt.with_stack_job(
        site_of(sender),
        Box::new(move |stack: &mut SiteStack, _now, out| {
            let f = sh.fseq[sender][abcast as usize].fetch_add(1, Relaxed);
            let mut m = Message::new()
                .with("k", i)
                .with("f", u64::from(f))
                .with("p", payload);
            if let Some(e) = echoer {
                m.set("e", e as u64);
            }
            let proto = if abcast {
                ProtocolKind::Abcast
            } else {
                ProtocolKind::Cbcast
            };
            stack.issue_call(
                member,
                vec![Address::Group(gid)],
                MCAST,
                m,
                proto,
                ReplyWanted::None,
                None,
                out,
            );
        }),
    );
    is.sent.push(Sent {
        key: i,
        cause: None,
    });
    is.sent_at.push(sent_at);
    if echoer.is_some() {
        is.triggers += 1;
        is.sent.push(Sent {
            key: u64::from(i as u32 | ECHO),
            cause: Some(i),
        });
    }
}

/// Seeded payload sizes: 16 B to 1 KiB, log-uniform-ish.
fn pad_size(rng: &mut DetRng) -> usize {
    16usize << rng.next_below(7)
}

/// Asks the kernel to wake the calling thread's sleeps within 1 µs of their deadline
/// instead of the default 50 µs slack, so the paced generator sends close to when each
/// multicast is due.  Affects only the calling thread.
#[cfg(target_os = "linux")]
fn tighten_timer_slack() {
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument (the slack in ns) and
    // touches no memory of ours; a failure only leaves the default slack in place.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
}

#[cfg(not(target_os = "linux"))]
fn tighten_timer_slack() {}

/// Runs whole rounds for `seconds`, then waits until every multicast is delivered.
fn generate<R: IsisRuntime>(c: &mut Cluster<R>, load: Load, seed: u64, seconds: f64) -> Issued {
    tighten_timer_slack();
    let mut rng = DetRng::new(seed ^ 0x5EED);
    let start = now_ns();
    let end = start + (seconds * NS) as u64;
    let interval = NS / PACED_RATE;
    // Every buffer the run appends to is sized up front: growing a multi-megabyte vector
    // mid-run stalls the thread that grows it for a millisecond, which would show up as
    // latency.
    let expect = (seconds * MAX_RATE) as usize;
    for log in &c.sh.logs {
        let mut log = log.lock().expect("log lock");
        // Touch the memory too, so first-touch page faults land here and not in a handler.
        let have = log.len();
        log.resize(
            have + expect,
            Rec {
                key: 0,
                fseq: 0,
                t: 0,
            },
        );
        log.truncate(have);
    }
    let mut is = Issued {
        sent: Vec::with_capacity(expect),
        sent_at: Vec::with_capacity(expect),
        triggers: 0,
        start,
        stop: start,
        late_ns: 0,
        unstable: Vec::new(),
    };
    let mut i = 0u64;
    loop {
        if i.is_multiple_of(ROUND) && now_ns() >= end {
            break;
        }
        let due = match load {
            Load::Paced => {
                let due = start + (i as f64 * interval) as u64;
                let now = now_ns();
                if due > now {
                    std::thread::sleep(StdDuration::from_nanos(due - now));
                }
                due
            }
            Load::Saturated => {
                while MEMBERS as u64 * (i + is.triggers) - c.sh.delivered.load(Relaxed)
                    >= MEMBERS as u64 * WINDOW
                {
                    std::thread::sleep(WINDOW_SLEEP);
                }
                now_ns()
            }
        };
        if c.sh.traced && i.is_multiple_of(UNSTABLE_SAMPLE_EVERY) {
            let n = c.h.unstable_count(SiteId(0), c.gid);
            is.unstable.push(n as f64);
        }
        let sent_at = now_ns();
        is.late_ns += sent_at - due;
        send(c, i, sent_at, pad_size(&mut rng), &mut is);
        i += 1;
    }
    is.stop = now_ns();
    eprintln!(
        "generator ran {:.1} us late on average over {i} multicasts",
        is.late_ns as f64 / i.max(1) as f64 / 1e3
    );
    let want = MEMBERS as u64 * is.sent.len() as u64;
    let deadline = Instant::now() + StdDuration::from_secs(30);
    while c.sh.delivered.load(Relaxed) < want && Instant::now() < deadline {
        std::thread::sleep(StdDuration::from_millis(1));
    }
    is
}

/// Whether member `m` precedes a co-located member in its site's local delivery order.
fn first_local(members: &[ProcessId], m: usize) -> bool {
    members
        .iter()
        .any(|o| o.site == members[m].site && o.local > members[m].local)
}

/// Checks the logs; returns (correct, attempted, failed).
fn verify(members: &[ProcessId], is: &Issued, logs: &[Vec<Rec>]) -> (bool, u64, u64) {
    // The stream (sender, protocol) a key belongs to, from the fixed round shape; keys
    // that were never sent are left for the checker to report as unknown.
    let stream = |key: u32| -> (u8, bool) {
        let (sender, abcast, echoer) = shape(u64::from(key & !ECHO));
        if key & ECHO != 0 {
            (echoer.map_or(u8::MAX, |e| e as u8), false)
        } else {
            (sender as u8, abcast)
        }
    };
    let dlogs: Vec<Vec<Deliv>> = logs
        .iter()
        .map(|log| {
            log.iter()
                .map(|r| {
                    let (sender, abcast) = stream(r.key);
                    Deliv {
                        key: u64::from(r.key),
                        sender,
                        abcast,
                        fseq: r.fseq,
                    }
                })
                .collect()
        })
        .collect();
    let v = check_multicasts(&is.sent, &dlogs);
    // The one known fault: an echo whose echoer precedes a co-located member reaches that
    // member ahead of its trigger (core::stack::deliver_group_message runs the echoer's
    // handler actions before delivering the trigger to the next local recipient).
    let unexpected: Vec<u64> = v
        .failed
        .iter()
        .copied()
        .filter(|k| {
            let echoer = (*k as u32 & ECHO != 0)
                .then(|| shape(u64::from(*k as u32 & !ECHO)).2)
                .flatten();
            !matches!(echoer, Some(e) if first_local(members, e))
        })
        .collect();
    if !unexpected.is_empty() || v.unknown > 0 {
        eprintln!(
            "check failed: {} unexpected failed multicasts (first {:?}), {} unknown deliveries",
            unexpected.len(),
            unexpected.first(),
            v.unknown
        );
    }
    let correct = unexpected.is_empty() && v.unknown == 0;
    (correct, is.sent.len() as u64, v.failed.len() as u64)
}

fn take_logs(sh: &Shared) -> Vec<Vec<Rec>> {
    sh.logs
        .iter()
        .map(|l| std::mem::take(&mut *l.lock().expect("log lock")))
        .collect()
}

/// End-to-end metrics of one measured run.
fn end_to_end(is: &Issued, logs: &[Vec<Rec>], m: &mut Metrics) {
    let n = is.sent_at.len();
    // Per client multicast: when the last member delivered it, and how many did.
    let mut done = vec![0u64; n];
    let mut seen = vec![0usize; n];
    let mut rate = Windowed::default();
    let mut last = is.start;
    for log in logs {
        for r in log {
            last = last.max(r.t);
            if r.t < is.stop {
                rate.push(((r.t - is.start) as f64 / NS) as usize, r.t as f64);
            }
            let k = r.key as usize;
            if r.key & ECHO == 0 && k < n {
                done[k] = done[k].max(r.t);
                seen[k] += 1;
            }
        }
    }
    let mut lat = [Windowed::default(), Windowed::default()];
    for k in (0..n).filter(|k| seen[*k] == MEMBERS) {
        let sent = is.sent_at[k];
        let w = ((sent - is.start) as f64 / LATENCY_WINDOW_NS) as usize;
        lat[shape(k as u64).1 as usize].push(w, (done[k] - sent) as f64 / 1e3);
    }
    let [mut cb, mut ab] = lat;
    m.put("deliveries_per_s", rate.median_rate(), "1/s");
    m.put(
        "ops_per_s",
        is.sent.len() as f64 / ((last - is.start) as f64 / NS),
        "1/s",
    );
    m.put("cbcast_p50_us", cb.median_of(0.5, 100), "us");
    m.put("cbcast_p75_us", cb.median_of(0.75, 100), "us");
    m.put("abcast_p50_us", ab.median_of(0.5, 100), "us");
    m.put("abcast_p75_us", ab.median_of(0.75, 100), "us");
}

pub fn run(load: Load, seed: u64, seconds: u64, traced: bool) -> Outcome {
    if traced {
        return traced_run(load, seed, seconds);
    }
    // Extra set-ups beyond the measured clusters, so the set-up median rests on more
    // samples than there are epochs.
    let mut setups: Vec<f64> = (0..SETUPS - EPOCHS)
        .map(|k| {
            let t = Instant::now();
            let c = build(
                stock(seed.wrapping_add(1 << 32).wrapping_add(k as u64)),
                false,
            );
            let dt = t.elapsed().as_secs_f64();
            c.h.rt.shutdown();
            dt
        })
        .collect();
    let mut epochs = Vec::new();
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    for e in 0..EPOCHS as u64 {
        let s = seed.wrapping_mul(EPOCHS as u64).wrapping_add(e);
        let t = Instant::now();
        let mut c = build(stock(s), false);
        setups.push(t.elapsed().as_secs_f64());
        let is = generate(&mut c, load, s, seconds as f64 / EPOCHS as f64);
        let logs = take_logs(&c.sh);
        let members = c.members.clone();
        c.h.rt.shutdown();
        let (ok, att, fail) = verify(&members, &is, &logs);
        correct &= ok;
        attempted += att;
        failed += fail;
        let mut m = Metrics::default();
        end_to_end(&is, &logs, &mut m);
        eprintln!(
            "cluster {e}: {}",
            m.0.iter()
                .map(|x| format!("{} {:.1}", x.name, x.value))
                .collect::<Vec<_>>()
                .join(", ")
        );
        epochs.push(m);
    }
    let mut m = Metrics::default();
    m.put("setup_s", median(&mut setups), "s");
    m.0.extend(Metrics::median_each(&epochs).0);
    Outcome {
        correct,
        attempted,
        failed,
        metrics: m,
    }
}

// ---------------------------------------------------------------------------------------
// Traced run
// ---------------------------------------------------------------------------------------

fn on_sites<R: IsisRuntime, T: Send + 'static>(
    c: &mut Cluster<R>,
    f: impl Fn() -> T + Send + Clone + 'static,
) -> Vec<T> {
    (0..2u16)
        .map(|s| {
            let f = f.clone();
            c.h.query(SiteId(s), move |_stack, _now, _out| f())
                .expect("site answers")
        })
        .collect()
}

fn cluster_stats<R: IsisRuntime>(c: &mut Cluster<R>) -> NetStats {
    let mut total = NetStats::new();
    for s in 0..2u16 {
        if let Some(snap) = c.h.query(SiteId(s), |stack, _, _| stack.stats().snapshot()) {
            total.merge(&snap);
        }
    }
    total
}

/// Node-thread CPU ns per delivery over one generator run.
fn cpu_per_delivery<R: IsisRuntime>(
    c: &mut Cluster<R>,
    load: Load,
    seed: u64,
    secs: f64,
) -> (f64, Issued, Vec<Vec<Rec>>) {
    let before: u64 = on_sites(c, trace::thread_cpu_ns).iter().sum();
    let d0 = c.sh.delivered.load(Relaxed);
    let is = generate(c, load, seed, secs);
    let after: u64 = on_sites(c, trace::thread_cpu_ns).iter().sum();
    let d = c.sh.delivered.load(Relaxed) - d0;
    (
        (after - before) as f64 / d.max(1) as f64,
        is,
        take_logs(&c.sh),
    )
}

fn traced_run(load: Load, seed: u64, seconds: u64) -> Outcome {
    let half = seconds as f64 / 2.0;
    let mut c = build(stock(seed), false);
    let (stock_cpu, is_a, logs_a) = cpu_per_delivery(&mut c, load, seed, half);
    let members_a = c.members.clone();
    c.h.rt.shutdown();
    let (ok_a, att_a, fail_a) = verify(&members_a, &is_a, &logs_a);

    let mut c = build(
        TracedThreaded::new(2, stack_config(), ProtoConfig::fast(), seed),
        true,
    );
    let stats0 = cluster_stats(&mut c);
    let t0 = now_ns();
    on_sites(&mut c, trace::begin);
    let d0 = c.sh.delivered.load(Relaxed);
    let mut is = generate(&mut c, load, seed, half);
    let deliveries = c.sh.delivered.load(Relaxed) - d0;
    let reports = on_sites(&mut c, trace::end);
    let wall_ns = now_ns() - t0;
    let replays = on_sites(&mut c, trace::replay_captured);
    let stats = cluster_stats(&mut c).delta_since(&stats0);
    let logs = take_logs(&c.sh);
    let members = c.members.clone();
    c.h.rt.shutdown();
    let (ok_b, att_b, fail_b) = verify(&members, &is, &logs);

    let mut report = ThreadReport::default();
    for rep in reports {
        report.merge(rep);
    }
    let n = replays.len() as f64;
    let replay = replays.iter().fold((0.0, 0.0, 0.0), |a, r| {
        (a.0 + r.0 / n, a.1 + r.1 / n, a.2 + r.2 / n)
    });
    let mut m = Metrics::default();
    put_layers(
        &mut m,
        &LayerInputs {
            report,
            stats,
            calendar_events: 0,
            deliveries,
            ops: is.sent.len() as u64,
            wall_ns,
            threads: 2,
            replay,
            stock_cpu_per_delivery: stock_cpu,
            width: MEMBERS,
            sites: 2,
        },
    );
    m.put("proto.unstable_msgs", median(&mut is.unstable), "count");
    m.put("proto.view_changes_per_op", 0.0, "count");
    m.put("tools.transfer_bytes_per_join", 0.0, "bytes");
    m.put("tools.transfer_blocks_per_join", 0.0, "count");
    for v in [
        "virt.cbcast_rpc_hops",
        "virt.abcast_rpc_hops",
        "virt.join_hops",
        "virt.leave_hops",
        "virt.failover_hops",
    ] {
        m.put(v, 0.0, "hops");
    }

    Outcome {
        correct: ok_a && ok_b,
        attempted: att_a + att_b,
        failed: fail_a + fail_b,
        metrics: m,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_shape_is_fixed() {
        let shapes: Vec<_> = (0..ROUND).map(shape).collect();
        assert_eq!(shapes.iter().filter(|s| s.1).count(), 40);
        let echoers: Vec<usize> = shapes.iter().filter_map(|s| s.2).collect();
        assert_eq!(echoers.len(), 12);
        for m in 0..4 {
            assert_eq!(echoers.iter().filter(|e| **e == m).count(), 3);
        }
        assert!((0..ROUND).all(|i| shape(i) == shape(i + 7 * ROUND)));
    }

    #[test]
    fn short_runs_pass_their_checks_apart_from_the_known_fault() {
        for load in [Load::Paced, Load::Saturated] {
            let mut c = build(stock(1), false);
            let is = generate(&mut c, load, 1, 0.05);
            let logs = take_logs(&c.sh);
            let members = c.members.clone();
            c.h.rt.shutdown();
            let (correct, attempted, failed) = verify(&members, &is, &logs);
            assert!(correct);
            assert_eq!(attempted % (ROUND + 12), 0, "whole rounds only");
            let rounds = attempted / (ROUND + 12);
            assert_eq!(failed, rounds * 6, "exactly the known-fault echoes fail");
        }
    }
}
