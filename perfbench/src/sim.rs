//! `sim-replicated-service` and `sim-membership-churn`: the deterministic simulator.
//!
//! The simulator is single-threaded, so wall-clock time here is protocol CPU: the stack,
//! reply collection, the ordering state machines, the calendar queue and the network model,
//! with no codec, wire or channel work.  Virtual-time latencies come from the members' own
//! upcalls (`ToolCtx::now`), so they move only when protocol rounds change.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use vsync_core::process::ReplyCallback;
use vsync_core::{
    Address, Message, ProcessId, ProtocolKind, ReplyWanted, RpcOutcome, SiteStack, StackConfig,
    ToolCtx,
};
use vsync_net::NetStats;
use vsync_proto::ProtoConfig;
use vsync_rt::{IsisHarness, IsisRuntime, SimRuntime};
use vsync_tools::StateTransfer;
use vsync_util::{DetRng, Duration, EntryId, GroupId, NetParams, SimTime, SiteId};

use crate::check::{
    check_multicasts, check_query, check_replicas, check_views, expected_reply, Deliv, Replica,
    Reply, Sent, ViewLog,
};
use crate::stats::{interquartile_mean, median, Metrics, Windowed, LATENCY_WINDOW_NS};
use crate::trace::{self, now_ns, put_layers, Kind, LayerInputs, TracedSim};
use crate::Outcome;

const UPDATE: EntryId = EntryId(61);
const QUERY: EntryId = EntryId(62);
/// Set-ups timed before a churn run; `setup_s` is the median of these and of one more after
/// every `SETUP_EVERY` cycles.  A simulated set-up takes well under a millisecond, so it
/// takes many, spread over the run, to steady the median.
const SETUPS: usize = 11;
const SETUP_EVERY: u64 = 256;
/// Set-ups timed per `sim-replicated-service` epoch (the last one is the epoch's cluster).
const SETUPS_PER_EPOCH: usize = 4;

/// What the simulator workloads need from either simulated runtime.
pub trait Sim: IsisRuntime {
    fn net_stats(&self) -> NetStats;
    fn events(&self) -> u64;
}

impl Sim for SimRuntime {
    fn net_stats(&self) -> NetStats {
        self.stats()
    }
    fn events(&self) -> u64 {
        self.cluster().events_processed()
    }
}

impl Sim for TracedSim {
    fn net_stats(&self) -> NetStats {
        self.cluster.stats().snapshot()
    }
    fn events(&self) -> u64 {
        self.cluster.events_processed()
    }
}

fn params() -> NetParams {
    NetParams::modern()
}

fn stock(sites: usize, seed: u64) -> SimRuntime {
    let p = params();
    SimRuntime::new(
        sites,
        p,
        StackConfig::from_params(&p),
        ProtoConfig::fast(),
        seed,
    )
}

fn traced(sites: usize, seed: u64) -> TracedSim {
    let p = params();
    TracedSim::new(
        sites,
        p,
        StackConfig::from_params(&p),
        ProtoConfig::fast(),
        seed,
    )
}

/// Wall-clock latency of one run's multicasts: from issue to delivery at the last member.
#[derive(Default)]
struct WallLatency {
    start: u64,
    /// Issue instant (ns) and protocol, by the index the multicast carries in `i`.
    issued: Vec<(u64, bool)>,
    /// Latest delivery instant (ns) so far, by the same index.
    done: Vec<u64>,
}

impl WallLatency {
    fn started() -> Self {
        WallLatency {
            start: now_ns(),
            ..Default::default()
        }
    }

    /// Registers a multicast about to be issued; returns the index it must carry.
    fn issue(&mut self, abcast: bool) -> u64 {
        self.issued.push((now_ns(), abcast));
        self.done.push(0);
        (self.issued.len() - 1) as u64
    }

    fn delivered(&mut self, msg: &Message) {
        let i = msg.get_u64("i").unwrap_or(u64::MAX) as usize;
        if let Some(d) = self.done.get_mut(i) {
            *d = (*d).max(now_ns());
        }
    }

    fn put(&self, m: &mut Metrics, deliveries_per_s: f64, ops_per_s: f64) {
        let mut lat = [Windowed::default(), Windowed::default()];
        for ((t0, abcast), t1) in self.issued.iter().zip(&self.done) {
            if *t1 > 0 {
                let w = ((t0 - self.start) as f64 / LATENCY_WINDOW_NS) as usize;
                lat[*abcast as usize].push(w, (t1 - t0) as f64 / 1e3);
            }
        }
        let [mut cb, mut ab] = lat;
        m.put("deliveries_per_s", deliveries_per_s, "1/s");
        m.put("ops_per_s", ops_per_s, "1/s");
        m.put("cbcast_p50_us", cb.median_of(0.5, 100), "us");
        m.put("cbcast_p75_us", cb.median_of(0.75, 100), "us");
        m.put("abcast_p50_us", ab.median_of(0.5, 100), "us");
        m.put("abcast_p75_us", ab.median_of(0.75, 100), "us");
    }
}

/// A virtual latency in one-way inter-site link delays (hops): the interquartile mean of
/// µs samples over the modelled link delay.  Virtual time is deterministic, so this moves
/// only when the protocol's rounds change.
fn hops_us(samples: &mut [f64]) -> f64 {
    interquartile_mean(samples) / params().inter_site_delay.as_micros() as f64
}

fn ms_to_us(ms: &[f64]) -> Vec<f64> {
    ms.iter().map(|v| v * 1e3).collect()
}

/// Builds `n` clusters, keeping the last; returns every build time and that cluster.
fn timed_setups<T>(mut build: impl FnMut(u64) -> T, seed: u64, n: usize) -> (Vec<f64>, T) {
    let mut times = Vec::new();
    let mut kept = None;
    for k in 0..n {
        let t = Instant::now();
        let c = build(seed.wrapping_add(k as u64));
        times.push(t.elapsed().as_secs_f64());
        // The previous cluster is dropped here, outside the timed build.
        kept = Some(c);
    }
    (times, kept.expect("at least one set-up"))
}

// =======================================================================================
// sim-replicated-service
// =======================================================================================

const SVC_SITES: usize = 5;
const SVC_GROUPS: usize = 4;
/// Virtual time between update rounds; each round sends one ABCAST update per group.
const UPDATE_STEP_US: u64 = 100;
/// Update rounds per epoch: 400 ms of virtual time.  Every epoch is a fresh cluster doing
/// this same work, and a run reports the median over its epochs.  The stack slows down
/// the longer a cluster runs (see the README), so a continuous run's rate would depend on
/// how far into that slow-down a faster or slower host got.
const UPDATE_ROUNDS: u64 = 4_000;
/// Key bit marking a query (the low bits are the query id); updates use plain ids.
const QBIT: u64 = 1 << 40;

/// Everything the service's handlers and the generator record, for the checks.
#[derive(Default)]
struct SvcState {
    replicas: Vec<Vec<Replica>>,
    /// Per group: every multicast issued (updates and query requests) and each member's
    /// delivery log.
    sent: Vec<Vec<Sent>>,
    logs: Vec<Vec<Vec<Deliv>>>,
    /// Per group and protocol (CBCAST, ABCAST): next stream position.
    fseq: Vec<[u32; 2]>,
    wall: WallLatency,
    update_sum: Vec<u64>,
    update_count: Vec<u64>,
    next_query: u64,
    queries: u64,
    failed_queries: u64,
    in_flight: usize,
    stop: bool,
    /// Stability backlog of group 0 at site 0, sampled during the run.
    unstable: Vec<f64>,
    /// Virtual query latencies in µs (CBCAST reads, ABCAST reads).
    rpc_virtual: [Vec<f64>; 2],
    deliveries: u64,
}

type Svc = Arc<Mutex<SvcState>>;

struct SvcCluster<R: Sim> {
    h: IsisHarness<R>,
    gids: Vec<GroupId>,
    members: Vec<Vec<ProcessId>>,
    client: ProcessId,
    st: Svc,
}

fn lock(st: &Svc) -> std::sync::MutexGuard<'_, SvcState> {
    st.lock().expect("service state lock")
}

fn svc_build<R: Sim>(rt: R, traced: bool) -> SvcCluster<R> {
    let mut h = IsisHarness::new(rt);
    let st: Svc = Arc::new(Mutex::new(SvcState {
        replicas: vec![vec![Replica::default(); SVC_SITES]; SVC_GROUPS],
        sent: vec![Vec::new(); SVC_GROUPS],
        logs: vec![vec![Vec::new(); SVC_SITES]; SVC_GROUPS],
        fseq: vec![[0; 2]; SVC_GROUPS],
        update_sum: vec![0; SVC_GROUPS],
        update_count: vec![0; SVC_GROUPS],
        ..Default::default()
    }));
    let mut gids = Vec::new();
    let mut members = Vec::new();
    for g in 0..SVC_GROUPS {
        let gid = h.allocate_group_id();
        let ms: Vec<ProcessId> = (0..SVC_SITES)
            .map(|s| {
                let st = st.clone();
                h.spawn(SiteId(s as u16), move |b| {
                    let st2 = st.clone();
                    b.on_entry(UPDATE, move |_ctx, msg| {
                        let body = || {
                            let mut x = lock(&st2);
                            let id = msg.get_u64("u").unwrap_or(u64::MAX);
                            x.replicas[g][s].apply(id, msg.get_u64("v").unwrap_or(0));
                            svc_record(&mut x, g, s, id, msg, true);
                        };
                        if traced {
                            trace::span(Kind::Entry, body)
                        } else {
                            body()
                        }
                    });
                    b.on_entry(QUERY, move |ctx, msg| {
                        let body = |ctx: &mut ToolCtx<'_>| {
                            let q = msg.get_u64("q").unwrap_or(u64::MAX);
                            let state = {
                                let mut x = lock(&st);
                                let ordered = msg.get_u64("a") == Some(1);
                                svc_record(&mut x, g, s, q | QBIT, msg, ordered);
                                x.replicas[g][s]
                            };
                            let reply = Message::new()
                                .with("r", expected_reply(q, ctx.me()))
                                .with("d", state.digest)
                                .with("s", state.sum)
                                .with("n", state.applied);
                            ctx.reply(msg, reply);
                        };
                        if traced {
                            trace::span(Kind::Entry, || body(ctx))
                        } else {
                            body(ctx)
                        }
                    });
                })
            })
            .collect();
        h.create_group_with_id(&format!("svc-{g}"), gid, ms[0]);
        for m in &ms[1..] {
            h.join_and_wait(gid, *m, None, Duration::from_secs(10))
                .expect("service join");
        }
        gids.push(gid);
        members.push(ms);
    }
    let client = h.spawn(SiteId(0), |_| {});
    SvcCluster {
        h,
        gids,
        members,
        client,
        st,
    }
}

fn svc_record(x: &mut SvcState, g: usize, s: usize, key: u64, msg: &Message, abcast: bool) {
    let fseq = msg.get_u64("f").unwrap_or(u64::MAX) as u32;
    x.logs[g][s].push(Deliv {
        key,
        sender: 0,
        abcast,
        fseq,
    });
    x.deliveries += 1;
    x.wall.delivered(msg);
}

/// Registers a multicast about to be issued; returns its stream position and latency index.
fn svc_issue(x: &mut SvcState, g: usize, key: u64, abcast: bool) -> (u32, u64) {
    let f = x.fseq[g][abcast as usize];
    x.fseq[g][abcast as usize] += 1;
    x.sent[g].push(Sent { key, cause: None });
    (f, x.wall.issue(abcast))
}

/// Prepares the next query of group `g`'s closed loop: the request and the continuation
/// that checks the replies and issues the query after it.
fn next_query(
    st: &Svc,
    g: usize,
    gid: GroupId,
    members: Vec<ProcessId>,
    now: SimTime,
) -> (Message, ProtocolKind, ReplyCallback) {
    let (q, ordered, (f, i)) = {
        let mut x = lock(st);
        let q = x.next_query;
        x.next_query += 1;
        x.in_flight += 1;
        let ordered = x.queries % 2 == 1;
        x.queries += 1;
        let f = svc_issue(&mut x, g, q | QBIT, ordered);
        (q, ordered, f)
    };
    let msg = Message::new()
        .with("q", q)
        .with("f", u64::from(f))
        .with("i", i)
        .with("a", u64::from(ordered));
    let proto = if ordered {
        ProtocolKind::Abcast
    } else {
        ProtocolKind::Cbcast
    };
    let st = st.clone();
    let done = move |ctx: &mut ToolCtx<'_>, outcome: RpcOutcome| {
        let replies: Vec<Reply> = outcome
            .replies
            .iter()
            .zip(&outcome.responders)
            .map(|(r, p)| Reply {
                member: *p,
                value: r.get_u64("r").unwrap_or(0),
                state: Replica {
                    digest: r.get_u64("d").unwrap_or(0),
                    sum: r.get_u64("s").unwrap_or(0),
                    applied: r.get_u64("n").unwrap_or(0),
                },
            })
            .collect();
        let ok = outcome.error.is_none() && check_query(q, &members, &replies, ordered);
        let stop = {
            let mut x = lock(&st);
            x.in_flight -= 1;
            if !ok {
                x.failed_queries += 1;
            }
            x.rpc_virtual[ordered as usize].push((ctx.now().0 - now.0) as f64);
            x.stop
        };
        if !stop {
            let (msg, proto, cont) = next_query(&st, g, gid, members, ctx.now());
            ctx.call(
                vec![Address::Group(gid)],
                QUERY,
                msg,
                proto,
                ReplyWanted::All,
                cont,
            );
        }
    };
    (msg, proto, Box::new(done))
}

/// Starts one closed query loop per group from the client.
fn start_queries<R: Sim>(c: &mut SvcCluster<R>) {
    for g in 0..SVC_GROUPS {
        let (gid, members, st, client) = (c.gids[g], c.members[g].clone(), c.st.clone(), c.client);
        c.h.rt.with_stack_job(
            client.site,
            Box::new(move |stack: &mut SiteStack, now, out| {
                let (msg, proto, cont) = next_query(&st, g, gid, members, now);
                stack.issue_call(
                    client,
                    vec![Address::Group(gid)],
                    QUERY,
                    msg,
                    proto,
                    ReplyWanted::All,
                    Some(cont),
                    out,
                );
            }),
        );
    }
}

/// Sends `UPDATE_ROUNDS` update rounds at the fixed virtual rate, with the query loops
/// running alongside; then stops the loops and lets everything land.  Returns the wall
/// seconds it took.
fn svc_generate<R: Sim>(c: &mut SvcCluster<R>, seed: u64) -> f64 {
    let mut rng = DetRng::new(seed ^ 0x5E7C);
    let start = Instant::now();
    lock(&c.st).wall = WallLatency::started();
    start_queries(c);
    let mut id = 0u64;
    for round in 0..UPDATE_ROUNDS {
        for g in 0..SVC_GROUPS {
            let value = rng.next_below(1 << 32);
            let pad = vec![0u8; 16usize << rng.next_below(7)];
            let (f, i) = {
                let mut x = lock(&c.st);
                x.update_sum[g] = x.update_sum[g].wrapping_add(value);
                x.update_count[g] += 1;
                svc_issue(&mut x, g, id, true)
            };
            let msg = Message::new()
                .with("u", id)
                .with("v", value)
                .with("f", u64::from(f))
                .with("i", i)
                .with("p", pad);
            c.h.client_send(c.client, c.gids[g], UPDATE, msg, ProtocolKind::Abcast);
            id += 1;
        }
        c.h.settle(Duration::from_micros(UPDATE_STEP_US));
        if round % 512 == 0 {
            let n = c.h.unstable_count(SiteId(0), c.gids[0]) as f64;
            lock(&c.st).unstable.push(n);
        }
    }
    lock(&c.st).stop = true;
    let st = c.st.clone();
    c.h.wait_until(Duration::from_secs(5), move |_| lock(&st).in_flight == 0);
    // Let the last updates reach every member.
    c.h.settle(Duration::from_millis(20));
    start.elapsed().as_secs_f64()
}

/// Checks every group; returns (correct, attempted, failed).
fn svc_verify(x: &SvcState) -> (bool, u64, u64) {
    let mut correct = x.in_flight == 0;
    let mut failed = x.failed_queries;
    for g in 0..SVC_GROUPS {
        let v = check_multicasts(&x.sent[g], &x.logs[g]);
        failed += v.failed.len() as u64;
        if v.unknown > 0 || !v.failed.is_empty() {
            eprintln!(
                "group {g}: {} failed multicasts, {} unknown deliveries",
                v.failed.len(),
                v.unknown
            );
            correct = false;
        }
        if let Err(e) = check_replicas(&x.replicas[g], x.update_sum[g], x.update_count[g]) {
            eprintln!("group {g}: {e}");
            correct = false;
        }
    }
    if x.failed_queries > 0 {
        eprintln!("{} queries failed their reply checks", x.failed_queries);
        correct = false;
    }
    let updates: u64 = x.update_count.iter().sum();
    (correct, updates + x.queries, failed)
}

/// What a run of service epochs adds up to.
#[derive(Default)]
struct SvcTotals {
    correct: bool,
    attempted: u64,
    failed: u64,
    deliveries: u64,
    epochs: Vec<Metrics>,
    /// Set-up times, several per epoch, so they sample the host across the whole run.
    setups: Vec<f64>,
    stats: NetStats,
    events: u64,
    unstable: Vec<f64>,
    rpc_virtual: [Vec<f64>; 2],
}

/// Runs fresh-cluster epochs until `seconds` of wall time are spent (at least one).
fn svc_epochs<R: Sim>(make: impl Fn(u64) -> R, traced: bool, seed: u64, seconds: f64) -> SvcTotals {
    let start = Instant::now();
    let mut t = SvcTotals {
        correct: true,
        ..Default::default()
    };
    let mut e = 0u64;
    while e == 0 || start.elapsed().as_secs_f64() < seconds {
        let s = seed.wrapping_mul(1000).wrapping_add(e);
        let (setups, mut c) = timed_setups(|k| svc_build(make(k), traced), s, SETUPS_PER_EPOCH);
        t.setups.extend(setups);
        let (stats0, ev0) = (c.h.rt.net_stats(), c.h.rt.events());
        let elapsed = svc_generate(&mut c, s);
        t.stats.merge(&c.h.rt.net_stats().delta_since(&stats0));
        t.events += c.h.rt.events() - ev0;
        let mut x = lock(&c.st);
        let (ok, attempted, failed) = svc_verify(&x);
        t.correct &= ok;
        t.attempted += attempted;
        t.failed += failed;
        t.deliveries += x.deliveries;
        let mut m = Metrics::default();
        let rate = x.deliveries as f64 / elapsed;
        x.wall.put(&mut m, rate, attempted as f64 / elapsed);
        t.epochs.push(m);
        t.unstable.append(&mut x.unstable);
        for k in 0..2 {
            t.rpc_virtual[k].append(&mut x.rpc_virtual[k]);
        }
        e += 1;
    }
    t
}

pub fn run_service(seed: u64, seconds: u64, trace_on: bool) -> Outcome {
    let mut m = Metrics::default();
    if !trace_on {
        let mut t = svc_epochs(|s| stock(SVC_SITES, s), false, seed, seconds as f64);
        m.put("setup_s", median(&mut t.setups), "s");
        m.0.extend(Metrics::median_each(&t.epochs).0);
        return Outcome {
            correct: t.correct,
            attempted: t.attempted,
            failed: t.failed,
            metrics: m,
        };
    }
    let half = seconds as f64 / 2.0;
    // Untraced phase on the stock runtime: the CPU-per-delivery baseline.
    let cpu0 = trace::thread_cpu_ns();
    let a = svc_epochs(|s| stock(SVC_SITES, s), false, seed, half);
    let stock_cpu = (trace::thread_cpu_ns() - cpu0) as f64 / a.deliveries.max(1) as f64;
    // Traced phase.
    let t0 = now_ns();
    trace::begin();
    let mut b = svc_epochs(|s| traced(SVC_SITES, s), true, seed, half);
    let report = trace::end();
    let wall_ns = now_ns() - t0;
    let replay = trace::replay_captured();
    let l = LayerInputs {
        report,
        stats: b.stats,
        calendar_events: b.events,
        deliveries: b.deliveries,
        ops: b.attempted,
        wall_ns,
        threads: 1,
        replay,
        stock_cpu_per_delivery: stock_cpu,
        width: SVC_SITES,
        sites: SVC_SITES,
    };
    put_layers(&mut m, &l);
    m.put("proto.unstable_msgs", median(&mut b.unstable), "count");
    m.put("proto.view_changes_per_op", 0.0, "count");
    m.put("tools.transfer_bytes_per_join", 0.0, "bytes");
    m.put("tools.transfer_blocks_per_join", 0.0, "count");
    m.put(
        "virt.cbcast_rpc_hops",
        hops_us(&mut b.rpc_virtual[0]),
        "hops",
    );
    m.put(
        "virt.abcast_rpc_hops",
        hops_us(&mut b.rpc_virtual[1]),
        "hops",
    );
    for v in ["virt.join_hops", "virt.leave_hops", "virt.failover_hops"] {
        m.put(v, 0.0, "hops");
    }
    Outcome {
        correct: a.correct && b.correct,
        attempted: a.attempted + b.attempted,
        failed: a.failed + b.failed,
        metrics: m,
    }
}

// =======================================================================================
// sim-membership-churn
// =======================================================================================

const CHURN_SITES: usize = 4;
const COUNT: EntryId = EntryId(63);
/// Application state beyond the counter: 64 KiB, transferred in 16 KiB blocks.
const STATE_BYTES: usize = 64 * 1024;
const BLOCK_BYTES: usize = 16 * 1024;
/// Background updates per cycle (alternating CBCAST and ABCAST, from both permanent
/// members), plus two more sent right before the first join so it races unstable traffic.
const BACKGROUND: u64 = 8;
const RACING: u64 = 2;
const PERMANENT: [u16; 2] = [0, 1];
/// Virtual time a recovered site runs before the next cycle can crash it again.
const RECOVERED_RUN_MS: u64 = 300;

/// One member's state as its handlers see it.
#[derive(Default)]
struct MemberState {
    counter: u64,
    applied: u64,
    /// Virtual instant the transferred snapshot completed (joiners only).
    ready_at: Option<SimTime>,
    transfer_bytes: u64,
    transfer_blocks: u64,
    /// Views installed: (seq, members) and the virtual install instant.
    views: ViewLog,
    view_times: Vec<SimTime>,
}

type MemberCell = Arc<Mutex<MemberState>>;

fn mlock(m: &MemberCell) -> std::sync::MutexGuard<'_, MemberState> {
    m.lock().expect("member state lock")
}

struct ChurnCluster<R: Sim> {
    h: IsisHarness<R>,
    gid: GroupId,
    permanent: Vec<(ProcessId, MemberCell)>,
    /// Every process that joined during the measured run (for the view agreement check).
    visitors: Vec<MemberCell>,
    wall: Arc<Mutex<WallLatency>>,
    traced: bool,
    sum: u64,
    updates: u64,
    next_update: u64,
}

fn spawn_counter<R: Sim>(
    h: &mut IsisHarness<R>,
    site: SiteId,
    gid: GroupId,
    founder: bool,
    wall: Arc<Mutex<WallLatency>>,
    traced: bool,
) -> (ProcessId, MemberCell) {
    let cell: MemberCell = Arc::new(Mutex::new(MemberState::default()));
    let c = cell.clone();
    let pid = h.spawn(site, move |b| {
        let (c_enc, c_apply, c_upd, c_view) = (c.clone(), c.clone(), c.clone(), c.clone());
        let xfer = StateTransfer::new(
            gid,
            move || {
                let counter = mlock(&c_enc).counter;
                let mut blocks: Vec<Message> = (0..STATE_BYTES / BLOCK_BYTES)
                    .map(|i| Message::new().with("pad", vec![i as u8; BLOCK_BYTES]))
                    .collect();
                blocks.push(Message::new().with("counter", counter));
                blocks
            },
            move |ctx, block| {
                let mut s = mlock(&c_apply);
                s.transfer_blocks += 1;
                s.transfer_bytes += block.get_bytes("pad").map_or(0, |p| p.len() as u64);
                if let Some(v) = block.get_u64("counter") {
                    s.counter = v;
                }
                if block.get_bool("xfer-last").unwrap_or(false) {
                    s.ready_at = Some(ctx.now());
                }
            },
        );
        xfer.attach(b);
        if founder {
            xfer.mark_ready();
        }
        xfer.on_entry_buffered(b, COUNT, move |_ctx, msg| {
            let body = || {
                {
                    let mut s = mlock(&c_upd);
                    s.counter = s.counter.wrapping_add(msg.get_u64("v").unwrap_or(0));
                    s.applied += 1;
                }
                wall.lock().expect("latency lock").delivered(msg);
            };
            if traced {
                trace::span(Kind::Entry, body)
            } else {
                body()
            }
        });
        b.on_view_change(gid, move |ctx, ev| {
            let mut s = mlock(&c_view);
            s.views.push((ev.view.id.seq, ev.view.members.clone()));
            s.view_times.push(ctx.now());
        });
    });
    (pid, cell)
}

fn churn_build<R: Sim>(rt: R, traced: bool) -> ChurnCluster<R> {
    let mut h = IsisHarness::new(rt);
    let gid = h.allocate_group_id();
    let wall: Arc<Mutex<WallLatency>> = Default::default();
    let mut permanent = Vec::new();
    for (k, s) in PERMANENT.iter().enumerate() {
        let m = spawn_counter(&mut h, SiteId(*s), gid, k == 0, wall.clone(), traced);
        if k == 0 {
            h.create_group_with_id("churn", gid, m.0);
        } else {
            h.join_and_wait(gid, m.0, None, Duration::from_secs(10))
                .expect("permanent member join");
        }
        permanent.push(m);
    }
    let cell = permanent[1].1.clone();
    let ok = h.wait_until(Duration::from_secs(10), move |_| {
        mlock(&cell).ready_at.is_some()
    });
    assert!(ok, "the second permanent member never received its state");
    ChurnCluster {
        h,
        gid,
        permanent,
        visitors: Vec::new(),
        wall,
        traced,
        sum: 0,
        updates: 0,
        next_update: 0,
    }
}

/// Virtual-time samples of the membership operations.
#[derive(Default)]
struct Churned {
    join_ms: Vec<f64>,
    leave_ms: Vec<f64>,
    failover_ms: Vec<f64>,
    /// Membership the reference member must install, in order.
    expected: Vec<Vec<ProcessId>>,
    membership_ops: u64,
    cycles: u64,
    /// Stability backlog at site 0 when each join was submitted.
    unstable: Vec<f64>,
    errors: Vec<String>,
}

fn ms_since(t: SimTime, since: SimTime) -> f64 {
    t.0.saturating_sub(since.0) as f64 / 1e3
}

impl<R: Sim> ChurnCluster<R> {
    fn update(&mut self, rng: &mut DetRng) {
        let id = self.next_update;
        self.next_update += 1;
        let abcast = id % 2 == 1;
        let sender = self.permanent[(id / 2 % 2) as usize].0;
        let value = rng.next_below(1 << 32);
        self.sum = self.sum.wrapping_add(value);
        self.updates += 1;
        let i = self.wall.lock().expect("latency lock").issue(abcast);
        let proto = if abcast {
            ProtocolKind::Abcast
        } else {
            ProtocolKind::Cbcast
        };
        let msg = Message::new().with("v", value).with("i", i);
        self.h.client_send(sender, self.gid, COUNT, msg, proto);
    }

    fn members_now(&self) -> Vec<ProcessId> {
        self.permanent.iter().map(|p| p.0).collect()
    }

    /// Drives until every permanent member's latest view has exactly `members`; returns
    /// the last virtual install instant among them.
    fn await_view(&mut self, members: &[ProcessId]) -> Option<SimTime> {
        let cells: Vec<MemberCell> = self.permanent.iter().map(|p| p.1.clone()).collect();
        let want = members.to_vec();
        let ok = self.h.wait_until(Duration::from_secs(10), move |_| {
            cells
                .iter()
                .all(|c| mlock(c).views.last().map(|v| v.1 == want) == Some(true))
        });
        ok.then(|| {
            self.permanent
                .iter()
                .map(|p| *mlock(&p.1).view_times.last().expect("a view was installed"))
                .max()
                .expect("permanent members exist")
        })
    }

    /// Joins a fresh process at `site`; returns it once its snapshot applied.
    fn join(&mut self, site: u16, out: &mut Churned, rng: &mut DetRng) -> Option<ProcessId> {
        self.h.settle(Duration::from_micros(rng.next_below(300)));
        let (pid, cell) = spawn_counter(
            &mut self.h,
            SiteId(site),
            self.gid,
            false,
            self.wall.clone(),
            self.traced,
        );
        self.visitors.push(cell.clone());
        let gid = self.gid;
        let backlog = self.h.unstable_count(SiteId(0), gid);
        out.unstable.push(backlog as f64);
        let t0 = self.h.rt.now();
        self.h.rt.with_stack_job(
            SiteId(site),
            Box::new(move |stack: &mut SiteStack, _now, o| {
                if let Err(e) = stack.join_group(gid, pid, None, o) {
                    eprintln!("join of {pid} not submitted: {e}");
                }
            }),
        );
        out.membership_ops += 1;
        let c2 = cell.clone();
        if !self.h.wait_until(Duration::from_secs(10), move |_| {
            mlock(&c2).ready_at.is_some()
        }) {
            out.errors
                .push(format!("join of {pid} never completed its transfer"));
            return None;
        }
        let ready = mlock(&cell).ready_at.expect("checked above");
        out.join_ms.push(ms_since(ready, t0));
        let mut members = self.members_now();
        members.push(pid);
        out.expected.push(members.clone());
        if self.await_view(&members).is_none() {
            out.errors
                .push(format!("view with {pid} never installed everywhere"));
            return None;
        }
        // Let in-flight updates land, then the joiner must hold exactly the state of the
        // survivors, which must equal the sum the generator sent.
        self.h.settle(Duration::from_millis(2));
        let want = (self.sum, self.updates);
        let joiner = mlock(&cell).counter;
        for (p, c) in &self.permanent {
            let s = mlock(c);
            if (s.counter, s.applied) != want {
                out.errors.push(format!(
                    "{p} applied {} updates summing to {}, sent {} summing to {}",
                    s.applied, s.counter, want.1, want.0
                ));
            }
        }
        if joiner != want.0 {
            out.errors
                .push(format!("joiner {pid} holds {joiner}, survivors {}", want.0));
        }
        Some(pid)
    }

    fn cycle(&mut self, out: &mut Churned, rng: &mut DetRng) {
        for _ in 0..BACKGROUND {
            self.update(rng);
            self.h.settle(Duration::from_micros(200));
        }
        for _ in 0..RACING {
            self.update(rng);
        }
        // Join at the third site while the racing updates are still unstable.
        let Some(j) = self.join(2, out, rng) else {
            return;
        };
        // Voluntary leave.
        self.h.settle(Duration::from_micros(rng.next_below(300)));
        let gid = self.gid;
        let t0 = self.h.rt.now();
        self.h.rt.with_stack_job(
            SiteId(2),
            Box::new(move |stack: &mut SiteStack, _now, o| {
                if let Err(e) = stack.leave_group(gid, j, o) {
                    eprintln!("leave of {j} not submitted: {e}");
                }
            }),
        );
        out.membership_ops += 1;
        let members = self.members_now();
        out.expected.push(members.clone());
        match self.await_view(&members) {
            Some(t) => out.leave_ms.push(ms_since(t, t0)),
            None => return out.errors.push(format!("leave of {j} never installed")),
        }
        // The member that left exits, as a departing process would; otherwise every later
        // view change at its site would still be dispatched to it.
        self.h.rt.with_stack_job(
            SiteId(2),
            Box::new(move |stack: &mut SiteStack, _now, o| stack.crash_local_process(j, o)),
        );
        // Join at the fourth site, then crash that site.
        if self.join(3, out, rng).is_none() {
            return;
        }
        self.h.settle(Duration::from_micros(rng.next_below(300)));
        let t0 = self.h.rt.now();
        self.h.rt.kill_site(SiteId(3));
        out.membership_ops += 1;
        out.expected.push(members.clone());
        match self.await_view(&members) {
            Some(t) => out.failover_ms.push(ms_since(t, t0)),
            None => {
                let last = out.failover_ms.last().copied().unwrap_or(0.0);
                return out.errors.push(format!(
                    "failover never installed (cycle {}, previous failover {last} ms)",
                    out.cycles
                ));
            }
        }
        // Recovery: a fresh protocols process that knows where the group lives.
        self.h.rt.recover_site(SiteId(3));
        self.h.rt.with_stack_job(
            SiteId(3),
            Box::new(move |stack: &mut SiteStack, _now, _o| {
                stack.register_group("churn", gid, vec![SiteId(0)]);
            }),
        );
        // The survivors' failure detectors fold the outage into their heartbeat-interval
        // average when the recovered site is first heard again, which lengthens the next
        // failover's timeout; crashing the site again at once compounds that every cycle.
        // The recovered site runs long enough for the average to decay back first.
        self.h.settle(Duration::from_millis(RECOVERED_RUN_MS));
        out.cycles += 1;
    }
}

/// Runs whole cycles for `seconds`; `between` runs after each cycle with the cycle count.
fn churn_generate<R: Sim>(
    c: &mut ChurnCluster<R>,
    seed: u64,
    seconds: f64,
    mut between: impl FnMut(u64),
) -> (Churned, f64) {
    let mut rng = DetRng::new(seed ^ 0xC4A7);
    let mut out = Churned::default();
    for (_, cell) in &c.permanent {
        let mut s = mlock(cell);
        s.views.clear();
        s.view_times.clear();
    }
    c.visitors.clear();
    *c.wall.lock().expect("latency lock") = WallLatency::started();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds && out.errors.is_empty() {
        c.cycle(&mut out, &mut rng);
        between(out.cycles);
    }
    (out, start.elapsed().as_secs_f64())
}

/// Checks views and counters; returns (correct, attempted, failed).
fn churn_verify<R: Sim>(c: &ChurnCluster<R>, out: &Churned) -> (bool, u64, u64) {
    let mut correct = out.errors.is_empty();
    for e in &out.errors {
        eprintln!("{e}");
    }
    let reference = mlock(&c.permanent[0].1).views.clone();
    let observers: Vec<ViewLog> = c
        .permanent
        .iter()
        .map(|p| &p.1)
        .chain(&c.visitors)
        .map(|cell| mlock(cell).views.clone())
        .collect();
    if let Err(e) = check_views(&observers, &reference, &out.expected) {
        eprintln!("views: {e}");
        correct = false;
    }
    let attempted = out.membership_ops + c.updates;
    (correct, attempted, 0)
}

pub fn run_churn(seed: u64, seconds: u64, trace_on: bool) -> Outcome {
    let build = |s: u64| churn_build(stock(CHURN_SITES, s), false);
    let (mut setups, mut c) = timed_setups(build, seed, SETUPS);
    let mut m = Metrics::default();
    if !trace_on {
        let (out, elapsed) = churn_generate(&mut c, seed, seconds as f64, |cycle| {
            if cycle.is_multiple_of(SETUP_EVERY) {
                let t = Instant::now();
                let extra = build(seed.wrapping_add(cycle));
                setups.push(t.elapsed().as_secs_f64());
                drop(extra);
            }
        });
        let (correct, attempted, failed) = churn_verify(&c, &out);
        m.put("setup_s", median(&mut setups), "s");
        let deliveries = churn_deliveries(&c) as f64;
        c.wall.lock().expect("latency lock").put(
            &mut m,
            deliveries / elapsed,
            attempted as f64 / elapsed,
        );
        return Outcome {
            correct,
            attempted,
            failed,
            metrics: m,
        };
    }
    let half = seconds as f64 / 2.0;
    let cpu0 = trace::thread_cpu_ns();
    let (out_a, _) = churn_generate(&mut c, seed, half, |_| {});
    let deliveries_a = churn_deliveries(&c);
    let stock_cpu = (trace::thread_cpu_ns() - cpu0) as f64 / deliveries_a.max(1) as f64;
    let (ok_a, att_a, fail_a) = churn_verify(&c, &out_a);

    let mut c = churn_build(traced(CHURN_SITES, seed), true);
    let (stats0, ev0, d0) = (c.h.rt.net_stats(), c.h.rt.events(), churn_deliveries(&c));
    let t0 = now_ns();
    trace::begin();
    let (out, _) = churn_generate(&mut c, seed, half, |_| {});
    let report = trace::end();
    let wall_ns = now_ns() - t0;
    let replay = trace::replay_captured();
    let (ok_b, att_b, fail_b) = churn_verify(&c, &out);
    let view_changes = mlock(&c.permanent[0].1).views.len() as f64;
    let l = LayerInputs {
        report,
        stats: c.h.rt.net_stats().delta_since(&stats0),
        calendar_events: c.h.rt.events() - ev0,
        deliveries: churn_deliveries(&c) - d0,
        ops: att_b,
        wall_ns,
        threads: 1,
        replay,
        stock_cpu_per_delivery: stock_cpu,
        // Two permanent members plus one joiner, on three sites.
        width: 3,
        sites: 3,
    };
    put_layers(&mut m, &l);
    let mut o = out;
    m.put("proto.unstable_msgs", median(&mut o.unstable), "count");
    let mops = o.membership_ops.max(1) as f64;
    m.put("proto.view_changes_per_op", view_changes / mops, "count");
    let joins = o.join_ms.len().max(1) as f64;
    let (bytes, blocks) = c.visitors.iter().fold((0, 0), |a, v| {
        let s = mlock(v);
        (a.0 + s.transfer_bytes, a.1 + s.transfer_blocks)
    });
    m.put(
        "tools.transfer_bytes_per_join",
        bytes as f64 / joins,
        "bytes",
    );
    m.put(
        "tools.transfer_blocks_per_join",
        blocks as f64 / joins,
        "count",
    );
    for v in ["virt.cbcast_rpc_hops", "virt.abcast_rpc_hops"] {
        m.put(v, 0.0, "hops");
    }
    m.put("virt.join_hops", hops_us(&mut ms_to_us(&o.join_ms)), "hops");
    m.put(
        "virt.leave_hops",
        hops_us(&mut ms_to_us(&o.leave_ms)),
        "hops",
    );
    m.put(
        "virt.failover_hops",
        hops_us(&mut ms_to_us(&o.failover_ms)),
        "hops",
    );
    Outcome {
        correct: ok_a && ok_b,
        attempted: att_a + att_b,
        failed: fail_a + fail_b,
        metrics: m,
    }
}

/// Application deliveries so far: updates applied at every member, permanent or not.
fn churn_deliveries<R: Sim>(c: &ChurnCluster<R>) -> u64 {
    c.permanent
        .iter()
        .map(|p| &p.1)
        .chain(&c.visitors)
        .map(|cell| mlock(cell).applied)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_short_service_run_passes_its_checks() {
        let mut c = svc_build(stock(SVC_SITES, 1), false);
        svc_generate(&mut c, 1);
        let x = lock(&c.st);
        let (ok, attempted, failed) = svc_verify(&x);
        assert!(ok && attempted > 0 && x.queries > 0);
        assert_eq!(failed, 0);
    }

    #[test]
    fn a_diverged_replica_fails_the_service_check() {
        let mut c = svc_build(stock(SVC_SITES, 2), false);
        svc_generate(&mut c, 2);
        let mut x = lock(&c.st);
        x.replicas[1][3].apply(u64::MAX, 1);
        assert!(!svc_verify(&x).0);
    }

    #[test]
    fn churn_cycles_pass_their_checks_and_a_skipped_view_fails_them() {
        let mut c = churn_build(stock(CHURN_SITES, 1), false);
        let (mut out, _) = churn_generate(&mut c, 1, 0.2, |_| {});
        assert!(out.cycles >= 2, "only {} cycles", out.cycles);
        assert_eq!(
            churn_verify(&c, &out),
            (true, out.membership_ops + c.updates, 0)
        );
        out.expected.pop();
        assert!(!churn_verify(&c, &out).0);
    }
}
