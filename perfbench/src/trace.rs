//! The traced run: spans and counts recorded at layer boundaries from outside the program.
//!
//! [`TracedStack`] wraps a [`SiteStack`] in a forwarding [`SiteHandler`].  It opens a span
//! around every `on_packet` / `on_timer` call, and the traced runtimes below open one
//! around every injected stack job; the benchmark's own entry handlers open nested `entry`
//! spans.  The wrapper also timestamps every packet the stack emits (it drains the outbox
//! and re-queues each packet) and every cross-site packet it receives, which later gives
//! the channel crossing time.  `as_any_mut` hands out the inner stack, so the harness's
//! downcasts see the stock `SiteStack`.
//!
//! All recording is thread-local (one node thread per site on the threaded backend, the
//! main thread in the simulator), stays in memory, and is collected when the run ends.

use std::any::Any;
use std::cell::RefCell;
use std::sync::OnceLock;
use std::time::Instant;

use vsync_core::{SiteStack, StackConfig};
use vsync_net::{NetStats, Outbox, Packet, PacketKind, ProtocolKind, SharedStats, SiteHandler};
use vsync_proto::ProtoConfig;
use vsync_rt::{
    transport::invoke_fn, FaultPlan, IsisRuntime, LinkFaults, SimCluster, StackJob, ThreadedCluster,
};
use vsync_util::{Duration, NetParams, SimTime, SiteId};

use crate::layers;
use crate::stats::Metrics;

/// Nanoseconds since the first call in this process (a monotonic clock shared by threads).
pub fn now_ns() -> u64 {
    static BASE: OnceLock<Instant> = OnceLock::new();
    BASE.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// CPU time consumed by the calling thread, in nanoseconds.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit fields on 64-bit
    // Linux) that outlives the call; the clock id is a constant the kernel always knows.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// CPU time consumed by the calling thread (not available here: 0).
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn thread_cpu_ns() -> u64 {
    0
}

/// Span kinds, in report order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Packet = 0,
    Timer = 1,
    Invoke = 2,
    Entry = 3,
}
const KINDS: usize = 4;

/// Packet kinds in `proto.packets_per_delivery.*` order.
pub const PACKET_KINDS: [(PacketKind, &str); 9] = [
    (PacketKind::Data, "data"),
    (PacketKind::Proposal, "proposal"),
    (PacketKind::SetOrder, "setorder"),
    (PacketKind::Stability, "stability"),
    (PacketKind::Heartbeat, "heartbeat"),
    (PacketKind::Reply, "reply"),
    (PacketKind::Flush, "flush"),
    (PacketKind::Transfer, "transfer"),
    (PacketKind::Control, "control"),
];

fn kind_index(k: PacketKind) -> usize {
    PACKET_KINDS
        .iter()
        .position(|(p, _)| *p == k)
        .expect("every packet kind is listed")
}

/// One recorded span.  `parent` indexes the enclosing span in the same thread's sample
/// (`u32::MAX` for a top-level span).
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub kind: Kind,
    pub start: u64,
    pub end: u64,
    pub parent: u32,
}

/// A packet crossing between sites, as seen at one end: (src, dst, fingerprint, time).
pub type Crossing = (u32, u32, u32, u64);

/// Spans kept per thread; aggregates keep counting past it.
const SPAN_SAMPLE: usize = 200_000;
/// Crossings kept per thread and direction.
const CROSSING_CAP: usize = 2_000_000;
/// Packets captured per thread for the codec and wire replays.
const CAPTURE: usize = 1_024;
/// Event instants kept per thread for the calendar replay.
const INSTANT_CAP: usize = 1_000_000;

/// What one thread recorded, moved out at the end of the traced phase.
#[derive(Default)]
pub struct ThreadReport {
    /// Per span kind: (count, total ns, self ns).
    pub spans: [(u64, u64, u64); KINDS],
    /// Time covered by top-level spans.
    pub top_ns: u64,
    /// Thread CPU time over the traced phase.
    pub cpu_ns: u64,
    /// Handler events (packets, timers, injected jobs).
    pub events: u64,
    /// Packets emitted, by kind (`PACKET_KINDS` order).
    pub packets: [u64; 9],
    /// Encoded bytes of emitted cross-site packets.
    pub cross_bytes: u64,
    pub sends: Vec<Crossing>,
    pub recvs: Vec<Crossing>,
    /// Instants of handled events (virtual in the simulator, µs since start on threads).
    pub instants: Vec<u64>,
    /// Recorded spans (the first `SPAN_SAMPLE`).
    pub sample: Vec<Span>,
    /// Frame wire-cache encodes on this thread over the phase.
    pub encodes: u64,
}

impl ThreadReport {
    /// Folds another thread's report into this one.
    pub fn merge(&mut self, o: ThreadReport) {
        for k in 0..KINDS {
            self.spans[k].0 += o.spans[k].0;
            self.spans[k].1 += o.spans[k].1;
            self.spans[k].2 += o.spans[k].2;
        }
        self.top_ns += o.top_ns;
        self.cpu_ns += o.cpu_ns;
        self.events += o.events;
        for k in 0..9 {
            self.packets[k] += o.packets[k];
        }
        self.cross_bytes += o.cross_bytes;
        self.sends.extend(o.sends);
        self.recvs.extend(o.recvs);
        self.instants.extend(o.instants);
        self.encodes += o.encodes;
    }
}

struct Open {
    kind: Kind,
    start: u64,
    child_ns: u64,
    index: u32,
}

#[derive(Default)]
struct Tracer {
    on: bool,
    report: ThreadReport,
    open: Vec<Open>,
    captured: Vec<Packet>,
    cpu_start: u64,
    encodes_start: u64,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer::default());
}

/// Starts recording on the calling thread (clearing anything recorded before).
pub fn begin() {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        *t = Tracer::default();
        t.on = true;
        t.cpu_start = thread_cpu_ns();
        t.encodes_start = vsync_msg::frame::wire_cache::encodes();
    });
}

/// Stops recording on the calling thread and returns what it recorded.  The captured
/// packets stay behind for [`replay_captured`]; the span sample moves to the process-wide
/// list [`write_spans`] writes out.
pub fn end() -> ThreadReport {
    let mut r = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.on = false;
        let mut r = std::mem::take(&mut t.report);
        r.cpu_ns = thread_cpu_ns() - t.cpu_start;
        r.encodes = vsync_msg::frame::wire_cache::encodes() - t.encodes_start;
        r
    });
    let sample = std::mem::take(&mut r.sample);
    SPANS.lock().expect("span list lock").push(sample);
    r
}

/// Span samples of every thread that ended a traced phase, one list per thread.
static SPANS: std::sync::Mutex<Vec<Vec<Span>>> = std::sync::Mutex::new(Vec::new());

/// Writes the recorded spans as tab-separated `thread kind start_ns end_ns parent` lines
/// (`parent` indexes the same thread's list; -1 for a top-level span).
pub fn write_spans(path: &std::path::Path) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "thread\tkind\tstart_ns\tend_ns\tparent")?;
    for (thread, spans) in SPANS.lock().expect("span list lock").iter().enumerate() {
        for s in spans {
            let parent = if s.parent == u32::MAX {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                w,
                "{thread}\t{:?}\t{}\t{}\t{parent}",
                s.kind, s.start, s.end
            )?;
        }
    }
    w.flush()
}

fn on() -> bool {
    TRACER.with(|t| t.borrow().on)
}

fn open(kind: Kind) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.on {
            return;
        }
        let start = now_ns();
        let parent = t.open.last().map(|o| o.index).unwrap_or(u32::MAX);
        let index = if t.report.sample.len() < SPAN_SAMPLE {
            t.report.sample.push(Span {
                kind,
                start,
                end: start,
                parent,
            });
            (t.report.sample.len() - 1) as u32
        } else {
            u32::MAX
        };
        t.open.push(Open {
            kind,
            start,
            child_ns: 0,
            index,
        });
    });
}

fn close() {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let Some(o) = t.open.pop() else { return };
        let end = now_ns();
        let dur = end - o.start;
        if let Some(s) = t.report.sample.get_mut(o.index as usize) {
            s.end = end;
        }
        let agg = &mut t.report.spans[o.kind as usize];
        agg.0 += 1;
        agg.1 += dur;
        agg.2 += dur.saturating_sub(o.child_ns);
        match t.open.last_mut() {
            Some(parent) => parent.child_ns += dur,
            None => t.report.top_ns += dur,
        }
    });
}

/// Runs `f` inside a span of `kind` when the calling thread is recording.
pub fn span<T>(kind: Kind, f: impl FnOnce() -> T) -> T {
    if !on() {
        return f();
    }
    open(kind);
    let v = f();
    close();
    v
}

fn pid_key(p: vsync_util::ProcessId) -> u32 {
    (u32::from(p.site.0) << 16) | p.local
}

fn fingerprint(pkt: &Packet) -> u32 {
    ((pkt.kind as u32) << 24) ^ (pkt.payload.encoded_len() as u32)
}

/// Timestamps and counts every packet the handler just emitted, then re-queues them.
fn note_sends(out: &mut Outbox, site: SiteId) {
    if !on() {
        return;
    }
    let pkts: Vec<Packet> = out.drain_sends().collect();
    let t = now_ns();
    TRACER.with(|tr| {
        let mut tr = tr.borrow_mut();
        for p in &pkts {
            tr.report.packets[kind_index(p.kind)] += 1;
            if p.dst.site != site {
                tr.report.cross_bytes += p.payload.encoded_len() as u64;
                if tr.report.sends.len() < CROSSING_CAP {
                    let c = (pid_key(p.src), pid_key(p.dst), fingerprint(p), t);
                    tr.report.sends.push(c);
                }
                if tr.captured.len() < CAPTURE {
                    tr.captured.push(p.clone());
                }
            }
        }
    });
    for p in pkts {
        out.send(p);
    }
}

fn note_event(now: SimTime, recv: Option<&Packet>, site: SiteId) {
    TRACER.with(|tr| {
        let mut tr = tr.borrow_mut();
        if !tr.on {
            return;
        }
        tr.report.events += 1;
        if tr.report.instants.len() < INSTANT_CAP {
            tr.report.instants.push(now.0);
        }
        if let Some(p) = recv {
            if p.src.site != site && tr.report.recvs.len() < CROSSING_CAP {
                let c = (pid_key(p.src), pid_key(p.dst), fingerprint(p), now_ns());
                tr.report.recvs.push(c);
            }
        }
    });
}

/// The forwarding wrapper around one site's stack.
pub struct TracedStack {
    inner: SiteStack,
}

impl SiteHandler for TracedStack {
    fn on_start(&mut self, now: SimTime, out: &mut Outbox) {
        self.inner.on_start(now, out);
    }

    fn on_packet(&mut self, now: SimTime, pkt: Packet, out: &mut Outbox) {
        let site = self.inner.site();
        note_event(now, Some(&pkt), site);
        span(Kind::Packet, || self.inner.on_packet(now, pkt, out));
        note_sends(out, site);
    }

    fn on_timer(&mut self, now: SimTime, token: u64, out: &mut Outbox) {
        let site = self.inner.site();
        note_event(now, None, site);
        span(Kind::Timer, || self.inner.on_timer(now, token, out));
        note_sends(out, site);
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

/// Runs an injected stack job inside an `invoke` span and notes what it sent.
fn traced_job(stack: &mut SiteStack, now: SimTime, out: &mut Outbox, job: StackJob) {
    let site = stack.site();
    note_event(now, None, site);
    span(Kind::Invoke, || job(stack, now, out));
    note_sends(out, site);
}

/// Per-packet wire and codec costs of the captured packets, replayed on their own thread:
/// `(wire_ns, encode_ns, decode_ns)` per packet.
pub fn replay_captured() -> (f64, f64, f64) {
    use vsync_msg::{codec, Frame};
    use vsync_rt::WirePacket;
    let pkts: Vec<Packet> = TRACER.with(|t| std::mem::take(&mut t.borrow_mut().captured));
    if pkts.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let msgs: Vec<vsync_msg::Message> = pkts.iter().map(|p| p.payload.to_message()).collect();
    let n = pkts.len() as f64;
    let rounds = 20;
    let mut wire_ns = 0u128;
    for _ in 0..rounds {
        // Fresh frames, so the encode is paid as on a first crossing (built untimed).
        let fresh: Vec<Packet> = pkts
            .iter()
            .zip(&msgs)
            .map(|(p, m)| Packet::new(p.src, p.dst, p.kind, Frame::new(m.clone())))
            .collect();
        let t0 = Instant::now();
        for p in &fresh {
            let w = WirePacket::from_packet(p, SimTime::ZERO);
            std::hint::black_box(w.into_packet().expect("captured packets decode"));
        }
        wire_ns += t0.elapsed().as_nanos();
    }
    let wire = wire_ns as f64 / (n * rounds as f64);
    let t1 = Instant::now();
    let mut encoded = Vec::with_capacity(msgs.len());
    for _ in 0..rounds {
        encoded.clear();
        for m in &msgs {
            encoded.push(codec::encode(std::hint::black_box(m)));
        }
    }
    let encode = t1.elapsed().as_nanos() as f64 / (n * rounds as f64);
    let t2 = Instant::now();
    for _ in 0..rounds {
        for b in &encoded {
            std::hint::black_box(codec::decode_view(b).expect("own encoding decodes"));
        }
    }
    let decode = t2.elapsed().as_nanos() as f64 / (n * rounds as f64);
    (wire, encode, decode)
}

/// What a traced phase measured, for [`put_layers`].
pub struct LayerInputs {
    /// Every recording thread's report, merged.
    pub report: ThreadReport,
    /// `NetStats` over the phase (packet counts only where a network model counts them).
    pub stats: NetStats,
    /// Calendar events over the phase (0 on threads: there is no calendar).
    pub calendar_events: u64,
    pub deliveries: u64,
    /// Attempted operations over the phase.
    pub ops: u64,
    pub wall_ns: u64,
    /// Threads that recorded (site threads, or the simulator's one).
    pub threads: usize,
    /// `(wire_ns, encode_ns, decode_ns)` from [`replay_captured`].
    pub replay: (f64, f64, f64),
    /// CPU per delivery of the untraced phase, the base of `trace.overhead`.
    pub stock_cpu_per_delivery: f64,
    /// Members and sites of the workload's groups, for the protocol replays.
    pub width: usize,
    pub sites: usize,
}

/// The per-layer metrics every workload derives the same way.
pub fn put_layers(m: &mut Metrics, l: &LayerInputs) {
    let r = &l.report;
    let dl = l.deliveries.max(1) as f64;
    m.put("msg.encode_ns", l.replay.1, "ns");
    m.put("msg.decode_ns", l.replay.2, "ns");
    m.put("msg.encodes_per_delivery", r.encodes as f64 / dl, "count");
    m.put("rt.wire_ns", l.replay.0, "ns");
    m.put(
        "rt.wire_bytes_per_delivery",
        r.cross_bytes as f64 / dl,
        "bytes",
    );
    // In the simulator the "channel" is the calendar: the wall time it takes to carry a
    // packet from the sender's stack to the receiver's.
    m.put("rt.chan_wait_us", chan_wait_us(&r.sends, &r.recvs), "us");
    m.put(
        "rt.busy_share",
        r.cpu_ns as f64 / (l.threads as f64 * l.wall_ns as f64),
        "share",
    );
    m.put("rt.events_per_delivery", r.events as f64 / dl, "count");
    m.put(
        "net.events_per_delivery",
        l.calendar_events as f64 / dl,
        "count",
    );
    m.put("net.calendar_ns", layers::calendar_ns(&r.instants), "ns");
    for (k, (kind, name)) in PACKET_KINDS.iter().enumerate() {
        // The simulator's network model counts every packet; the threaded backend has no
        // model, so the wrapper's count of emitted packets stands in.
        let n = if l.stats.packets.is_empty() {
            r.packets[k]
        } else {
            l.stats.packets.get(kind).copied().unwrap_or(0)
        };
        m.put(
            &format!("proto.packets_per_delivery.{name}"),
            n as f64 / dl,
            "count",
        );
    }
    m.put(
        "proto.cbcast_receive_ns",
        layers::cbcast_receive_ns(l.width),
        "ns",
    );
    m.put(
        "proto.abcast_order_ns",
        layers::abcast_order_ns(l.sites),
        "ns",
    );
    let self_ns = |k: Kind| {
        let (count, _, self_ns) = r.spans[k as usize];
        self_ns as f64 / count.max(1) as f64
    };
    m.put("core.stack_packet_ns", self_ns(Kind::Packet), "ns");
    m.put("core.stack_timer_ns", self_ns(Kind::Timer), "ns");
    m.put("core.stack_invoke_ns", self_ns(Kind::Invoke), "ns");
    m.put("core.entry_ns", self_ns(Kind::Entry), "ns");
    let ops = l.ops.max(1) as f64;
    for (kind, name) in [
        (ProtocolKind::Cbcast, "cbcast"),
        (ProtocolKind::Abcast, "abcast"),
        (ProtocolKind::Gbcast, "gbcast"),
        (ProtocolKind::Reply, "reply"),
    ] {
        m.put(
            &format!("core.multicasts_per_op.{name}"),
            l.stats.multicasts_of(kind) as f64 / ops,
            "count",
        );
    }
    m.put(
        "trace.unaccounted_share",
        1.0 - r.top_ns as f64 / r.cpu_ns.max(1) as f64,
        "share",
    );
    m.put(
        "trace.overhead",
        (r.cpu_ns as f64 / dl) / l.stock_cpu_per_delivery - 1.0,
        "share",
    );
}

// ---------------------------------------------------------------------------------------
// Traced runtimes: the stock harness surface, with every stack wrapped.
// ---------------------------------------------------------------------------------------

/// The threaded backend with [`TracedStack`]s (mirrors `ThreadedRuntime`).
pub struct TracedThreaded {
    cluster: ThreadedCluster,
    all: Vec<SiteId>,
    stack_cfg: StackConfig,
    proto_cfg: ProtoConfig,
}

impl TracedThreaded {
    pub fn new(n: usize, stack_cfg: StackConfig, proto_cfg: ProtoConfig, seed: u64) -> Self {
        let mut rt = TracedThreaded {
            cluster: ThreadedCluster::new(n, FaultPlan::none(), seed),
            all: (0..n as u16).map(SiteId).collect(),
            stack_cfg,
            proto_cfg,
        };
        for s in rt.all.clone() {
            rt.spawn(s);
        }
        rt
    }

    fn spawn(&mut self, site: SiteId) {
        let (all, sc, pc) = (self.all.clone(), self.stack_cfg, self.proto_cfg);
        self.cluster.spawn_site(site, move |_now| {
            let stack = SiteStack::new(site, all, sc, pc, SharedStats::new());
            Box::new(TracedStack { inner: stack })
        });
    }

    pub fn shutdown(self) {
        self.cluster.shutdown();
    }
}

impl IsisRuntime for TracedThreaded {
    fn num_sites(&self) -> usize {
        self.cluster.num_sites()
    }
    fn now(&self) -> SimTime {
        self.cluster.now()
    }
    fn with_stack_job(&mut self, site: SiteId, job: StackJob) -> bool {
        self.cluster.invoke(
            site,
            invoke_fn(move |h, now, out| {
                if let Some(stack) = h.as_any_mut().downcast_mut::<SiteStack>() {
                    traced_job(stack, now, out, job);
                }
            }),
        )
    }
    fn advance(&mut self, d: Duration) {
        std::thread::sleep(std::time::Duration::from_micros(d.as_micros()));
    }
    fn kill_site(&mut self, site: SiteId) {
        self.cluster.kill_site(site);
    }
    fn recover_site(&mut self, site: SiteId) {
        self.spawn(site);
    }
    fn site_is_up(&self, site: SiteId) -> bool {
        self.cluster.site_is_up(site)
    }
    fn set_link_faults(&mut self, links: LinkFaults) {
        self.cluster.set_link_faults(links);
    }
}

/// The simulator with [`TracedStack`]s (mirrors `SimRuntime`).
pub struct TracedSim {
    pub cluster: SimCluster,
    all: Vec<SiteId>,
    stack_cfg: StackConfig,
    proto_cfg: ProtoConfig,
}

impl TracedSim {
    pub fn new(
        n: usize,
        params: NetParams,
        stack_cfg: StackConfig,
        proto_cfg: ProtoConfig,
        seed: u64,
    ) -> Self {
        let mut rt = TracedSim {
            cluster: SimCluster::new(n, params, seed),
            all: (0..n as u16).map(SiteId).collect(),
            stack_cfg,
            proto_cfg,
        };
        for s in rt.all.clone() {
            rt.install(s);
        }
        rt
    }

    fn install(&mut self, site: SiteId) {
        let stack = SiteStack::new(
            site,
            self.all.clone(),
            self.stack_cfg,
            self.proto_cfg,
            self.cluster.stats(),
        );
        self.cluster
            .install(site, Box::new(TracedStack { inner: stack }));
    }
}

impl IsisRuntime for TracedSim {
    fn num_sites(&self) -> usize {
        self.cluster.num_sites()
    }
    fn now(&self) -> SimTime {
        self.cluster.now()
    }
    fn with_stack_job(&mut self, site: SiteId, job: StackJob) -> bool {
        self.cluster
            .with_node::<SiteStack, _>(site, |stack, now, out| traced_job(stack, now, out, job))
            .is_some()
    }
    fn advance(&mut self, d: Duration) {
        self.cluster.run_for(d);
    }
    fn kill_site(&mut self, site: SiteId) {
        self.cluster.kill(site);
    }
    fn recover_site(&mut self, site: SiteId) {
        self.install(site);
    }
    fn site_is_up(&self, site: SiteId) -> bool {
        self.cluster.site_is_up(site)
    }
    fn set_link_faults(&mut self, links: LinkFaults) {
        self.cluster.set_link_faults(links);
    }
}

/// Median channel crossing time in µs: each cross-site receive is matched to the first
/// unmatched send on the same (src, dst) process pair with the same fingerprint (channels
/// are FIFO per pair); receives with no send in the traced window are skipped.
pub fn chan_wait_us(sends: &[Crossing], recvs: &[Crossing]) -> f64 {
    use std::collections::HashMap;
    // Per (src, dst): the sends as (fingerprint, time), and the first unmatched one.
    type Sends = (Vec<(u32, u64)>, usize);
    let mut by_pair: HashMap<(u32, u32), Sends> = HashMap::new();
    let mut sends = sends.to_vec();
    sends.sort_by_key(|c| c.3);
    for (s, d, fp, t) in sends {
        by_pair.entry((s, d)).or_default().0.push((fp, t));
    }
    let mut recvs = recvs.to_vec();
    recvs.sort_by_key(|c| c.3);
    let mut waits = Vec::new();
    for (s, d, fp, t) in recvs {
        let Some((list, next)) = by_pair.get_mut(&(s, d)) else {
            continue;
        };
        // Look a few entries ahead: a send whose packet never arrived (its receiver was
        // not up yet) is skipped.
        let hit = list[*next..]
            .iter()
            .take(8)
            .position(|&(f, ts)| f == fp && ts <= t);
        if let Some(off) = hit {
            let (_, ts) = list[*next + off];
            waits.push((t - ts) as f64 / 1_000.0);
            *next += off + 1;
        }
    }
    crate::stats::median(&mut waits)
}
