//! One group member: its state behind one lock, two `std::thread`s, and
//! whoever calls the handle.
//!
//! ```text
//!                            barrier release → start the round clock
//!             ┌────────────┐ accept → on_frame → fast-forward → flush
//!  socket ───▶│  receiver  │─────────────────┐
//!             │ (barrier,  │                 ▼
//!             │  loss inj.)│        ┌──────────────────┐
//!             └────────────┘        │ Mutex<Option<    │──▶ socket
//!             ┌────────────┐        │   Member>>       │
//!             │   ticker   │───────▶│ (Node, Fragmenter│──▶ AppEvent
//!             └────────────┘ poll → │  Reassembler,    │    channel
//!                       begin_round │  round clock)    │
//!             ProcessHandle ───────▶└──────────────────┘
//!              submit → flush · with_engine · kill
//! ```
//!
//! There is no driver thread and no event queue: whoever has work for the
//! member takes the lock and does it on its own thread, then flushes the
//! engine's outputs to the socket (fragmented to the MTU) and the
//! application channel before letting go.
//!
//! * The **receiver** thread runs the startup barrier (hello exchange),
//!   and when it releases starts the member's round clock and begins the
//!   first round at once. Then for every datagram it reads — after the
//!   optional Bernoulli loss injector — it reassembles, hands the frame to
//!   the [`Engine`], fast-forwards the round clock to the decision the
//!   frame may have carried, and flushes. A delivery is on the application
//!   channel when the `recv_from` that carried its last fragment returns to
//!   its loop.
//! * The **ticker** thread replaces the simulator's round clock: when the
//!   member's [`RoundPacer`] says a round is due it begins it, evicts stale
//!   partial transfers, flushes, and ends the member if the engine has left
//!   the group. After a stall the pacer owes at most one subrun and then
//!   re-anchors its cadence; the rounds slept through are skipped.
//! * [`ProcessHandle::submit`] runs `Node::submit` and the flush on the
//!   caller's thread — a submission that finds its round's slot free is on
//!   the wire (all n − 1 `send_to`s) when the call returns. Queries read
//!   the engine under the same lock.
//!
//! A dead member — killed, shut down, left, or abandoned by its
//! application — is `None` behind the lock: nothing is processed or sent
//! after that, both threads exit at their next wake, and the handle's
//! calls return [`GroupError::ProcessGone`]. The only queue left in front
//! of the engine is the kernel's socket buffer.
//!
//! The sender of a frame is identified by the fragment header's `src`
//! field, never by the datagram's source address — so members can sit
//! behind address-rewriting middleboxes such as this crate's
//! [`LossyProxy`](crate::LossyProxy).

use std::collections::HashSet;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use bytes::Bytes;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use urcgc::{
    Clock, Engine, EngineSnapshot, EngineStats, Node, Output, ProcessStatus, RoundPacer, WallClock,
};
use urcgc_types::tag::{HELLO, HELLO_ACK};
use urcgc_types::{DataMsg, GroupId, Mid, ProcessId, ProtocolConfig, Round};

use urcgc_transport::{TFrame, DATA_HEADER_LEN};

use crate::frag::{Fragmenter, Reassembler};

/// Hello / hello-ack datagram: `[tag, pid_lo, pid_hi]`.
const HELLO_LEN: usize = 3;
/// How often the barrier re-bursts hellos.
const HELLO_BURST_EVERY: Duration = Duration::from_millis(40);
/// Socket read timeout — bounds how long a dead member's receiver lingers.
const READ_TIMEOUT: Duration = Duration::from_millis(25);
/// The largest payload a UDP datagram carries over IPv4 (65 535 less the IP
/// and UDP headers): `send_to` refuses anything longer with `EMSGSIZE`.
const MAX_DATAGRAM: usize = 65_507;

/// Tuning knobs for one node.
#[derive(Clone, Debug)]
pub struct NodeOptions {
    /// Wall-clock length of one protocol round. Must comfortably exceed
    /// network latency for the paper's synchronous-round assumption to
    /// hold (trivially true on localhost/LAN at the 5–20 ms defaults).
    pub round_duration: Duration,
    /// Maximum datagram size; engine frames are fragmented to fit. More
    /// than the fragment header's 19 bytes, at most UDP's 65 507.
    pub mtu: usize,
    /// How long an incomplete fragment transfer is kept before eviction.
    pub reassembly_ttl: Duration,
    /// Receive-side Bernoulli drop probability (fault injection on real
    /// sockets); applied after the startup barrier.
    pub loss: f64,
    /// Seed for the loss injector.
    pub seed: u64,
    /// How long the startup barrier waits for all peers before giving up
    /// and starting anyway.
    pub hello_deadline: Duration,
    /// The group this member hosts. Wire frames carry a group envelope
    /// ([`urcgc_types::group`]); a frame for any other group is dropped at
    /// demux without a PDU decode (counted in
    /// [`NetStats::foreign_group_frames`]).
    pub group: GroupId,
}

impl Default for NodeOptions {
    fn default() -> NodeOptions {
        NodeOptions {
            round_duration: Duration::from_millis(10),
            mtu: 1400,
            reassembly_ttl: Duration::from_secs(2),
            loss: 0.0,
            seed: 0,
            hello_deadline: Duration::from_secs(15),
            group: GroupId(0),
        }
    }
}

impl NodeOptions {
    /// Sets the round cadence.
    pub fn round_duration(mut self, d: Duration) -> NodeOptions {
        self.round_duration = d;
        self
    }

    /// Sets the loss injector.
    pub fn loss(mut self, p: f64, seed: u64) -> NodeOptions {
        self.loss = p;
        self.seed = seed;
        self
    }

    /// Sets the datagram MTU.
    pub fn mtu(mut self, mtu: usize) -> NodeOptions {
        self.mtu = mtu;
        self
    }

    /// Sets the hosted group.
    pub fn group(mut self, group: GroupId) -> NodeOptions {
        self.group = group;
        self
    }
}

/// Events surfaced to the application.
#[derive(Clone, Debug)]
pub enum AppEvent {
    /// `urcgc.data.Ind`: a message was processed, in causal order. The
    /// handle is shared with the engine's history buffer.
    Delivered(Arc<DataMsg>),
    /// `urcgc.data.Conf`: an own submission was broadcast and processed.
    Confirmed(Mid),
    /// Waiting messages were destroyed by orphan elimination.
    Discarded(Vec<Mid>),
    /// The entity's life-cycle status changed.
    StatusChanged(ProcessStatus),
}

/// Failures when spawning or using the group.
#[derive(Debug)]
pub enum GroupError {
    /// Socket setup failed.
    Io(io::Error),
    /// The member is dead: killed, shut down, or it left the group.
    ProcessGone,
    /// The submission or configuration was rejected.
    Rejected(String),
}

impl std::fmt::Display for GroupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GroupError::Io(e) => write!(f, "socket error: {e}"),
            GroupError::ProcessGone => write!(f, "the member has terminated"),
            GroupError::Rejected(e) => write!(f, "rejected: {e}"),
        }
    }
}

impl std::error::Error for GroupError {}

impl From<io::Error> for GroupError {
    fn from(e: io::Error) -> Self {
        GroupError::Io(e)
    }
}

/// Network-layer counters for one node (all monotonic).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Datagrams read off the socket (including hellos and injected loss).
    pub datagrams_rx: u64,
    /// Datagrams the socket took (fragments, parities, hellos).
    pub datagrams_tx: u64,
    /// Bytes of the datagrams read off the socket (UDP payload, no IP/UDP
    /// headers).
    pub bytes_rx: u64,
    /// Bytes of the datagrams the socket took (UDP payload).
    pub bytes_tx: u64,
    /// Datagrams `send_to` refused (full socket buffer, unreachable peer):
    /// an omission on the sender's side, counted nowhere else.
    pub send_failed: u64,
    /// Datagrams discarded by the Bernoulli loss injector.
    pub dropped_loss: u64,
    /// Always 0, kept because reports and the benchmark read it by name:
    /// the receiver hands each datagram to the engine itself, so the only
    /// queue that can overflow is the kernel's socket buffer, and that
    /// shows in the `drops` column of `/proc/net/udp`.
    pub dropped_backpressure: u64,
    /// Complete engine frames handed to the engine.
    pub frames_rx: u64,
    /// Frames the engine rejected as malformed (plus undecodable
    /// fragments, counted by the reassembler).
    pub malformed: u64,
    /// Frames whose group envelope named a group this node does not host —
    /// dropped after the 9-byte header read, before any PDU decode (the
    /// genuineness counter).
    pub foreign_group_frames: u64,
    /// Partial fragment transfers evicted on TTL (published once a round,
    /// like `frames_repaired`).
    pub reassembly_evicted: u64,
    /// Frames completed by rebuilding a lost (or late) fragment from the
    /// transfer's parity datagram — each one a gap the engine did not have
    /// to learn from a decision and ask a peer to fill.
    pub frames_repaired: u64,
    /// Protocol rounds begun.
    pub rounds: u64,
    /// Rounds the round clock skipped after stalls instead of running them
    /// back to back ([`RoundPacer::skipped`]).
    pub rounds_skipped: u64,
}

#[derive(Default)]
struct NetCounters {
    datagrams_rx: AtomicU64,
    datagrams_tx: AtomicU64,
    bytes_rx: AtomicU64,
    bytes_tx: AtomicU64,
    send_failed: AtomicU64,
    dropped_loss: AtomicU64,
    frames_rx: AtomicU64,
    malformed: AtomicU64,
    foreign_group_frames: AtomicU64,
    reassembly_evicted: AtomicU64,
    frames_repaired: AtomicU64,
    rounds: AtomicU64,
    rounds_skipped: AtomicU64,
}

impl NetCounters {
    fn snapshot(&self) -> NetStats {
        NetStats {
            datagrams_rx: self.datagrams_rx.load(Ordering::Relaxed),
            datagrams_tx: self.datagrams_tx.load(Ordering::Relaxed),
            bytes_rx: self.bytes_rx.load(Ordering::Relaxed),
            bytes_tx: self.bytes_tx.load(Ordering::Relaxed),
            send_failed: self.send_failed.load(Ordering::Relaxed),
            dropped_loss: self.dropped_loss.load(Ordering::Relaxed),
            dropped_backpressure: 0,
            frames_rx: self.frames_rx.load(Ordering::Relaxed),
            malformed: self.malformed.load(Ordering::Relaxed),
            foreign_group_frames: self.foreign_group_frames.load(Ordering::Relaxed),
            reassembly_evicted: self.reassembly_evicted.load(Ordering::Relaxed),
            frames_repaired: self.frames_repaired.load(Ordering::Relaxed),
            rounds: self.rounds.load(Ordering::Relaxed),
            rounds_skipped: self.rounds_skipped.load(Ordering::Relaxed),
        }
    }
}

/// What the member's threads and its handle share: the socket and the
/// counters, free for all, and the protocol state behind the lock.
struct Shared {
    me: ProcessId,
    opts: NodeOptions,
    socket: UdpSocket,
    peers: Vec<SocketAddr>,
    net: NetCounters,
    clock: WallClock,
    /// `None` once the member is dead.
    member: Mutex<Option<Member>>,
}

/// The protocol state of a live member. Every method runs under
/// [`Shared::member`]'s lock, on the thread that had the work; those that
/// return `bool` return false when the member must end.
struct Member {
    node: Node,
    frag: Fragmenter,
    reasm: Reassembler,
    /// The round clock: `None` while the startup barrier holds, then the
    /// one round counter, fast-forwarded by adopted decisions.
    pacer: Option<RoundPacer>,
    evt_tx: Sender<AppEvent>,
}

impl Shared {
    /// Locks the member's state. A poisoned lock — a thread panicked in
    /// the middle of a protocol step — reads as a dead member.
    fn lock(&self) -> Result<MutexGuard<'_, Option<Member>>, GroupError> {
        self.member.lock().map_err(|_| GroupError::ProcessGone)
    }

    fn is_dead(&self) -> bool {
        self.lock().map_or(true, |slot| slot.is_none())
    }

    /// Marks the member dead and drops its state (which closes the
    /// application channel). An error if it already was.
    fn end(&self) -> Result<(), GroupError> {
        let member = self.lock()?.take();
        member.map(drop).ok_or(GroupError::ProcessGone)
    }

    /// Takes the lock and runs one protocol step of a live member; the
    /// member ends if the step says so. False once the member is dead.
    fn step(&self, step: impl FnOnce(&mut Member, &Shared) -> bool) -> bool {
        let Ok(mut slot) = self.lock() else {
            return false;
        };
        let alive = slot.as_mut().is_some_and(|member| step(member, self));
        if !alive {
            *slot = None;
        }
        alive
    }

    fn send(&self, datagram: &[u8], to: SocketAddr) {
        if self.socket.send_to(datagram, to).is_err() {
            self.net.send_failed.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.net.datagrams_tx.fetch_add(1, Ordering::Relaxed);
        self.net
            .bytes_tx
            .fetch_add(datagram.len() as u64, Ordering::Relaxed);
    }

    /// Every peer's address but our own.
    fn others(&self) -> impl Iterator<Item = SocketAddr> + '_ {
        let me = self.me.index();
        let others = self.peers.iter().enumerate().filter(move |(i, _)| *i != me);
        others.map(|(_, addr)| *addr)
    }

    fn hello_burst(&self) {
        for addr in self.others() {
            self.send(&hello(HELLO, self.me), addr);
        }
    }
}

impl Member {
    /// The hosted group's engine (the runtime node always hosts exactly one).
    fn engine(&self, io: &Shared) -> &Engine {
        self.node
            .engine(io.opts.group)
            .expect("runtime node hosts its group")
    }

    /// One datagram off the socket: reassemble, hand the frame to the
    /// engine, adopt the group's round clock, flush.
    fn on_datagram(&mut self, io: &Shared, datagram: &[u8]) -> bool {
        let datagram = Bytes::copy_from_slice(datagram);
        let Some((from, frame)) = self.reasm.accept(datagram, io.clock.now()) else {
            // Partial transfer or malformed datagram.
            self.count_rejects(io);
            return true;
        };
        io.net.frames_rx.fetch_add(1, Ordering::Relaxed);
        if self.node.on_frame(from, &frame).is_none() {
            // Either the envelope/PDU was undecodable or the frame named a
            // group this node does not host.
            self.count_rejects(io);
            return true;
        }
        // Round synchronization: the paper's model is synchronous rounds,
        // but independently started OS processes boot with round 0.
        // Decisions carry the group's subrun clock; a process that is
        // behind fast-forwards so its requests land in the subrun the rest
        // of the group is actually running.
        let group_round = self.group_round(io);
        if let Some(pacer) = self.pacer.as_mut() {
            pacer.fast_forward(group_round);
        }
        self.flush(io)
    }

    /// The first round of the subrun after the last adopted decision's.
    fn group_round(&self, io: &Shared) -> Round {
        Round(2 * (self.engine(io).last_decision().subrun.0 + 1))
    }

    /// The startup barrier released: start the round clock and begin the
    /// first round now, so the next one is a period away. That round is 0,
    /// or — for a member that adopted decisions inside the barrier — the
    /// round those put the group in.
    fn start_clock(&mut self, io: &Shared) -> bool {
        let mut pacer = RoundPacer::new(io.clock.now(), io.opts.round_duration);
        let first = match self.engine(io).last_decision().subrun.0 {
            0 => Round(0),
            _ => self.group_round(io),
        };
        pacer.fast_forward(first.next());
        self.pacer = Some(pacer);
        self.begin(io, first)
    }

    /// Begins the round the clock says is due, if one is; otherwise sets
    /// `wait` to how long until it is.
    fn on_tick(&mut self, io: &Shared, wait: &mut Duration) -> bool {
        let Some(pacer) = self.pacer.as_mut() else {
            // Inside the barrier. The receiver will start the clock and
            // begin round 0; round 1 is due a period after that, so a
            // period's sleep from now never oversleeps it.
            *wait = io.opts.round_duration;
            return true;
        };
        let now = io.clock.now();
        match pacer.poll(now) {
            Some(round) => {
                io.net
                    .rounds_skipped
                    .store(pacer.skipped(), Ordering::Relaxed);
                self.begin(io, round)
            }
            None => {
                *wait = pacer.until_due(now);
                true
            }
        }
    }

    /// Publishes the reject counters. Reassembler and node count
    /// monotonically and every writer holds the lock, so storing their sums
    /// is the same as adding what they grew by.
    fn count_rejects(&self, io: &Shared) {
        let malformed = self.reasm.malformed() + self.node.undecodable();
        io.net.malformed.store(malformed, Ordering::Relaxed);
        io.net
            .foreign_group_frames
            .store(self.node.foreign_frames(), Ordering::Relaxed);
    }

    /// Begins `round`, evicts stale partial transfers, flushes, and ends
    /// the member once its engine has left the group.
    fn begin(&mut self, io: &Shared, round: Round) -> bool {
        self.node.begin_round(round);
        io.net.rounds.fetch_add(1, Ordering::Relaxed);
        self.reasm.evict_expired(io.clock.now());
        io.net
            .reassembly_evicted
            .store(self.reasm.evicted(), Ordering::Relaxed);
        io.net
            .frames_repaired
            .store(self.reasm.repaired(), Ordering::Relaxed);
        if !self.flush(io) {
            return false;
        }
        let status = self.engine(io).status();
        if !status.is_active() {
            let _ = self.evt_tx.send(AppEvent::StatusChanged(status));
        }
        status.is_active()
    }

    /// Drains node outputs onto the socket / event channel. Returns false
    /// if the application side is gone.
    fn flush(&mut self, io: &Shared) -> bool {
        while let Some((group, out)) = self.node.poll_output() {
            let event = match out {
                Output::Send { to, pdu } => {
                    // `to` can echo a wire-derived sender id; an address we
                    // do not have is an omission, never a panic.
                    if let Some(&addr) = io.peers.get(to.index()) {
                        let frame = self.node.encode(group, &pdu);
                        for gram in self.frag.split(&frame) {
                            io.send(&gram, addr);
                        }
                    }
                    continue;
                }
                Output::Broadcast { pdu } => {
                    // Encode (with the group envelope) and fragment once;
                    // receivers key reassembly by (src, xfer), so the same
                    // fragments fan out to everyone.
                    let frame = self.node.encode(group, &pdu);
                    let grams = self.frag.split(&frame);
                    for addr in io.others() {
                        for gram in &grams {
                            io.send(gram, addr);
                        }
                    }
                    continue;
                }
                Output::Deliver { msg } => AppEvent::Delivered(msg),
                Output::Confirm { mid } => AppEvent::Confirmed(mid),
                Output::Discarded { mids } => AppEvent::Discarded(mids),
                Output::StatusChanged { status, .. } => AppEvent::StatusChanged(status),
            };
            if self.evt_tx.send(event).is_err() {
                return false;
            }
        }
        true
    }
}

/// Client-side handle to one group member. Calls do their work on the
/// caller's thread under the member's lock; none waits for another thread
/// to answer. Queries and [`submit`](ProcessHandle::submit) take `&self`
/// and the handle is `Sync`, so several application threads may share one.
pub struct ProcessHandle {
    id: ProcessId,
    local_addr: SocketAddr,
    /// Touched only through `&mut self` (`Mutex::get_mut`, never locked);
    /// the wrapper is what makes the handle `Sync`.
    evt_rx: Mutex<Receiver<AppEvent>>,
    shared: Arc<Shared>,
}

impl ProcessHandle {
    /// The member this handle controls.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// The address the member's socket actually bound.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Submits a message with explicit causal dependencies; returns the
    /// assigned mid. A submission that finds its round's slot free has
    /// been sent to every peer when this returns.
    pub fn submit(&self, payload: Bytes, deps: Vec<Mid>) -> Result<Mid, GroupError> {
        let mut result = Err(GroupError::ProcessGone);
        self.shared.step(|member, io| {
            result = member
                .node
                .submit(io.opts.group, payload, &deps)
                .map_err(|e| GroupError::Rejected(e.to_string()));
            member.flush(io)
        });
        result
    }

    fn events(&mut self) -> &mut Receiver<AppEvent> {
        self.evt_rx
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Waits up to `timeout` for the next application event. `None` means
    /// the timeout elapsed or the member exited.
    pub fn next_event(&mut self, timeout: Duration) -> Option<AppEvent> {
        self.events().recv_timeout(timeout).ok()
    }

    /// Non-blocking event poll.
    pub fn try_event(&mut self) -> Option<AppEvent> {
        self.events().try_recv().ok()
    }

    /// Queries the entity's life-cycle status.
    pub fn status(&self) -> Result<ProcessStatus, GroupError> {
        self.with_engine(Engine::status)
    }

    /// Queries the entity's live counters.
    pub fn stats(&self) -> Result<EngineStats, GroupError> {
        self.with_engine(Engine::stats)
    }

    /// Takes a full serializable snapshot of the entity's state (frontiers,
    /// view, backlog, counters) — the operations surface.
    pub fn snapshot(&self) -> Result<EngineSnapshot, GroupError> {
        self.with_engine(Engine::snapshot)
    }

    /// Runs `f` against the live engine, on this thread and under the
    /// member's lock, and returns its result — arbitrary read-only
    /// observation (the loopback-cluster harness evaluates its quiescence
    /// predicate through this). The member processes nothing while `f`
    /// runs, and `f` must not call back into this member's handle.
    pub fn with_engine<T>(&self, f: impl FnOnce(&Engine) -> T) -> Result<T, GroupError> {
        let slot = self.shared.lock()?;
        let member = slot.as_ref().ok_or(GroupError::ProcessGone)?;
        Ok(f(member.engine(&self.shared)))
    }

    /// Network-layer counters (lock-free read; they outlive the member).
    pub fn net_stats(&self) -> NetStats {
        self.shared.net.snapshot()
    }

    /// Simulates a fail-stop crash: the member is dead when this returns —
    /// mid-protocol, without notifying the group. The survivors are
    /// expected to detect the crash through the protocol's `attempts`
    /// counters within `K` subruns. Killing a dead member is an error.
    pub fn kill(&self) -> Result<(), GroupError> {
        self.shared.end()
    }
}

/// Deferred shutdown token: stops members and joins their threads.
pub struct GroupShutdown {
    members: Vec<Arc<Shared>>,
    threads: Vec<JoinHandle<()>>,
}

impl GroupShutdown {
    /// An empty token, for aggregating members spawned one by one.
    pub fn empty() -> GroupShutdown {
        GroupShutdown {
            members: Vec::new(),
            threads: Vec::new(),
        }
    }

    /// Folds another token's members into this one.
    pub fn merge(&mut self, other: GroupShutdown) {
        self.members.extend(other.members);
        self.threads.extend(other.threads);
    }

    /// Stops all members and joins their threads.
    pub fn shutdown(self) {
        for member in &self.members {
            let _ = member.end(); // already dead is fine
        }
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// Spawns a **single** group member on a pre-bound socket, with the full
/// peer address list supplied explicitly — the deployment shape for real
/// multi-process / multi-host groups (each OS process runs one member and
/// is given everyone's addresses out of band).
///
/// `peers[i]` must be where datagrams *for* process `i` should be sent
/// (its socket, or a middlebox in front of it); `peers[me]` is never
/// dialed. Sender identity travels inside the fragment header, so the
/// entries may point at address-rewriting proxies.
///
/// Members may start at different times: the round clock starts when the
/// startup barrier releases — every peer has been heard from, or the
/// barrier's deadline passed — and a late starter fast-forwards it from
/// the decisions it receives.
pub fn spawn_member_on(
    socket: UdpSocket,
    me: ProcessId,
    peers: Vec<SocketAddr>,
    cfg: ProtocolConfig,
    opts: NodeOptions,
) -> Result<(ProcessHandle, GroupShutdown), GroupError> {
    cfg.validate()
        .map_err(|e| GroupError::Rejected(e.to_string()))?;
    if peers.len() != cfg.n {
        return Err(GroupError::Rejected(format!(
            "peer list has {} entries for a group of {}",
            peers.len(),
            cfg.n
        )));
    }
    if me.index() >= cfg.n {
        return Err(GroupError::Rejected(format!(
            "member {me} outside group of {}",
            cfg.n
        )));
    }
    if !(0.0..=1.0).contains(&opts.loss) {
        return Err(GroupError::Rejected(format!(
            "loss probability {} out of range",
            opts.loss
        )));
    }
    if !(DATA_HEADER_LEN + 1..=MAX_DATAGRAM).contains(&opts.mtu) {
        return Err(GroupError::Rejected(format!(
            "mtu {} outside {}..={MAX_DATAGRAM} (fragment header + 1 byte ..= UDP's limit)",
            opts.mtu,
            DATA_HEADER_LEN + 1
        )));
    }
    let local_addr = socket.local_addr()?;
    socket.set_read_timeout(Some(READ_TIMEOUT))?;

    let (evt_tx, evt_rx) = mpsc::channel::<AppEvent>();
    let member = Member {
        node: Node::single(me, opts.group, cfg),
        frag: Fragmenter::new(me, opts.mtu),
        reasm: Reassembler::new(opts.reassembly_ttl),
        pacer: None,
        evt_tx,
    };
    let shared = Arc::new(Shared {
        me,
        opts,
        socket,
        peers,
        net: NetCounters::default(),
        clock: WallClock::new(),
        member: Mutex::new(Some(member)),
    });

    let mut shutdown = GroupShutdown {
        members: vec![shared.clone()],
        threads: Vec::with_capacity(2),
    };
    for (name, body) in [("rx", receiver_loop as fn(&Shared)), ("tick", ticker_loop)] {
        let shared = shared.clone();
        let spawned = thread::Builder::new()
            .name(format!("urcgc-{name}-{}", me.0))
            .spawn(move || body(&shared));
        match spawned {
            Ok(thread) => shutdown.threads.push(thread),
            Err(e) => {
                shutdown.shutdown();
                return Err(GroupError::Io(e));
            }
        }
    }

    Ok((
        ProcessHandle {
            id: me,
            local_addr,
            evt_rx: Mutex::new(evt_rx),
            shared,
        },
        shutdown,
    ))
}

/// Binds `bind_addr` and spawns a member on it ([`spawn_member_on`]).
pub fn spawn_member(
    me: ProcessId,
    bind_addr: SocketAddr,
    peers: Vec<SocketAddr>,
    cfg: ProtocolConfig,
    opts: NodeOptions,
) -> Result<(ProcessHandle, GroupShutdown), GroupError> {
    let socket = UdpSocket::bind(bind_addr)?;
    spawn_member_on(socket, me, peers, cfg, opts)
}

fn hello(tag: u8, me: ProcessId) -> [u8; HELLO_LEN] {
    let [lo, hi] = me.0.to_le_bytes();
    [tag, lo, hi]
}

/// Parses a hello or hello-ack: its tag and the member announcing itself.
fn parse_hello(buf: &[u8]) -> Option<(u8, ProcessId)> {
    match *buf {
        [tag @ (HELLO | HELLO_ACK), lo, hi] => Some((tag, ProcessId(u16::from_le_bytes([lo, hi])))),
        _ => None,
    }
}

/// Best-effort peek at the sender of an encoded fragment or parity
/// (barrier use).
fn peek_src(buf: &[u8]) -> Option<ProcessId> {
    match TFrame::decode(Bytes::copy_from_slice(buf)) {
        Some(TFrame::Data { src, .. } | TFrame::Parity { src, .. }) => Some(src),
        _ => None,
    }
}

/// Startup barrier + receive loop.
///
/// Fixed-membership round protocols need all members present before
/// attempt counters start ticking, or a late starter is declared crashed
/// before it boots (the paper has no rejoin). Every member bursts hello
/// datagrams at all peers until it has heard *something* from each of them
/// (a hello, a hello-ack or live protocol traffic), with a deadline so a
/// genuinely dead peer cannot wedge startup forever. After the barrier, a
/// member answers any stray hello with a hello-ack — under packet loss a
/// peer may still be stuck in its own barrier, and the answer is what
/// releases it. Hello-acks are never answered.
fn receiver_loop(io: &Shared) {
    let mut buf = vec![0u8; 64 * 1024];
    // One datagram, or `None` when the read timed out; `Err` is fatal.
    let read = |buf: &mut [u8]| match io.socket.recv_from(buf) {
        Ok((len, _)) => {
            io.net.datagrams_rx.fetch_add(1, Ordering::Relaxed);
            io.net.bytes_rx.fetch_add(len as u64, Ordering::Relaxed);
            Ok(Some(len))
        }
        Err(e) if would_block(&e) => Ok(None),
        Err(e) => Err(e),
    };

    let mut seen: HashSet<ProcessId> = [io.me].into();
    let deadline = Instant::now() + io.opts.hello_deadline;
    let mut last_burst: Option<Instant> = None;
    while seen.len() < io.peers.len() && Instant::now() < deadline {
        if io.is_dead() {
            return;
        }
        if last_burst.map_or(true, |t| t.elapsed() >= HELLO_BURST_EVERY) {
            io.hello_burst();
            last_burst = Some(Instant::now());
        }
        let datagram = match read(&mut buf) {
            Ok(Some(len)) => &buf[..len],
            Ok(None) => continue,
            Err(_) => return,
        };
        let from = match parse_hello(datagram) {
            Some((_, from)) => Some(from),
            None => {
                // A peer past its barrier is already talking protocol:
                // that counts as presence, and the frame must not be lost.
                if !io.step(|member, io| member.on_datagram(io, datagram)) {
                    return;
                }
                peek_src(datagram)
            }
        };
        // Neither id is checksummed: one outside the group is nobody, and
        // must not shorten the barrier.
        if let Some(from) = from.filter(|p| p.index() < io.peers.len()) {
            seen.insert(from);
        }
    }
    // One parting burst so peers still inside their barrier see us even if
    // our earlier hellos raced their bind().
    let released = io.step(|member, io| {
        io.hello_burst();
        member.start_clock(io)
    });
    if !released {
        return;
    }

    let mut rng = ChaCha8Rng::seed_from_u64(io.opts.seed);
    loop {
        let datagram = match read(&mut buf) {
            Ok(Some(len)) => &buf[..len],
            Ok(None) if io.is_dead() => return,
            Ok(None) => continue,
            Err(_) => return,
        };
        if io.opts.loss > 0.0 && rng.gen_bool(io.opts.loss) {
            io.net.dropped_loss.fetch_add(1, Ordering::Relaxed);
            continue; // injected omission
        }
        let alive = io.step(|member, io| match parse_hello(datagram) {
            // A hello may come from a peer still inside its startup
            // barrier: answer so it can complete even when its own hellos
            // are being lost.
            Some((HELLO, from)) if from != io.me => {
                if let Some(&addr) = io.peers.get(from.index()) {
                    io.send(&hello(HELLO_ACK, io.me), addr);
                }
                true
            }
            Some(_) => true,
            None => member.on_datagram(io, datagram),
        });
        if !alive {
            return;
        }
    }
}

/// A read that returned no datagram and no fault: it timed out, or — on
/// Linux, a timed `recv_from` in a process stopped (`SIGSTOP`) and resumed
/// (`SIGCONT`) fails with `EINTR` — it was interrupted.
fn would_block(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
    )
}

/// Begins each round as the member's round clock says it is due.
fn ticker_loop(io: &Shared) {
    loop {
        let mut wait = Duration::ZERO;
        if !io.step(|member, io| member.on_tick(io, &mut wait)) {
            return;
        }
        if !wait.is_zero() {
            thread::sleep(wait.clamp(Duration::from_micros(200), Duration::from_millis(50)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawn_rejects_bad_configs() {
        let cfg = ProtocolConfig::new(3);
        let addr: SocketAddr = "127.0.0.1:0".parse().unwrap();
        // Wrong peer-list width.
        let err = spawn_member(
            ProcessId(0),
            addr,
            vec![addr; 2],
            cfg.clone(),
            NodeOptions::default(),
        )
        .err()
        .expect("must reject");
        assert!(matches!(err, GroupError::Rejected(_)), "{err}");
        // Member outside the group.
        let err = spawn_member(
            ProcessId(7),
            addr,
            vec![addr; 3],
            cfg.clone(),
            NodeOptions::default(),
        )
        .err()
        .expect("must reject");
        assert!(matches!(err, GroupError::Rejected(_)), "{err}");
        // Loss probability out of range.
        let err = spawn_member(
            ProcessId(0),
            addr,
            vec![addr; 3],
            cfg,
            NodeOptions::default().loss(1.5, 0),
        )
        .err()
        .expect("must reject");
        assert!(matches!(err, GroupError::Rejected(_)), "{err}");
        // An MTU the fragment header fills, or one UDP cannot carry. Both
        // neighbours are fine.
        for (mtu, ok) in [
            (0, false),
            (DATA_HEADER_LEN, false),
            (DATA_HEADER_LEN + 1, true),
            (MAX_DATAGRAM, true),
            (MAX_DATAGRAM + 1, false),
        ] {
            let spawned = spawn_member(
                ProcessId(0),
                addr,
                vec![addr; 3],
                ProtocolConfig::new(3),
                NodeOptions::default().mtu(mtu),
            );
            match spawned {
                Ok((_, shutdown)) => {
                    shutdown.shutdown();
                    assert!(ok, "mtu {mtu} accepted");
                }
                Err(err) => {
                    assert!(!ok, "mtu {mtu}: {err}");
                    assert!(matches!(err, GroupError::Rejected(_)), "{err}");
                }
            }
        }
    }

    #[test]
    fn hello_codec_roundtrip() {
        for tag in [HELLO, HELLO_ACK] {
            let h = hello(tag, ProcessId(513));
            assert_eq!(parse_hello(&h), Some((tag, ProcessId(513))));
        }
        assert_eq!(parse_hello(&[HELLO, 1]), None, "short datagrams rejected");
        assert_eq!(parse_hello(&[0xD1, 0, 0]), None, "data tag is not a hello");
    }
}
