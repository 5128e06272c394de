//! Cross-lane synchronization mesh for conservative-lookahead parallel
//! execution (DESIGN.md §17).
//!
//! The parallel kernel runs one worker thread per lane. A lane may only
//! execute events strictly earlier than the *horizon* — the minimum of
//! every other lane's published **bound**, a lower limit on the
//! timestamp of any message that lane can still emit. The mesh is the
//! shared state that makes that rule sound:
//!
//! * one [`crate::mailbox`] per ordered lane pair carries timestamped
//!   messages (SPSC by construction: lane *i* is the only producer on
//!   the *i→j* box and lane *j* its only consumer);
//! * one cache-padded bound word per lane, published with `Release`
//!   *after* the doorbells of everything sent in the window, read with
//!   `Acquire` — so when a lane observes bound `B` from a peer, every
//!   message that peer belled before raising to `B` is already visible
//!   in the rings (`bound observed ⇒ batch visible`, the same edge
//!   shape as the mailbox's own bell contract);
//! * a global in-flight counter (incremented *before* a message is
//!   posted, decremented *after* the receiver takes it) plus an idle
//!   lane count, giving a stable quiescence condition
//!   `idle == lanes ∧ inflight == 0` for termination detection.
//!
//! The protocol obligations on the caller (the parallel kernel):
//!
//! 1. loop order per lane: read horizon → drain inboxes → execute the
//!    safe window → publish the new bound;
//! 2. bounds only ever rise, and only between windows;
//! 3. a lane must [`LanePort::exit_idle`] before sending — a send from
//!    an idle lane could race the quiescence check.
//!
//! Everything here is built on the [`crate::sync`] facade, so the mini
//! model checker in `analysis` explores the full interleaving space of
//! this exact source (see `analysis/tests/model_lane.rs`, including the
//! negative control proving a `Relaxed` bound publication breaks the
//! `bound observed ⇒ batch visible` edge).

use crate::mailbox::{mailbox, MailboxRx, MailboxTx};
use crate::sync::AtomicUsize;
use crate::CachePadded;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// State shared by every port of one mesh.
struct MeshShared {
    /// Per-lane published bounds, as `u64` timestamps in nanoseconds
    /// stored in a `usize` (the facade has no 64-bit atomic; the
    /// workspace only targets 64-bit platforms, asserted at build).
    bounds: Vec<CachePadded<AtomicUsize>>,
    /// Messages posted but not yet taken, mesh-wide.
    inflight: CachePadded<AtomicUsize>,
    /// Lanes currently idle (empty heap, nothing pending).
    idle: CachePadded<AtomicUsize>,
    /// Bound-publication ordering: `Release` in production; the model
    /// build can weaken it for negative tests.
    bound_ord: Ordering,
}

const _: () = assert!(
    std::mem::size_of::<usize>() >= 8,
    "lane bounds pack u64 nanoseconds into AtomicUsize"
);

/// One lane's endpoint of the mesh: its outboxes to every peer, its
/// inboxes from every peer, and handles on the shared bound/quiescence
/// words. `Send` but not `Sync`/`Clone` — exactly one owner per lane.
pub struct LanePort<T> {
    id: usize,
    shared: Arc<MeshShared>,
    /// `out[j]` is the *id → j* producer half (`None` at `j == id`).
    out: Vec<Option<MailboxTx<T>>>,
    /// `inbox[j]` is the *j → id* consumer half (`None` at `j == id`).
    inbox: Vec<Option<MailboxRx<T>>>,
    /// Last bound this port published (monotonicity guard).
    published: u64,
    /// Whether this port has entered the idle count.
    idle: bool,
}

/// Build a fully-connected mesh of `lanes` ports whose pairwise
/// mailboxes hold at least `cap` in-flight messages each. All bounds
/// start at 0.
pub fn lane_mesh<T>(lanes: usize, cap: usize) -> Vec<LanePort<T>> {
    // ordering-ok: Release bound publication is the cross-lane edge —
    // "bound observed ⇒ belled batch visible" (DESIGN.md §17).
    mesh_with_ord(lanes, cap, Ordering::Release)
}

/// Like [`lane_mesh`] but with the bound publication downgraded to
/// `bound_ord`. Exists only for the model checker's negative control: a
/// `Relaxed` bound must let a peer observe a raised bound while the
/// belled message under it is still invisible.
#[cfg(feature = "model")]
pub fn lane_mesh_weak<T>(lanes: usize, cap: usize, bound_ord: Ordering) -> Vec<LanePort<T>> {
    mesh_with_ord(lanes, cap, bound_ord)
}

fn mesh_with_ord<T>(lanes: usize, cap: usize, bound_ord: Ordering) -> Vec<LanePort<T>> {
    assert!(lanes >= 1, "a mesh needs at least one lane");
    let shared = Arc::new(MeshShared {
        bounds: (0..lanes)
            .map(|_| CachePadded(AtomicUsize::new(0)))
            .collect(),
        inflight: CachePadded(AtomicUsize::new(0)),
        idle: CachePadded(AtomicUsize::new(0)),
        bound_ord,
    });
    // Channels for every ordered pair: pair[i][j] carries i → j.
    let mut txs: Vec<Vec<Option<MailboxTx<T>>>> = (0..lanes)
        .map(|_| (0..lanes).map(|_| None).collect())
        .collect();
    let mut rxs: Vec<Vec<Option<MailboxRx<T>>>> = (0..lanes)
        .map(|_| (0..lanes).map(|_| None).collect())
        .collect();
    for i in 0..lanes {
        for j in 0..lanes {
            if i == j {
                continue;
            }
            let (tx, rx) = mailbox(cap);
            txs[i][j] = Some(tx);
            // Receiver j indexes its inboxes by the sender's id.
            rxs[j][i] = Some(rx);
        }
    }
    txs.into_iter()
        .zip(rxs)
        .enumerate()
        .map(|(id, (out, inbox))| LanePort {
            id,
            shared: shared.clone(),
            out,
            inbox,
            published: 0,
            idle: false,
        })
        .collect()
}

impl<T> LanePort<T> {
    /// This port's lane index.
    #[inline]
    pub fn id(&self) -> usize {
        self.id
    }

    /// Number of lanes in the mesh.
    #[inline]
    pub fn lanes(&self) -> usize {
        self.shared.bounds.len()
    }

    /// Publish this lane's bound: a promise that every message it sends
    /// from now on carries a timestamp ≥ `bound`. Panics if it decreases,
    /// in release builds too: a regressed bound would let a peer merge
    /// past a message still to come, silently breaking determinism.
    pub fn publish(&mut self, bound: u64) {
        assert!(
            bound >= self.published,
            "lane {} bound regressed: {} -> {bound}",
            self.id,
            self.published
        );
        self.published = bound;
        // ordering-ok: Release orders the bound after every doorbell of
        // the window just finished; pairs with `bound_of`'s Acquire so
        // an observed bound implies the belled messages under it are
        // visible. Model builds may weaken this via `lane_mesh_weak`.
        self.shared.bounds[self.id].store(bound as usize, self.shared.bound_ord);
    }

    /// The bound this port last published.
    #[inline]
    pub fn published(&self) -> u64 {
        self.published
    }

    /// `lane`'s current published bound.
    #[inline]
    pub fn bound_of(&self, lane: usize) -> u64 {
        // ordering-ok: pairs with the Release store in `publish`.
        self.shared.bounds[lane].load(Ordering::Acquire) as u64
    }

    /// This lane's execution horizon: the minimum bound over every
    /// *other* lane. Events strictly earlier than this are safe — no
    /// peer can still send anything below its bound. A 1-lane mesh has
    /// no peers and no limit.
    pub fn horizon(&self) -> u64 {
        let mut min = u64::MAX;
        for j in 0..self.lanes() {
            if j != self.id {
                min = min.min(self.bound_of(j));
            }
        }
        min
    }

    /// Send `msg` to `to`, ringing its doorbell immediately. Returns the
    /// message back if the pairwise ring is full (the caller drains its
    /// own inboxes and retries; the receiver drains every loop, so the
    /// ring empties in bounded time). The in-flight count covers the
    /// message from before it is visible until after it is taken.
    pub fn send(&mut self, to: usize, msg: T) -> Result<(), T> {
        debug_assert!(!self.idle, "idle lanes must exit_idle before sending");
        debug_assert!(to != self.id, "no self-loop mailboxes in the mesh");
        // ordering-ok: AcqRel keeps the increment ordered before the
        // post it covers; a quiescence check that reads 0 is therefore
        // guaranteed no message is past this point and still invisible.
        self.shared.inflight.fetch_add(1, Ordering::AcqRel);
        let tx = self.out[to].as_mut().expect("peer outbox exists");
        match tx.send(msg) {
            Ok(()) => Ok(()),
            Err(m) => {
                // ordering-ok: undo of the optimistic increment above.
                self.shared.inflight.fetch_sub(1, Ordering::AcqRel);
                Err(m)
            }
        }
    }

    /// Take every belled message from every peer into `f(from, msg)`,
    /// returning how many were taken. Peers are drained in lane order,
    /// so the intake order is deterministic given the belled contents.
    pub fn drain(&mut self, mut f: impl FnMut(usize, T)) -> usize {
        let mut n = 0;
        for j in 0..self.inbox.len() {
            let Some(rx) = self.inbox[j].as_mut() else {
                continue;
            };
            while let Some(m) = rx.take() {
                // ordering-ok: AcqRel pairs with the sender's increment;
                // the decrement lands only after the take, so inflight
                // never undercounts a visible-but-untaken message.
                self.shared.inflight.fetch_sub(1, Ordering::AcqRel);
                f(j, m);
                n += 1;
            }
        }
        n
    }

    /// Belled messages waiting across all inboxes.
    pub fn pending(&self) -> usize {
        self.inbox.iter().flatten().map(MailboxRx::pending).sum()
    }

    /// Enter the idle count: this lane has nothing to execute and
    /// nothing pending. Idempotent per `exit_idle`.
    pub fn enter_idle(&mut self) {
        if !self.idle {
            self.idle = true;
            // ordering-ok: AcqRel so the quiescence check's idle read
            // synchronizes with every lane's final drains.
            self.shared.idle.fetch_add(1, Ordering::AcqRel);
        }
    }

    /// Leave the idle count (required before sending or executing).
    pub fn exit_idle(&mut self) {
        if self.idle {
            self.idle = false;
            // ordering-ok: see enter_idle.
            self.shared.idle.fetch_sub(1, Ordering::AcqRel);
        }
    }

    /// Whether this port is currently counted idle.
    #[inline]
    pub fn is_idle(&self) -> bool {
        self.idle
    }

    /// Stable global-quiescence check: every lane idle and no message
    /// in flight. Sends require a non-idle sender and raise `inflight`
    /// before becoming visible, so once this returns `true` no lane can
    /// ever wake again. The idle count is read on both sides of the
    /// in-flight read: if a lane woke between the reads the second idle
    /// read catches it, and a message still invisible at the in-flight
    /// read keeps `inflight` nonzero until taken.
    pub fn quiescent(&self) -> bool {
        let n = self.lanes();
        // ordering-ok: Acquire pairs with the AcqRel counter updates.
        self.shared.idle.load(Ordering::Acquire) == n
            // ordering-ok: seeing idle == n orders this load after every
            // sender's pre-send inflight increment, so an undrained
            // message cannot be missed.
            && self.shared.inflight.load(Ordering::Acquire) == 0
            // ordering-ok: Acquire re-read pins idle across the probe.
            && self.shared.idle.load(Ordering::Acquire) == n
    }

    /// Mesh-wide in-flight message count (diagnostics).
    pub fn inflight(&self) -> usize {
        // ordering-ok: diagnostic snapshot; Acquire for the same edge
        // as `quiescent`.
        self.shared.inflight.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering as StdOrd};
    use std::sync::Mutex;

    #[test]
    fn mesh_wires_every_ordered_pair() {
        let mut ports = lane_mesh::<u64>(3, 4);
        assert_eq!(ports.len(), 3);
        for (i, p) in ports.iter().enumerate() {
            assert_eq!(p.id(), i);
            assert_eq!(p.lanes(), 3);
            assert_eq!(p.horizon(), 0, "all bounds start at zero");
        }
        // 0 → 1, 0 → 2, then each drains only its own inbox.
        let (a, rest) = ports.split_at_mut(1);
        a[0].send(1, 10).unwrap();
        a[0].send(2, 20).unwrap();
        let mut got = Vec::new();
        rest[0].drain(|from, v| got.push((from, v)));
        assert_eq!(got, vec![(0, 10)]);
        got.clear();
        rest[1].drain(|from, v| got.push((from, v)));
        assert_eq!(got, vec![(0, 20)]);
        assert_eq!(a[0].inflight(), 0);
    }

    #[test]
    fn horizon_is_min_over_peers_and_rises() {
        let mut ports = lane_mesh::<()>(3, 2);
        ports[1].publish(50);
        ports[2].publish(30);
        assert_eq!(ports[0].horizon(), 30);
        assert_eq!(ports[1].horizon(), 0, "lane 0 still at its floor");
        ports[0].publish(40);
        assert_eq!(ports[1].horizon(), 30);
        ports[2].publish(90);
        assert_eq!(ports[0].horizon(), 50);
        assert_eq!(ports[0].published(), 40);
    }

    #[test]
    #[should_panic(expected = "bound regressed")]
    fn bound_regression_is_caught() {
        let mut ports = lane_mesh::<()>(2, 2);
        ports[0].publish(10);
        ports[0].publish(9);
    }

    #[test]
    fn full_ring_bounces_and_restores_inflight() {
        let mut ports = lane_mesh::<u32>(2, 2);
        let mut sent = 0;
        while ports[0].send(1, sent).is_ok() {
            sent += 1;
            assert!(sent < 1000, "ring never filled");
        }
        assert_eq!(ports[0].inflight(), sent as usize);
        let mut n = 0;
        let drained = ports[1].drain(|_, v| {
            assert_eq!(v, n);
            n += 1;
        });
        assert_eq!(drained, sent as usize);
        assert_eq!(ports[0].inflight(), 0);
        // Space freed: the bounced send now goes through.
        ports[0].send(1, 99).unwrap();
    }

    #[test]
    fn quiescence_requires_all_idle_and_nothing_inflight() {
        let mut ports = lane_mesh::<u8>(2, 4);
        assert!(!ports[0].quiescent());
        ports[0].enter_idle();
        ports[1].enter_idle();
        assert!(ports[0].quiescent());
        // A send keeps the mesh live until the message is taken.
        ports[0].exit_idle();
        ports[0].send(1, 7).unwrap();
        ports[0].enter_idle();
        assert!(!ports[0].quiescent(), "in-flight message blocks quiescence");
        ports[1].exit_idle();
        ports[1].drain(|_, _| {});
        ports[1].enter_idle();
        assert!(ports[1].quiescent());
        // enter/exit are idempotent per state.
        ports[1].enter_idle();
        assert!(ports[0].quiescent());
    }

    /// Two real threads ping-pong timestamped tokens through the mesh
    /// while both obey the protocol (exit idle → drain → send →
    /// publish, idle only with nothing to do). The `bound observed ⇒
    /// message visible` edge is asserted on every observation. Runs
    /// under the tsan job (name matches its filter).
    #[test]
    fn lane_mesh_two_thread_stress() {
        const ROUNDS: u64 = if cfg!(miri) { 50 } else { 2000 };
        let mut ports = lane_mesh::<u64>(2, 8);
        let p1 = ports.pop().unwrap();
        let p0 = ports.pop().unwrap();
        let run = |mut p: LanePort<u64>, first: bool| {
            let mut next = if first { Some(0u64) } else { None };
            let mut last_seen = 0u64;
            loop {
                if next.is_some() || p.pending() > 0 {
                    p.exit_idle();
                }
                if !p.is_idle() {
                    let horizon = p.horizon();
                    p.drain(|_, v| {
                        assert!(v >= last_seen);
                        last_seen = v;
                        if v < ROUNDS {
                            next = Some(v + 1);
                        }
                    });
                    // Conservative contract: everything the peer belled
                    // below its bound must be visible once the bound
                    // is, so our view can never lag the horizon.
                    assert!(
                        last_seen + 1 >= horizon.min(ROUNDS),
                        "observed bound {horizon} but only saw {last_seen}"
                    );
                    if let Some(v) = next.take() {
                        let peer = 1 - p.id();
                        let mut msg = v;
                        while let Err(m) = p.send(peer, msg) {
                            msg = m;
                            std::thread::yield_now();
                        }
                        p.publish(v + 1);
                    }
                    if p.pending() == 0 {
                        p.enter_idle();
                    }
                }
                if p.is_idle() && p.quiescent() {
                    return last_seen;
                }
                std::thread::yield_now();
            }
        };
        let (a, b) = std::thread::scope(|s| {
            let ta = s.spawn(|| run(p0, true));
            let tb = s.spawn(|| run(p1, false));
            (ta.join().unwrap(), tb.join().unwrap())
        });
        assert_eq!(a.max(b), ROUNDS);
    }

    /// Four threads, ring fan-out: lane 0 seeds tokens, every lane
    /// forwards each token to the next lane until its hop budget runs
    /// out; the mesh must deliver every hop exactly once and terminate
    /// quiescent. Runs under the tsan job (name matches its filter).
    #[test]
    fn lane_mesh_concurrent_fanout_conserves_messages() {
        const LANES: usize = 4;
        const SEEDS: u64 = if cfg!(miri) { 8 } else { 64 };
        const HOPS: u64 = 5;
        let ports = lane_mesh::<(u64, u64)>(LANES, 256);
        let delivered = AtomicU64::new(0);
        let logs: Vec<Mutex<Vec<u64>>> = (0..LANES).map(|_| Mutex::new(Vec::new())).collect();
        std::thread::scope(|s| {
            for (i, mut p) in ports.into_iter().enumerate() {
                let delivered = &delivered;
                let logs = &logs;
                s.spawn(move || {
                    let mut outbox: Vec<(u64, u64)> = Vec::new();
                    if i == 0 {
                        outbox.extend((0..SEEDS).map(|seed| (seed, HOPS)));
                    }
                    let to = (i + 1) % LANES;
                    loop {
                        if !outbox.is_empty() || p.pending() > 0 {
                            p.exit_idle();
                        }
                        if !p.is_idle() {
                            p.drain(|_, (tok, hops)| {
                                delivered.fetch_add(1, StdOrd::Relaxed);
                                logs[i].lock().unwrap().push(tok);
                                if hops > 1 {
                                    outbox.push((tok, hops - 1));
                                }
                            });
                            while let Some(mut msg) = outbox.pop() {
                                while let Err(m) = p.send(to, msg) {
                                    msg = m;
                                    std::thread::yield_now();
                                }
                            }
                            if p.pending() == 0 {
                                p.enter_idle();
                            }
                        }
                        if p.is_idle() && p.quiescent() {
                            break;
                        }
                        std::thread::yield_now();
                    }
                });
            }
        });
        assert_eq!(delivered.load(StdOrd::Relaxed), SEEDS * HOPS);
        let mut per_token = vec![0u64; SEEDS as usize];
        for l in &logs {
            for &tok in l.lock().unwrap().iter() {
                per_token[tok as usize] += 1;
            }
        }
        assert!(per_token.iter().all(|&c| c == HOPS), "uneven hop delivery");
    }
}
