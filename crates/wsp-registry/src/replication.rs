//! VR-lite primary/backup replication as a pure transition function.
//!
//! One [`ReplicaMachine`] per group member, in the exact mould of the
//! viewstamped-replication simulator the roadmap points at: a view
//! number names the primary (`view % n`), the primary appends client
//! ops to its log and streams `Prepare`s, backups acknowledge with
//! `PrepareOk`, and the primary commits a slot once a majority of the
//! group (itself plus `f` backups, `f = (n-1)/2`) holds it. When
//! backups suspect the primary they start a view change
//! (`StartViewChange` → quorum → `DoViewChange` to the new primary →
//! `StartView`), and the new primary adopts the *best* log offered —
//! the log catch-up that makes a committed registration survive the
//! crash. Skipping that catch-up is exactly the seeded mutation
//! ([`SkipLogCatchup`]) `wsp-check` condemns.
//!
//! **A log that forgets.** A replica's cost must not grow with the
//! shard's age, so the log keeps only a suffix: slots
//! `log_start + 1 ..= log_start + log.len()`. What may be dropped is
//! decided by acknowledgements, which are *cumulative*: a backup appends
//! only in slot order, so its `PrepareOk` for slot *k* says it holds
//! every slot ≤ *k* of that view's primary. The primary therefore keeps
//! one high-water mark per member ([`ReplicaState::acked`]) instead of a
//! tally per slot, and two points fall out of the marks — the **commit
//! point**, the quorum-th highest (a majority holds it), and the
//! **group-stable point**, the lowest, capped by the commit point
//! (*every* member holds it, and it is committed). The primary sends
//! the stable point along on `Prepare` and `Commit` (and broadcasts a
//! `Commit` when the stable point alone has moved); every replica
//! drops the slots at or below `min(stable, own commit_num)` — never one
//! it has not applied, never one some member has not acknowledged. That
//! is why no snapshot transfer is needed: whatever a member is missing,
//! somebody still holds. A crashed member pins the stable point (the
//! survivors' logs grow by what is published meanwhile) until it
//! returns and acknowledges; a view change resets the marks, so
//! truncation resumes once every member has acknowledged in the new
//! view.
//!
//! `DoViewChange` and `StartView` carry `(log_start, suffix)`, and the
//! receiver **splices**: it keeps the slots it already dropped dropped,
//! keeps its own slots below the offered `log_start` (all members
//! acknowledged those, so they are the committed ops), and takes the
//! offered suffix from there on. A suffix starting beyond the receiver's
//! own log end would leave a hole — `wsp-check` shows the genuine
//! machine never produces one, and condemns [`TruncateToOwnCommit`],
//! which does.
//!
//! The machine is pure: no clocks, no sockets, no randomness. Time
//! enters as [`ReplEvent::PrimaryTimeout`] (the shell's watchdog) and
//! I/O leaves as [`ReplEffect`]s the shell executes. That is what lets
//! `wsp-check` explore every interleaving of a bounded configuration
//! via [`GroupMachine`], and lets the runtime shell in [`crate::cluster`]
//! and the E16 simulation drive the *same* transitions:
//! [`step_replica_into`] is the transition function, the shell calls it
//! on the state it owns, and the [`Machine`] the checker explores calls
//! it too.

use std::fmt::Debug;
use std::hash::Hash;
use wsp_simnet::Machine;

pub type ReplicaId = u8;

/// Where a replica is in the view-change protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Status {
    Normal,
    ViewChange,
}

/// Protocol messages between group members.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ReplMsg<Op> {
    Prepare {
        view: u32,
        op_num: u32,
        op: Op,
        commit_num: u32,
        /// The primary's group-stable point (module doc).
        stable: u32,
    },
    /// Cumulative: the sender holds every slot ≤ `op_num`.
    PrepareOk {
        view: u32,
        op_num: u32,
        from: ReplicaId,
    },
    Commit {
        view: u32,
        commit_num: u32,
        stable: u32,
    },
    StartViewChange {
        view: u32,
        from: ReplicaId,
    },
    DoViewChange {
        view: u32,
        offer: LogOffer<Op>,
    },
    StartView {
        view: u32,
        log_start: u32,
        log: Vec<Op>,
        commit_num: u32,
    },
    /// A backup noticed a log gap (a `Prepare` beyond its next slot):
    /// ask the view's primary for a state transfer (VR §5.2). The
    /// primary answers with `StartView`, the same catch-up message an
    /// election ends with.
    NeedState {
        view: u32,
        from: ReplicaId,
    },
}

/// A log offered during a view change.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LogOffer<Op> {
    pub from: ReplicaId,
    pub last_normal: u32,
    pub commit_num: u32,
    pub log_start: u32,
    pub log: Vec<Op>,
}

impl<Op> LogOffer<Op> {
    fn log_end(&self) -> u32 {
        self.log_start + self.log.len() as u32
    }
}

/// One member's complete protocol state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ReplicaState<Op> {
    pub id: ReplicaId,
    pub status: Status,
    pub view: u32,
    /// The last view in which this replica was `Normal` — the
    /// tiebreaker that picks the freshest log during view change.
    pub last_normal: u32,
    /// How many leading slots have been dropped: `log[i]` is slot
    /// `log_start + i + 1`. Never above `commit_num`.
    pub log_start: u32,
    /// The retained suffix of the op log.
    pub log: Vec<Op>,
    /// How many leading log slots are committed (and applied).
    pub commit_num: u32,
    /// Primary-side: per member, the highest slot it has acknowledged
    /// in this view (cumulative, so one number each; the primary's own
    /// entry is unused — it holds its whole log).
    pub acked: Vec<u32>,
    /// `StartViewChange` voters for `view` (self included), sorted.
    pub svc_votes: Vec<ReplicaId>,
    /// `DoViewChange` offers collected by a would-be primary, sorted by
    /// sender.
    pub dvc: Vec<LogOffer<Op>>,
}

impl<Op> ReplicaState<Op> {
    /// The highest slot this replica holds.
    pub fn log_end(&self) -> u32 {
        self.log_start + self.log.len() as u32
    }

    /// The op in `slot` (1-based), if it is still retained.
    pub fn slot(&self, slot: u32) -> Option<&Op> {
        let index = slot.checked_sub(self.log_start + 1)?;
        self.log.get(index as usize)
    }

    /// Drop every retained slot ≤ `slot`.
    pub fn discard_through(&mut self, slot: u32) {
        let drop = slot.min(self.log_end()).saturating_sub(self.log_start);
        self.log.drain(..drop as usize);
        self.log_start += drop;
    }
}

/// Events the shell can feed a replica.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ReplEvent<Op> {
    /// A client op arriving at this replica.
    Client(Op),
    /// A protocol message from a peer.
    Recv { from: ReplicaId, msg: ReplMsg<Op> },
    /// The shell's watchdog suspects the current primary.
    PrimaryTimeout,
}

/// Effects the shell executes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplEffect<Op> {
    Send {
        to: ReplicaId,
        msg: ReplMsg<Op>,
    },
    /// Apply committed slot `op_num` (1-based) to the local store.
    Apply {
        op_num: u32,
        op: Op,
    },
    /// Primary: the op at `op_num` is durable; answer the client.
    ClientAck {
        op_num: u32,
    },
    /// Not the primary: point the client at the view's primary.
    Redirect {
        view: u32,
        primary: ReplicaId,
    },
    BecamePrimary {
        view: u32,
    },
    AdoptedView {
        view: u32,
    },
}

/// The pure per-replica machine. `n` is the group size; `id` this
/// member's index within it.
#[derive(Debug, Clone, Copy)]
pub struct ReplicaMachine {
    pub n: u8,
    pub id: ReplicaId,
}

impl ReplicaMachine {
    pub fn primary_of(&self, view: u32) -> ReplicaId {
        (view % self.n as u32) as ReplicaId
    }

    /// Majority including self: `f + 1`.
    pub fn quorum(&self) -> usize {
        self.n as usize / 2 + 1
    }

    /// This member's initial state (generic in `Op`; `Machine::initial`
    /// instantiates it at `u64`, the shell at
    /// [`crate::cluster::ClusterOp`]).
    pub fn initial_state<Op>(&self) -> ReplicaState<Op> {
        ReplicaState {
            id: self.id,
            status: Status::Normal,
            view: 0,
            last_normal: 0,
            log_start: 0,
            log: Vec::new(),
            commit_num: 0,
            acked: vec![0; self.n as usize],
            svc_votes: Vec::new(),
            dvc: Vec::new(),
        }
    }

    fn is_primary<Op>(&self, state: &ReplicaState<Op>, view: u32) -> bool {
        state.status == Status::Normal && view == state.view && self.primary_of(view) == self.id
    }

    fn others(&self) -> impl Iterator<Item = ReplicaId> + '_ {
        (0..self.n).filter(move |&r| r != self.id)
    }

    fn broadcast<Op: Clone>(&self, effects: &mut Vec<ReplEffect<Op>>, msg: &ReplMsg<Op>) {
        for to in self.others() {
            effects.push(ReplEffect::Send {
                to,
                msg: msg.clone(),
            });
        }
    }

    /// Advance `commit_num` to `target`, emitting `Apply` per new slot.
    fn apply_up_to<Op: Clone>(
        state: &mut ReplicaState<Op>,
        target: u32,
        effects: &mut Vec<ReplEffect<Op>>,
    ) {
        let target = target.min(state.log_end());
        while state.commit_num < target {
            let Some(op) = state.slot(state.commit_num + 1) else {
                // A hole below the commit point: only a sabotaged
                // truncation can dig one (`splice`). Stepping over it
                // is the lost apply `wsp-check` condemns.
                state.commit_num = state.log_start;
                continue;
            };
            let op = op.clone();
            state.commit_num += 1;
            effects.push(ReplEffect::Apply {
                op_num: state.commit_num,
                op,
            });
        }
    }

    /// Adopt an offered `(log_start, suffix)` — the splice rule of the
    /// module doc. Slots this replica already dropped stay dropped; its
    /// own slots below the offer's `log_start` stay (every member
    /// acknowledged them: they are the committed ops); from there on
    /// the offer replaces whatever was held.
    fn splice<Op: Clone>(state: &mut ReplicaState<Op>, log_start: u32, log: &[Op]) {
        if log_start > state.log_end() {
            // The offer starts beyond what is held: the slots between
            // are gone for good. The genuine protocol never gets here —
            // nobody discards a slot some member has not acknowledged.
            state.log_start = log_start;
            state.log.clear();
        }
        let keep = log_start.saturating_sub(state.log_start) as usize;
        let skip = state.log_start.saturating_sub(log_start) as usize;
        state.log.truncate(keep);
        state.log.extend_from_slice(log.get(skip..).unwrap_or(&[]));
    }

    /// Start (or join) a view change towards `view`.
    fn enter_view_change<Op: Clone + Eq>(
        &self,
        state: &mut ReplicaState<Op>,
        view: u32,
        also_from: Option<ReplicaId>,
        effects: &mut Vec<ReplEffect<Op>>,
    ) {
        state.status = Status::ViewChange;
        state.view = view;
        state.acked.fill(0);
        state.dvc.clear();
        state.svc_votes = vec![self.id];
        if let Some(from) = also_from {
            if !state.svc_votes.contains(&from) {
                state.svc_votes.push(from);
            }
        }
        state.svc_votes.sort_unstable();
        self.broadcast(
            effects,
            &ReplMsg::StartViewChange {
                view,
                from: self.id,
            },
        );
        self.maybe_do_view_change(state, effects);
    }

    /// On reaching the `StartViewChange` quorum, offer our log to the
    /// new primary (or, if that is us, collect our own offer).
    fn maybe_do_view_change<Op: Clone + Eq>(
        &self,
        state: &mut ReplicaState<Op>,
        effects: &mut Vec<ReplEffect<Op>>,
    ) {
        if state.status != Status::ViewChange || state.svc_votes.len() < self.quorum() {
            return;
        }
        // Only offer once per view change: the dvc/send happens exactly
        // when the quorum is first reached (votes only grow).
        if state.svc_votes.len() > self.quorum() {
            return;
        }
        let offer = LogOffer {
            from: self.id,
            last_normal: state.last_normal,
            commit_num: state.commit_num,
            log_start: state.log_start,
            log: state.log.clone(),
        };
        let new_primary = self.primary_of(state.view);
        if new_primary == self.id {
            Self::record_dvc(state, offer);
            self.maybe_start_view(state, effects);
        } else {
            effects.push(ReplEffect::Send {
                to: new_primary,
                msg: ReplMsg::DoViewChange {
                    view: state.view,
                    offer,
                },
            });
        }
    }

    fn record_dvc<Op>(state: &mut ReplicaState<Op>, offer: LogOffer<Op>) {
        if !state.dvc.iter().any(|held| held.from == offer.from) {
            state.dvc.push(offer);
            state.dvc.sort_by_key(|held| held.from);
        }
    }

    /// With a `DoViewChange` quorum, adopt the best offered log and
    /// start the new view.
    fn maybe_start_view<Op: Clone + Eq>(
        &self,
        state: &mut ReplicaState<Op>,
        effects: &mut Vec<ReplEffect<Op>>,
    ) {
        if state.status != Status::ViewChange || state.dvc.len() < self.quorum() {
            return;
        }
        // The freshest log wins: highest last-normal view, longest log
        // as tiebreaker — any log containing a committed op is in a
        // majority, and a DoViewChange quorum intersects it.
        let offers = std::mem::take(&mut state.dvc);
        let best = offers
            .iter()
            .max_by_key(|offer| (offer.last_normal, offer.log_end(), offer.from))
            .expect("quorum is non-empty");
        let max_commit = offers.iter().map(|o| o.commit_num).max().unwrap_or(0);
        Self::splice(state, best.log_start, &best.log);
        state.status = Status::Normal;
        state.last_normal = state.view;
        state.svc_votes.clear();
        state.acked.fill(0);
        effects.push(ReplEffect::BecamePrimary { view: state.view });
        Self::apply_up_to(state, max_commit, effects);
        self.broadcast(
            effects,
            &ReplMsg::StartView {
                view: state.view,
                log_start: state.log_start,
                log: state.log.clone(),
                commit_num: state.commit_num,
            },
        );
    }

    /// The group-stable point as this primary knows it: the lowest
    /// high-water mark (its own is its log end), capped by the commit
    /// point.
    fn stable_point<Op>(&self, state: &ReplicaState<Op>) -> u32 {
        self.others()
            .map(|member| state.acked[member as usize])
            .min()
            .unwrap_or(state.commit_num)
            .min(state.commit_num)
    }

    /// Primary-side: move the commit point to the quorum-th highest
    /// mark and drop what the whole group holds. Either point moving is
    /// news for the backups — a commit to apply, slots to let go of —
    /// and is broadcast; returns whether it was.
    fn advance_commits<Op: Clone + Eq>(
        &self,
        state: &mut ReplicaState<Op>,
        effects: &mut Vec<ReplEffect<Op>>,
    ) -> bool {
        // The highest slot that a quorum of marks reaches (the
        // primary's own mark is its log end).
        let log_end = state.log_end();
        let mark = |member: ReplicaId| match member == self.id {
            true => log_end,
            false => state.acked[member as usize],
        };
        let committed = (0..self.n)
            .map(mark)
            .filter(|&slot| (0..self.n).filter(|&m| mark(m) >= slot).count() >= self.quorum())
            .max()
            .unwrap_or(0);
        let before = state.commit_num;
        Self::apply_up_to(state, committed, effects);
        for op_num in before + 1..=state.commit_num {
            effects.push(ReplEffect::ClientAck { op_num });
        }
        let stable = self.stable_point(state);
        let news = state.commit_num > before || stable > state.log_start;
        if news {
            self.broadcast(
                effects,
                &ReplMsg::Commit {
                    view: state.view,
                    commit_num: state.commit_num,
                    stable,
                },
            );
        }
        state.discard_through(stable);
        news
    }
}

impl Machine for ReplicaMachine {
    type State = ReplicaState<u64>;
    type Event = ReplEvent<u64>;
    type Effect = ReplEffect<u64>;

    fn initial(&self) -> ReplicaState<u64> {
        self.initial_state()
    }

    fn step_into(
        &self,
        state: &mut ReplicaState<u64>,
        event: &ReplEvent<u64>,
        out: &mut Vec<ReplEffect<u64>>,
    ) {
        step_replica_into(self, state, event, out)
    }
}

/// The transition function itself, generic over the op payload so the
/// checker (compact `u64` ops) and the runtime shell (real registry
/// ops) drive identical logic. Mutates `state` and appends to `effects`
/// (never reading it): a step costs what its event touches, not what
/// the replica holds.
pub fn step_replica_into<Op: Clone + Eq + Hash + Debug>(
    m: &ReplicaMachine,
    state: &mut ReplicaState<Op>,
    event: &ReplEvent<Op>,
    effects: &mut Vec<ReplEffect<Op>>,
) {
    match event {
        ReplEvent::Client(op) => {
            if m.is_primary(state, state.view) {
                state.log.push(op.clone());
                let op_num = state.log_end();
                if m.n == 1 {
                    // Degenerate single-node group: commit immediately
                    // (and, being the whole group, keep nothing).
                    m.advance_commits(state, effects);
                } else {
                    m.broadcast(
                        effects,
                        &ReplMsg::Prepare {
                            view: state.view,
                            op_num,
                            op: op.clone(),
                            commit_num: state.commit_num,
                            stable: m.stable_point(state),
                        },
                    );
                }
            } else {
                effects.push(ReplEffect::Redirect {
                    view: state.view,
                    primary: m.primary_of(state.view),
                });
            }
        }
        ReplEvent::PrimaryTimeout => {
            // Can't suspect ourselves while we are the Normal primary.
            if !m.is_primary(state, state.view) {
                let view = state.view + 1;
                m.enter_view_change(state, view, None, effects);
            }
        }
        ReplEvent::Recv { from, msg } => match msg {
            ReplMsg::Prepare {
                view,
                op_num,
                op,
                commit_num,
                stable,
            } => {
                let is_backup = state.status == Status::Normal
                    && *view == state.view
                    && m.primary_of(state.view) != m.id;
                if is_backup {
                    if *op_num == state.log_end() + 1 {
                        state.log.push(op.clone());
                    }
                    if *op_num <= state.log_end() {
                        // Appended now or already held (retransmit):
                        // acknowledge idempotently.
                        effects.push(ReplEffect::Send {
                            to: *from,
                            msg: ReplMsg::PrepareOk {
                                view: *view,
                                op_num: *op_num,
                                from: m.id,
                            },
                        });
                    } else {
                        // A gap: this backup slept through earlier
                        // Prepares (down, messages dropped) and can
                        // never ack again without the missing slots —
                        // with one other member down that silence
                        // starves the commit quorum for good. Ask the
                        // primary for a state transfer.
                        effects.push(ReplEffect::Send {
                            to: *from,
                            msg: ReplMsg::NeedState {
                                view: *view,
                                from: m.id,
                            },
                        });
                    }
                    ReplicaMachine::apply_up_to(state, *commit_num, effects);
                    state.discard_through((*stable).min(state.commit_num));
                }
            }
            ReplMsg::PrepareOk { view, op_num, from } => {
                if m.is_primary(state, *view) {
                    let mark = &mut state.acked[*from as usize];
                    *mark = (*mark).max(*op_num);
                    let announced = m.advance_commits(state, effects);
                    if !announced && *op_num <= state.commit_num {
                        // Stale ack for an already-committed slot: the
                        // backup's Prepare outran the Commit broadcast
                        // (reordering). Refresh its commit point so a
                        // lone straggler still converges.
                        effects.push(ReplEffect::Send {
                            to: *from,
                            msg: ReplMsg::Commit {
                                view: state.view,
                                commit_num: state.commit_num,
                                stable: m.stable_point(state),
                            },
                        });
                    }
                }
            }
            ReplMsg::Commit {
                view,
                commit_num,
                stable,
            } => {
                if state.status == Status::Normal && *view == state.view {
                    ReplicaMachine::apply_up_to(state, *commit_num, effects);
                    state.discard_through((*stable).min(state.commit_num));
                }
            }
            ReplMsg::StartViewChange { view, from } => {
                if *view > state.view {
                    m.enter_view_change(state, *view, Some(*from), effects);
                } else if *view == state.view && state.status == Status::ViewChange {
                    let before = state.svc_votes.len();
                    if !state.svc_votes.contains(from) {
                        state.svc_votes.push(*from);
                        state.svc_votes.sort_unstable();
                    }
                    if before < m.quorum() {
                        m.maybe_do_view_change(state, effects);
                    }
                }
            }
            ReplMsg::DoViewChange { view, offer } => {
                if m.primary_of(*view) == m.id {
                    if *view > state.view {
                        // Others are ahead of us: join the view change
                        // we are supposed to lead.
                        m.enter_view_change(state, *view, None, effects);
                    }
                    if *view == state.view && state.status == Status::ViewChange {
                        ReplicaMachine::record_dvc(state, offer.clone());
                        m.maybe_start_view(state, effects);
                    }
                }
            }
            ReplMsg::StartView {
                view,
                log_start,
                log,
                commit_num,
            } => {
                // Same-view Normal backups adopt too: that is the
                // state-transfer reply. The primary's log for its own
                // view is authoritative (backups hold only what it
                // prepared).
                let adopt = *view > state.view
                    || (*view == state.view
                        && (state.status == Status::ViewChange
                            || m.primary_of(state.view) != m.id));
                if adopt {
                    // A Normal backup of this very view holds a prefix
                    // of the primary's log, which only grows: a shorter
                    // offer is an older one that was overtaken on the
                    // way, and must not take acknowledged slots back.
                    let overtaken = *view == state.view
                        && state.status == Status::Normal
                        && *log_start + (log.len() as u32) < state.log_end();
                    if !overtaken {
                        ReplicaMachine::splice(state, *log_start, log);
                    }
                    state.status = Status::Normal;
                    state.view = *view;
                    state.last_normal = *view;
                    state.acked.fill(0);
                    state.svc_votes.clear();
                    state.dvc.clear();
                    effects.push(ReplEffect::AdoptedView { view: *view });
                    ReplicaMachine::apply_up_to(state, *commit_num, effects);
                    // Per VR: acknowledge what the adopted log holds
                    // beyond the commit point (one cumulative ack). The
                    // new primary reset its marks when the view started,
                    // so ops prepared under the old view would
                    // otherwise never gather a quorum again and the
                    // commit point would stall at the gap forever.
                    if state.log_end() > state.commit_num {
                        effects.push(ReplEffect::Send {
                            to: *from,
                            msg: ReplMsg::PrepareOk {
                                view: *view,
                                op_num: state.log_end(),
                                from: m.id,
                            },
                        });
                    }
                }
            }
            ReplMsg::NeedState { view, from } => {
                // State-transfer request from a gapped backup: answer
                // with the same StartView an election ends with. Only
                // the Normal primary of that view may serve it — anyone
                // else's log is not authoritative.
                if m.is_primary(state, *view) {
                    effects.push(ReplEffect::Send {
                        to: *from,
                        msg: ReplMsg::StartView {
                            view: state.view,
                            log_start: state.log_start,
                            log: state.log.clone(),
                            commit_num: state.commit_num,
                        },
                    });
                }
            }
        },
    }
}

// ---------------------------------------------------------------------------
// The group: replicas × lossy network, explored by wsp-check
// ---------------------------------------------------------------------------

/// The whole replication group plus its in-flight network, as one
/// machine: this is the configuration `wsp-check` exhausts. Ghost
/// state (the globally committed op sequence, and which replica claimed
/// each view) makes the safety invariants checkable per state/edge.
#[derive(Debug, Clone)]
pub struct GroupMachine<R> {
    pub n: u8,
    /// One (possibly sabotaged) machine per member.
    pub members: Vec<R>,
    /// Fixed op sequence submitted during exploration.
    pub ops: Vec<u64>,
    pub max_crashes: u8,
    pub max_view: u32,
}

impl GroupMachine<ReplicaMachine> {
    /// The genuine bounded configuration: 3 replicas, the given ops,
    /// one crash, one full view change.
    pub fn genuine(n: u8, ops: Vec<u64>) -> Self {
        GroupMachine {
            n,
            members: (0..n).map(|id| ReplicaMachine { n, id }).collect(),
            ops,
            max_crashes: 1,
            max_view: 1,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GroupState<Op> {
    pub replicas: Vec<ReplicaState<Op>>,
    /// In-flight messages `(dst, src, msg)`, kept sorted so states
    /// that differ only in arrival bookkeeping hash identically.
    pub net: Vec<(ReplicaId, ReplicaId, ReplMsg<Op>)>,
    pub crashed: Vec<bool>,
    /// Ghost: the committed op sequence, in commit order.
    pub committed: Vec<Op>,
    /// Ghost: which replica claimed each view `(view, replica)`.
    pub primaries: Vec<(u32, ReplicaId)>,
    pub ops_submitted: u8,
    pub crashes: u8,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GroupEvent {
    /// Submit the next scripted op to replica `to`.
    Submit {
        to: ReplicaId,
    },
    /// Deliver in-flight message `net[index]`.
    Deliver {
        index: u8,
    },
    Crash {
        replica: ReplicaId,
    },
    /// Replica `replica`'s watchdog suspects its primary.
    Timeout {
        replica: ReplicaId,
    },
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GroupEffect {
    At {
        replica: ReplicaId,
        effect: ReplEffect<u64>,
    },
    /// A committed slot disagreed with (or skipped past) the ghost
    /// committed sequence — the no-lost-commit invariant trips on this.
    CommitDiverged { replica: ReplicaId, op_num: u32 },
    /// Two distinct replicas claimed the same view.
    DuplicatePrimary { view: u32 },
    /// A replica's commit point moved past a slot it never applied: it
    /// adopted a log that left a hole above what it held.
    ApplySkipped { replica: ReplicaId },
}

impl<R> GroupMachine<R>
where
    R: Machine<State = ReplicaState<u64>, Event = ReplEvent<u64>, Effect = ReplEffect<u64>>,
{
    fn dispatch(
        &self,
        state: &mut GroupState<u64>,
        replica: ReplicaId,
        event: &ReplEvent<u64>,
        out: &mut Vec<GroupEffect>,
    ) {
        let member = &mut state.replicas[replica as usize];
        let commit_before = member.commit_num;
        let mut effects = Vec::new();
        self.members[replica as usize].step_into(member, event, &mut effects);
        let applied = effects
            .iter()
            .filter(|e| matches!(e, ReplEffect::Apply { .. }))
            .count() as u32;
        if member.commit_num > commit_before + applied {
            out.push(GroupEffect::ApplySkipped { replica });
        }
        for effect in effects {
            match &effect {
                // Messages to crashed members are pruned eagerly: they
                // could never be delivered anyway, and keeping them out
                // of `net` keeps the state space tight.
                ReplEffect::Send { to, msg } if !state.crashed[*to as usize] => {
                    state.net.push((*to, replica, msg.clone()));
                }
                ReplEffect::Apply { op_num, op } => {
                    let slot = *op_num as usize;
                    if slot == state.committed.len() + 1 {
                        state.committed.push(*op);
                    } else if slot <= state.committed.len() {
                        if state.committed[slot - 1] != *op {
                            out.push(GroupEffect::CommitDiverged {
                                replica,
                                op_num: *op_num,
                            });
                        }
                    } else {
                        out.push(GroupEffect::CommitDiverged {
                            replica,
                            op_num: *op_num,
                        });
                    }
                }
                ReplEffect::BecamePrimary { view } => {
                    match state.primaries.iter().find(|(v, _)| v == view) {
                        Some((_, claimed)) if *claimed != replica => {
                            out.push(GroupEffect::DuplicatePrimary { view: *view });
                        }
                        Some(_) => {}
                        None => state.primaries.push((*view, replica)),
                    }
                }
                _ => {}
            }
            out.push(GroupEffect::At { replica, effect });
        }
    }

    /// Events enabled in `state` — the alphabet `wsp-check` explores.
    pub fn enabled(&self, state: &GroupState<u64>) -> Vec<GroupEvent> {
        let mut events = Vec::new();
        for index in 0..state.net.len().min(u8::MAX as usize) {
            events.push(GroupEvent::Deliver { index: index as u8 });
        }
        for r in 0..self.n {
            if state.crashed[r as usize] {
                continue;
            }
            if (state.ops_submitted as usize) < self.ops.len() {
                events.push(GroupEvent::Submit { to: r });
            }
            if state.crashes < self.max_crashes {
                events.push(GroupEvent::Crash { replica: r });
            }
            // The watchdog only fires against a genuinely dead primary
            // (the shell's heartbeat machinery vouches for live ones),
            // and the view bound keeps the graph finite.
            let rs = &state.replicas[r as usize];
            let primary_dead = state.crashed[(rs.view % self.n as u32) as usize];
            if primary_dead && rs.view < self.max_view {
                events.push(GroupEvent::Timeout { replica: r });
            }
        }
        events
    }
}

impl<R> Machine for GroupMachine<R>
where
    R: Machine<State = ReplicaState<u64>, Event = ReplEvent<u64>, Effect = ReplEffect<u64>>,
{
    type State = GroupState<u64>;
    type Event = GroupEvent;
    type Effect = GroupEffect;

    fn initial(&self) -> GroupState<u64> {
        GroupState {
            replicas: self.members.iter().map(Machine::initial).collect(),
            net: Vec::new(),
            crashed: vec![false; self.n as usize],
            committed: Vec::new(),
            primaries: vec![(0, 0)],
            ops_submitted: 0,
            crashes: 0,
        }
    }

    fn step_into(
        &self,
        next: &mut GroupState<u64>,
        event: &GroupEvent,
        out: &mut Vec<GroupEffect>,
    ) {
        match event {
            GroupEvent::Submit { to } => {
                if !next.crashed[*to as usize] && (next.ops_submitted as usize) < self.ops.len() {
                    let op = self.ops[next.ops_submitted as usize];
                    next.ops_submitted += 1;
                    self.dispatch(next, *to, &ReplEvent::Client(op), out);
                }
            }
            GroupEvent::Deliver { index } => {
                let index = *index as usize;
                if index < next.net.len() {
                    let (dst, src, msg) = next.net.remove(index);
                    if !next.crashed[dst as usize] {
                        self.dispatch(next, dst, &ReplEvent::Recv { from: src, msg }, out);
                    }
                }
            }
            GroupEvent::Crash { replica } => {
                if !next.crashed[*replica as usize] && next.crashes < self.max_crashes {
                    next.crashed[*replica as usize] = true;
                    next.crashes += 1;
                    next.net.retain(|(dst, _, _)| dst != replica);
                }
            }
            GroupEvent::Timeout { replica } => {
                if !next.crashed[*replica as usize] {
                    self.dispatch(next, *replica, &ReplEvent::PrimaryTimeout, out);
                }
            }
        }
        next.net.sort_by_cached_key(|m| format!("{m:?}"));
    }
}

// ---------------------------------------------------------------------------
// The seeded mutation: a new primary that skips log catch-up
// ---------------------------------------------------------------------------

/// Sabotage: on winning a view change, keep our *own* log instead of
/// adopting the best offered one — i.e. skip the catch-up that carries
/// committed-but-not-locally-held ops across the view change. The
/// no-lost-commit invariant must condemn this with a trace.
#[derive(Debug, Clone, Copy)]
pub struct SkipLogCatchup(pub ReplicaMachine);

impl Machine for SkipLogCatchup {
    type State = ReplicaState<u64>;
    type Event = ReplEvent<u64>;
    type Effect = ReplEffect<u64>;

    fn initial(&self) -> ReplicaState<u64> {
        self.0.initial()
    }

    fn step_into(
        &self,
        next: &mut ReplicaState<u64>,
        event: &ReplEvent<u64>,
        out: &mut Vec<ReplEffect<u64>>,
    ) {
        let prior = next.clone();
        let mut effects = Vec::new();
        self.0.step_into(next, event, &mut effects);
        let won = effects
            .iter()
            .any(|e| matches!(e, ReplEffect::BecamePrimary { .. }));
        if won {
            // Pretend our own log was the best offer: drop the adopted
            // log and re-announce the view with ours.
            next.log_start = prior.log_start;
            next.log = prior.log;
            next.commit_num = prior.commit_num;
            for effect in &mut effects {
                if let ReplEffect::Send {
                    msg:
                        ReplMsg::StartView {
                            log_start,
                            log,
                            commit_num,
                            ..
                        },
                    ..
                } = effect
                {
                    *log_start = next.log_start;
                    *log = next.log.clone();
                    *commit_num = next.commit_num;
                }
            }
            // The catch-up Applies never happen either.
            effects.retain(|e| !matches!(e, ReplEffect::Apply { .. }));
        }
        out.extend(effects);
    }
}

/// Sabotage: drop the log behind one's *own* commit point instead of
/// the group-stable point — "I have applied it, so I no longer need it".
/// A member that has not received those slots yet can then get them
/// from nobody once the primary is gone: the new primary adopts a
/// suffix that starts beyond its own log end and steps over the hole.
#[derive(Debug, Clone, Copy)]
pub struct TruncateToOwnCommit(pub ReplicaMachine);

impl Machine for TruncateToOwnCommit {
    type State = ReplicaState<u64>;
    type Event = ReplEvent<u64>;
    type Effect = ReplEffect<u64>;

    fn initial(&self) -> ReplicaState<u64> {
        self.0.initial()
    }

    fn step_into(
        &self,
        state: &mut ReplicaState<u64>,
        event: &ReplEvent<u64>,
        out: &mut Vec<ReplEffect<u64>>,
    ) {
        self.0.step_into(state, event, out);
        state.discard_through(state.commit_num);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsp_simnet::Machine;

    fn group() -> GroupMachine<ReplicaMachine> {
        GroupMachine::genuine(3, vec![101, 202])
    }

    /// Drive the group synchronously: deliver every message until the
    /// network drains (depth-first on index 0 is fine for tests).
    fn pump(g: &GroupMachine<ReplicaMachine>, state: &mut GroupState<u64>) -> Vec<GroupEffect> {
        let mut all = Vec::new();
        loop {
            if state.net.is_empty() {
                return all;
            }
            let (next, fx) = g.step(state, &GroupEvent::Deliver { index: 0 });
            *state = next;
            all.extend(fx);
        }
    }

    fn acked(effects: &[GroupEffect]) -> bool {
        effects.iter().any(|e| {
            matches!(
                e,
                GroupEffect::At {
                    effect: ReplEffect::ClientAck { .. },
                    ..
                }
            )
        })
    }

    #[test]
    fn happy_path_commits_on_all_three() {
        let g = group();
        let mut s = g.initial();
        let (next, _) = g.step(&s, &GroupEvent::Submit { to: 0 });
        s = next;
        let fx = pump(&g, &mut s);
        assert!(acked(&fx), "primary should ack after quorum");
        assert_eq!(s.committed, vec![101]);
        for r in &s.replicas {
            assert_eq!(r.log_end(), 1);
            assert!(r.slot(1).is_none_or(|op| *op == 101));
            assert_eq!(r.commit_num, 1, "replica {} commit", r.id);
        }
        // Both backups acknowledged slot 1, so it is group-stable and
        // the primary has already let go of it.
        assert_eq!((s.replicas[0].log_start, s.replicas[0].log.len()), (1, 0));
    }

    #[test]
    fn the_slowest_member_pins_the_stable_point() {
        let g = group();
        let mut s = g.initial();
        for _ in 0..2 {
            let (next, _) = g.step(&s, &GroupEvent::Submit { to: 0 });
            s = next;
        }
        // Everything reaches replica 1 and the primary; replica 2 hears
        // nothing. Both ops commit, and nobody may drop a slot.
        while let Some(idx) = s.net.iter().position(|(dst, _, _)| *dst != 2) {
            let (next, _) = g.step(&s, &GroupEvent::Deliver { index: idx as u8 });
            s = next;
        }
        assert_eq!(s.committed, vec![101, 202]);
        for r in &s.replicas[..2] {
            assert_eq!(
                (r.log_start, &r.log),
                (0, &vec![101, 202]),
                "replica {}",
                r.id
            );
        }
        assert_eq!(s.replicas[0].acked, vec![0, 2, 0]);
        // Replica 2 catches up and acknowledges: the whole group lets go.
        pump(&g, &mut s);
        for r in &s.replicas {
            assert_eq!((r.log_start, r.log.len()), (2, 0), "replica {}", r.id);
            assert_eq!(r.commit_num, 2);
        }
    }

    #[test]
    fn splice_keeps_what_was_dropped_dropped_and_the_prefix_below_the_offer() {
        // Holds slots 3..=5 (1 and 2 dropped); slot 5 was prepared in a
        // view that died and never committed.
        let spliced = |log_start: u32, log: &[u64]| {
            let mut state: ReplicaState<u64> = ReplicaMachine { n: 3, id: 1 }.initial_state();
            state.log_start = 2;
            state.log = vec![3, 4, 55];
            ReplicaMachine::splice(&mut state, log_start, log);
            (state.log_start, state.log)
        };
        // An offer that starts earlier: nothing dropped comes back.
        assert_eq!(spliced(1, &[2, 3, 4, 5, 6]), (2, vec![3, 4, 5, 6]));
        // An offer that starts later: the own prefix below it stays.
        assert_eq!(spliced(4, &[5, 6]), (2, vec![3, 4, 5, 6]));
        // From the offer's start on, the offer is the log — shorter too.
        assert_eq!(spliced(3, &[4]), (2, vec![3, 4]));
    }

    #[test]
    fn committed_op_survives_primary_crash_and_view_change() {
        let g = group();
        let mut s = g.initial();
        let (next, _) = g.step(&s, &GroupEvent::Submit { to: 0 });
        s = next;
        let fx = pump(&g, &mut s);
        assert!(acked(&fx));
        // Kill the primary, let a backup's watchdog fire.
        let (next, _) = g.step(&s, &GroupEvent::Crash { replica: 0 });
        s = next;
        let (next, _) = g.step(&s, &GroupEvent::Timeout { replica: 1 });
        s = next;
        pump(&g, &mut s);
        let new_primary = &s.replicas[1];
        assert_eq!(new_primary.status, Status::Normal);
        assert_eq!(new_primary.view, 1);
        assert_eq!(new_primary.log_end(), 1, "committed op survived");
        assert_eq!(new_primary.commit_num, 1);
        // The new primary accepts new ops.
        let (next, _) = g.step(&s, &GroupEvent::Submit { to: 1 });
        s = next;
        let fx = pump(&g, &mut s);
        assert!(acked(&fx), "new primary commits with the one live backup");
        assert_eq!(s.committed, vec![101, 202]);
    }

    #[test]
    fn non_primary_redirects_clients() {
        let g = group();
        let s = g.initial();
        let (_, fx) = g.step(&s, &GroupEvent::Submit { to: 2 });
        assert!(fx.iter().any(|e| matches!(
            e,
            GroupEffect::At {
                effect: ReplEffect::Redirect { primary: 0, .. },
                ..
            }
        )));
    }

    #[test]
    fn skip_log_catchup_mutant_loses_a_committed_op() {
        // Commit op 101 with only backup 2 holding it (the Prepare to
        // replica 1 stays in flight), crash the primary, and let the
        // *mutant* replica 1 — whose log is empty — win view 1 while
        // refusing to adopt replica 2's fuller log.
        let n = 3;
        let members: Vec<SkipLogCatchup> = (0..n)
            .map(|id| SkipLogCatchup(ReplicaMachine { n, id }))
            .collect();
        let g = GroupMachine {
            n,
            members,
            ops: vec![101, 202],
            max_crashes: 1,
            max_view: 1,
        };
        let mut s = g.initial();
        let (next, _) = g.step(&s, &GroupEvent::Submit { to: 0 });
        s = next;
        // Deliver everything except messages addressed to replica 1:
        // replica 2 appends + acks, the primary commits op 101.
        while let Some(idx) = s.net.iter().position(|(dst, _, _)| *dst != 1) {
            let (next, _) = g.step(&s, &GroupEvent::Deliver { index: idx as u8 });
            s = next;
        }
        assert_eq!(s.committed, vec![101]);
        assert_eq!(s.replicas[1].log_end(), 0, "replica 1 never saw op 101");
        let (next, _) = g.step(&s, &GroupEvent::Crash { replica: 0 });
        s = next;
        // Drop the stale in-flight Prepare to replica 1 from view 0 by
        // delivering it *after* the view change starts (it is ignored
        // on view mismatch). Watchdog fires at replica 1.
        let (next, _) = g.step(&s, &GroupEvent::Timeout { replica: 1 });
        s = next;
        let mut diverged = false;
        while let Some(idx) = s
            .net
            .iter()
            .position(|(_, _, msg)| !matches!(msg, ReplMsg::Prepare { .. }))
        {
            let (next, fx) = g.step(&s, &GroupEvent::Deliver { index: idx as u8 });
            s = next;
            diverged |= fx
                .iter()
                .any(|e| matches!(e, GroupEffect::CommitDiverged { .. }));
        }
        // Replica 1 is now primary of view 1 with an empty log: the
        // committed registration is gone. Submitting the next op makes
        // the divergence observable on the commit edge.
        let winner = &s.replicas[1];
        assert_eq!(winner.status, Status::Normal);
        assert_eq!(winner.view, 1);
        assert_eq!(winner.log_end(), 0, "mutant kept its own empty log");
        let (next, _) = g.step(&s, &GroupEvent::Submit { to: 1 });
        s = next;
        while let Some(idx) = s
            .net
            .iter()
            .position(|(_, _, msg)| !matches!(msg, ReplMsg::Prepare { view: 0, .. }))
        {
            let (next, fx) = g.step(&s, &GroupEvent::Deliver { index: idx as u8 });
            s = next;
            diverged |= fx
                .iter()
                .any(|e| matches!(e, GroupEffect::CommitDiverged { .. }));
        }
        assert!(diverged, "op 202 committed into slot 1 over ghost op 101");
    }
}
