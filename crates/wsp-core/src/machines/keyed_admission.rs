//! Admission control as a pure machine: one global in-flight cap,
//! split into per-tenant weighted fair shares.
//!
//! This is the only admission machine. A mediation tier runs it with
//! one slot per tenant (interned to dense indices by the shell); a
//! container-less host runs the same machine with a single tenant of
//! weight 1 and no tenant ceiling ([`KeyedAdmissionMachine::one_tenant`]),
//! where the guaranteed share is the whole cap and the decision reduces
//! to: expired deadline → draining → queue full → in-flight cap → admit.
//!
//! The stored state is deliberately tiny — in-flight permits per tenant
//! plus the drain flag — because everything else the runtime check
//! consults (dispatch-queue depth, deadline expiry) is *observation*,
//! not protocol state: the shell measures it and ships it inside
//! [`KeyedAdmissionEvent::Admit`].
//!
//! The global cap is split into guaranteed shares by largest-remainder
//! apportionment of the tenant weights. The admit rule is:
//!
//! * a tenant below its guaranteed share is always admitted (unless
//!   expired / draining / the dispatch queue is full);
//! * a tenant at or above its share may borrow idle capacity, but only
//!   while `total < global_cap - reserve`, where `reserve` is the sum
//!   of every tenant's unused guaranteed share.
//!
//! The reserve term is what makes the no-starvation guarantee *local*:
//! borrowed capacity can never eat into another tenant's untaken
//! guarantee, so the inductive invariant
//!
//! ```text
//! total + Σ_t max(0, guaranteed(t) − in_flight(t)) ≤ global_cap
//! ```
//!
//! holds across every transition — and it directly implies both permit
//! conservation (`total ≤ global_cap`) and no-starvation (a tenant
//! below its share has positive slack, hence `total < global_cap`, and
//! the below-share branch admits unconditionally). `wsp-check`
//! explores the one-tenant and a two-tenant configuration exhaustively
//! against the same invariants, and the mutation pass condemns a
//! borrow rule that forgets the reserve.

use wsp_simnet::Machine;

/// Configuration: the global cap, per-tenant weights (index = tenant
/// id), a per-tenant burst ceiling and the dispatch-queue bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyedAdmissionMachine {
    /// Hard ceiling on total in-flight permits across all tenants.
    pub global_cap: u64,
    /// Relative weight per tenant; guaranteed shares are apportioned
    /// `global_cap * weight / Σ weights` (largest remainder).
    pub weights: Vec<u64>,
    /// Hard per-tenant ceiling, the burst limit a single tenant can
    /// reach even when everything else is idle.
    pub tenant_cap: u64,
    /// Shed when the dispatch queue already holds this many jobs.
    /// `u64::MAX` disables the check.
    pub max_queue_depth: u64,
}

impl KeyedAdmissionMachine {
    /// The host configuration: a single tenant of weight 1 and no
    /// tenant ceiling, whose guaranteed share is the whole cap.
    pub fn one_tenant(global_cap: u64, max_queue_depth: u64) -> Self {
        KeyedAdmissionMachine {
            global_cap,
            weights: vec![1],
            tenant_cap: u64::MAX,
            max_queue_depth,
        }
    }

    /// Guaranteed share per tenant: largest-remainder apportionment of
    /// `global_cap` by weight, then every zero share is raised to 1
    /// while shares above 1 are trimmed to compensate (a tenant with a
    /// guarantee of zero could starve, which is the thing this machine
    /// exists to prevent). Shares never exceed `tenant_cap`, and their
    /// sum never exceeds `global_cap` — when there are more tenants
    /// than permits the later tenants keep a zero share (the guarantee
    /// needs `global_cap >= tenants`, which every real policy has).
    pub fn guaranteed(&self) -> Vec<u64> {
        let n = self.weights.len();
        if n == 0 {
            return Vec::new();
        }
        let total_weight = u128::from(self.weights.iter().sum::<u64>().max(1));
        let exact = |w: u64| u128::from(self.global_cap) * u128::from(w);
        let mut shares: Vec<u64> = self
            .weights
            .iter()
            .map(|&w| (exact(w) / total_weight) as u64)
            .collect();
        // Largest remainder: hand the leftover permits to the largest
        // fractional parts, index order breaking ties.
        let mut leftover = self.global_cap.saturating_sub(shares.iter().sum());
        let mut by_remainder: Vec<usize> = (0..n).collect();
        by_remainder.sort_by_key(|&i| {
            let rem = exact(self.weights[i]) % total_weight;
            (std::cmp::Reverse(rem), i)
        });
        for &i in &by_remainder {
            if leftover == 0 {
                break;
            }
            shares[i] += 1;
            leftover -= 1;
        }
        // Anti-starvation floor: raise zero shares to 1, paid for by
        // trimming the largest shares.
        for i in 0..n {
            if shares[i] == 0 {
                if let Some(donor) = (0..n).filter(|&j| shares[j] > 1).max_by_key(|&j| shares[j]) {
                    shares[donor] -= 1;
                    shares[i] = 1;
                }
            }
        }
        for s in &mut shares {
            *s = (*s).min(self.tenant_cap);
        }
        shares
    }

    /// [`Machine::step`] with the apportionment supplied by the caller.
    /// `guaranteed` must equal [`Self::guaranteed`]`()` for the current
    /// weight vector — the shell caches it and recomputes only when a
    /// tenant is interned, so the per-admission work under its lock
    /// stays O(tenants) instead of O(tenants log tenants).
    pub fn step_apportioned(
        &self,
        guaranteed: &[u64],
        state: &KeyedAdmissionState,
        event: &KeyedAdmissionEvent,
    ) -> (KeyedAdmissionState, Vec<KeyedAdmissionEffect>) {
        use KeyedAdmissionEffect::*;
        let mut next = state.clone();
        match *event {
            KeyedAdmissionEvent::Admit {
                tenant,
                queue_depth,
                deadline_expired,
            } => {
                let f = state.in_flight[tenant];
                let total = state.total();
                let shed = if deadline_expired {
                    Some(KeyedShedReason::DeadlineExpired)
                } else if state.draining {
                    Some(KeyedShedReason::Draining)
                } else if queue_depth >= self.max_queue_depth {
                    Some(KeyedShedReason::QueueFull)
                } else if f >= self.tenant_cap {
                    Some(KeyedShedReason::TenantCap)
                } else if total >= self.global_cap {
                    // The hard ceiling outranks the guaranteed share:
                    // with a fixed population the reserve invariant
                    // makes `f < guaranteed[tenant]` imply
                    // `total < global_cap` so this branch never sheds a
                    // below-share tenant, but re-apportionment (a new
                    // tenant interned mid-flight) can shrink shares
                    // under permits granted against the old ones.
                    Some(KeyedShedReason::GlobalCap)
                } else if f < guaranteed[tenant] {
                    // Below the guaranteed share: admit unconditionally.
                    None
                } else {
                    // Borrowing idle capacity: only what is not being
                    // held in reserve for under-share tenants.
                    let reserve: u64 = guaranteed
                        .iter()
                        .zip(&state.in_flight)
                        .map(|(&g, &used)| g.saturating_sub(used))
                        .sum();
                    if total + reserve >= self.global_cap {
                        Some(KeyedShedReason::FairShareReserve)
                    } else {
                        None
                    }
                };
                match shed {
                    Some(reason) => (next, vec![Shed { tenant, reason }]),
                    None => {
                        next.in_flight[tenant] += 1;
                        (next, vec![Admitted { tenant }])
                    }
                }
            }
            KeyedAdmissionEvent::Release { tenant } => {
                if state.in_flight[tenant] == 0 {
                    return (next, vec![PermitUnderflow]);
                }
                next.in_flight[tenant] -= 1;
                (next, vec![Released { tenant }])
            }
            KeyedAdmissionEvent::BeginDrain => {
                next.draining = true;
                (next, vec![])
            }
            KeyedAdmissionEvent::EndDrain => {
                next.draining = false;
                (next, vec![])
            }
        }
    }
}

/// Stored state: in-flight permits per tenant, plus drain mode.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct KeyedAdmissionState {
    pub in_flight: Vec<u64>,
    pub draining: bool,
}

impl KeyedAdmissionState {
    pub fn total(&self) -> u64 {
        self.in_flight.iter().sum()
    }
}

/// Events: one request per tenant asking in, one permit returning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyedAdmissionEvent {
    Admit {
        tenant: usize,
        /// Dispatch-queue depth observed by the shell.
        queue_depth: u64,
        /// The caller's propagated deadline had already expired.
        deadline_expired: bool,
    },
    Release {
        tenant: usize,
    },
    BeginDrain,
    EndDrain,
}

/// Why an admission was refused, in shed-priority order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyedShedReason {
    DeadlineExpired,
    Draining,
    /// The dispatch queue is at capacity.
    QueueFull,
    /// The tenant hit its own burst ceiling.
    TenantCap,
    /// The whole host is at the global cap.
    GlobalCap,
    /// Idle capacity exists, but it is reserved for tenants still
    /// below their guaranteed shares.
    FairShareReserve,
}

/// Instructions back to the shell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyedAdmissionEffect {
    Admitted {
        tenant: usize,
    },
    Shed {
        tenant: usize,
        reason: KeyedShedReason,
    },
    Released {
        tenant: usize,
    },
    /// A release arrived for a tenant with nothing in flight.
    PermitUnderflow,
}

impl Machine for KeyedAdmissionMachine {
    type State = KeyedAdmissionState;
    type Event = KeyedAdmissionEvent;
    type Effect = KeyedAdmissionEffect;

    fn initial(&self) -> KeyedAdmissionState {
        KeyedAdmissionState {
            in_flight: vec![0; self.weights.len()],
            draining: false,
        }
    }

    fn step(
        &self,
        state: &KeyedAdmissionState,
        event: &KeyedAdmissionEvent,
    ) -> (KeyedAdmissionState, Vec<KeyedAdmissionEffect>) {
        self.step_apportioned(&self.guaranteed(), state, event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsp_simnet::step_mut;

    fn admit(tenant: usize) -> KeyedAdmissionEvent {
        KeyedAdmissionEvent::Admit {
            tenant,
            queue_depth: 0,
            deadline_expired: false,
        }
    }

    fn machine(cap: u64, weights: &[u64], tenant_cap: u64) -> KeyedAdmissionMachine {
        KeyedAdmissionMachine {
            global_cap: cap,
            weights: weights.to_vec(),
            tenant_cap,
            max_queue_depth: u64::MAX,
        }
    }

    #[test]
    fn shares_apportion_by_weight_and_sum_to_cap() {
        let m = machine(8, &[3, 1], 8);
        assert_eq!(m.guaranteed(), vec![6, 2]);
        let m = machine(4, &[2, 1], 4);
        // floor gives [2,1]; remainder 1 goes to the larger fraction.
        let g = m.guaranteed();
        assert_eq!(g.iter().sum::<u64>(), 4);
        assert!(g[0] >= g[1]);
    }

    #[test]
    fn zero_floor_shares_are_raised_to_one() {
        let m = machine(4, &[1, 1, 1, 100], 4);
        let g = m.guaranteed();
        assert!(g.iter().all(|&s| s >= 1), "{g:?}");
        assert!(g.iter().sum::<u64>() <= 4);
    }

    #[test]
    fn a_greedy_tenant_cannot_take_the_reserve() {
        let m = machine(4, &[1, 1], 3);
        let g = m.guaranteed();
        assert_eq!(g, vec![2, 2]);
        let mut s = m.initial();
        // Tenant 0 takes its share of 2, then asks for a third: the
        // third permit would eat tenant 1's untouched reserve.
        assert!(matches!(
            step_mut(&m, &mut s, &admit(0))[0],
            KeyedAdmissionEffect::Admitted { tenant: 0 }
        ));
        assert!(matches!(
            step_mut(&m, &mut s, &admit(0))[0],
            KeyedAdmissionEffect::Admitted { tenant: 0 }
        ));
        assert_eq!(
            step_mut(&m, &mut s, &admit(0)),
            vec![KeyedAdmissionEffect::Shed {
                tenant: 0,
                reason: KeyedShedReason::FairShareReserve
            }]
        );
        // Tenant 1's guarantee is intact.
        assert!(matches!(
            step_mut(&m, &mut s, &admit(1))[0],
            KeyedAdmissionEffect::Admitted { tenant: 1 }
        ));
    }

    #[test]
    fn borrowing_is_allowed_once_the_owner_uses_its_share() {
        let m = machine(6, &[1, 1], 6);
        let mut s = m.initial();
        // Tenant 1 takes one of its three guaranteed permits; the
        // reserve is now 2, so the total may reach 6 - 2 = 4 and
        // tenant 0 may borrow up to three permits.
        step_mut(&m, &mut s, &admit(1));
        for _ in 0..3 {
            assert!(matches!(
                step_mut(&m, &mut s, &admit(0))[0],
                KeyedAdmissionEffect::Admitted { tenant: 0 }
            ));
        }
        assert!(matches!(
            step_mut(&m, &mut s, &admit(0))[0],
            KeyedAdmissionEffect::Shed {
                tenant: 0,
                reason: KeyedShedReason::FairShareReserve
            }
        ));
        assert_eq!(s.total(), 4);
    }

    #[test]
    fn tenant_cap_binds_before_borrowing() {
        let m = machine(8, &[1, 1], 2);
        let mut s = m.initial();
        step_mut(&m, &mut s, &admit(0));
        step_mut(&m, &mut s, &admit(0));
        assert_eq!(
            step_mut(&m, &mut s, &admit(0)),
            vec![KeyedAdmissionEffect::Shed {
                tenant: 0,
                reason: KeyedShedReason::TenantCap
            }]
        );
    }

    #[test]
    fn shed_priority_order_is_stable() {
        use KeyedShedReason::*;
        fn shed(
            m: &KeyedAdmissionMachine,
            draining: bool,
            deadline_expired: bool,
        ) -> KeyedShedReason {
            let from = KeyedAdmissionState {
                in_flight: vec![0],
                draining,
            };
            let event = KeyedAdmissionEvent::Admit {
                tenant: 0,
                queue_depth: 9,
                deadline_expired,
            };
            match m.step(&from, &event).1[..] {
                [KeyedAdmissionEffect::Shed { tenant: 0, reason }] => reason,
                ref other => panic!("expected a shed, got {other:?}"),
            }
        }
        // Everything that can refuse does; lift one condition at a
        // time: expired beats draining beats queue full beats tenant
        // cap beats global cap.
        let m = KeyedAdmissionMachine {
            global_cap: 0,
            weights: vec![1],
            tenant_cap: 0,
            max_queue_depth: 0,
        };
        assert_eq!(shed(&m, true, true), DeadlineExpired);
        assert_eq!(shed(&m, true, false), Draining);
        assert_eq!(shed(&m, false, false), QueueFull);
        let m = KeyedAdmissionMachine {
            max_queue_depth: u64::MAX,
            ..m
        };
        assert_eq!(shed(&m, false, false), TenantCap);
        let m = KeyedAdmissionMachine {
            tenant_cap: u64::MAX,
            ..m
        };
        assert_eq!(shed(&m, false, false), GlobalCap);
    }

    /// The host configuration, enumerated: every input of
    /// `one_tenant(cap=2, queue=1)` against the decision order a host
    /// has always had — expired → draining → queue full → in-flight cap
    /// → admit. Rows are literal, not derived from the machine.
    #[test]
    fn one_tenant_configuration_decides_like_a_host() {
        use KeyedShedReason::*;
        let m = KeyedAdmissionMachine::one_tenant(2, 1);
        // (in_flight, draining, queue_depth, expired) → shed reason.
        #[rustfmt::skip]
        let rows = [
            (0, false, 0, false, None),
            (0, false, 0, true,  Some(DeadlineExpired)),
            (0, false, 1, false, Some(QueueFull)),
            (0, false, 1, true,  Some(DeadlineExpired)),
            (0, true,  0, false, Some(Draining)),
            (0, true,  0, true,  Some(DeadlineExpired)),
            (0, true,  1, false, Some(Draining)),
            (0, true,  1, true,  Some(DeadlineExpired)),
            (1, false, 0, false, None),
            (1, false, 0, true,  Some(DeadlineExpired)),
            (1, false, 1, false, Some(QueueFull)),
            (1, false, 1, true,  Some(DeadlineExpired)),
            (1, true,  0, false, Some(Draining)),
            (1, true,  0, true,  Some(DeadlineExpired)),
            (1, true,  1, false, Some(Draining)),
            (1, true,  1, true,  Some(DeadlineExpired)),
            (2, false, 0, false, Some(GlobalCap)),
            (2, false, 0, true,  Some(DeadlineExpired)),
            (2, false, 1, false, Some(QueueFull)),
            (2, false, 1, true,  Some(DeadlineExpired)),
            (2, true,  0, false, Some(Draining)),
            (2, true,  0, true,  Some(DeadlineExpired)),
            (2, true,  1, false, Some(Draining)),
            (2, true,  1, true,  Some(DeadlineExpired)),
        ];
        for (in_flight, draining, queue_depth, deadline_expired, shed) in rows {
            let from = KeyedAdmissionState {
                in_flight: vec![in_flight],
                draining,
            };
            let event = KeyedAdmissionEvent::Admit {
                tenant: 0,
                queue_depth,
                deadline_expired,
            };
            let (to, effects) = m.step(&from, &event);
            let (effect, admitted) = match shed {
                Some(reason) => (KeyedAdmissionEffect::Shed { tenant: 0, reason }, 0),
                None => (KeyedAdmissionEffect::Admitted { tenant: 0 }, 1),
            };
            assert_eq!(effects, vec![effect], "{from:?} {event:?}");
            assert_eq!(
                to.in_flight,
                vec![in_flight + admitted],
                "{from:?} {event:?}"
            );
            assert_eq!(to.draining, draining);
        }
    }

    #[test]
    fn release_underflow_is_an_effect_not_a_wrap() {
        let m = machine(2, &[1, 1], 2);
        let mut s = m.initial();
        assert_eq!(
            step_mut(&m, &mut s, &KeyedAdmissionEvent::Release { tenant: 1 }),
            vec![KeyedAdmissionEffect::PermitUnderflow]
        );
        assert_eq!(s.in_flight, vec![0, 0]);
    }

    #[test]
    fn drain_refuses_per_tenant_then_recovers() {
        let m = machine(4, &[1, 1], 4);
        let mut s = m.initial();
        step_mut(&m, &mut s, &admit(0));
        step_mut(&m, &mut s, &KeyedAdmissionEvent::BeginDrain);
        assert!(matches!(
            step_mut(&m, &mut s, &admit(1))[0],
            KeyedAdmissionEffect::Shed {
                reason: KeyedShedReason::Draining,
                ..
            }
        ));
        assert_eq!(s.total(), 1);
        step_mut(&m, &mut s, &KeyedAdmissionEvent::EndDrain);
        assert!(matches!(
            step_mut(&m, &mut s, &admit(1))[0],
            KeyedAdmissionEffect::Admitted { tenant: 1 }
        ));
    }

    /// Brute-force the reserve invariant over every event interleaving
    /// of a small configuration (the same property `wsp-check` explores
    /// on the graph, kept here as a fast unit-level sanity net).
    #[test]
    fn reserve_invariant_holds_on_random_walks() {
        let m = machine(5, &[2, 1, 1], 3);
        let g = m.guaranteed();
        let mut s = m.initial();
        let mut seed = 0x9e3779b97f4a7c15u64;
        for _ in 0..20_000 {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            let t = (seed >> 33) as usize % 3;
            let ev = match (seed >> 60) % 4 {
                0 | 1 => admit(t),
                2 => KeyedAdmissionEvent::Release { tenant: t },
                _ => {
                    if seed & 1 == 0 {
                        KeyedAdmissionEvent::BeginDrain
                    } else {
                        KeyedAdmissionEvent::EndDrain
                    }
                }
            };
            if matches!(ev, KeyedAdmissionEvent::Release { tenant } if s.in_flight[tenant] == 0) {
                continue; // the shell's RAII permits make this unreachable
            }
            step_mut(&m, &mut s, &ev);
            let reserve: u64 = g
                .iter()
                .zip(&s.in_flight)
                .map(|(&g, &f)| g.saturating_sub(f))
                .sum();
            assert!(
                s.total() + reserve <= m.global_cap,
                "invariant broken at {s:?}"
            );
            assert!(s.in_flight.iter().all(|&f| f <= m.tenant_cap));
        }
    }
}
