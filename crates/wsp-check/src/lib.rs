//! # wsp-check — exhaustive exploration of the pure protocol machines
//!
//! Every protocol extracted behind [`wsp_simnet::Machine`] — circuit
//! breaker, admission control, dispatcher correlation, HTTP drain,
//! P2PS reply-pipe routing — is a *pure* transition function over
//! `Eq + Hash` states, so a small configuration can be explored
//! completely: [`Graph::explore`] walks every reachable state under a
//! bounded event alphabet (breadth-first, deduplicating states), and
//! the invariant checkers then examine every state and every
//! transition rather than whichever interleaving a concurrency test
//! happened to schedule.
//!
//! * [`Graph::check_states`] — a predicate that must hold in every
//!   reachable state;
//! * [`Graph::check_edges`] — a predicate over every transition
//!   `(state, event, effects, next)`;
//! * [`Graph::check_eventually`] — liveness by reverse reachability:
//!   from every reachable state, some goal state must remain
//!   reachable;
//! * [`Graph::dot`] — the full state graph in Graphviz DOT form.
//!
//! Failures come back as a [`Violation`] carrying a minimal
//! counterexample trace (BFS parents give shortest paths) formatted
//! for humans. Machines model time as explicit logical ticks in
//! events, so exploration is deterministic; the complementary
//! [`random_walk`] (for configurations too large to exhaust) draws
//! from the vendored xoshiro generator under the workspace-wide
//! `WSP_FAULT_SEED` discipline (default seed 2005).
//!
//! The per-machine and composed configurations live in [`checks`];
//! [`mutations`] holds deliberately broken machine wrappers proving
//! the checker actually catches protocol bugs.

pub mod checks;
pub mod composed;
pub mod mutations;

use std::collections::{HashMap, VecDeque};
use std::fmt;
use wsp_simnet::Machine;

/// Default seed for randomised walks, shared with the fault-injection
/// suite; override with `WSP_FAULT_SEED`.
pub fn fault_seed() -> u64 {
    std::env::var("WSP_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2005)
}

/// One explored transition.
pub struct Edge<M: Machine> {
    pub from: usize,
    pub to: usize,
    pub event: M::Event,
    pub effects: Vec<M::Effect>,
}

/// How a state was first reached: predecessor index, event, effects.
type Parent<M> = Option<(usize, <M as Machine>::Event, Vec<<M as Machine>::Effect>)>;

/// The full reachable state graph of a machine under a bounded event
/// alphabet.
pub struct Graph<M: Machine> {
    pub machine: M,
    /// Every reachable state; index 0 is `machine.initial()`.
    pub states: Vec<M::State>,
    pub edges: Vec<Edge<M>>,
    /// BFS tree: how each state was first reached (`None` for the
    /// initial state). Yields shortest counterexample traces.
    parent: Vec<Parent<M>>,
}

/// An invariant failure with its counterexample trace.
#[derive(Debug, Clone)]
pub struct Violation {
    pub invariant: String,
    pub trace: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "invariant violated: {}", self.invariant)?;
        write!(f, "{}", self.trace)
    }
}

impl std::error::Error for Violation {}

/// Exploration statistics for one configuration.
#[derive(Debug, Clone)]
pub struct Report {
    pub name: String,
    pub states: usize,
    pub transitions: usize,
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} states, {} transitions",
            self.name, self.states, self.transitions
        )
    }
}

impl<M: Machine> Graph<M> {
    /// Breadth-first exploration from `machine.initial()`. `enabled`
    /// names the events to try in a state (the bounded alphabet —
    /// return every event for a total machine, or gate events the
    /// shell can never emit there, e.g. a slot release with no slot
    /// held). Panics past `max_states`: these configurations are meant
    /// to be exhausted, and a blow-up is a modelling bug, not data.
    pub fn explore<F>(machine: M, enabled: F, max_states: usize) -> Graph<M>
    where
        F: Fn(&M::State) -> Vec<M::Event>,
    {
        let initial = machine.initial();
        let mut index: HashMap<M::State, usize> = HashMap::new();
        index.insert(initial.clone(), 0);
        let mut graph = Graph {
            machine,
            states: vec![initial],
            edges: Vec::new(),
            parent: vec![None],
        };
        let mut queue: VecDeque<usize> = VecDeque::from([0]);
        while let Some(from) = queue.pop_front() {
            for event in enabled(&graph.states[from]) {
                let (next, effects) = graph.machine.step(&graph.states[from], &event);
                let to = match index.get(&next) {
                    Some(&i) => i,
                    None => {
                        let i = graph.states.len();
                        assert!(
                            i < max_states,
                            "state space exceeded {max_states} states — unbounded model?"
                        );
                        index.insert(next.clone(), i);
                        graph.states.push(next);
                        graph
                            .parent
                            .push(Some((from, event.clone(), effects.clone())));
                        queue.push_back(i);
                        i
                    }
                };
                graph.edges.push(Edge {
                    from,
                    to,
                    event,
                    effects,
                });
            }
        }
        graph
    }

    pub fn report(&self, name: &str) -> Report {
        Report {
            name: name.to_owned(),
            states: self.states.len(),
            transitions: self.edges.len(),
        }
    }

    /// The shortest event path from the initial state to `state`,
    /// formatted one step per line.
    pub fn trace_to(&self, state: usize) -> String {
        let mut steps = Vec::new();
        let mut at = state;
        while let Some((from, event, effects)) = &self.parent[at] {
            steps.push(format!(
                "  {:?}\n    --{:?}--> {:?}   effects: {:?}",
                self.states[*from], event, self.states[at], effects
            ));
            at = *from;
        }
        steps.push(format!("  initial: {:?}", self.states[0]));
        steps.reverse();
        steps.join("\n")
    }

    fn violation(&self, invariant: &str, trace: String) -> Violation {
        Violation {
            invariant: invariant.to_owned(),
            trace,
        }
    }

    /// `pred` must hold in every reachable state.
    pub fn check_states<P>(&self, invariant: &str, pred: P) -> Result<(), Violation>
    where
        P: Fn(&M::State) -> bool,
    {
        for (i, state) in self.states.iter().enumerate() {
            if !pred(state) {
                return Err(self.violation(invariant, self.trace_to(i)));
            }
        }
        Ok(())
    }

    /// `pred` must hold on every transition `(from, event, effects,
    /// to)`.
    pub fn check_edges<P>(&self, invariant: &str, pred: P) -> Result<(), Violation>
    where
        P: Fn(&M::State, &M::Event, &[M::Effect], &M::State) -> bool,
    {
        for edge in &self.edges {
            let from = &self.states[edge.from];
            let to = &self.states[edge.to];
            if !pred(from, &edge.event, &edge.effects, to) {
                let trace = format!(
                    "{}\n  VIOLATING STEP:\n  {:?}\n    --{:?}--> {:?}   effects: {:?}",
                    self.trace_to(edge.from),
                    from,
                    edge.event,
                    to,
                    edge.effects
                );
                return Err(self.violation(invariant, trace));
            }
        }
        Ok(())
    }

    /// Liveness by reverse reachability: from every reachable state, a
    /// state satisfying `goal` must still be reachable (no trapped
    /// states — e.g. a drain that can never finish, a token that can
    /// never settle).
    pub fn check_eventually<P>(&self, invariant: &str, goal: P) -> Result<(), Violation>
    where
        P: Fn(&M::State) -> bool,
    {
        let mut reverse: Vec<Vec<usize>> = vec![Vec::new(); self.states.len()];
        for edge in &self.edges {
            reverse[edge.to].push(edge.from);
        }
        let mut can_reach = vec![false; self.states.len()];
        let mut queue: VecDeque<usize> = VecDeque::new();
        for (i, state) in self.states.iter().enumerate() {
            if goal(state) {
                can_reach[i] = true;
                queue.push_back(i);
            }
        }
        while let Some(at) = queue.pop_front() {
            for &from in &reverse[at] {
                if !can_reach[from] {
                    can_reach[from] = true;
                    queue.push_back(from);
                }
            }
        }
        match can_reach.iter().position(|&ok| !ok) {
            None => Ok(()),
            Some(trapped) => {
                let trace = format!(
                    "{}\n  TRAPPED: no goal state reachable from here",
                    self.trace_to(trapped)
                );
                Err(self.violation(invariant, trace))
            }
        }
    }

    /// The state graph in Graphviz DOT form (states as `Debug` labels,
    /// events on edges).
    pub fn dot(&self, name: &str) -> String {
        let mut out = format!("digraph {name} {{\n  rankdir=LR;\n  node [shape=box];\n");
        for (i, state) in self.states.iter().enumerate() {
            let label = format!("{state:?}").replace('"', "'");
            out.push_str(&format!("  s{i} [label=\"{label}\"];\n"));
        }
        for edge in &self.edges {
            let label = format!("{:?}", edge.event).replace('"', "'");
            out.push_str(&format!(
                "  s{} -> s{} [label=\"{label}\"];\n",
                edge.from, edge.to
            ));
        }
        out.push_str("}\n");
        out
    }
}

/// A seeded random walk for configurations too large to exhaust:
/// `steps` events drawn uniformly from the enabled alphabet, with
/// `check` run on every transition. Deterministic for a given seed.
pub fn random_walk<M, F, C>(
    machine: &M,
    enabled: F,
    steps: usize,
    seed: u64,
    check: C,
) -> Result<(), Violation>
where
    M: Machine,
    F: Fn(&M::State) -> Vec<M::Event>,
    C: Fn(&M::State, &M::Event, &[M::Effect], &M::State) -> Result<(), String>,
{
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut state = machine.initial();
    let mut trail: VecDeque<String> = VecDeque::new();
    for step in 0..steps {
        let events = enabled(&state);
        if events.is_empty() {
            break;
        }
        let event = events[rng.random_range(0..events.len())].clone();
        let (next, effects) = machine.step(&state, &event);
        trail.push_back(format!(
            "  {state:?}\n    --{event:?}--> {next:?}   effects: {effects:?}"
        ));
        if trail.len() > 16 {
            trail.pop_front();
        }
        if let Err(invariant) = check(&state, &event, &effects, &next) {
            return Err(Violation {
                invariant,
                trace: format!(
                    "seed {seed}, step {step}; last {} steps:\n{}",
                    trail.len(),
                    trail.iter().cloned().collect::<Vec<_>>().join("\n")
                ),
            });
        }
        state = next;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A bounded counter: Inc to 3, Dec to 0.
    struct Counter;

    impl Machine for Counter {
        type State = u8;
        type Event = i8;
        type Effect = u8;

        fn initial(&self) -> u8 {
            0
        }

        fn step_into(&self, state: &mut u8, event: &i8, out: &mut Vec<u8>) {
            *state = (*state as i8 + event).clamp(0, 3) as u8;
            out.push(*state);
        }
    }

    fn full(state: &u8) -> Vec<i8> {
        let _ = state;
        vec![1, -1]
    }

    #[test]
    fn explores_all_reachable_states() {
        let graph = Graph::explore(Counter, full, 100);
        assert_eq!(graph.states.len(), 4);
        assert_eq!(graph.edges.len(), 8);
        graph.check_states("counter in range", |s| *s <= 3).unwrap();
        graph
            .check_eventually("counter can return to zero", |s| *s == 0)
            .unwrap();
    }

    #[test]
    fn violations_carry_a_shortest_trace() {
        let graph = Graph::explore(Counter, full, 100);
        let violation = graph
            .check_states("counter stays below 2", |s| *s < 2)
            .unwrap_err();
        assert!(violation.invariant.contains("below 2"));
        // State 2 is two Inc steps from initial; the BFS trace has
        // exactly the initial line plus two steps.
        assert_eq!(violation.trace.lines().count(), 5, "{}", violation.trace);
    }

    #[test]
    fn dot_dump_names_every_state() {
        let graph = Graph::explore(Counter, full, 100);
        let dot = graph.dot("counter");
        assert!(dot.starts_with("digraph counter {"));
        assert!(dot.contains("s0 ->"));
        assert!(dot.contains("s3"));
    }

    #[test]
    fn random_walks_are_reproducible_and_checked() {
        let seen = |_: &u8, _: &i8, _: &[u8], next: &u8| {
            if *next <= 3 {
                Ok(())
            } else {
                Err("counter overflow".into())
            }
        };
        random_walk(&Counter, full, 1000, fault_seed(), seen).unwrap();
        let fail = |_: &u8, _: &i8, _: &[u8], next: &u8| {
            if *next < 3 {
                Ok(())
            } else {
                Err("hit the cap".into())
            }
        };
        let violation = random_walk(&Counter, full, 1000, 2005, fail).unwrap_err();
        assert!(violation.trace.contains("seed 2005"));
    }
}
