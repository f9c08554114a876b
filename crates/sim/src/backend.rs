//! Simulation backend selection: the [`SimBackend`] label, the
//! kernel-agnostic [`SimControl`] surface and the [`AnySim`] handle
//! that harnesses hold.
//!
//! There is one kernel, the event-driven [`Simulator`]. `SimBackend`
//! survives as the value campaign rows, run submissions and journals
//! carry in their `backend` field (always `"event"`).

use crate::elab::{Design, SignalId};
use crate::logic::Logic;
use crate::sched::{SimError, Simulator};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Which simulation kernel to run a design on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SimBackend {
    /// The event-driven delta-cycle interpreter ([`Simulator`]).
    #[default]
    EventDriven,
}

impl SimBackend {
    /// Stable label used in campaign JSONL rows and run submissions.
    pub fn label(&self) -> &'static str {
        match self {
            SimBackend::EventDriven => "event",
        }
    }

    /// Parses a [`SimBackend::label`] (row and submission decoding).
    /// `"compiled"` / `"levelized"` name a retired second kernel; they
    /// still decode, to the event kernel, so old submissions and
    /// journals replay.
    pub fn from_label(text: &str) -> Option<SimBackend> {
        match text.trim() {
            "event" | "event-driven" | "compiled" | "levelized" => Some(SimBackend::EventDriven),
            _ => None,
        }
    }
}

impl fmt::Display for SimBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The simulation surface shared by [`Simulator`] and [`AnySim`]:
/// everything the UVM environment, the waveform recorder and the
/// campaign harnesses need.
pub trait SimControl {
    /// The elaborated design being simulated.
    fn design(&self) -> &Design;
    /// Current simulation time.
    fn time(&self) -> u64;
    /// Sets the simulation time (monotonically increased by harnesses).
    fn set_time(&mut self, time: u64);
    /// Reads the current value of `id`.
    fn peek(&self, id: SignalId) -> Logic;
    /// Reads word `index` of an array signal (all-X when out of range).
    fn peek_word(&self, id: SignalId, index: u64) -> Logic;
    /// Drives `id` to `value` and propagates events.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Unstable`] on combinational oscillation.
    fn poke(&mut self, id: SignalId, value: Logic) -> Result<(), SimError>;
    /// Propagates pending activity until quiescent.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Unstable`] on combinational oscillation.
    fn settle(&mut self) -> Result<(), SimError>;

    /// Reads a signal by (hierarchical) name.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownSignal`] for unknown names.
    fn peek_by_name(&self, name: &str) -> Result<Logic, SimError> {
        let id = self
            .design()
            .signal_id(name)
            .ok_or_else(|| SimError::UnknownSignal(name.to_string()))?;
        Ok(self.peek(id))
    }

    /// Pokes a signal by name.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownSignal`] or [`SimError::Unstable`].
    fn poke_by_name(&mut self, name: &str, value: Logic) -> Result<(), SimError> {
        let id = self
            .design()
            .signal_id(name)
            .ok_or_else(|| SimError::UnknownSignal(name.to_string()))?;
        self.poke(id, value)
    }

    /// Snapshot of all scalar (non-array) signal values in declaration
    /// order, used by the waveform recorder.
    fn scalar_values(&self) -> Vec<(SignalId, Logic)> {
        self.design()
            .signals()
            .iter()
            .enumerate()
            .filter(|(_, info)| info.words == 1)
            .map(|(i, _)| (SignalId(i as u32), self.peek(SignalId(i as u32))))
            .collect()
    }

    /// Convenience: map of signal name to current value for scalars.
    fn named_values(&self) -> HashMap<String, Logic> {
        self.design()
            .signals()
            .iter()
            .enumerate()
            .filter(|(_, info)| info.words == 1)
            .map(|(i, info)| (info.name.clone(), self.peek(SignalId(i as u32))))
            .collect()
    }
}

/// A simulation behind one concrete type that harnesses can hold and
/// pass around: a thin wrapper over the event-driven [`Simulator`].
#[derive(Debug, Clone)]
pub struct AnySim(Simulator);

impl AnySim {
    /// Builds a simulation over a shared `design`. The `Arc` is
    /// threaded straight through to the kernel — nothing on this path
    /// clones the design, so cached elaborations
    /// ([`crate::cache::elaborate_source_cached`]) are shared as-is.
    /// `backend` names the kernel; [`SimBackend::EventDriven`] is the
    /// only one.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Unstable`] if the design oscillates at time 0.
    pub fn new(design: &Arc<Design>, backend: SimBackend) -> Result<AnySim, SimError> {
        // Irrefutable while there is one kernel; a new variant must be
        // wired in here.
        let SimBackend::EventDriven = backend;
        Ok(AnySim(Simulator::from_arc(Arc::clone(design))?))
    }
}

impl SimControl for AnySim {
    fn design(&self) -> &Design {
        self.0.design()
    }
    fn time(&self) -> u64 {
        self.0.time()
    }
    fn set_time(&mut self, time: u64) {
        self.0.set_time(time);
    }
    fn peek(&self, id: SignalId) -> Logic {
        self.0.peek(id)
    }
    fn peek_word(&self, id: SignalId, index: u64) -> Logic {
        self.0.peek_word(id, index)
    }
    fn poke(&mut self, id: SignalId, value: Logic) -> Result<(), SimError> {
        self.0.poke(id, value)
    }
    fn settle(&mut self) -> Result<(), SimError> {
        self.0.settle()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elab::elaborate;
    use uvllm_verilog::parse;

    #[test]
    fn labels_round_trip_and_legacy_aliases_decode() {
        let b = SimBackend::default();
        assert_eq!(b, SimBackend::EventDriven);
        assert_eq!(SimBackend::from_label(b.label()), Some(b));
        for legacy in ["compiled", "levelized", "event-driven"] {
            assert_eq!(SimBackend::from_label(legacy), Some(SimBackend::EventDriven));
        }
        assert_eq!(SimBackend::from_label("nope"), None);
    }

    #[test]
    fn any_sim_wraps_the_event_kernel() {
        let file = parse(
            "module add(input [7:0] a, input [7:0] b, output [8:0] y);\n\
             assign y = a + b;\nendmodule\n",
        )
        .unwrap();
        let design = Arc::new(elaborate(&file, "add").unwrap());
        let mut sim = AnySim::new(&design, SimBackend::EventDriven).unwrap();
        sim.poke_by_name("a", Logic::from_u128(8, 17)).unwrap();
        sim.poke_by_name("b", Logic::from_u128(8, 25)).unwrap();
        assert_eq!(sim.peek_by_name("y").unwrap().to_u128(), Some(42));
        assert!(sim.named_values().contains_key("y"));
    }
}
