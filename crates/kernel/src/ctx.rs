//! The context handed to a component on wake.

use crate::component::{ComponentId, Wake};
use crate::event::{EventKind, EventQueue};
use crate::signal::{SignalBoard, Wire};
use crate::time::SimTime;

/// Why a simulation stopped before exhausting its run limit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StopReason {
    /// A component declared the workload finished.
    Finished(String),
    /// A component detected an unrecoverable modelling error.
    Error(String),
}

impl StopReason {
    /// The human-readable message carried by the reason.
    pub fn message(&self) -> &str {
        match self {
            StopReason::Finished(m) | StopReason::Error(m) => m,
        }
    }

    /// Whether this is the error variant.
    pub fn is_error(&self) -> bool {
        matches!(self, StopReason::Error(_))
    }
}

/// Interface between a woken component and the kernel.
///
/// `Ctx` exposes reading and driving signals, timers, the current time and
/// the stop control. All signal writes go through delta-cycle semantics:
/// they become visible to readers only after the current delta commits.
pub struct Ctx<'a> {
    pub(crate) signals: &'a mut SignalBoard,
    pub(crate) queue: &'a mut EventQueue,
    pub(crate) time: SimTime,
    pub(crate) delta: u32,
    pub(crate) cause: Wake,
    pub(crate) self_id: ComponentId,
    pub(crate) stop: &'a mut Option<StopReason>,
}

impl<'a> Ctx<'a> {
    /// Current simulated time.
    #[inline]
    pub fn time(&self) -> SimTime {
        self.time
    }

    /// Delta cycle index within the current time step.
    #[inline]
    pub fn delta(&self) -> u32 {
        self.delta
    }

    /// Why this component was woken.
    #[inline]
    pub fn cause(&self) -> Wake {
        self.cause
    }

    /// The id of the component being woken.
    #[inline]
    pub fn self_id(&self) -> ComponentId {
        self.self_id
    }

    /// Reads the committed value of a signal.
    #[inline]
    pub fn read(&self, wire: Wire) -> u64 {
        self.signals.read(wire)
    }

    /// Reads a signal as a boolean (non-zero = true).
    #[inline]
    pub fn read_bit(&self, wire: Wire) -> bool {
        self.signals.read_bit(wire)
    }

    /// Drives a signal; the value commits at the end of this delta cycle.
    #[inline]
    pub fn write(&mut self, wire: Wire, value: u64) {
        self.signals.write(wire, value);
    }

    /// Drives a 1-bit signal from a boolean.
    #[inline]
    pub fn write_bit(&mut self, wire: Wire, value: bool) {
        self.signals.write(wire, value as u64);
    }

    /// True when this wake was caused by `wire` rising to 1.
    ///
    /// Convenience for clocked components: subscription filters already
    /// guarantee the edge, this additionally checks *which* signal fired.
    #[inline]
    pub fn is_signal(&self, wire: Wire) -> bool {
        matches!(self.cause, Wake::Signal(id) if id == wire.id())
    }

    /// Schedules a [`Wake::Timer`] for this component `delay` ticks from
    /// now. A `delay` of zero wakes it again in the next delta cycle of the
    /// current time step.
    pub fn schedule_in(&mut self, delay: u64, tag: u64) {
        if delay == 0 {
            self.queue.push(
                self.time,
                self.delta + 1,
                EventKind::Wake(self.self_id, tag),
            );
        } else {
            self.queue
                .push(self.time + delay, 0, EventKind::Wake(self.self_id, tag));
        }
    }

    /// Requests the simulation to stop with a success message. The current
    /// delta cycle still completes so pending writes commit.
    pub fn stop(&mut self, message: impl Into<String>) {
        if self.stop.is_none() {
            *self.stop = Some(StopReason::Finished(message.into()));
        }
    }

    /// Requests the simulation to stop with an error. An error overrides a
    /// previously recorded success reason.
    pub fn stop_error(&mut self, message: impl Into<String>) {
        match self.stop {
            Some(r) if r.is_error() => {}
            _ => *self.stop = Some(StopReason::Error(message.into())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stop_reason_accessors() {
        let f = StopReason::Finished("done".into());
        let e = StopReason::Error("bad".into());
        assert_eq!(f.message(), "done");
        assert!(!f.is_error());
        assert!(e.is_error());
    }
}
