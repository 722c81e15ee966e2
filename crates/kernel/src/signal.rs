//! Signals: the communication fabric between components.
//!
//! A signal carries an unsigned value of 1–64 bits, like a wire bundle in
//! hardware. Signals are *double buffered*: during a delta cycle components
//! read the *current* value and write the *next* value; the kernel then
//! commits all writes at once (the SystemC evaluate→update model). A write
//! only counts as a *change* — and only wakes subscribed components — if the
//! committed value differs from the previous one.
//!
//! Values wider than the declared width are masked on write, mirroring how a
//! hardware assignment truncates to the target width.

use crate::component::ComponentId;

/// Identifier of a signal inside a [`SignalBoard`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SignalId(pub(crate) u32);

impl SignalId {
    /// Raw index form, for use in data structures.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A typed handle to a signal: its id plus its declared bit width.
///
/// `Wire` is `Copy` and is the value components store in their port structs.
///
/// # Examples
///
/// ```
/// use dmi_kernel::Simulator;
///
/// let mut sim = Simulator::new();
/// let w = sim.wire("top.addr", 32);
/// assert_eq!(w.width(), 32);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Wire {
    pub(crate) id: SignalId,
    pub(crate) width: u8,
}

impl Wire {
    /// The signal id this wire refers to.
    #[inline]
    pub fn id(self) -> SignalId {
        self.id
    }

    /// Declared width in bits (1–64).
    #[inline]
    pub fn width(self) -> u8 {
        self.width
    }
}

/// Edge filter for signal subscriptions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Edge {
    /// 0 → 1 transition. Only meaningful for 1-bit signals.
    Rising,
    /// 1 → 0 transition. Only meaningful for 1-bit signals.
    Falling,
    /// Any change of value.
    Any,
}

impl Edge {
    /// Whether a committed transition `old → new` matches this filter.
    #[inline]
    pub fn matches(self, old: u64, new: u64) -> bool {
        match self {
            Edge::Rising => old == 0 && new == 1,
            Edge::Falling => old == 1 && new == 0,
            Edge::Any => old != new,
        }
    }
}

#[derive(Debug)]
struct Slot {
    name: String,
    width: u8,
    mask: u64,
    cur: u64,
    next: u64,
    dirty: bool,
    subs: Vec<(ComponentId, Edge)>,
    traced: bool,
}

/// A committed signal change: `(signal, old value, new value)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Change {
    /// The signal that changed.
    pub signal: SignalId,
    /// Value before the commit.
    pub old: u64,
    /// Value after the commit.
    pub new: u64,
}

/// Storage and delta-commit machinery for all signals of a simulation.
#[derive(Debug, Default)]
pub struct SignalBoard {
    slots: Vec<Slot>,
    pending: Vec<SignalId>,
    writes_total: u64,
    commits_total: u64,
}

fn width_mask(width: u8) -> u64 {
    debug_assert!((1..=64).contains(&width));
    if width == 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

impl SignalBoard {
    /// Creates an empty board.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a new signal and returns its handle.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 64.
    pub fn declare(&mut self, name: impl Into<String>, width: u8) -> Wire {
        assert!(
            (1..=64).contains(&width),
            "signal width must be 1..=64, got {width}"
        );
        let id = SignalId(self.slots.len() as u32);
        self.slots.push(Slot {
            name: name.into(),
            width,
            mask: width_mask(width),
            cur: 0,
            next: 0,
            dirty: false,
            subs: Vec::new(),
            traced: false,
        });
        Wire { id, width }
    }

    /// Current (committed) value of a signal.
    #[inline]
    pub fn read(&self, wire: Wire) -> u64 {
        self.slots[wire.id.index()].cur
    }

    /// Current value interpreted as a boolean (non-zero = true).
    #[inline]
    pub fn read_bit(&self, wire: Wire) -> bool {
        self.read(wire) != 0
    }

    /// Writes the *next* value of a signal; it becomes visible after the
    /// next delta commit. The value is masked to the signal's width.
    /// The last write in a delta cycle wins.
    #[inline]
    pub fn write(&mut self, wire: Wire, value: u64) {
        let slot = &mut self.slots[wire.id.index()];
        slot.next = value & slot.mask;
        self.writes_total += 1;
        if !slot.dirty {
            slot.dirty = true;
            self.pending.push(wire.id);
        }
    }

    /// Forces the *current* value without delta semantics. Only for
    /// initialization before the simulation starts.
    pub fn poke(&mut self, wire: Wire, value: u64) {
        let slot = &mut self.slots[wire.id.index()];
        slot.cur = value & slot.mask;
        slot.next = slot.cur;
    }

    /// Subscribes a component to changes of `wire` matching `edge`.
    ///
    /// # Panics
    ///
    /// Panics if an edge filter other than [`Edge::Any`] is used on a signal
    /// wider than one bit.
    pub fn subscribe(&mut self, wire: Wire, component: ComponentId, edge: Edge) {
        let slot = &mut self.slots[wire.id.index()];
        assert!(
            edge == Edge::Any || slot.width == 1,
            "edge-filtered subscription on multi-bit signal {}",
            slot.name
        );
        slot.subs.push((component, edge));
    }

    /// Toggles a 1-bit signal in place as a delta of its own, counted as
    /// the write and the commit the ordinary path would perform, and
    /// returns the new value. No other write may be pending.
    #[inline]
    pub(crate) fn flip_alone(&mut self, wire: Wire) -> u64 {
        debug_assert!(self.pending.is_empty(), "flip_alone with writes pending");
        let slot = &mut self.slots[wire.id.index()];
        slot.cur ^= 1;
        slot.next = slot.cur;
        self.writes_total += 1;
        self.commits_total += 1;
        slot.cur
    }

    /// Commits every pending write and returns the number of signals
    /// whose value changed.
    ///
    /// Appends a [`Change`] to `out` only for a signal someone watches —
    /// one with a subscriber or a tracer — since no other change can wake
    /// a component or be recorded. Every change still counts in the
    /// return value, and the commit counts in
    /// [`commits_total`](Self::commits_total).
    pub(crate) fn commit(&mut self, out: &mut Vec<Change>) -> usize {
        self.commits_total += 1;
        let mut changed = 0;
        for id in self.pending.drain(..) {
            let slot = &mut self.slots[id.index()];
            slot.dirty = false;
            if slot.next != slot.cur {
                if slot.traced || !slot.subs.is_empty() {
                    out.push(Change {
                        signal: id,
                        old: slot.cur,
                        new: slot.next,
                    });
                }
                slot.cur = slot.next;
                changed += 1;
            }
        }
        changed
    }

    /// Sizes the pending-write list for every signal (each is pending
    /// at most once per delta), so no write has to grow it.
    pub(crate) fn reserve_pending(&mut self) {
        self.pending.reserve(self.slots.len().saturating_sub(self.pending.len()));
    }

    /// Whether any write is pending (committed or not it may be a no-op).
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Subscribers of a signal, as `(component, edge)` pairs.
    pub fn subscribers(&self, id: SignalId) -> &[(ComponentId, Edge)] {
        &self.slots[id.index()].subs
    }

    /// The hierarchical name a signal was declared with.
    pub fn name(&self, id: SignalId) -> &str {
        &self.slots[id.index()].name
    }

    /// Declared width of a signal.
    pub fn width(&self, id: SignalId) -> u8 {
        self.slots[id.index()].width
    }

    /// Marks a signal for tracing (used by the VCD tracer).
    pub fn set_traced(&mut self, id: SignalId, traced: bool) {
        self.slots[id.index()].traced = traced;
    }

    /// Whether a signal is marked for tracing.
    pub fn is_traced(&self, id: SignalId) -> bool {
        self.slots[id.index()].traced
    }

    /// Number of declared signals.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no signals are declared.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Total writes issued since construction.
    pub fn writes_total(&self) -> u64 {
        self.writes_total
    }

    /// Total delta commits performed since construction.
    pub fn commits_total(&self) -> u64 {
        self.commits_total
    }

    /// Iterates over `(id, name, width)` of all signals.
    pub fn iter_meta(&self) -> impl Iterator<Item = (SignalId, &str, u8)> {
        self.slots
            .iter()
            .enumerate()
            .map(|(i, s)| (SignalId(i as u32), s.name.as_str(), s.width))
    }

    /// Serializes the board's runtime state: per-slot committed/pending
    /// values and dirty flags, the pending-write list, and the write and
    /// commit counters. Declarations (names, widths, subscriptions,
    /// trace marks) are build-time wiring and are not serialized.
    pub(crate) fn save_state(&self, w: &mut crate::snapshot::StateWriter) {
        w.put_u32(self.slots.len() as u32);
        for slot in &self.slots {
            w.put_u64(slot.cur);
            w.put_u64(slot.next);
            w.put_bool(slot.dirty);
        }
        w.put_u32(self.pending.len() as u32);
        for id in &self.pending {
            w.put_u32(id.0);
        }
        w.put_u64(self.writes_total);
        w.put_u64(self.commits_total);
    }

    /// Restores state written by [`SignalBoard::save_state`] onto a
    /// board with the same declarations.
    ///
    /// The pending-write list must name each dirty slot exactly once and
    /// nothing else (`write` queues a slot only while it is clean, so a
    /// dirty slot missing from the list would swallow every later write
    /// to it); any other list is [`Corrupt`](crate::SnapshotError::Corrupt).
    pub(crate) fn load_state(
        &mut self,
        r: &mut crate::snapshot::StateReader<'_>,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        let n = r.get_u32("signal count")? as usize;
        if n != self.slots.len() {
            return Err(SnapshotError::Mismatch {
                context: format!("snapshot has {n} signals, target has {}", self.slots.len()),
            });
        }
        for slot in &mut self.slots {
            slot.cur = r.get_u64("signal value")? & slot.mask;
            slot.next = r.get_u64("signal pending value")? & slot.mask;
            slot.dirty = r.get_bool("signal dirty flag")?;
        }
        let pending = r.get_u32("pending-write count")? as usize;
        self.pending.clear();
        for _ in 0..pending {
            let raw = r.get_u32("pending signal id")?;
            // Each listed slot takes back its dirty flag, so a clean slot
            // and a second listing are both caught here.
            match self.slots.get_mut(raw as usize) {
                Some(slot) if slot.dirty => slot.dirty = false,
                _ => {
                    return Err(SnapshotError::Corrupt {
                        context: format!(
                            "pending write names signal {raw} of {}: out of range, clean or listed twice",
                            self.slots.len()
                        ),
                    })
                }
            }
            self.pending.push(SignalId(raw));
        }
        if let Some(i) = self.slots.iter().position(|s| s.dirty) {
            return Err(SnapshotError::Corrupt {
                context: format!("signal {i} is dirty but has no pending write"),
            });
        }
        for id in &self.pending {
            self.slots[id.index()].dirty = true;
        }
        self.writes_total = r.get_u64("signal writes_total")?;
        self.commits_total = r.get_u64("signal commits_total")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declare_read_write_commit() {
        let mut b = SignalBoard::new();
        let w = b.declare("w", 8);
        b.subscribe(w, ComponentId::from_raw(0), Edge::Any);
        assert_eq!(b.read(w), 0);
        b.write(w, 0x1ff); // masked to 8 bits
        assert_eq!(b.read(w), 0, "write not visible before commit");
        let mut ch = Vec::new();
        assert_eq!(b.commit(&mut ch), 1);
        assert_eq!(b.read(w), 0xff);
        assert_eq!(ch.len(), 1);
        assert_eq!(ch[0].old, 0);
        assert_eq!(ch[0].new, 0xff);
    }

    #[test]
    fn only_watched_changes_are_listed() {
        let mut b = SignalBoard::new();
        let w = b.declare("w", 8);
        let mut ch = Vec::new();
        // Neither subscribed nor traced: the change commits and counts,
        // but no one can be woken by it or record it, so it is not listed.
        b.write(w, 1);
        assert_eq!(b.commit(&mut ch), 1);
        assert_eq!(b.read(w), 1);
        assert_eq!(b.commits_total(), 1);
        assert!(ch.is_empty());
        // Traced: the next change is listed.
        b.set_traced(w.id(), true);
        b.write(w, 2);
        assert_eq!(b.commit(&mut ch), 1);
        assert_eq!(
            (ch.len(), ch[0].signal, ch[0].old, ch[0].new),
            (1, w.id(), 1, 2)
        );
        // Subscribed and no longer traced: listed too.
        b.set_traced(w.id(), false);
        b.subscribe(w, ComponentId::from_raw(0), Edge::Any);
        ch.clear();
        b.write(w, 3);
        assert_eq!(b.commit(&mut ch), 1);
        assert_eq!(
            (ch.len(), ch[0].signal, ch[0].old, ch[0].new),
            (1, w.id(), 2, 3)
        );
        assert_eq!(b.commits_total(), 3);
    }

    #[test]
    fn no_change_write_is_not_reported() {
        let mut b = SignalBoard::new();
        let w = b.declare("w", 4);
        b.write(w, 0);
        let mut ch = Vec::new();
        assert_eq!(b.commit(&mut ch), 0);
        assert!(ch.is_empty());
    }

    #[test]
    fn last_write_wins_within_delta() {
        let mut b = SignalBoard::new();
        let w = b.declare("w", 16);
        b.write(w, 1);
        b.write(w, 2);
        b.write(w, 3);
        let mut ch = Vec::new();
        assert_eq!(b.commit(&mut ch), 1);
        assert_eq!(b.read(w), 3);
    }

    #[test]
    fn width_64_mask_is_full() {
        let mut b = SignalBoard::new();
        let w = b.declare("wide", 64);
        b.write(w, u64::MAX);
        let mut ch = Vec::new();
        b.commit(&mut ch);
        assert_eq!(b.read(w), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "signal width")]
    fn zero_width_rejected() {
        SignalBoard::new().declare("bad", 0);
    }

    #[test]
    #[should_panic(expected = "edge-filtered")]
    fn edge_subscription_on_bus_rejected() {
        let mut b = SignalBoard::new();
        let w = b.declare("bus", 8);
        b.subscribe(w, ComponentId::from_raw(0), Edge::Rising);
    }

    #[test]
    fn edge_matching() {
        assert!(Edge::Rising.matches(0, 1));
        assert!(!Edge::Rising.matches(1, 0));
        assert!(!Edge::Rising.matches(0, 0));
        assert!(Edge::Falling.matches(1, 0));
        assert!(!Edge::Falling.matches(0, 1));
        assert!(Edge::Any.matches(3, 4));
        assert!(!Edge::Any.matches(4, 4));
    }

    #[test]
    fn poke_bypasses_delta() {
        let mut b = SignalBoard::new();
        let w = b.declare("w", 8);
        b.poke(w, 7);
        assert_eq!(b.read(w), 7);
    }

    #[test]
    fn counters() {
        let mut b = SignalBoard::new();
        let w = b.declare("w", 8);
        b.write(w, 1);
        b.write(w, 2);
        let mut ch = Vec::new();
        b.commit(&mut ch);
        assert_eq!(b.writes_total(), 2);
        assert_eq!(b.commits_total(), 1);
        assert_eq!(b.len(), 1);
        assert!(!b.is_empty());
    }
}
