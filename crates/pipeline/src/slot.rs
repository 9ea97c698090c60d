//! The single-slot stage buffer of Fig 6.

/// State of a stage's output buffer.
///
/// The life cycle follows Fig 6: a producer may start only when the slot is
/// [`Slot::Free`]; finishing makes it [`Slot::Avail`]. A consumer may start
/// only on [`Slot::Avail`], and starting takes the frame out, which frees
/// the slot at once. The C original reserves the slot until its consumer
/// finishes because the consumer reads the buffer in place; here the frame
/// moves out, so nothing is left behind for the producer to overwrite and
/// it may refill the slot while the consumer still runs. Order still holds:
/// each stage runs one frame at a time and each slot holds one frame.
#[derive(Debug, Default)]
pub(crate) enum Slot<T> {
    /// Empty and writable by the producer.
    #[default]
    Free,
    /// Holds a finished frame awaiting its consumer.
    Avail(T),
}

impl<T> Slot<T> {
    /// Whether a producer may deposit into this slot.
    pub(crate) fn is_free(&self) -> bool {
        matches!(self, Slot::Free)
    }

    /// Whether a consumer may start on this slot.
    pub(crate) fn is_avail(&self) -> bool {
        matches!(self, Slot::Avail(_))
    }

    /// Producer finish: deposits a frame.
    ///
    /// # Panics
    ///
    /// Panics if the slot is not free — the scheduler must never violate
    /// the handshake.
    pub(crate) fn deposit(&mut self, frame: T) {
        assert!(
            self.is_free(),
            "deposit into a non-free slot violates the Fig 6 handshake"
        );
        *self = Slot::Avail(frame);
    }

    /// Consumer start: takes the frame, leaving the slot free.
    ///
    /// # Panics
    ///
    /// Panics if the slot holds no frame.
    pub(crate) fn take(&mut self) -> T {
        match std::mem::take(self) {
            Slot::Avail(frame) => frame,
            Slot::Free => panic!("take from a free slot violates the Fig 6 handshake"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_handshake_cycle() {
        let mut slot: Slot<u32> = Slot::Free;
        assert!(slot.is_free());
        slot.deposit(7);
        assert!(slot.is_avail());
        assert!(!slot.is_free());
        assert_eq!(slot.take(), 7);
        assert!(slot.is_free(), "taking the frame frees the slot");
        assert!(!slot.is_avail());
    }

    #[test]
    #[should_panic(expected = "handshake")]
    fn double_deposit_panics() {
        let mut slot = Slot::Free;
        slot.deposit(1);
        slot.deposit(2);
    }

    #[test]
    #[should_panic(expected = "handshake")]
    fn consume_empty_panics() {
        let mut slot: Slot<u32> = Slot::Free;
        slot.take();
    }

    #[test]
    fn producer_deposits_while_consumer_processes() {
        // The consumer owns the frame it took, so the producer may refill
        // the slot before that consumer finishes; the slot still holds one
        // frame at a time.
        let mut slot = Slot::Free;
        slot.deposit("frame 1");
        let taken = slot.take();
        slot.deposit("frame 2");
        assert_eq!(taken, "frame 1", "the consumer's frame is untouched");
        assert!(slot.is_avail());
        assert_eq!(slot.take(), "frame 2");
    }
}
