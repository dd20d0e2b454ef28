//! A capacity-retaining buffer arena for per-probe scratch space.
//!
//! The probe fast path builds several transient byte buffers per probe
//! (wire images, framing scratch, response assembly). Allocating them
//! fresh every probe is the single largest source of heap churn inside
//! `run_pair`; an [`Arena`] owned by the per-pair context removes it:
//! buffers are checked out with [`Arena::alloc`], returned with
//! [`Arena::recycle`], and keep their capacity across probes, so after
//! the first probe warms the pool the steady state performs no heap
//! allocation at all.
//!
//! The workspace forbids `unsafe`, so this is deliberately *not* a
//! pointer-bumping arena: it is a checkout pool of `Vec<u8>` buffers
//! with bump-arena discipline — [`reset`](Arena::reset) is called
//! between probes and re-arms the checkout accounting, exactly like a
//! bump pointer rewinding. A buffer that is never recycled (an early
//! error return) is simply dropped and the pool re-grows on the next
//! probe; correctness never depends on the recycle discipline, only the
//! zero-churn property does.
//!
//! detlint's `deny-alloc` rule understands this API: `arena.alloc(…)`
//! is the *sanctioned* way to obtain scratch space inside a
//! `#[deny_alloc]` zone, while raw `Vec::new` / `Box::new` remain
//! rejected there.

/// A checkout pool of capacity-retaining byte buffers.
#[derive(Debug, Default)]
pub struct Arena {
    free: Vec<Vec<u8>>,
    /// Buffers handed out since the last [`reset`](Arena::reset).
    checked_out: usize,
    /// Buffers served from the free list (steady state).
    reuses: u64,
    /// Buffers the pool had to create fresh (warm-up or leaks).
    fresh: u64,
}

impl Arena {
    /// An empty arena. The pool grows on demand.
    pub fn new() -> Self {
        Arena::default()
    }

    /// Checks out a cleared buffer, reusing pooled capacity when possible.
    ///
    /// This is the allocation primitive `#[deny_alloc]` zones are allowed
    /// to call: on the steady-state path it pops a pooled buffer and
    /// touches no allocator.
    pub fn alloc(&mut self) -> Vec<u8> {
        self.checked_out += 1;
        match self.free.pop() {
            Some(mut buf) => {
                buf.clear();
                self.reuses += 1;
                buf
            }
            None => {
                self.fresh += 1;
                Vec::new()
            }
        }
    }

    /// Returns a buffer to the pool, retaining its capacity for the next
    /// checkout.
    pub fn recycle(&mut self, buf: Vec<u8>) {
        self.checked_out = self.checked_out.saturating_sub(1);
        self.free.push(buf);
    }

    /// Re-arms the arena between probes (the bump-pointer rewind).
    ///
    /// Buffers still checked out are written off: they were dropped on an
    /// early-exit path and the pool will re-grow lazily. Pooled capacity
    /// is kept.
    pub fn reset(&mut self) {
        self.checked_out = 0;
    }

    /// Buffers currently checked out (diagnostic).
    pub fn checked_out(&self) -> usize {
        self.checked_out
    }

    /// Buffers served from the pool since construction.
    pub fn reuses(&self) -> u64 {
        self.reuses
    }

    /// Buffers created fresh since construction. A steady-state probe
    /// loop holds this constant — the arena differential test asserts it.
    pub fn fresh_allocations(&self) -> u64 {
        self.fresh
    }

    /// Pooled (idle) buffers.
    pub fn pooled(&self) -> usize {
        self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reuses_capacity_across_checkouts() {
        let mut arena = Arena::new();
        let mut buf = arena.alloc();
        buf.extend_from_slice(&[1, 2, 3, 4]);
        let cap = buf.capacity();
        arena.recycle(buf);
        assert_eq!(arena.fresh_allocations(), 1);

        let buf = arena.alloc();
        assert!(buf.is_empty(), "recycled buffers come back cleared");
        assert!(buf.capacity() >= cap, "capacity is retained");
        assert_eq!(arena.reuses(), 1);
        assert_eq!(arena.fresh_allocations(), 1, "no second heap allocation");
    }

    #[test]
    fn reset_writes_off_leaked_buffers() {
        let mut arena = Arena::new();
        let _leaked = arena.alloc();
        assert_eq!(arena.checked_out(), 1);
        arena.reset();
        assert_eq!(arena.checked_out(), 0);
        // The pool re-grows lazily after a leak.
        let buf = arena.alloc();
        arena.recycle(buf);
        assert_eq!(arena.pooled(), 1);
    }
}
