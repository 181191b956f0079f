//! Fixture: seeded L5 violations in the one-guard shape — a struct named
//! exactly `Guard` without `#[must_use]`, and read-side impls that re-index
//! the slot array, directly or through the retire core's accessor.  The
//! compliant twin of each must NOT fire.

pub struct Guard<'g, S> {
    slot: &'g S,
}

pub mod twin {
    #[must_use = "fixture: this one is compliant"]
    pub struct Guard<'g, S> {
        slot: &'g S,
    }

    // A guard bound does not make a struct a guard.
    pub struct Cursor<'g, G: SmrGuard> {
        guard: &'g mut G,
    }
}

impl ReadSide for Leaky {
    fn protect(g: &mut Guard<'_, Self>, idx: usize) {
        g.scheme().slots()[idx].hazard.store(1, Ordering::Release);
    }
}

impl ReadSide for Resolved {
    fn protect(g: &mut Guard<'_, Self>, idx: usize) {
        g.slot.hazards[idx].store(1, Ordering::Release);
    }
}

impl ReadSide for ThroughTheCore {
    fn exit(g: &mut Guard<'_, Self>) {
        let core = g.scheme().core();
        core.reservation(g.index).epoch.store(0, Ordering::Release);
    }
}
