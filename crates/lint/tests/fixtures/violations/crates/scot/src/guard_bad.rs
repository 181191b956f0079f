//! Fixture: seeded L5 violations — a guard type without `#[must_use]` and a
//! bare `fn pin`.

pub struct BareGuard {
    slot: usize,
}

#[must_use = "fixture: this one is compliant"]
pub struct GoodGuard {
    slot: usize,
}

impl BareGuard {
    pub fn pin(&mut self) -> GoodGuard {
        GoodGuard { slot: self.slot }
    }
}
