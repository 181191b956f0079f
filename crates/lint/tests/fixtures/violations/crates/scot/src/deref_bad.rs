//! Fixture: seeded L6 violations — raw dereferences outside a protection
//! constructor — next to compliant twins that must not fire.

pub fn bad_deref(p: Shared<Node>) -> u64 {
    // SAFETY: fixture.
    unsafe { p.deref() }.key
}

pub fn bad_link(prev: Link<Node>, curr: Shared<Node>) -> bool {
    // SAFETY: fixture.
    unsafe { prev.load(Ordering::Acquire) } == curr
}

pub fn bad_guarded<'g>(p: Shared<Node>, g: &'g Guard) -> &'g Node {
    // SAFETY: fixture.
    unsafe { p.deref_guarded(g) }
}

pub fn good_constructor(p: Shared<Node>) -> &'static Node {
    // SAFETY: fixture.
    unsafe { p.deref() } // LINT-ALLOW: L6 the fixture's one constructor
}

pub fn good_atomic(a: &Atomic<Node>) -> Shared<Node> {
    a.load(Ordering::Acquire)
}

#[cfg(test)]
mod tests {
    // Test regions may dereference directly, so this must NOT fire.
    fn in_test(p: Shared<Node>) -> u64 {
        // SAFETY: fixture.
        unsafe { p.deref() }.key
    }
}
