//! Fixture: seeded L2 violations, plus justified twins that must NOT fire.

pub fn publish(slot: &core::sync::atomic::AtomicUsize) {
    // The identifier stem below ("hazard") marks this as protection state.
    let hazard_word = 7usize;
    slot.store(hazard_word, Ordering::Relaxed);
}

pub fn publish_justified(slot: &core::sync::atomic::AtomicUsize) {
    let epoch_word = 9usize;
    // ORDERING: fixture — justified relaxed store on an epoch counter.
    slot.store(epoch_word, Ordering::Relaxed);
}

pub fn go_light(light: &core::sync::atomic::AtomicUsize) {
    // The stem "light" marks the flag a sweep reads before trusting hazards.
    light.store(1, Ordering::Relaxed);
    core::sync::atomic::compiler_fence(Ordering::SeqCst);
}

pub fn go_light_justified(light: &core::sync::atomic::AtomicUsize) {
    // ORDERING: fixture — the fence below orders the flag.
    light.store(1, Ordering::Relaxed);
    // ORDERING: fixture — pairs with the sweeper's process-wide barrier.
    core::sync::atomic::compiler_fence(Ordering::SeqCst);
}
