//! Fixture: L6 hits in smr — raw block memory handled outside the block
//! pointer's methods — next to an allowed twin and a test region.

pub fn release(p: *mut u8, layout: std::alloc::Layout) {
    // SAFETY: fixture.
    unsafe { std::alloc::dealloc(p, layout) };
}

pub fn copy_out(p: *const u64) -> u64 {
    // SAFETY: fixture.
    unsafe { core::ptr::read(p) }
}

pub fn destroy(p: *mut String) {
    // SAFETY: fixture.
    unsafe { core::ptr::drop_in_place(p) };
}

pub fn unbox(p: *mut u64) -> Box<u64> {
    // SAFETY: fixture.
    unsafe { Box::from_raw(p) }
}

pub fn release_in_the_block_pointer(p: *mut u8, layout: std::alloc::Layout) {
    // SAFETY: fixture.
    unsafe { std::alloc::dealloc(p, layout) }; // LINT-ALLOW: L6 the block's one deallocator
}

#[cfg(test)]
mod tests {
    // Test regions may handle raw memory freely, so this must NOT fire.
    fn scratch(p: *mut u64) -> Box<u64> {
        unsafe { Box::from_raw(p) }
    }
}
