//! Fixture: an L6 hit in smr — interior mutability outside the retire
//! record's accessors — next to the allowed twin and a test region.

pub struct Loose {
    items: std::cell::UnsafeCell<Vec<u64>>,
}

pub struct Record {
    items: std::cell::UnsafeCell<Vec<u64>>, // LINT-ALLOW: L6 the record's accessor
}

#[cfg(test)]
mod tests {
    // Test regions may use cells freely, so this must NOT fire.
    struct Scratch(std::cell::UnsafeCell<u8>);
}
