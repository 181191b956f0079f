//! Fixture: seeded L3 violations — raw integer slot indices outside
//! `slots.rs` — next to compliant calls that must not fire.

pub fn bad_protect(g: &mut Guard, cell: &Cell) {
    g.protect(2, cell);
}

pub fn bad_dup(g: &mut Guard) {
    g.dup(0, 1);
}

pub fn good_calls(g: &mut Guard, cell: &Cell) {
    g.protect(HP_NEXT, cell);
    g.dup(HP_CURR, HP_PREV);
}
