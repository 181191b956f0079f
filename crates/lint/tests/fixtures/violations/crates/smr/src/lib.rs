//! Fixture axis: a miniature `SmrKind` with two seeded drifts — `ALL` and a
//! hand-enumerated sweep each forgot a variant.  Never compiled; scanned by
//! the lint's tests only.

#[derive(Clone, Copy, PartialEq)]
pub enum SmrKind {
    Nr,
    Ebr,
    Hp,
    He,
    Ibr,
}

impl SmrKind {
    pub const ALL: [SmrKind; 4] = [SmrKind::Nr, SmrKind::Ebr, SmrKind::Hp, SmrKind::He];

    pub fn name(self) -> &'static str {
        match self {
            SmrKind::Nr => "NR",
            SmrKind::Ebr => "EBR",
            SmrKind::Hp => "HP",
            SmrKind::He => "HE",
            SmrKind::Ibr => "IBR",
        }
    }

    pub fn parse(s: &str) -> Option<SmrKind> {
        Some(match s {
            "nr" => SmrKind::Nr,
            "ebr" => SmrKind::Ebr,
            "hp" => SmrKind::Hp,
            "he" => SmrKind::He,
            "ibr" => SmrKind::Ibr,
            _ => return None,
        })
    }
}

pub fn sweep() -> Vec<SmrKind> {
    vec![SmrKind::Nr, SmrKind::Ebr, SmrKind::Hp, SmrKind::Ibr]
}
